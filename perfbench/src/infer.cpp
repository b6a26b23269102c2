// infer: the paper's on-device benchmark on the host kernel engine. Every
// distinct model of the paper-calibrated Apr'21 store runs through
// nn::Interpreter on one thread, f32 models on the optimised backend and
// int8 models on the quantised one. Timing is in rounds that run every
// model once in id order, so host drift hits all models alike.
//
// A model's latency is its fastest run over the rounds. Its outputs are
// bit-identical in every round (a gate), so every run does the same work,
// and the shared host's interference only ever adds time: on a 4-vCPU KVM
// host the median round rate of 10 s windows swung from 640/s to 1,100/s
// within four minutes, while the rate of a round at each model's fastest
// run held at 1,110-1,180/s in 20 of the 24 windows. The fastest run is
// the program's own cost; the median also measures the neighbours.
//
// The population is the calibrated store's (StoreConfig{}), not the seed's:
// other store seeds redraw model resolutions and int8 shares, which moves
// the work in a round by more than any bound could absorb. The seed draws
// the input tensors.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <thread>

#include "android/playstore.hpp"
#include "bench.hpp"
#include "nn/interp.hpp"
#include "nn/trace.hpp"
#include "util/strings.hpp"

namespace perfbench {
namespace {

using namespace gauge;
namespace kernels = nn::kernels;

constexpr int kSetups = 7;
constexpr int kMinRounds = 5;
// Kernel-parity tolerances of the kernel test suite's zoo sweep:
// |alt - ref| <= tol * (1 + |ref|).
constexpr double kOptimisedTolerance = 1e-3;
constexpr double kQuantisedTolerance = 0.35;

struct Model {
  int id = 0;
  std::string archetype;
  kernels::ExecBackend backend = kernels::ExecBackend::Optimised;
  nn::Graph graph;
  std::vector<nn::Tensor> inputs;
  std::unique_ptr<nn::Interpreter> interpreter;  // holds a reference to graph
};

struct Population {
  std::vector<std::unique_ptr<Model>> models;
  double build_ms = 0.0;  // build_unique_model + random_inputs
  double pack_ms = 0.0;   // Interpreter construction
  double warm_ms = 0.0;   // one warm-up run each
  double seconds = 0.0;
  std::size_t failures = 0;
};

// One store model's runs over every set-up of the run.
struct Timing {
  std::vector<nn::Tensor> first_outputs;  // round 0 of the first set-up
  std::vector<double> run_ms;

  double fastest_ms() const {
    return run_ms.empty() ? 0.0
                          : *std::min_element(run_ms.begin(), run_ms.end());
  }
};

std::uint64_t input_seed(std::uint64_t seed, int id) {
  return seed * 0x9E3779B97F4A7C15ull + static_cast<std::uint64_t>(id);
}

// All lazy start-up: graphs, inputs, weight packing and one warm-up run.
// The store is the fixture the models come from; it is built once, outside.
Population set_up(const android::PlayStore& store, std::uint64_t seed) {
  Population pop;
  const auto start = Clock::now();
  auto t = start;
  for (const auto& unique : store.unique_models()) {
    auto model = std::make_unique<Model>();
    model->id = unique.id;
    model->archetype = unique.archetype;
    model->backend = unique.int8_weights || unique.int8_activations
                         ? kernels::ExecBackend::Quantised
                         : kernels::ExecBackend::Optimised;
    model->graph = store.build_unique_model(unique.id);
    auto inputs = nn::random_inputs(model->graph, input_seed(seed, unique.id));
    if (inputs.ok()) {
      model->inputs = std::move(inputs).take();
    } else {
      ++pop.failures;
    }
    pop.models.push_back(std::move(model));
  }
  pop.build_ms = ms_between(t, Clock::now());
  t = Clock::now();
  for (auto& model : pop.models) {
    model->interpreter =
        std::make_unique<nn::Interpreter>(model->graph, 1, model->backend);
  }
  pop.pack_ms = ms_between(t, Clock::now());
  t = Clock::now();
  for (auto& model : pop.models) {
    if (!model->interpreter->run(model->inputs).ok()) ++pop.failures;
  }
  pop.warm_ms = ms_between(t, Clock::now());
  pop.seconds = seconds_between(start, Clock::now());
  return pop;
}

bool same_tensors(const std::vector<nn::Tensor>& a,
                  const std::vector<nn::Tensor>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].dtype() != b[i].dtype() || a[i].shape() != b[i].shape()) {
      return false;
    }
    const auto bytes = [](const nn::Tensor& t) -> const void* {
      switch (t.dtype()) {
        case nn::DType::F32: return t.f32().data();
        case nn::DType::I8: return t.i8().data();
        case nn::DType::I32: return t.i32().data();
      }
      return nullptr;
    };
    if (std::memcmp(bytes(a[i]), bytes(b[i]), a[i].byte_size()) != 0) {
      return false;
    }
  }
  return true;
}

// Elementwise agreement of f32 outputs with the reference backend.
bool within_tolerance(const std::vector<nn::Tensor>& reference,
                      const std::vector<nn::Tensor>& alt, double tol) {
  if (reference.size() != alt.size()) return false;
  for (std::size_t t = 0; t < reference.size(); ++t) {
    if (reference[t].dtype() != alt[t].dtype()) return false;
    if (reference[t].dtype() != nn::DType::F32) continue;
    const auto& r = reference[t].f32();
    const auto& a = alt[t].f32();
    if (r.size() != a.size()) return false;
    for (std::size_t i = 0; i < r.size(); ++i) {
      if (!(std::abs(r[i] - a[i]) <= tol * (1.0 + std::abs(r[i])))) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace

void run_infer(const Options& options, Result& result) {
  const android::PlayStore store{android::StoreConfig{}};
  // kSetups segments, each a fresh set-up followed by its share of the
  // timed rounds, so the set-ups sample the host over the whole window and
  // not only its first seconds. Every set-up and every round starts on the
  // next CPU. A traced run alternates traced and untraced rounds so the
  // tracing overhead is measured under the same host drift.
  auto rotation = std::make_unique<CpuRotation>();
  Tracer tracer;
  std::vector<double> setup_s, build_ms, pack_ms;
  std::vector<double> round_rate, traced_round_s, untraced_round_s;
  std::vector<Timing> timing;
  std::vector<std::vector<nn::Tensor>> outputs;
  std::uint64_t attempted = 0, failed = 0;
  std::size_t setup_failures = 0, drifted = 0;
  double timed_s = 0.0;
  int rounds = 0;
  Population pop;
  for (int segment = 0; segment < kSetups; ++segment) {
    pop = Population{};  // free the previous population first
    rotation->step();
    pop = set_up(store, options.seed);
    setup_s.push_back(pop.seconds);
    build_ms.push_back(pop.build_ms);
    pack_ms.push_back(pop.pack_ms);
    setup_failures += pop.failures;
    if (segment == 0) {
      timing.resize(pop.models.size());
      outputs.resize(pop.models.size());
    }
    const bool last = segment + 1 == kSetups;
    const double segment_end = options.seconds * (segment + 1) / kSetups;
    for (int segment_rounds = 0; segment_rounds == 0 ||
                                 timed_s < segment_end ||
                                 (last && rounds < kMinRounds);
         ++segment_rounds, ++rounds) {
      Tracer* trace = options.trace && rounds % 2 == 1 ? &tracer : nullptr;
      rotation->step();
      const auto round_start = Clock::now();
      {
        Tracer::Scope round_span{trace, "infer.round",
                                 static_cast<std::uint64_t>(rounds)};
        for (std::size_t i = 0; i < timing.size(); ++i) {
          Model& model = *pop.models[i];
          Tracer::Scope span{trace, "nn.run",
                             static_cast<std::uint64_t>(model.id)};
          const auto t0 = Clock::now();
          auto out = model.interpreter->run(model.inputs);
          timing[i].run_ms.push_back(ms_between(t0, Clock::now()));
          ++attempted;
          if (out.ok()) {
            outputs[i] = std::move(out).take();
          } else {
            ++failed;
            span.fail();
            outputs[i].clear();
          }
        }
      }
      const double round_s = seconds_between(round_start, Clock::now());
      timed_s += round_s;
      round_rate.push_back(static_cast<double>(timing.size()) / round_s);
      (trace ? traced_round_s : untraced_round_s).push_back(round_s);
      // Bit-identity across rounds and set-ups, checked outside the
      // round's clock.
      for (std::size_t i = 0; i < timing.size(); ++i) {
        if (rounds == 0) {
          timing[i].first_outputs = std::move(outputs[i]);
        } else if (!same_tensors(timing[i].first_outputs, outputs[i])) {
          ++drifted;
        }
      }
    }
  }
  const std::string placement = rotation->describe();
  rotation.reset();  // the reference runs below use every CPU again
  const std::size_t n_models = timing.size();
  result.gate("setup", setup_failures == 0,
              util::format("%zu models built, packed and warmed %d times, "
                           "%zu failures",
                           n_models, kSetups, setup_failures));
  result.gate("runs_ok", failed == 0,
              util::format("%llu of %llu runs failed",
                           static_cast<unsigned long long>(failed),
                           static_cast<unsigned long long>(attempted)));
  result.gate("bit_identical", drifted == 0,
              util::format("%zu model-rounds differ from round 0 over %d "
                           "rounds of %d set-ups",
                           drifted, rounds, kSetups));

  // Kernel parity against the scalar reference backend, after timing.
  const unsigned ref_threads =
      std::max(1u, std::min(4u, std::thread::hardware_concurrency()));
  std::size_t parity_failures = 0;
  for (std::size_t i = 0; i < n_models; ++i) {
    const Model& model = *pop.models[i];
    nn::Interpreter reference{model.graph, ref_threads,
                              kernels::ExecBackend::Reference};
    const auto out = reference.run(model.inputs);
    const double tol = model.backend == kernels::ExecBackend::Quantised
                           ? kQuantisedTolerance
                           : kOptimisedTolerance;
    if (!out.ok() ||
        !within_tolerance(out.value(), timing[i].first_outputs, tol)) {
      ++parity_failures;
    }
  }
  result.gate("reference_parity", parity_failures == 0,
              util::format("%zu of %zu models outside kernel-parity tolerance "
                           "(optimised %g, quantised %g)",
                           parity_failures, n_models, kOptimisedTolerance,
                           kQuantisedTolerance));
  result.operations(attempted, failed);

  if (!options.trace) {
    // One latency per model, its fastest of the rounds; the round those
    // latencies add up to gives the throughput.
    std::vector<double> fastest_ms;
    double round_ms = 0.0;
    for (const auto& model : timing) {
      fastest_ms.push_back(model.fastest_ms());
      round_ms += fastest_ms.back();
    }
    result.metric("throughput_per_s",
                  round_ms > 0 ? 1e3 * static_cast<double>(n_models) / round_ms
                               : 0.0,
                  "1/s",
                  util::format("%zu models / a round of %.2f ms at each "
                               "model's fastest of %d runs; median round "
                               "rate %.1f/s; %llu inferences in %.2f s; CPU "
                               "rotation %s",
                               n_models, round_ms, rounds, median(round_rate),
                               static_cast<unsigned long long>(attempted),
                               timed_s, placement.c_str()));
    result.metric("p50_ms", median(fastest_ms), "ms",
                  util::format("per model (fastest of %d runs), n=%zu models",
                               rounds, n_models));
    const Tail tail = tail_of(std::move(fastest_ms));
    result.metric("tail_ms", tail.value, "ms",
                  util::format("p%.3f per model (fastest of %d runs), n=%zu "
                               "models",
                               tail.percentile, rounds, n_models));
    const auto [fastest, slowest] =
        std::minmax_element(setup_s.begin(), setup_s.end());
    result.metric("setup_s", median(setup_s), "s",
                  util::format("median of %d set-ups (build, pack, warm-up), "
                               "one before each %dth of the rounds: %.3f to "
                               "%.3f s",
                               kSetups, kSetups, *fastest, *slowest));
    result.metric("peak_rss_mb", peak_rss_mb(), "MB", "getrusage ru_maxrss");
    std::printf("infer/fail_ratio = %.6g ratio  (%llu of %llu inferences)\n",
                attempted ? static_cast<double>(failed) /
                                static_cast<double>(attempted)
                          : 0.0,
                static_cast<unsigned long long>(failed),
                static_cast<unsigned long long>(attempted));
    return;
  }

  // ---- traced run: per-layer metrics ----
  tracer.print_totals();
  result.layer("nn.build_ms", median(build_ms),
               util::format("%zu graphs + inputs, median of %d set-ups",
                            n_models, kSetups));
  result.layer("nn.pack_ms", median(pack_ms),
               util::format("%zu interpreters (weight packing), median of "
                            "%d set-ups",
                            n_models, kSetups));
  // Per model, as in the end-to-end metrics: its fastest run.
  std::map<std::string, std::vector<double>> arch_ms;
  std::map<std::string, double> arch_flops, arch_fastest_sum;
  std::vector<double> optimised_ms, quantised_ms;
  double peak_activation = 0.0;
  for (std::size_t i = 0; i < n_models; ++i) {
    const Model* model = pop.models[i].get();
    const double fastest = timing[i].fastest_ms();
    arch_ms[model->archetype].push_back(fastest);
    (model->backend == kernels::ExecBackend::Quantised ? quantised_ms
                                                       : optimised_ms)
        .push_back(fastest);
    const auto trace = nn::trace_model(model->graph);
    if (trace.ok()) {
      arch_flops[model->archetype] +=
          static_cast<double>(trace.value().total_flops);
    }
    arch_fastest_sum[model->archetype] += fastest;
    peak_activation = std::max(
        peak_activation,
        static_cast<double>(model->interpreter->stats().peak_activation_bytes));
  }
  for (const auto& arch : population_archetypes()) {
    const auto it = arch_ms.find(arch);
    if (it == arch_ms.end()) continue;
    result.layer("nn.run_ms." + arch, median(it->second),
                 util::format("median over %zu models of each one's fastest "
                              "of %d runs",
                              it->second.size(), rounds));
    const double seconds = arch_fastest_sum[arch] / 1e3;
    result.layer("nn.gflops_per_s." + arch,
                 seconds > 0 ? arch_flops[arch] / seconds / 1e9 : 0.0,
                 "trace_model FLOPs / per-model fastest run, summed");
  }
  for (const auto& [arch, samples] : arch_ms) {
    if (std::find(population_archetypes().begin(),
                  population_archetypes().end(),
                  arch) == population_archetypes().end()) {
      std::printf("note: archetype %s is not in the metric catalogue\n",
                  arch.c_str());
    }
  }
  result.layer("nn.optimised_p50_ms", median(optimised_ms),
               util::format("per model (fastest run), n=%zu models",
                            optimised_ms.size()));
  result.layer("nn.quantised_p50_ms", median(quantised_ms),
               util::format("per model (fastest run), n=%zu models",
                            quantised_ms.size()));
  result.layer("nn.peak_activation_mb", peak_activation / (1 << 20),
               "max RunStats::peak_activation_bytes");
  const double traced = median(traced_round_s);
  const double untraced = median(untraced_round_s);
  std::printf(
      "tracing overhead: traced round %.2f ms vs untraced round %.2f ms "
      "(%+.2f%%, %zu + %zu rounds)\n",
      traced * 1e3, untraced * 1e3, 100.0 * (traced - untraced) / untraced,
      traced_round_s.size(), untraced_round_s.size());
  result.gate("trace_written",
              tracer.write_chrome_trace(options.trace_path,
                                        host_metadata(options)),
              options.trace_path);
}

}  // namespace perfbench
