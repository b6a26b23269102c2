#include "bench.hpp"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <thread>

namespace perfbench {

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  const std::size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + mid, values.end());
  const double upper = values[mid];
  if (values.size() % 2 == 1) return upper;
  const double lower =
      *std::max_element(values.begin(), values.begin() + mid);
  return (lower + upper) / 2.0;
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

Tail tail_of(std::vector<double> values) {
  Tail tail;
  if (values.empty()) return tail;
  std::sort(values.begin(), values.end());
  constexpr std::size_t kBeyond = 10;
  // With too few samples for any percentile to have ten beyond it, the
  // maximum is the only honest tail.
  const std::size_t index =
      values.size() > kBeyond ? values.size() - kBeyond - 1 : values.size() - 1;
  tail.value = values[index];
  tail.percentile = 100.0 * static_cast<double>(index + 1) /
                    static_cast<double>(values.size());
  return tail;
}

double peak_rss_mb() {
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// ---- placement -------------------------------------------------------------

namespace {

bool pin_to(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int cpu : cpus) CPU_SET(cpu, &set);
  return sched_setaffinity(0, sizeof(set), &set) == 0;
}

}  // namespace

CpuRotation::CpuRotation(std::size_t width) : width_{width} {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &set)) cpus_.push_back(cpu);
  }
}

CpuRotation::~CpuRotation() {
  if (steps_ > 0) pin_to(cpus_);
}

void CpuRotation::step() {
  // With no more CPUs than the width there is nowhere to move to.
  if (failed_ || cpus_.size() <= width_) return;
  std::vector<int> pick;
  for (std::size_t i = 0; i < width_; ++i) {
    pick.push_back(cpus_[(next_ + i) % cpus_.size()]);
  }
  next_ = (next_ + 1) % cpus_.size();
  if (pin_to(pick)) {
    ++steps_;
  } else {
    failed_ = true;
  }
}

std::string CpuRotation::describe() const {
  if (failed_) return "off: sched_setaffinity refused";
  if (cpus_.size() <= width_) {
    return "off: " + std::to_string(cpus_.size()) + " CPUs";
  }
  return std::to_string(steps_) + " steps over " +
         std::to_string(cpus_.size()) + " CPUs, " + std::to_string(width_) +
         " at a time";
}

// ---- metric catalogue ----------------------------------------------------

const std::vector<std::string>& population_archetypes() {
  // The zoo archetypes the paper-calibrated store ships (speechrnn is in
  // the zoo but no app of the Apr'21 world carries it).
  static const std::vector<std::string> kArchetypes{
      "audiocnn", "blazeface", "contournet", "fssd",   "mobilenet",
      "ocrnet",   "posenet",   "sensormlp",  "stylenet", "textcnn",
      "unet",     "vggnet",    "wordrnn"};
  return kArchetypes;
}

const std::vector<LayerMetric>& layer_metrics() {
  static const std::vector<LayerMetric> kMetrics = [] {
    const std::string crawl_tp = "crawl/throughput_per_s";
    std::vector<LayerMetric> m{
        {"android.download_ms", "ms", "crawl",
         crawl_tp + " (synthetic store fixture: not a crawler gain)"},
        {"android.apk_open_ms", "ms", "crawl", crawl_tp},
        {"android.detect_ms", "ms", "crawl", crawl_tp},
        {"zipfile.inflate_ms", "ms", "crawl", crawl_tp},
        {"zipfile.inflated_mb", "MB", "crawl", crawl_tp},
        {"formats.validate_ms", "ms", "crawl", crawl_tp},
        {"formats.candidates", "count", "crawl", crawl_tp},
        {"formats.rejected", "count", "crawl", crawl_tp},
        {"formats.parse_ms", "ms", "crawl", crawl_tp},
        {"formats.parsed", "count", "crawl", crawl_tp},
        {"nn.analyse_ms", "ms", "crawl", crawl_tp},
        {"core.cache_hit_ratio", "ratio", "crawl", crawl_tp},
        {"store.ingest_ms", "ms", "crawl",
         crawl_tp + ", crawl/peak_rss_mb"},
        {"store.docs", "count", "crawl",
         crawl_tp + ", crawl/peak_rss_mb"},
        {"store.seal_ms", "ms", "crawl", crawl_tp},
        {"store.query_ms", "ms", "crawl", crawl_tp},
        {"core.driver_ms", "ms", "crawl", crawl_tp},
        {"telemetry.spans", "count", "crawl",
         crawl_tp + ", crawl/peak_rss_mb"},
        {"nn.build_ms", "ms", "infer", "infer/setup_s"},
        {"nn.pack_ms", "ms", "infer",
         "infer/setup_s, infer/peak_rss_mb"},
    };
    for (const auto& arch : population_archetypes()) {
      const bool heavy =
          arch == "fssd" || arch == "blazeface" || arch == "vggnet";
      m.push_back({"nn.run_ms." + arch, "ms", "infer",
                   heavy ? "infer/throughput_per_s" : "infer/p50_ms"});
    }
    for (const auto& arch : population_archetypes()) {
      m.push_back({"nn.gflops_per_s." + arch, "GFLOP/s", "infer",
                   "infer/throughput_per_s"});
    }
    const std::string serve = "serve_open,serve_closed";
    const std::vector<LayerMetric> rest{
        {"nn.optimised_p50_ms", "ms", "infer", "infer/p50_ms"},
        {"nn.quantised_p50_ms", "ms", "infer", "infer/p50_ms"},
        {"nn.peak_activation_mb", "MB", "infer", "infer/peak_rss_mb"},
        {"serve.start_ms", "ms", serve, "serve_*/setup_s"},
        {"serve.warm_ms", "ms", serve, "serve_*/setup_s"},
        {"serve.queue_p50_ms", "ms", serve, "serve_open/p50_ms"},
        {"serve.queue_tail_ms", "ms", serve, "serve_open/p50_ms"},
        {"serve.exec_p50_ms", "ms", serve,
         "serve_closed/throughput_per_s"},
        {"serve.batch_mean", "requests", serve,
         "serve_closed/throughput_per_s"},
        {"net.conn_wait_p50_ms", "ms", serve,
         "serve_closed/p50_ms, serve_open/tail_ms"},
        {"net.conn_wait_tail_ms", "ms", serve,
         "serve_closed/p50_ms, serve_open/tail_ms"},
        {"serve.shed_ratio", "ratio", serve,
         "serve_*/fail_ratio (failed / attempted)"},
        {"serve.error_ratio", "ratio", serve,
         "serve_*/fail_ratio (failed / attempted)"},
        {"generator.lag_p50_ms", "ms", serve,
         "none: serve_open is valid only while it stays near 0"},
        {"generator.lag_max_ms", "ms", serve,
         "none: serve_open is valid only while it stays near 0"},
    };
    m.insert(m.end(), rest.begin(), rest.end());
    return m;
  }();
  return kMetrics;
}

// ---- results -------------------------------------------------------------

namespace {

// JSON numbers must be finite; a non-finite measurement is a bench bug.
double finite_or_zero(double value, bool* correct) {
  if (std::isfinite(value)) return value;
  *correct = false;
  return 0.0;
}

std::string json_escape(const std::string& text) {
  std::string out;
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string number(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

}  // namespace

Result::Result(std::string workload, bool traced)
    : workload_{std::move(workload)}, traced_{traced} {}

void Result::metric(const std::string& name, double value,
                    const std::string& unit, const std::string& note) {
  value = finite_or_zero(value, &correct_);
  std::printf("%s/%s = %.6g %s  (%s)\n", workload_.c_str(), name.c_str(),
              value, unit.c_str(), note.c_str());
  metrics_.emplace_back(name, Value{value, unit, note});
}

void Result::layer(const std::string& name, double value,
                   const std::string& note) {
  const auto& catalogue = layer_metrics();
  const auto it =
      std::find_if(catalogue.begin(), catalogue.end(),
                   [&](const LayerMetric& m) { return m.name == name; });
  if (it == catalogue.end()) {
    gate("layer_metric_known", false, "unknown per-layer metric " + name);
    return;
  }
  layers_[name] = Value{finite_or_zero(value, &correct_), it->unit, note};
}

void Result::gate(const std::string& name, bool ok,
                  const std::string& detail) {
  std::printf("gate %s: %s  (%s)\n", name.c_str(), ok ? "ok" : "FAILED",
              detail.c_str());
  if (!ok) correct_ = false;
}

std::string Result::finish() {
  std::string metrics;
  const auto append = [&metrics](const std::string& name, const Value& v) {
    if (!metrics.empty()) metrics += ", ";
    metrics += "\"" + json_escape(name) + "\": {\"value\": " + number(v.value) +
               ", \"unit\": \"" + json_escape(v.unit) + "\"}";
  };
  if (traced_) {
    std::printf("per-layer summary (%s traced run):\n", workload_.c_str());
    for (const auto& m : layer_metrics()) {
      const auto it = layers_.find(m.name);
      const Value v = it != layers_.end() ? it->second : Value{0.0, m.unit, ""};
      const bool exercised = m.workload.find(workload_) != std::string::npos;
      std::printf("  %-28s %14.6g %-8s %s  [moves %s]\n", m.name.c_str(),
                  v.value, m.unit.c_str(),
                  exercised ? v.note.c_str() : "layer not on this workload",
                  m.moves.c_str());
      append(m.name, v);
    }
  } else {
    for (const auto& [name, v] : metrics_) append(name, v);
  }
  return "{\"correct\": " + std::string{correct_ ? "true" : "false"} +
         ", \"attempted\": " + std::to_string(attempted_) +
         ", \"failed\": " + std::to_string(failed_) + ", \"metrics\": {" +
         metrics + "}}";
}

// ---- tracing -------------------------------------------------------------

Tracer::Tracer() : epoch_{Clock::now()} { spans_.reserve(1 << 16); }

std::uint64_t Tracer::to_ns(Clock::time_point at) const {
  if (at <= epoch_) return 0;
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(at - epoch_)
          .count());
}

Tracer::Scope::Scope(Tracer* tracer, const char* name, std::uint64_t group)
    : tracer_{tracer} {
  if (tracer_ == nullptr) return;
  index_ = tracer_->spans_.size();
  Span span;
  span.name = name;
  span.group = group;
  span.parent = tracer_->open_.empty()
                    ? -1
                    : static_cast<std::int64_t>(tracer_->open_.back());
  tracer_->spans_.push_back(span);
  tracer_->open_.push_back(index_);
  tracer_->spans_[index_].start_ns = tracer_->now_ns();
}

Tracer::Scope::~Scope() {
  if (tracer_ == nullptr) return;
  tracer_->spans_[index_].end_ns = tracer_->now_ns();
  tracer_->open_.pop_back();
}

void Tracer::Scope::fail() {
  if (tracer_ != nullptr) tracer_->spans_[index_].failed = true;
}

std::size_t Tracer::add(const char* name, std::uint64_t group,
                        std::int64_t parent, std::uint64_t start_ns,
                        std::uint64_t end_ns, std::uint32_t track,
                        bool failed) {
  Span span;
  span.name = name;
  span.group = group;
  span.parent = parent;
  span.start_ns = start_ns;
  span.end_ns = std::max(start_ns, end_ns);
  span.track = track;
  span.failed = failed;
  spans_.push_back(span);
  return spans_.size() - 1;
}

std::map<std::string, Tracer::Totals> Tracer::totals() const {
  std::vector<std::uint64_t> child_ns(spans_.size(), 0);
  for (const auto& span : spans_) {
    if (span.parent >= 0) {
      child_ns[static_cast<std::size_t>(span.parent)] +=
          span.end_ns - span.start_ns;
    }
  }
  std::map<std::string, Totals> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const auto& span = spans_[i];
    const std::uint64_t busy = span.end_ns - span.start_ns;
    auto& totals = out[span.name];
    ++totals.count;
    totals.busy_ms += static_cast<double>(busy) / 1e6;
    totals.self_ms +=
        static_cast<double>(busy - std::min(busy, child_ns[i])) / 1e6;
    if (span.failed) ++totals.failures;
  }
  return out;
}

void Tracer::print_totals() const {
  for (const auto& [name, t] : totals()) {
    std::printf("span %-18s count %zu, busy %.1f ms, self %.1f ms, "
                "failures %zu\n",
                name.c_str(), t.count, t.busy_ms, t.self_ms, t.failures);
  }
}

bool Tracer::write_chrome_trace(
    const std::string& path,
    const std::map<std::string, std::string>& metadata) const {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  std::string chunk = "{\"traceEvents\": [\n";
  char buffer[320];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const auto& span = spans_[i];
    std::snprintf(
        buffer, sizeof buffer,
        "%s{\"name\":\"%s\",\"cat\":\"perfbench\",\"ph\":\"X\",\"ts\":%.3f,"
        "\"dur\":%.3f,\"pid\":1,\"tid\":%u,\"args\":{\"group\":%llu,"
        "\"span\":%zu,\"parent\":%lld,\"failed\":%s}}",
        i == 0 ? "" : ",\n", span.name,
        static_cast<double>(span.start_ns) / 1e3,
        static_cast<double>(span.end_ns - span.start_ns) / 1e3, span.track,
        static_cast<unsigned long long>(span.group), i,
        static_cast<long long>(span.parent), span.failed ? "true" : "false");
    chunk += buffer;
    if (chunk.size() > (1u << 20)) {
      std::fwrite(chunk.data(), 1, chunk.size(), file);
      chunk.clear();
    }
  }
  chunk += "\n], \"displayTimeUnit\": \"ms\", \"otherData\": {";
  bool first = true;
  for (const auto& [key, value] : metadata) {
    chunk += (first ? "\"" : ", \"") + json_escape(key) + "\": \"" +
             json_escape(value) + "\"";
    first = false;
  }
  chunk += "}}\n";
  std::fwrite(chunk.data(), 1, chunk.size(), file);
  return std::fclose(file) == 0;
}

std::map<std::string, std::string> host_metadata(const Options& options) {
  std::map<std::string, std::string> meta;
  meta["nproc"] = std::to_string(std::thread::hardware_concurrency());
#if defined(__clang__)
  meta["compiler"] = std::string{"clang "} + __clang_version__;
#elif defined(__GNUC__)
  meta["compiler"] = std::string{"gcc "} + __VERSION__;
#else
  meta["compiler"] = "unknown";
#endif
  meta["build_type"] = PERFBENCH_BUILD_TYPE;
  meta["workload"] = options.workload;
  meta["seed"] = std::to_string(options.seed);
  meta["seconds"] = number(options.seconds);
  meta["trace"] = options.trace ? "1" : "0";
  meta["source"] = options.source;
  return meta;
}

}  // namespace perfbench
