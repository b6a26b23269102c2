// crawl: the offline study end to end. Each timed pass crawls a freshly
// built paper-calibrated Apr'21 store with core::run_pipeline on one
// pipeline worker, walking the category charts in an order drawn from the
// seed, and renders the single-snapshot report tables. The traced run takes
// one serial pass of the program: its per-app stage rows are the program's
// own pipeline.* spans, and what the program does not span (Apk::read,
// DocStore ingest, the first snapshot, the report builders) is timed from
// outside after the pass.
//
// The store is the calibrated one, not the seed's: other store seeds redraw
// model sizes, and the heaviest analyses (the per-app latency tail) moved
// by a third from seed to seed.
#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <set>
#include <unordered_map>

#include "android/apk.hpp"
#include "android/playstore.hpp"
#include "bench.hpp"
#include "core/pipeline.hpp"
#include "core/records.hpp"
#include "core/report.hpp"
#include "formats/plugin.hpp"
#include "telemetry/metrics.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace perfbench {
namespace {

using namespace gauge;

// One pipeline worker: the executor's thread pool, its in-flight window and
// the ordered merge on the calling thread all run, while the pass stays
// single-threaded enough to be steady. At two workers the run-to-run spread
// of throughput on a shared 4-vCPU host (36% over five seeds) exceeded any
// bound the benchmark may set.
constexpr unsigned kCrawlThreads = 1;
constexpr int kMinPasses = 3;

// A new store for every pass, model files serialised before the pass's
// clock starts, so no pass reuses another's downloads.
std::unique_ptr<android::PlayStore> fresh_store() {
  auto store = std::make_unique<android::PlayStore>(android::StoreConfig{});
  for (const auto& model : store->unique_models()) {
    (void)store->serialize_model(model.id);
  }
  return store;
}

// The single-snapshot report: Tables 2 and 3, Figs. 4, 6, 7 and 15, §3.1
// and §4.2.
std::string render_report(const core::SnapshotDataset& dataset) {
  std::string out = core::table2_dataset(dataset).render();
  out += core::table3_tasks(dataset).render();
  out += core::fig4_frameworks(dataset).render();
  out += core::fig4_framework_totals(dataset).render();
  out += core::fig6_layer_composition(dataset).render();
  out += core::fig7_flops_params(dataset).render();
  out += core::fig15_cloud(dataset).render();
  out += core::sec31_no_parser(dataset).render();
  out += core::sec42_distribution(dataset).render();
  return out;
}

struct Counts {
  std::uint64_t attempted = 0;  // apps handed to the per-app stage chain
  std::uint64_t failed = 0;     // download_failed + bad_apk drops
  std::uint64_t apps = 0;
  std::uint64_t candidates = 0;
  std::uint64_t validated = 0;
  std::uint64_t rejected = 0;  // bad_signature + no_parser + parse_failed
  std::uint64_t parse_failed = 0;
  std::uint64_t analyses = 0;  // unique analyses (cache misses)
  std::uint64_t cache_hits = 0;
};

struct Pass {
  double seconds = 0.0;      // run_pipeline + report rendering
  double run_seconds = 0.0;  // run_pipeline alone
  std::uint64_t digest = 0;
  std::string tables;
  Counts counts;
  // The program's pipeline.app span of every app, by package.
  std::vector<std::pair<std::string, double>> app_ms;
  std::uint64_t spans = 0;     // recorded + dropped
  // Kept by the traced run only: the dataset and every program span.
  core::SnapshotDataset dataset;
  std::vector<telemetry::SpanRecord> records;
};

// The order the crawler walks the 34 category charts in. An app charting in
// several categories is crawled under the first, and a model is analysed
// in the first app that ships it, so the order moves work between apps.
std::vector<std::string> crawl_order(std::uint64_t seed) {
  std::vector<std::string> order = android::PlayStore::categories();
  util::Rng rng{seed};
  rng.shuffle(order);
  return order;
}

// One end-to-end pass under a fresh telemetry registry: the registry is
// process-global and its span store fills up, so passes are identical only
// when each starts from an empty one.
Pass pipeline_pass(const android::PlayStore& store,
                   const std::vector<std::string>& order, unsigned threads,
                   bool keep = false) {
  Pass pass;
  telemetry::MetricsRegistry registry;
  telemetry::ScopedRegistry scope{registry};
  core::PipelineOptions options;
  options.categories = order;
  options.threads = threads;
  {
    const auto start = Clock::now();
    core::SnapshotDataset dataset = core::run_pipeline(store, options);
    pass.run_seconds = seconds_between(start, Clock::now());
    pass.tables = render_report(dataset);
    pass.seconds = seconds_between(start, Clock::now());
    pass.digest = core::dataset_digest(dataset);
    pass.counts.apps = dataset.apps.size();
    pass.counts.validated = dataset.models.size();
    for (const auto& app : dataset.apps) {
      pass.counts.candidates += static_cast<std::uint64_t>(app.candidate_files);
    }
    if (keep) pass.dataset = std::move(dataset);
  }
  std::map<std::string, std::int64_t> counters;
  for (const auto& [name, value] : registry.counters()) counters[name] = value;
  const auto counter = [&counters](const char* name) {
    const auto it = counters.find(name);
    return it == counters.end() ? 0ull
                                : static_cast<unsigned long long>(it->second);
  };
  pass.counts.attempted = counter("gauge.pipeline.apps_crawled");
  pass.counts.failed = counter("gauge.pipeline.drop.download_failed") +
                       counter("gauge.pipeline.drop.bad_apk");
  pass.counts.parse_failed = counter("gauge.pipeline.drop.parse_failed");
  pass.counts.rejected = counter("gauge.pipeline.drop.bad_signature") +
                         counter("gauge.pipeline.drop.no_parser") +
                         pass.counts.parse_failed;
  pass.counts.analyses = counter("gauge.pipeline.cache_misses");
  pass.counts.cache_hits = counter("gauge.pipeline.cache_hits");
  auto spans = registry.spans();
  pass.spans = spans.size() + registry.spans_dropped();
  for (const auto& span : spans) {
    if (span.name != "pipeline.app") continue;
    std::string package;
    for (const auto& [key, value] : span.args) {
      if (key == "package") package = value;
    }
    pass.app_ms.emplace_back(std::move(package),
                             static_cast<double>(span.duration_ns) / 1e6);
  }
  if (keep) pass.records = std::move(spans);
  return pass;
}

// ---- traced run ------------------------------------------------------------

// Copies the program's spans of one pass into the tracer, so the per-name
// totals and the Chrome trace hold them beside the spans timed from
// outside. A span's group is its pipeline.app ancestor's place in the pass.
// Program spans carry no status, so they never count as failures.
void import_spans(const std::vector<telemetry::SpanRecord>& records,
                  std::uint64_t offset_ns, std::set<std::string>& names,
                  Tracer& tracer) {
  std::unordered_map<std::uint64_t, std::size_t> index_of;
  std::unordered_map<std::uint64_t, std::uint64_t> app_of;
  for (std::size_t i = 0; i < records.size(); ++i) {
    index_of[records[i].id] = i;
    if (records[i].name == "pipeline.app") {
      const std::uint64_t ordinal = app_of.size();
      app_of[records[i].id] = ordinal;
    }
  }
  const std::size_t base = tracer.size();
  for (const auto& record : records) {
    std::uint64_t group = 0;
    for (std::uint64_t id = record.id; id != 0;) {
      if (const auto app = app_of.find(id); app != app_of.end()) {
        group = app->second;
        break;
      }
      const auto at = index_of.find(id);
      id = at == index_of.end() ? 0 : records[at->second].parent_id;
    }
    const auto parent = index_of.find(record.parent_id);
    tracer.add(names.insert(record.name).first->c_str(), group,
               parent == index_of.end()
                   ? -1
                   : static_cast<std::int64_t>(base + parent->second),
               offset_ns + record.start_ns,
               offset_ns + record.start_ns + record.duration_ns);
  }
}

void crawl_traced(const Options& options, Result& result) {
  const auto order = crawl_order(options.seed);
  auto store = fresh_store();
  std::set<std::string> names;  // owns the imported span names
  Tracer tracer;

  // One serial pass of the program, untouched: its pipeline.* spans are
  // recorded in every run, so they cost this pass nothing extra.
  const std::uint64_t pass_start_ns = tracer.now_ns();
  const Pass pass = pipeline_pass(*store, order, 0, /*keep=*/true);
  import_spans(pass.records, pass_start_ns, names, tracer);
  const auto& dataset = pass.dataset;

  // What the program does not span, timed from outside after the pass.
  telemetry::MetricsRegistry registry;
  telemetry::ScopedRegistry scope{registry};
  const core::PipelineOptions defaults;
  const auto& plugins = formats::PluginRegistry::instance();
  std::uint64_t reads = 0, read_failures = 0;
  double inflated_bytes = 0.0;
  // zipfile: Apk::read of every candidate entry of every crawled app. The
  // weights sibling a two-file format names is a candidate itself, so this
  // is the set process_app's read-once memo inflates.
  for (std::size_t i = 0; i < dataset.apps.size(); ++i) {
    auto pkg = store->download(dataset.apps[i].package, defaults.snapshot,
                               defaults.device_profile);
    if (!pkg.ok()) continue;
    auto apk = android::Apk::open(std::move(pkg.value().apk),
                                  defaults.zip_limits);
    if (!apk.ok()) continue;
    for (const auto& name : apk.value().entry_names()) {
      if (!plugins.is_candidate(name)) continue;
      Tracer::Scope span{&tracer, "zipfile.inflate", i};
      const auto bytes = apk.value().read(name);
      ++reads;
      if (bytes.ok()) {
        inflated_bytes += static_cast<double>(bytes.value().size());
      } else {
        ++read_failures;
        span.fail();
      }
    }
  }
  // store: DocStore::insert of every core::to_document record into fresh
  // stores, in the merge's order, then the first snapshot() and the report
  // builders on them.
  core::SnapshotDataset copy;
  copy.snapshot = dataset.snapshot;
  copy.apps = dataset.apps;
  copy.models = dataset.models;
  copy.no_parser_drops = dataset.no_parser_drops;
  {
    Tracer::Scope span{&tracer, "store.ingest", 0};
    for (const auto& model : copy.models) {
      copy.model_docs.insert(core::to_document(model));
    }
    for (const auto& app : copy.apps) {
      copy.app_docs.insert(core::to_document(app));
    }
  }
  {
    Tracer::Scope span{&tracer, "store.seal", 0};
    (void)copy.app_docs.snapshot();
    (void)copy.model_docs.snapshot();
  }
  std::string tables;
  {
    Tracer::Scope span{&tracer, "store.query", 0};
    tables = render_report(copy);
  }

  tracer.print_totals();
  const auto totals = tracer.totals();
  const auto total = [&totals](const char* name) {
    const auto it = totals.find(name);
    return it == totals.end() ? Tracer::Totals{} : it->second;
  };
  const std::uint64_t docs = copy.apps.size() + copy.models.size();
  const auto& counts = pass.counts;
  // The rows below read these program spans by name; a renamed or removed
  // span must fail the run, not read 0.
  std::string missing;
  for (const char* span :
       {"pipeline.app", "pipeline.download", "pipeline.apk_open",
        "pipeline.detect", "pipeline.validate", "pipeline.parse",
        "pipeline.analyse"}) {
    if (total(span).count == 0) {
      missing += std::string{missing.empty() ? "" : ", "} + span;
    }
  }
  result.gate("program_spans", missing.empty(),
              missing.empty() ? "every pipeline.* span the rows read is "
                                "recorded"
                              : "no spans named " + missing);
  result.gate(
      "layer_counts",
      total("pipeline.app").count == counts.attempted &&
          total("pipeline.parse").count == counts.analyses &&
          reads == counts.candidates && read_failures == 0,
      util::format("pipeline.app spans %zu, apps crawled %llu; "
                   "pipeline.parse spans %zu, unique analyses %llu; "
                   "Apk::read %llu (%llu failed), candidate files %llu",
                   total("pipeline.app").count,
                   static_cast<unsigned long long>(counts.attempted),
                   total("pipeline.parse").count,
                   static_cast<unsigned long long>(counts.analyses),
                   static_cast<unsigned long long>(reads),
                   static_cast<unsigned long long>(read_failures),
                   static_cast<unsigned long long>(counts.candidates)));
  result.gate("reingest_digest", core::dataset_digest(copy) == pass.digest,
              util::format("%llu documents re-inserted, digest %016llx",
                           static_cast<unsigned long long>(docs),
                           static_cast<unsigned long long>(pass.digest)));
  result.gate("reingest_report", tables == pass.tables,
              "report tables on the re-ingested stores byte-identical to "
              "the pass's");
  result.operations(counts.attempted, counts.failed);

  const auto program_row = [&](const char* metric, const char* span) {
    result.layer(metric, total(span).busy_ms,
                 util::format("busy time of the program's %s spans (%zu)",
                              span, total(span).count));
    return total(span).busy_ms;
  };
  const auto outside_row = [&](const char* metric, const char* span) {
    result.layer(metric, total(span).busy_ms,
                 util::format("busy time of %zu %s spans timed from outside",
                              total(span).count, span));
    return total(span).busy_ms;
  };
  double stages_ms = program_row("android.download_ms", "pipeline.download");
  stages_ms += program_row("android.apk_open_ms", "pipeline.apk_open");
  stages_ms += program_row("android.detect_ms", "pipeline.detect");
  const double inflate_ms =
      outside_row("zipfile.inflate_ms", "zipfile.inflate");
  result.layer("zipfile.inflated_mb", inflated_bytes / (1 << 20),
               "bytes returned by Apk::read");
  stages_ms += program_row("formats.validate_ms", "pipeline.validate");
  result.layer("formats.candidates", static_cast<double>(counts.candidates),
               "extension-matched candidate files");
  result.layer("formats.rejected", static_cast<double>(counts.rejected),
               "bad_signature + no_parser + parse_failed drops");
  stages_ms += program_row("formats.parse_ms", "pipeline.parse");
  result.layer("formats.parsed",
               static_cast<double>(counts.analyses - counts.parse_failed),
               "first copy of each content key, parsed");
  stages_ms += program_row("nn.analyse_ms", "pipeline.analyse");
  const double lookups =
      static_cast<double>(counts.cache_hits + counts.analyses);
  result.layer("core.cache_hit_ratio",
               lookups > 0 ? static_cast<double>(counts.cache_hits) / lookups
                           : 0.0,
               util::format("%llu hits / %.0f lookups in the pass",
                            static_cast<unsigned long long>(counts.cache_hits),
                            lookups));
  const double ingest_ms = outside_row("store.ingest_ms", "store.ingest");
  result.layer("store.docs", static_cast<double>(docs),
               "to_document records inserted");
  outside_row("store.seal_ms", "store.seal");
  outside_row("store.query_ms", "store.query");

  // The pass's run_pipeline time that neither the program's pipeline.app
  // spans nor the ingest row cover: PipelineDriver, the merge's record
  // copies, the executor and the program's telemetry. Both remainders
  // below must stay non-negative: a negative one means the rows timed from
  // outside claim more than the program spent, and the split is wrong.
  const double run_ms = pass.run_seconds * 1e3;
  const double app_ms = total("pipeline.app").busy_ms;
  const double driver_ms = run_ms - app_ms - ingest_ms;
  const double in_app_ms = app_ms - stages_ms - inflate_ms;
  result.layer("core.driver_ms", driver_ms,
               util::format("run_pipeline %.1f ms - pipeline.app %.1f ms - "
                            "ingest %.1f ms",
                            run_ms, app_ms, ingest_ms));
  result.layer("telemetry.spans", static_cast<double>(pass.spans),
               "recorded + dropped in the pass");
  result.gate(
      "layer_accounting", driver_ms >= 0.0 && in_app_ms >= 0.0,
      util::format("serial run_pipeline %.1f ms = stage spans %.1f + "
                   "inflate %.1f + unspanned in-app work %.1f (hashing, "
                   "lookups, side sweep) + ingest %.1f + driver %.1f",
                   run_ms, stages_ms, inflate_ms, in_app_ms, ingest_ms,
                   driver_ms));
  std::printf(
      "tracing overhead: none on the pass (its per-app rows are the "
      "program's own spans); the %.1f ms of outside-in rows ran after it\n",
      inflate_ms + ingest_ms + total("store.seal").busy_ms +
          total("store.query").busy_ms);
  result.gate("trace_written",
              tracer.write_chrome_trace(options.trace_path,
                                        host_metadata(options)),
              options.trace_path);
}

}  // namespace

void run_crawl(const Options& options, Result& result) {
  if (options.trace) {
    crawl_traced(options, result);
    return;
  }
  const auto order = crawl_order(options.seed);
  std::vector<double> setup_s, apps_per_s;
  std::vector<Pass> passes;
  // Every pass crawls the same apps in the same order and yields the same
  // digest (a gate), so each app does the same work in every pass and the
  // host's interference only adds time. An app's latency is its fastest
  // pipeline.app span over the passes. With one pipeline worker the app
  // spans run one after another, so the rest of a pass (driver, merge,
  // report) is the pass minus their sum; it is taken at its fastest too,
  // and the two add up to the pass that gives the throughput.
  std::unordered_map<std::string, double> fastest_app_ms;
  double fastest_rest_s = 0.0;
  double timed_s = 0.0;
  std::uint64_t attempted = 0, failed = 0, apps = 0;
  // Each pass starts on the next pair of CPUs; the pass's pipeline worker
  // inherits the pair from this thread.
  auto rotation = std::make_unique<CpuRotation>(kCrawlThreads + 1);
  while (passes.size() < static_cast<std::size_t>(kMinPasses) ||
         timed_s < options.seconds) {
    rotation->step();
    const auto start = Clock::now();
    auto store = fresh_store();
    setup_s.push_back(seconds_between(start, Clock::now()));
    Pass pass = pipeline_pass(*store, order, kCrawlThreads);
    timed_s += pass.seconds;
    apps_per_s.push_back(static_cast<double>(pass.counts.apps) / pass.seconds);
    double in_apps_s = 0.0;
    for (const auto& [package, ms] : pass.app_ms) {
      const auto [it, first] = fastest_app_ms.try_emplace(package, ms);
      if (!first) it->second = std::min(it->second, ms);
      in_apps_s += ms / 1e3;
    }
    const double rest_s = pass.seconds - in_apps_s;
    fastest_rest_s = passes.empty() ? rest_s : std::min(fastest_rest_s, rest_s);
    pass.app_ms.clear();
    attempted += pass.counts.attempted;
    failed += pass.counts.failed;
    apps += pass.counts.apps;
    passes.push_back(std::move(pass));
  }

  const std::string placement = rotation->describe();
  rotation.reset();

  // Gates, outside the timed phase: every pass equals a serial crawl of the
  // same seed, and the report renders byte-identically every time.
  auto store = fresh_store();
  const Pass serial = pipeline_pass(*store, order, 0);
  std::size_t digest_mismatch = 0, table_mismatch = 0;
  for (const auto& pass : passes) {
    if (pass.digest != serial.digest) ++digest_mismatch;
    if (pass.tables != serial.tables) ++table_mismatch;
  }
  result.gate("dataset_digest", digest_mismatch == 0,
              util::format("%zu of %zu passes differ from the serial crawl "
                           "(%016llx)",
                           digest_mismatch, passes.size(),
                           static_cast<unsigned long long>(serial.digest)));
  result.gate("report_tables", table_mismatch == 0,
              util::format("%zu of %zu passes render different tables",
                           table_mismatch, passes.size()));
  // The per-app latencies key the program's pipeline.app spans by their
  // package annotation: one key per app crawled, or they mean nothing.
  result.gate("app_spans",
              fastest_app_ms.size() == passes.front().counts.attempted,
              util::format("%zu packages on pipeline.app spans, %llu apps "
                           "crawled per pass",
                           fastest_app_ms.size(),
                           static_cast<unsigned long long>(
                               passes.front().counts.attempted)));
  result.operations(attempted, failed);

  std::vector<double> app_ms;
  double in_apps_s = 0.0;
  for (const auto& [package, ms] : fastest_app_ms) {
    app_ms.push_back(ms);
    in_apps_s += ms / 1e3;
  }
  const double pass_s = in_apps_s + fastest_rest_s;
  const std::size_t n = app_ms.size();
  result.metric(
      "throughput_per_s",
      pass_s > 0 ? static_cast<double>(passes.front().counts.apps) / pass_s
                 : 0.0,
      "1/s",
      util::format("%llu apps / a pass of %.3f s: each app's fastest of %zu "
                   "passes (%.3f s) + the fastest rest (%.3f s); pass rates "
                   "%.0f to %.0f/s; %llu apps in %.2f s, %u pipeline worker; "
                   "CPU rotation %s",
                   static_cast<unsigned long long>(passes.front().counts.apps),
                   pass_s, passes.size(), in_apps_s, fastest_rest_s,
                   *std::min_element(apps_per_s.begin(), apps_per_s.end()),
                   *std::max_element(apps_per_s.begin(), apps_per_s.end()),
                   static_cast<unsigned long long>(apps), timed_s,
                   kCrawlThreads, placement.c_str()));
  // Every workload reports the same metrics. A crawl's operation is an app,
  // timed by the program's own pipeline.app span: no user waits on one,
  // but it moves with every per-app stage.
  result.metric("p50_ms", median(app_ms), "ms",
                util::format("per app (fastest pipeline.app span of %zu "
                             "passes), n=%zu apps",
                             passes.size(), n));
  const Tail tail = tail_of(std::move(app_ms));
  result.metric("tail_ms", tail.value, "ms",
                util::format("p%.3f per app (fastest of %zu passes), n=%zu "
                             "apps",
                             tail.percentile, passes.size(), n));
  result.metric("setup_s", median(setup_s), "s",
                util::format("median of %zu store builds + model-file "
                             "serialisations",
                             setup_s.size()));
  result.metric("peak_rss_mb", peak_rss_mb(), "MB", "getrusage ru_maxrss");
  std::printf("crawl/fail_ratio = %.6g ratio  (%llu of %llu apps)\n",
              attempted ? static_cast<double>(failed) /
                              static_cast<double>(attempted)
                        : 0.0,
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(attempted));
}

}  // namespace perfbench
