// Shared plumbing of the perfbench binary: options, sample statistics, the
// result every workload fills (end-to-end metrics, per-layer metrics and
// correctness gates) and the outside-in span tracer.
//
// perfbench measures gaugeNN through its public APIs only and adds no
// instrumentation to src/. Its spans are recorded here, around the calls
// into each layer; the crawl also reads the spans the program records
// itself.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}
inline double ms_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  std::string trace_path;  // Chrome trace written by traced runs
  std::string source = "unknown";  // commit or source-tree id of the build
};

// ---- statistics -----------------------------------------------------------

double median(std::vector<double> values);
double mean(const std::vector<double>& values);

// The highest percentile that still has at least ten samples beyond it:
// the (n-10)th smallest of n samples, reported with its percentile rank.
struct Tail {
  double value = 0.0;
  double percentile = 0.0;
};
Tail tail_of(std::vector<double> values);

// Peak resident set of this process, in MiB.
double peak_rss_mb();

// ---- placement ------------------------------------------------------------

// Moves the calling thread across the CPUs the process may use, so that one
// busy host core cannot slow a whole run. On a shared 4-vCPU KVM host one
// or two vCPUs at a time ran at 60-75% speed for up to 20 s while the
// others ran at full speed, and a thread the scheduler leaves on such a
// vCPU is slow for the whole spell. Threads the calling thread starts
// inherit its CPUs. The destructor gives the thread back every CPU it had.
class CpuRotation {
 public:
  // Each step() pins the calling thread to `width` consecutive CPUs of the
  // original set, starting one CPU further along than the step before.
  explicit CpuRotation(std::size_t width = 1);
  ~CpuRotation();
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  void step();
  // "<steps> steps over <n> CPUs, <width> at a time", or why it is off.
  std::string describe() const;

 private:
  std::vector<int> cpus_;  // the original set
  std::size_t width_;
  std::size_t next_ = 0;
  std::size_t steps_ = 0;
  bool failed_ = false;
};

// ---- results --------------------------------------------------------------

// Per-layer metric catalogue: every traced run reports every entry, so a
// layer a workload does not reach reads 0 there.
struct LayerMetric {
  std::string name;
  std::string unit;
  std::string workload;  // the workload that exercises the layer
  std::string moves;     // the end-to-end metric it should move
};
const std::vector<LayerMetric>& layer_metrics();
const std::vector<std::string>& population_archetypes();

class Result {
 public:
  Result(std::string workload, bool traced);

  // End-to-end metric (untraced runs). Printed at once with its note.
  void metric(const std::string& name, double value, const std::string& unit,
              const std::string& note);
  // Per-layer metric (traced runs); must name a layer_metrics() entry.
  void layer(const std::string& name, double value, const std::string& note);
  // A correctness gate: a failed gate fails the run.
  void gate(const std::string& name, bool ok, const std::string& detail);
  void operations(std::uint64_t attempted, std::uint64_t failed) {
    attempted_ = attempted;
    failed_ = failed;
  }

  bool correct() const { return correct_; }
  // Prints the per-layer summary (traced runs) and returns the final JSON
  // line: {"correct", "attempted", "failed", "metrics"}.
  std::string finish();

 private:
  struct Value {
    double value = 0.0;
    std::string unit;
    std::string note;
  };
  std::string workload_;
  bool traced_;
  bool correct_ = true;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::pair<std::string, Value>> metrics_;
  std::map<std::string, Value> layers_;
};

// ---- tracing --------------------------------------------------------------

// In-memory span store, written out as one Chrome trace when the run ends.
// A span holds a name, a start, an end and its parent; every span of one
// app, inference or request carries that operation's id as `group`.
// Single-threaded: each workload records from one thread.
class Tracer {
 public:
  struct Span {
    const char* name = "";
    std::uint64_t group = 0;
    std::int64_t parent = -1;  // index into spans(), -1 = root
    std::uint64_t start_ns = 0;
    std::uint64_t end_ns = 0;
    std::uint32_t track = 0;  // Chrome trace tid
    bool failed = false;
  };

  // Closes its span when it goes out of scope. A Scope made from a null
  // tracer records nothing, so untraced code paths share the traced ones.
  class Scope {
   public:
    Scope(Tracer* tracer, const char* name, std::uint64_t group);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    void fail();

   private:
    Tracer* tracer_;
    std::size_t index_ = 0;
  };

  Tracer();

  std::uint64_t now_ns() const { return to_ns(Clock::now()); }
  std::uint64_t to_ns(Clock::time_point at) const;
  std::size_t size() const { return spans_.size(); }
  // Records a finished span whose times were measured elsewhere (the serve
  // client derives server-side phases from reply fields; the crawl imports
  // the program's own spans). Returns its index.
  std::size_t add(const char* name, std::uint64_t group, std::int64_t parent,
                  std::uint64_t start_ns, std::uint64_t end_ns,
                  std::uint32_t track = 0, bool failed = false);

  struct Totals {
    std::size_t count = 0;
    double busy_ms = 0.0;
    double self_ms = 0.0;  // busy minus the time child spans cover
    std::size_t failures = 0;
  };
  std::map<std::string, Totals> totals() const;
  // One line per span name: count, busy, self and failures.
  void print_totals() const;

  // Chrome trace_event JSON; `metadata` lands in otherData.
  bool write_chrome_trace(const std::string& path,
                          const std::map<std::string, std::string>& metadata)
      const;

 private:
  Clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;  // stack of open Scope spans
};

// Host and run description printed by every run and stored in its trace.
std::map<std::string, std::string> host_metadata(const Options& options);

// ---- workloads ------------------------------------------------------------

void run_crawl(const Options& options, Result& result);
void run_infer(const Options& options, Result& result);
void run_serve_open(const Options& options, Result& result);
void run_serve_closed(const Options& options, Result& result);

}  // namespace perfbench
