// perfbench: the gaugeNN benchmark. Runs one workload through the
// program's public APIs and prints its metrics, then one JSON result line.
//
//   perfbench --workload crawl|infer|serve_open|serve_closed --seed N
//             --seconds S --trace 0|1 [--trace-out PATH] [--source ID]
//
// --trace 0 measures the end-to-end metrics; --trace 1 is the separate
// traced run that times each layer from outside and writes a Chrome trace.
// The exit code is 1 when a correctness gate fails, 2 on a usage error.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "bench.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload crawl|infer|serve_open|"
               "serve_closed --seed N --seconds S --trace 0|1 "
               "[--trace-out PATH] [--source ID]\n");
  return 2;
}

bool parse_u64(const char* text, std::uint64_t* out) {
  char* end = nullptr;
  const unsigned long long value = std::strtoull(text, &end, 10);
  if (end == text || *end != '\0') return false;
  *out = value;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  Options options;
  for (int i = 1; i < argc; ++i) {
    const char* flag = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    if (value == nullptr) return usage();
    ++i;
    std::uint64_t parsed = 0;
    if (std::strcmp(flag, "--workload") == 0) {
      options.workload = value;
    } else if (std::strcmp(flag, "--seed") == 0) {
      if (!parse_u64(value, &options.seed)) return usage();
    } else if (std::strcmp(flag, "--seconds") == 0) {
      if (!parse_u64(value, &parsed) || parsed < 1 || parsed > 600) {
        return usage();
      }
      options.seconds = static_cast<double>(parsed);
    } else if (std::strcmp(flag, "--trace") == 0) {
      if (!parse_u64(value, &parsed) || parsed > 1) return usage();
      options.trace = parsed == 1;
    } else if (std::strcmp(flag, "--trace-out") == 0) {
      options.trace_path = value;
    } else if (std::strcmp(flag, "--source") == 0) {
      options.source = value;
    } else {
      return usage();
    }
  }
  void (*run)(const Options&, Result&) = nullptr;
  if (options.workload == "crawl") run = run_crawl;
  if (options.workload == "infer") run = run_infer;
  if (options.workload == "serve_open") run = run_serve_open;
  if (options.workload == "serve_closed") run = run_serve_closed;
  if (run == nullptr) return usage();

  std::string host;
  for (const auto& [key, value] : host_metadata(options)) {
    host += (host.empty() ? "" : " ") + key + "=" + value;
  }
  std::printf("perfbench %s\n", host.c_str());

  Result result{options.workload, options.trace};
  try {
    run(options, result);
  } catch (const std::exception& error) {
    result.gate("no_exception", false, error.what());
  }
  const std::string line = result.finish();
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
  return result.correct() ? 0 : 1;
}
