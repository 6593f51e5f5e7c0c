// The RelGraph benchmark binary. perfbench/run.py builds and runs it:
//
//   perfbench --workload <serve_cold|serve_live|train_query> --seed <n>
//             --seconds <s> --trace <0|1> [--work-dir <dir>]
//             [--source-hash <hex>]
//
// Prints a run-header line, a detail line, and as its last line the result
// object {"correct", "attempted", "failed", "metrics"}. Exit code 2 means
// bad arguments; every completed run exits 0, its checks reported in
// "correct".

#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "bench/stats.h"
#include "bench/workloads.h"
#include "core/metrics.h"
#include "core/parallel.h"
#include "tensor/simd_kernels.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "%s\nusage: perfbench --workload <name> --seed <n> --seconds "
               "<s> --trace <0|1> [--work-dir <dir>] [--source-hash <hex>]\n",
               why);
  return 2;
}

bool ParseInt(const std::string& s, long long* out) {
  char* end = nullptr;
  *out = std::strtoll(s.c_str(), &end, 10);
  return !s.empty() && end != nullptr && *end == '\0';
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  RunOptions o;
  std::string source_hash = "unknown";
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    long long n = 0;
    if (arg == "--workload") {
      o.workload = value;
      have_workload = true;
    } else if (arg == "--seed") {
      if (!ParseInt(value, &n) || n < 0) return Usage("bad --seed");
      o.seed = static_cast<uint64_t>(n);
    } else if (arg == "--seconds") {
      if (!ParseInt(value, &n) || n < 1 || n > 600) {
        return Usage("bad --seconds");
      }
      o.seconds = static_cast<double>(n);
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") return Usage("bad --trace");
      o.trace = value == "1";
    } else if (arg == "--work-dir") {
      o.work_dir = value;
    } else if (arg == "--source-hash") {
      source_hash = value;
    } else {
      return Usage(("unknown argument " + arg).c_str());
    }
  }
  bool known = false;
  for (const std::string& w : WorkloadNames()) known = known || w == o.workload;
  if (!have_workload || !known) return Usage("unknown --workload");

  std::printf(
      "{\"header\": {\"workload\": %s, \"seed\": %llu, \"seconds\": %s, "
      "\"nproc\": %u, \"pool_threads\": %d, \"simd\": %s, \"build_type\": "
      "%s, \"source_hash\": %s, \"metrics_on\": %s}}\n",
      JsonString(o.workload).c_str(), static_cast<unsigned long long>(o.seed),
      JsonNumber(o.seconds).c_str(), std::thread::hardware_concurrency(),
      relgraph::NumThreads(), JsonString(relgraph::kern::SimdName()).c_str(),
      JsonString(PERFBENCH_BUILD_TYPE).c_str(),
      JsonString(source_hash).c_str(), o.trace ? "true" : "false");
  std::fflush(stdout);

  const RunOutput out = RunWorkload(o);

  std::string detail = "{\"detail\": {";
  for (size_t i = 0; i < out.detail.size(); ++i) {
    if (i > 0) detail += ", ";
    detail += JsonString(out.detail[i].first) + ": " +
              JsonNumber(out.detail[i].second);
  }
  std::printf("%s}}\n", detail.c_str());
  std::printf("%s\n", ResultLine(out.correct, out.attempted, out.failed,
                                 out.metrics)
                          .c_str());
  std::fflush(stdout);
  return 0;
}
