// perfbench: the seqdl end-to-end benchmark.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--work-dir <dir>]
//
// Prints every metric with its unit on stderr, then on stdout one line
// with the host fingerprint and calibration, and as the last line the
// result object {"correct", "attempted", "failed", "metrics"}. Exits 1
// when an answer check fails or the deployment cannot start, 2 on bad
// arguments.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "perfbench/src/bench.h"
#include "perfbench/src/host.h"

namespace {

int Usage(const char* msg) {
  std::fprintf(stderr,
               "%s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--work-dir <dir>]\nworkloads:",
               msg);
  for (const std::string& w : perfbench::WorkloadNames()) {
    std::fprintf(stderr, " %s", w.c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

std::string Number(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::BenchOptions o;
  o.work_dir = ".bench_build/run";
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      o.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      o.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      o.seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      o.trace = value == "1";
      if (value != "0" && value != "1") return Usage("--trace takes 0 or 1");
    } else if (flag == "--work-dir") {
      o.work_dir = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
    if (end != nullptr && *end != '\0') {
      return Usage(("bad value for " + flag).c_str());
    }
  }
  if (!have_workload) return Usage("--workload is required");
  if (!(o.seconds > 0)) return Usage("--seconds must be positive");
  std::error_code ec;
  std::filesystem::create_directories(o.work_dir, ec);
  if (o.trace) {
    o.trace_path = o.work_dir + "/trace-" + o.workload + "-" +
                   std::to_string(o.seed) + ".json";
  }

  perfbench::Outcome out = perfbench::RunWorkload(o);
  if (!out.started) {
    std::fprintf(stderr, "perfbench: %s\n", out.error.c_str());
    return 1;
  }
  const bool correct = out.mismatches == 0;
  std::fprintf(stderr, "%s seed %llu (%s): %llu ops, %llu failed, %llu checked\n",
               o.workload.c_str(), static_cast<unsigned long long>(o.seed),
               o.trace ? "traced" : "untraced",
               static_cast<unsigned long long>(out.attempted),
               static_cast<unsigned long long>(out.failed),
               static_cast<unsigned long long>(out.checked));
  std::string metrics;
  for (const perfbench::Metric& m : out.metrics) {
    std::fprintf(stderr, "  %-36s %14.4f %s\n", m.name.c_str(), m.value,
                 m.unit.c_str());
    if (!metrics.empty()) metrics += ", ";
    metrics += perfbench::JsonString(m.name) + ": {\"value\": " +
               Number(m.value) + ", \"unit\": " +
               perfbench::JsonString(m.unit) + "}";
  }
  std::printf("{\"workload\": %s, \"seed\": %llu, %s}\n",
              perfbench::JsonString(o.workload).c_str(),
              static_cast<unsigned long long>(o.seed), out.side.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed), metrics.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
