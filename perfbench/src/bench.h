// The end-to-end benchmark's workloads: in-process seqdl servers (and a
// coordinator in front of two shard servers) over loopback TCP, driven
// by closed-loop client connections with seeded inputs. README.md in
// this directory explains each workload and metric.
#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct BenchOptions {
  std::string workload;
  uint64_t seed = 1;
  /// Length of the measured phase (the traced run splits it between its
  /// concurrent and its replay phase).
  double seconds = 10;
  /// false: the untraced run, reporting the end-to-end metrics. true:
  /// the traced run, reporting the per-layer metrics.
  bool trace = false;
  /// Data directories are created and removed under this directory.
  std::string work_dir;
  /// The traced run writes its spans here ("" = not written).
  std::string trace_path;
  /// Caps the operations of each measured phase (0 = time-bounded only);
  /// tests set it so two runs do exactly the same work.
  size_t max_ops = 0;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct Outcome {
  /// False when the deployment could not be started (error says why).
  bool started = true;
  std::string error;
  /// Operations sent in the measured phases, and those that failed, were
  /// refused, or were answered wrongly.
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// Sampled replies compared against the oracle, and how many differed.
  uint64_t checked = 0;
  uint64_t mismatches = 0;
  std::vector<Metric> metrics;
  /// Traced run only: deterministic totals of the replay (rule firings,
  /// interned paths, on-disk bytes, view counters, ...).
  std::map<std::string, double> counts;
  /// Traced run only: FNV-1a over every request the replay sent.
  uint64_t sequence_hash = 0;
  /// Host fingerprint, calibration and cache counters, as JSON members.
  std::string side;
};

/// hot_reads, cold_analytics, ingest_serve, cluster_scatter.
const std::vector<std::string>& WorkloadNames();

Outcome RunWorkload(const BenchOptions& opts);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
