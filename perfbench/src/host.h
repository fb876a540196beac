// Process and host measurements: CPU time, peak RSS, the host
// fingerprint and the spin-loop calibration recorded beside every run,
// and the percentile convention of the benchmark's metrics.
#ifndef PERFBENCH_HOST_H_
#define PERFBENCH_HOST_H_

#include <string>
#include <vector>

namespace perfbench {

/// User + system CPU seconds of this process (getrusage).
double CpuSeconds();

/// CPU seconds the hypervisor took from this machine, summed over its
/// CPUs (the steal column of /proc/stat; 0 when unreadable).
double StealSeconds();

/// VmRSS of this process in MB (0 when /proc is unreadable).
double RssMb();

/// "model name" of the first CPU in /proc/cpuinfo.
std::string CpuModel();

unsigned NumCpus();

/// Wall seconds of a fixed single-thread integer loop. Taken before and
/// after each workload, it separates host speed swings from code changes.
double SpinSeconds();

/// Nearest-rank percentile (p in [0, 100]) of `v`; 0 when empty.
double Percentile(std::vector<double> v, double p);

/// JSON string literal of `s`.
std::string JsonString(const std::string& s);

}  // namespace perfbench

#endif  // PERFBENCH_HOST_H_
