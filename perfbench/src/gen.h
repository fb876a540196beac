// Seeded inputs of the end-to-end benchmark: the event-log EDB batches,
// the program families the paper motivates, and every workload's
// operation sequence. Everything here is a pure function of the seed, so
// two runs with one seed send the same bytes in the same order (per
// connection), and the benchmark's tests can check that without a
// server.
#ifndef PERFBENCH_GEN_H_
#define PERFBENCH_GEN_H_

#include <cstddef>
#include <cstdint>
#include <random>
#include <string>
#include <vector>

namespace perfbench {

/// SplitMix64 finalizer over (a, b): derives independent stream seeds
/// from the workload seed.
uint64_t Mix(uint64_t a, uint64_t b);

/// Which of the paper's program families a query belongs to.
enum class Family {
  kNfa,            ///< Example 2.1, automaton inlined as program facts
  kProcessMining,  ///< the introduction's "every x is followed by y"
  kEquation,       ///< Example 3.1-style equation filter over R
};
/// One program the benchmark ships, plus the relation it asks for.
struct Query {
  std::string text;
  std::string output;
};

/// Shape of the event logs (RandomEventLogs in src/workload).
struct LogShape {
  size_t len = 10;        ///< events per log
  size_t activities = 6;  ///< act0..act<n-1>, plus "co" and "rp"
  size_t batch = 4;       ///< logs per append batch
};

/// Draws one program of the family mix. Relation names carry `tag`, so
/// distinct tags give programs no cache has seen. `family` < 0 picks the
/// family from `rng` too.
Query MakeQuery(std::mt19937_64& rng, const LogShape& shape,
                const std::string& tag, int family = -1);

/// The k-th program of a cold stream (cold_analytics, cluster_scatter):
/// a fresh relation namespace per k, families in rotation.
Query StreamQuery(uint64_t seed, const LogShape& shape, uint64_t k);

/// The fixed pool of hot_reads, or the maintained views of ingest_serve
/// (`prefix` "h" / "v"). Families rotate so every pool covers all three.
std::vector<Query> QueryPool(uint64_t seed, const LogShape& shape,
                             const std::string& prefix, size_t n);

/// Event-log batch `id` as instance text: RandomEventLogs over a scratch
/// Universe, rendered the way the wire carries facts.
std::string BatchText(uint64_t seed, const LogShape& shape, uint64_t id);

/// One write of the writer script.
struct WriteOp {
  bool retract = false;
  uint64_t batch = 0;  ///< which batch is appended or retracted
};

/// The writer's deterministic script: appends fresh batches and, on every
/// `retract_every`-th write, retracts one earlier batch that is still
/// live. Set-up ingest and ingest_serve's timed writer draw from the same
/// script, so the timed writes continue where the set-up stopped.
class WriterScript {
 public:
  explicit WriterScript(uint64_t seed) : rng_(Mix(seed, 0x77)) {}

  WriteOp Next(size_t retract_every);
  /// Batches appended and not retracted so far.
  const std::vector<uint64_t>& live() const { return live_; }

 private:
  std::mt19937_64 rng_;
  uint64_t writes_ = 0;
  uint64_t next_batch_ = 0;
  std::vector<uint64_t> live_;
};

/// Zipf(s) sampler over ranks 0..n-1 (rank 0 hottest).
class Zipf {
 public:
  Zipf(size_t n, double s);
  size_t operator()(std::mt19937_64& rng) const;

 private:
  std::vector<double> cdf_;
};

}  // namespace perfbench

#endif  // PERFBENCH_GEN_H_
