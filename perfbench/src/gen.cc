#include "perfbench/src/gen.h"

#include <algorithm>
#include <cmath>

#include "src/engine/instance.h"
#include "src/term/universe.h"
#include "src/workload/generators.h"

namespace perfbench {

uint64_t Mix(uint64_t a, uint64_t b) {
  uint64_t z = a + 0x9E3779B97F4A7C15ull * (b + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

namespace {

constexpr size_t kNfaStates = 3;
// Transitions beyond q0's self-loops. A fixed count keeps the automata's
// cost close together, so a run's mean cost does not hinge on a few
// dense draws.
constexpr size_t kNfaTransitions = 8;

std::vector<std::string> Alphabet(const LogShape& shape) {
  std::vector<std::string> out;
  for (size_t a = 0; a < shape.activities; ++a) {
    out.push_back("act" + std::to_string(a));
  }
  out.push_back("co");
  out.push_back("rp");
  return out;
}

/// Example 2.1 with a random automaton over the log alphabet. q0 loops on
/// every letter, so the automaton looks for a pattern anywhere in the
/// log, as Example 2.1's (a|b)*ab does; the last state accepts.
Query NfaQuery(std::mt19937_64& rng, const LogShape& shape,
               const std::string& tag) {
  const std::vector<std::string> sigma = Alphabet(shape);
  const std::string n = "N_" + tag, d = "D_" + tag, f = "F_" + tag,
                    s = "S_" + tag, a = "A_" + tag;
  std::string text = n + "(q0).\n";
  for (const std::string& letter : sigma) {
    text += d + "(q0, " + letter + ", q0).\n";
  }
  for (size_t t = 0; t < kNfaTransitions; ++t) {
    const size_t from = rng() % kNfaStates, to = 1 + rng() % (kNfaStates - 1);
    text += d + "(q" + std::to_string(from) + ", " + sigma[rng() % sigma.size()] +
            ", q" + std::to_string(to) + ").\n";
  }
  text += f + "(q" + std::to_string(kNfaStates - 1) + ").\n";
  text += s + "(@q ++ $x, eps) <- R($x), " + n + "(@q).\n";
  text += s + "(@q2 ++ $y, $z ++ @a) <- " + s + "(@q1 ++ @a ++ $y, $z), " +
          d + "(@q1, @a, @q2).\n";
  text += a + "($x) <- " + s + "(@q, $x), " + f + "(@q).\n";
  return {text, a};
}

std::pair<std::string, std::string> DistinctPair(
    std::mt19937_64& rng, const std::vector<std::string>& sigma) {
  std::uniform_int_distribution<size_t> pick(0, sigma.size() - 1);
  size_t x = pick(rng), y = pick(rng);
  while (y == x) y = pick(rng);
  return {sigma[x], sigma[y]};
}

/// The introduction's process-mining query with the activity pair (x, y)
/// in place of (co, rp): logs in which every x is eventually followed by
/// a y.
Query ProcessMiningQuery(std::mt19937_64& rng, const LogShape& shape,
                         const std::string& tag) {
  auto [x, y] = DistinctPair(rng, Alphabet(shape));
  const std::string has = "HasY_" + tag, bad = "Bad_" + tag,
                    good = "Good_" + tag;
  std::string text = has + "($v) <- R($u ++ " + x + " ++ $v), $v = $s ++ " +
                     y + " ++ $t.\n---\n";
  text += bad + "($x) <- R($x), $x = $u ++ " + x + " ++ $v, !" + has +
          "($v).\n---\n";
  text += good + "($x) <- R($x), !" + bad + "($x).\n";
  return {text, good};
}

/// An Example 3.1-style equation filter keyed by the log itself: logs
/// with x somewhere before y, or x directly followed by y.
Query EquationQuery(std::mt19937_64& rng, const LogShape& shape,
                    const std::string& tag) {
  auto [x, y] = DistinctPair(rng, Alphabet(shape));
  const std::string s = "S_" + tag;
  std::string eq = std::bernoulli_distribution(0.5)(rng)
                       ? "$u ++ " + x + " ++ $v ++ " + y + " ++ $w"
                       : "$u ++ " + x + " ++ " + y + " ++ $v";
  return {s + "($x) <- R($x), $x = " + eq + ".\n", s};
}

}  // namespace

Query MakeQuery(std::mt19937_64& rng, const LogShape& shape,
                const std::string& tag, int family) {
  if (family < 0) family = static_cast<int>(rng() % 3);
  switch (static_cast<Family>(family)) {
    case Family::kNfa:
      return NfaQuery(rng, shape, tag);
    case Family::kProcessMining:
      return ProcessMiningQuery(rng, shape, tag);
    case Family::kEquation:
      return EquationQuery(rng, shape, tag);
  }
  return EquationQuery(rng, shape, tag);
}

Query StreamQuery(uint64_t seed, const LogShape& shape, uint64_t k) {
  std::mt19937_64 rng(Mix(Mix(seed, 0x5c), k));
  // Families rotate rather than being drawn, so every run's stream has
  // the same mix and the seed varies only the programs within a family.
  return MakeQuery(rng, shape, "c" + std::to_string(k),
                   static_cast<int>(k % 3));
}

std::vector<Query> QueryPool(uint64_t seed, const LogShape& shape,
                             const std::string& prefix, size_t n) {
  std::mt19937_64 rng(Mix(seed, prefix.empty() ? 0 : prefix[0]));
  std::vector<Query> out;
  for (size_t i = 0; i < n; ++i) {
    out.push_back(MakeQuery(rng, shape, prefix + std::to_string(i),
                            static_cast<int>(i % 3)));
  }
  return out;
}

std::string BatchText(uint64_t seed, const LogShape& shape, uint64_t id) {
  seqdl::Universe u;
  seqdl::EventLogWorkload w;
  w.count = shape.batch;
  w.len = shape.len;
  w.activities = shape.activities;
  w.seed = Mix(Mix(seed, 0xba7c), id);
  seqdl::Result<seqdl::Instance> logs = seqdl::RandomEventLogs(u, w);
  return logs.ok() ? logs->ToString(u) : std::string();
}

WriteOp WriterScript::Next(size_t retract_every) {
  WriteOp op;
  ++writes_;
  if (retract_every > 0 && writes_ % retract_every == 0 && !live_.empty()) {
    size_t i = rng_() % live_.size();
    op.retract = true;
    op.batch = live_[i];
    live_.erase(live_.begin() + static_cast<std::ptrdiff_t>(i));
    return op;
  }
  op.batch = next_batch_++;
  live_.push_back(op.batch);
  return op;
}

Zipf::Zipf(size_t n, double s) {
  double total = 0;
  for (size_t i = 0; i < n; ++i) {
    total += 1.0 / std::pow(static_cast<double>(i + 1), s);
    cdf_.push_back(total);
  }
  for (double& c : cdf_) c /= total;
}

size_t Zipf::operator()(std::mt19937_64& rng) const {
  double r = std::uniform_real_distribution<double>(0.0, 1.0)(rng);
  auto it = std::lower_bound(cdf_.begin(), cdf_.end(), r);
  return std::min<size_t>(it - cdf_.begin(), cdf_.size() - 1);
}

}  // namespace perfbench
