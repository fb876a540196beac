// Path-expression matching throughput: the engine's core primitive
// (enumerate all valuations with ν(e) = p), across pattern shapes — ground,
// k path-variable splits, shared variables, and packing. Bindings are
// slices of the matched path, so no iteration interns a path.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "src/engine/match.h"
#include "src/syntax/parser.h"
#include "src/term/universe.h"

namespace seqdl {
namespace {

void PrintMatchCounts() {
  std::printf("=== Matching: valuation counts per pattern shape ===\n");
  Universe u;
  struct Row {
    const char* pattern;
    const char* path;
  };
  for (const Row& row : {
           Row{"$x ++ $y", "a ++ b ++ a ++ b"},
           Row{"$x ++ $y ++ $z", "a ++ b ++ a ++ b"},
           Row{"$x ++ $x", "a ++ b ++ a ++ b"},
           Row{"$u ++ a ++ $v", "a ++ b ++ a ++ b"},
           Row{"$u ++ <$s> ++ $v", "a ++ <b ++ a> ++ b"},
       }) {
    Result<PathExpr> e = ParsePathExpr(u, row.pattern);
    Result<PathExpr> pe = ParsePathExpr(u, row.path);
    Result<PathId> p = EvalGroundExpr(u, *pe);
    size_t count = 0;
    Valuation v;
    MatchExpr(u, *e, Slice::Of(u, *p), v, [&count](Valuation&) {
      ++count;
      return true;
    });
    std::printf("%-22s against %-22s -> %zu matches\n", row.pattern,
                row.path, count);
  }
  std::printf("\n");
}

void RunMatch(benchmark::State& state, const std::string& pattern,
              size_t path_len) {
  Universe u;
  Result<PathExpr> e = ParsePathExpr(u, pattern);
  if (!e.ok()) std::abort();
  std::string s;
  for (size_t i = 0; i < path_len; ++i) s += (i % 2 == 0 ? 'a' : 'b');
  PathId p = u.PathOfChars(s);
  for (auto _ : state) {
    size_t count = 0;
    Valuation v;
    MatchExpr(u, *e, Slice::Of(u, p), v, [&count](Valuation&) {
      ++count;
      return true;
    });
    benchmark::DoNotOptimize(count);
  }
}

void BM_MatchTwoVars(benchmark::State& state) {
  RunMatch(state, "$x ++ $y", static_cast<size_t>(state.range(0)));
}
BENCHMARK(BM_MatchTwoVars)->Arg(8)->Arg(32)->Arg(128);

void BM_MatchThreeVars(benchmark::State& state) {
  RunMatch(state, "$x ++ $y ++ $z", static_cast<size_t>(state.range(0)));
}
BENCHMARK(BM_MatchThreeVars)->Arg(8)->Arg(32)->Arg(128);

void BM_MatchSharedVar(benchmark::State& state) {
  RunMatch(state, "$x ++ $x", static_cast<size_t>(state.range(0)));
}
BENCHMARK(BM_MatchSharedVar)->Arg(8)->Arg(32)->Arg(128);

void BM_MatchAnchoredInfix(benchmark::State& state) {
  RunMatch(state, "$u ++ a ++ b ++ $v", static_cast<size_t>(state.range(0)));
}
BENCHMARK(BM_MatchAnchoredInfix)->Arg(8)->Arg(32)->Arg(128);

void BM_MatchPacked(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  Universe u;
  Result<PathExpr> e = ParsePathExpr(u, "$u ++ <$s> ++ $v");
  std::string s(n, 'a');
  PathId inner = u.PathOfChars(s);
  PathId p = u.Concat(
      u.Append(u.PathOfChars(s), Value::Packed(inner)), u.PathOfChars(s));
  for (auto _ : state) {
    size_t count = 0;
    Valuation v;
    MatchExpr(u, *e, Slice::Of(u, p), v, [&count](Valuation&) {
      ++count;
      return true;
    });
    benchmark::DoNotOptimize(count);
  }
}
BENCHMARK(BM_MatchPacked)->Arg(4)->Arg(16)->Arg(64);

}  // namespace
}  // namespace seqdl

int main(int argc, char** argv) {
  seqdl::PrintMatchCounts();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
