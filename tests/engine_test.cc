#include <gtest/gtest.h>

#include "src/engine/eval.h"
#include "src/engine/instance.h"
#include "src/engine/match.h"
#include "src/syntax/parser.h"
#include "src/term/universe.h"
#include "src/workload/baselines.h"
#include "src/workload/generators.h"

namespace seqdl {
namespace {

Program MustParse(Universe& u, const std::string& text) {
  Result<Program> p = ParseProgram(u, text);
  EXPECT_TRUE(p.ok()) << p.status().ToString() << "\n" << text;
  return std::move(p).value();
}

Instance MustInstance(Universe& u, const std::string& text) {
  Result<Instance> i = ParseInstance(u, text);
  EXPECT_TRUE(i.ok()) << i.status().ToString() << "\n" << text;
  return std::move(i).value();
}

PathExpr MustExpr(Universe& u, const std::string& text) {
  Result<PathExpr> e = ParsePathExpr(u, text);
  EXPECT_TRUE(e.ok()) << e.status().ToString();
  return std::move(e).value();
}

// --- Instance ---------------------------------------------------------------

TEST(InstanceTest, AddAndContains) {
  Universe u;
  Instance i;
  RelId r = *u.InternRel("R", 1);
  EXPECT_TRUE(i.Add(r, {u.PathOfChars("ab")}));
  EXPECT_FALSE(i.Add(r, {u.PathOfChars("ab")}));  // duplicate
  EXPECT_TRUE(i.Contains(r, {u.PathOfChars("ab")}));
  EXPECT_FALSE(i.Contains(r, {u.PathOfChars("ba")}));
  EXPECT_EQ(i.NumFacts(), 1u);
}

TEST(InstanceTest, ParseAndToString) {
  Universe u;
  Instance i = MustInstance(u, "R(a ++ b). R(eps). S(<a> ++ c). A.");
  EXPECT_EQ(i.NumFacts(), 4u);
  EXPECT_EQ(i.ToString(u), "A.\nR(()).\nR(a·b).\nS(<a>·c).\n");
}

TEST(InstanceTest, ParseRejectsRules) {
  Universe u;
  EXPECT_FALSE(ParseInstance(u, "S($x) <- R($x).").ok());
  EXPECT_FALSE(ParseInstance(u, "S($x).").ok());
}

TEST(InstanceTest, FlatCheck) {
  Universe u;
  EXPECT_TRUE(MustInstance(u, "R(a ++ b).").IsFlat(u));
  EXPECT_FALSE(MustInstance(u, "Q(<a> ++ b).").IsFlat(u));
}

TEST(InstanceTest, EqualityAndUnion) {
  Universe u;
  Instance a = MustInstance(u, "R(a). R(b).");
  Instance b = MustInstance(u, "R(b). R(a).");
  EXPECT_EQ(a, b);
  Instance c = MustInstance(u, "R(a). R(c).");
  EXPECT_NE(a, c);
  EXPECT_EQ(a.UnionWith(c), 1u);  // only R(c) is new
  EXPECT_EQ(a.NumFacts(), 3u);
}

TEST(InstanceTest, Project) {
  Universe u;
  Instance i = MustInstance(u, "R(a). S(b).");
  Instance p = i.Project({*u.FindRel("S")});
  EXPECT_EQ(p.NumFacts(), 1u);
  EXPECT_TRUE(p.Contains(*u.FindRel("S"), {u.PathOfChars("b")}));
}

// --- Matching ----------------------------------------------------------------

size_t CountMatches(Universe& u, const std::string& expr,
                    const std::string& path_expr) {
  PathExpr e = MustExpr(u, expr);
  Result<PathId> p = EvalGroundExpr(u, MustExpr(u, path_expr));
  EXPECT_TRUE(p.ok());
  size_t count = 0;
  Valuation v;
  MatchExpr(u, e, Slice::Of(u, *p), v, [&count](Valuation&) {
    ++count;
    return true;
  });
  return count;
}

TEST(MatchTest, GroundMatch) {
  Universe u;
  EXPECT_EQ(CountMatches(u, "a ++ b", "a ++ b"), 1u);
  EXPECT_EQ(CountMatches(u, "a ++ b", "a ++ c"), 0u);
  EXPECT_EQ(CountMatches(u, "eps", "eps"), 1u);
  EXPECT_EQ(CountMatches(u, "eps", "a"), 0u);
}

TEST(MatchTest, PathVariableSplits) {
  Universe u;
  // $x ++ $y over a·b: 3 splits.
  EXPECT_EQ(CountMatches(u, "$x ++ $y", "a ++ b"), 3u);
  // $x ++ $x over a·a: only ($x = a).
  EXPECT_EQ(CountMatches(u, "$x ++ $x", "a ++ a"), 1u);
  EXPECT_EQ(CountMatches(u, "$x ++ $x", "a ++ b"), 0u);
}

TEST(MatchTest, AtomVariableRequiresAtom) {
  Universe u;
  EXPECT_EQ(CountMatches(u, "@x", "a"), 1u);
  EXPECT_EQ(CountMatches(u, "@x", "<a>"), 0u);
  EXPECT_EQ(CountMatches(u, "@x", "a ++ b"), 0u);
  EXPECT_EQ(CountMatches(u, "@x ++ @x", "a ++ a"), 1u);
  EXPECT_EQ(CountMatches(u, "@x ++ @x", "a ++ b"), 0u);
}

TEST(MatchTest, PackMatchesRecursively) {
  Universe u;
  EXPECT_EQ(CountMatches(u, "<$x>", "<a ++ b>"), 1u);
  EXPECT_EQ(CountMatches(u, "<$x ++ $y>", "<a ++ b>"), 3u);
  EXPECT_EQ(CountMatches(u, "<a>", "a"), 0u);
  EXPECT_EQ(CountMatches(u, "$u ++ <$s> ++ $v", "c ++ <a ++ b> ++ d"), 1u);
}

TEST(MatchTest, SharedVariableAcrossPackBoundary) {
  Universe u;
  EXPECT_EQ(CountMatches(u, "$x ++ <$x>", "a ++ b ++ <a ++ b>"), 1u);
  EXPECT_EQ(CountMatches(u, "$x ++ <$x>", "a ++ <b>"), 0u);
}

std::vector<Value> Values(Universe& u, std::string_view chars) {
  std::span<const Value> p = u.GetPath(u.PathOfChars(chars));
  return {p.begin(), p.end()};
}

TEST(MatchTest, PreboundVariableConstrains) {
  Universe u;
  PathExpr e = MustExpr(u, "$x ++ $y");
  PathId p = u.PathOfChars("ab");
  Valuation v;
  v.Bind(u.InternVar(VarKind::kPath, "x"), Slice::Of(u, u.PathOfChars("a")));
  VarId y = u.InternVar(VarKind::kPath, "y");
  std::vector<Value> b = Values(u, "b");
  size_t count = 0;
  size_t before = u.num_paths();
  MatchExpr(u, e, Slice::Of(u, p), v, [&](Valuation& nu) {
    ++count;
    EXPECT_TRUE(std::ranges::equal(nu.Get(y).values, b));
    return true;
  });
  EXPECT_EQ(count, 1u);
  EXPECT_EQ(u.num_paths(), before);
}

TEST(MatchTest, EarlyStopViaCallback) {
  Universe u;
  PathExpr e = MustExpr(u, "$x ++ $y");
  PathId p = u.PathOfChars("abcd");
  Valuation v;
  size_t count = 0;
  bool completed = MatchExpr(u, e, Slice::Of(u, p), v, [&count](Valuation&) {
    ++count;
    return count < 2;
  });
  EXPECT_FALSE(completed);
  EXPECT_EQ(count, 2u);
}

// The split rule: a path variable followed by no unbound path variable
// has one feasible length, so matching binds it to exactly that slice.
// Bindings are slices of the matched path: nothing is interned, and a
// variable bound to the whole path keeps the path's id.
TEST(MatchTest, LastPathVariableInternsOnlyTheFeasibleSplit) {
  Universe u;
  constexpr size_t kLen = 12;
  std::vector<Value> values;
  for (size_t i = 0; i < kLen; ++i) {
    values.push_back(Value::Atom(u.InternAtom("v" + std::to_string(i))));
  }
  PathId p = u.InternPath(values);
  VarId a = u.InternVar(VarKind::kAtomic, "a");
  VarId y = u.InternVar(VarKind::kPath, "y");
  VarId z = u.InternVar(VarKind::kPath, "z");

  auto match = [&](const std::string& text,
                   std::vector<std::vector<Slice>>* got) {
    PathExpr e = MustExpr(u, text);
    size_t before = u.num_paths();
    Valuation v;
    MatchExpr(u, e, Slice::Of(u, p), v, [&](Valuation& nu) {
      std::vector<Slice> row;
      for (VarId var : {a, y, z}) {
        row.push_back(nu.IsBound(var) ? nu.Get(var) : Slice{{}, kEmptyPath});
      }
      got->push_back(row);
      return true;
    });
    return u.num_paths() - before;
  };

  std::span<const Value> all(values);
  std::vector<std::vector<Slice>> got;
  EXPECT_EQ(match("@a ++ $y", &got), 0u);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_TRUE(std::ranges::equal(got[0][0].values, all.first(1)));
  EXPECT_TRUE(std::ranges::equal(got[0][1].values, all.subspan(1)));

  got.clear();
  EXPECT_EQ(match("$z", &got), 0u);  // the whole path is already interned
  ASSERT_EQ(got.size(), 1u);
  EXPECT_TRUE(std::ranges::equal(got[0][2].values, all));
  EXPECT_EQ(got[0][2].id, p);
}

// Where a later unbound path variable still shares the remainder, every
// split is still tried.
TEST(MatchTest, SplitRuleKeepsEnumeratingOpenSplits) {
  Universe u;
  EXPECT_EQ(CountMatches(u, "$x ++ $x", "a ++ b ++ a ++ b"), 1u);
  EXPECT_EQ(CountMatches(u, "$x ++ $x", "a ++ b ++ a"), 0u);
  // One valuation per occurrence of `a`.
  EXPECT_EQ(CountMatches(u, "$u ++ a ++ $v", "a ++ b ++ a ++ a"), 3u);
  // One per (x, y) position pair with x first; $w takes the rest.
  EXPECT_EQ(CountMatches(u, "$u ++ x ++ $v ++ y ++ $w", "x ++ y ++ x ++ y"),
            3u);
  EXPECT_EQ(CountMatches(u, "$x ++ $y ++ <$z>", "a ++ b ++ <c ++ d>"), 3u);
}

TEST(MatchTest, EvalExprBuildsPacks) {
  Universe u;
  PathId ab = u.PathOfChars("ab");
  Valuation v;
  v.Bind(u.InternVar(VarKind::kPath, "x"), Slice::Of(u, ab));
  PathExpr e = MustExpr(u, "c ++ <$x>");
  size_t before = u.num_paths();
  SliceEvaluator eval(u);
  Result<Slice> s = eval.Eval(e, v);
  ASSERT_TRUE(s.ok());
  std::vector<Value> want = {Value::Atom(u.InternAtom("c")),
                             Value::Packed(ab)};
  EXPECT_TRUE(std::ranges::equal(s->values, want));
  EXPECT_EQ(s->id, kNoPath);
  // The pack reuses $x's id, and c·<a·b> itself is not interned.
  EXPECT_EQ(eval.interns(), 0u);
  EXPECT_EQ(u.num_paths(), before);
  EXPECT_EQ(u.FindPath(s->values), kNoPath);

  Result<PathId> p = EvalExpr(u, e, v);
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(u.FormatPath(*p), "c·<a·b>");
  EXPECT_EQ(u.FindPath(want), *p);
}

// Runs `program` over `input` into `*out`; returns the run's statistics.
EvalStats RunWithStats(Universe& u, const std::string& program,
                       const Instance& input, Instance* out) {
  EvalStats stats;
  Result<Instance> r = Eval(u, MustParse(u, program), input, {}, &stats);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  if (r.ok()) *out = std::move(r).value();
  return stats;
}

// Both sides of an equation are evaluated into scratch and compared as
// slices; with one side bound, the other is matched against the
// evaluated slice, so its variables bind into scratch.
TEST(MatchTest, EquationsCompareAndMatchSlices) {
  Universe u;
  Instance in = MustInstance(u, "R(a). R(b). R(a ++ a). R(a ++ c).");
  Instance out;
  size_t before = u.num_paths();
  EvalStats stats = RunWithStats(
      u, "S($x, $y) <- R($x), R($y), $x ++ a ++ $y = $y ++ a ++ $x.", in,
      &out);
  RelId s = *u.FindRel("S");
  // Equal sides: x = y, or both made of a's (a·a·a·a for (a, a·a)).
  EXPECT_EQ(out.Tuples(s).size(), 6u);
  EXPECT_TRUE(out.Contains(s, {u.PathOfChars("a"), u.PathOfChars("aa")}));
  EXPECT_TRUE(out.Contains(s, {u.PathOfChars("aa"), u.PathOfChars("a")}));
  EXPECT_FALSE(out.Contains(s, {u.PathOfChars("a"), u.PathOfChars("b")}));
  EXPECT_EQ(stats.path_interns, 0u);
  EXPECT_EQ(u.num_paths(), before);

  stats = RunWithStats(u, "T($y) <- R($x), $x ++ b = a ++ $y.", in, &out);
  RelId t = *u.FindRel("T");
  EXPECT_EQ(out.Tuples(t).size(), 3u);  // b, a·b, c·b
  EXPECT_TRUE(out.Contains(t, {u.PathOfChars("b")}));
  EXPECT_TRUE(out.Contains(t, {u.PathOfChars("ab")}));
  EXPECT_TRUE(out.Contains(t, {u.PathOfChars("cb")}));
}

// A negated literal over a concatenation that no stored path equals
// looks it up without interning it: the negation holds and the Universe
// does not grow.
TEST(MatchTest, NegationOverUninternedConcatenation) {
  Universe u;
  Instance in = MustInstance(u, "P(a). P(b). Q(c). R(a ++ c).");
  std::vector<Value> bc = Values(u, "b");
  bc.push_back(Values(u, "c")[0]);
  ASSERT_EQ(u.FindPath(bc), kNoPath);
  size_t before = u.num_paths();
  Instance out;
  EvalStats stats =
      RunWithStats(u, "S($x, $y) <- P($x), Q($y), !R($x ++ $y).", in, &out);
  RelId s = *u.FindRel("S");
  ASSERT_EQ(out.Tuples(s).size(), 1u);
  EXPECT_TRUE(out.Contains(s, {u.PathOfChars("b"), u.PathOfChars("c")}));
  EXPECT_EQ(stats.path_interns, 0u);
  EXPECT_EQ(u.num_paths(), before);
  EXPECT_EQ(u.FindPath(bc), kNoPath);
}

// A variable bound inside a pack is the packed path itself, id included,
// and constrains its uses outside the pack.
TEST(MatchTest, PackBindingReusedOutsideThePack) {
  Universe u;
  EXPECT_EQ(CountMatches(u, "<$x> ++ $x", "<a ++ b> ++ a"), 0u);
  Result<PathId> p = EvalGroundExpr(u, MustExpr(u, "<a ++ b> ++ a ++ b"));
  ASSERT_TRUE(p.ok());
  PathId ab = u.PathOfChars("ab");
  VarId x = u.InternVar(VarKind::kPath, "x");
  std::vector<Value> ab_values = Values(u, "ab");
  size_t count = 0;
  Valuation v;
  MatchExpr(u, MustExpr(u, "<$x> ++ $x"), Slice::Of(u, *p), v,
            [&](Valuation& nu) {
              ++count;
              EXPECT_EQ(nu.Get(x).id, ab);
              EXPECT_TRUE(std::ranges::equal(nu.Get(x).values, ab_values));
              return true;
            });
  EXPECT_EQ(count, 1u);

  Instance in = MustInstance(u, "R(<a ++ b> ++ a ++ b). R(<a> ++ b).");
  size_t before = u.num_paths();
  Instance out;
  EvalStats stats = RunWithStats(u, "S($x) <- R(<$x> ++ $x).", in, &out);
  RelId s = *u.FindRel("S");
  ASSERT_EQ(out.Tuples(s).size(), 1u);
  EXPECT_TRUE(out.Contains(s, {ab}));
  EXPECT_EQ(stats.path_interns, 0u);
  EXPECT_EQ(u.num_paths(), before);
}

// A derived path over max_path_length is rejected before it is interned,
// so the failed run leaves no over-long path behind.
TEST(MatchTest, OverlongHeadIsRejectedBeforeInterning) {
  Universe u;
  Instance in = MustInstance(u, "T(a).");
  RunOptions opts;
  opts.max_path_length = 8;
  Result<Instance> r =
      Eval(u, MustParse(u, "T($x ++ $x) <- T($x)."), in, opts);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
  std::vector<Value> a16(16, Values(u, "a")[0]);
  EXPECT_NE(u.FindPath(std::span<const Value>(a16).first(8)), kNoPath);
  EXPECT_EQ(u.FindPath(a16), kNoPath);
}

// --- Evaluation of the paper's examples ---------------------------------------

TEST(EvalTest, FactsOnly) {
  Universe u;
  Program p = MustParse(u, "S(a ++ b). S(c).");
  Result<Instance> out = Eval(u, p, Instance{});
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->NumFacts(), 2u);
}

TEST(EvalTest, OnlyAsWithEquation) {
  Universe u;
  Program p = MustParse(u, "S($x) <- R($x), a ++ $x = $x ++ a.");
  Instance in = MustInstance(u, "R(a ++ a ++ a). R(a ++ b). R(eps). R(a).");
  Result<Instance> out = Eval(u, p, in);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  RelId s = *u.FindRel("S");
  EXPECT_EQ(out->Tuples(s).size(), 3u);  // aaa, eps, a
  EXPECT_TRUE(out->Contains(s, {u.PathOfChars("aaa")}));
  EXPECT_TRUE(out->Contains(s, {kEmptyPath}));
  EXPECT_TRUE(out->Contains(s, {u.PathOfChars("a")}));
}

TEST(EvalTest, OnlyAsWithRecursionAgrees) {
  Universe u;
  Program p = MustParse(u,
                        "T($x, $x) <- R($x).\n"
                        "T($x, $y) <- T($x, $y ++ a).\n"
                        "S($x) <- T($x, eps).\n");
  Instance in = MustInstance(u, "R(a ++ a ++ a). R(a ++ b). R(eps). R(a).");
  Result<Instance> out = Eval(u, p, in);
  ASSERT_TRUE(out.ok());
  RelId s = *u.FindRel("S");
  EXPECT_EQ(out->Tuples(s).size(), 3u);
}

TEST(EvalTest, ReversalExample43) {
  Universe u;
  Program p = MustParse(u,
                        "T($x, eps) <- R($x).\n"
                        "T($x, $y ++ @u) <- T($x ++ @u, $y).\n"
                        "S($x) <- T(eps, $x).\n");
  Instance in = MustInstance(u, "R(a ++ b ++ c). R(eps).");
  Result<Instance> out = Eval(u, p, in);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  RelId s = *u.FindRel("S");
  EXPECT_EQ(out->Tuples(s).size(), 2u);
  EXPECT_TRUE(out->Contains(s, {u.PathOfChars("cba")}));
  EXPECT_TRUE(out->Contains(s, {kEmptyPath}));
}

TEST(EvalTest, Example22PackingAndNonequalities) {
  Universe u;
  Program p = MustParse(u,
                        "T($u ++ <$s> ++ $v) <- R($u ++ $s ++ $v), S($s).\n"
                        "A <- T($x), T($y), T($z), $x != $y, $x != $z, "
                        "$y != $z.\n");
  // "abab" contains "ab" twice and "ba" once: 3 distinct marked strings.
  Instance in3 = MustInstance(u, "R(a ++ b ++ a ++ b). S(a ++ b). S(b ++ a).");
  Result<Instance> out3 = Eval(u, p, in3);
  ASSERT_TRUE(out3.ok()) << out3.status().ToString();
  EXPECT_TRUE(out3->Contains(*u.FindRel("A"), {}));

  Universe u2;
  Program p2 = MustParse(u2,
                         "T($u ++ <$s> ++ $v) <- R($u ++ $s ++ $v), S($s).\n"
                         "A <- T($x), T($y), T($z), $x != $y, $x != $z, "
                         "$y != $z.\n");
  // Only two occurrences of "ab" in "abab" - not enough.
  Instance in2 = MustInstance(u2, "R(a ++ b ++ a ++ b). S(a ++ b).");
  Result<Instance> out2 = Eval(u2, p2, in2);
  ASSERT_TRUE(out2.ok());
  EXPECT_FALSE(out2->Contains(*u2.FindRel("A"), {}));
}

TEST(EvalTest, Example23DoesNotTerminate) {
  Universe u;
  Program p = MustParse(u, "T(a). T(a ++ $x) <- T($x).");
  RunOptions opts;
  opts.max_facts = 1000;
  Result<Instance> out = Eval(u, p, Instance{}, opts);
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kResourceExhausted);
}

TEST(EvalTest, NonterminationCaughtByIterationBudget) {
  Universe u;
  Program p = MustParse(u, "T(a). T(a ++ $x) <- T($x).");
  RunOptions opts;
  opts.max_iterations = 50;
  Result<Instance> out = Eval(u, p, Instance{}, opts);
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kResourceExhausted);
}

TEST(EvalTest, SquaringQuery) {
  Universe u;
  Program p = MustParse(u,
                        "T(eps, $x, $x) <- R($x).\n"
                        "T($y ++ $x, $x, $z) <- T($y, $x, a ++ $z).\n"
                        "S($y) <- T($y, $x, eps).\n");
  Instance in = MustInstance(u, "R(a ++ a ++ a).");
  Result<Instance> out = Eval(u, p, in);
  ASSERT_TRUE(out.ok());
  RelId s = *u.FindRel("S");
  ASSERT_EQ(out->Tuples(s).size(), 1u);
  EXPECT_TRUE(out->Contains(s, {u.PathOfChars(std::string(9, 'a'))}));
}

TEST(EvalTest, StratifiedNegationBlackNodes) {
  Universe u;
  Program p = MustParse(u,
                        "W(@x) <- R(@x ++ @y), !B(@y).\n"
                        "---\n"
                        "S(@x) <- R(@x ++ @y), !W(@x).\n");
  // Edges: a->b, a->c, d->b. Black: {b}. W = nodes with an edge to a
  // non-black node = {a}. S = nodes with only-black successors = {d}.
  Instance in = MustInstance(u, "R(a ++ b). R(a ++ c). R(d ++ b). B(b).");
  Result<Instance> out = Eval(u, p, in);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  RelId s = *u.FindRel("S");
  EXPECT_EQ(out->Tuples(s).size(), 1u);
  EXPECT_TRUE(out->Contains(s, {u.PathOfChars("d")}));
}

TEST(EvalTest, UnstratifiedProgramRejected) {
  Universe u;
  Program p = MustParse(u, "P0($x) <- R($x), !Q0($x). Q0($x) <- P0($x).");
  Result<Instance> out = Eval(u, p, MustInstance(u, "R(a)."));
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kInvalidArgument);
}

TEST(EvalTest, NaiveAndSeminaiveAgree) {
  Universe u;
  Program p = MustParse(u,
                        "T(@x ++ @y) <- R(@x ++ @y).\n"
                        "T(@x ++ @z) <- T(@x ++ @y), R(@y ++ @z).\n"
                        "S <- T(a ++ b).\n");
  Instance in = MustInstance(u, "R(a ++ c). R(c ++ d). R(d ++ b). R(b ++ a).");
  RunOptions naive;
  naive.seminaive = false;
  Result<Instance> o1 = Eval(u, p, in);
  Result<Instance> o2 = Eval(u, p, in, naive);
  ASSERT_TRUE(o1.ok());
  ASSERT_TRUE(o2.ok());
  EXPECT_EQ(*o1, *o2);
  EXPECT_TRUE(o1->Contains(*u.FindRel("S"), {}));
}

TEST(EvalTest, EmptyBodyArityZeroRule) {
  Universe u;
  Program p = MustParse(u, "A <- .");
  Result<Instance> out = Eval(u, p, Instance{});
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(out->Contains(*u.FindRel("A"), {}));
}

TEST(EvalTest, EquationBindingBothDirections) {
  Universe u;
  // The equation binds $y from the ground lhs; head uses $y.
  Program p = MustParse(u, "S($y) <- R($x), $x = b ++ $y.");
  Instance in = MustInstance(u, "R(b ++ c ++ d). R(a ++ c).");
  Result<Instance> out = Eval(u, p, in);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  RelId s = *u.FindRel("S");
  EXPECT_EQ(out->Tuples(s).size(), 1u);
  EXPECT_TRUE(out->Contains(s, {u.PathOfChars("cd")}));
}

TEST(EvalTest, NegatedGroundEquationFilters) {
  Universe u;
  Program p = MustParse(u, "S($x) <- R($x), $x != a ++ b.");
  Instance in = MustInstance(u, "R(a ++ b). R(a ++ c).");
  Result<Instance> out = Eval(u, p, in);
  ASSERT_TRUE(out.ok());
  RelId s = *u.FindRel("S");
  EXPECT_EQ(out->Tuples(s).size(), 1u);
  EXPECT_TRUE(out->Contains(s, {u.PathOfChars("ac")}));
}

TEST(EvalTest, EvalQueryProjects) {
  Universe u;
  Program p = MustParse(u, "T($x) <- R($x). S($x) <- T($x).");
  Instance in = MustInstance(u, "R(a).");
  Result<Instance> out = EvalQuery(u, p, in, *u.FindRel("S"));
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->NumFacts(), 1u);
  EXPECT_TRUE(out->Contains(*u.FindRel("S"), {u.PathOfChars("a")}));
}

TEST(EvalTest, MaxPathLengthGuard) {
  Universe u;
  Program p = MustParse(u, "T(a). T($x ++ $x) <- T($x).");
  RunOptions opts;
  opts.max_path_length = 64;
  Result<Instance> out = Eval(u, p, Instance{}, opts);
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kResourceExhausted);
}

// --- Differential tests against the direct baselines --------------------------

TEST(EvalDifferentialTest, NfaAcceptanceMatchesSimulator) {
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    Universe u;
    Program p = MustParse(
        u,
        "S(@q ++ $x, eps) <- R($x), N(@q).\n"
        "S(@q2 ++ $y, $z ++ @a) <- S(@q1 ++ @a ++ $y, $z), D(@q1, @a, @q2).\n"
        "A($x) <- S(@q, $x), F(@q).\n");
    NfaWorkload nw;
    nw.num_states = 4;
    nw.alphabet = 2;
    nw.seed = seed;
    Nfa nfa = RandomNfa(nw);
    Result<Instance> in = NfaToInstance(u, nfa);
    ASSERT_TRUE(in.ok());
    StringWorkload sw;
    sw.count = 12;
    sw.max_len = 6;
    sw.seed = seed + 100;
    Result<Instance> strings = RandomStrings(u, sw);
    ASSERT_TRUE(strings.ok());
    in->UnionWith(*strings);

    Result<Instance> out = Eval(u, p, *in);
    ASSERT_TRUE(out.ok()) << out.status().ToString();
    RelId a_rel = *u.FindRel("A");
    RelId r_rel = *u.FindRel("R");
    for (const Tuple& t : out->Tuples(r_rel)) {
      std::vector<uint32_t> word;
      bool skip = false;
      for (Value v : u.GetPath(t[0])) {
        const std::string& name = u.AtomName(v.atom());
        uint32_t letter = static_cast<uint32_t>(name[0] - 'a');
        if (letter >= nfa.alphabet) skip = true;
        word.push_back(letter);
      }
      if (skip) continue;
      EXPECT_EQ(out->Contains(a_rel, t), nfa.Accepts(word))
          << "string " << u.FormatPath(t[0]) << " seed " << seed;
    }
  }
}

TEST(EvalDifferentialTest, ReachabilityMatchesBfs) {
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    Universe u;
    Program p = MustParse(u,
                          "T(@x ++ @y) <- R(@x ++ @y).\n"
                          "T(@x ++ @z) <- T(@x ++ @y), R(@y ++ @z).\n"
                          "S <- T(a ++ b).\n");
    GraphWorkload gw;
    gw.nodes = 7;
    gw.edges = 10;
    gw.seed = seed;
    Graph g = RandomGraph(gw);
    Result<Instance> in = GraphToInstance(u, g, "R");
    ASSERT_TRUE(in.ok());
    Result<Instance> out = Eval(u, p, *in);
    ASSERT_TRUE(out.ok());
    EXPECT_EQ(out->Contains(*u.FindRel("S"), {}), Reachable(g, 0, 1))
        << "seed " << seed;
  }
}

TEST(EvalDifferentialTest, MarkedPairsMatchBaseline) {
  Universe u;
  Program p = MustParse(u,
                        "U($x, $x) <- R($x).\n"
                        "U($x, $y) <- U($x, @a ++ $y ++ @b), @a != @b.\n"
                        "S($x) <- U($x, eps).\n");
  StringWorkload sw;
  sw.count = 30;
  sw.max_len = 6;
  sw.alphabet = 3;
  sw.seed = 7;
  Result<Instance> in = RandomStrings(u, sw);
  ASSERT_TRUE(in.ok());
  Result<Instance> out = Eval(u, p, *in);
  ASSERT_TRUE(out.ok());
  RelId s = *u.FindRel("S");
  RelId r = *u.FindRel("R");
  for (const Tuple& t : out->Tuples(r)) {
    std::string str;
    for (Value v : u.GetPath(t[0])) str += u.AtomName(v.atom());
    EXPECT_EQ(out->Contains(s, t), IsMarkedPair(str)) << str;
  }
}

TEST(EvalDifferentialTest, ProcessMiningMatchesBaseline) {
  Universe u;
  Program p = MustParse(
      u,
      "HasRp($v) <- R($u ++ co ++ $v), $v = $s ++ rp ++ $t.\n"
      "---\n"
      "Bad($x) <- R($x), $x = $u ++ co ++ $v, !HasRp($v).\n"
      "---\n"
      "Good($x) <- R($x), !Bad($x).\n");
  EventLogWorkload ew;
  ew.count = 25;
  ew.len = 8;
  ew.seed = 3;
  Result<Instance> in = RandomEventLogs(u, ew);
  ASSERT_TRUE(in.ok());
  Result<Instance> out = Eval(u, p, *in);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  RelId good = *u.FindRel("Good");
  RelId r = *u.FindRel("R");
  for (const Tuple& t : out->Tuples(r)) {
    std::vector<std::string> events;
    for (Value v : u.GetPath(t[0])) events.push_back(u.AtomName(v.atom()));
    EXPECT_EQ(out->Contains(good, t), EveryCoFollowedByRp(events))
        << u.FormatPath(t[0]);
  }
}

// --- Doubling / undoubling round-trip (Theorem 4.15 rules) --------------------

TEST(EvalTest, DoubleThenUndoubleIsIdentity) {
  Universe u2;
  Program both = MustParse(u2,
                           "T(eps, $x) <- R($x).\n"
                           "T($x ++ @y ++ @y, $z) <- T($x, @y ++ $z).\n"
                           "Rd($x) <- T($x, eps).\n"
                           "---\n"
                           "V($x, eps) <- Rd($x).\n"
                           "V($x, @y ++ $z) <- V($x ++ @y ++ @y, $z).\n"
                           "Back($x) <- V(eps, $x).\n");
  Instance in = MustInstance(u2, "R(a ++ b ++ c). R(eps). R(a).");
  Result<Instance> out = Eval(u2, both, in);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  RelId back = *u2.FindRel("Back");
  RelId r = *u2.FindRel("R");
  EXPECT_EQ(out->Tuples(back).size(), out->Tuples(r).size());
  for (const Tuple& t : out->Tuples(r)) {
    EXPECT_TRUE(out->Contains(back, t)) << u2.FormatPath(t[0]);
  }
  // And the doubled relation contains the doubled paths.
  RelId rd = *u2.FindRel("Rd");
  EXPECT_TRUE(out->Contains(rd, {u2.PathOfChars("aabbcc")}));
}

// --- Interning budget --------------------------------------------------------

// The three program families of the end-to-end benchmark's cold stream
// over one fixed-seed event log: Example 2.1's NFA, the process-mining
// query and an Example 3.1 equation filter. A run interns only the head
// values it derives (and packed values, which these programs lack), so
// interning is bounded by the firings, a pass-through head interns
// nothing, and matching, probe keys and negated lookups never grow the
// Universe.
TEST(InternBudgetTest, RunsInternOnlyHeadValues) {
  struct Family {
    const char* name;
    const char* program;
    uint64_t max_head_arity;
    const char* output;
    bool pass_through;  // every head passes a stored value through
  };
  const Family families[] = {
      {"nfa",
       "N(q0).\n"
       "D(q0, act0, q0). D(q0, act1, q0). D(q0, act2, q0). D(q0, act3, q0).\n"
       "D(q0, co, q0). D(q0, rp, q0).\n"
       "D(q0, co, q1). D(q1, act2, q1). D(q1, rp, q2). D(q2, act0, q2).\n"
       "F(q2).\n"
       "S(@q ++ $x, eps) <- R($x), N(@q).\n"
       "S(@q2 ++ $y, $z ++ @a) <- S(@q1 ++ @a ++ $y, $z), D(@q1, @a, @q2).\n"
       "A($x) <- S(@q, $x), F(@q).\n",
       2, "A", false},
      {"process_mining",
       "HasY($v) <- R($u ++ co ++ $v), $v = $s ++ rp ++ $t.\n"
       "---\n"
       "Bad($x) <- R($x), $x = $u ++ co ++ $v, !HasY($v).\n"
       "---\n"
       "Good($x) <- R($x), !Bad($x).\n",
       1, "Good", false},
      {"equation_filter",
       "S($x) <- R($x), $x = $u ++ co ++ $v ++ rp ++ $w.\n"
       "T($x) <- R($x), $x = $u ++ act1 ++ act2 ++ $v.\n",
       1, "S", true},
  };
  for (const Family& f : families) {
    SCOPED_TRACE(f.name);
    Universe u;
    EventLogWorkload w;
    w.count = 40;
    w.len = 12;
    w.seed = 7;
    Result<Instance> logs = RandomEventLogs(u, w);
    ASSERT_TRUE(logs.ok());
    Program p = MustParse(u, f.program);

    size_t before = u.num_paths();
    EvalStats cold;
    Result<Instance> first = Eval(u, p, *logs, {}, &cold);
    ASSERT_TRUE(first.ok()) << first.status().ToString();
    EXPECT_FALSE(first->Tuples(*u.FindRel(f.output)).empty());
    EXPECT_GT(cold.rule_firings, 0u);
    EXPECT_LE(cold.path_interns, cold.rule_firings * f.max_head_arity);
    // Every path the run added came from interning a head value.
    EXPECT_LE(u.num_paths() - before, cold.path_interns);

    // The same run again derives only paths the Universe already holds.
    before = u.num_paths();
    EvalStats warm;
    Result<Instance> second = Eval(u, p, *logs, {}, &warm);
    ASSERT_TRUE(second.ok());
    EXPECT_EQ(*second, *first);
    EXPECT_EQ(u.num_paths(), before);
    EXPECT_EQ(warm.path_interns, cold.path_interns);
    if (f.pass_through) {
      EXPECT_EQ(cold.path_interns, 0u);
    }
  }
}

}  // namespace
}  // namespace seqdl
