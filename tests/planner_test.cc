// Tests for the boolean-query observation of §5.1.1, for the engine's
// scan-reordering planner, and golden tests pinning the selectivity-aware
// planner's access-path and ordering choices (see plan.h / stats.h).
#include <gtest/gtest.h>

#include <string>

#include "src/engine/database.h"
#include "src/engine/engine.h"
#include "src/engine/eval.h"
#include "src/engine/instance.h"
#include "src/engine/plan.h"
#include "src/engine/stats.h"
#include "src/queries/queries.h"
#include "src/syntax/parser.h"
#include "src/term/universe.h"
#include "src/transform/boolean_queries.h"
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
  EXPECT_TRUE(i.ok()) << i.status().ToString();
  return std::move(i).value();
}

// Compiles `p` with body-scan reordering on or off, then runs it on `in`.
Result<Instance> EvalReordered(Universe& u, const Program& p,
                               const Instance& in, bool reorder,
                               const RunOptions& ropts = {},
                               EvalStats* stats = nullptr) {
  CompileOptions copts;
  copts.reorder_scans = reorder;
  SEQDL_ASSIGN_OR_RETURN(PreparedProgram prog,
                         Engine::CompileBorrowed(u, p, copts));
  return prog.Run(in, ropts, stats);
}

// --- §5.1.1: recursion is redundant for boolean queries without I -------------

TEST(BooleanQueryTest, RecursiveRulesAreDroppable) {
  Universe u;
  // A boolean query with a (useless, but legal) recursive rule: A fires
  // iff R contains a path with two equal adjacent atoms.
  Program p = MustParse(u,
                        "A <- R($u ++ @x ++ @x ++ $v).\n"
                        "A <- A, R($x).\n");
  Result<Program> q = StripRecursionFromBooleanQuery(u, p);
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ(q->NumRules(), 1u);
  for (const char* data :
       {"R(a ++ a).", "R(a ++ b).", "R(a ++ b ++ b ++ c). R(d).",
        "R(eps)."}) {
    Universe u2;
    Program p2 = MustParse(u2,
                           "A <- R($u ++ @x ++ @x ++ $v).\n"
                           "A <- A, R($x).\n");
    Result<Program> q2 = StripRecursionFromBooleanQuery(u2, p2);
    ASSERT_TRUE(q2.ok());
    Instance in = MustInstance(u2, data);
    RelId a = *u2.FindRel("A");
    Result<Instance> o1 = EvalQuery(u2, p2, in, a);
    Result<Instance> o2 = EvalQuery(u2, *q2, in, a);
    ASSERT_TRUE(o1.ok());
    ASSERT_TRUE(o2.ok());
    EXPECT_EQ(o1->Contains(a, {}), o2->Contains(a, {})) << data;
  }
}

TEST(BooleanQueryTest, RejectsIntermediatePredicates) {
  Universe u;
  Program p = MustParse(u, "T($x) <- R($x).\nA <- T($x).");
  Result<Program> q = StripRecursionFromBooleanQuery(u, p);
  ASSERT_FALSE(q.ok());
  EXPECT_EQ(q.status().code(), StatusCode::kFailedPrecondition);
}

TEST(BooleanQueryTest, RejectsNonBooleanOutput) {
  Universe u;
  Program p = MustParse(u, "S($x) <- R($x). S(a ++ $x) <- S($x).");
  Result<Program> q = StripRecursionFromBooleanQuery(u, p);
  ASSERT_FALSE(q.ok());
  EXPECT_EQ(q.status().code(), StatusCode::kFailedPrecondition);
}

// --- Scan reordering ------------------------------------------------------------

TEST(PlannerTest, ReorderingPreservesSemantics) {
  // A body written in a deliberately bad order: the selective Q predicate
  // comes last.
  Universe u;
  Program p = MustParse(
      u, "S(@x) <- R(@a ++ @b), T(@b ++ @x), Q(@x).\n");
  Instance in = MustInstance(
      u,
      "R(a ++ b). R(c ++ d). R(e ++ f).\n"
      "T(b ++ g). T(d ++ h). T(f ++ g).\n"
      "Q(g).");
  RelId s = *u.FindRel("S");
  Result<Instance> o1 = EvalReordered(u, p, in, /*reorder=*/true);
  Result<Instance> o2 = EvalReordered(u, p, in, /*reorder=*/false);
  ASSERT_TRUE(o1.ok());
  ASSERT_TRUE(o2.ok());
  EXPECT_EQ(o1->Project({s}), o2->Project({s}));
  EXPECT_TRUE(o1->Contains(s, {u.PathOfChars("g")}));
}

TEST(PlannerTest, ReorderingAgreesOnCorpus) {
  for (const PaperQuery& q : PaperCorpus()) {
    if (!q.terminating) continue;
    Universe u;
    Result<ParsedQuery> parsed = ParsePaperQuery(u, q);
    ASSERT_TRUE(parsed.ok()) << q.id;
    Instance in;
    for (RelId rel : EdbRels(parsed->program)) {
      uint32_t arity = u.RelArity(rel);
      Tuple t;
      for (uint32_t i = 0; i < arity; ++i) t.push_back(u.PathOfChars("ab"));
      in.Add(rel, t);
    }
    Result<Instance> o1 =
        EvalReordered(u, parsed->program, in, /*reorder=*/true);
    Result<Instance> o2 =
        EvalReordered(u, parsed->program, in, /*reorder=*/false);
    ASSERT_TRUE(o1.ok()) << q.id;
    ASSERT_TRUE(o2.ok()) << q.id;
    EXPECT_EQ(*o1, *o2) << q.id;
  }
}

TEST(PlannerTest, ReorderingReducesFirings) {
  // Join of three relations where body order is worst-case: R x Q is a
  // cartesian product unless the planner moves T between them.
  Universe u;
  Program p = MustParse(u, "S(@x) <- R(@a ++ @b), Q(@x ++ @c), T(@b ++ @x).");
  Instance in;
  RelId r = *u.InternRel("R", 1), q = *u.InternRel("Q", 1),
        t = *u.InternRel("T", 1);
  for (int i = 0; i < 12; ++i) {
    std::string ri = "r" + std::to_string(i);
    std::string qi = "q" + std::to_string(i);
    in.Add(r, {u.PathOfWords(ri + " b0")});
    in.Add(q, {u.PathOfWords(qi + " c0")});
  }
  in.Add(t, {u.PathOfWords("b0 q0")});
  EvalStats with, without;
  Result<Instance> o1 = EvalReordered(u, p, in, /*reorder=*/true, {}, &with);
  Result<Instance> o2 =
      EvalReordered(u, p, in, /*reorder=*/false, {}, &without);
  ASSERT_TRUE(o1.ok());
  ASSERT_TRUE(o2.ok());
  EXPECT_EQ(*o1, *o2);
  // Both derive the same single fact; reordering just does it with fewer
  // intermediate bindings (firings count head derivations, which are
  // equal — the difference shows in wall time; at minimum semantics hold).
  EXPECT_EQ(with.derived_facts, without.derived_facts);
}

TEST(PlannerTest, NaiveReorderCombinationsAllAgree) {
  Universe u;
  Result<ParsedQuery> reach = ParsePaperQuery(u, "reach_ab");
  ASSERT_TRUE(reach.ok());
  GraphWorkload gw;
  gw.nodes = 7;
  gw.edges = 12;
  gw.seed = 3;
  Result<Instance> in = GraphToInstance(u, RandomGraph(gw), "R");
  ASSERT_TRUE(in.ok());
  std::vector<Instance> results;
  for (bool seminaive : {true, false}) {
    for (bool reorder : {true, false}) {
      RunOptions opts;
      opts.seminaive = seminaive;
      Result<Instance> out = EvalReordered(u, reach->program, *in, reorder,
                                           opts);
      ASSERT_TRUE(out.ok());
      results.push_back(std::move(*out));
    }
  }
  for (size_t i = 1; i < results.size(); ++i) {
    EXPECT_EQ(results[0], results[i]) << "combination " << i;
  }
}

// --- Selectivity-aware planning -----------------------------------------------

// A skewed fixture: R(tag, id) where column 0 is near-constant (one huge
// bucket) and column 1 is a unique key (singleton buckets); P holds the
// two-value paths tag·id the rule destructures.
Instance SkewedInstance(Universe& u, size_t n) {
  std::string text;
  for (size_t k = 0; k < n; ++k) {
    std::string id = "i" + std::to_string(k);
    text += "P(t ++ " + id + ").\n";
    text += "R(t, " + id + ").\n";
  }
  return MustInstance(u, text);
}

TEST(SelectivityPlannerTest, PicksMostSelectiveWholeKeyOnSkewedData) {
  Universe u;
  Program p = MustParse(u, "S(@i) <- P(@t ++ @i), R(@t, @i).\n");
  Instance in = SkewedInstance(u, 20);
  StoreStats stats = ComputeInstanceStats(u, in);
  const Rule& rule = p.strata[0].rules[0];

  // Legacy heuristic: the first fully ground argument of R wins — the
  // near-constant tag column, whose bucket holds the whole relation.
  Result<RulePlan> legacy = PlanRule(u, rule, /*reorder_scans=*/true);
  ASSERT_TRUE(legacy.ok()) << legacy.status().ToString();
  ASSERT_EQ(legacy->steps.size(), 2u);
  EXPECT_EQ(legacy->steps[1].index_arg, 0);

  // Selectivity-aware: measured mean bucket sizes (20.0 vs 1.0) flip the
  // key to the unique id column.
  PlannerOptions opts;
  opts.stats = &stats;
  Result<RulePlan> planned = PlanRule(u, rule, opts);
  ASSERT_TRUE(planned.ok()) << planned.status().ToString();
  ASSERT_EQ(planned->steps.size(), 2u);
  EXPECT_EQ(planned->steps[1].index_arg, 1);
  EXPECT_TRUE(planned->steps[1].stats_chosen);
  EXPECT_DOUBLE_EQ(planned->steps[1].est_cost, 1.0);
  // The P scan stays a full scan, estimated at the relation size.
  EXPECT_EQ(planned->steps[0].index_arg, -1);
  EXPECT_DOUBLE_EQ(planned->steps[0].est_cost, 20.0);
}

TEST(SelectivityPlannerTest, PrefixProbeBeatsNearConstantWholeKey) {
  Universe u;
  // R's column 0 is fully ground immediately (the constant t0) but
  // near-constant in the data; column 1 only ever has a ground one-atom
  // prefix, yet its first-value buckets are singletons.
  Program p = MustParse(u, "S($r) <- P(@a), R(t0, @a ++ $r).\n");
  std::string text;
  for (size_t k = 0; k < 16; ++k) {
    std::string a = "x" + std::to_string(k);
    text += "P(" + a + ").\n";
    text += "R(t0, " + a + " ++ y ++ z).\n";
  }
  Instance in = MustInstance(u, text);
  StoreStats stats = ComputeInstanceStats(u, in);
  const Rule& rule = p.strata[0].rules[0];

  // Legacy: a fully ground argument always wins, however unselective.
  Result<RulePlan> legacy = PlanRule(u, rule, /*reorder_scans=*/true);
  ASSERT_TRUE(legacy.ok());
  ASSERT_EQ(legacy->steps.size(), 2u);
  EXPECT_EQ(legacy->steps[1].index_arg, 0);

  // Selectivity-aware: the first-value probe on column 1 (mean bucket
  // 1.0) beats the whole-value probe on column 0 (mean bucket 16.0).
  PlannerOptions opts;
  opts.stats = &stats;
  Result<RulePlan> planned = PlanRule(u, rule, opts);
  ASSERT_TRUE(planned.ok());
  ASSERT_EQ(planned->steps.size(), 2u);
  EXPECT_EQ(planned->steps[1].index_arg, -1);
  EXPECT_EQ(planned->steps[1].prefix_arg, 1);
  EXPECT_TRUE(planned->steps[1].stats_chosen);
  EXPECT_DOUBLE_EQ(planned->steps[1].est_cost, 1.0);
}

TEST(SelectivityPlannerTest, ReordersBodyAtomsByEstimatedCost) {
  Universe u;
  Program p = MustParse(u, "S(@x) <- Big(@x), Small(@x).\n");
  std::string text = "Small(s0). Small(s1).\n";
  for (size_t k = 0; k < 40; ++k) {
    text += "Big(b" + std::to_string(k) + ").\n";
  }
  text += "Big(s0).\n";
  Instance in = MustInstance(u, text);
  StoreStats stats = ComputeInstanceStats(u, in);
  const Rule& rule = p.strata[0].rules[0];

  // Legacy ordering keeps body order (no variables bound either way).
  Result<RulePlan> legacy = PlanRule(u, rule, /*reorder_scans=*/true);
  ASSERT_TRUE(legacy.ok());
  ASSERT_EQ(legacy->steps.size(), 2u);
  EXPECT_EQ(legacy->steps[0].lit_idx, 0u);

  // Selectivity-aware ordering scans the 2-tuple relation first (est 2
  // vs 41), then answers Big with a whole-value probe on the now-bound
  // variable.
  PlannerOptions opts;
  opts.stats = &stats;
  Result<RulePlan> planned = PlanRule(u, rule, opts);
  ASSERT_TRUE(planned.ok());
  ASSERT_EQ(planned->steps.size(), 2u);
  EXPECT_EQ(planned->steps[0].lit_idx, 1u);
  EXPECT_DOUBLE_EQ(planned->steps[0].est_cost, 2.0);
  EXPECT_EQ(planned->steps[1].lit_idx, 0u);
  EXPECT_EQ(planned->steps[1].index_arg, 0);

  // Both plans derive the same facts (the harness checks this at scale;
  // pin it here for the fixture).
  Result<Instance> o1 = Eval(u, p, in, {});
  Result<Database> db = Database::Open(u, in);
  ASSERT_TRUE(o1.ok());
  ASSERT_TRUE(db.ok());
  Result<PreparedProgram> prog = db->Compile(p);
  ASSERT_TRUE(prog.ok());
  Result<Instance> derived = db->Snapshot().Run(*prog);
  ASSERT_TRUE(derived.ok());
  Instance o2 = db->edb();
  o2.UnionWith(std::move(*derived));
  EXPECT_EQ(*o1, o2);
}

TEST(SelectivityPlannerTest, UnskewedDataPinsLegacyChoices) {
  Universe u;
  Program p = MustParse(u, "S(@i) <- P(@t ++ @i), R(@t, @i).\n");
  // Uniform data: both columns of R are unique keys, so every estimate
  // ties at 1.0 and the deterministic tie-break (lower argument position)
  // must reproduce the legacy choice. A regression that changes this
  // breaks plan stability for the common unskewed case.
  std::string text;
  for (size_t k = 0; k < 12; ++k) {
    std::string t = "t" + std::to_string(k), i = "i" + std::to_string(k);
    text += "P(" + t + " ++ " + i + ").\n";
    text += "R(" + t + ", " + i + ").\n";
  }
  Instance in = MustInstance(u, text);
  StoreStats stats = ComputeInstanceStats(u, in);
  const Rule& rule = p.strata[0].rules[0];

  Result<RulePlan> legacy = PlanRule(u, rule, /*reorder_scans=*/true);
  PlannerOptions opts;
  opts.stats = &stats;
  Result<RulePlan> planned = PlanRule(u, rule, opts);
  ASSERT_TRUE(legacy.ok());
  ASSERT_TRUE(planned.ok());
  ASSERT_EQ(planned->steps.size(), legacy->steps.size());
  for (size_t i = 0; i < planned->steps.size(); ++i) {
    EXPECT_EQ(planned->steps[i].lit_idx, legacy->steps[i].lit_idx) << i;
    EXPECT_EQ(planned->steps[i].index_arg, legacy->steps[i].index_arg) << i;
    EXPECT_EQ(planned->steps[i].prefix_arg, legacy->steps[i].prefix_arg) << i;
    EXPECT_EQ(planned->steps[i].suffix_arg, legacy->steps[i].suffix_arg) << i;
  }
}

TEST(SelectivityPlannerTest, ExplainPlanReportsChosenKeys) {
  Universe u;
  Program p = MustParse(u, "S(@i) <- P(@t ++ @i), R(@t, @i).\n");
  Instance in = SkewedInstance(u, 20);

  Result<Database> db = Database::Open(u, in);
  ASSERT_TRUE(db.ok());
  Result<PreparedProgram> planned = db->Compile(p);
  ASSERT_TRUE(planned.ok()) << planned.status().ToString();
  std::string explain = planned->ExplainPlan();
  EXPECT_NE(explain.find("whole-value key col 1"), std::string::npos)
      << explain;
  EXPECT_NE(explain.find("[stats]"), std::string::npos) << explain;

  Result<PreparedProgram> legacy = Engine::Compile(u, p);
  ASSERT_TRUE(legacy.ok());
  std::string legacy_explain = legacy->ExplainPlan();
  EXPECT_NE(legacy_explain.find("whole-value key col 0"), std::string::npos)
      << legacy_explain;
  EXPECT_EQ(legacy_explain.find("[stats]"), std::string::npos)
      << legacy_explain;

  // The same decisions land in EvalStats::plan_decisions on stats runs.
  EvalStats stats;
  ASSERT_TRUE(db->Snapshot().Run(*planned, {}, &stats).ok());
  ASSERT_FALSE(stats.plan_decisions.empty());
  bool found = false;
  for (const std::string& line : stats.plan_decisions) {
    found |= line.find("whole-value key col 1") != std::string::npos;
  }
  EXPECT_TRUE(found);
}

// Example 2.1 with its automaton inlined as program facts. Column 1 of D
// (the letter) is more selective than column 0 (the state): 4 letters vs
// 2 source states over 6 transitions.
constexpr char kInlinedNfa[] =
    "N(q0).\n"
    "D(q0, a, q0). D(q0, b, q0). D(q0, c, q0). D(q0, d, q0).\n"
    "D(q0, a, q1). D(q1, b, q2).\n"
    "F(q2).\n"
    "S(@q ++ $x, eps) <- R($x), N(@q).\n"
    "S(@q2 ++ $y, $z ++ @a) <- S(@q1 ++ @a ++ $y, $z), D(@q1, @a, @q2).\n"
    "A($x) <- S(@q, $x), F(@q).\n";

// The first `scan` step line after `header` in an ExplainPlan() rendering.
std::string StepAfter(const std::string& explain, const std::string& header,
                      const std::string& scan) {
  size_t at = explain.find(header);
  if (at != std::string::npos) at = explain.find(scan, at);
  if (at == std::string::npos) return "";
  return explain.substr(at, explain.find('\n', at) - at);
}

TEST(SelectivityPlannerTest, InlinedFactsPlanFromTheirOwnStatistics) {
  Universe u;
  Program p = MustParse(u, kInlinedNfa);
  Instance in = MustInstance(u, "R(a ++ b). R(c ++ a ++ b ++ d). R(d ++ d).");
  Result<Database> db = Database::Open(u, in);
  ASSERT_TRUE(db.ok());

  // With statistics, the delta rounds' S-first variant of the recursive
  // rule probes D on the letter column, chosen from the facts' measured
  // buckets (mean 1.5 vs 3.0).
  Result<PreparedProgram> planned = db->Compile(p);
  ASSERT_TRUE(planned.ok()) << planned.status().ToString();
  EXPECT_EQ(StepAfter(planned->ExplainPlan(), "delta S (literal 0)", "scan D"),
            "scan D: whole-value key col 1, est 1.50 [stats]")
      << planned->ExplainPlan();

  // Without statistics the legacy heuristic keys the first ground column.
  Result<PreparedProgram> legacy = Engine::Compile(u, p);
  ASSERT_TRUE(legacy.ok());
  EXPECT_EQ(StepAfter(legacy->ExplainPlan(), "delta S (literal 0)", "scan D"),
            "scan D: whole-value key col 0")
      << legacy->ExplainPlan();

  // Both plans accept the same words.
  Result<Instance> fast = db->Snapshot().Run(*planned);
  Result<Instance> slow = db->Snapshot().Run(*legacy);
  ASSERT_TRUE(fast.ok());
  ASSERT_TRUE(slow.ok());
  EXPECT_EQ(*fast, *slow);
  RelId a = *u.FindRel("A");
  EXPECT_EQ(fast->Project({a}).ToString(u), "A(a·b).\n");
}

TEST(SelectivityPlannerTest, OnlyFactDefinedUnknownRelationsAreSeeded) {
  Universe u;
  Program p = MustParse(u,
                        "N(q0).\n"
                        "N(@q) <- D(@p, @a, @q).\n"
                        "D(q0, a, q1). D(q1, b, q2).\n"
                        "F(q2). F(q1).\n"
                        "G(<q0 ++ a>).\n"
                        "Z <- G(<q0 ++ @a>), F(q1).\n");
  RelId n = *u.FindRel("N"), d = *u.FindRel("D"), f = *u.FindRel("F"),
        g = *u.FindRel("G"), z = *u.FindRel("Z");
  // F is already measured (say, from the EDB): its estimate stays.
  StoreStats stats = ComputeInstanceStats(u, MustInstance(u, "F(q7)."));
  AddProgramFactStats(u, p, &stats);
  EXPECT_FALSE(stats.Knows(n));  // a fact and a rule
  EXPECT_FALSE(stats.Knows(z));  // a rule
  ASSERT_TRUE(stats.Knows(d));
  EXPECT_EQ(stats.relations.at(d).tuples, 2u);
  EXPECT_DOUBLE_EQ(stats.EstimateWhole(d, 1), 1.0);
  EXPECT_EQ(stats.relations.at(f).tuples, 1u);
  ASSERT_TRUE(stats.Knows(g));  // packed ground facts count too
  EXPECT_EQ(stats.relations.at(g).tuples, 1u);
}

}  // namespace
}  // namespace seqdl
