// Randomized differential harness: the safety net for planner changes.
//
// Generates small random Sequence Datalog programs and EDB instances from
// a seeded RNG (no wall-clock anywhere — every run of a given seed sees
// the same case), evaluates each through every execution path the engine
// has, and asserts the rendered outputs are byte-identical:
//
//   * legacy one-shot Eval (compile + run per call);
//   * PreparedProgram::Run (compile-once, throwaway indexed base);
//   * forced full scans (RunOptions::use_index = false) — no index family
//     is ever probed;
//   * naive iteration (seminaive = false) and unordered scans
//     (reorder_scans = false);
//   * Session::Run over a Database (shared pre-indexed base, derived
//     overlay only);
//   * Database::Compile — the selectivity-aware planner fed by measured
//     Database::Stats() and, in inlined-facts cases (a random subset of
//     the EDB relations moved into the program as ground fact rules, the
//     way Example 2.1 inlines its automaton), by the compiler's own
//     measurement of those facts.
//
// The paper's expressiveness results assume evaluation is invariant under
// how a rule body is matched; this harness is what lets the planner be
// refactored aggressively (selectivity ranking, scan reordering, new
// index families) without semantic drift.
//
// Iteration count defaults to 200 seeds; the SEQDL_DIFFTEST_ITERS
// environment variable scales it (the CI SEQDL_DIFFTEST job runs 10x).
#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "src/engine/database.h"
#include "src/engine/engine.h"
#include "src/engine/eval.h"
#include "src/engine/instance.h"
#include "src/server/client.h"
#include "src/server/server.h"
#include "src/server/service.h"
#include "src/syntax/ast.h"
#include "src/syntax/printer.h"
#include "src/term/universe.h"
#include "src/view/view.h"

namespace seqdl {
namespace {

// Budgets shared by every mode. Generated programs terminate by
// construction (head arguments are single variables, so derived paths are
// subpaths of input paths — a finite set), but the budgets bound runaway
// joins; a seed whose evaluation exceeds them is skipped, since budget
// cutoffs depend on enumeration order.
constexpr size_t kMaxFacts = 20'000;
constexpr size_t kMaxIterations = 2'000;

struct RandomCase {
  Program program;
  Instance input;
};

// Generates one random case. All randomness flows from the seeded mt19937;
// `% n` keeps the draw sequence identical across standard libraries.
// Roughly half the cases draw from the paper's packing fragment: EDB
// paths may hold packed values `<...>` and body arguments may pack
// subexpressions, so the harness also pins the engine's nested-value
// matching across every execution mode. Independently, roughly half the
// cases add a second stratum whose rules may *negate IDB relations
// defined in the first* — multi-stratum negation, the part of stratified
// semantics a single stratum can never exercise (negation there is
// restricted to EDB relations).
class CaseGenerator {
 public:
  CaseGenerator(Universe& u, uint64_t seed) : u_(u), rng_(seed) {}

  bool packing() const { return packing_; }
  bool multi_stratum() const { return multi_stratum_; }
  /// Some rule negates a stratum-1 IDB relation (subset of
  /// multi_stratum() cases).
  bool negates_idb() const { return negates_idb_; }
  /// Some EDB relations' facts were moved into the program as ground
  /// fact rules.
  bool inlined_facts() const { return inlined_facts_; }

  RandomCase Generate() {
    packing_ = Pick(2) == 0;
    multi_stratum_ = Pick(2) == 0;
    negates_idb_ = false;
    // Symbol pools.
    std::vector<AtomId> atoms;
    for (char c : {'a', 'b', 'c', 'd'}) {
      atoms.push_back(u_.InternAtom(std::string(1, c)));
    }
    std::vector<RelId> edb, idb;
    size_t num_edb = 2 + Pick(2);  // 2-3
    for (size_t i = 0; i < num_edb; ++i) {
      edb.push_back(*u_.InternRel("E" + std::to_string(i),
                                  static_cast<uint32_t>(1 + Pick(2))));
    }
    size_t num_idb = 1 + Pick(2);  // 1-2
    for (size_t i = 0; i < num_idb; ++i) {
      idb.push_back(*u_.InternRel("I" + std::to_string(i),
                                  static_cast<uint32_t>(1 + Pick(2))));
    }
    edb_rels_ = edb;

    RandomCase c;
    // EDB facts: 3-8 tuples per relation, paths of 0-3 random atoms. Skew
    // roughly half the relations by repeating one "hot" atom, so the
    // selectivity-aware planner actually sees uneven buckets.
    for (RelId rel : edb) {
      size_t tuples = 3 + Pick(6);
      bool skewed = Pick(2) == 0;
      for (size_t t = 0; t < tuples; ++t) {
        Tuple tuple;
        for (uint32_t col = 0; col < u_.RelArity(rel); ++col) {
          std::vector<Value> path;
          size_t len = Pick(4);
          for (size_t i = 0; i < len; ++i) {
            size_t a = skewed && Pick(2) == 0 ? 0 : Pick(atoms.size());
            Value v = Value::Atom(atoms[a]);
            // Packing-fragment cases nest some values one level deep:
            // <eps>, <b>, or <b·c> instead of a bare atom.
            if (packing_ && Pick(5) == 0) {
              std::vector<Value> inner;
              size_t inner_len = Pick(3);
              for (size_t k = 0; k < inner_len; ++k) {
                inner.push_back(Value::Atom(atoms[Pick(atoms.size())]));
              }
              v = Value::Packed(u_.InternPath(inner));
            }
            path.push_back(v);
          }
          tuple.push_back(u_.InternPath(path));
        }
        c.input.Add(rel, std::move(tuple));
      }
    }

    // Stratum 1: 2-4 rules (recursion through IDB body literals
    // exercises the semi-naive delta path; negation here is restricted
    // to EDB relations, so the stratum is trivially stratified).
    Stratum stratum;
    size_t num_rules = 2 + Pick(3);
    for (size_t i = 0; i < num_rules; ++i) {
      stratum.rules.push_back(GenerateRule(atoms, edb, idb, idb, edb));
    }
    c.program.strata.push_back(std::move(stratum));

    // Stratum 2 (about half the cases): heads draw from fresh relations
    // (a relation defined in stratum 1 must not gain rules later), the
    // positive body may join EDB, stratum-1 IDB, and stratum-2 IDB, and
    // the negated literal may target stratum-1 IDB relations — the
    // stratified-negation shape proper.
    if (multi_stratum_) {
      std::vector<RelId> idb2;
      size_t num_idb2 = 1 + Pick(2);  // 1-2
      for (size_t i = 0; i < num_idb2; ++i) {
        idb2.push_back(*u_.InternRel("J" + std::to_string(i),
                                     static_cast<uint32_t>(1 + Pick(2))));
      }
      std::vector<RelId> positive = edb;
      positive.insert(positive.end(), idb.begin(), idb.end());
      std::vector<RelId> negatable = edb;
      negatable.insert(negatable.end(), idb.begin(), idb.end());
      Stratum second;
      size_t num_rules2 = 1 + Pick(2);  // 1-2
      for (size_t i = 0; i < num_rules2; ++i) {
        second.rules.push_back(
            GenerateRule(atoms, positive, idb2, idb2, negatable));
      }
      c.program.strata.push_back(std::move(second));
    }

    // Inlined facts (about a third of the cases, drawn last so the other
    // cases keep their programs): move a random non-empty proper subset of
    // the EDB relations into the program as ground fact rules. They join the
    // first stratum, as Example 2.1's automaton does, unless a rule there
    // negates them; then they get a stratum of their own below it.
    inlined_facts_ = Pick(3) == 0;
    if (inlined_facts_) {
      Stratum facts;
      std::vector<RelId> kept;
      // The largest relation always stays, so the ingest and retraction
      // differentials still have facts to split, and one other always
      // moves.
      size_t stays = 0;
      for (size_t i = 1; i < edb.size(); ++i) {
        if (c.input.Tuples(edb[i]).size() > c.input.Tuples(edb[stays]).size()) {
          stays = i;
        }
      }
      const size_t moved = (stays + 1 + Pick(edb.size() - 1)) % edb.size();
      for (size_t i = 0; i < edb.size(); ++i) {
        RelId rel = edb[i];
        if (i == stays || (i != moved && Pick(2) == 0)) {
          kept.push_back(rel);
          continue;
        }
        bool negated_in_first = false;
        for (const Rule& r : c.program.strata[0].rules) {
          for (const Literal& l : r.body) {
            negated_in_first |=
                l.is_predicate() && l.negated && l.pred.rel == rel;
          }
        }
        std::vector<Rule>& into =
            negated_in_first ? facts.rules : c.program.strata[0].rules;
        for (const Tuple& t : c.input.Tuples(rel)) {
          Rule fact;
          fact.head.rel = rel;
          for (PathId p : t) fact.head.args.push_back(ExprOfPath(u_, p));
          into.push_back(std::move(fact));
        }
      }
      c.input = c.input.Project(kept);
      if (!facts.rules.empty()) {
        c.program.strata.insert(c.program.strata.begin(), std::move(facts));
      }
    }
    return c;
  }

 private:
  size_t Pick(size_t n) { return rng_() % n; }

  bool IsEdb(RelId rel) const {
    for (RelId e : edb_rels_) {
      if (e == rel) return true;
    }
    return false;
  }

  // Not `"p" + std::to_string(i)`: GCC 12 flags that with a false
  // -Wrestrict positive once inlined into the generators below.
  VarId PathVar(size_t i) {
    return u_.InternVar(VarKind::kPath,
                        std::string("p").append(std::to_string(i)));
  }
  VarId AtomVar(size_t i) {
    return u_.InternVar(VarKind::kAtomic,
                        std::string("a").append(std::to_string(i)));
  }

  ExprItem RandomItem(const std::vector<AtomId>& atoms) {
    // Packing-fragment cases spend one slot in six on a packed
    // subexpression `<...>`; its inner items may introduce fresh
    // variables, bound by matching against the packed value's contents.
    if (packing_ && Pick(6) == 0) {
      std::vector<ExprItem> inner;
      size_t n = 1 + Pick(2);
      for (size_t i = 0; i < n; ++i) inner.push_back(FlatItem(atoms));
      return ExprItem::Pack(PathExpr(std::move(inner)));
    }
    return FlatItem(atoms);
  }

  ExprItem FlatItem(const std::vector<AtomId>& atoms) {
    switch (Pick(5)) {
      case 0:
      case 1:
        return ExprItem::Const(Value::Atom(atoms[Pick(atoms.size())]));
      case 2:
      case 3:
        return ExprItem::PathVar(PathVar(Pick(4)));
      default:
        return ExprItem::AtomVar(AtomVar(Pick(3)));
    }
  }

  PathExpr RandomExpr(const std::vector<AtomId>& atoms, size_t max_items) {
    std::vector<ExprItem> items;
    size_t n = 1 + Pick(max_items);
    for (size_t i = 0; i < n; ++i) items.push_back(RandomItem(atoms));
    return PathExpr(std::move(items));
  }

  /// One safe rule: positive body literals draw from `base_pool` (70%)
  /// or `rec_pool` (30%, same-stratum recursion), the head from
  /// `head_pool`, the optional negated literal from `neg_pool`. The
  /// single-stratum caller passes (edb, idb, idb, edb); the stratum-2
  /// caller widens base and negation pools to include stratum-1 IDB.
  Rule GenerateRule(const std::vector<AtomId>& atoms,
                    const std::vector<RelId>& base_pool,
                    const std::vector<RelId>& rec_pool,
                    const std::vector<RelId>& head_pool,
                    const std::vector<RelId>& neg_pool) {
    Rule r;
    // Positive body: 1-3 predicate literals, mostly from the base pool
    // (recursion-pool literals make the rule recursive).
    size_t body_preds = 1 + Pick(3);
    for (size_t i = 0; i < body_preds; ++i) {
      bool use_rec = !rec_pool.empty() && Pick(10) < 3;
      RelId rel = use_rec ? rec_pool[Pick(rec_pool.size())]
                          : base_pool[Pick(base_pool.size())];
      Predicate pred;
      pred.rel = rel;
      for (uint32_t col = 0; col < u_.RelArity(rel); ++col) {
        pred.args.push_back(RandomExpr(atoms, 3));
      }
      r.body.push_back(Literal::Pred(std::move(pred)));
    }

    // Variables bound by the positive predicates; everything below only
    // uses these, which keeps every generated rule safe.
    std::vector<VarId> bound;
    for (const Literal& l : r.body) CollectVars(l, &bound);

    // Optional equation whose left side is a single bound variable (so
    // equation scheduling always succeeds); the right side may introduce
    // fresh variables, bound by matching.
    if (!bound.empty() && Pick(4) == 0) {
      VarId lhs = bound[Pick(bound.size())];
      r.body.push_back(
          Literal::Eq(VarExpr(u_, lhs), RandomExpr(atoms, 2)));
      CollectVars(r.body.back(), &bound);
    }

    // Optional negated literal (over bound variables / constants only)
    // from the stratification-safe pool: EDB in stratum 1, EDB plus
    // stratum-1 IDB in stratum 2.
    if (!bound.empty() && Pick(4) == 0) {
      RelId rel = neg_pool[Pick(neg_pool.size())];
      if (!IsEdb(rel)) negates_idb_ = true;
      Predicate pred;
      pred.rel = rel;
      for (uint32_t col = 0; col < u_.RelArity(rel); ++col) {
        if (Pick(2) == 0) {
          pred.args.push_back(VarExpr(u_, bound[Pick(bound.size())]));
        } else {
          pred.args.push_back(
              ConstExpr(Value::Atom(atoms[Pick(atoms.size())])));
        }
      }
      r.body.push_back(Literal::Pred(std::move(pred), /*negated=*/true));
    }

    // Head: a random relation from the head pool; every argument is a
    // single bound variable (or a constant), which both guarantees
    // safety and bounds derived paths to subpaths of the input — the
    // termination argument.
    RelId head_rel = head_pool[Pick(head_pool.size())];
    r.head.rel = head_rel;
    for (uint32_t col = 0; col < u_.RelArity(head_rel); ++col) {
      if (!bound.empty() && Pick(4) != 0) {
        r.head.args.push_back(VarExpr(u_, bound[Pick(bound.size())]));
      } else {
        r.head.args.push_back(
            ConstExpr(Value::Atom(atoms[Pick(atoms.size())])));
      }
    }
    return r;
  }

  Universe& u_;
  std::mt19937 rng_;
  /// This case draws from the packing fragment (set per Generate()).
  bool packing_ = false;
  /// This case has a second stratum (set per Generate()).
  bool multi_stratum_ = false;
  /// Some stratum-2 rule negates a stratum-1 IDB relation.
  bool negates_idb_ = false;
  /// EDB facts moved into the program (set per Generate()).
  bool inlined_facts_ = false;
  std::vector<RelId> edb_rels_;
};

size_t Iterations() {
  if (const char* env = std::getenv("SEQDL_DIFFTEST_ITERS")) {
    size_t n = std::strtoull(env, nullptr, 10);
    if (n > 0) return n;
  }
  return 200;
}

TEST(DifferentialTest, AllExecutionModesAgreeOnRandomPrograms) {
  size_t iterations = Iterations();
  size_t compared = 0, skipped = 0, packed_cases = 0;
  size_t multi_stratum_cases = 0, idb_negation_cases = 0;
  size_t inlined_cases = 0;
  for (uint64_t seed = 1; seed <= iterations; ++seed) {
    Universe u;
    CaseGenerator gen(u, seed);
    RandomCase c = gen.Generate();
    if (gen.packing()) ++packed_cases;
    if (gen.inlined_facts()) ++inlined_cases;
    if (gen.multi_stratum()) ++multi_stratum_cases;
    if (gen.negates_idb()) ++idb_negation_cases;
    SCOPED_TRACE("seed " + std::to_string(seed) + "\n" +
                 FormatProgram(u, c.program) + c.input.ToString(u));

    // Reference: one-shot Eval with default options.
    RunOptions base;
    base.max_facts = kMaxFacts;
    base.max_iterations = kMaxIterations;
    Result<Instance> ref = Eval(u, c.program, c.input, base);
    if (!ref.ok()) {
      // Budget exhaustion is order-dependent, so the seed cannot be
      // compared across modes; generated rules are safe by construction,
      // anything else is a real failure.
      ASSERT_EQ(ref.status().code(), StatusCode::kResourceExhausted)
          << ref.status().ToString();
      ++skipped;
      continue;
    }
    std::string expected = ref->ToString(u);

    auto check = [&](const char* mode, const Result<Instance>& got) {
      ASSERT_TRUE(got.ok()) << mode << ": " << got.status().ToString();
      EXPECT_EQ(expected, got->ToString(u)) << mode;
    };

    // Naive iteration (one-shot Eval) and body-order scans (compiled
    // without reordering).
    RunOptions naive = base;
    naive.seminaive = false;
    check("naive", Eval(u, c.program, c.input, naive));
    CompileOptions unordered;
    unordered.reorder_scans = false;
    Result<PreparedProgram> body_order =
        Engine::CompileBorrowed(u, c.program, unordered);
    ASSERT_TRUE(body_order.ok()) << body_order.status().ToString();
    check("no-reorder", body_order->Run(c.input, base));

    // Prepared program, with indexes and with forced full scans.
    Result<PreparedProgram> prog = Engine::CompileBorrowed(u, c.program);
    ASSERT_TRUE(prog.ok()) << prog.status().ToString();
    RunOptions ropts;
    ropts.max_facts = kMaxFacts;
    ropts.max_iterations = kMaxIterations;
    check("prepared", prog->Run(c.input, ropts));
    RunOptions no_index = ropts;
    no_index.use_index = false;
    check("full-scan", prog->Run(c.input, no_index));

    // Database/Session: shared pre-indexed base; Run returns the derived
    // overlay only, so union the EDB back for comparison.
    Result<Database> db = Database::Open(u, c.input);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    Session session = db->Snapshot();
    auto check_derived = [&](const char* mode, Result<Instance> derived) {
      ASSERT_TRUE(derived.ok()) << mode << ": "
                                << derived.status().ToString();
      Instance full = db->edb();
      full.UnionWith(std::move(*derived));
      EXPECT_EQ(expected, full.ToString(u)) << mode;
    };
    check_derived("session", session.Run(*prog, ropts));

    // The selectivity-aware planner, fed by measured statistics.
    Result<PreparedProgram> planned = db->Compile(c.program);
    ASSERT_TRUE(planned.ok()) << planned.status().ToString();
    check_derived("selectivity-plan", session.Run(*planned, ropts));

    ++compared;
  }
  // Guard against generator drift making the harness vacuous.
  EXPECT_GE(compared * 5, iterations * 4)
      << compared << " of " << iterations << " seeds compared (" << skipped
      << " skipped)";
  // And against the packing fragment silently dropping out of coverage.
  EXPECT_GE(packed_cases * 4, iterations)
      << packed_cases << " of " << iterations << " seeds drew packed values";
  // Multi-stratum negation must stay covered too: about half the seeds
  // carry a second stratum, and a meaningful fraction of those actually
  // negate a stratum-1 IDB relation.
  EXPECT_GE(multi_stratum_cases * 4, iterations)
      << multi_stratum_cases << " of " << iterations
      << " seeds drew a second stratum";
  EXPECT_GE(idb_negation_cases * 40, iterations)
      << idb_negation_cases << " of " << iterations
      << " seeds negated a stratum-1 IDB relation";
  // And the inlined-facts mode, whose plans seed statistics from the
  // program's own facts.
  EXPECT_GE(inlined_cases * 5, iterations)
      << inlined_cases << " of " << iterations << " seeds inlined facts";
}

// Program-scoped statistics: Database::Compile plans from
// Database::Stats(&rels) over the program's own relations, which must
// rank every access path exactly as the full snapshot does — the planner
// reads no other relation. The database also holds an unrelated relation
// and the derived statistics of an earlier run, so the two snapshots
// really differ.
TEST(DifferentialTest, ScopedStatsPlanLikeFullStats) {
  size_t iterations = Iterations();
  for (uint64_t seed = 1; seed <= iterations; ++seed) {
    Universe u;
    CaseGenerator gen(u, seed);
    RandomCase c = gen.Generate();
    SCOPED_TRACE("seed " + std::to_string(seed) + "\n" +
                 FormatProgram(u, c.program));
    Instance input = c.input;
    RelId other = *u.InternRel("Unrelated", 1);
    for (const char* atom : {"a", "b", "c"}) {
      input.Add(other, {u.SingletonPath(Value::Atom(u.InternAtom(atom)))});
    }
    Result<Database> db = Database::Open(u, std::move(input));
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    Result<PreparedProgram> first = db->Compile(c.program);
    ASSERT_TRUE(first.ok()) << first.status().ToString();
    RunOptions ropts;
    ropts.max_facts = kMaxFacts;
    ropts.max_iterations = kMaxIterations;
    ropts.collect_derived_stats = true;
    (void)db->Snapshot().Run(*first, ropts);  // budget cutoffs are fine

    const std::set<RelId> rels = AllRels(c.program);
    StoreStats full = db->Stats();
    StoreStats scoped = db->Stats(&rels);
    ASSERT_TRUE(full.Knows(other));
    for (const auto& [rel, rs] : scoped.relations) {
      EXPECT_EQ(rels.count(rel), 1u) << u.RelName(rel);
      EXPECT_EQ(rs.tuples, full.relations.at(rel).tuples) << u.RelName(rel);
    }
    CompileOptions with_full;
    with_full.stats = &full;
    Result<PreparedProgram> planned_full =
        Engine::CompileBorrowed(u, c.program, with_full);
    ASSERT_TRUE(planned_full.ok()) << planned_full.status().ToString();
    Result<PreparedProgram> planned_scoped = db->Compile(c.program);
    ASSERT_TRUE(planned_scoped.ok()) << planned_scoped.status().ToString();
    EXPECT_EQ(planned_full->ExplainPlan(), planned_scoped->ExplainPlan());
  }
}

// The ingest differential: facts arriving through Append must be
// indistinguishable from facts present at Open. For every random case the
// EDB is split into three batches ingested at epochs 0/1/2; at each epoch
// a pinned snapshot's results (and its materialized EDB) must be
// byte-identical to a fresh Database::Open on exactly that epoch's facts
// — and the pinned snapshots must keep producing those bytes after later
// appends and after Compact() rewrites the segment stack underneath them.
TEST(DifferentialTest, IncrementalIngestMatchesColdOpenPerEpoch) {
  size_t iterations = Iterations();
  size_t compared = 0, skipped = 0;
  for (uint64_t seed = 1; seed <= iterations; ++seed) {
    Universe u;
    RandomCase c = CaseGenerator(u, seed).Generate();
    SCOPED_TRACE("seed " + std::to_string(seed) + "\n" +
                 FormatProgram(u, c.program) + c.input.ToString(u));

    Result<PreparedProgram> prog = Engine::CompileBorrowed(u, c.program);
    ASSERT_TRUE(prog.ok()) << prog.status().ToString();
    RunOptions ropts;
    ropts.max_facts = kMaxFacts;
    ropts.max_iterations = kMaxIterations;

    // Split the EDB round-robin into three ingest batches.
    std::vector<Instance> batches(3);
    {
      size_t i = 0;
      for (RelId rel : c.input.Relations()) {
        for (const Tuple& t : c.input.Tuples(rel)) {
          batches[i++ % batches.size()].Add(rel, t);
        }
      }
    }

    Result<Database> db = Database::Open(u, batches[0]);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    ASSERT_TRUE(db->Append(batches[1]).ok());
    ASSERT_TRUE(db->Append(batches[2]).ok());
    ASSERT_EQ(db->epoch(), 2u);

    // Per epoch: the cold-open expectation on that epoch's facts, and
    // the matching pinned snapshot (reopened per epoch via a throwaway
    // prefix database so the snapshot predates the later appends).
    Instance accumulated;
    std::vector<std::string> expected_derived, expected_edb;
    bool budget_hit = false;
    for (size_t e = 0; e < batches.size(); ++e) {
      accumulated.UnionWith(batches[e]);
      Result<Database> cold = Database::Open(u, accumulated);
      ASSERT_TRUE(cold.ok()) << cold.status().ToString();
      Result<Instance> derived = cold->Snapshot().Run(*prog, ropts);
      if (!derived.ok()) {
        ASSERT_EQ(derived.status().code(), StatusCode::kResourceExhausted)
            << derived.status().ToString();
        budget_hit = true;
        break;
      }
      expected_derived.push_back(derived->ToString(u));
      expected_edb.push_back(cold->edb().ToString(u));
    }
    if (budget_hit) {
      ++skipped;
      continue;
    }

    // Replay the ingest with live pinned snapshots this time.
    Result<Database> live = Database::Open(u, batches[0]);
    ASSERT_TRUE(live.ok()) << live.status().ToString();
    std::vector<Session> pinned;
    pinned.push_back(live->Snapshot());
    ASSERT_TRUE(live->Append(batches[1]).ok());
    pinned.push_back(live->Snapshot());
    ASSERT_TRUE(live->Append(batches[2]).ok());
    pinned.push_back(live->Snapshot());

    auto check_all = [&](const char* phase) {
      for (size_t e = 0; e < pinned.size(); ++e) {
        EXPECT_EQ(pinned[e].epoch(), e) << phase;
        Result<Instance> got = pinned[e].Run(*prog, ropts);
        ASSERT_TRUE(got.ok())
            << phase << " epoch " << e << ": " << got.status().ToString();
        EXPECT_EQ(expected_derived[e], got->ToString(u))
            << phase << " epoch " << e;
        EXPECT_EQ(expected_edb[e], pinned[e].edb().ToString(u))
            << phase << " epoch " << e;
      }
    };
    check_all("pre-compaction");
    // Compaction rewrites the live stack to one segment; every pinned
    // snapshot must be unaffected, bit for bit.
    live->Compact();
    EXPECT_EQ(live->NumSegments(), 1u);
    EXPECT_EQ(live->epoch(), 2u);
    check_all("post-compaction");
    ++compared;
  }
  EXPECT_GE(compared * 5, iterations * 4)
      << compared << " of " << iterations << " seeds compared (" << skipped
      << " skipped)";
}

// The incremental-maintenance differential: a materialized view kept
// current across a random append schedule by semi-naive delta evaluation
// (ViewManager::Refresh → PreparedProgram::RunDelta) must be
// byte-identical to a cold fixpoint over exactly the same facts at every
// epoch. The schedule stresses the hard cases on purpose: appends landing
// in relations some rule negates (forcing stratum recomputation and
// retraction cascades), appends that promote previously *derived* facts
// to EDB (the view must drop them, like a cold run does), and a
// mid-sequence Compact() that folds the segment stack underneath the
// stored snapshot's publish stamps.
TEST(DifferentialTest, MaintainedViewMatchesColdFixpointPerEpoch) {
  size_t iterations = Iterations();
  size_t compared = 0, skipped = 0;
  uint64_t delta_refreshes = 0, strata_recomputed = 0;
  for (uint64_t seed = 1; seed <= iterations; ++seed) {
    Universe u;
    RandomCase c = CaseGenerator(u, seed).Generate();
    SCOPED_TRACE("seed " + std::to_string(seed) + "\n" +
                 FormatProgram(u, c.program) + c.input.ToString(u));

    Result<PreparedProgram> prog = Engine::CompileBorrowed(u, c.program);
    ASSERT_TRUE(prog.ok()) << prog.status().ToString();
    RunOptions ropts;
    ropts.max_facts = kMaxFacts;
    ropts.max_iterations = kMaxIterations;

    // Split the EDB round-robin into three ingest batches.
    std::vector<Instance> batches(3);
    {
      size_t i = 0;
      for (RelId rel : c.input.Relations()) {
        for (const Tuple& t : c.input.Tuples(rel)) {
          batches[i++ % batches.size()].Add(rel, t);
        }
      }
    }

    Result<Database> live = Database::Open(u, batches[0]);
    ASSERT_TRUE(live.ok()) << live.status().ToString();
    Instance accumulated = batches[0];
    bool budget_hit = false;

    // One epoch's comparison: the maintained view against a cold fixpoint
    // on the accumulated facts. Budget exhaustion on either side skips
    // the seed (cutoffs are enumeration-order-dependent, and the delta
    // path enumerates in a different order than the cold one).
    auto check = [&](const char* phase) {
      Result<Database> cold = Database::Open(u, accumulated);
      ASSERT_TRUE(cold.ok()) << cold.status().ToString();
      Result<Instance> want = cold->Snapshot().Run(*prog, ropts);
      if (!want.ok()) {
        ASSERT_EQ(want.status().code(), StatusCode::kResourceExhausted)
            << want.status().ToString();
        budget_hit = true;
        return;
      }
      auto view = live->views().Refresh("view", *prog, ropts);
      if (!view.ok()) {
        ASSERT_EQ(view.status().code(), StatusCode::kResourceExhausted)
            << phase << ": " << view.status().ToString();
        budget_hit = true;
        return;
      }
      EXPECT_EQ((*view)->epoch(), live->epoch()) << phase;
      EXPECT_EQ(want->ToString(u), (*view)->idb().ToString(u)) << phase;
    };

    check("epoch 0 (cold)");
    if (budget_hit) {
      ++skipped;
      continue;
    }

    // Promotion batch: a couple of facts the view just *derived*, to be
    // appended as EDB later — the refreshed view must stop reporting
    // them as derived, exactly like a cold run at that epoch.
    Instance promote;
    {
      std::shared_ptr<const ViewSnapshot> v = live->views().Lookup("view");
      ASSERT_NE(v, nullptr);
      size_t taken = 0;
      for (RelId rel : v->idb().Relations()) {
        for (const Tuple& t : v->idb().Tuples(rel)) {
          if (taken < 2) {
            promote.Add(rel, t);
            ++taken;
          }
        }
      }
    }

    auto append_and_check = [&](const Instance& batch, const char* phase) {
      ASSERT_TRUE(live->Append(batch).ok()) << phase;
      accumulated.UnionWith(batch);
      check(phase);
    };
    append_and_check(batches[1], "epoch 1 (delta)");
    if (!budget_hit) append_and_check(promote, "epoch 2 (IDB promotion)");
    if (!budget_hit) {
      // Folding the stack keeps epoch and facts; the refreshed view must
      // not move (and a fresh refresh right after is a pure hit).
      live->Compact();
      check("post-compaction");
    }
    if (!budget_hit) append_and_check(batches[2], "epoch 3 (post-compact delta)");
    if (budget_hit) {
      ++skipped;
      continue;
    }

    ViewManager::Counters counters = live->views().counters();
    delta_refreshes += counters.delta_refreshes;
    strata_recomputed += counters.strata_recomputed;
    ++compared;
  }
  EXPECT_GE(compared * 5, iterations * 4)
      << compared << " of " << iterations << " seeds compared (" << skipped
      << " skipped)";
  // The suite must actually exercise both maintenance paths: incremental
  // delta refreshes, and wholesale stratum recomputation (negation over
  // changed inputs / shrunk positive inputs).
  EXPECT_GT(delta_refreshes, 0u);
  EXPECT_GT(strata_recomputed, 0u);
}

/// Draws a random ~third of `from`'s facts with a schedule RNG that is
/// deliberately separate from the case generator's — victim choice must
/// not perturb which program/EDB a seed denotes.
Instance SelectVictims(std::mt19937& sched, const Instance& from) {
  Instance victims;
  for (RelId rel : from.Relations()) {
    for (const Tuple& t : from.Tuples(rel)) {
      if (sched() % 3 == 0) victims.Add(rel, t);
    }
  }
  return victims;
}

// The retraction differential: a materialized view maintained across a
// random schedule of retractions interleaved with appends — tombstone
// epochs driving counting DRed (delete/re-derive) or wholesale stratum
// recomputation — must stay byte-identical to a cold fixpoint over
// exactly the visible facts at every epoch. The schedule also re-appends
// some retracted facts (the visibility flip in both directions) and
// compacts mid-sequence, after which the stack must hold no tombstones
// at all.
TEST(DifferentialTest, RetractionMaintainedViewMatchesColdFixpointPerEpoch) {
  size_t iterations = Iterations();
  size_t compared = 0, skipped = 0;
  uint64_t dred_refreshes = 0, strata_recomputed = 0;
  for (uint64_t seed = 1; seed <= iterations; ++seed) {
    Universe u;
    RandomCase c = CaseGenerator(u, seed).Generate();
    SCOPED_TRACE("seed " + std::to_string(seed) + "\n" +
                 FormatProgram(u, c.program) + c.input.ToString(u));
    std::mt19937 sched(seed * 7919 + 13);

    Result<PreparedProgram> prog = Engine::CompileBorrowed(u, c.program);
    ASSERT_TRUE(prog.ok()) << prog.status().ToString();
    RunOptions ropts;
    ropts.max_facts = kMaxFacts;
    ropts.max_iterations = kMaxIterations;

    Result<Database> live = Database::Open(u, c.input);
    ASSERT_TRUE(live.ok()) << live.status().ToString();
    bool budget_hit = false;

    // One epoch's comparison: the maintained view against a cold fixpoint
    // on the currently *visible* facts (live->edb() materializes the
    // stack with tombstone shadowing applied).
    auto check = [&](const char* phase) {
      Result<Database> cold = Database::Open(u, live->edb());
      ASSERT_TRUE(cold.ok()) << cold.status().ToString();
      Result<Instance> want = cold->Snapshot().Run(*prog, ropts);
      if (!want.ok()) {
        ASSERT_EQ(want.status().code(), StatusCode::kResourceExhausted)
            << want.status().ToString();
        budget_hit = true;
        return;
      }
      auto view = live->views().Refresh("view", *prog, ropts);
      if (!view.ok()) {
        ASSERT_EQ(view.status().code(), StatusCode::kResourceExhausted)
            << phase << ": " << view.status().ToString();
        budget_hit = true;
        return;
      }
      EXPECT_EQ((*view)->epoch(), live->epoch()) << phase;
      EXPECT_EQ(want->ToString(u), (*view)->idb().ToString(u)) << phase;
    };

    check("epoch 0 (cold)");
    if (budget_hit) {
      ++skipped;
      continue;
    }

    // Retract a random third of the visible EDB, re-append a random
    // third of the victims (flip back), retract again, compact (folding
    // every tombstone away), then retract once more on the folded stack.
    Instance victims = SelectVictims(sched, live->edb());
    size_t retracted = 0;
    ASSERT_TRUE(live->Retract(victims, &retracted).ok());
    EXPECT_EQ(retracted, victims.NumFacts());
    check("shrink epoch (DRed)");
    if (!budget_hit) {
      ASSERT_TRUE(live->Append(SelectVictims(sched, victims)).ok());
      check("re-append epoch (flip back)");
    }
    if (!budget_hit) {
      ASSERT_TRUE(live->Retract(SelectVictims(sched, live->edb())).ok());
      check("second shrink epoch");
    }
    if (!budget_hit) {
      live->Compact();
      EXPECT_EQ(live->NumTombstones(), 0u) << "tombstones survived Compact";
      check("post-compaction");
    }
    if (!budget_hit) {
      ASSERT_TRUE(live->Retract(SelectVictims(sched, live->edb())).ok());
      check("shrink epoch on folded stack");
    }
    if (budget_hit) {
      ++skipped;
      continue;
    }

    ViewManager::Counters counters = live->views().counters();
    dred_refreshes += counters.dred_refreshes;
    strata_recomputed += counters.strata_recomputed;
    ++compared;
  }
  EXPECT_GE(compared * 5, iterations * 4)
      << compared << " of " << iterations << " seeds compared (" << skipped
      << " skipped)";
  // The suite must actually exercise both shrink paths: DRed
  // delete/re-derive on maintained strata, and wholesale recomputation
  // of strata reading a changed negated input.
  EXPECT_GT(dred_refreshes, 0u);
  EXPECT_GT(strata_recomputed, 0u);
}

// The server differential: running a random program through a loopback
// TCP server (text in, rendered text out — a *separate Universe*, so
// every symbol is re-interned from the shipped source) must produce
// byte-identical output to in-process Session::Run on the generating
// Universe. Exercised across an append epoch (the server ingests batch 2
// over the wire) and across a compaction, per the epoch/MVCC contract.
TEST(DifferentialTest, LoopbackServerMatchesInProcess) {
  size_t iterations = Iterations();
  size_t compared = 0, skipped = 0;
  for (uint64_t seed = 1; seed <= iterations; ++seed) {
    Universe u;
    RandomCase c = CaseGenerator(u, seed).Generate();
    std::string program_text = FormatProgram(u, c.program);
    SCOPED_TRACE("seed " + std::to_string(seed) + "\n" + program_text +
                 c.input.ToString(u));

    // Split the EDB into the open batch and one appended batch.
    std::vector<Instance> batches(2);
    {
      size_t i = 0;
      for (RelId rel : c.input.Relations()) {
        for (const Tuple& t : c.input.Tuples(rel)) {
          batches[i++ % batches.size()].Add(rel, t);
        }
      }
    }

    RunOptions ropts;
    ropts.max_facts = kMaxFacts;
    ropts.max_iterations = kMaxIterations;

    // In-process expectations: derived-overlay renderings per epoch.
    Result<PreparedProgram> prog = Engine::CompileBorrowed(u, c.program);
    ASSERT_TRUE(prog.ok()) << prog.status().ToString();
    Result<Database> db = Database::Open(u, batches[0]);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    Result<Instance> derived0 = db->Snapshot().Run(*prog, ropts);
    ASSERT_TRUE(db->Append(batches[1]).ok());
    Result<Instance> derived1 = db->Snapshot().Run(*prog, ropts);
    if (!derived0.ok() || !derived1.ok()) {
      const Status& st =
          derived0.ok() ? derived1.status() : derived0.status();
      ASSERT_EQ(st.code(), StatusCode::kResourceExhausted) << st.ToString();
      ++skipped;
      continue;
    }
    std::string expected0 = derived0->ToString(u);
    std::string expected1 = derived1->ToString(u);

    // Server side: a fresh Universe fed only by wire text.
    Universe server_u;
    Result<Instance> server_edb =
        ParseInstance(server_u, batches[0].ToString(u));
    ASSERT_TRUE(server_edb.ok()) << server_edb.status().ToString();
    Result<Database> server_db =
        Database::Open(server_u, std::move(*server_edb));
    ASSERT_TRUE(server_db.ok()) << server_db.status().ToString();
    ServiceOptions sopts;
    sopts.run_options = ropts;
    // Cache off: every wire run must re-evaluate, so the post-compaction
    // request exercises the merged single-segment stack instead of a
    // (trivially correct) cache hit.
    sopts.result_cache_entries = 0;
    DatabaseService service(server_u, std::move(*server_db), sopts);
    ServerOptions server_opts;
    server_opts.threads = 2;
    Result<std::unique_ptr<Server>> server =
        Server::Start(service, server_opts);
    ASSERT_TRUE(server.ok()) << server.status().ToString();
    Result<Client> client = Client::Connect("127.0.0.1", (*server)->port());
    ASSERT_TRUE(client.ok()) << client.status().ToString();

    Result<protocol::RunReply> at0 = client->Run(program_text);
    ASSERT_TRUE(at0.ok()) << at0.status().ToString();
    EXPECT_EQ(at0->epoch, 0u);
    EXPECT_EQ(expected0, at0->rendered) << "server @ epoch 0";

    Result<protocol::AppendReply> appended =
        client->Append(batches[1].ToString(u));
    ASSERT_TRUE(appended.ok()) << appended.status().ToString();
    Result<protocol::RunReply> at1 = client->Run(program_text);
    ASSERT_TRUE(at1.ok()) << at1.status().ToString();
    EXPECT_EQ(at1->epoch, appended->db.epoch);
    EXPECT_EQ(expected1, at1->rendered) << "server @ epoch 1";

    // Compaction folds the server's stack; results must not move.
    Result<protocol::CompactReply> compacted = client->Compact();
    ASSERT_TRUE(compacted.ok()) << compacted.status().ToString();
    Result<protocol::RunReply> after = client->Run(program_text);
    ASSERT_TRUE(after.ok()) << after.status().ToString();
    EXPECT_EQ(expected1, after->rendered) << "server post-compaction";

    client->Close();
    (*server)->Shutdown();
    ++compared;
  }
  EXPECT_GE(compared * 5, iterations * 4)
      << compared << " of " << iterations << " seeds compared (" << skipped
      << " skipped)";
}

// The retraction loopback differential: the `retract` wire verb must be
// indistinguishable from Database::Retract in process. Victims are drawn
// on the generating Universe and shipped as instance text (the server
// re-interns every symbol); renders are compared at the shrink epoch and
// again after a server-side Compact folds the tombstones away.
TEST(DifferentialTest, RetractionLoopbackServerMatchesInProcess) {
  size_t iterations = Iterations();
  size_t compared = 0, skipped = 0;
  uint64_t total_retracted = 0;
  for (uint64_t seed = 1; seed <= iterations; ++seed) {
    Universe u;
    RandomCase c = CaseGenerator(u, seed).Generate();
    std::string program_text = FormatProgram(u, c.program);
    SCOPED_TRACE("seed " + std::to_string(seed) + "\n" + program_text +
                 c.input.ToString(u));
    std::mt19937 sched(seed * 7919 + 13);
    Instance victims = SelectVictims(sched, c.input);

    RunOptions ropts;
    ropts.max_facts = kMaxFacts;
    ropts.max_iterations = kMaxIterations;

    // In-process expectations: derived-overlay renderings before and
    // after the retraction.
    Result<PreparedProgram> prog = Engine::CompileBorrowed(u, c.program);
    ASSERT_TRUE(prog.ok()) << prog.status().ToString();
    Result<Database> db = Database::Open(u, c.input);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    Result<Instance> derived0 = db->Snapshot().Run(*prog, ropts);
    size_t retracted = 0;
    ASSERT_TRUE(db->Retract(victims, &retracted).ok());
    EXPECT_EQ(retracted, victims.NumFacts());
    Result<Instance> derived1 = db->Snapshot().Run(*prog, ropts);
    if (!derived0.ok() || !derived1.ok()) {
      const Status& st =
          derived0.ok() ? derived1.status() : derived0.status();
      ASSERT_EQ(st.code(), StatusCode::kResourceExhausted) << st.ToString();
      ++skipped;
      continue;
    }
    std::string expected0 = derived0->ToString(u);
    std::string expected1 = derived1->ToString(u);

    // Server side: a fresh Universe fed only by wire text. Cache off so
    // the post-retraction and post-compaction runs re-evaluate against
    // the tombstoned / folded stack instead of hitting a cached render.
    Universe server_u;
    Result<Instance> server_edb = ParseInstance(server_u, c.input.ToString(u));
    ASSERT_TRUE(server_edb.ok()) << server_edb.status().ToString();
    Result<Database> server_db =
        Database::Open(server_u, std::move(*server_edb));
    ASSERT_TRUE(server_db.ok()) << server_db.status().ToString();
    ServiceOptions sopts;
    sopts.run_options = ropts;
    sopts.result_cache_entries = 0;
    DatabaseService service(server_u, std::move(*server_db), sopts);
    ServerOptions server_opts;
    server_opts.threads = 2;
    Result<std::unique_ptr<Server>> server =
        Server::Start(service, server_opts);
    ASSERT_TRUE(server.ok()) << server.status().ToString();
    Result<Client> client = Client::Connect("127.0.0.1", (*server)->port());
    ASSERT_TRUE(client.ok()) << client.status().ToString();

    Result<protocol::RunReply> at0 = client->Run(program_text);
    ASSERT_TRUE(at0.ok()) << at0.status().ToString();
    EXPECT_EQ(expected0, at0->rendered) << "server @ epoch 0";

    Result<protocol::RetractReply> rr = client->Retract(victims.ToString(u));
    ASSERT_TRUE(rr.ok()) << rr.status().ToString();
    EXPECT_EQ(rr->retracted, retracted) << "wire retraction count";
    total_retracted += rr->retracted;
    Result<protocol::RunReply> at1 = client->Run(program_text);
    ASSERT_TRUE(at1.ok()) << at1.status().ToString();
    EXPECT_EQ(at1->epoch, rr->db.epoch);
    EXPECT_EQ(expected1, at1->rendered) << "server @ shrink epoch";

    // Compaction folds the tombstones out of the server's stack; results
    // must not move.
    Result<protocol::CompactReply> compacted = client->Compact();
    ASSERT_TRUE(compacted.ok()) << compacted.status().ToString();
    Result<protocol::RunReply> after = client->Run(program_text);
    ASSERT_TRUE(after.ok()) << after.status().ToString();
    EXPECT_EQ(expected1, after->rendered) << "server post-compaction";

    client->Close();
    (*server)->Shutdown();
    ++compared;
  }
  EXPECT_GE(compared * 5, iterations * 4)
      << compared << " of " << iterations << " seeds compared (" << skipped
      << " skipped)";
  EXPECT_GT(total_retracted, 0u);
}

}  // namespace
}  // namespace seqdl
