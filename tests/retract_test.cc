// Tests for retraction (database.h Retract / Writer::Retract): tombstone
// segments shadowing older facts, snapshot isolation across a shrink
// epoch, the append/retract flip invariant, compaction folding
// tombstones away, shrink-aware statistics (a retraction must register
// as StatsDrift), and the DRed delete/re-derive path on maintained
// views — count-gated deletion for acyclically-supported tuples,
// classic over-delete-then-rescue for cyclically-supported ones. The
// cross-cutting guarantee — a maintained view is byte-identical to a
// cold fixpoint at every epoch over random retract/append schedules —
// lives in tests/differential_test.cc.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "src/engine/database.h"
#include "src/engine/engine.h"
#include "src/engine/instance.h"
#include "src/engine/stats.h"
#include "src/syntax/parser.h"
#include "src/term/universe.h"
#include "src/view/view.h"

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

PreparedProgram MustCompile(Universe& u, const std::string& text) {
  Result<PreparedProgram> prog = Engine::Compile(u, MustParse(u, text));
  EXPECT_TRUE(prog.ok()) << prog.status().ToString();
  return std::move(prog).value();
}

std::string ColdRendered(Universe& u, const Database& db,
                         const PreparedProgram& prog) {
  Result<Instance> derived = db.Snapshot().Run(prog);
  EXPECT_TRUE(derived.ok()) << derived.status().ToString();
  return derived->ToString(u);
}

constexpr char kReach[] =
    "R($x, $y) <- E($x, $y).\n"
    "R($x, $z) <- R($x, $y), E($y, $z).\n";

// --- Tombstone segments -------------------------------------------------------

TEST(RetractTest, RetractPublishesTombstoneAndBumpsEpoch) {
  Universe u;
  Result<Database> db = Database::Open(u, MustInstance(u, "E(a, b). E(b, c)."));
  ASSERT_TRUE(db.ok());
  EXPECT_EQ(db->NumTombstones(), 0u);

  size_t retracted = 0;
  Result<uint64_t> epoch =
      db->Retract(MustInstance(u, "E(b, c)."), &retracted);
  ASSERT_TRUE(epoch.ok()) << epoch.status().ToString();
  EXPECT_EQ(*epoch, 1u);
  EXPECT_EQ(retracted, 1u);
  EXPECT_EQ(db->NumTombstones(), 1u);
  EXPECT_EQ(db->NumFacts(), 1u);
  EXPECT_EQ(db->edb().ToString(u), MustInstance(u, "E(a, b).").ToString(u));
}

TEST(RetractTest, RetractingAbsentFactsIsANoOp) {
  Universe u;
  Result<Database> db = Database::Open(u, MustInstance(u, "E(a, b)."));
  ASSERT_TRUE(db.ok());
  uint64_t epoch0 = db->epoch();
  size_t segments0 = db->NumSegments();

  // Neither fact is visible (one never existed, one is a different
  // relation's shape): no tombstone segment, no epoch bump.
  size_t retracted = 99;
  Result<uint64_t> epoch =
      db->Retract(MustInstance(u, "E(x, y)."), &retracted);
  ASSERT_TRUE(epoch.ok()) << epoch.status().ToString();
  EXPECT_EQ(*epoch, epoch0);
  EXPECT_EQ(retracted, 0u);
  EXPECT_EQ(db->NumSegments(), segments0);
  EXPECT_EQ(db->NumTombstones(), 0u);
  EXPECT_EQ(db->NumFacts(), 1u);
}

TEST(RetractTest, PinnedSessionKeepsSeeingRetractedFacts) {
  Universe u;
  Result<Database> db = Database::Open(u, MustInstance(u, "E(a, b). E(b, c)."));
  ASSERT_TRUE(db.ok());
  Session before = db->Snapshot();

  ASSERT_TRUE(db->Retract(MustInstance(u, "E(a, b).")).ok());

  // The pinned session reads the pre-retraction stack; a fresh snapshot
  // sees the tombstone shadow the fact.
  EXPECT_EQ(before.NumFacts(), 2u);
  EXPECT_EQ(before.edb().ToString(u),
            MustInstance(u, "E(a, b). E(b, c).").ToString(u));
  EXPECT_EQ(db->Snapshot().NumFacts(), 1u);
  EXPECT_EQ(db->Snapshot().edb().ToString(u),
            MustInstance(u, "E(b, c).").ToString(u));
}

TEST(RetractTest, EdbRestrictedToRelationsAppliesTombstones) {
  Universe u;
  Result<Database> db =
      Database::Open(u, MustInstance(u, "E(a, b). E(b, c). F(a)."));
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE(db->Append(MustInstance(u, "F(b).")).ok());
  ASSERT_TRUE(db->Retract(MustInstance(u, "E(a, b).")).ok());
  RelId e = *u.FindRel("E");
  RelId f = *u.FindRel("F");

  // Each segment is restricted before the union; tombstones still
  // shadow the facts of the kept relations.
  Session s = db->Snapshot();
  EXPECT_EQ(s.edb({e}).ToString(u), MustInstance(u, "E(b, c).").ToString(u));
  EXPECT_EQ(s.edb({f}).ToString(u),
            MustInstance(u, "F(a). F(b).").ToString(u));
  EXPECT_EQ(s.edb({e, f}), s.edb());
  EXPECT_TRUE(s.edb(std::vector<RelId>{}).Empty());
}

TEST(RetractTest, ReAppendAfterRetractFlipsVisibilityBack) {
  Universe u;
  Result<Database> db = Database::Open(u, MustInstance(u, "E(a, b)."));
  ASSERT_TRUE(db.ok());

  // Retract, re-append, retract again: visibility is decided by the
  // newest occurrence, so each write flips it.
  ASSERT_TRUE(db->Retract(MustInstance(u, "E(a, b).")).ok());
  EXPECT_EQ(db->NumFacts(), 0u);

  size_t appended = 0;
  ASSERT_TRUE(db->Append(MustInstance(u, "E(a, b)."), &appended).ok());
  EXPECT_EQ(appended, 1u);
  EXPECT_EQ(db->NumFacts(), 1u);
  EXPECT_EQ(db->edb().ToString(u), MustInstance(u, "E(a, b).").ToString(u));

  size_t retracted = 0;
  ASSERT_TRUE(db->Retract(MustInstance(u, "E(a, b)."), &retracted).ok());
  EXPECT_EQ(retracted, 1u);
  EXPECT_EQ(db->NumFacts(), 0u);
  EXPECT_TRUE(db->edb().Empty());
}

TEST(RetractTest, CompactFoldsTombstonesAway) {
  Universe u;
  Result<Database> db = Database::Open(
      u, MustInstance(u, "E(a, b). E(b, c). E(c, d)."));
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE(db->Retract(MustInstance(u, "E(b, c). E(c, d).")).ok());
  ASSERT_TRUE(db->Append(MustInstance(u, "E(d, e).")).ok());
  uint64_t epoch = db->epoch();
  std::string edb = db->edb().ToString(u);

  EXPECT_GT(db->NumTombstones(), 0u);
  ASSERT_TRUE(*db->Compact());

  // Folding happens under an unchanged epoch and leaves only surviving
  // facts: the post-compaction stack contains no tombstones at all.
  EXPECT_EQ(db->epoch(), epoch);
  EXPECT_EQ(db->NumTombstones(), 0u);
  EXPECT_EQ(db->NumSegments(), 1u);
  EXPECT_EQ(db->NumFacts(), 2u);
  EXPECT_EQ(db->edb().ToString(u), edb);
}

TEST(RetractTest, WriterCommitsAppendsBeforeRetractions) {
  Universe u;
  Result<Database> db = Database::Open(u, MustInstance(u, "E(a, b)."));
  ASSERT_TRUE(db.ok());

  Writer w = db->MakeWriter();
  w.Stage(MustInstance(u, "E(b, c). E(c, d)."));
  RelId e = *u.FindRel("E");
  w.Retract(e, {u.PathOfChars("a"), u.PathOfChars("b")});
  w.Retract(e, {u.PathOfChars("c"), u.PathOfChars("d")});
  EXPECT_EQ(w.NumStaged(), 2u);
  EXPECT_EQ(w.NumStagedRetractions(), 2u);

  // Appends publish first, tombstones second: a fact both staged and
  // retracted in one batch ends up retracted.
  Result<uint64_t> epoch = w.Commit();
  ASSERT_TRUE(epoch.ok()) << epoch.status().ToString();
  EXPECT_EQ(db->NumFacts(), 1u);
  EXPECT_EQ(db->edb().ToString(u), MustInstance(u, "E(b, c).").ToString(u));
  EXPECT_EQ(w.NumStaged(), 0u);
  EXPECT_EQ(w.NumStagedRetractions(), 0u);
}

TEST(RetractTest, RetractOnClosedDatabaseFails) {
  Universe u;
  Result<Database> db = Database::Open(u, MustInstance(u, "E(a, b)."));
  ASSERT_TRUE(db.ok());
  db->Close();
  Result<uint64_t> epoch = db->Retract(MustInstance(u, "E(a, b)."));
  ASSERT_FALSE(epoch.ok());
  EXPECT_EQ(epoch.status().code(), StatusCode::kFailedPrecondition);
}

// --- Shrink-aware statistics (a retraction is drift) --------------------------

TEST(RetractTest, RetractionShrinksStatsAndRegistersAsDrift) {
  Universe u;
  Result<Database> db = Database::Open(
      u, MustInstance(u, "E(a, b). E(b, c). E(c, d). E(d, e)."));
  ASSERT_TRUE(db.ok());
  RelId e = *u.FindRel("E");
  StoreStats before = db->Stats();
  EXPECT_EQ(before.EstimateScan(e), 4.0);

  ASSERT_TRUE(db->Retract(MustInstance(u, "E(b, c). E(c, d). E(d, e).")).ok());
  StoreStats after = db->Stats();

  // The estimate tracks visible facts, not raw segment sizes — and the
  // shrink shows up as drift, so cached plans ranked off the old counts
  // recompile instead of optimizing for a relation that no longer looks
  // like that.
  EXPECT_EQ(after.EstimateScan(e), 1.0);
  EXPECT_GT(StatsDrift(before, after), 0.0);
}

// --- DRed on maintained views -------------------------------------------------

TEST(RetractTest, CountGatedSurvivalSkipsRederivation) {
  Universe u;
  Result<Database> db = Database::Open(u, MustInstance(u, "A(a). B(a)."));
  ASSERT_TRUE(db.ok());
  // P is non-recursive, so its stored support counts are exact: P(a)
  // has two independent derivations, and losing one must not even
  // provisionally delete it.
  PreparedProgram prog =
      MustCompile(u, "P($x) <- A($x).\nP($x) <- B($x).\n");
  ASSERT_TRUE(db->views().Refresh("p", prog).ok());

  ASSERT_TRUE(db->Retract(MustInstance(u, "A(a).")).ok());
  EvalStats stats;
  auto v = db->views().Refresh("p", prog, {}, &stats);
  ASSERT_TRUE(v.ok()) << v.status().ToString();
  EXPECT_EQ((*v)->idb().ToString(u), ColdRendered(u, *db, prog));
  EXPECT_GT(stats.dred_decrements, 0u);
  EXPECT_EQ(stats.dred_over_deleted, 0u);
  EXPECT_EQ(stats.dred_re_derived, 0u);
  EXPECT_EQ(db->views().counters().dred_refreshes, 1u);
}

TEST(RetractTest, OverDecrementedTupleSurvivesViaRederivation) {
  Universe u;
  // A cycle a -> b -> c -> a plus the chord a -> c: R(a, c) is reachable
  // both directly and around the cycle.
  Result<Database> db = Database::Open(
      u, MustInstance(u, "E(a, b). E(b, c). E(c, a). E(a, c)."));
  ASSERT_TRUE(db.ok());
  PreparedProgram prog = MustCompile(u, kReach);
  ASSERT_TRUE(db->views().Refresh("reach", prog).ok());

  ASSERT_TRUE(db->Retract(MustInstance(u, "E(a, c).")).ok());
  EvalStats stats;
  auto v = db->views().Refresh("reach", prog, {}, &stats);
  ASSERT_TRUE(v.ok()) << v.status().ToString();

  // R is recursive, so the deletion phase over-deletes on the first
  // decrement (cyclic support counts cannot be trusted) and the
  // re-derivation pass rescues everything the cycle still proves —
  // here the whole 3x3 closure survives.
  EXPECT_EQ((*v)->idb().ToString(u), ColdRendered(u, *db, prog));
  EXPECT_GT(stats.dred_over_deleted, 0u);
  EXPECT_GT(stats.dred_re_derived, 0u);
  RelId r = *u.FindRel("R");
  EXPECT_EQ((*v)->idb().Tuples(r).size(), 9u);

  // Every surviving tuple carries a support count of at least one, so
  // a later retraction can still decrement it toward deletion.
  auto it = (*v)->support().find(r);
  ASSERT_NE(it, (*v)->support().end());
  for (const Tuple& t : (*v)->idb().Tuples(r)) {
    auto ct = it->second->find(t);
    ASSERT_NE(ct, it->second->end());
    EXPECT_GE(ct->second, 1u);
  }
}

TEST(RetractTest, CyclicSupportDoesNotPropItselfUp) {
  Universe u;
  // P(a) and Q(a) support each other; once A(a) goes, the only
  // remaining "support" is the P -> Q -> P cycle, which must not keep
  // either alive (the regression this test pins: count-gated deletion
  // alone would leave the pair propping each other up forever).
  Result<Database> db = Database::Open(u, MustInstance(u, "A(a). B(a)."));
  ASSERT_TRUE(db.ok());
  PreparedProgram prog = MustCompile(
      u, "P($x) <- A($x).\nP($x) <- Q($x), B($x).\nQ($x) <- P($x).\n");
  ASSERT_TRUE(db->views().Refresh("pq", prog).ok());

  ASSERT_TRUE(db->Retract(MustInstance(u, "A(a).")).ok());
  auto v = db->views().Refresh("pq", prog);
  ASSERT_TRUE(v.ok()) << v.status().ToString();
  EXPECT_TRUE((*v)->idb().Empty());
  EXPECT_EQ((*v)->idb().ToString(u), ColdRendered(u, *db, prog));
}

}  // namespace
}  // namespace seqdl
