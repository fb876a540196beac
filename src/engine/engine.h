// Compile-once/run-many evaluation of Sequence Datalog programs.
//
// Engine::Compile validates (safety, stratification) and plans a program
// exactly once, producing an immutable PreparedProgram. The prepared
// program can then be run against any number of input instances over the
// same Universe:
//
//   SEQDL_ASSIGN_OR_RETURN(PreparedProgram prog,
//                          Engine::Compile(u, std::move(program)));
//   SEQDL_ASSIGN_OR_RETURN(Instance out1, prog.Run(input1));
//   SEQDL_ASSIGN_OR_RETURN(Instance out2, prog.Run(input2));
//
// Execution uses stratified semi-naive fixpoint iteration (paper §2.3)
// over an indexed relation store: scans whose key position is ground under
// the current valuation become hash probes instead of full relation scans
// (see plan.h / index.h). Since Sequence Datalog programs need not
// terminate (Example 2.3), Run enforces budgets and reports
// kResourceExhausted when they are exceeded; a cancellation callback in
// RunOptions can stop a run early with kCancelled.
//
// Execution runs on a layered store (index.h): an immutable, possibly
// shared BaseStore of input facts underneath, a private IDB overlay on
// top. Run(input) builds a throwaway base per call; the Database/Session
// API (database.h) shares one pre-indexed base across any number of
// concurrent runs. The one-shot Eval()/EvalQuery() helpers in eval.h
// compile and Run in one call.
#ifndef SEQDL_ENGINE_ENGINE_H_
#define SEQDL_ENGINE_ENGINE_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "src/base/counters.h"
#include "src/base/status.h"
#include "src/engine/instance.h"
#include "src/engine/plan.h"
#include "src/engine/stats.h"
#include "src/syntax/ast.h"
#include "src/term/universe.h"

namespace seqdl {

class BaseStore;
enum class SegmentKind : uint8_t;
class Session;
class ViewManager;

namespace internal {
class Executor;
}  // namespace internal

/// Derivation-event counts per derived tuple, keyed by relation: how many
/// times each tuple was produced by a rule firing (across all rules and
/// rounds). Collected when RunOptions::support is set under semi-naive
/// evaluation (naive runs skip counting — their re-evaluation rounds
/// re-enumerate every firing and would inflate counts without bound); the
/// materialized-view subsystem (view/view.h) stores them per view
/// snapshot to drive counting-based delete/re-derive (DRed) on
/// retraction: a tuple whose count drops to zero has no surviving counted
/// derivation and is over-deleted, then rescued iff a re-derivation check
/// finds another proof. Counting is *canonical* — each firing is counted
/// exactly once even when several of its body atoms sit in the same delta
/// round (the firing is attributed to its smallest delta-matched body
/// literal) — so stored counts never exceed the number of enumerable
/// firings. The deletion phase decrements each dead firing at least once,
/// which makes the pair sound: counts can only reach zero at or before
/// the true support does, and an early zero merely costs a re-derivation
/// check, never a wrong deletion.
using SupportCounts = std::map<RelId, std::unordered_map<Tuple, uint32_t, TupleHash>>;

/// Stored-support lookup for RunDelta's deletion phase: returns the
/// support count the view recorded for (rel, tuple), or 0 when unknown —
/// the executor treats unknown as 1 (delete on first decrement and let
/// re-derivation decide), the classic DRed behaviour.
using SupportLookup = std::function<uint32_t(RelId, const Tuple&)>;

/// Options fixed at compilation time (Compile always validates safety
/// and stratification first).
struct CompileOptions {
  /// Greedily reorder positive body scans so each joins on already-bound
  /// variables where possible; false = scan in body order.
  bool reorder_scans = true;
  /// Measured store statistics (Database::Stats(), BaseStore::Stats(), or
  /// ComputeInstanceStats) ranking candidate access paths and the scan
  /// order by expected bucket size — see plan.h. nullptr = the legacy
  /// first-ground-argument heuristic. When set, Compile also measures
  /// the program's own ground facts into a private copy (see
  /// AddProgramFactStats). Only read during the Compile call; statistics
  /// never change results, only cost (the differential harness enforces
  /// this).
  const StoreStats* stats = nullptr;
};

/// Options chosen per run.
struct RunOptions {
  /// Maximum number of derived facts before giving up.
  size_t max_facts = 5'000'000;
  /// Maximum number of fixpoint rounds across all strata.
  size_t max_iterations = 1'000'000;
  /// Maximum length of any derived path.
  size_t max_path_length = 1'000'000;
  /// Use semi-naive (delta) iteration; false = naive re-evaluation.
  bool seminaive = true;
  /// Probe per-(relation, column) hash indexes for scans whose key
  /// position is ground; false = always full scans (ablation).
  bool use_index = true;
  /// Semi-naive delta sets with at least this many tuples are indexed on
  /// first keyed probe instead of scanned linearly (see
  /// EvalStats::delta_index_probes). 0 = always index; SIZE_MAX = never.
  size_t delta_index_threshold = 32;
  /// Cancellation/budget callback, polled at every fixpoint round and
  /// periodically between rule firings. Return true to cancel the run;
  /// Run then fails with kCancelled. Leave empty for no callback.
  std::function<bool()> cancel;
  /// Measure the run's derived facts into EvalStats::derived_stats (one
  /// O(derived) pass after the fixpoint). Session::Run additionally feeds
  /// the measurement back into its Database's statistics accumulator, so
  /// later Database::Stats()-driven compiles see what runs actually
  /// derived. Off by default to keep the hot path free of the pass.
  bool collect_derived_stats = false;
  /// When non-null, every rule firing increments (*support)[rel][tuple]
  /// for the head tuple it produced — the counting-based support the
  /// materialized-view subsystem records per derived tuple (see
  /// SupportCounts above; counting is canonical, once per firing, and
  /// only happens under seminaive — naive re-evaluation rounds would
  /// re-count every firing per round). The map is the caller's; the run
  /// only ever increments, so a caller can seed it with carried-over
  /// counts. Null (the default) keeps the derivation hot path free of
  /// the upkeep.
  SupportCounts* support = nullptr;
};

/// Per-stratum execution counters.
struct StratumStats {
  size_t rounds = 0;
  size_t rule_firings = 0;
  size_t derived_facts = 0;
};

/// Execution statistics, filled by every PreparedProgram run: the scalar
/// counters of the EvalCounters table (src/base/counters.h documents
/// each), plus per-run detail that does not cross the wire.
struct EvalStats : EvalCounters {
  /// One entry per stratum, in program order.
  std::vector<StratumStats> per_stratum;
  /// The planner's access-path decision per scan step, one line each
  /// ("stratum 0 rule 0 step 1: scan R: whole-value key col 1, est 1.0
  /// [stats]"), recorded at compile time and copied into every run's
  /// stats. Empty when the run was given no stats out-param.
  std::vector<std::string> plan_decisions;
  /// Bucket statistics of the facts this run derived, measured after the
  /// fixpoint when RunOptions::collect_derived_stats is set (empty
  /// otherwise).
  StoreStats derived_stats;
};

/// A validated, planned program bound to a Universe. Move-only (plans
/// point into the owned Program). Create via Engine::Compile.
class PreparedProgram {
 public:
  PreparedProgram(PreparedProgram&&) = default;
  PreparedProgram& operator=(PreparedProgram&&) = default;
  PreparedProgram(const PreparedProgram&) = delete;
  PreparedProgram& operator=(const PreparedProgram&) = delete;

  /// Evaluates on `input`; returns input plus all derived IDB facts.
  /// `input` must be an instance over the Universe the program was
  /// compiled against. On success fills `*stats` (if non-null), including
  /// the compile time recorded by Engine::Compile. Runs are independent —
  /// each builds a throwaway indexed base over `input` plus a private IDB
  /// overlay — and thread-safe: the shared Universe interns with
  /// synchronization, so one PreparedProgram may run from any number of
  /// threads concurrently. To index an input once and reuse it across
  /// runs, see Database/Session in database.h.
  Result<Instance> Run(const Instance& input, const RunOptions& opts = {},
                       EvalStats* stats = nullptr) const;

  /// Result of RunDelta: the complete derived IDB at the post-update
  /// epoch, which strata could not be maintained incrementally, and the
  /// DRed deletion bookkeeping the view subsystem folds into its stored
  /// support counts.
  struct DeltaRun {
    Instance idb;
    /// Indices (program order) of strata RunDelta recomputed wholesale —
    /// a negated body relation changed (gained or lost facts). Everything
    /// else was maintained by delta passes over the stored view; positive
    /// shrinks are handled in place by DRed deletion, not by recompute.
    std::vector<size_t> recomputed_strata;
    /// Support decrements the deletion phase applied, per stored tuple
    /// (empty on growth-only deltas). The view subsystem combines these
    /// with the carried-over counts: new = old + fresh - decrements,
    /// saturating, floored at 1 for tuples present in `idb`.
    SupportCounts decrements;
  };

  /// Incremental maintenance: given the stored derived IDB `view` of an
  /// earlier epoch and the segment stack that changed since, computes the
  /// derived IDB of the current epoch by semi-naive delta evaluation of
  /// the net changes instead of a full fixpoint. `segments` (with
  /// `kinds`, parallel; empty = all fact segments) is the complete
  /// current stack; the first `base_prefix` members are the ones `view`
  /// was computed over (segments publish in stamp order, so a view's
  /// covered base is always a prefix); `view` must be exactly the IDB a
  /// full run over that prefix derives, and `stored_support` (may be
  /// null) its recorded support counts. The result's `idb` is
  /// byte-identical to RunOnStack over the full stack (the differential
  /// harness enforces this at every epoch, across compaction).
  ///
  /// The suffix's net effect is computed fact by fact (a fact appended
  /// then retracted inside the window nets out): additions seed delta
  /// passes, retractions seed DRed deletion. Per stratum, in order: when
  /// no negated body relation changed, the stratum is *maintained* — its
  /// stored view facts are adopted wholesale, then three phases run. The
  /// deletion phase decrements the stored support of every derivation
  /// consuming a retracted fact (retracted facts stay enumerable as
  /// ghosts so joins between dead facts are still counted), provisionally
  /// deletes tuples whose support reaches zero, and cascades until no
  /// deletion set remains. The re-derivation phase then rescues deleted
  /// tuples (and retracted EDB facts of this stratum's head relations)
  /// that still have a proof, to a fixpoint. The insertion phase is the
  /// classic delta pass over the additions. A stratum reading a changed
  /// relation through negation is instead *recomputed* from scratch
  /// against the already-updated lower strata, and its diff against the
  /// stored facts joins the change sets cascading into later strata.
  /// Appended EDB facts that duplicate stored view facts are dropped from
  /// the new view (derived overlays never shadow visible base facts),
  /// matching what a cold run would produce.
  Result<DeltaRun> RunDelta(std::span<const BaseStore* const> segments,
                            std::span<const SegmentKind> kinds,
                            size_t base_prefix, const Instance& view,
                            const SupportLookup& stored_support,
                            const RunOptions& opts = {},
                            EvalStats* stats = nullptr) const;

  const Program& program() const { return *program_; }
  Universe& universe() const { return *universe_; }
  /// Wall time spent in Engine::Compile for this program.
  double compile_seconds() const { return compile_seconds_; }

  /// Human-readable rendering of the compiled plan: per stratum and rule,
  /// each scheduled step with its chosen access path (whole/first/last
  /// -value key column or full scan), the planner's selectivity estimate
  /// when the program was compiled with statistics, and which scan steps
  /// re-run against semi-naive deltas — followed by the delta-first plan
  /// variant those rounds execute for each of them. `seqdl run --explain`
  /// prints this.
  std::string ExplainPlan() const;

 private:
  friend class Engine;
  friend class Session;
  friend class ViewManager;
  friend class internal::Executor;

  struct CompiledStratum {
    std::vector<RulePlan> plans;
    /// Delta-first variants, parallel to `plans`: per rule, one plan per
    /// positive body literal with that literal's scan scheduled as step 0
    /// (PlannerOptions::first_lit), keyed by literal index. RunDelta's
    /// maintenance passes execute the variant whose forced scan is the
    /// changed one, so restricting it to the changed set makes the whole
    /// rule application O(|changed|) probes instead of an outer full scan.
    std::vector<std::map<size_t, RulePlan>> delta_plans;
    /// Head-bound variants, parallel to `plans`: each rule planned as if
    /// its head variables were already bound (PlannerOptions::head_bound).
    /// DRed's re-derivation check matches the candidate tuple against the
    /// head and then runs the body under that valuation — these plans key
    /// the body scans on the head's bindings, so a check costs a handful
    /// of index probes instead of opening with a full relation scan.
    std::vector<RulePlan> check_plans;
  };

  /// Evaluates over a stack of base segments (shared, never mutated —
  /// the epoch-pinned EDB of a Session) and returns only the derived IDB
  /// overlay. `kinds` marks each segment as facts or tombstones (parallel
  /// to `segments`; empty = all facts): tombstoned facts are invisible —
  /// enumeration and membership respect the newest-occurrence rule (see
  /// LayeredStore in index.h). The engine of Session::Run, of the
  /// view subsystem's cold runs and of Run above (which wraps `input` in
  /// a throwaway single-segment base and unions the result back).
  Result<Instance> RunOnStack(std::span<const BaseStore* const> segments,
                              std::span<const SegmentKind> kinds,
                              const RunOptions& opts, EvalStats* stats) const;

  /// The bookkeeping RunOnStack and RunDelta share around their executor
  /// call `body(executor)`: resets `*stats` (if non-null) to this
  /// program's compile-time fields, then measures the derived facts
  /// (under RunOptions::collect_derived_stats) and the wall time.
  /// Defined and instantiated in engine.cc only.
  template <typename Body>
  auto Measured(const RunOptions& opts, EvalStats* stats, Body body) const;

  PreparedProgram(Universe& u, std::shared_ptr<const Program> p)
      : universe_(&u), program_(std::move(p)) {}

  Universe* universe_;
  /// Owned for Compile(); non-owning (aliasing, null deleter) for
  /// CompileBorrowed(). Rule plans point into this program.
  std::shared_ptr<const Program> program_;
  std::vector<CompiledStratum> strata_;
  double compile_seconds_ = 0;
  /// One line per scan step, precomputed by Compile and copied into
  /// EvalStats::plan_decisions on stats-carrying runs.
  std::vector<std::string> plan_decisions_;
};

/// Stateless compiler front end.
class Engine {
 public:
  /// Validates and plans `p` against `u`. The returned PreparedProgram
  /// keeps a reference to `u`, which must outlive it.
  static Result<PreparedProgram> Compile(Universe& u, Program p,
                                         const CompileOptions& opts = {});

  /// As Compile, but borrows `p` instead of taking ownership: the caller
  /// must keep `p` alive and unchanged for the PreparedProgram's
  /// lifetime. Avoids copying the program AST when it already outlives
  /// the prepared program (the one-shot Eval helper, long-lived program
  /// registries).
  static Result<PreparedProgram> CompileBorrowed(
      Universe& u, const Program& p, const CompileOptions& opts = {});

 private:
  static Result<PreparedProgram> CompileShared(
      Universe& u, std::shared_ptr<const Program> p,
      const CompileOptions& opts);
};

}  // namespace seqdl

#endif  // SEQDL_ENGINE_ENGINE_H_
