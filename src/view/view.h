// Materialized views: derived results as first-class versioned state.
//
// A ViewSnapshot is the complete derived IDB of one prepared program at
// one database epoch — immutable, shared by shared_ptr, and published
// under the same MVCC discipline as the EDB's segment stack (database.h).
// The ViewManager (one per Database, reachable via Database::views())
// keeps at most one current snapshot per view key and keeps it fresh
// *incrementally*: when Refresh finds the database epoch has moved past a
// stored snapshot, it partitions the current segment stack by publish
// stamp (SegmentSet::segment_epochs) into the base prefix the snapshot
// already covers and the segments published since, and runs
// PreparedProgram::RunDelta — semi-naive delta evaluation of the net
// additions plus counting DRed (delete/re-derive) for the net
// retractions, against the stored IDB — instead of re-running the full
// fixpoint. Strata the delta pass cannot maintain soundly (negation over
// a changed input) are recomputed wholesale; everything else is adopted
// and patched in place, shrink epochs included. A snapshot pinned below
// SegmentSet::shrink_floor (compaction folded segments it covers together
// with writes it never saw) falls back to a cold materialization. The
// refreshed snapshot is byte-identical to a cold fixpoint at the new
// epoch (tests/differential_test.cc enforces this at every epoch, across
// retraction and compaction).
//
// Epoch lifecycle of one view key:
//
//   epoch   0         1          2          3
//   EDB     [s0]      [s0 s1]    [s0 s1 s2] [s0 s1 s2 s3]
//            |          |           |          |
//   view    cold ----> delta ----> delta ----> delta     (Refresh calls)
//            v0@0       v1@1        v2@2        v3@3
//
// Each vk is immutable once published; a reader holding v1 keeps reading
// v1 while the manager publishes v3 (exactly like epoch-pinned Sessions).
// Compaction folds segments under an unchanged epoch: a view at that
// epoch is still a hit, while an older view is materialized cold — the
// merged segment mixes facts the view covers with facts it has not seen,
// and delta-evaluating the covered ones again would double their support
// counts, so a later retraction could leave a dead fact in the view.
//
// Every snapshot also records counting-based *support*: per derived
// tuple, how many rule firings produced it (RunOptions::support). The
// stored counts drive DRed on retraction epochs: the deletion phase
// decrements the support of every derivation consuming a retracted fact,
// only tuples whose count reaches zero are provisionally deleted, and
// only those need the expensive re-derivation check. Count-gating is
// exact only for relations whose support is acyclic — a relation that
// reaches itself through its stratum's other heads can be propped up by
// firings that die with the tuple itself, so the executor deletes those
// on the first decrement (classic over-deleting DRed, see
// CyclicHeads in engine.cc) and lets re-derivation rescue survivors.
// Maintained strata carry their counts forward plus fresh events minus
// the deletion phase's decrements (saturating, floored at one for
// surviving tuples — a high-fan-in tuple can never wrap past zero and
// be wrongly dropped); recomputed strata get fresh counts. The counts
// are a lower bound on the true derivation count, which errs in the
// safe direction (an undercount triggers a spurious re-derivation
// check, never a wrong deletion).
//
// Thread-safety: all ViewManager methods may be called from any thread.
// The map mutex guards lookups and publishes only — evaluation runs
// outside it, so a slow refresh never blocks hits on other keys. Two
// racing refreshes of one key both evaluate and the newer epoch wins.
#ifndef SEQDL_VIEW_VIEW_H_
#define SEQDL_VIEW_VIEW_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "src/base/counters.h"
#include "src/base/status.h"
#include "src/engine/database.h"
#include "src/engine/engine.h"
#include "src/engine/instance.h"

namespace seqdl {

/// Per-relation support counts of one view, shared between snapshots:
/// a delta refresh that neither recomputed a relation nor derived new
/// facts for it reuses the previous snapshot's map wholesale instead of
/// rebuilding O(|view|) entries (both snapshots are immutable, so
/// sharing is safe).
using SharedSupport =
    std::map<RelId, std::shared_ptr<const std::unordered_map<
                        Tuple, uint32_t, TupleHash>>>;

/// One immutable materialized view: the complete derived IDB of a program
/// at one epoch, plus per-tuple support counts.
class ViewSnapshot {
 public:
  /// The database epoch this view is current at.
  uint64_t epoch() const { return epoch_; }
  /// Segments of the stack the view was evaluated over.
  uint64_t segments() const { return segments_; }
  /// The derived facts (never contains EDB facts — exactly what a cold
  /// Session::Run returns).
  const Instance& idb() const { return idb_; }
  /// Derivation-event counts per derived tuple (see file comment).
  /// Covers every tuple of idb() with a count >= 1.
  const SharedSupport& support() const { return support_; }
  /// Approximate heap bytes of the materialized IDB — the currency of
  /// the server cache's byte accounting (service.h).
  size_t ApproxBytes() const { return bytes_; }

 private:
  friend class ViewManager;
  uint64_t epoch_ = 0;
  uint64_t segments_ = 0;
  Instance idb_;
  SharedSupport support_;
  size_t bytes_ = 0;
};

/// Keeps materialized views fresh across appends. Owned by Database
/// (heap-stable in its DbState); obtain via Database::views().
class ViewManager {
 public:
  /// Refresh outcomes; the ViewCounters table (src/base/counters.h)
  /// documents each.
  using Counters = ViewCounters;

  /// The current snapshot for `key`, materializing or delta-refreshing
  /// as needed: a stored snapshot at the current epoch is returned as
  /// is; a stale one is advanced by RunDelta over the segments appended
  /// since; a missing one is cold-materialized (a full fixpoint, which
  /// also applies the deferred statistics decay — see
  /// StatsAccumulator::AgeOnRecompute). `key` is the caller's identity
  /// for the view (the server uses the program text); `prog` must be
  /// compiled against the database's Universe and must be the same
  /// program for every call with the same key — the manager stores
  /// results, not programs. On evaluation failure the stored snapshot
  /// (still correct at its own epoch) is left in place.
  Result<std::shared_ptr<const ViewSnapshot>> Refresh(
      const std::string& key, const PreparedProgram& prog,
      const RunOptions& opts = {}, EvalStats* stats = nullptr);

  /// The stored snapshot for `key` (possibly stale), or null.
  std::shared_ptr<const ViewSnapshot> Lookup(const std::string& key) const;

  /// Drops the stored snapshot for `key` (the next Refresh runs cold).
  void Invalidate(const std::string& key);
  /// Drops every stored snapshot.
  void Clear();

  size_t NumViews() const;
  Counters counters() const;

 private:
  friend class Database;
  explicit ViewManager(Database::DbState& state) : state_(&state) {}

  Database::DbState* state_;
  mutable std::mutex mu_;
  std::map<std::string, std::shared_ptr<const ViewSnapshot>> views_;
  Counters counters_;
};

}  // namespace seqdl

#endif  // SEQDL_VIEW_VIEW_H_
