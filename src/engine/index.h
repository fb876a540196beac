// Indexed relation storage for the evaluator.
//
// Every store indexes a (relation, column) pair in the three IndexFamily
// families of stats.h — whole value, first value, last value — and files
// each tuple under IndexKey of its column. One Probe(rel, col, family,
// key) per store answers a planned scan step (PlanStep::arg/family) with
// the bucket of its evaluated key: the whole argument's PathId, or the
// first/last value of its ground prefix/suffix. First/last buckets are
// sound overapproximations that the usual MatchArgs pass filters
// exactly. Either way a full relation scan becomes a bucket probe.
//
// Storage classes:
//
//   * IndexedInstance — a private, mutable store. Each (relation, column,
//     family) index builds lazily on its first probe and is maintained
//     incrementally as facts are added or removed. Not thread-safe; each
//     run owns its own.
//   * BaseStore — an immutable, shared store over a fixed EDB. All three
//     families of a (relation, column) build together, at most once,
//     under std::call_once and are read-only afterwards, so any number of
//     threads can probe concurrently. Database (database.h) wraps one; the
//     legacy one-shot entry points build a throwaway one per call.
//   * LayeredStore — the copy-on-read view the executor runs on: a stack
//     of shared BaseStore segments underneath (one per committed epoch —
//     see database.h), a private IndexedInstance overlay on top.
//     Derivation only ever mutates the overlay; the base segments are
//     never touched.
//
// Semi-naive delta sets are not indexed: a scan restricted to a delta
// always leads its delta-first plan variant, where no variable is bound
// yet, so it is a plain loop over the delta.
//
// Bucket entries are pointers into the underlying TupleSet; unordered_set
// guarantees reference stability under insertion, so derivation never
// invalidates them.
#ifndef SEQDL_ENGINE_INDEX_H_
#define SEQDL_ENGINE_INDEX_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <span>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/engine/instance.h"
#include "src/engine/stats.h"
#include "src/term/universe.h"

namespace seqdl {

/// The tuples filed under one index key. Entries point into the store's
/// TupleSet.
using Bucket = std::vector<const Tuple*>;
/// One (relation, column, family) index: IndexKey -> bucket.
using BucketMap = std::unordered_map<uint32_t, Bucket>;

/// The shared empty bucket returned for missing keys.
const Bucket& EmptyBucket();

class IndexedInstance {
 public:
  /// An empty store; usable only after move-assignment from a real one.
  IndexedInstance() = default;
  /// Wraps `base`. `u` resolves paths to their IndexKey and must outlive
  /// the store.
  IndexedInstance(const Universe& u, Instance base)
      : universe_(&u), base_(std::move(base)) {}

  const Instance& instance() const { return base_; }
  /// Releases the underlying instance (indexes become meaningless).
  Instance&& TakeInstance() { return std::move(base_); }

  /// Adds a fact, filing it into every built index of its relation.
  /// Returns true if the fact was new.
  bool Add(RelId rel, Tuple t);

  /// Bulk counterpart of Add: inserts all of `tuples` with capacity
  /// reserved up front. While no index of `rel` has been built yet this
  /// skips the per-fact index-maintenance searches entirely (indexes
  /// built later see the facts anyway — they build from the instance);
  /// once any exists it degrades to per-fact Add. Returns the number of
  /// new facts.
  size_t BulkAdd(RelId rel, const TupleSet& tuples);

  bool Contains(RelId rel, const Tuple& t) const {
    return base_.Contains(rel, t);
  }
  const TupleSet& Tuples(RelId rel) const { return base_.Tuples(rel); }

  /// The tuples of `rel` whose `col`-th component files under `key` in
  /// `family`'s index (IndexKey). Builds that (rel, col, family) index on
  /// first use.
  const Bucket& Probe(RelId rel, uint32_t col, IndexFamily family,
                      uint32_t key);

  /// Removes a fact, dropping it from every built index of its relation.
  /// Returns true if it was present. The DRed deletion path's overlay
  /// surgery; O(bucket) per built index.
  bool Remove(RelId rel, const Tuple& t);

 private:
  using IndexId = std::tuple<RelId, uint32_t, IndexFamily>;

  /// Calls `fn(buckets, key)` for every built index of `rel` that files
  /// `t`: the index's bucket map and t's key in it.
  template <typename Fn>
  void ForEachIndexOf(RelId rel, const Tuple& t, Fn fn);

  const Universe* universe_ = nullptr;
  Instance base_;
  std::map<IndexId, BucketMap> indexes_;
};

/// An immutable, shareable indexed store over a fixed EDB instance.
///
/// Construction records the relations present (the slot table is fixed
/// from then on); all three family indexes of a (relation, column) build
/// together on the first probe of that column, exactly once across all
/// threads (std::call_once), and are pure reads afterwards. All
/// probe/lookup methods are const and safe to call concurrently.
class BaseStore {
 public:
  BaseStore(const Universe& u, Instance edb);

  const Instance& instance() const { return edb_; }
  /// Releases the underlying instance (the store becomes unusable). Only
  /// for throwaway stores on the legacy one-shot path, after evaluation.
  Instance&& TakeInstance() { return std::move(edb_); }

  bool Contains(RelId rel, const Tuple& t) const {
    return edb_.Contains(rel, t);
  }
  const TupleSet& Tuples(RelId rel) const { return edb_.Tuples(rel); }

  /// The tuples of `rel` whose `col`-th component files under `key` in
  /// `family`'s index (IndexKey).
  const Bucket& Probe(RelId rel, uint32_t col, IndexFamily family,
                      uint32_t key) const;

  /// Number of (relation, column) columns whose indexes have been built.
  size_t NumIndexedColumns() const;

  /// Measured per-(relation, column, family) bucket statistics of the
  /// store's EDB — the planner's selectivity input (see stats.h). The EDB
  /// is immutable, so the measurement runs once (std::call_once, like the
  /// index builds) and the cached reference is safe to read from any
  /// thread afterwards.
  const StoreStats& Stats() const;

 private:
  /// All three family indexes of one (relation, column) pair, indexed by
  /// IndexFamily and built together in one pass over the relation on
  /// first probe.
  struct ColSlot {
    mutable std::once_flag once;
    std::array<BucketMap, kNumIndexFamilies> families;
    std::atomic<bool> built{false};
  };

  const Universe* universe_;
  Instance edb_;
  /// Fixed after construction; per-relation slot vectors are sized to the
  /// relation's widest tuple and never resized (ColSlot is immovable).
  std::unordered_map<RelId, std::vector<ColSlot>> slots_;
  /// Lazily measured EDB statistics (Stats()).
  mutable std::once_flag stats_once_;
  mutable StoreStats stats_;
};

/// What a published segment's contents mean: facts add to the EDB;
/// tombstones *retract* — a tombstone segment's tuples shadow matching
/// facts in every older segment (see database.h's append-log).
enum class SegmentKind : uint8_t { kFacts, kTombstones };

/// One enumerable layer of a LayeredStore: a fact segment plus its
/// *shadows* — the tombstone segments published after it, whose contents
/// retract matching facts of this segment. A tuple enumerated from the
/// layer is visible iff no shadow holds it. Append-only stacks have no
/// shadows, so the visibility filter is a no-op there.
struct SegmentLayer {
  const BaseStore* store = nullptr;
  std::span<const BaseStore* const> shadows;

  bool Shadowed(RelId rel, const Tuple& t) const {
    for (const BaseStore* s : shadows) {
      if (s->Contains(rel, t)) return true;
    }
    return false;
  }
};

/// The executor's copy-on-read view: a stack of shared immutable BaseStore
/// *segments* (the epoch-pinned EDB — one segment per committed Append or
/// Retract, see database.h) layered under a private mutable IDB overlay.
/// Lookups consult every layer; derivation writes only the overlay, so any
/// number of LayeredStores can share the same segments concurrently.
/// Append/Retract dedupe on commit, so in stack order each fact's
/// occurrences alternate fact/tombstone/fact/... — enumerating the fact
/// layers and skipping shadowed tuples yields each *visible* fact exactly
/// once, and visibility of a single fact is decided by the newest segment
/// holding it (ContainsBase's reverse walk).
class LayeredStore {
 public:
  /// Usable only after move-assignment from a real one.
  LayeredStore() = default;
  LayeredStore(LayeredStore&&) = default;
  LayeredStore& operator=(LayeredStore&&) = default;
  // Non-copyable: overlay index buckets point into the overlay instance.
  LayeredStore(const LayeredStore&) = delete;
  LayeredStore& operator=(const LayeredStore&) = delete;

  /// `kinds` marks each segment (parallel to `segments`); empty = all
  /// fact segments (the append-only callers).
  LayeredStore(const Universe& u, std::span<const BaseStore* const> segments,
               std::span<const SegmentKind> kinds);
  LayeredStore(const Universe& u, std::span<const BaseStore* const> segments)
      : LayeredStore(u, segments, {}) {}
  /// Single-segment convenience (the one-shot Run path).
  LayeredStore(const Universe& u, const BaseStore& base)
      : segments_(1, &base),
        kinds_(1, SegmentKind::kFacts),
        layers_(1, SegmentLayer{&base, {}}),
        overlay_(u, Instance{}) {}

  /// The enumerable fact layers in stack order, each with its shadows.
  /// Tombstone segments never appear here — their contents are not facts.
  std::span<const SegmentLayer> layers() const { return layers_; }
  IndexedInstance& overlay() { return overlay_; }

  /// Visible membership in the base segments only (not the overlay): the
  /// newest segment holding the fact decides — a fact segment means
  /// present, a tombstone means retracted.
  bool ContainsBase(RelId rel, const Tuple& t) const {
    for (size_t i = segments_.size(); i-- > 0;) {
      if (segments_[i]->Contains(rel, t)) {
        return kinds_[i] == SegmentKind::kFacts;
      }
    }
    return false;
  }

  /// Adds a fact to the overlay unless some layer visibly holds it.
  bool Add(RelId rel, Tuple t) {
    if (ContainsBase(rel, t)) return false;
    return overlay_.Add(rel, std::move(t));
  }

  /// Bulk-adopts `tuples` into the overlay for a relation known disjoint
  /// from every segment except possibly those in `check` — the delta
  /// path's shape: a stored view's derived facts never overlap the
  /// segments the view was computed over, only segments appended since
  /// can have promoted some of them to EDB. A fact counts as held only
  /// when *visible* there (`check_kinds` parallel to `check`, empty = all
  /// facts): a promoted-then-retracted view fact stays view state, exactly
  /// as a cold run would derive it. When no `check` segment mentions the
  /// relation at all, the whole set installs in one reserved pass.
  /// Returns the number of facts adopted.
  size_t Adopt(RelId rel, const TupleSet& tuples,
               std::span<const BaseStore* const> check,
               std::span<const SegmentKind> check_kinds = {});

  bool Contains(RelId rel, const Tuple& t) const {
    if (ContainsBase(rel, t)) return true;
    return overlay_.Contains(rel, t);
  }

  /// Removes a fact from the overlay (DRed over-deletion). Base segments
  /// are immutable — only overlay facts can be removed.
  bool RemoveOverlay(RelId rel, const Tuple& t) {
    return overlay_.Remove(rel, t);
  }

  /// Releases the overlay (the derived facts only).
  Instance&& TakeOverlay() { return overlay_.TakeInstance(); }

 private:
  std::vector<const BaseStore*> segments_;
  std::vector<SegmentKind> kinds_;
  /// Tombstone segments in stack order; layers_ shadows are suffixes of
  /// this vector (sized once in the constructor, never reallocated).
  std::vector<const BaseStore*> tombs_;
  std::vector<SegmentLayer> layers_;
  IndexedInstance overlay_;
};

}  // namespace seqdl

#endif  // SEQDL_ENGINE_INDEX_H_
