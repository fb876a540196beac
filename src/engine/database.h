// Database/Session: a long-lived, versioned EDB serving concurrent runs.
//
// The EDB is an append-log of immutable *segments*, one per committed
// ingest batch. The segment list is published atomically under an
// *epoch* counter (MVCC): Database::Append (or a batching Writer's
// Commit) never mutates existing segments — it builds a new BaseStore
// over the freshly ingested facts, dedupes them against the current
// stack, and publishes segments+1 at epoch+1. Snapshot() pins the
// segment list of the current epoch by shared ownership, so a session
// opened at epoch k keeps reading exactly epoch k's facts —
// byte-identical results before, during, and after any number of later
// commits or compactions — while writers race ahead
// (single-writer/multi-reader, TSan-enforced):
//
//   SEQDL_ASSIGN_OR_RETURN(Database db, Database::Open(u, std::move(edb)));
//   SEQDL_ASSIGN_OR_RETURN(PreparedProgram prog, Engine::Compile(u, p));
//   Session at_k = db.Snapshot();                        // pins epoch k
//   SEQDL_ASSIGN_OR_RETURN(uint64_t e, db.Append(std::move(more_facts)));
//   Session at_k1 = db.Snapshot();                       // sees the append
//   SEQDL_ASSIGN_OR_RETURN(Instance before, at_k.Run(prog));   // epoch k
//   SEQDL_ASSIGN_OR_RETURN(Instance after, at_k1.Run(prog));   // epoch k+1
//
// Per-segment whole/first/last-value indexes and StoreStats build exactly
// once via the BaseStore call_once machinery and are merged lazily at
// query/Stats() time. Compact() folds the stack into one merged segment
// (same facts, same epoch — compaction is invisible to semantics); open
// sessions keep their pinned segments alive via shared_ptr, so compaction
// under open sessions is a semantic no-op for them and the retired
// segments are freed when the last pinned session goes away.
// OpenOptions::auto_compact_segments makes Append fold the stack
// automatically once it grows past a threshold, LSM-style.
//
// Retract() publishes the inverse of Append as the same kind of immutable
// segment: a *tombstone* segment whose tuples shadow matching facts in
// every older segment — a fact is visible iff the newest segment holding
// it is a fact segment (SegmentKind, index.h). Commits maintain a *flip
// invariant*: Append only publishes facts not currently visible, Retract
// only tombstones facts that are, so each fact's occurrences in stack
// order alternate fact/tombstone/fact/… and visibility is decided by the
// newest occurrence. Sessions pinned before a retraction keep seeing the
// fact (MVCC as usual); Compact() applies and folds tombstones away — the
// merged stack holds exactly the visible facts and zero tombstone
// segments, and SegmentSet::shrink_floor records that views older than
// the merged segment can no longer be delta-maintained.
//
// Thread-safety contract: one writer at a time (Append/Commit/Compact
// serialize on an internal writer mutex), any number of concurrent
// readers; the published segment list is swapped under a mutex and pinned
// by shared_ptr, all per-run mutable state is private to the run, and the
// Universe interns with synchronization. Sessions may outlive epochs but
// not the Database; the Database must not outlive the Universe.
//
// Unlike PreparedProgram::Run (input plus derived facts), Session::Run
// returns only the facts the program derived — the EDB is shared and
// usually large, so callers materialize session.edb() + derived only when
// they actually need the union.
#ifndef SEQDL_ENGINE_DATABASE_H_
#define SEQDL_ENGINE_DATABASE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "src/base/status.h"
#include "src/engine/engine.h"
#include "src/engine/index.h"
#include "src/engine/instance.h"
#include "src/engine/stats.h"
#include "src/storage/storage.h"
#include "src/term/universe.h"

namespace seqdl {

class Session;
class ViewManager;
class Writer;

/// A long-lived, versioned EDB: an epoch-stamped stack of immutable
/// BaseStore segments shared by every session. Move-only; must outlive
/// all sessions and writers opened from it.
class Database {
 public:
  struct OpenOptions {
    /// Append folds the segment stack into one merged segment once it
    /// holds more than this many segments (0 = compact manually via
    /// Compact()). Keeps read amplification bounded under sustained
    /// ingest, LSM-style.
    size_t auto_compact_segments = 0;
    /// Durability. Empty (the default) keeps the database purely in
    /// memory. Non-empty names a data directory (created if absent):
    /// commits write a CRC-framed WAL record *before* they publish,
    /// segments seal to immutable on-disk files at checkpoints, and
    /// Open on an initialized directory recovers to exactly the last
    /// committed epoch (sealed segments + WAL tail replay). See
    /// docs/storage.md.
    std::string data_dir;
    /// When a commit's WAL write reaches stable media (storage/wal.h):
    /// kAlways fsyncs per commit, kInterval at most once per
    /// `sync_interval_ms`, kNever leaves flushing to the OS.
    storage::SyncMode sync_mode = storage::SyncMode::kAlways;
    uint32_t sync_interval_ms = 100;
    /// Seal the stack and rotate the WAL once the log outgrows this.
    uint64_t checkpoint_wal_bytes = 64ull << 20;
  };

  /// Takes ownership of `edb` and publishes it as the epoch-0 segment.
  /// `u` must be the Universe the instance's paths are interned in and
  /// must outlive the Database. (Two overloads rather than a default
  /// argument: GCC rejects defaulted nested-aggregate arguments inside
  /// the enclosing class.)
  static Result<Database> Open(Universe& u, Instance edb,
                               const OpenOptions& opts);
  static Result<Database> Open(Universe& u, Instance edb);

  /// Durable open without a seed instance: recovers an initialized
  /// `opts.data_dir` to its last committed epoch, or initializes a
  /// fresh directory with an empty EDB. `opts.data_dir` must be
  /// non-empty. The Instance overload above also accepts a data_dir,
  /// but only to *initialize* a fresh directory from `edb` — opening
  /// an already-initialized directory with a non-empty seed fails with
  /// kIoError [SD405] rather than guessing whether to merge or ignore.
  static Result<Database> Open(Universe& u, const OpenOptions& opts);

  /// True when `dir` holds an initialized data directory (a CURRENT
  /// pointer): Open will recover rather than initialize.
  static bool DataDirInitialized(const std::string& dir);

  // Moves and the destructor are defined out of line: DbState holds the
  // (forward-declared) ViewManager by unique_ptr.
  Database(Database&&) noexcept;
  Database& operator=(Database&&) noexcept;
  ~Database();
  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  /// An epoch-pinned view of the database: the returned session reads
  /// exactly the facts committed as of now, forever, regardless of later
  /// Append/Commit/Compact calls. Any number may be open at once, from
  /// any threads.
  Session Snapshot() const;

  /// Publishes `delta` as a new immutable segment and bumps the epoch.
  /// Facts already present in the current stack are dropped (segments
  /// stay pairwise disjoint); if nothing remains, no segment is published
  /// and the epoch does not move. Returns the epoch the facts are visible
  /// at, and (optionally) how many facts were actually new — measured
  /// under the writer lock, so it is exact even with concurrent writers.
  /// Serializes with other writers; never blocks readers.
  Result<uint64_t> Append(Instance delta, size_t* appended = nullptr);

  /// Publishes a *tombstone* segment retracting `victims` and bumps the
  /// epoch. Facts not currently visible are dropped (retracting an absent
  /// or already-retracted fact is a no-op); if nothing remains, no
  /// segment is published and the epoch does not move. Returns the epoch
  /// the retraction is visible at, and (optionally) how many facts were
  /// actually retracted. Serializes with other writers; never blocks
  /// readers — sessions pinned at older epochs keep seeing the facts.
  Result<uint64_t> Retract(Instance victims, size_t* retracted = nullptr);

  /// A batching ingest handle: stage facts with Add/Stage (and
  /// retractions with Retract), publish them with Commit.
  Writer MakeWriter();

  /// Folds all current segments into one merged *fact* segment, applying
  /// tombstones as it goes: the merged stack holds exactly the visible
  /// facts and no tombstone segments, so post-compaction queries pay no
  /// shadow probes at all. The visible fact set and the epoch are
  /// unchanged — compaction is invisible to semantics; it trades one
  /// rebuild for O(1) segment probes afterwards. Open sessions keep their
  /// pinned pre-compaction segments (freed when the last such session
  /// closes). Returns false if there was nothing to fold (one segment or
  /// none). In durable mode the merged segment seals to disk and a new
  /// manifest generation publishes *before* the in-memory swap
  /// (copy-forward-then-swap): on error nothing changes, in memory or
  /// on disk, and the Status carries an SD4xx diagnostic code
  /// (DiagnosticFromStatus renders it). Serializes with other writers.
  Result<bool> Compact();

  /// Runs Compact() iff the OpenOptions policy says the stack is too
  /// deep (auto_compact_segments). Append calls
  /// this after every publish; it is also callable directly.
  Result<bool> MaybeCompact();

  /// Retires the database from ingest: every later Append or
  /// Writer::Commit fails with kFailedPrecondition, and Compact becomes a
  /// no-op. Reads are unaffected — Snapshot() and open sessions keep
  /// serving the final epoch. Idempotent. A draining server closes its
  /// database so late appends cannot land after the final epoch was
  /// reported.
  void Close();
  bool closed() const;

  /// The current epoch: 0 after Open, +1 per published Append/Commit.
  uint64_t epoch() const;
  /// Number of segments in the current stack (1 after Open or Compact).
  size_t NumSegments() const;
  /// Total *visible* facts across the current stack (appended minus
  /// retracted).
  size_t NumFacts() const;
  /// Number of tombstone segments in the current stack (0 right after
  /// Open or Compact — compaction folds every tombstone away).
  size_t NumTombstones() const;

  /// Measured per-(relation, column, index-family) statistics of the
  /// current epoch: every live segment's call_once-cached measurement
  /// merged with everything sessions derived in runs that set
  /// RunOptions::collect_derived_stats. Derived-run measurements age out
  /// as epochs bump (StatsAccumulator::Age), so estimates can shrink
  /// after compaction instead of pinning the all-time max. Feed the
  /// snapshot into CompileOptions::stats — or just call Compile() below —
  /// so the planner ranks access paths by measured selectivity. A
  /// non-null `rels` scopes the snapshot to those relations — a compile
  /// passes its program's relations (AllRels), so its cost does not grow
  /// with everything other programs derived. Thread-safe.
  StoreStats Stats(const std::set<RelId>* rels = nullptr) const;

  /// Compiles `p` against this database's Universe with Stats() scoped
  /// to `p`'s relations as the planner's selectivity input. Equivalent to
  /// Engine::Compile with opts.stats pointed at that snapshot (the
  /// planner reads no other relation). (Two overloads rather than a
  /// default argument, matching Open above.)
  Result<PreparedProgram> Compile(Program p, const CompileOptions& opts) const;
  Result<PreparedProgram> Compile(Program p) const;

  /// The materialized-view subsystem over this database (view/view.h):
  /// per-program derived-IDB snapshots kept current across appends by
  /// delta evaluation instead of re-running the fixpoint. Lazily does
  /// nothing until someone calls ViewManager::Refresh; heap-stable (lives
  /// in DbState), so the reference survives moves of the Database.
  ViewManager& views() const;

  /// Durability counters (manifest generation, on-disk bytes, WAL
  /// length) for DbInfo/kStats replies. All zero for an in-memory
  /// database. Thread-safe (server stats workers race the writer).
  storage::StorageInfo storage_info() const;

  Universe& universe() const { return *state_->universe; }
  /// Materializes the union of the current stack's facts (a copy — the
  /// EDB spans several immutable segments once appends happened).
  Instance edb() const;
  /// The first (oldest / post-compaction merged) segment of the current
  /// stack, for tests and tools. The reference is stable only while no
  /// concurrent writer compacts; single-threaded callers only.
  const BaseStore& base() const;
  /// Number of (relation, column) columns whose indexes exist so far,
  /// summed over the current stack's segments.
  size_t NumIndexedColumns() const;

 private:
  friend class Session;
  friend class ViewManager;
  friend class Writer;

  /// One published version: an immutable, atomically swapped value.
  /// Sessions pin it (and thereby every segment) by shared ownership.
  struct SegmentSet {
    uint64_t epoch = 0;
    std::vector<std::shared_ptr<const BaseStore>> segments;
    /// Parallel to `segments`: the epoch each segment was published at
    /// (0 for the Open segment; compaction stamps the merged segment
    /// with the newest folded stamp). How ViewManager tells the
    /// delta segments apart from the base a view of epoch e already
    /// covers: everything stamped > e is new. A merged segment mixes
    /// facts a view older than its stamp covers with facts it does not,
    /// so compaction raises shrink_floor to the stamp and such views take
    /// the cold path (delta-evaluating the covered facts again would
    /// double their support counts).
    std::vector<uint64_t> segment_epochs;
    /// Parallel to `segments`: what each segment's tuples mean — facts
    /// add, tombstones retract (shadowing all older segments). Filled by
    /// every constructor of a SegmentSet; append-only stacks are all
    /// kFacts.
    std::vector<SegmentKind> segment_kinds;
    /// Delta-maintenance horizon: a view pinned at an epoch <
    /// shrink_floor cannot be delta-maintained, because Compact() folded
    /// segments it covers together with segments (appends or tombstones)
    /// it has not seen — Refresh must fall back to a cold run. Raised by
    /// compaction to the merged segment's stamp; 0 while nothing was
    /// ever compacted.
    uint64_t shrink_floor = 0;
    /// Visible facts (appended minus retracted).
    size_t total_facts = 0;
  };

  /// Heap-stable shared state: the Database object may move while
  /// sessions and writers hold pointers into this.
  struct DbState {
    // Out of line: the unique_ptr<ViewManager> member must only require
    // the complete ViewManager type inside database.cc.
    DbState();
    ~DbState();

    Universe* universe = nullptr;
    OpenOptions opts;
    /// Guards `current` (pointer swap only — never held during index
    /// builds or runs).
    mutable std::mutex mu;
    std::shared_ptr<const SegmentSet> current;
    /// Serializes Append/Commit/Compact (single-writer).
    std::mutex writer_mu;
    /// Set by Close(): writers fail, readers continue.
    std::atomic<bool> closed{false};
    StatsAccumulator accum;
    /// The materialized-view subsystem (view/view.h); constructed at
    /// Open so views() can hand out a stable reference.
    std::unique_ptr<ViewManager> views;
    /// Durability engine (null for an in-memory database). Mutated only
    /// under writer_mu; storage->info() is internally synchronized.
    std::unique_ptr<storage::StorageEngine> storage;
    /// True while Open replays the WAL tail through the normal commit
    /// path: suppresses WAL logging (the records are already on disk),
    /// auto-compaction and checkpoints (rotating the WAL mid-replay
    /// would drop the records not yet replayed). Only touched during
    /// single-threaded Open.
    bool replaying = false;

    std::shared_ptr<const SegmentSet> Current() const {
      std::lock_guard<std::mutex> lock(mu);
      return current;
    }
    void Publish(std::shared_ptr<const SegmentSet> next) {
      std::lock_guard<std::mutex> lock(mu);
      current = std::move(next);
    }
  };

  explicit Database(std::unique_ptr<DbState> state)
      : state_(std::move(state)) {}

  /// The append path shared by Database::Append and Writer::Commit.
  /// `appended` (may be null) receives the post-dedupe fact count.
  static Result<uint64_t> AppendTo(DbState& state, Instance delta,
                                   size_t* appended);
  /// The retract path shared by Database::Retract and Writer::Commit.
  /// `retracted` (may be null) receives the number of visible facts
  /// actually tombstoned.
  static Result<uint64_t> RetractFrom(DbState& state, Instance victims,
                                      size_t* retracted);
  /// Compact step with writer_mu already held. In durable mode seals
  /// the merged stack before the in-memory swap.
  static Result<bool> CompactLocked(DbState& state);
  static bool PolicyWantsCompaction(const DbState& state,
                                    const SegmentSet& set);
  /// Seals the *given* (about-to-publish or current) stack under a new
  /// manifest generation; writer_mu must be held. No-op in memory-only
  /// mode.
  static Status CheckpointLocked(DbState& state, const SegmentSet& set,
                                 bool rewrite);

  std::unique_ptr<DbState> state_;
};

/// An epoch-pinned snapshot handle over a Database. Copyable and cheap;
/// safe to use from one thread at a time (open one per thread —
/// Snapshot() is free). All runs see exactly the facts of the pinned
/// epoch and write only private overlays; concurrent Append/Commit/
/// Compact on the Database never changes what this session reads. Pins
/// its segments by shared ownership, so moving the Database — or
/// compacting it — does not invalidate open sessions.
class Session {
 public:
  /// Runs `prog` over the pinned epoch's EDB; returns only the derived
  /// IDB facts. `prog` must be compiled against the database's Universe.
  /// With RunOptions::collect_derived_stats set, the run's derived facts
  /// are measured into EvalStats::derived_stats and folded into the
  /// Database's Stats(), so later compiles plan from observed workloads.
  Result<Instance> Run(const PreparedProgram& prog, const RunOptions& opts = {},
                       EvalStats* stats = nullptr) const;

  /// The epoch this session is pinned to.
  uint64_t epoch() const { return pinned_->epoch; }
  /// Segments backing this snapshot (compaction after the pin does not
  /// change this — the pre-compaction stack stays pinned).
  size_t NumSegments() const { return pinned_->segments.size(); }
  /// Total EDB facts visible to this session (appended minus retracted
  /// as of the pinned epoch).
  size_t NumFacts() const { return pinned_->total_facts; }
  /// Materializes the visible facts of the pinned stack (a copy):
  /// fact segments union in, tombstone segments remove.
  Instance edb() const;
  /// As above, restricted to `rels`: only their facts are copied.
  Instance edb(const std::vector<RelId>& rels) const;

 private:
  friend class Database;
  Session(Universe& u, std::shared_ptr<const Database::SegmentSet> pinned,
          StatsAccumulator* accum)
      : universe_(&u), pinned_(std::move(pinned)), accum_(accum) {}

  Universe* universe_;
  std::shared_ptr<const Database::SegmentSet> pinned_;
  /// The owning Database's derived-stats accumulator (heap-stable).
  StatsAccumulator* accum_;
};

/// A batching ingest handle: stage any number of facts (and
/// retractions), then publish them with Commit() — staged appends as one
/// fact segment, staged retractions as one tombstone segment right after
/// (up to two epoch bumps). One writer per thread; Commit serializes
/// against other writers and against Append/Retract/Compact on the
/// Database. The Writer must not outlive its Database.
class Writer {
 public:
  /// Stages one fact. Returns true if it was new among the staged facts
  /// (duplicates against the database resolve at Commit).
  bool Add(RelId rel, Tuple t) { return staged_.Add(rel, std::move(t)); }
  /// Stages every fact of `facts`.
  void Stage(const Instance& facts) { staged_.UnionWith(facts); }
  void Stage(Instance&& facts) { staged_.UnionWith(std::move(facts)); }

  /// Stages one retraction. Returns true if it was new among the staged
  /// retractions. Retractions publish *after* the staged appends, so a
  /// fact both staged and retracted in the same batch ends up retracted.
  bool Retract(RelId rel, Tuple t) {
    return retract_staged_.Add(rel, std::move(t));
  }

  size_t NumStaged() const { return staged_.NumFacts(); }
  size_t NumStagedRetractions() const { return retract_staged_.NumFacts(); }

  /// Publishes the staged facts as one new segment, then the staged
  /// retractions as one tombstone segment, and clears both staging
  /// areas. Returns the epoch everything is visible at (the current
  /// epoch unchanged when nothing staged had any effect).
  Result<uint64_t> Commit();

 private:
  friend class Database;
  explicit Writer(Database::DbState* state) : state_(state) {}

  Database::DbState* state_;
  Instance staged_;
  Instance retract_staged_;
};

}  // namespace seqdl

#endif  // SEQDL_ENGINE_DATABASE_H_
