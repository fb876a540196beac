#include "src/engine/database.h"

#include <algorithm>
#include <utility>

#include "src/storage/format.h"
#include "src/view/view.h"

namespace seqdl {

Database::Database(Database&&) noexcept = default;
Database& Database::operator=(Database&&) noexcept = default;
Database::~Database() = default;
Database::DbState::DbState() = default;
Database::DbState::~DbState() = default;

namespace {

/// True iff (rel, t) is *visible* in the stack: the newest segment
/// holding it decides — a fact segment means present, a tombstone means
/// retracted (the per-fact flip invariant, see the header comment).
bool StackVisible(const std::vector<std::shared_ptr<const BaseStore>>& segs,
                  const std::vector<SegmentKind>& kinds, RelId rel,
                  const Tuple& t) {
  for (size_t i = segs.size(); i-- > 0;) {
    if (segs[i]->Contains(rel, t)) {
      return kinds[i] == SegmentKind::kFacts;
    }
  }
  return false;
}

/// Materializes the visible facts of a stack: fact segments union in,
/// tombstone segments remove (forward walk — a later fact re-appends).
/// With `only`, just the facts of those relations are copied.
Instance MaterializeVisible(
    const std::vector<std::shared_ptr<const BaseStore>>& segs,
    const std::vector<SegmentKind>& kinds,
    const std::vector<RelId>* only = nullptr) {
  Instance out;
  for (size_t i = 0; i < segs.size(); ++i) {
    const Instance& inst = segs[i]->instance();
    if (kinds[i] == SegmentKind::kFacts) {
      if (only == nullptr) {
        out.UnionWith(inst);
      } else {
        for (RelId rel : *only) out.AddAll(rel, inst.Tuples(rel));
      }
      continue;
    }
    for (RelId rel : only != nullptr ? *only : inst.Relations()) {
      for (const Tuple& t : inst.Tuples(rel)) {
        out.Remove(rel, t);
      }
    }
  }
  return out;
}

}  // namespace

Result<Database> Database::Open(Universe& u, Instance edb,
                                const OpenOptions& opts) {
  std::unique_ptr<storage::StorageEngine> engine;
  if (!opts.data_dir.empty()) {
    storage::StorageOptions sopts;
    sopts.dir = opts.data_dir;
    sopts.sync_mode = opts.sync_mode;
    sopts.sync_interval_ms = opts.sync_interval_ms;
    sopts.checkpoint_wal_bytes = opts.checkpoint_wal_bytes;
    SEQDL_ASSIGN_OR_RETURN(engine, storage::StorageEngine::Open(u, sopts));
    if (engine->recovered() && !edb.Empty()) {
      return storage::StorageError(
          storage::kSdDataDirConflict,
          opts.data_dir +
              " is already initialized; open it without a seed instance "
              "(the recovered EDB is authoritative) or point at a fresh "
              "directory");
    }
  }

  auto state = std::make_unique<DbState>();
  state->universe = &u;
  state->opts = opts;

  if (engine != nullptr && engine->recovered()) {
    // Rebuild the published stack exactly as the manifest describes it,
    // bottom-of-stack first, then replay the WAL tail through the
    // normal commit path (re-deduping is deterministic on the effective
    // batches the log holds, so the stack converges to the crash-time
    // structure).
    auto set = std::make_shared<SegmentSet>();
    set->epoch = engine->recovered_epoch();
    set->shrink_floor = engine->recovered_shrink_floor();
    for (storage::SealedSegment& sealed : engine->sealed()) {
      size_t facts = sealed.facts.NumFacts();
      auto segment =
          std::make_shared<BaseStore>(u, std::move(sealed.facts));
      set->segments.push_back(std::move(segment));
      set->segment_epochs.push_back(sealed.stamp);
      set->segment_kinds.push_back(sealed.kind);
      if (sealed.kind == SegmentKind::kFacts) {
        set->total_facts += facts;
      } else {
        set->total_facts -= facts;
      }
    }
    engine->sealed().clear();
    state->current = std::move(set);
    state->views.reset(new ViewManager(*state));
    state->storage = std::move(engine);

    state->replaying = true;
    DbState* raw = state.get();
    Result<storage::WalReplay> replay = state->storage->ReplayTail(
        u, [raw](storage::WalRecordType type, Instance batch) -> Status {
          Result<uint64_t> applied =
              type == storage::WalRecordType::kAppend
                  ? AppendTo(*raw, std::move(batch), nullptr)
                  : RetractFrom(*raw, std::move(batch), nullptr);
          return applied.ok() ? Status::OK() : applied.status();
        });
    state->replaying = false;
    if (!replay.ok()) return replay.status();

    Database db(std::move(state));
    // Housekeeping deferred while replaying: fold the stack if policy
    // wants it, and seal a replayed tail that already outgrew the log
    // threshold. Best effort — the database is consistent either way.
    (void)db.MaybeCompact();
    {
      std::lock_guard<std::mutex> writer(db.state_->writer_mu);
      if (db.state_->storage->WantsCheckpoint()) {
        (void)CheckpointLocked(*db.state_, *db.state_->Current(),
                               /*rewrite=*/false);
      }
    }
    return db;
  }

  // Fresh open (in-memory, or initializing a new data directory).
  auto segment = std::make_shared<BaseStore>(u, std::move(edb));
  auto set = std::make_shared<SegmentSet>();
  set->epoch = 0;
  set->total_facts = segment->instance().NumFacts();
  set->segments.push_back(std::move(segment));
  set->segment_epochs.push_back(0);
  set->segment_kinds.push_back(SegmentKind::kFacts);
  state->current = std::move(set);
  state->views.reset(new ViewManager(*state));
  if (engine != nullptr) {
    state->storage = std::move(engine);
    // Initial checkpoint: seal the seed segment and create the WAL so
    // the first commit has a log to land in. Publishes generation 1.
    SEQDL_RETURN_IF_ERROR(
        CheckpointLocked(*state, *state->current, /*rewrite=*/true));
  }
  return Database(std::move(state));
}

Result<Database> Database::Open(Universe& u, Instance edb) {
  return Open(u, std::move(edb), OpenOptions());
}

Result<Database> Database::Open(Universe& u, const OpenOptions& opts) {
  if (opts.data_dir.empty()) {
    return Status::InvalidArgument(
        "Database::Open(u, opts) requires OpenOptions::data_dir; use the "
        "Instance overload for an in-memory database");
  }
  return Open(u, Instance{}, opts);
}

bool Database::DataDirInitialized(const std::string& dir) {
  Result<bool> exists = storage::FileExists(dir + "/CURRENT");
  return exists.ok() && *exists;
}

Session Database::Snapshot() const {
  return Session(*state_->universe, state_->Current(), &state_->accum);
}

Writer Database::MakeWriter() { return Writer(state_.get()); }

Result<uint64_t> Database::AppendTo(DbState& state, Instance delta,
                                    size_t* appended) {
  if (appended != nullptr) *appended = 0;
  std::lock_guard<std::mutex> writer(state.writer_mu);
  if (state.closed.load(std::memory_order_relaxed)) {
    return Status::FailedPrecondition(
        "database is closed: no further appends or commits");
  }
  std::shared_ptr<const SegmentSet> cur = state.Current();

  // Dedupe against what is currently *visible*, which keeps the per-fact
  // flip invariant: a fact's occurrences in stack order alternate
  // fact/tombstone/…, so visibility is decided by the newest occurrence
  // and visible enumeration across segments yields each fact exactly
  // once. (Re-appending a retracted fact is legal and publishes a fresh
  // occurrence above its tombstone.)
  Instance fresh;
  for (RelId rel : delta.Relations()) {
    for (const Tuple& t : delta.Tuples(rel)) {
      if (!StackVisible(cur->segments, cur->segment_kinds, rel, t)) {
        fresh.Add(rel, t);
      }
    }
  }
  if (fresh.Empty()) return cur->epoch;  // nothing new: the epoch holds

  // Durability point: the effective (post-dedupe) batch hits the WAL
  // before anything publishes. On error nothing is published — the
  // commit never happened, in memory or on disk. Replay skips this
  // (the record being replayed is already on disk).
  if (state.storage != nullptr && !state.replaying) {
    SEQDL_RETURN_IF_ERROR(state.storage->LogCommit(
        storage::WalRecordType::kAppend, *state.universe, fresh));
  }

  size_t fresh_facts = fresh.NumFacts();
  if (appended != nullptr) *appended = fresh_facts;
  auto segment =
      std::make_shared<BaseStore>(*state.universe, std::move(fresh));

  auto next = std::make_shared<SegmentSet>();
  next->epoch = cur->epoch + 1;
  next->segments = cur->segments;
  next->segments.push_back(std::move(segment));
  next->segment_epochs = cur->segment_epochs;
  next->segment_epochs.push_back(next->epoch);
  next->segment_kinds = cur->segment_kinds;
  next->segment_kinds.push_back(SegmentKind::kFacts);
  next->shrink_floor = cur->shrink_floor;
  next->total_facts = cur->total_facts + fresh_facts;
  uint64_t epoch = next->epoch;
  state.Publish(std::move(next));

  // The data moved: note the epoch so the accumulated derived-run
  // measurements decay once something actually re-derives (deferred —
  // see StatsAccumulator::NoteEpoch; a maintained view serving across
  // appends is not fresh evidence that the derived shape drifted).
  state.accum.NoteEpoch();

  // Post-publish housekeeping, deferred during replay (a checkpoint
  // would rotate the WAL out from under the records still replaying).
  // Failures are swallowed: the append above is already durable and
  // published, the stack just stays deep until a caller-visible
  // Compact() surfaces the error.
  if (!state.replaying) {
    if (PolicyWantsCompaction(state, *state.Current())) {
      (void)CompactLocked(state);
    } else if (state.storage != nullptr && state.storage->WantsCheckpoint()) {
      (void)CheckpointLocked(state, *state.Current(), /*rewrite=*/false);
    }
  }
  return epoch;
}

Result<uint64_t> Database::Append(Instance delta, size_t* appended) {
  return AppendTo(*state_, std::move(delta), appended);
}

Result<uint64_t> Database::RetractFrom(DbState& state, Instance victims,
                                       size_t* retracted) {
  if (retracted != nullptr) *retracted = 0;
  std::lock_guard<std::mutex> writer(state.writer_mu);
  if (state.closed.load(std::memory_order_relaxed)) {
    return Status::FailedPrecondition(
        "database is closed: no further retractions");
  }
  std::shared_ptr<const SegmentSet> cur = state.Current();

  // Restrict to facts currently visible — the flip invariant's other
  // half: a tombstone is only ever published above a visible fact, so
  // occurrences keep alternating and tombstone segments stay pairwise
  // disjoint from each other at equal visibility depth.
  Instance hits;
  for (RelId rel : victims.Relations()) {
    for (const Tuple& t : victims.Tuples(rel)) {
      if (StackVisible(cur->segments, cur->segment_kinds, rel, t)) {
        hits.Add(rel, t);
      }
    }
  }
  if (hits.Empty()) return cur->epoch;  // nothing visible: epoch holds

  // Durability point, as in AppendTo.
  if (state.storage != nullptr && !state.replaying) {
    SEQDL_RETURN_IF_ERROR(state.storage->LogCommit(
        storage::WalRecordType::kRetract, *state.universe, hits));
  }

  size_t hit_facts = hits.NumFacts();
  if (retracted != nullptr) *retracted = hit_facts;
  auto segment =
      std::make_shared<BaseStore>(*state.universe, std::move(hits));

  auto next = std::make_shared<SegmentSet>();
  next->epoch = cur->epoch + 1;
  next->segments = cur->segments;
  next->segments.push_back(std::move(segment));
  next->segment_epochs = cur->segment_epochs;
  next->segment_epochs.push_back(next->epoch);
  next->segment_kinds = cur->segment_kinds;
  next->segment_kinds.push_back(SegmentKind::kTombstones);
  next->shrink_floor = cur->shrink_floor;
  next->total_facts = cur->total_facts - hit_facts;
  uint64_t epoch = next->epoch;
  state.Publish(std::move(next));

  // A shrink is drift evidence exactly like an append: note the epoch so
  // cached plans recompile off smaller estimates once something
  // re-derives (satellite of the shrink-blindness fix — Stats() also
  // discounts tombstones directly).
  state.accum.NoteEpoch();

  if (!state.replaying) {
    if (PolicyWantsCompaction(state, *state.Current())) {
      (void)CompactLocked(state);
    } else if (state.storage != nullptr && state.storage->WantsCheckpoint()) {
      (void)CheckpointLocked(state, *state.Current(), /*rewrite=*/false);
    }
  }
  return epoch;
}

Result<uint64_t> Database::Retract(Instance victims, size_t* retracted) {
  return RetractFrom(*state_, std::move(victims), retracted);
}

bool Database::PolicyWantsCompaction(const DbState& state,
                                     const SegmentSet& set) {
  const size_t limit = state.opts.auto_compact_segments;
  return limit != 0 && set.segments.size() > limit;
}

Status Database::CheckpointLocked(DbState& state, const SegmentSet& set,
                                  bool rewrite) {
  if (state.storage == nullptr) return Status::OK();
  std::vector<storage::CheckpointSegment> stack;
  stack.reserve(set.segments.size());
  for (size_t i = 0; i < set.segments.size(); ++i) {
    storage::CheckpointSegment seg;
    seg.facts = &set.segments[i]->instance();
    seg.kind = set.segment_kinds[i];
    seg.stamp = set.segment_epochs[i];
    stack.push_back(seg);
  }
  return state.storage->Checkpoint(*state.universe, set.epoch,
                                   set.shrink_floor, stack, rewrite);
}

Result<bool> Database::CompactLocked(DbState& state) {
  std::shared_ptr<const SegmentSet> cur = state.Current();
  if (cur->segments.size() <= 1) return false;

  // Apply the stack in order, copying (not moving) the segment instances:
  // open sessions still pin them. Tombstones apply and vanish — the
  // merged segment holds exactly the visible facts.
  Instance merged =
      MaterializeVisible(cur->segments, cur->segment_kinds);
  auto segment =
      std::make_shared<BaseStore>(*state.universe, std::move(merged));

  auto next = std::make_shared<SegmentSet>();
  next->epoch = cur->epoch;  // same facts, same epoch: semantics unchanged
  next->total_facts = segment->instance().NumFacts();
  next->segments.push_back(std::move(segment));
  // The merged segment keeps the newest folded publish stamp, so views at
  // least that fresh still see it as covered base. An older view covers
  // part of the merged facts and not the rest, and the merged segment no
  // longer says which: delta-evaluating all of it would count the covered
  // facts' derivations a second time (inflating the support DRed relies
  // on), and a folded tombstone's retractions would be lost outright.
  // Raise the delta-maintenance floor to the stamp so Refresh falls back
  // to a cold run for every view older than the merged segment.
  const uint64_t stamp =
      *std::max_element(cur->segment_epochs.begin(), cur->segment_epochs.end());
  next->segment_epochs.push_back(stamp);
  next->segment_kinds.push_back(SegmentKind::kFacts);
  next->shrink_floor = std::max(cur->shrink_floor, stamp);
  // Copy-forward-then-swap: in durable mode the merged segment seals to
  // disk and the new manifest generation publishes *first*. A failure —
  // or a crash anywhere inside — leaves CURRENT naming the old
  // generation and the in-memory stack untouched; open sessions keep
  // their pins either way (segments are shared_ptr-owned in memory, not
  // read through the deleted files).
  SEQDL_RETURN_IF_ERROR(CheckpointLocked(state, *next, /*rewrite=*/true));
  state.Publish(std::move(next));
  return true;
}

Result<bool> Database::Compact() {
  std::lock_guard<std::mutex> writer(state_->writer_mu);
  if (state_->closed.load(std::memory_order_relaxed)) return false;
  return CompactLocked(*state_);
}

Result<bool> Database::MaybeCompact() {
  std::lock_guard<std::mutex> writer(state_->writer_mu);
  if (state_->closed.load(std::memory_order_relaxed)) return false;
  if (!PolicyWantsCompaction(*state_, *state_->Current())) return false;
  return CompactLocked(*state_);
}

void Database::Close() {
  // Take the writer mutex so Close() serializes behind any in-flight
  // append: after Close() returns, the published epoch is final.
  std::lock_guard<std::mutex> writer(state_->writer_mu);
  if (!state_->closed.load(std::memory_order_relaxed) &&
      state_->storage != nullptr &&
      state_->storage->info().wal_bytes > 0) {
    // Seal the WAL tail so the next Open skips replay. Best effort —
    // on failure the WAL itself still recovers everything.
    (void)CheckpointLocked(*state_, *state_->Current(), /*rewrite=*/false);
  }
  state_->closed.store(true, std::memory_order_relaxed);
}

bool Database::closed() const {
  return state_->closed.load(std::memory_order_relaxed);
}

uint64_t Database::epoch() const { return state_->Current()->epoch; }

size_t Database::NumSegments() const {
  return state_->Current()->segments.size();
}

size_t Database::NumFacts() const { return state_->Current()->total_facts; }

size_t Database::NumTombstones() const {
  std::shared_ptr<const SegmentSet> cur = state_->Current();
  size_t n = 0;
  for (SegmentKind k : cur->segment_kinds) {
    if (k == SegmentKind::kTombstones) ++n;
  }
  return n;
}

StoreStats Database::Stats(const std::set<RelId>* rels) const {
  std::shared_ptr<const SegmentSet> cur = state_->Current();
  StoreStats stats;
  // Per-segment measurements are call_once-cached inside each BaseStore.
  // Fact segments sum (visible enumeration yields each fact once modulo
  // the documented shared-key bucket overcount); tombstone segments
  // *discount* — each tombstoned fact was measured exactly once in an
  // older fact segment, so subtracting makes a shrink visible to
  // StatsDrift instead of leaving cached plans ranked off stale, larger
  // relations.
  StoreStats discount;
  for (size_t i = 0; i < cur->segments.size(); ++i) {
    if (cur->segment_kinds[i] == SegmentKind::kFacts) {
      stats.MergeFrom(cur->segments[i]->Stats(), rels);
    } else {
      discount.MergeFrom(cur->segments[i]->Stats(), rels);
    }
  }
  stats.DiscountFrom(discount);
  stats.MergeFrom(state_->accum.Snapshot(rels));
  return stats;
}

Result<PreparedProgram> Database::Compile(Program p,
                                          const CompileOptions& opts) const {
  const std::set<RelId> rels = AllRels(p);
  StoreStats stats = Stats(&rels);
  CompileOptions with_stats = opts;
  with_stats.stats = &stats;
  return Engine::Compile(*state_->universe, std::move(p), with_stats);
}

Result<PreparedProgram> Database::Compile(Program p) const {
  return Compile(std::move(p), CompileOptions());
}

ViewManager& Database::views() const { return *state_->views; }

storage::StorageInfo Database::storage_info() const {
  return state_->storage != nullptr ? state_->storage->info()
                                    : storage::StorageInfo{};
}

Instance Database::edb() const {
  std::shared_ptr<const SegmentSet> cur = state_->Current();
  return MaterializeVisible(cur->segments, cur->segment_kinds);
}

const BaseStore& Database::base() const {
  return *state_->Current()->segments.front();
}

size_t Database::NumIndexedColumns() const {
  std::shared_ptr<const SegmentSet> cur = state_->Current();
  size_t n = 0;
  for (const auto& seg : cur->segments) {
    n += seg->NumIndexedColumns();
  }
  return n;
}

Result<Instance> Session::Run(const PreparedProgram& prog,
                              const RunOptions& opts,
                              EvalStats* stats) const {
  if (&prog.universe() != universe_) {
    return Status::InvalidArgument(
        "program was compiled against a different Universe than the "
        "database was opened with");
  }
  std::vector<const BaseStore*> segments;
  segments.reserve(pinned_->segments.size());
  for (const auto& seg : pinned_->segments) segments.push_back(seg.get());
  // RunOnStack fills EvalStats::derived_stats when asked; route it
  // through a local EvalStats if the caller did not pass one, so the
  // measurement still reaches the database's accumulator.
  EvalStats local;
  EvalStats* sink =
      stats != nullptr ? stats
                       : (opts.collect_derived_stats ? &local : nullptr);
  Result<Instance> out =
      prog.RunOnStack(segments, pinned_->segment_kinds, opts, sink);
  if (out.ok() && accum_ != nullptr) {
    // A full recomputation happened: apply any epoch decays deferred by
    // appends, then record what this run actually derived.
    accum_->AgeOnRecompute(StatsAccumulator::kEpochDecay);
    if (opts.collect_derived_stats && sink != nullptr) {
      accum_->Record(sink->derived_stats);
    }
  }
  return out;
}

Instance Session::edb() const {
  return MaterializeVisible(pinned_->segments, pinned_->segment_kinds);
}

Instance Session::edb(const std::vector<RelId>& rels) const {
  return MaterializeVisible(pinned_->segments, pinned_->segment_kinds, &rels);
}

Result<uint64_t> Writer::Commit() {
  Instance batch = std::move(staged_);
  staged_ = Instance{};
  Instance victims = std::move(retract_staged_);
  retract_staged_ = Instance{};
  SEQDL_ASSIGN_OR_RETURN(uint64_t epoch,
                         Database::AppendTo(*state_, std::move(batch),
                                            nullptr));
  if (victims.Empty()) return epoch;
  return Database::RetractFrom(*state_, std::move(victims), nullptr);
}

}  // namespace seqdl
