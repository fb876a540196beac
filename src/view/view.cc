#include "src/view/view.h"

#include <set>
#include <utility>
#include <vector>

#include "src/syntax/ast.h"

namespace seqdl {

namespace {

/// Rough per-fact heap cost beyond the PathId payload: the TupleSet node,
/// hash bucket slot, and vector header. An estimate feeding cache
/// accounting, never semantics.
constexpr size_t kPerFactOverhead = 48;

size_t ApproxInstanceBytes(const Instance& idb) {
  size_t bytes = 0;
  for (RelId rel : idb.Relations()) {
    const TupleSet& ts = idb.Tuples(rel);
    if (ts.empty()) continue;
    // Every tuple of a relation has the declared arity, so one sample
    // prices them all — the estimate stays O(#relations) per refresh.
    bytes +=
        ts.size() * (ts.begin()->size() * sizeof(PathId) + kPerFactOverhead);
  }
  return bytes;
}

/// Restricts cold-run support counts to the tuples that actually ended up
/// in the view (DeriveHead also counts firings whose head tuple was
/// already EDB; those facts are not view state).
SharedSupport PruneSupport(SupportCounts&& counts, const Instance& idb) {
  SharedSupport out;
  for (auto& [rel, m] : counts) {
    const TupleSet& have = idb.Tuples(rel);
    if (have.empty()) continue;
    auto dst =
        std::make_shared<std::unordered_map<Tuple, uint32_t, TupleHash>>();
    dst->reserve(have.size());
    for (auto& [t, n] : m) {
      if (have.count(t) != 0) dst->emplace(t, n);
    }
    if (!dst->empty()) out.emplace(rel, std::move(dst));
  }
  return out;
}

/// Merges carried-over and fresh counts for a delta refresh: maintained
/// strata keep their stored counts plus any new derivation events minus
/// the DRed deletion phase's decrements; recomputed strata start over
/// from the fresh events alone. Restricted to the new view's tuples
/// either way. A maintained relation the delta pass neither fired into
/// nor decremented shares the previous snapshot's map outright — no new
/// tuples means no new counts, and an unchanged tuple count rules out
/// EDB promotion, so the carried map is exactly right as is.
SharedSupport CombineSupport(const Instance& idb, const SupportCounts& fresh,
                             const SupportCounts& decrements,
                             const SharedSupport& old,
                             const std::set<RelId>& recomputed_rels) {
  SharedSupport out;
  for (RelId rel : idb.Relations()) {
    const TupleSet& have = idb.Tuples(rel);
    if (have.empty()) continue;
    const auto fit = fresh.find(rel);
    const bool has_fresh = fit != fresh.end() && !fit->second.empty();
    const auto dit = decrements.find(rel);
    const bool has_dec = dit != decrements.end() && !dit->second.empty();
    const auto oit = old.find(rel);
    const bool carry = recomputed_rels.count(rel) == 0;
    const auto* old_map =
        (carry && oit != old.end()) ? oit->second.get() : nullptr;
    // Every new tuple comes from a rule firing the delta pass counted, so
    // no fresh events = no additions; equal sizes then rule out the only
    // other change (adopted facts dropped by EDB promotion). Share.
    if (!has_fresh && !has_dec && old_map != nullptr &&
        old_map->size() == have.size()) {
      out.emplace(rel, oit->second);
      continue;
    }
    if (old_map != nullptr) {
      // Carried counts with changes: copy the old map wholesale and
      // patch it, rather than re-probing three hash tables per view
      // tuple. Merging the fresh events (restricted to view tuples —
      // DeriveHead also counts firings onto EDB facts) covers every
      // addition, so afterwards the copy's keys are a superset of the
      // view's; a size mismatch means EDB promotion or DRed deletion
      // dropped tuples, and exactly the stale keys are erased.
      auto dst = std::make_shared<
          std::unordered_map<Tuple, uint32_t, TupleHash>>(*old_map);
      if (has_fresh) {
        for (const auto& [t, n] : fit->second) {
          if (have.count(t) == 0) continue;
          uint64_t m = static_cast<uint64_t>((*dst)[t]) + n;
          (*dst)[t] =
              m > UINT32_MAX ? UINT32_MAX : static_cast<uint32_t>(m);
        }
      }
      if (has_dec) {
        // Checked, saturating decrement floored at one: a surviving view
        // tuple always keeps a positive count, no matter how far the
        // deletion phase over-decremented it (the floor only ever
        // *undercounts*, whose worst case is a spurious re-derivation
        // check on a later retraction — never a wrong deletion). Tuples
        // the deletion actually removed are erased below, not here.
        for (const auto& [t, n] : dit->second) {
          auto i = dst->find(t);
          if (i == dst->end()) continue;
          i->second = i->second > n ? i->second - n : 1;
        }
      }
      if (dst->size() != have.size()) {
        std::erase_if(*dst, [&](const auto& entry) {
          return have.count(entry.first) == 0;
        });
      }
      out.emplace(rel, std::move(dst));
      continue;
    }
    auto dst =
        std::make_shared<std::unordered_map<Tuple, uint32_t, TupleHash>>();
    dst->reserve(have.size());
    for (const Tuple& t : have) {
      uint64_t n = 0;
      if (has_fresh) {
        auto i = fit->second.find(t);
        if (i != fit->second.end()) n += i->second;
      }
      // Every view tuple has at least one derivation by construction;
      // clamp so the invariant survives saturation and carried gaps.
      if (n == 0) n = 1;
      if (n > UINT32_MAX) n = UINT32_MAX;
      dst->emplace(t, static_cast<uint32_t>(n));
    }
    out.emplace(rel, std::move(dst));
  }
  return out;
}

}  // namespace

Result<std::shared_ptr<const ViewSnapshot>> ViewManager::Refresh(
    const std::string& key, const PreparedProgram& prog,
    const RunOptions& opts, EvalStats* stats) {
  if (&prog.universe() != state_->universe) {
    return Status::InvalidArgument(
        "program was compiled against a different Universe than the "
        "database was opened with");
  }
  // Pin the segment set first: an append racing past after this read
  // makes the refreshed view one epoch stale, never wrong — the next
  // Refresh advances it.
  std::shared_ptr<const Database::SegmentSet> cur = state_->Current();
  std::shared_ptr<const ViewSnapshot> old;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = views_.find(key);
    if (it != views_.end()) old = it->second;
    if (old != nullptr && old->epoch_ == cur->epoch) {
      ++counters_.hits;
      return old;
    }
  }

  // A view pinned below the compaction shrink floor cannot be
  // delta-advanced: compaction folded writes it has never observed into
  // segments it covers, so the stack no longer says which facts are new
  // to it or which of its facts died. Fall back to a cold
  // materialization.
  if (old != nullptr && old->epoch_ < cur->shrink_floor) old = nullptr;

  // Partition the stack by publish stamp: the first `base_prefix`
  // segments are the ones the stored view already covers (stamps are
  // non-decreasing, so the covered base is always a prefix); the suffix
  // is the delta. With no stored view everything is base and a cold run
  // materializes.
  std::vector<const BaseStore*> all;
  all.reserve(cur->segments.size());
  size_t base_prefix = 0;
  bool shrink_delta = false;
  for (size_t i = 0; i < cur->segments.size(); ++i) {
    all.push_back(cur->segments[i].get());
    if (old != nullptr && cur->segment_epochs[i] <= old->epoch_) {
      base_prefix = i + 1;
    } else if (cur->segment_kinds[i] == SegmentKind::kTombstones) {
      shrink_delta = true;
    }
  }

  auto snap = std::make_shared<ViewSnapshot>();
  snap->epoch_ = cur->epoch;
  snap->segments_ = cur->segments.size();
  size_t recomputed_strata = 0;

  // Route derived-stats measurement through a local sink when the caller
  // did not pass one, so it still reaches the database's accumulator
  // (same plumbing as Session::Run).
  EvalStats local;
  EvalStats* sink =
      stats != nullptr ? stats
                       : (opts.collect_derived_stats ? &local : nullptr);

  if (old == nullptr) {
    SupportCounts support;
    RunOptions o = opts;
    o.support = &support;
    // Cold runs must see the stack the way a Session would: tombstone
    // segments hide retracted facts, so pass the kinds alongside the
    // segments (empty kinds would treat everything as facts).
    SEQDL_ASSIGN_OR_RETURN(
        snap->idb_, prog.RunOnStack(all, cur->segment_kinds, o, sink));
    // A full recomputation happened: apply the epoch decays deferred by
    // appends (same contract as Session::Run).
    state_->accum.AgeOnRecompute(StatsAccumulator::kEpochDecay);
    snap->support_ = PruneSupport(std::move(support), snap->idb_);
  } else {
    SupportCounts fresh;
    RunOptions o = opts;
    o.support = &fresh;
    // The deletion phase reads the stored counts through this lookup; 0
    // (unknown) makes the executor fall back to delete-on-first-decrement.
    const SharedSupport& old_support = old->support_;
    SupportLookup lookup = [&old_support](RelId rel,
                                          const Tuple& t) -> uint32_t {
      auto it = old_support.find(rel);
      if (it == old_support.end()) return 0;
      auto jt = it->second->find(t);
      return jt == it->second->end() ? 0 : jt->second;
    };
    SEQDL_ASSIGN_OR_RETURN(
        PreparedProgram::DeltaRun run,
        prog.RunDelta(all, cur->segment_kinds, base_prefix, old->idb_, lookup,
                      o, sink));
    std::set<RelId> recomputed_rels;
    for (size_t s : run.recomputed_strata) {
      for (const Rule& r : prog.program().strata[s].rules) {
        recomputed_rels.insert(r.head.rel);
      }
    }
    recomputed_strata = run.recomputed_strata.size();
    snap->idb_ = std::move(run.idb);
    snap->support_ = CombineSupport(snap->idb_, fresh, run.decrements,
                                    old->support_, recomputed_rels);
  }
  snap->bytes_ = ApproxInstanceBytes(snap->idb_);

  // Record what the view now holds (cold or refreshed — either way the
  // materialized IDB is the current derived shape), so drift-triggered
  // recompilation keeps working in view-serving mode.
  if (opts.collect_derived_stats && sink != nullptr) {
    state_->accum.Record(sink->derived_stats);
  }

  std::lock_guard<std::mutex> lock(mu_);
  if (old == nullptr) {
    ++counters_.cold_runs;
  } else {
    ++counters_.delta_refreshes;
    if (shrink_delta) ++counters_.dred_refreshes;
    counters_.strata_recomputed += recomputed_strata;
  }
  // Publish unless a racing refresh already installed a newer epoch.
  auto& slot = views_[key];
  if (slot == nullptr || slot->epoch_ <= snap->epoch_) slot = snap;
  return std::shared_ptr<const ViewSnapshot>(snap);
}

std::shared_ptr<const ViewSnapshot> ViewManager::Lookup(
    const std::string& key) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = views_.find(key);
  return it == views_.end() ? nullptr : it->second;
}

void ViewManager::Invalidate(const std::string& key) {
  std::lock_guard<std::mutex> lock(mu_);
  views_.erase(key);
}

void ViewManager::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  views_.clear();
}

size_t ViewManager::NumViews() const {
  std::lock_guard<std::mutex> lock(mu_);
  return views_.size();
}

ViewManager::Counters ViewManager::counters() const {
  std::lock_guard<std::mutex> lock(mu_);
  return counters_;
}

}  // namespace seqdl
