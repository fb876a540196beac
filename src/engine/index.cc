#include "src/engine/index.h"

#include <cassert>
#include <span>

namespace seqdl {

const std::vector<const Tuple*>& EmptyBucket() {
  static const std::vector<const Tuple*> kEmpty;
  return kEmpty;
}

namespace {

template <typename Key>
const std::vector<const Tuple*>& FindBucket(
    const std::unordered_map<Key, std::vector<const Tuple*>>& buckets,
    Key key) {
  auto it = buckets.find(key);
  if (it == buckets.end()) return EmptyBucket();
  return it->second;
}

// Files one tuple's `col`-th component into all three index families at
// once — the population step of BaseStore::Build, which builds all
// families together in one amortized pass over the EDB. Empty paths have
// no first/last value and land in the whole-value buckets only (they can
// never match a non-empty prefix/suffix anyway).
void IndexTupleColumn(
    const Universe& u, const Tuple& t, uint32_t col,
    std::unordered_map<PathId, std::vector<const Tuple*>>* whole,
    std::unordered_map<Value, std::vector<const Tuple*>>* first,
    std::unordered_map<Value, std::vector<const Tuple*>>* last) {
  if (col >= t.size()) return;
  (*whole)[t[col]].push_back(&t);
  std::span<const Value> path = u.GetPath(t[col]);
  if (!path.empty()) {
    (*first)[path.front()].push_back(&t);
    (*last)[path.back()].push_back(&t);
  }
}

}  // namespace

// --- IndexedInstance ---------------------------------------------------------

bool IndexedInstance::Add(RelId rel, Tuple t) {
  auto [stored, is_new] = base_.Insert(rel, std::move(t));
  if (!is_new) return false;
  // Update every built index of this relation.
  for (auto it = indexes_.lower_bound({rel, 0});
       it != indexes_.end() && it->first.first == rel; ++it) {
    uint32_t col = it->first.second;
    if (col < stored->size()) {
      it->second.buckets[(*stored)[col]].push_back(stored);
    }
  }
  for (auto it = first_indexes_.lower_bound({rel, 0});
       it != first_indexes_.end() && it->first.first == rel; ++it) {
    uint32_t col = it->first.second;
    if (col < stored->size()) {
      std::span<const Value> path = universe_->GetPath((*stored)[col]);
      if (!path.empty()) {
        it->second.buckets[path.front()].push_back(stored);
      }
    }
  }
  for (auto it = last_indexes_.lower_bound({rel, 0});
       it != last_indexes_.end() && it->first.first == rel; ++it) {
    uint32_t col = it->first.second;
    if (col < stored->size()) {
      std::span<const Value> path = universe_->GetPath((*stored)[col]);
      if (!path.empty()) {
        it->second.buckets[path.back()].push_back(stored);
      }
    }
  }
  return true;
}

size_t IndexedInstance::BulkAdd(RelId rel, const TupleSet& tuples) {
  auto has_index = [&](const auto& m) {
    auto it = m.lower_bound({rel, 0});
    return it != m.end() && it->first.first == rel;
  };
  if (has_index(indexes_) || has_index(first_indexes_) ||
      has_index(last_indexes_)) {
    size_t added = 0;
    for (const Tuple& t : tuples) {
      if (Add(rel, t)) ++added;
    }
    return added;
  }
  return base_.AddAll(rel, tuples);
}

bool IndexedInstance::Remove(RelId rel, const Tuple& t) {
  const TupleSet& tuples = base_.Tuples(rel);
  auto stored_it = tuples.find(t);
  if (stored_it == tuples.end()) return false;
  // Bucket entries are pointers to the stored tuple; resolve the address
  // before the instance erases it.
  const Tuple* stored = &*stored_it;
  auto erase_from = [](std::vector<const Tuple*>& bucket, const Tuple* p) {
    for (size_t i = 0; i < bucket.size(); ++i) {
      if (bucket[i] == p) {
        bucket[i] = bucket.back();
        bucket.pop_back();
        return;
      }
    }
  };
  for (auto it = indexes_.lower_bound({rel, 0});
       it != indexes_.end() && it->first.first == rel; ++it) {
    uint32_t col = it->first.second;
    if (col >= stored->size()) continue;
    auto b = it->second.buckets.find((*stored)[col]);
    if (b != it->second.buckets.end()) erase_from(b->second, stored);
  }
  for (auto it = first_indexes_.lower_bound({rel, 0});
       it != first_indexes_.end() && it->first.first == rel; ++it) {
    uint32_t col = it->first.second;
    if (col >= stored->size()) continue;
    std::span<const Value> path = universe_->GetPath((*stored)[col]);
    if (path.empty()) continue;
    auto b = it->second.buckets.find(path.front());
    if (b != it->second.buckets.end()) erase_from(b->second, stored);
  }
  for (auto it = last_indexes_.lower_bound({rel, 0});
       it != last_indexes_.end() && it->first.first == rel; ++it) {
    uint32_t col = it->first.second;
    if (col >= stored->size()) continue;
    std::span<const Value> path = universe_->GetPath((*stored)[col]);
    if (path.empty()) continue;
    auto b = it->second.buckets.find(path.back());
    if (b != it->second.buckets.end()) erase_from(b->second, stored);
  }
  return base_.Remove(rel, t);
}

const std::vector<const Tuple*>& IndexedInstance::Probe(RelId rel,
                                                        uint32_t col,
                                                        PathId key) {
  auto [it, built_now] = indexes_.try_emplace({rel, col});
  if (built_now) {
    for (const Tuple& t : base_.Tuples(rel)) {
      if (col < t.size()) it->second.buckets[t[col]].push_back(&t);
    }
  }
  return FindBucket(it->second.buckets, key);
}

const std::vector<const Tuple*>& IndexedInstance::ProbeFirst(RelId rel,
                                                             uint32_t col,
                                                             Value first) {
  assert(universe_ != nullptr);
  auto [it, built_now] = first_indexes_.try_emplace({rel, col});
  if (built_now) {
    for (const Tuple& t : base_.Tuples(rel)) {
      if (col >= t.size()) continue;
      std::span<const Value> path = universe_->GetPath(t[col]);
      if (!path.empty()) it->second.buckets[path.front()].push_back(&t);
    }
  }
  return FindBucket(it->second.buckets, first);
}

const std::vector<const Tuple*>& IndexedInstance::ProbeLast(RelId rel,
                                                            uint32_t col,
                                                            Value last) {
  assert(universe_ != nullptr);
  auto [it, built_now] = last_indexes_.try_emplace({rel, col});
  if (built_now) {
    for (const Tuple& t : base_.Tuples(rel)) {
      if (col >= t.size()) continue;
      std::span<const Value> path = universe_->GetPath(t[col]);
      if (!path.empty()) it->second.buckets[path.back()].push_back(&t);
    }
  }
  return FindBucket(it->second.buckets, last);
}

// --- BaseStore ---------------------------------------------------------------

BaseStore::BaseStore(const Universe& u, Instance edb)
    : universe_(&u), edb_(std::move(edb)) {
  // Fix the slot table now: one slot per (relation, column) of the EDB.
  // ColSlot is immovable (once_flag), so each vector is sized once here
  // and never resized.
  for (RelId rel : edb_.Relations()) {
    slots_.emplace(std::piecewise_construct, std::forward_as_tuple(rel),
                   std::forward_as_tuple(u.RelArity(rel)));
  }
}

const BaseStore::ColSlot* BaseStore::Slot(RelId rel, uint32_t col) const {
  auto it = slots_.find(rel);
  if (it == slots_.end() || col >= it->second.size()) return nullptr;
  return &it->second[col];
}

void BaseStore::Build(RelId rel, const ColSlot& slot, uint32_t col) const {
  std::call_once(slot.once, [&] {
    // The slot table is logically mutable index state over the immutable
    // EDB; call_once makes the build exclusive and publishes the maps to
    // every later prober.
    ColSlot& s = const_cast<ColSlot&>(slot);
    for (const Tuple& t : edb_.Tuples(rel)) {
      IndexTupleColumn(*universe_, t, col, &s.whole, &s.first, &s.last);
    }
    s.built.store(true, std::memory_order_relaxed);
  });
}

const std::vector<const Tuple*>& BaseStore::Probe(RelId rel, uint32_t col,
                                                  PathId key) const {
  const ColSlot* slot = Slot(rel, col);
  if (slot == nullptr) return EmptyBucket();
  Build(rel, *slot, col);
  return FindBucket(slot->whole, key);
}

const std::vector<const Tuple*>& BaseStore::ProbeFirst(RelId rel,
                                                       uint32_t col,
                                                       Value first) const {
  const ColSlot* slot = Slot(rel, col);
  if (slot == nullptr) return EmptyBucket();
  Build(rel, *slot, col);
  return FindBucket(slot->first, first);
}

const std::vector<const Tuple*>& BaseStore::ProbeLast(RelId rel, uint32_t col,
                                                      Value last) const {
  const ColSlot* slot = Slot(rel, col);
  if (slot == nullptr) return EmptyBucket();
  Build(rel, *slot, col);
  return FindBucket(slot->last, last);
}

const StoreStats& BaseStore::Stats() const {
  std::call_once(stats_once_, [&] {
    stats_ = ComputeInstanceStats(*universe_, edb_);
  });
  return stats_;
}

size_t BaseStore::NumIndexedColumns() const {
  size_t n = 0;
  for (const auto& [rel, cols] : slots_) {
    for (const ColSlot& slot : cols) {
      if (slot.built.load(std::memory_order_relaxed)) ++n;
    }
  }
  return n;
}

// --- LayeredStore ------------------------------------------------------------

LayeredStore::LayeredStore(const Universe& u,
                           std::span<const BaseStore* const> segments,
                           std::span<const SegmentKind> kinds)
    : segments_(segments.begin(), segments.end()),
      kinds_(kinds.begin(), kinds.end()),
      overlay_(u, Instance{}) {
  assert(kinds_.empty() || kinds_.size() == segments_.size());
  if (kinds_.empty()) kinds_.assign(segments_.size(), SegmentKind::kFacts);
  size_t num_tombs = 0;
  for (SegmentKind k : kinds_) {
    if (k == SegmentKind::kTombstones) ++num_tombs;
  }
  tombs_.reserve(num_tombs);
  for (size_t i = 0; i < segments_.size(); ++i) {
    if (kinds_[i] == SegmentKind::kTombstones) tombs_.push_back(segments_[i]);
  }
  // A fact layer's shadows are the tombstone segments *after* it in stack
  // order: the suffix of tombs_ past the tombstones already seen. tombs_
  // is fully built above, so these spans never dangle.
  layers_.reserve(segments_.size() - num_tombs);
  size_t tombs_seen = 0;
  for (size_t i = 0; i < segments_.size(); ++i) {
    if (kinds_[i] == SegmentKind::kTombstones) {
      ++tombs_seen;
      continue;
    }
    layers_.push_back(SegmentLayer{
        segments_[i],
        std::span<const BaseStore* const>(tombs_.data() + tombs_seen,
                                          tombs_.size() - tombs_seen)});
  }
}

size_t LayeredStore::Adopt(RelId rel, const TupleSet& tuples,
                           std::span<const BaseStore* const> check,
                           std::span<const SegmentKind> check_kinds) {
  assert(check_kinds.empty() || check_kinds.size() == check.size());
  bool may_overlap = false;
  for (const BaseStore* seg : check) {
    if (!seg->Tuples(rel).empty()) {
      may_overlap = true;
      break;
    }
  }
  if (!may_overlap) return overlay_.BulkAdd(rel, tuples);
  // Visible membership restricted to the check span: the newest check
  // segment holding the fact decides, exactly like ContainsBase.
  auto visible_in_check = [&](const Tuple& t) {
    for (size_t i = check.size(); i-- > 0;) {
      if (check[i]->Contains(rel, t)) {
        return check_kinds.empty() || check_kinds[i] == SegmentKind::kFacts;
      }
    }
    return false;
  };
  size_t added = 0;
  for (const Tuple& t : tuples) {
    if (!visible_in_check(t) && overlay_.Add(rel, t)) ++added;
  }
  return added;
}

// --- DeltaIndexer ------------------------------------------------------------

DeltaIndexer::ColIndexes* DeltaIndexer::Slot(RelId rel, uint32_t col,
                                             const TupleSet** tuples) {
  auto delta_it = delta_->find(rel);
  if (delta_it == delta_->end() || delta_it->second.size() < threshold_) {
    return nullptr;
  }
  *tuples = &delta_it->second;
  return &built_[{rel, col}];
}

const std::vector<const Tuple*>* DeltaIndexer::Probe(RelId rel, uint32_t col,
                                                     PathId key) {
  const TupleSet* tuples = nullptr;
  ColIndexes* idx = Slot(rel, col, &tuples);
  if (idx == nullptr) return nullptr;
  if (!idx->whole_built) {
    idx->whole_built = true;
    for (const Tuple& t : *tuples) {
      if (col < t.size()) idx->whole[t[col]].push_back(&t);
    }
  }
  return &FindBucket(idx->whole, key);
}

const std::vector<const Tuple*>* DeltaIndexer::ProbeFirst(RelId rel,
                                                          uint32_t col,
                                                          Value first) {
  const TupleSet* tuples = nullptr;
  ColIndexes* idx = Slot(rel, col, &tuples);
  if (idx == nullptr) return nullptr;
  if (!idx->first_built) {
    idx->first_built = true;
    for (const Tuple& t : *tuples) {
      if (col >= t.size()) continue;
      std::span<const Value> path = universe_->GetPath(t[col]);
      if (!path.empty()) idx->first[path.front()].push_back(&t);
    }
  }
  return &FindBucket(idx->first, first);
}

const std::vector<const Tuple*>* DeltaIndexer::ProbeLast(RelId rel,
                                                         uint32_t col,
                                                         Value last) {
  const TupleSet* tuples = nullptr;
  ColIndexes* idx = Slot(rel, col, &tuples);
  if (idx == nullptr) return nullptr;
  if (!idx->last_built) {
    idx->last_built = true;
    for (const Tuple& t : *tuples) {
      if (col >= t.size()) continue;
      std::span<const Value> path = universe_->GetPath(t[col]);
      if (!path.empty()) idx->last[path.back()].push_back(&t);
    }
  }
  return &FindBucket(idx->last, last);
}

}  // namespace seqdl
