#include "src/engine/stats.h"

#include <algorithm>
#include <cstdio>
#include <optional>
#include <span>
#include <unordered_map>

#include "src/term/value.h"

namespace seqdl {

namespace {

/// Finalizes one family from a key -> bucket-size count map.
template <typename Key, typename Hash>
FamilyStats Finalize(const std::unordered_map<Key, size_t, Hash>& counts) {
  FamilyStats f;
  f.buckets = counts.size();
  for (const auto& [key, n] : counts) {
    f.entries += n;
    if (n > f.max_bucket) f.max_bucket = n;
  }
  return f;
}

std::string FormatFamily(const char* name, const FamilyStats& f) {
  char buf[128];
  std::snprintf(buf, sizeof(buf),
                "%-5s buckets=%zu entries=%zu mean=%.2f max=%zu", name,
                f.buckets, f.entries, f.MeanBucket(), f.max_bucket);
  return buf;
}

}  // namespace

const ColumnStats* StoreStats::Find(RelId rel, uint32_t col) const {
  auto it = relations.find(rel);
  if (it == relations.end() || col >= it->second.columns.size()) {
    return nullptr;
  }
  return &it->second.columns[col];
}

double StoreStats::EstimateWhole(RelId rel, uint32_t col) const {
  const ColumnStats* c = Find(rel, col);
  return c == nullptr ? kUnknownWhole : c->whole.MeanBucket();
}

double StoreStats::EstimateFirst(RelId rel, uint32_t col) const {
  const ColumnStats* c = Find(rel, col);
  return c == nullptr ? kUnknownFirstLast : c->first.MeanBucket();
}

double StoreStats::EstimateLast(RelId rel, uint32_t col) const {
  const ColumnStats* c = Find(rel, col);
  return c == nullptr ? kUnknownFirstLast : c->last.MeanBucket();
}

double StoreStats::EstimateScan(RelId rel) const {
  auto it = relations.find(rel);
  return it == relations.end() ? kUnknownScan
                               : static_cast<double>(it->second.tuples);
}

void StoreStats::MergeFrom(const StoreStats& other,
                           const std::set<RelId>* only) {
  auto merge = [this](RelId rel, const RelationStats& theirs) {
    RelationStats& mine = relations[rel];
    mine.tuples += theirs.tuples;
    if (mine.columns.size() < theirs.columns.size()) {
      mine.columns.resize(theirs.columns.size());
    }
    for (size_t col = 0; col < theirs.columns.size(); ++col) {
      mine.columns[col].whole.MergeFrom(theirs.columns[col].whole);
      mine.columns[col].first.MergeFrom(theirs.columns[col].first);
      mine.columns[col].last.MergeFrom(theirs.columns[col].last);
    }
  };
  if (only == nullptr) {
    for (const auto& [rel, theirs] : other.relations) merge(rel, theirs);
    return;
  }
  // Look the wanted relations up rather than walk all of `other`.
  for (RelId rel : *only) {
    auto it = other.relations.find(rel);
    if (it != other.relations.end()) merge(rel, it->second);
  }
}

void StoreStats::DiscountFrom(const StoreStats& other) {
  auto floor_sub = [](size_t a, size_t b) { return a > b ? a - b : 0; };
  for (const auto& [rel, theirs] : other.relations) {
    auto it = relations.find(rel);
    if (it == relations.end()) continue;
    RelationStats& mine = it->second;
    mine.tuples = floor_sub(mine.tuples, theirs.tuples);
    if (mine.tuples == 0) {
      relations.erase(it);
      continue;
    }
    size_t cols = std::min(mine.columns.size(), theirs.columns.size());
    for (size_t col = 0; col < cols; ++col) {
      const ColumnStats& t = theirs.columns[col];
      ColumnStats& m = mine.columns[col];
      // Entries subtract exactly (each tombstoned fact was indexed once);
      // bucket counts only shrink when a whole key disappears, which we
      // cannot see from the aggregate — keeping them is the conservative
      // estimate (mean bucket sizes shrink, never inflate).
      m.whole.entries = floor_sub(m.whole.entries, t.whole.entries);
      m.first.entries = floor_sub(m.first.entries, t.first.entries);
      m.last.entries = floor_sub(m.last.entries, t.last.entries);
    }
  }
}

std::string StoreStats::ToString(const Universe& u) const {
  std::string out;
  for (const auto& [rel, rs] : relations) {
    out += u.RelName(rel) + "  tuples=" + std::to_string(rs.tuples) + "\n";
    for (size_t col = 0; col < rs.columns.size(); ++col) {
      const ColumnStats& c = rs.columns[col];
      std::string prefix = "  col " + std::to_string(col) + "  ";
      out += prefix + FormatFamily("whole", c.whole) + "\n";
      out += prefix + FormatFamily("first", c.first) + "\n";
      out += prefix + FormatFamily("last", c.last) + "\n";
    }
  }
  return out;
}

StoreStats ComputeInstanceStats(const Universe& u, const Instance& inst) {
  StoreStats stats;
  for (RelId rel : inst.Relations()) {
    const TupleSet& tuples = inst.Tuples(rel);
    RelationStats rs;
    rs.tuples = tuples.size();
    uint32_t arity = u.RelArity(rel);
    rs.columns.resize(arity);
    for (uint32_t col = 0; col < arity; ++col) {
      std::unordered_map<PathId, size_t, std::hash<PathId>> whole;
      std::unordered_map<Value, size_t, ValueHash> first, last;
      for (const Tuple& t : tuples) {
        if (col >= t.size()) continue;
        ++whole[t[col]];
        std::span<const Value> path = u.GetPath(t[col]);
        if (!path.empty()) {
          ++first[path.front()];
          ++last[path.back()];
        }
      }
      rs.columns[col].whole = Finalize(whole);
      rs.columns[col].first = Finalize(first);
      rs.columns[col].last = Finalize(last);
    }
    stats.relations.emplace(rel, std::move(rs));
  }
  return stats;
}

namespace {

/// The tuple of a ground fact rule (empty body, ground head), else nullopt.
std::optional<Tuple> GroundFact(Universe& u, const Rule& r) {
  if (!r.body.empty()) return std::nullopt;
  Tuple t;
  for (const PathExpr& e : r.head.args) {
    if (!e.IsGround()) return std::nullopt;
    Result<PathId> path = EvalGroundExpr(u, e);
    if (!path.ok()) return std::nullopt;
    t.push_back(*path);
  }
  return t;
}

}  // namespace

void AddProgramFactStats(Universe& u, const Program& p, StoreStats* stats) {
  // Per head relation: its facts so far, or nullopt once a rule that is
  // not a ground fact rules it out (or the stats already know it).
  std::map<RelId, std::optional<Instance>> facts;
  for (const Rule* r : p.AllRules()) {
    auto [it, inserted] = facts.try_emplace(r->head.rel);
    if (inserted && !stats->Knows(r->head.rel)) it->second.emplace();
    if (!it->second) continue;
    if (std::optional<Tuple> t = GroundFact(u, *r)) {
      it->second->Add(r->head.rel, std::move(*t));
    } else {
      it->second.reset();
    }
  }
  for (const auto& [rel, inst] : facts) {
    if (inst) stats->MergeFrom(ComputeInstanceStats(u, *inst));
  }
}

void StoreStats::ObserveMax(const StoreStats& other) {
  for (const auto& [rel, theirs] : other.relations) {
    auto [it, inserted] = relations.try_emplace(rel, theirs);
    if (!inserted && theirs.tuples > it->second.tuples) {
      it->second = theirs;
    }
  }
}

void StoreStats::Scale(double factor) {
  auto scale = [factor](size_t n) {
    return static_cast<size_t>(static_cast<double>(n) * factor);
  };
  for (auto it = relations.begin(); it != relations.end();) {
    RelationStats& rs = it->second;
    rs.tuples = scale(rs.tuples);
    if (rs.tuples == 0) {
      it = relations.erase(it);
      continue;
    }
    for (ColumnStats& c : rs.columns) {
      for (FamilyStats* f : {&c.whole, &c.first, &c.last}) {
        f->buckets = scale(f->buckets);
        f->entries = scale(f->entries);
        f->max_bucket = scale(f->max_bucket);
      }
    }
    ++it;
  }
}

double StatsDrift(const StoreStats& before, const StoreStats& after) {
  double drift = 0.0;
  auto relative = [](size_t a, size_t b) {
    size_t hi = std::max(a, b);
    if (hi == 0) return 0.0;
    size_t lo = std::min(a, b);
    return static_cast<double>(hi - lo) / static_cast<double>(hi);
  };
  for (const auto& [rel, rs] : before.relations) {
    auto it = after.relations.find(rel);
    size_t theirs = it == after.relations.end() ? 0 : it->second.tuples;
    drift = std::max(drift, relative(rs.tuples, theirs));
  }
  for (const auto& [rel, rs] : after.relations) {
    if (before.relations.count(rel) == 0) {
      drift = std::max(drift, relative(0, rs.tuples));
    }
  }
  return drift;
}

void StatsAccumulator::Record(const StoreStats& s) {
  std::lock_guard<std::mutex> lock(mu_);
  total_.ObserveMax(s);
}

StoreStats StatsAccumulator::Snapshot(const std::set<RelId>* rels) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (rels == nullptr) return total_;
  StoreStats out;
  out.MergeFrom(total_, rels);
  return out;
}

void StatsAccumulator::Age(double factor) {
  std::lock_guard<std::mutex> lock(mu_);
  total_.Scale(factor);
}

void StatsAccumulator::NoteEpoch() {
  std::lock_guard<std::mutex> lock(mu_);
  ++pending_epochs_;
}

void StatsAccumulator::AgeOnRecompute(double factor) {
  std::lock_guard<std::mutex> lock(mu_);
  for (; pending_epochs_ > 0; --pending_epochs_) {
    total_.Scale(factor);
  }
}

size_t StatsAccumulator::PendingEpochs() const {
  std::lock_guard<std::mutex> lock(mu_);
  return pending_epochs_;
}

}  // namespace seqdl
