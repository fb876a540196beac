// Execution counters, declared once per family.
//
// Each family is an X-macro table of X(type, field, merge) entries.
// SEQDL_COUNTER_STRUCT expands a table inside a struct into one member
// per entry plus Fields(), a tuple of (name, member pointer, merge)
// descriptors in table order. Everything that touches a family goes
// through Fields(): the fixed-width wire codec (protocol.cc; table order
// is wire order), the cross-shard merge (MergeCounters below, used by
// the cluster coordinator), and the CLI's text rendering
// (RenderCounters). Adding a counter is one table line; appending it
// changes the wire layout, so it comes with a kWireVersion bump.
//
// The merge column says how one shard's value folds into another's when
// the coordinator combines replies: kSum for work counts and sizes,
// kMax for quantities the shards reach in parallel (fixpoint rounds,
// wall times — the slowest shard is the cluster's wall time).
#ifndef SEQDL_BASE_COUNTERS_H_
#define SEQDL_BASE_COUNTERS_H_

#include <algorithm>
#include <cstdint>
#include <string>
#include <string_view>
#include <tuple>

namespace seqdl {

enum class CounterMerge : uint8_t { kSum, kMax };

/// One table entry: the field's name, where it lives, how it merges.
template <typename Owner, typename V>
struct CounterField {
  const char* name;
  V Owner::*member;
  CounterMerge merge;
};

#define SEQDL_COUNTER_MEMBER_(type, field, merge) type field = 0;
#define SEQDL_COUNTER_FIELD_(type, field, merge)            \
  ::seqdl::CounterField<Self, type>{#field, &Self::field,   \
                                    ::seqdl::CounterMerge::merge},

/// Expands counter table `TABLE` into the members and Fields() of
/// struct `Struct` (write it inside the struct body).
#define SEQDL_COUNTER_STRUCT(Struct, TABLE)          \
  TABLE(SEQDL_COUNTER_MEMBER_)                       \
  static constexpr auto Fields() {                   \
    using Self = Struct;                             \
    return std::tuple{TABLE(SEQDL_COUNTER_FIELD_)};  \
  }

// --- The families ------------------------------------------------------------

/// EvalStats' scalar counters (engine.h), filled by the executor and the
/// view manager's RunDelta; also the run reply's wire stats.
#define SEQDL_EVAL_COUNTERS(X)                                              \
  X(uint64_t, derived_facts, kSum)                                          \
  X(uint64_t, rounds, kMax)                                                 \
  X(uint64_t, rule_firings, kSum)                                           \
  /* Scans answered through a whole-value (relation, column) index probe   \
     (the argument position was fully ground). */                           \
  X(uint64_t, index_probes, kSum)                                           \
  /* ... through a first-value probe (only a leading prefix was ground). */ \
  X(uint64_t, prefix_probes, kSum)                                          \
  /* ... through a last-value probe (only a trailing suffix was ground,    \
     e.g. `$x ++ a`). */                                                    \
  X(uint64_t, suffix_probes, kSum)                                          \
  /* Full relation scans (no ground key position, an empty ground          \
     prefix/suffix, or RunOptions::use_index = false). */                   \
  X(uint64_t, full_scans, kSum)                                             \
  /* Scans over per-round delta sets (semi-naive iteration). */             \
  X(uint64_t, delta_scans, kSum)                                            \
  /* Net changed facts of the delta segments (additions plus retractions)  \
     that seeded a RunDelta's first delta pass (0 on full runs). */         \
  X(uint64_t, delta_seed_facts, kSum)                                       \
  /* Strata a RunDelta maintained incrementally (delta passes over the     \
     stored view, plus DRed deletion on shrink epochs) vs recomputed       \
     wholesale (negation over a changed input). Both 0 on full runs. */     \
  X(uint64_t, strata_delta_maintained, kSum)                                \
  X(uint64_t, strata_recomputed, kSum)                                      \
  /* DRed deletion phase (0 on full runs and growth-only deltas): support  \
     decrements applied, stored tuples whose support hit zero and were     \
     provisionally deleted, and how many of those re-derivation rescued. */ \
  X(uint64_t, dred_decrements, kSum)                                        \
  X(uint64_t, dred_over_deleted, kSum)                                      \
  X(uint64_t, dred_re_derived, kSum)                                        \
  /* Universe::InternPath calls the executor made: derived head values     \
     whose path was not already known, and packed values. Matching, probe  \
     keys, negated lookups and equations intern nothing. */                 \
  X(uint64_t, path_interns, kSum)                                           \
  /* Wall time Engine::Compile spent validating + planning the program. */  \
  X(double, compile_seconds, kMax)                                          \
  /* Wall time of this run. */                                              \
  X(double, run_seconds, kMax)

struct EvalCounters {
  SEQDL_COUNTER_STRUCT(EvalCounters, SEQDL_EVAL_COUNTERS)
};

/// Occupancy and lifetime traffic of the server's result/view cache
/// (service.h), carried by stats replies.
#define SEQDL_CACHE_COUNTERS(X)                                      \
  /* Runs answered from a cached rendering. */                       \
  X(uint64_t, hits, kSum)                                            \
  /* Runs that had to evaluate or render. */                         \
  X(uint64_t, misses, kSum)                                          \
  /* Entries evicted past the byte/entry caps. */                    \
  X(uint64_t, evictions, kSum)                                       \
  /* Programs currently cached, and their accounted bytes. */        \
  X(uint64_t, entries, kSum)                                         \
  X(uint64_t, bytes, kSum)

struct CacheCounters {
  SEQDL_COUNTER_STRUCT(CacheCounters, SEQDL_CACHE_COUNTERS)
};

/// The maintained-view manager's refresh outcomes (view.h
/// ViewManager::Counters), carried by stats replies.
#define SEQDL_VIEW_COUNTERS(X)                                           \
  /* Refresh found the stored snapshot already at the current epoch. */  \
  X(uint64_t, hits, kSum)                                                \
  /* Full materializations (first Refresh of a key, or after             \
     Invalidate). */                                                     \
  X(uint64_t, cold_runs, kSum)                                           \
  /* Incremental refreshes (RunDelta over the segments published         \
     since). */                                                          \
  X(uint64_t, delta_refreshes, kSum)                                     \
  /* The subset of delta_refreshes whose window contained a tombstone    \
     segment — the DRed deletion/re-derivation machinery ran. */         \
  X(uint64_t, dred_refreshes, kSum)                                      \
  /* Strata recomputed wholesale inside those delta refreshes. */        \
  X(uint64_t, strata_recomputed, kSum)

struct ViewCounters {
  SEQDL_COUNTER_STRUCT(ViewCounters, SEQDL_VIEW_COUNTERS)
};

// --- Generic operations over a family ----------------------------------------

/// Calls `f(field)` for every entry of T's table, in table order.
template <typename T, typename F>
constexpr void ForEachCounter(F&& f) {
  std::apply([&f](const auto&... field) { (f(field), ...); }, T::Fields());
}

/// Folds `from` into `*into` by each entry's merge column.
template <typename T>
void MergeCounters(T* into, const T& from) {
  ForEachCounter<T>([&](const auto& field) {
    auto& a = into->*field.member;
    const auto b = from.*field.member;
    a = field.merge == CounterMerge::kSum ? a + b : std::max(a, b);
  });
}

/// One "<prefix><field> <value>" line per entry, in table order, with
/// the values aligned — the one text rendering of every family.
template <typename T>
std::string RenderCounters(const T& counters, std::string_view prefix) {
  constexpr size_t kNameWidth = 24;
  std::string out;
  ForEachCounter<T>([&](const auto& field) {
    std::string_view name = field.name;
    out += prefix;
    out += name;
    out.append(name.size() < kNameWidth ? kNameWidth - name.size() : 1, ' ');
    out += std::to_string(counters.*field.member);
    out += '\n';
  });
  return out;
}

}  // namespace seqdl

#endif  // SEQDL_BASE_COUNTERS_H_
