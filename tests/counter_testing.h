// Table-driven helpers for tests over the counter families
// (src/base/counters.h): fill every field, compare every field.
#ifndef SEQDL_TESTS_COUNTER_TESTING_H_
#define SEQDL_TESTS_COUNTER_TESTING_H_

#include <gtest/gtest.h>

#include <cstdint>
#include <type_traits>

#include "src/base/counters.h"

namespace seqdl {

/// A T whose fields hold first, first + step, first + 2 * step, ... in
/// table order (doubles get an extra 0.25 so their fraction bits travel
/// too). Distinct and non-zero for first > 0 and first + n * step > 0.
template <typename T>
T DistinctCounters(int64_t first, int64_t step = 1) {
  T counters;
  int64_t next = first;
  ForEachCounter<T>([&](const auto& field) {
    auto& value = counters.*field.member;
    using V = std::remove_reference_t<decltype(value)>;
    value = static_cast<V>(next);
    if constexpr (std::is_floating_point_v<V>) value += 0.25;
    next += step;
  });
  return counters;
}

/// Every field of `got` equals the same field of `want`, named on
/// failure.
template <typename T>
void ExpectCountersEqual(const T& got, const T& want) {
  ForEachCounter<T>([&](const auto& field) {
    EXPECT_EQ(got.*field.member, want.*field.member) << field.name;
  });
}

}  // namespace seqdl

#endif  // SEQDL_TESTS_COUNTER_TESTING_H_
