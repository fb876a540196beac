// The value model of Sequence Datalog (paper §2.1):
//
//   * every atomic value is a value;
//   * every finite sequence of values is a *path*;
//   * if p is a path, <p> is a *packed value*, which is again a value.
//
// Representation: a Value is a single uint32_t. The most significant bit
// distinguishes atoms from packed values; the payload is either an AtomId
// (index into the Universe's atom table) or a PathId (index into the
// Universe's hash-consed path store). Paths are interned, so structural
// equality of arbitrarily nested values is integer comparison.
#ifndef SEQDL_TERM_VALUE_H_
#define SEQDL_TERM_VALUE_H_

#include <cstdint>
#include <functional>

namespace seqdl {

/// Index of an atomic value in Universe's atom table.
using AtomId = uint32_t;

/// Index of an interned path in Universe's path store. PathId 0 is always
/// the empty path.
using PathId = uint32_t;

/// The empty path's id in every Universe.
inline constexpr PathId kEmptyPath = 0;

/// Never a valid PathId (ids fit Value's 31-bit payload): "this path is
/// not interned", e.g. Universe::FindPath's answer for an unknown path.
inline constexpr PathId kNoPath = 0xffffffffu;

/// A single value: an atomic value or a packed value <p>.
class Value {
 public:
  Value() : bits_(0) {}

  static Value Atom(AtomId id) { return Value(id & kPayloadMask); }
  static Value Packed(PathId path) {
    return Value(kPackedBit | (path & kPayloadMask));
  }

  bool is_atom() const { return (bits_ & kPackedBit) == 0; }
  bool is_packed() const { return (bits_ & kPackedBit) != 0; }

  /// Requires is_atom().
  AtomId atom() const { return bits_ & kPayloadMask; }
  /// Requires is_packed().
  PathId packed_path() const { return bits_ & kPayloadMask; }

  uint32_t bits() const { return bits_; }

  friend bool operator==(Value a, Value b) { return a.bits_ == b.bits_; }
  friend bool operator!=(Value a, Value b) { return a.bits_ != b.bits_; }
  friend bool operator<(Value a, Value b) { return a.bits_ < b.bits_; }

 private:
  explicit Value(uint32_t bits) : bits_(bits) {}

  static constexpr uint32_t kPackedBit = 0x80000000u;
  static constexpr uint32_t kPayloadMask = 0x7fffffffu;

  uint32_t bits_;
};

struct ValueHash {
  size_t operator()(Value v) const {
    // splitmix-style scramble of the raw bits.
    uint64_t x = v.bits();
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ull;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebull;
    x ^= x >> 31;
    return static_cast<size_t>(x);
  }
};

}  // namespace seqdl

namespace std {
template <>
struct hash<seqdl::Value> {
  size_t operator()(seqdl::Value v) const { return seqdl::ValueHash()(v); }
};
}  // namespace std

#endif  // SEQDL_TERM_VALUE_H_
