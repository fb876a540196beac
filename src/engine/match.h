// Matching path expressions against ground paths: enumerate all valuations
// ν extending a partial valuation such that ν(e) = p. This is the engine's
// core pattern-matching primitive (one side ground — unlike the general
// associative unification of unify/, which handles two symbolic sides).
#ifndef SEQDL_ENGINE_MATCH_H_
#define SEQDL_ENGINE_MATCH_H_

#include <algorithm>
#include <cassert>
#include <span>
#include <utility>
#include <vector>

#include "src/base/function_ref.h"
#include "src/base/status.h"
#include "src/syntax/ast.h"
#include "src/term/universe.h"

namespace seqdl {

/// A path value as the matcher sees it: a span of stored values, plus
/// the PathId when the span is a whole interned path (else kNoPath). A
/// valuation maps a variable to a path (paper §2) and matching picks a
/// split of a stored path, so a binding is a slice: binding interns
/// nothing.
struct Slice {
  std::span<const Value> values;
  PathId id = kNoPath;

  static Slice Of(const Universe& u, PathId p) { return {u.GetPath(p), p}; }
  size_t size() const { return values.size(); }
  /// The values [pos, pos + len); keeps the id only when that is all.
  Slice Sub(size_t pos, size_t len) const {
    if (pos == 0 && len == values.size()) return *this;
    return {values.subspan(pos, len), len == 0 ? kEmptyPath : kNoPath};
  }
  /// Equal contents; hash-consing makes two known ids equal iff they are.
  bool SameValues(const Slice& o) const {
    if (id != kNoPath && o.id != kNoPath) return id == o.id;
    return std::ranges::equal(values, o.values);
  }
};

/// A (partial) assignment of variables to slices; an atomic variable binds
/// to one atomic value. A binding's values must outlive its use: stored
/// paths, a program's constants and SliceEvaluator scratch (while its
/// Scope is open) qualify. A rule binds a handful of variables, so a flat
/// vector searched linearly beats hashing.
class Valuation {
 public:
  bool IsBound(VarId v) const { return Slot(v) < bindings_.size(); }
  /// Requires IsBound(v).
  const Slice& Get(VarId v) const {
    size_t i = Slot(v);
    assert(i < bindings_.size());
    return bindings_[i].second;
  }
  void Bind(VarId v, Slice s) {
    size_t i = Slot(v);
    if (i == bindings_.size()) bindings_.emplace_back(v, s);
    bindings_[i].second = s;
  }
  void Unbind(VarId v) {
    size_t i = Slot(v);
    if (i < bindings_.size()) bindings_.erase(bindings_.begin() + i);
  }
  size_t size() const { return bindings_.size(); }

 private:
  /// Index of v's binding; size() when v is unbound.
  size_t Slot(VarId v) const {
    size_t i = 0;
    while (i < bindings_.size() && bindings_[i].first != v) ++i;
    return i;
  }

  std::vector<std::pair<VarId, Slice>> bindings_;
};

/// Evaluates path expressions to slices. A lone variable or constant
/// evaluates without a copy; a concatenation is written to scratch chunks
/// that never move, and a Scope hands back, on destruction, what was
/// written while it was open. Only packs and Intern() intern paths.
class SliceEvaluator {
 public:
  explicit SliceEvaluator(Universe& u) : u_(u) {}

  /// Evaluates `e` under `v`; error if a variable of `e` is unbound.
  Result<Slice> Eval(const PathExpr& e, const Valuation& v);
  /// The id of `s`, interning its values when the id is not known.
  PathId Intern(const Slice& s) {
    return s.id != kNoPath ? s.id : (++interns_, u_.InternPath(s.values));
  }
  /// The id of `s` if it is interned, else kNoPath; never inserts.
  PathId Find(const Slice& s) const {
    return s.id != kNoPath ? s.id : u_.FindPath(s.values);
  }
  /// Paths this evaluator interned (ids that were not already known).
  uint64_t interns() const { return interns_; }

  class Scope {
   public:
    explicit Scope(SliceEvaluator& e)
        : e_(e), chunk_(e.chunk_), used_(e.used_) {}
    ~Scope() { e_.chunk_ = chunk_, e_.used_ = used_; }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SliceEvaluator& e_;
    size_t chunk_, used_;
  };

 private:
  /// `n` contiguous scratch values after everything still in use.
  std::span<Value> Allocate(size_t n);

  Universe& u_;
  std::vector<std::vector<Value>> chunks_;  // each sized once
  size_t chunk_ = 0, used_ = 0;             // fill point: chunks_[chunk_]
  uint64_t interns_ = 0;
};

/// Evaluates `e` under `v` and interns the result; error if a variable of
/// `e` is unbound.
Result<PathId> EvalExpr(Universe& u, const PathExpr& e, const Valuation& v);

/// True iff all variables of `e` are bound in `v`.
bool AllVarsBound(const PathExpr& e, const Valuation& v);

/// Called once per valuation found; returning false stops the
/// enumeration. Non-owning, so nothing is allocated per match.
using MatchCallback = FunctionRef<bool(Valuation&)>;

/// Enumerates every extension ν of `base` with ν(e) = p. Calls `cb` for
/// each; if cb returns false, enumeration stops. Returns false if stopped.
/// Bindings are slices of `p`, so its values must outlive `cb`.
bool MatchExpr(const Universe& u, const PathExpr& e, Slice p, Valuation& base,
               MatchCallback cb);

/// Matches a sequence of expressions against a tuple of paths
/// (componentwise); used for predicate-vs-fact matching.
bool MatchArgs(const Universe& u, const std::vector<PathExpr>& args,
               const std::vector<PathId>& tuple, Valuation& base,
               MatchCallback cb);

}  // namespace seqdl

#endif  // SEQDL_ENGINE_MATCH_H_
