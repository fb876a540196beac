// Matching path expressions against ground paths: enumerate all valuations
// ν extending a partial valuation such that ν(e) = p. This is the engine's
// core pattern-matching primitive (one side ground — unlike the general
// associative unification of unify/, which handles two symbolic sides).
#ifndef SEQDL_ENGINE_MATCH_H_
#define SEQDL_ENGINE_MATCH_H_

#include <cassert>
#include <functional>
#include <utility>
#include <vector>

#include "src/base/status.h"
#include "src/syntax/ast.h"
#include "src/term/universe.h"

namespace seqdl {

/// A (partial) assignment of variables to paths. Atomic variables always
/// bind to a singleton path holding an atomic value. A rule binds a handful
/// of variables, so a flat vector searched linearly beats hashing.
class Valuation {
 public:
  bool IsBound(VarId v) const { return Slot(v) < bindings_.size(); }
  /// Requires IsBound(v).
  PathId Get(VarId v) const {
    size_t i = Slot(v);
    assert(i < bindings_.size());
    return bindings_[i].second;
  }
  void Bind(VarId v, PathId p) {
    size_t i = Slot(v);
    if (i == bindings_.size()) bindings_.emplace_back(v, p);
    bindings_[i].second = p;
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

  std::vector<std::pair<VarId, PathId>> bindings_;
};

/// Evaluates `e` under `v`; error if a variable of `e` is unbound.
Result<PathId> EvalExpr(Universe& u, const PathExpr& e, const Valuation& v);

/// True iff all variables of `e` are bound in `v`.
bool AllVarsBound(const PathExpr& e, const Valuation& v);

/// Enumerates every extension ν of `base` with ν(e) = p. Calls `cb` for
/// each; if cb returns false, enumeration stops. Returns false if stopped.
bool MatchExpr(Universe& u, const PathExpr& e, PathId p, Valuation& base,
               const std::function<bool(Valuation&)>& cb);

/// Matches a sequence of expressions against a tuple of paths
/// (componentwise); used for predicate-vs-fact matching.
bool MatchArgs(Universe& u, const std::vector<PathExpr>& args,
               const std::vector<PathId>& tuple, Valuation& base,
               const std::function<bool(Valuation&)>& cb);

}  // namespace seqdl

#endif  // SEQDL_ENGINE_MATCH_H_
