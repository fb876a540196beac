#include "src/engine/match.h"

#include <algorithm>
#include <cassert>
#include <string>
#include <vector>

namespace seqdl {

Result<Slice> SliceEvaluator::Eval(const PathExpr& e, const Valuation& v) {
  size_t n = 0;
  for (const ExprItem& it : e.items) {
    if (it.is_var() && !v.IsBound(it.var)) {
      return Status::InvalidArgument(
          std::string("EvalExpr: unbound ") +
          (it.kind == ExprItem::Kind::kAtomVar ? "atomic variable @"
                                                : "path variable $") +
          u_.VarName(it.var));
    }
    n += it.is_var() ? v.Get(it.var).size() : 1;
  }
  if (e.items.size() == 1 && e.items[0].is_var()) return v.Get(e.items[0].var);
  if (e.items.size() == 1 && e.items[0].kind == ExprItem::Kind::kConst) {
    return Slice{{&e.items[0].atom, 1}};
  }
  std::span<Value> out = Allocate(n);
  Value* next = out.data();
  for (const ExprItem& it : e.items) {
    if (it.is_var()) {
      next = std::ranges::copy(v.Get(it.var).values, next).out;
    } else if (it.kind == ExprItem::Kind::kConst) {
      *next++ = it.atom;
    } else {
      Scope inner(*this);
      SEQDL_ASSIGN_OR_RETURN(Slice packed, Eval(*it.pack, v));
      *next++ = Value::Packed(Intern(packed));
    }
  }
  return Slice{out, n == 0 ? kEmptyPath : kNoPath};
}

std::span<Value> SliceEvaluator::Allocate(size_t n) {
  while (chunk_ < chunks_.size() && used_ + n > chunks_[chunk_].size()) {
    ++chunk_;
    used_ = 0;
  }
  if (chunk_ == chunks_.size()) {
    chunks_.emplace_back(
        std::max<size_t>(n, chunks_.empty() ? 256 : 2 * chunks_.back().size()));
  }
  std::span<Value> out(chunks_[chunk_].data() + used_, n);
  used_ += n;
  return out;
}

Result<PathId> EvalExpr(Universe& u, const PathExpr& e, const Valuation& v) {
  SliceEvaluator eval(u);
  SEQDL_ASSIGN_OR_RETURN(Slice s, eval.Eval(e, v));
  return eval.Intern(s);
}

bool AllVarsBound(const PathExpr& e, const Valuation& v) {
  return std::ranges::all_of(e.items, [&](const ExprItem& it) {
    if (it.is_var()) return v.IsBound(it.var);
    return it.kind != ExprItem::Kind::kPack || AllVarsBound(*it.pack, v);
  });
}

namespace {

// Backtracking matcher. Items are matched left to right against
// path[pos..]; `next` is the continuation run when the current item list is
// exhausted (it must verify pos reached the end of its region). Variables
// bind to slices of `path`, so matching interns nothing.
class Matcher {
 public:
  explicit Matcher(const Universe& u) : u_(u) {}

  // Returns false iff enumeration was stopped by the callback.
  bool Match(const std::vector<ExprItem>& items, size_t item_idx, Slice path,
             size_t pos, Valuation& v, MatchCallback next) {
    if (item_idx == items.size()) {
      if (pos != path.size()) return true;  // dead end, keep enumerating
      return next(v);
    }
    const ExprItem& it = items[item_idx];
    switch (it.kind) {
      case ExprItem::Kind::kConst: {
        if (pos < path.size() && path.values[pos] == it.atom) {
          return Match(items, item_idx + 1, path, pos + 1, v, next);
        }
        return true;
      }
      case ExprItem::Kind::kAtomVar: {
        if (pos >= path.size()) return true;
        Value val = path.values[pos];
        if (!val.is_atom()) return true;  // atomic vars take atomic values
        if (v.IsBound(it.var)) {
          if (v.Get(it.var).values[0] != val) return true;
          return Match(items, item_idx + 1, path, pos + 1, v, next);
        }
        v.Bind(it.var, path.Sub(pos, 1));
        bool cont = Match(items, item_idx + 1, path, pos + 1, v, next);
        v.Unbind(it.var);
        return cont;
      }
      case ExprItem::Kind::kPathVar: {
        if (v.IsBound(it.var)) {
          const Slice& bound = v.Get(it.var);
          if (pos + bound.size() > path.size()) return true;
          if (!path.Sub(pos, bound.size()).SameValues(bound)) return true;
          return Match(items, item_idx + 1, path, pos + bound.size(), v, next);
        }
        // Try all split lengths, shortest first. An upper bound comes from
        // the minimum length still needed by the remaining items; when no
        // unbound path variable follows, the rest consumes exactly that
        // many values and the upper bound is the only feasible split.
        size_t remaining = path.size() - pos;
        bool fixed = true;
        size_t reserve = MinRemainingLength(items, item_idx + 1, v, &fixed);
        if (reserve > remaining) return true;
        for (size_t len = fixed ? remaining - reserve : 0;
             len <= remaining - reserve; ++len) {
          v.Bind(it.var, path.Sub(pos, len));
          bool cont = Match(items, item_idx + 1, path, pos + len, v, next);
          v.Unbind(it.var);
          if (!cont) return false;
        }
        return true;
      }
      case ExprItem::Kind::kPack: {
        if (pos >= path.size() || !path.values[pos].is_packed()) return true;
        Slice inner = Slice::Of(u_, path.values[pos].packed_path());
        // Match the packed subexpression against the packed path, then
        // continue with the remaining outer items.
        auto continue_outer = [&](Valuation& v2) {
          return Match(items, item_idx + 1, path, pos + 1, v2, next);
        };
        return Match(it.pack->items, 0, inner, 0, v, continue_outer);
      }
    }
    return true;
  }

 private:
  // Minimal number of path values the items from `idx` on must consume;
  // clears `*fixed` if an unbound path variable can consume more.
  size_t MinRemainingLength(const std::vector<ExprItem>& items, size_t idx,
                            const Valuation& v, bool* fixed) const {
    size_t n = 0;
    for (size_t i = idx; i < items.size(); ++i) {
      const ExprItem& it = items[i];
      switch (it.kind) {
        case ExprItem::Kind::kConst:
        case ExprItem::Kind::kAtomVar:
        case ExprItem::Kind::kPack:
          ++n;
          break;
        case ExprItem::Kind::kPathVar:
          if (v.IsBound(it.var)) {
            n += v.Get(it.var).size();
          } else {
            *fixed = false;
          }
          break;
      }
    }
    return n;
  }

  const Universe& u_;
};

}  // namespace

bool MatchExpr(const Universe& u, const PathExpr& e, Slice p, Valuation& base,
               MatchCallback cb) {
  return Matcher(u).Match(e.items, 0, p, 0, base, cb);
}

namespace {
bool MatchArgsFrom(const Universe& u, const std::vector<PathExpr>& args,
                   const std::vector<PathId>& tuple, size_t idx,
                   Valuation& v, MatchCallback cb) {
  if (idx == args.size()) return cb(v);
  auto next = [&](Valuation& v2) {
    return MatchArgsFrom(u, args, tuple, idx + 1, v2, cb);
  };
  return MatchExpr(u, args[idx], Slice::Of(u, tuple[idx]), v, next);
}
}  // namespace

bool MatchArgs(const Universe& u, const std::vector<PathExpr>& args,
               const std::vector<PathId>& tuple, Valuation& base,
               MatchCallback cb) {
  assert(args.size() == tuple.size());
  return MatchArgsFrom(u, args, tuple, 0, base, cb);
}

}  // namespace seqdl
