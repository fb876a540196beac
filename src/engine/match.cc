#include "src/engine/match.h"

#include <cassert>
#include <vector>

namespace seqdl {

Result<PathId> EvalExpr(Universe& u, const PathExpr& e, const Valuation& v) {
  std::vector<Value> values;
  for (const ExprItem& it : e.items) {
    switch (it.kind) {
      case ExprItem::Kind::kConst:
        values.push_back(it.atom);
        break;
      case ExprItem::Kind::kAtomVar: {
        if (!v.IsBound(it.var)) {
          return Status::InvalidArgument("EvalExpr: unbound atomic variable @" +
                                         u.VarName(it.var));
        }
        std::span<const Value> p = u.GetPath(v.Get(it.var));
        assert(p.size() == 1 && p[0].is_atom());
        values.push_back(p[0]);
        break;
      }
      case ExprItem::Kind::kPathVar: {
        if (!v.IsBound(it.var)) {
          return Status::InvalidArgument("EvalExpr: unbound path variable $" +
                                         u.VarName(it.var));
        }
        std::span<const Value> p = u.GetPath(v.Get(it.var));
        values.insert(values.end(), p.begin(), p.end());
        break;
      }
      case ExprItem::Kind::kPack: {
        SEQDL_ASSIGN_OR_RETURN(PathId inner, EvalExpr(u, *it.pack, v));
        values.push_back(Value::Packed(inner));
        break;
      }
    }
  }
  return u.InternPath(values);
}

bool AllVarsBound(const PathExpr& e, const Valuation& v) {
  for (VarId var : VarSet(e)) {
    if (!v.IsBound(var)) return false;
  }
  return true;
}

namespace {

// Backtracking matcher. Items are matched left to right against
// path[pos..]; `next` is the continuation run when the current item list is
// exhausted (it must verify pos reached the end of its region).
class Matcher {
 public:
  explicit Matcher(Universe& u) : u_(u) {}

  // Returns false iff enumeration was stopped by the callback.
  bool Match(const std::vector<ExprItem>& items, size_t item_idx,
             std::span<const Value> path, size_t pos, Valuation& v,
             const std::function<bool(Valuation&)>& next) {
    if (item_idx == items.size()) {
      if (pos != path.size()) return true;  // dead end, keep enumerating
      return next(v);
    }
    const ExprItem& it = items[item_idx];
    switch (it.kind) {
      case ExprItem::Kind::kConst: {
        if (pos < path.size() && path[pos] == it.atom) {
          return Match(items, item_idx + 1, path, pos + 1, v, next);
        }
        return true;
      }
      case ExprItem::Kind::kAtomVar: {
        if (pos >= path.size()) return true;
        Value val = path[pos];
        if (!val.is_atom()) return true;  // atomic vars take atomic values
        if (v.IsBound(it.var)) {
          if (v.Get(it.var) != u_.SingletonPath(val)) return true;
          return Match(items, item_idx + 1, path, pos + 1, v, next);
        }
        v.Bind(it.var, u_.SingletonPath(val));
        bool cont = Match(items, item_idx + 1, path, pos + 1, v, next);
        v.Unbind(it.var);
        return cont;
      }
      case ExprItem::Kind::kPathVar: {
        if (v.IsBound(it.var)) {
          std::span<const Value> bound = u_.GetPath(v.Get(it.var));
          if (pos + bound.size() > path.size()) return true;
          for (size_t i = 0; i < bound.size(); ++i) {
            if (path[pos + i] != bound[i]) return true;
          }
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
          PathId sub = u_.InternPath(path.subspan(pos, len));
          v.Bind(it.var, sub);
          bool cont = Match(items, item_idx + 1, path, pos + len, v, next);
          v.Unbind(it.var);
          if (!cont) return false;
        }
        return true;
      }
      case ExprItem::Kind::kPack: {
        if (pos >= path.size() || !path[pos].is_packed()) return true;
        std::span<const Value> inner = u_.GetPath(path[pos].packed_path());
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
            n += u_.PathLength(v.Get(it.var));
          } else {
            *fixed = false;
          }
          break;
      }
    }
    return n;
  }

  Universe& u_;
};

}  // namespace

bool MatchExpr(Universe& u, const PathExpr& e, PathId p, Valuation& base,
               const std::function<bool(Valuation&)>& cb) {
  Matcher m(u);
  std::span<const Value> path = u.GetPath(p);
  return m.Match(e.items, 0, path, 0, base, cb);
}

namespace {
bool MatchArgsFrom(Universe& u, const std::vector<PathExpr>& args,
                   const std::vector<PathId>& tuple, size_t idx,
                   Valuation& v, const std::function<bool(Valuation&)>& cb) {
  if (idx == args.size()) return cb(v);
  auto next = [&](Valuation& v2) {
    return MatchArgsFrom(u, args, tuple, idx + 1, v2, cb);
  };
  return MatchExpr(u, args[idx], tuple[idx], v, next);
}
}  // namespace

bool MatchArgs(Universe& u, const std::vector<PathExpr>& args,
               const std::vector<PathId>& tuple, Valuation& base,
               const std::function<bool(Valuation&)>& cb) {
  assert(args.size() == tuple.size());
  return MatchArgsFrom(u, args, tuple, 0, base, cb);
}

}  // namespace seqdl
