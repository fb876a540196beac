#include "src/engine/plan.h"

#include <set>

#include "src/syntax/printer.h"

namespace seqdl {

namespace {

bool ItemIsGround(const ExprItem& item, const std::set<VarId>& bound) {
  switch (item.kind) {
    case ExprItem::Kind::kConst:
      return true;
    case ExprItem::Kind::kAtomVar:
    case ExprItem::Kind::kPathVar:
      return bound.count(item.var) > 0;
    case ExprItem::Kind::kPack: {
      for (VarId v : VarSet(*item.pack)) {
        if (!bound.count(v)) return false;
      }
      return true;
    }
  }
  return false;
}

/// How many leading (or, with `from_back`, trailing) items of `arg` are
/// ground once `bound` is.
size_t GroundRun(const PathExpr& arg, const std::set<VarId>& bound,
                 bool from_back) {
  size_t n = 0;
  while (n < arg.items.size() &&
         ItemIsGround(arg.items[from_back ? arg.items.size() - 1 - n : n],
                      bound)) {
    ++n;
  }
  return n;
}

/// A scan of `pred` keyed on `family` over argument `i`, whose key is the
/// whole argument or its ground run of `run` leading/trailing items.
PlanStep KeyedScan(const Predicate& pred, size_t i, IndexFamily family,
                   size_t run) {
  PlanStep step;
  step.arg = static_cast<int>(i);
  step.family = family;
  const std::vector<ExprItem>& items = pred.args[i].items;
  auto n = static_cast<ptrdiff_t>(run);
  switch (family) {
    case IndexFamily::kWhole:
      step.key_expr = pred.args[i];
      break;
    case IndexFamily::kFirst:
      step.key_expr =
          PathExpr(std::vector<ExprItem>(items.begin(), items.begin() + n));
      break;
    case IndexFamily::kLast:
      step.key_expr =
          PathExpr(std::vector<ExprItem>(items.end() - n, items.end()));
      break;
  }
  return step;
}

/// Deterministic tie-break order among equally estimated access paths:
/// the IndexFamily order, then the full scan.
size_t AccessRank(const PlanStep& step) {
  return step.arg < 0 ? kNumIndexFamilies : static_cast<size_t>(step.family);
}

/// Legacy heuristic: the first fully ground argument wins (whole-value
/// probe); failing that, the argument with the longest non-empty leading
/// or trailing run of ground items (first/last-value probe), the longer
/// run winning and prefix winning ties.
PlanStep ChooseAccessLegacy(const Predicate& pred,
                            const std::set<VarId>& bound) {
  size_t best_prefix_len = 0, best_suffix_len = 0;
  PlanStep prefix, suffix;
  for (size_t i = 0; i < pred.args.size(); ++i) {
    const PathExpr& arg = pred.args[i];
    size_t leading = GroundRun(arg, bound, /*from_back=*/false);
    if (leading == arg.items.size()) {
      return KeyedScan(pred, i, IndexFamily::kWhole, leading);
    }
    if (leading > best_prefix_len) {
      best_prefix_len = leading;
      prefix = KeyedScan(pred, i, IndexFamily::kFirst, leading);
    }
    size_t trailing = GroundRun(arg, bound, /*from_back=*/true);
    if (trailing > best_suffix_len) {
      best_suffix_len = trailing;
      suffix = KeyedScan(pred, i, IndexFamily::kLast, trailing);
    }
  }
  if (best_prefix_len == 0 && best_suffix_len == 0) return PlanStep();
  return best_prefix_len >= best_suffix_len ? prefix : suffix;
}

/// Selectivity-aware model: rank every candidate access path — a
/// whole-value probe per fully ground argument, a first/last-value probe
/// per argument with a non-empty ground prefix/suffix run, and the full
/// scan — by its measured expected bucket size, smallest first. Ties go to
/// the lower AccessRank, then the lower argument position, keeping plans
/// deterministic and pinned by tests/planner_test.cc.
PlanStep ChooseAccessStats(const Predicate& pred, const std::set<VarId>& bound,
                           const StoreStats& stats) {
  bool known = stats.Knows(pred.rel);
  PlanStep best;
  best.est_cost = stats.EstimateScan(pred.rel);
  best.stats_chosen = known;
  auto consider = [&](PlanStep cand) {
    cand.est_cost = stats.Estimate(pred.rel, static_cast<uint32_t>(cand.arg),
                                   cand.family);
    cand.stats_chosen = known;
    if (cand.est_cost < best.est_cost ||
        (cand.est_cost == best.est_cost &&
         (AccessRank(cand) < AccessRank(best) ||
          (AccessRank(cand) == AccessRank(best) && cand.arg < best.arg)))) {
      best = std::move(cand);
    }
  };
  for (size_t i = 0; i < pred.args.size(); ++i) {
    const PathExpr& arg = pred.args[i];
    size_t leading = GroundRun(arg, bound, /*from_back=*/false);
    if (leading == arg.items.size()) {
      consider(KeyedScan(pred, i, IndexFamily::kWhole, leading));
      continue;
    }
    if (leading > 0) {
      consider(KeyedScan(pred, i, IndexFamily::kFirst, leading));
    }
    size_t trailing = GroundRun(arg, bound, /*from_back=*/true);
    if (trailing > 0) {
      consider(KeyedScan(pred, i, IndexFamily::kLast, trailing));
    }
  }
  return best;
}

PlanStep ChooseAccess(const Predicate& pred, const std::set<VarId>& bound,
                      const StoreStats* stats) {
  return stats == nullptr ? ChooseAccessLegacy(pred, bound)
                          : ChooseAccessStats(pred, bound, *stats);
}

}  // namespace

Result<RulePlan> PlanRule(const Universe& u, const Rule& r,
                          const PlannerOptions& opts) {
  RulePlan plan;
  plan.rule = &r;
  std::set<VarId> bound;
  if (opts.head_bound) {
    std::vector<VarId> head_vars;
    for (const PathExpr& e : r.head.args) CollectVars(e, &head_vars);
    bound.insert(head_vars.begin(), head_vars.end());
  }

  // Positive predicate scans. With reordering, greedily pick the cheapest
  // next scan: by measured expected bucket size of its best access path
  // when statistics are present, else by most variables shared with the
  // already-bound set (the classic join-ordering heuristic that turns
  // cartesian products into keyed joins). Without reordering, keep body
  // order.
  std::vector<size_t> scans;
  for (size_t i = 0; i < r.body.size(); ++i) {
    const Literal& l = r.body[i];
    if (l.is_predicate() && !l.negated) scans.push_back(i);
  }
  bool forced_pending = opts.first_lit >= 0;
  while (!scans.empty()) {
    size_t pick = 0;
    // Stats-mode ordering evaluates each candidate's access choice
    // anyway; the winner's is kept and reused as its plan step.
    PlanStep picked;
    bool have_picked = false;
    if (forced_pending) {
      forced_pending = false;
      bool found = false;
      for (size_t k = 0; k < scans.size(); ++k) {
        if (scans[k] == static_cast<size_t>(opts.first_lit)) {
          pick = k;
          found = true;
          break;
        }
      }
      if (!found) {
        return Status::InvalidArgument(
            "first_lit does not name a positive predicate literal: " +
            FormatRule(u, r));
      }
    } else if (opts.reorder_scans && scans.size() > 1) {
      auto shared_vars = [&](size_t lit) {
        std::vector<VarId> vars;
        CollectVars(r.body[lit], &vars);
        int shared = 0;
        for (VarId v : vars) shared += bound.count(v) ? 1 : 0;
        return shared;
      };
      if (opts.stats == nullptr) {
        int best_shared = -1;
        for (size_t k = 0; k < scans.size(); ++k) {
          int shared = shared_vars(scans[k]);
          if (shared > best_shared) {
            best_shared = shared;
            pick = k;
          }
        }
      } else {
        // Cheapest estimated access first; ties broken by most shared
        // bound variables, then body order (strict improvement required,
        // so the first candidate wins all-equal ties).
        int best_shared = -1;
        for (size_t k = 0; k < scans.size(); ++k) {
          PlanStep cand =
              ChooseAccessStats(r.body[scans[k]].pred, bound, *opts.stats);
          int shared = shared_vars(scans[k]);
          if (best_shared < 0 || cand.est_cost < picked.est_cost ||
              (cand.est_cost == picked.est_cost && shared > best_shared)) {
            best_shared = shared;
            pick = k;
            picked = std::move(cand);
            have_picked = true;
          }
        }
      }
    }
    size_t lit = scans[pick];
    scans.erase(scans.begin() + static_cast<ptrdiff_t>(pick));
    if (!have_picked) {
      picked = ChooseAccess(r.body[lit].pred, bound, opts.stats);
    }
    picked.kind = PlanStep::Kind::kScan;
    picked.lit_idx = lit;
    plan.steps.push_back(std::move(picked));
    std::vector<VarId> vars;
    CollectVars(r.body[lit], &vars);
    bound.insert(vars.begin(), vars.end());
  }

  // Positive equations: schedule any whose one side is fully bound.
  std::vector<size_t> pending;
  for (size_t i = 0; i < r.body.size(); ++i) {
    const Literal& l = r.body[i];
    if (l.is_equation() && !l.negated) pending.push_back(i);
  }
  while (!pending.empty()) {
    bool progressed = false;
    for (size_t k = 0; k < pending.size(); ++k) {
      const Literal& l = r.body[pending[k]];
      std::set<VarId> lhs = VarSet(l.lhs), rhs = VarSet(l.rhs);
      auto all_bound = [&bound](const std::set<VarId>& vs) {
        for (VarId v : vs) {
          if (!bound.count(v)) return false;
        }
        return true;
      };
      if (all_bound(lhs) || all_bound(rhs)) {
        PlanStep step;
        step.kind = PlanStep::Kind::kEq;
        step.lit_idx = pending[k];
        plan.steps.push_back(std::move(step));
        bound.insert(lhs.begin(), lhs.end());
        bound.insert(rhs.begin(), rhs.end());
        pending.erase(pending.begin() + static_cast<ptrdiff_t>(k));
        progressed = true;
        break;
      }
    }
    if (!progressed) {
      return Status::InvalidArgument("rule is not safe (equations cannot be "
                                     "ordered): " +
                                     FormatRule(u, r));
    }
  }

  // Negated literals last; all their variables must be bound.
  for (size_t i = 0; i < r.body.size(); ++i) {
    const Literal& l = r.body[i];
    if (!l.negated) continue;
    std::vector<VarId> vars;
    CollectVars(l, &vars);
    for (VarId v : vars) {
      if (!bound.count(v)) {
        return Status::InvalidArgument(
            "rule is not safe (negated literal with unbound variable): " +
            FormatRule(u, r));
      }
    }
    PlanStep step;
    step.kind =
        l.is_predicate() ? PlanStep::Kind::kNegPred : PlanStep::Kind::kNegEq;
    step.lit_idx = i;
    plan.steps.push_back(std::move(step));
  }

  // Head variables must be bound.
  std::vector<VarId> head_vars;
  for (const PathExpr& e : r.head.args) CollectVars(e, &head_vars);
  for (VarId v : head_vars) {
    if (!bound.count(v)) {
      return Status::InvalidArgument(
          "rule is not safe (head variable unbound): " + FormatRule(u, r));
    }
  }
  return plan;
}

}  // namespace seqdl
