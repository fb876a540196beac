#include "src/algebra/algebra.h"

#include "src/engine/match.h"
#include "src/syntax/printer.h"

namespace seqdl {

PathExpr ColExpr(Universe& u, size_t i) {
  return VarExpr(u, u.InternVar(VarKind::kPath, std::to_string(i)));
}

namespace {
AlgebraPtr Make(AlgebraExpr e) {
  return std::make_shared<const AlgebraExpr>(std::move(e));
}
}  // namespace

AlgebraPtr AlgRel(RelId rel) {
  AlgebraExpr e;
  e.op = AlgebraExpr::Op::kRel;
  e.rel = rel;
  return Make(std::move(e));
}

AlgebraPtr AlgConst(uint32_t arity, std::vector<Tuple> tuples) {
  AlgebraExpr e;
  e.op = AlgebraExpr::Op::kConst;
  e.const_arity = arity;
  e.const_tuples = std::move(tuples);
  return Make(std::move(e));
}

AlgebraPtr AlgSelect(AlgebraPtr child, PathExpr alpha, PathExpr beta) {
  AlgebraExpr e;
  e.op = AlgebraExpr::Op::kSelect;
  e.left = std::move(child);
  e.alpha = std::move(alpha);
  e.beta = std::move(beta);
  return Make(std::move(e));
}

AlgebraPtr AlgProject(AlgebraPtr child, std::vector<PathExpr> projections) {
  AlgebraExpr e;
  e.op = AlgebraExpr::Op::kProject;
  e.left = std::move(child);
  e.projections = std::move(projections);
  return Make(std::move(e));
}

AlgebraPtr AlgUnion(AlgebraPtr a, AlgebraPtr b) {
  AlgebraExpr e;
  e.op = AlgebraExpr::Op::kUnion;
  e.left = std::move(a);
  e.right = std::move(b);
  return Make(std::move(e));
}

AlgebraPtr AlgDiff(AlgebraPtr a, AlgebraPtr b) {
  AlgebraExpr e;
  e.op = AlgebraExpr::Op::kDiff;
  e.left = std::move(a);
  e.right = std::move(b);
  return Make(std::move(e));
}

AlgebraPtr AlgProduct(AlgebraPtr a, AlgebraPtr b) {
  AlgebraExpr e;
  e.op = AlgebraExpr::Op::kProduct;
  e.left = std::move(a);
  e.right = std::move(b);
  return Make(std::move(e));
}

AlgebraPtr AlgUnpack(AlgebraPtr child, size_t column) {
  AlgebraExpr e;
  e.op = AlgebraExpr::Op::kUnpack;
  e.left = std::move(child);
  e.column = column;
  return Make(std::move(e));
}

AlgebraPtr AlgSub(AlgebraPtr child, size_t column) {
  AlgebraExpr e;
  e.op = AlgebraExpr::Op::kSub;
  e.left = std::move(child);
  e.column = column;
  return Make(std::move(e));
}

Result<uint32_t> AlgebraArity(const Universe& u, const AlgebraExpr& e) {
  switch (e.op) {
    case AlgebraExpr::Op::kRel:
      return u.RelArity(e.rel);
    case AlgebraExpr::Op::kConst:
      return e.const_arity;
    case AlgebraExpr::Op::kSelect:
      return AlgebraArity(u, *e.left);
    case AlgebraExpr::Op::kProject:
      return static_cast<uint32_t>(e.projections.size());
    case AlgebraExpr::Op::kUnion:
    case AlgebraExpr::Op::kDiff: {
      SEQDL_ASSIGN_OR_RETURN(uint32_t l, AlgebraArity(u, *e.left));
      SEQDL_ASSIGN_OR_RETURN(uint32_t r, AlgebraArity(u, *e.right));
      if (l != r) {
        return Status::InvalidArgument(
            "union/difference of relations with different arities");
      }
      return l;
    }
    case AlgebraExpr::Op::kProduct: {
      SEQDL_ASSIGN_OR_RETURN(uint32_t l, AlgebraArity(u, *e.left));
      SEQDL_ASSIGN_OR_RETURN(uint32_t r, AlgebraArity(u, *e.right));
      return l + r;
    }
    case AlgebraExpr::Op::kUnpack:
      return AlgebraArity(u, *e.left);
    case AlgebraExpr::Op::kSub: {
      SEQDL_ASSIGN_OR_RETURN(uint32_t l, AlgebraArity(u, *e.left));
      return l + 1;
    }
  }
  return Status::Internal("unknown algebra op");
}

namespace {

// Binds the column variables $1..$n to the components of `t`.
Valuation BindColumns(Universe& u, const Tuple& t) {
  Valuation v;
  for (size_t i = 0; i < t.size(); ++i) {
    v.Bind(u.InternVar(VarKind::kPath, std::to_string(i + 1)),
           Slice::Of(u, t[i]));
  }
  return v;
}

}  // namespace

Result<EvaluatedRel> EvalAlgebra(Universe& u, const AlgebraExpr& e,
                                 const Instance& input) {
  SEQDL_ASSIGN_OR_RETURN(uint32_t arity, AlgebraArity(u, e));
  EvaluatedRel out;
  out.arity = arity;
  switch (e.op) {
    case AlgebraExpr::Op::kRel:
      out.tuples = input.Tuples(e.rel);
      return out;
    case AlgebraExpr::Op::kConst:
      for (const Tuple& t : e.const_tuples) {
        if (t.size() != e.const_arity) {
          return Status::InvalidArgument("constant relation arity mismatch");
        }
        out.tuples.insert(t);
      }
      return out;
    case AlgebraExpr::Op::kSelect: {
      SEQDL_ASSIGN_OR_RETURN(EvaluatedRel child, EvalAlgebra(u, *e.left, input));
      for (const Tuple& t : child.tuples) {
        Valuation v = BindColumns(u, t);
        SEQDL_ASSIGN_OR_RETURN(PathId a, EvalExpr(u, e.alpha, v));
        SEQDL_ASSIGN_OR_RETURN(PathId b, EvalExpr(u, e.beta, v));
        if (a == b) out.tuples.insert(t);
      }
      return out;
    }
    case AlgebraExpr::Op::kProject: {
      SEQDL_ASSIGN_OR_RETURN(EvaluatedRel child, EvalAlgebra(u, *e.left, input));
      for (const Tuple& t : child.tuples) {
        Valuation v = BindColumns(u, t);
        Tuple nt;
        nt.reserve(e.projections.size());
        for (const PathExpr& pe : e.projections) {
          SEQDL_ASSIGN_OR_RETURN(PathId p, EvalExpr(u, pe, v));
          nt.push_back(p);
        }
        out.tuples.insert(std::move(nt));
      }
      return out;
    }
    case AlgebraExpr::Op::kUnion: {
      SEQDL_ASSIGN_OR_RETURN(EvaluatedRel l, EvalAlgebra(u, *e.left, input));
      SEQDL_ASSIGN_OR_RETURN(EvaluatedRel r, EvalAlgebra(u, *e.right, input));
      out.tuples = std::move(l.tuples);
      out.tuples.insert(r.tuples.begin(), r.tuples.end());
      return out;
    }
    case AlgebraExpr::Op::kDiff: {
      SEQDL_ASSIGN_OR_RETURN(EvaluatedRel l, EvalAlgebra(u, *e.left, input));
      SEQDL_ASSIGN_OR_RETURN(EvaluatedRel r, EvalAlgebra(u, *e.right, input));
      for (const Tuple& t : l.tuples) {
        if (!r.tuples.count(t)) out.tuples.insert(t);
      }
      return out;
    }
    case AlgebraExpr::Op::kProduct: {
      SEQDL_ASSIGN_OR_RETURN(EvaluatedRel l, EvalAlgebra(u, *e.left, input));
      SEQDL_ASSIGN_OR_RETURN(EvaluatedRel r, EvalAlgebra(u, *e.right, input));
      for (const Tuple& a : l.tuples) {
        for (const Tuple& b : r.tuples) {
          Tuple t = a;
          t.insert(t.end(), b.begin(), b.end());
          out.tuples.insert(std::move(t));
        }
      }
      return out;
    }
    case AlgebraExpr::Op::kUnpack: {
      SEQDL_ASSIGN_OR_RETURN(EvaluatedRel child, EvalAlgebra(u, *e.left, input));
      if (e.column < 1 || e.column > child.arity) {
        return Status::InvalidArgument("UNPACK column out of range");
      }
      for (const Tuple& t : child.tuples) {
        std::span<const Value> p = u.GetPath(t[e.column - 1]);
        if (p.size() == 1 && p[0].is_packed()) {
          Tuple nt = t;
          nt[e.column - 1] = p[0].packed_path();
          out.tuples.insert(std::move(nt));
        }
      }
      return out;
    }
    case AlgebraExpr::Op::kSub: {
      SEQDL_ASSIGN_OR_RETURN(EvaluatedRel child, EvalAlgebra(u, *e.left, input));
      if (e.column < 1 || e.column > child.arity) {
        return Status::InvalidArgument("SUB column out of range");
      }
      for (const Tuple& t : child.tuples) {
        for (PathId s : u.AllSubPaths(t[e.column - 1])) {
          Tuple nt = t;
          nt.push_back(s);
          out.tuples.insert(std::move(nt));
        }
      }
      return out;
    }
  }
  return Status::Internal("unknown algebra op");
}

std::string FormatAlgebra(const Universe& u, const AlgebraExpr& e) {
  switch (e.op) {
    case AlgebraExpr::Op::kRel:
      return u.RelName(e.rel);
    case AlgebraExpr::Op::kConst:
      return "{" + std::to_string(e.const_tuples.size()) + " tuples}";
    case AlgebraExpr::Op::kSelect:
      return "σ_{" + FormatExpr(u, e.alpha) + "=" + FormatExpr(u, e.beta) +
             "}(" + FormatAlgebra(u, *e.left) + ")";
    case AlgebraExpr::Op::kProject: {
      std::string cols;
      for (size_t i = 0; i < e.projections.size(); ++i) {
        if (i > 0) cols += ",";
        cols += FormatExpr(u, e.projections[i]);
      }
      return "π_{" + cols + "}(" + FormatAlgebra(u, *e.left) + ")";
    }
    case AlgebraExpr::Op::kUnion:
      return "(" + FormatAlgebra(u, *e.left) + " ∪ " +
             FormatAlgebra(u, *e.right) + ")";
    case AlgebraExpr::Op::kDiff:
      return "(" + FormatAlgebra(u, *e.left) + " − " +
             FormatAlgebra(u, *e.right) + ")";
    case AlgebraExpr::Op::kProduct:
      return "(" + FormatAlgebra(u, *e.left) + " × " +
             FormatAlgebra(u, *e.right) + ")";
    case AlgebraExpr::Op::kUnpack:
      return "UNPACK_" + std::to_string(e.column) + "(" +
             FormatAlgebra(u, *e.left) + ")";
    case AlgebraExpr::Op::kSub:
      return "SUB_" + std::to_string(e.column) + "(" +
             FormatAlgebra(u, *e.left) + ")";
  }
  return "?";
}

}  // namespace seqdl
