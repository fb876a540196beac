// One-shot evaluation helpers.
//
// Eval()/EvalQuery() compile a program and run it once. Prefer
// Engine::Compile + PreparedProgram::Run (engine.h) whenever a program is
// evaluated against more than one instance, since it pays the
// validation/stratification/planning cost exactly once — and see
// database.h (Database::Open + Session) to also pay the input indexing
// cost exactly once across many runs and threads. To compile with
// non-default CompileOptions, call Engine::Compile directly.
#ifndef SEQDL_ENGINE_EVAL_H_
#define SEQDL_ENGINE_EVAL_H_

#include "src/base/status.h"
#include "src/engine/engine.h"
#include "src/engine/instance.h"
#include "src/syntax/ast.h"
#include "src/term/universe.h"

namespace seqdl {

/// Evaluates `p` on `input`; returns input plus all derived IDB facts.
/// Compiles the program on every call; see engine.h to compile once.
inline Result<Instance> Eval(Universe& u, const Program& p,
                             const Instance& input,
                             const RunOptions& opts = {},
                             EvalStats* stats = nullptr) {
  SEQDL_ASSIGN_OR_RETURN(PreparedProgram prog, Engine::CompileBorrowed(u, p));
  return prog.Run(input, opts, stats);
}

/// Evaluates and projects onto a single output relation (the paper's notion
/// of a program computing a query from Γ to S).
inline Result<Instance> EvalQuery(Universe& u, const Program& p,
                                  const Instance& input, RelId output,
                                  const RunOptions& opts = {}) {
  SEQDL_ASSIGN_OR_RETURN(Instance full, Eval(u, p, input, opts));
  return full.Project({output});
}

}  // namespace seqdl

#endif  // SEQDL_ENGINE_EVAL_H_
