"""The expression language over element tensors.

Element tensors of finite element forms are composed with dense linear
algebra (add, multiply, invert, solve, transpose, block extraction) and
compiled into a kernel plan that is evaluated for all cells at once.
The compiled plan deduplicates common subexpressions; a naive recursive
evaluator provides the reference semantics.
"""

import numpy as np

from hybridfem import DG, RT, Trace, MixedSpace, break_space, build_unit_square, create_space
from hybridfem.expressions import Tensor, compile_expr, evaluate_all, naive_evaluate
from hybridfem.forms import CELL, INTERIOR, FormIR, IntegralTerm, div, dot, jump, test, trial

mesh = build_unit_square(2)
U = break_space(create_space(mesh, RT(1)))
P = create_space(mesh, DG(0))
M = create_space(mesh, Trace(0))
W = MixedSpace((U, P, M))

a = FormIR(W, W, [
    IntegralTerm(CELL, dot(test(0), trial(0))),
    IntegralTerm(CELL, -dot(div(test(0)), trial(1))),
    IntegralTerm(CELL, dot(test(1), div(trial(0)))),
    IntegralTerm(CELL, dot(test(1), trial(1))),
    IntegralTerm(INTERIOR, dot(jump(test(0)), trial(2))),
    IntegralTerm(INTERIOR, -dot(test(2), jump(trial(0)))),
])

A = Tensor(a)
print(f"element operator shape per cell: {A.shape}")

# condense the first two fields onto the facet traces
S = A.blocks[2, 2] - A.blocks[2, :2] * A.blocks[:2, :2].inv * A.blocks[:2, 2]
plan = compile_expr(S)
print("\ncompiled kernel plan for the condensed trace block:")
print(plan.describe())

# the shared A[:2,:2].inv subtree is computed once per cell
n_inverts = sum(1 for k in plan.kernels if k.op == "inverse")
print(f"\ninverse kernels in the plan: {n_inverts} (subexpressions shared)")

# batched evaluation (leading axis: cell) agrees with naive recursion
S_all = evaluate_all(plan)
for c in (0, 3, 7):
    want = naive_evaluate(S, c)
    print(f"cell {c}: compiled vs naive max diff = {np.abs(S_all[c] - want).max():.2e}")

# algebraic identities hold cell-wise
Aee = A.blocks[:2, :2]
ident = Aee.inv * Aee
val = evaluate_all(compile_expr(ident))[0]
print(f"\nA_ee^-1 A_ee deviation from identity (cell 0): "
      f"{np.abs(val - np.eye(val.shape[0])).max():.2e}")
