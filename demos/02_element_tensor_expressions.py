"""The expression language over element tensors.

Element tensors of finite element forms are composed with dense linear
algebra (add, multiply, invert, solve, transpose, block extraction) and
compiled into a kernel plan that is evaluated for all cells at once.
The compiled plan deduplicates common subexpressions; a naive recursive
evaluator provides the reference semantics.  Local post-processing is
written as Slate writes it: a local solve whose right-hand side is a
bilinear data form acting on gathered coefficients,
``Tensor(a).solve(Tensor(b) * AssembledVector(w))``, which is
``Tensor(a).inv * (Tensor(b) * AssembledVector(w))``: the plan inverts
``a`` and multiplies the right-hand side by the inverse.
"""

import numpy as np

from hybridfem import DG, RT, Trace, MixedSpace, break_space, build_unit_square, create_space
from hybridfem.expressions import (AssembledVector, Tensor, compile_expr, evaluate_all,
                                   naive_evaluate)
from hybridfem.forms import CELL, INTERIOR, FormIR, IntegralTerm, div, dot, grad, jump, test, trial

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

# local post-processing: in each cell, find p* in DG(1) whose gradient
# matches the flux u_h and whose cell mean matches p_h.  The data (u_h, p_h)
# enter through a bilinear form b over them, times their gathered
# coefficients, so b's element tensors are computed once, like a's.
V = create_space(mesh, DG(1))
L = create_space(mesh, DG(0))
Wpp = MixedSpace((V, L))
data = MixedSpace((U, P))
a_pp = FormIR(Wpp, Wpp, [
    IntegralTerm(CELL, dot(grad(test(0)), grad(trial(0)))),
    IntegralTerm(CELL, dot(test(0), trial(1))),
    IntegralTerm(CELL, dot(test(1), trial(0))),
])
b_pp = FormIR(Wpp, data, [
    IntegralTerm(CELL, -dot(grad(test(0)), trial(0))),
    IntegralTerm(CELL, dot(test(1), trial(1))),
])
w = AssembledVector((data, np.random.default_rng(0).standard_normal(data.ndof_global)))
post = Tensor(a_pp).solve(Tensor(b_pp) * w).blocks[0]
plan = compile_expr(post)
print("\ncompiled plan for the local post-processing:")
print(plan.describe())
p_star = evaluate_all(plan)
print(f"post-processed values vs naive (cell 5): "
      f"{np.abs(p_star[5] - naive_evaluate(post, 5)).max():.2e}")
