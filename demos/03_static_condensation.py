"""Static condensation of a hybridized mixed discretization.

The three-field system (broken flux, scalar, facet traces) couples the
flux and scalar only within cells, so both are eliminated cell-by-cell
onto a much smaller facet-trace system, which is symmetric positive
definite and solved with preconditioned conjugate gradients.  The
eliminated fields are recovered locally afterwards.
"""

import numpy as np

from hybridfem import build_unit_square
from hybridfem.condensation import scpc_apply, scpc_setup
from hybridfem.expressions import Tensor, assemble_global
from hybridfem.problems import hybridized_mixed_system, manufactured
from hybridfem.solvers import KrylovConfig, jacobi_preconditioner
from hybridfem.study import l2_error
from hybridfem.spaces import Function

prob = manufactured("sinsin")
mesh = build_unit_square(16)
hs = hybridized_mixed_system(mesh, prob, degree=1)
W = hs.space
print(f"three-field system: {W.ndof_global} dofs "
      f"(flux {hs.flux_space.ndof_global}, scalar {hs.scalar_space.ndof_global}, "
      f"trace {hs.trace_space.ndof_global})")

cs = scpc_setup(hs.a, hs.trace_bcs)
print(f"condensed trace system: {cs.S.shape[0]} dofs, "
      f"{cs.S.nnz} nonzeros")

S = cs.S.toarray()
print(f"trace operator symmetry: |S - S^T|_max / |S|_max = "
      f"{np.abs(S - S.T).max() / np.abs(S).max():.2e}")
np.linalg.cholesky(S)
print("Cholesky factorization of the trace operator: succeeded (SPD)")

rhs = assemble_global(Tensor(hs.rhs))
inner = KrylovConfig(method="cg", rtol=1e-8,
                     preconditioner=jacobi_preconditioner(cs.S))
x, report, stages = scpc_apply(cs, rhs, inner)
print(f"\ntrace solve: {report.iterations} CG iterations, "
      f"relative residual {report.residual:.2e}")
print("stage seconds: "
      f"condense {stages.condensation:.3f}, forward {stages.forward:.3f}, "
      f"trace {stages.trace_solve:.3f}, backsub {stages.backsub:.3f}")

u_vec, p_vec, _ = W.split(x)
p = Function(hs.scalar_space, p_vec)
u = Function(hs.flux_space, u_vec)
print(f"\nL2 errors: p {l2_error(p, prob.p):.3e}, u {l2_error(u, prob.u):.3e}")
