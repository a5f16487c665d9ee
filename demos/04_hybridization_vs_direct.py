"""Hybridization as a preconditioner for the conforming mixed system.

The indefinite saddle-point system of the conforming mixed method is
replaced, inside the preconditioner, by its hybridized equivalent:
break the flux space, eliminate cell-local unknowns, solve the facet
system, recover, and average the broken flux back to H(div).  With
direct inner solves one outer flexible GMRES iteration reproduces the
direct solution exactly.
"""

import numpy as np

from hybridfem import DIRICHLET, NEUMANN, build_unit_square, mark_boundary
from hybridfem.condensation import hybridization_apply, hybridization_setup
from hybridfem.expressions import Tensor, assemble_global
from hybridfem.problems import conforming_mixed_system, manufactured
from hybridfem.solvers import (
    KrylovConfig,
    apply_bcs,
    exact_preconditioner,
    krylov_solve,
    sparse_direct_solve,
)

prob = manufactured("sinsin")
mesh = mark_boundary(build_unit_square(8),
                     lambda x, y: NEUMANN if x < 1e-12 else DIRICHLET)
ms = conforming_mixed_system(mesh, prob, degree=2)
print(f"conforming mixed system: {ms.space.ndof_global} dofs, "
      f"{len(ms.flux_bcs)} strongly constrained flux dofs on the Neumann edge")

A = assemble_global(Tensor(ms.a))
b = assemble_global(Tensor(ms.rhs))
Ab, bb = apply_bcs(A, b, ms.flux_bcs)
x_direct = sparse_direct_solve(Ab, bb)
print("direct sparse LU solve done")

hm = hybridization_setup(ms.a, neumann_flux=prob.u)
inner = KrylovConfig(method="cg", rtol=1e-12,
                     preconditioner=exact_preconditioner(hm.cs.S))

# one-shot solve from the natural right-hand side (Neumann data enters
# the transmission equations as surface integrals)
x_hybrid, report, _ = hybridization_apply(hm, b, inner,
                                          include_boundary_data=True)
print(f"hybridized full solve: trace CG iterations {report.iterations}, "
      f"max |x_hybrid - x_direct| = {np.abs(x_hybrid - x_direct).max():.2e}")

# used as a preconditioner inside an outer Krylov method
pc = lambda r: hybridization_apply(hm, r, inner)[0]
cfg = KrylovConfig(method="fgmres", rtol=1e-8, preconditioner=pc)
x_outer, rep = krylov_solve(Ab, bb, cfg, x0=ms.flux_bcs.vector(len(bb)))
print(f"outer FGMRES with hybridization preconditioner: "
      f"{rep.iterations} iteration(s), true residual {rep.residual:.2e}")
print(f"max |x_outer - x_direct| = {np.abs(x_outer - x_direct).max():.2e}")
