"""H(div)-conforming flux recovery from an LDG-H solution.

The computed LDG-H flux is discontinuous across facets, but the
numerical flux u_h + tau (p_h - lambda_h) n is single-valued.  Matching
a one-degree-higher Raviart-Thomas interpolant against it (facet normal
moments) and against u_h (interior moments) produces a flux with
exactly continuous normal components whose divergence converges one
order faster than without the stabilization bookkeeping.
"""

import numpy as np

from hybridfem import build_unit_square
from hybridfem.condensation import scpc_apply, scpc_setup
from hybridfem.expressions import Tensor, assemble_global
from hybridfem.postprocess import flux_pp
from hybridfem.problems import ldgh_system, manufactured
from hybridfem.reference import edge_points
from hybridfem.solvers import KrylovConfig, exact_preconditioner
from hybridfem.spaces import Function, eval_function
from hybridfem.study import l2_error, l2_error_div

prob = manufactured("sinsin")
k, tau = 1, 1.0


def max_interior_jump(fn):
    mesh = fn.space.mesh
    geo = mesh.geometry()
    t = np.linspace(0.1, 0.9, 4)
    worst = 0.0
    for f in mesh.interior_facets:
        (c0, c1), (l0, l1) = mesh.facet_cells[f], mesh.facet_local_index[f]
        sides = []
        # each cell runs along a shared facet from its lower to its higher
        # vertex, so the same edge parameters give the same points on both sides
        for c, loc in ((c0, l0), (c1, l1)):
            v = eval_function(fn, edge_points(loc, t))[c]
            sides.append(v @ geo.edge_normals[c, loc])
        worst = max(worst, np.abs(sides[0] + sides[1]).max())
    return worst


print(f"LDG-H, k={k}, tau={tau}")
print(f"{'n':>4} {'jump(u_h)':>12} {'jump(u*)':>12} {'err div u*':>12} {'rate':>6}")
prev = None
for n in (4, 8, 16):
    mesh = build_unit_square(n)
    ls = ldgh_system(mesh, prob, k, tau)
    cs = scpc_setup(ls.a, ls.trace_bcs)
    rhs = assemble_global(Tensor(ls.rhs))
    inner = KrylovConfig(method="cg", rtol=1e-12,
                         preconditioner=exact_preconditioner(cs.S))
    x, _, _ = scpc_apply(cs, rhs, inner)
    u_vec, p_vec, lam_vec = ls.space.split(x)
    u = Function(ls.flux_space, u_vec)
    p = Function(ls.scalar_space, p_vec)
    lam = Function(ls.trace_space, lam_vec)
    u_star = flux_pp(u, p, lam, tau)
    err_div = l2_error_div(u_star, prob.div_u)
    rate = "" if prev is None else f"{np.log2(prev / err_div):.2f}"
    prev = err_div
    print(f"{n:>4} {max_interior_jump(u):>12.3e} {max_interior_jump(u_star):>12.3e} "
          f"{err_div:>12.4e} {rate:>6}")

print("\nthe reconstructed flux matches u_h in accuracy:")
mesh = build_unit_square(16)
ls = ldgh_system(mesh, prob, k, tau)
cs = scpc_setup(ls.a, ls.trace_bcs)
x, _, _ = scpc_apply(cs, assemble_global(Tensor(ls.rhs)),
                     KrylovConfig(method="cg", rtol=1e-12,
                                  preconditioner=exact_preconditioner(cs.S)))
u_vec, p_vec, lam_vec = ls.space.split(x)
u = Function(ls.flux_space, u_vec)
u_star = flux_pp(u, Function(ls.scalar_space, p_vec),
                 Function(ls.trace_space, lam_vec), tau)
print(f"  ||u_h - u||  = {l2_error(u, prob.u):.4e}")
print(f"  ||u* - u||   = {l2_error(u_star, prob.u):.4e}")
