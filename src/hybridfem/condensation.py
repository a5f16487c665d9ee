"""Static condensation and hybridization of multi-field systems.

Two composable solver building blocks:

* :func:`scpc_setup` / :func:`scpc_apply` — generic cell-local static
  condensation of a multi-field system whose leading fields are
  discontinuous.  The condensed (trace) operator is assembled once from
  the Schur-complement expression ``A_cc - A_ce A_ee^{-1} A_ec``; the
  element tensors, the local inverse ``A_ee^{-1}`` and the elimination
  operator ``A_ce A_ee^{-1}`` it evaluates are memoized on the stored
  expression nodes.  Each application then forward-eliminates the
  residual, solves the condensed system with an inner Krylov method,
  and recovers the eliminated fields cell by cell as
  ``A_ee^{-1} (F_e - A_ec lambda)``: gathers and batched products
  against the stored local values, with no re-assembly.

* :func:`hybridization_setup` / :func:`hybridization_apply` — takes a
  conforming H(div) x L2 mixed form, hybridizes it with
  :func:`~hybridfem.problems.hybridize` (broken flux space, facet
  multipliers enforcing normal continuity), condenses the result, and
  wraps the static condensation path with the conforming/broken
  residual transfer and the facet-averaging projection back to H(div).

Both applications report per-stage timings (condensation, forward
elimination, trace solve, back substitution).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .expressions import (
    AssembledVector,
    Tensor,
    TensorExpr,
    assemble_global,
    constrain_matrix,
)
from .forms import FormIR
from .mesh import NEUMANN
from .problems import HybridizableSystem, hybridize
from .solvers import KrylovConfig, SolveReport, krylov_solve, lift_bcs
from .spaces import (
    BrokenTransfer,
    Function,
    MixedSpace,
    broken_transfer,
    project_div,
    transfer_residual,
)


@dataclass(frozen=True)
class FieldSplit:
    """Partition of field indices into eliminated and condensed sets.

    The eliminated fields must form a leading contiguous range so the
    block structure maps onto sub-block extraction.
    """

    eliminate: tuple[int, ...]
    condensed: tuple[int, ...]

    def __post_init__(self):
        e, c = set(self.eliminate), set(self.condensed)
        if not c:
            raise ValueError("the condensed field set must be nonempty")
        if e & c:
            raise ValueError("eliminated and condensed fields overlap")
        n = len(e) + len(c)
        if e | c != set(range(n)):
            raise ValueError("field split must cover all fields exactly once")
        if sorted(e) != list(range(len(e))):
            raise ValueError("eliminated fields must be the leading fields")


@dataclass
class Stages:
    """Wall-clock seconds per solver stage."""

    condensation: float = 0.0
    forward: float = 0.0
    trace_solve: float = 0.0
    backsub: float = 0.0
    postprocess: float = 0.0

    def total(self) -> float:
        return (self.condensation + self.forward + self.trace_solve
                + self.backsub + self.postprocess)


@dataclass
class CondensedSystem:
    space: MixedSpace
    split: FieldSplit
    operator: Tensor                 # the full system, element tensors memoized
    local_inverse: TensorExpr        # A_ee^{-1}, evaluated at set-up
    coupling: TensorExpr             # A_ec, evaluated at set-up
    elimination: TensorExpr          # A_ce A_ee^{-1}, evaluated at set-up
    S: sp.csr_matrix                 # condensed operator, constraints applied
    S_raw: sp.csr_matrix             # before constraints (for lifting)
    bc_dofs: np.ndarray
    bc_values: np.ndarray
    condensed_offset: int            # global offset of the condensed fields
    setup_time: float


def _check_eliminable(space: MixedSpace, split: FieldSplit) -> None:
    for i in split.eliminate:
        s = space.fields[i]
        if not s.broken:
            raise ValueError(
                f"field {i} ({s.family.kind}({s.family.degree})) is not "
                "cell-local; eliminating it would couple neighbouring cells"
            )


def scpc_setup(a: FormIR, split: FieldSplit,
               bcs: list[tuple[int, float]] | None = None) -> CondensedSystem:
    """Assemble the condensed operator of a multi-field system.

    ``bcs`` lists (dof, value) constraints in the condensed fields'
    local numbering; rows and columns are eliminated symmetrically and
    the known values are lifted during :func:`scpc_apply`.
    """
    if not isinstance(a.test, MixedSpace) or a.rank != 2:
        raise ValueError("static condensation expects a mixed bilinear form")
    W = a.test
    _check_eliminable(W, split)
    t0 = time.perf_counter()
    ne = len(split.eliminate)
    nf = W.n_fields
    A = Tensor(a)
    local_inverse = A.blocks[:ne, :ne].inv
    coupling = A.blocks[:ne, ne:nf]
    elimination = A.blocks[ne:nf, :ne] * local_inverse
    # evaluating S memoizes the element tensors and the nodes stored below
    S_raw = assemble_global(A.blocks[ne:nf, ne:nf] - elimination * coupling)
    bc_dofs = np.array([d for d, _ in (bcs or [])], dtype=int)
    bc_values = np.array([v for _, v in (bcs or [])], dtype=float)
    S = constrain_matrix(S_raw, bc_dofs) if len(bc_dofs) else S_raw
    dt = time.perf_counter() - t0
    return CondensedSystem(
        space=W,
        split=split,
        operator=A,
        local_inverse=local_inverse,
        coupling=coupling,
        elimination=elimination,
        S=S,
        S_raw=S_raw,
        bc_dofs=bc_dofs,
        bc_values=bc_values,
        condensed_offset=int(W.offsets[ne]),
        setup_time=dt,
    )


def _condensed_rhs(cs: CondensedSystem, E: np.ndarray,
                   homogeneous: bool) -> np.ndarray:
    if len(cs.bc_dofs) == 0:
        return E
    values = np.zeros_like(cs.bc_values) if homogeneous else cs.bc_values
    return lift_bcs(cs.S_raw, E, cs.bc_dofs, values)


def scpc_apply(cs: CondensedSystem, residual: np.ndarray, inner: KrylovConfig,
               homogeneous_bcs: bool = False
               ) -> tuple[np.ndarray, SolveReport, Stages]:
    """Apply the condensation factorization to a multi-field residual.

    Forward-eliminates the eliminated-field residual into the condensed
    right-hand side, solves the condensed system, and reconstructs the
    eliminated fields cell-wise.  With ``homogeneous_bcs`` the stored
    constraint values are replaced by zero (residual-correction mode).
    """
    W, split = cs.space, cs.split
    ne = len(split.eliminate)
    nf = W.n_fields
    stages = Stages(condensation=cs.setup_time)
    residual = np.asarray(residual, dtype=float)
    if residual.shape != (W.ndof_global,):
        raise ValueError("residual does not match the mixed space")

    t0 = time.perf_counter()
    F = AssembledVector((W, residual))
    E_expr = F.blocks[ne:nf] - cs.elimination * F.blocks[:ne]
    E = _condensed_rhs(cs, assemble_global(E_expr), homogeneous_bcs)
    stages.forward = time.perf_counter() - t0

    t0 = time.perf_counter()
    lam, report = krylov_solve(cs.S, E, inner)
    stages.trace_solve = time.perf_counter() - t0

    t0 = time.perf_counter()
    condensed_fields = [W.fields[i] for i in range(ne, nf)]
    lam_vec = _as_multifield_vector(condensed_fields, lam)
    x_expr = cs.local_inverse * (F.blocks[:ne] - cs.coupling * lam_vec)
    out = np.empty(W.ndof_global)
    out[:cs.condensed_offset] = assemble_global(x_expr)
    out[cs.condensed_offset:] = lam
    stages.backsub = time.perf_counter() - t0
    return out, report, stages


def _as_multifield_vector(fields, vec):
    if len(fields) == 1:
        return AssembledVector(Function(fields[0], vec))
    return AssembledVector((MixedSpace(tuple(fields)), vec))


# ---------------------------------------------------------------------------
# hybridization of conforming mixed systems


@dataclass
class HybridizedMixed:
    conforming: MixedSpace           # (RT conforming, DG)
    system: HybridizableSystem       # (broken RT, DG, Trace), from hybridize
    transfer: BrokenTransfer
    cs: CondensedSystem
    trace_data: np.ndarray           # Neumann surface data for the trace rhs


def hybridization_setup(a_mixed: FormIR, rhs_mixed: FormIR | None = None,
                        neumann_flux=None) -> HybridizedMixed:
    """Hybridize a conforming H(div) x L2 bilinear form and condense it.

    :func:`~hybridfem.problems.hybridize` builds the three-field system
    from the arguments; its trace field is condensed with the Dirichlet
    trace constraints.  With ``neumann_flux`` (the exact flux on the
    Neumann boundary) the trace block of the system's right-hand side is
    kept as the transmission data used in full-solve mode.
    """
    hs = hybridize(a_mixed, rhs_mixed, neumann_flux)
    U = a_mixed.test_fields[0]
    bt = broken_transfer(U, hs.flux_space)
    cs = scpc_setup(hs.a, FieldSplit((0, 1), (2,)), hs.trace_bcs)
    trace_data = np.zeros(hs.trace_space.ndof_global)
    if neumann_flux is not None and len(U.mesh.facets_with_label(NEUMANN)):
        trace_data = hs.space.split(assemble_global(Tensor(hs.rhs)))[2]
    return HybridizedMixed(MixedSpace(a_mixed.test_fields), hs, bt, cs,
                           trace_data)


def hybridization_apply(hm: HybridizedMixed, residual: np.ndarray,
                        inner: KrylovConfig, include_boundary_data: bool = False
                        ) -> tuple[np.ndarray, SolveReport, Stages]:
    """Solve the hybridized problem for a conforming mixed residual.

    The conforming flux residual is split onto the broken space, the
    condensed trace system is solved, eliminated fields are recovered,
    and the broken flux is averaged back to H(div).  In residual
    correction mode (the default) the transmission right-hand side is
    zero; ``include_boundary_data`` adds the Neumann surface data and
    the stored trace constraint values, turning the application into a
    full solve from the problem's natural right-hand side.
    """
    Wc, W = hm.conforming, hm.system.space
    residual = np.asarray(residual, dtype=float)
    if residual.shape != (Wc.ndof_global,):
        raise ValueError("residual does not match the conforming mixed space")
    r_u, r_p = Wc.split(residual)
    t0 = time.perf_counter()
    r_hat = np.concatenate([
        transfer_residual(hm.transfer, r_u),
        r_p,
        hm.trace_data if include_boundary_data else np.zeros_like(hm.trace_data),
    ])
    transfer_time = time.perf_counter() - t0
    x3, report, stages = scpc_apply(
        hm.cs, r_hat, inner, homogeneous_bcs=not include_boundary_data
    )
    stages.forward += transfer_time
    t0 = time.perf_counter()
    ud, p, _lam = W.split(x3)
    u = project_div(hm.transfer, Function(hm.transfer.broken, ud))
    out = np.concatenate([u.coeffs, p])
    stages.backsub += time.perf_counter() - t0
    return out, report, stages
