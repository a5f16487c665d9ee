"""Static condensation and hybridization of multi-field systems.

Two composable solver building blocks:

* :func:`scpc_setup` / :func:`scpc_apply` — generic cell-local static
  condensation of a multi-field system whose leading fields are
  discontinuous.  Set-up evaluates the element tensors once, coefficient
  data included, and assembles the condensed (trace) operator from the
  Schur complement ``A_cc - A_ce A_ee^{-1} A_ec``.  It keeps the
  elimination operator ``A_ce A_ee^{-1}``, the coupling ``A_ec`` and the
  local inverse ``A_ee^{-1}`` (memoized while ``S`` is evaluated) as
  block-diagonal sparse matrices, one block per cell, and the
  eliminated-field global dofs and condensed-field dofs as flat maps in
  the same cell-major order.  An application compiles and assembles
  nothing: it forward-eliminates as
  ``r_c - bincount(c_dofs, elimination @ r_e)`` (so each condensed-field
  residual entry enters once), solves the condensed system with an
  inner Krylov method, and recovers the eliminated fields as
  ``local_inverse @ (r_e - coupling @ lambda[c_dofs])``, written
  straight into their own dofs.

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
    Tensor,
    TensorExpr,
    assemble_global,
    compile_expr,
    constrain_matrix,
    evaluate_all,
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
    # block-diagonal, one block per cell, acting on the flat maps' order
    local_inverse: sp.bsr_matrix     # A_ee^{-1}
    coupling: sp.bsr_matrix          # A_ec
    elimination: sp.bsr_matrix       # A_ce A_ee^{-1}
    e_dofs: np.ndarray               # eliminated-field global dofs, cell-major
    c_dofs: np.ndarray               # condensed-field dofs from 0, cell-major
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


def _block_diagonal(expr: TensorExpr) -> sp.bsr_matrix:
    """The per-cell values of ``expr`` as one block-diagonal matrix (a
    strided view is copied once, here, not on every product)."""
    blocks = evaluate_all(compile_expr(expr))
    nc, rows, cols = blocks.shape
    return sp.bsr_matrix((np.ascontiguousarray(blocks), np.arange(nc), np.arange(nc + 1)),
                         shape=(nc * rows, nc * cols))


def scpc_setup(a: FormIR | Tensor, split: FieldSplit,
               bcs: list[tuple[int, float]] | None = None) -> CondensedSystem:
    """Assemble the condensed operator of a multi-field system.

    ``a`` is the form, or its frozen :class:`Tensor` if the caller keeps the
    element tensors.  ``bcs`` lists (dof, value) constraints in the condensed
    fields' local numbering, eliminated symmetrically and lifted by :func:`scpc_apply`.
    """
    A = a if isinstance(a, Tensor) else Tensor(a, frozen=True)  # coefficient data too, once
    if not isinstance(A.form.test, MixedSpace) or A.form.rank != 2:
        raise ValueError("static condensation expects a mixed bilinear form")
    W = A.form.test
    _check_eliminable(W, split)
    t0 = time.perf_counter()
    ne = len(split.eliminate)
    nf = W.n_fields
    local_inverse = A.blocks[:ne, :ne].inv
    coupling = A.blocks[:ne, ne:nf]
    elimination = A.blocks[ne:nf, :ne] * local_inverse
    # evaluating S memoizes the element tensors and the local values read below
    S_raw = assemble_global(A.blocks[ne:nf, ne:nf] - elimination * coupling)
    cell_dofs = W.cell_dofs_global()
    n_elim = sum(W.fields[i].local_dim for i in split.eliminate)
    bc_dofs = np.array([d for d, _ in (bcs or [])], dtype=int)
    bc_values = np.array([v for _, v in (bcs or [])], dtype=float)
    S = constrain_matrix(S_raw, bc_dofs) if len(bc_dofs) else S_raw
    dt = time.perf_counter() - t0
    return CondensedSystem(
        space=W,
        local_inverse=_block_diagonal(local_inverse),
        coupling=_block_diagonal(coupling),
        elimination=_block_diagonal(elimination),
        e_dofs=cell_dofs[:, :n_elim].ravel(),
        c_dofs=(cell_dofs[:, n_elim:] - W.offsets[ne]).ravel(),
        S=S,
        S_raw=S_raw,
        bc_dofs=bc_dofs,
        bc_values=bc_values,
        condensed_offset=int(W.offsets[ne]),
        setup_time=dt,
    )


def scpc_apply(cs: CondensedSystem, residual: np.ndarray, inner: KrylovConfig,
               homogeneous_bcs: bool = False
               ) -> tuple[np.ndarray, SolveReport, Stages]:
    """Apply the condensation factorization to a multi-field residual.

    Forward-eliminates the eliminated-field residual into the condensed
    right-hand side, solves the condensed system, and reconstructs the
    eliminated fields cell-wise from the values kept at set-up.  With
    ``homogeneous_bcs`` the stored constraint values are replaced by
    zero (residual-correction mode).
    """
    W = cs.space
    stages = Stages(condensation=cs.setup_time)
    residual = np.asarray(residual, dtype=float)
    if residual.shape != (W.ndof_global,):
        raise ValueError("residual does not match the mixed space")

    t0 = time.perf_counter()
    r_e = residual[cs.e_dofs]
    r_c = residual[cs.condensed_offset:]
    E = r_c - np.bincount(cs.c_dofs, cs.elimination @ r_e, minlength=len(r_c))
    if homogeneous_bcs:
        E[cs.bc_dofs] = 0.0
    elif len(cs.bc_dofs):
        E = lift_bcs(cs.S_raw, E, cs.bc_dofs, cs.bc_values)
    stages.forward = time.perf_counter() - t0

    t0 = time.perf_counter()
    lam, report = krylov_solve(cs.S, E, inner)
    stages.trace_solve = time.perf_counter() - t0

    t0 = time.perf_counter()
    out = np.empty(W.ndof_global)
    out[cs.e_dofs] = cs.local_inverse @ (r_e - cs.coupling @ lam[cs.c_dofs])
    out[cs.condensed_offset:] = lam
    stages.backsub = time.perf_counter() - t0
    return out, report, stages


# ---------------------------------------------------------------------------
# hybridization of conforming mixed systems


@dataclass
class HybridizedMixed:
    conforming: MixedSpace           # (RT conforming, DG)
    system: HybridizableSystem       # (broken RT, DG, Trace), from hybridize
    transfer: BrokenTransfer
    cs: CondensedSystem
    operator: Tensor                 # hs.a, element tensors memoized by set-up
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
    operator = Tensor(hs.a, frozen=True)
    cs = scpc_setup(operator, FieldSplit((0, 1), (2,)), hs.trace_bcs)
    trace_data = np.zeros(hs.trace_space.ndof_global)
    if neumann_flux is not None and len(U.mesh.facets_with_label(NEUMANN)):
        trace_data = hs.space.split(assemble_global(Tensor(hs.rhs)))[2]
    return HybridizedMixed(MixedSpace(a_mixed.test_fields), hs, bt, cs, operator,
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
