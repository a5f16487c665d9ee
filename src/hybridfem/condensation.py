"""Static condensation and hybridization of multi-field systems.

Two composable solver building blocks:

* :func:`scpc_setup` / :func:`scpc_apply` — generic cell-local static
  condensation of a multi-field system whose leading fields are
  discontinuous.  Set-up compiles one plan with four outputs, the local
  inverse ``A_ee^{-1}``, the coupling ``A_ec``, the elimination operator
  ``A_ce A_ee^{-1}`` and the local values of the Schur complement
  ``A_cc - A_ce A_ee^{-1} A_ec``, and evaluates it once; the evaluator
  runs it over blocks of cells, so the element tensors and local
  products of the whole mesh never exist at once.  The condensed (trace)
  operator is assembled from the local values of ``S``, and the other
  three outputs are kept as block-diagonal sparse matrices, one block
  per cell, with the eliminated-field global dofs and condensed-field
  dofs as flat maps in the same cell-major order.  An application
  compiles and assembles nothing: it forward-eliminates as
  ``r_c - bincount(c_dofs, elimination @ r_e)`` (so each condensed-field
  residual entry enters once), solves the condensed system with an
  inner Krylov method, and recovers the eliminated fields as
  ``local_inverse @ (r_e - coupling @ lambda[c_dofs])``, written
  straight into their own dofs.

* :func:`hybridization_setup` / :func:`hybridization_apply` — takes a
  conforming H(div) x L2 mixed form, hybridizes it with
  :func:`~hybridfem.problems.hybridize` (broken flux space, facet
  multipliers enforcing normal continuity), condenses the result, and
  wraps the condensed solve with the conforming/broken residual
  transfer and the facet-averaging projection back to H(div).

Each caller gets the form of the local operators that pays off for it.
:func:`scpc_setup` keeps the block form: a solve that applies once per
set-up (``solve_hybridizable``) would pay for a second layout in
set-up time and peak memory and win nothing back.  A hybridization is
set up once and applied many times (as a preconditioner, or once per
time step), so :func:`hybridized` moves the blocks into CSR matrices
over the global dofs of the eliminated fields, once, by permuting the
block rows: ``A_ee^{-1}``, ``A_ec`` with its structural zeros dropped,
and ``A_ce A_ee^{-1}``, whose trace rows sum the two cells of each
interior facet.  An application is then the residual transfer, one
product into the trace right-hand side, the trace solve,
``A_ee^{-1} (r_e - A_ec lambda)`` and the projection, with no gather,
``bincount`` or scatter by index map.

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
    assemble_global,
    compile_expr,
    constrain_matrix,
    evaluate_all,
    scatter_csr,
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
class TraceSystem:
    """A condensed (trace) operator with its constraints, in the condensed
    fields' numbering from 0."""

    S: sp.csr_matrix                 # condensed operator, constraints applied
    S_raw: sp.csr_matrix             # before constraints (for lifting)
    bc_dofs: np.ndarray
    bc_values: np.ndarray
    setup_time: float


@dataclass
class CondensedSystem(TraceSystem):
    space: MixedSpace
    # block-diagonal, one block per cell, acting on the flat maps' order
    local_inverse: sp.bsr_matrix     # A_ee^{-1}
    coupling: sp.bsr_matrix          # A_ec
    elimination: sp.bsr_matrix       # A_ce A_ee^{-1}
    e_dofs: np.ndarray               # eliminated-field global dofs, cell-major
    c_dofs: np.ndarray               # condensed-field dofs from 0, cell-major
    condensed_offset: int            # global offset of the condensed fields


@dataclass
class GlobalCondensedSystem(TraceSystem):
    # CSR over the eliminated fields' global dofs (they come first) and
    # the condensed fields' dofs from 0
    local_inverse: sp.csr_matrix     # A_ee^{-1}
    coupling: sp.csr_matrix          # A_ec, structural zeros dropped
    elimination: sp.csr_matrix       # A_ce A_ee^{-1}; a row holds both cells of its facet


def _check_eliminable(space: MixedSpace, split: FieldSplit) -> None:
    for i in split.eliminate:
        s = space.fields[i]
        if not s.broken:
            raise ValueError(
                f"field {i} ({s.family.kind}({s.family.degree})) is not "
                "cell-local; eliminating it would couple neighbouring cells"
            )


def _block_diagonal(blocks: np.ndarray) -> sp.bsr_matrix:
    """Per-cell blocks (nc, rows, cols) as one block-diagonal matrix."""
    nc, rows, cols = blocks.shape
    return sp.bsr_matrix((blocks, np.arange(nc), np.arange(nc + 1)),
                         shape=(nc * rows, nc * cols))


def scpc_setup(a: FormIR | Tensor, split: FieldSplit,
               bcs: list[tuple[int, float]] | None = None) -> CondensedSystem:
    """Assemble the condensed operator of a multi-field system.

    ``a`` is the form, or its :class:`Tensor`; a tensor whose value the
    caller has memoized is not assembled again.  ``bcs`` lists (dof, value)
    constraints in the condensed fields' local numbering, eliminated
    symmetrically and lifted by :func:`scpc_apply`.
    """
    A = a if isinstance(a, Tensor) else Tensor(a)
    if not isinstance(A.form.test, MixedSpace) or A.form.rank != 2:
        raise ValueError("static condensation expects a mixed bilinear form")
    W = A.form.test
    _check_eliminable(W, split)
    t0 = time.perf_counter()
    ne = len(split.eliminate)
    n_elim = sum(W.fields[i].local_dim for i in split.eliminate)
    inv = A.blocks[:ne, :ne].inv
    coupling = A.blocks[:ne, ne:]
    elimination = A.blocks[ne:, :ne] * inv
    # rebinding the names to the values frees the nodes that memoize them
    inv, coupling, elimination, s_local = evaluate_all(compile_expr(
        inv, coupling, elimination, A.blocks[ne:, ne:] - elimination * coupling))
    cell_dofs = W.cell_dofs_global()
    c_dofs = cell_dofs[:, n_elim:] - W.offsets[ne]
    S_raw = scatter_csr(s_local, c_dofs, c_dofs, (int(W.ndof_global - W.offsets[ne]),) * 2)
    del s_local  # S's local values are not kept
    bc_dofs = np.array([d for d, _ in (bcs or [])], dtype=int)
    bc_values = np.array([v for _, v in (bcs or [])], dtype=float)
    S = constrain_matrix(S_raw, bc_dofs) if len(bc_dofs) else S_raw
    dt = time.perf_counter() - t0
    return CondensedSystem(
        space=W,
        local_inverse=_block_diagonal(inv),
        coupling=_block_diagonal(coupling),
        elimination=_block_diagonal(elimination),
        e_dofs=cell_dofs[:, :n_elim].ravel(),
        c_dofs=c_dofs.ravel(),
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
    stages.forward = time.perf_counter() - t0
    lam, report = _trace_solve(cs, E, inner, homogeneous_bcs, stages)

    t0 = time.perf_counter()
    out = np.empty(W.ndof_global)
    out[cs.e_dofs] = cs.local_inverse @ (r_e - cs.coupling @ lam[cs.c_dofs])
    out[cs.condensed_offset:] = lam
    stages.backsub = time.perf_counter() - t0
    return out, report, stages


def _trace_solve(ts: TraceSystem, E: np.ndarray, inner: KrylovConfig,
                 homogeneous_bcs: bool, stages: Stages
                 ) -> tuple[np.ndarray, SolveReport]:
    """Constrain the condensed right-hand side ``E`` (zero at the
    constrained dofs with ``homogeneous_bcs``, lifted otherwise) and
    solve the condensed system.  The constraint step adds to
    ``stages.forward``; the solve sets ``stages.trace_solve``."""
    t0 = time.perf_counter()
    if homogeneous_bcs:
        E[ts.bc_dofs] = 0.0
    elif len(ts.bc_dofs):
        E = lift_bcs(ts.S_raw, E, ts.bc_dofs, ts.bc_values)
    t1 = time.perf_counter()
    lam, report = krylov_solve(ts.S, E, inner)
    stages.forward += t1 - t0
    stages.trace_solve = time.perf_counter() - t1
    return lam, report


# ---------------------------------------------------------------------------
# hybridization of conforming mixed systems


@dataclass
class HybridizedMixed:
    conforming: MixedSpace           # (RT conforming, DG)
    system: HybridizableSystem       # (broken RT, DG, Trace), from hybridize
    transfer: BrokenTransfer
    cs: GlobalCondensedSystem
    trace_data: np.ndarray           # Neumann surface data for the trace rhs


def hybridization_setup(a_mixed: FormIR, rhs_mixed: FormIR | None = None,
                        neumann_flux=None) -> HybridizedMixed:
    """Hybridize a conforming H(div) x L2 bilinear form and condense it.

    :func:`~hybridfem.problems.hybridize` builds the three-field system
    from the arguments; its trace field is condensed with the Dirichlet
    trace constraints by :func:`hybridized`.
    """
    hs = hybridize(a_mixed, rhs_mixed, neumann_flux)
    return hybridized(a_mixed, hs, scpc_setup(hs.a, FieldSplit((0, 1), (2,)), hs.trace_bcs))


def _by_dofs(blocks: np.ndarray, rows: np.ndarray, cols: np.ndarray,
             shape: tuple[int, int]) -> sp.csr_matrix:
    """Per-cell blocks (nc, r, k) placed at global rows ``rows`` (nc, r)
    and columns ``cols`` (nc, k) as a CSR matrix, by permuting the block
    rows.  Blocks that share a row fill it side by side; no two blocks
    share an entry."""
    nc, r, k = blocks.shape
    order = np.argsort(rows.ravel(), kind="stable").astype(np.int32)
    indptr = np.concatenate([[0], np.cumsum(np.bincount(rows.ravel(), minlength=shape[0]) * k)])
    return sp.csr_matrix((blocks.reshape(nc * r, k)[order].ravel(),
                          cols[order // r].ravel(), indptr), shape=shape)


def _global_form(cs: CondensedSystem) -> GlobalCondensedSystem:
    """``cs``'s block-diagonal operators as CSR matrices over the global
    dofs of the eliminated fields and the condensed fields' dofs.  They
    move: each is dropped from ``cs`` once converted, and so are the
    flat maps, so the two forms of all three never coexist."""
    t0 = time.perf_counter()
    nc, n_e, n_c = cs.space.mesh.n_cells, cs.condensed_offset, cs.S.shape[0]
    e_dofs = cs.e_dofs.astype(np.int32).reshape(nc, -1)
    c_dofs = cs.c_dofs.astype(np.int32).reshape(nc, -1)
    cs.e_dofs = cs.c_dofs = None
    # smallest global form first, so that no step holds much of both
    coupling = _by_dofs(cs.coupling.data, e_dofs, c_dofs, (n_e, n_c))
    coupling.eliminate_zeros()
    cs.coupling = None
    local_inverse = _by_dofs(cs.local_inverse.data, e_dofs, e_dofs, (n_e, n_e))
    cs.local_inverse = None
    elimination = _by_dofs(cs.elimination.data, c_dofs, e_dofs, (n_c, n_e))
    cs.elimination = None
    return GlobalCondensedSystem(
        S=cs.S, S_raw=cs.S_raw, bc_dofs=cs.bc_dofs, bc_values=cs.bc_values,
        setup_time=cs.setup_time + time.perf_counter() - t0,
        local_inverse=local_inverse, coupling=coupling,
        elimination=elimination)


def hybridized(a_mixed: FormIR, hs: HybridizableSystem,
               cs: CondensedSystem) -> HybridizedMixed:
    """The hybridization of ``a_mixed`` from its three-field system ``hs``
    (from :func:`~hybridfem.problems.hybridize`) and ``cs``, ``hs.a``
    condensed onto the trace.  ``cs``'s per-cell operators move into the
    result in global numbering: ``cs`` is left without them, and a caller
    that applies ``cs`` later passes a copy (``dataclasses.replace``).
    If ``hs.rhs`` has Neumann trace terms (from an exact flux) and the
    mesh has Neumann facets, the trace block of ``hs.rhs`` is kept as
    the transmission data used in full-solve mode."""
    U = a_mixed.test_fields[0]
    trace_data = np.zeros(hs.trace_space.ndof_global)
    if (len(U.mesh.facets_with_label(NEUMANN))
            and any(hs.rhs.term_blocks(t)[0] == 2 for t in hs.rhs.terms)):
        trace_data = hs.space.split(assemble_global(Tensor(hs.rhs)))[2]
    return HybridizedMixed(MixedSpace(a_mixed.test_fields), hs,
                           broken_transfer(U, hs.flux_space), _global_form(cs), trace_data)


def hybridization_apply(hm: HybridizedMixed, residual: np.ndarray,
                        inner: KrylovConfig, include_boundary_data: bool = False
                        ) -> tuple[np.ndarray, SolveReport, Stages]:
    """Solve the hybridized problem for a conforming mixed residual.

    The conforming flux residual is split onto the broken space, the
    condensed trace system is solved, eliminated fields are recovered,
    and the broken flux is averaged back to H(div); each step between
    the transfers is one sparse product.  In residual correction mode
    (the default) the transmission right-hand side is zero;
    ``include_boundary_data`` adds the Neumann surface data and the
    stored trace constraint values, turning the application into a full
    solve from the problem's natural right-hand side.
    """
    Wc, gs = hm.conforming, hm.cs
    residual = np.asarray(residual, dtype=float)
    if residual.shape != (Wc.ndof_global,):
        raise ValueError("residual does not match the conforming mixed space")
    r_u, r_p = Wc.split(residual)
    stages = Stages(condensation=gs.setup_time)
    t0 = time.perf_counter()
    r_e = np.concatenate([transfer_residual(hm.transfer, r_u), r_p])
    E = (hm.trace_data if include_boundary_data else 0.0) - gs.elimination @ r_e
    stages.forward = time.perf_counter() - t0
    lam, report = _trace_solve(gs, E, inner, not include_boundary_data, stages)

    t0 = time.perf_counter()
    x_e = gs.local_inverse @ (r_e - gs.coupling @ lam)
    n_u = hm.transfer.broken.ndof_global
    u = project_div(hm.transfer, Function(hm.transfer.broken, x_e[:n_u]))
    out = np.concatenate([u.coeffs, x_e[n_u:]])
    stages.backsub = time.perf_counter() - t0
    return out, report, stages
