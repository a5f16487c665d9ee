"""Static condensation and hybridization of multi-field systems.

Static condensation eliminates a system's leading cell-local (broken)
fields onto the rest.  The split is read from the test space's fields,
where Firedrake's SCPC is given it by ``pc_sc_eliminate_fields``.  It is
the paper's three Slate expressions over one set of local operators,
``X = A_ee^{-1} A_ec`` and ``S = A_cc - A_ce X``: the condensed
operator ``S``, the condensed right-hand side ``E = F_c - A_ce y`` with
``y = A_ee^{-1} F_e``, and the local recovery ``x_e = y - X lambda``.
Both entry points condense through one helper, which compiles ``X``,
``S`` and the entry point's own expressions into one plan (``A_ee`` is
inverted once), evaluates it over blocks of cells, and scatters and
constrains ``S``; one more helper solves for ``lambda``.

* :func:`condensed_solve` solves once.  Its plan adds ``y`` and ``E``;
  it keeps ``X`` and ``y`` per cell beside ``S`` and recovers ``x_e``
  cell by cell.
* :func:`scpc_setup` / :func:`scpc_apply` set the factorization up once
  and apply it to any residual.  Set-up adds ``A_ee^{-1}`` and ``A_ce``
  and keeps them with ``X`` as CSR matrices over the eliminated fields'
  global dofs and the condensed fields' dofs (``A_ce`` with its zeros
  dropped), placed from the plan's per-cell values; an application is
  the one-shot formulas as sparse products around the condensed solve.
* :func:`hybridization_setup` / :func:`hybridization_apply` hybridize a
  conforming H(div) x L2 mixed form with
  :func:`~hybridfem.problems.hybridize` (broken flux space, facet
  multipliers enforcing normal continuity), condense it with
  :func:`scpc_setup`, and wrap :func:`scpc_apply` in the conforming to
  broken residual transfer and the facet-averaging projection to H(div).

Each solve reports its time per stage in a :class:`Stages`, clocked by
:meth:`Stages.timing` alone; an application reports no set-up time.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, fields
from typing import Callable

import numpy as np
import scipy.sparse as sp

from .expressions import (
    Tensor,
    TensorExpr,
    assemble_global,
    compile_expr,
    constrain_matrix,
    evaluate_all,
    scatter_csr,
)
from .forms import FormIR
from .mesh import NEUMANN
from .problems import HybridizableSystem, hybridize
from .solvers import Constraints, KrylovConfig, SolveReport, krylov_solve
from .spaces import (
    BrokenTransfer,
    Function,
    MixedSpace,
    broken_transfer,
    project_div,
    transfer_residual,
)

@dataclass
class Stages:
    """Wall-clock seconds per solver stage, each the sum of the ``with``
    bodies of :meth:`timing`, the library's one stage clock."""

    condensation: float = 0.0
    forward: float = 0.0
    trace_solve: float = 0.0
    backsub: float = 0.0
    postprocess: float = 0.0

    @contextmanager
    def timing(self, stage: str):
        """Add the wall time of the ``with`` body to the field ``stage``."""
        t0 = time.perf_counter()
        yield
        setattr(self, stage, getattr(self, stage) + time.perf_counter() - t0)

    def add(self, other: Stages) -> None:
        """Add each of ``other``'s stage times to this one's."""
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))

    def total(self) -> float:
        return sum(getattr(self, f.name) for f in fields(self))


@dataclass
class CondensedSystem:
    """A condensed multi-field system.  The local operators are CSR over
    the eliminated fields' global dofs (they come first) and the
    condensed fields' dofs from 0."""

    S: sp.csr_matrix                 # A_cc - A_ce X, constraints applied
    constraints: Constraints         # on the condensed fields' dofs from 0
    lift: np.ndarray                 # the unconstrained S times constraints.vector
    local_inverse: sp.csr_matrix     # A_ee^{-1}
    A_ce: sp.csr_matrix              # structural zeros dropped
    X: sp.csr_matrix                 # A_ee^{-1} A_ec


def _cell_local_fields(A: Tensor) -> int:
    """The number of leading cell-local (broken) fields of ``A``'s test
    space: static condensation eliminates them onto the rest."""
    if not isinstance(A.form.test, MixedSpace) or A.form.rank != 2:
        raise ValueError("static condensation expects a mixed bilinear form")
    fields = A.form.test.fields
    ne = next((i for i, s in enumerate(fields) if not s.broken), len(fields))
    if ne == 0:
        s = fields[0]
        raise ValueError(
            f"field 0 ({s.family.kind}({s.family.degree})) is not "
            "cell-local; eliminating it would couple neighbouring cells"
        )
    if ne == len(fields):
        raise ValueError("every field is cell-local; none is left to condense onto")
    return ne


def _condense(A: Tensor, ne: int, bcs: Constraints | None, *exprs: TensorExpr):
    """Eliminate ``A``'s ``ne`` leading fields: evaluate over its cells, in
    one plan, ``X = A_ee^{-1} A_ec``, ``exprs`` and the local condensed
    operator ``S = A_cc - A_ce X``; a subtree of ``exprs`` equal to one of
    these is computed once.  ``bcs`` number the dofs of ``A``'s whole
    space and may constrain only condensed fields.  Returns the values of ``X`` and ``exprs``, ``S``
    with the constraints eliminated symmetrically, the constraints moved
    to the condensed fields' dofs from 0 and their lift ``S @ g``, and
    each cell's eliminated-field global dofs and condensed-field dofs
    from 0 (int32)."""
    W = A.form.test
    off, width = int(W.offsets[ne]), sum(s.local_dim for s in W.fields[:ne])
    bcs = bcs or Constraints()
    if len(bcs) and bcs.dofs[0] < off:
        raise ValueError(f"constrained dof {bcs.dofs[0]} lies on an eliminated field "
                         f"(the condensed fields start at dof {off})")
    bcs = Constraints(bcs.dofs - off, bcs.values)
    X = A.blocks[:ne, :ne].inv * A.blocks[:ne, ne:]
    *values, s_local = evaluate_all(compile_expr(
        X, *exprs, A.blocks[ne:, ne:] - A.blocks[ne:, :ne] * X))
    cell_dofs = W.cell_dofs_global().astype(np.int32)
    maps = cell_dofs[:, :width], cell_dofs[:, width:] - np.int32(off)
    n = W.ndof_global - off
    S = scatter_csr(s_local, maps[1], maps[1], (n, n))
    lift = S @ bcs.vector(n)
    return values, constrain_matrix(S, bcs.dofs) if len(bcs) else S, bcs, lift, maps


def _trace_solve(S: sp.csr_matrix, bcs: Constraints, lift: np.ndarray, E: np.ndarray,
                 inner: KrylovConfig, homogeneous_bcs: bool, stages: Stages
                 ) -> tuple[np.ndarray, SolveReport]:
    """Constrain the condensed right-hand side ``E`` (zeroed in place at
    the constrained dofs with ``homogeneous_bcs``, lifted by ``lift``
    otherwise) and solve ``S lambda = E``.  The constraint step adds to
    ``stages.forward``; the solve adds to ``stages.trace_solve``."""
    with stages.timing("forward"):
        E = bcs.rhs_homogeneous(E) if homogeneous_bcs else bcs.rhs(E, lift)
    with stages.timing("trace_solve"):
        return krylov_solve(S, E, inner)


def condensed_solve(a: FormIR, rhs: FormIR, bcs: Constraints | None,
                    make_inner: Callable[[sp.csr_matrix], KrylovConfig]
                    ) -> tuple[np.ndarray, SolveReport, Stages]:
    """Solve ``a x = rhs`` once by static condensation.

    One plan condenses the operator and the right-hand side; only
    ``X = A_ee^{-1} A_ec``, ``y = A_ee^{-1} F_e`` and the condensed
    operator are kept through the trace solve.  ``bcs`` constrain dofs of
    the condensed fields, numbered in ``a``'s whole space; ``make_inner(S)``
    configures the trace solve, and its time counts as trace-solve time.
    """
    A, F = Tensor(a), Tensor(rhs)
    ne = _cell_local_fields(A)
    stages = Stages()
    with stages.timing("condensation"):
        y = A.blocks[:ne, :ne].inv * F.blocks[:ne]
        (X, y, e_local), S, bcs, lift, (elim_dofs, cond_dofs) = _condense(
            A, ne, bcs, y, F.blocks[ne:] - A.blocks[ne:, :ne] * y)
    with stages.timing("forward"):
        E = np.bincount(cond_dofs.ravel(), e_local.ravel(), minlength=S.shape[0])
        del e_local
    with stages.timing("trace_solve"):
        inner = make_inner(S)
    lam, report = _trace_solve(S, bcs, lift, E, inner, False, stages)
    with stages.timing("backsub"):
        x = np.concatenate([np.empty(elim_dofs.size), lam])
        x[elim_dofs] = y - np.einsum("cij,cj->ci", X, lam[cond_dofs])
    return x, report, stages


def scpc_setup(a: FormIR | Tensor, bcs: Constraints | None = None) -> CondensedSystem:
    """Condense a multi-field system, keeping what applications need.

    ``a`` is the form, or its :class:`Tensor`; a tensor whose value the
    caller has memoized is not assembled again.  ``bcs`` constrain dofs of
    the condensed fields, numbered in ``a``'s whole space; they are
    eliminated symmetrically and lifted by :func:`scpc_apply`.
    """
    A = a if isinstance(a, Tensor) else Tensor(a)
    ne = _cell_local_fields(A)
    (X, inv, A_ce), S, bcs, lift, (elim_dofs, cond_dofs) = _condense(
        A, ne, bcs, A.blocks[:ne, :ne].inv, A.blocks[ne:, :ne])
    n_e, n_c = elim_dofs.size, S.shape[0]
    # each output is freed once converted: a CSR form outweighs its dense
    # values, so the largest goes first, and A_ce before X, as dropping
    # its zeros can shrink it
    inv = scatter_csr(inv, elim_dofs, elim_dofs, (n_e, n_e), sum_duplicates=False)
    A_ce = scatter_csr(A_ce, cond_dofs, elim_dofs, (n_c, n_e), sum_duplicates=False)
    A_ce.eliminate_zeros()
    X = scatter_csr(X, elim_dofs, cond_dofs, (n_e, n_c), sum_duplicates=False)
    return CondensedSystem(S=S, constraints=bcs, lift=lift, local_inverse=inv,
                           A_ce=A_ce, X=X)


def scpc_apply(cs: CondensedSystem, residual: np.ndarray, inner: KrylovConfig,
               homogeneous_bcs: bool = False
               ) -> tuple[np.ndarray, SolveReport, Stages]:
    """Apply the condensation factorization to a multi-field residual.

    The one-shot formulas as sparse products: ``y = A_ee^{-1} r_e`` and
    ``E = r_c - A_ce y``, the condensed solve ``S lambda = E``, and
    ``x_e = y - X lambda``.  With
    ``homogeneous_bcs`` the stored constraint values are replaced by
    zero (residual-correction mode).
    """
    n_e = cs.local_inverse.shape[0]
    residual = np.asarray(residual, dtype=float)
    if residual.shape != (n_e + cs.S.shape[0],):
        raise ValueError("residual does not match the condensed system")
    stages = Stages()
    with stages.timing("forward"):
        y = cs.local_inverse @ residual[:n_e]
        E = residual[n_e:] - cs.A_ce @ y
    lam, report = _trace_solve(cs.S, cs.constraints, cs.lift, E, inner, homogeneous_bcs, stages)
    with stages.timing("backsub"):
        out = np.concatenate([y - cs.X @ lam, lam])
    return out, report, stages


# ---------------------------------------------------------------------------
# hybridization of conforming mixed systems


@dataclass
class HybridizedMixed:
    conforming: MixedSpace           # (RT conforming, DG)
    transfer: BrokenTransfer
    cs: CondensedSystem
    trace_data: np.ndarray           # Neumann surface data for the trace rhs


def hybridization_setup(a_mixed: FormIR, neumann_flux=None) -> HybridizedMixed:
    """Hybridize a conforming H(div) x L2 bilinear form and condense it.

    :func:`~hybridfem.problems.hybridize` builds the three-field system
    from the arguments; its trace field is condensed with the Dirichlet
    trace constraints.  Only the trace block of the system's right-hand
    side is kept (the Neumann data of ``neumann_flux``), so no mixed
    right-hand side is taken.
    """
    hs = hybridize(a_mixed, neumann_flux=neumann_flux)
    return hybridized(a_mixed, hs, scpc_setup(hs.a, hs.trace_bcs))


def hybridized(a_mixed: FormIR, hs: HybridizableSystem,
               cs: CondensedSystem) -> HybridizedMixed:
    """The hybridization of ``a_mixed`` from its three-field system ``hs``
    (from :func:`~hybridfem.problems.hybridize`) and ``cs``, ``hs.a``
    condensed onto the trace; ``cs`` is shared, not copied, and ``hs``
    is not kept.  If ``hs.rhs`` has Neumann trace terms (from an exact
    flux) and the mesh has Neumann facets, the trace block of ``hs.rhs``
    is kept as the transmission data used in full-solve mode."""
    U = a_mixed.test_fields[0]
    trace_data = np.zeros(hs.trace_space.ndof_global)
    if (len(U.mesh.facets_with_label(NEUMANN))
            and any(hs.rhs.term_blocks(t)[0] == 2 for t in hs.rhs.terms)):
        trace_data = hs.space.split(assemble_global(Tensor(hs.rhs)))[2]
    return HybridizedMixed(MixedSpace(a_mixed.test_fields),
                           broken_transfer(U, hs.flux_space), cs, trace_data)


def hybridization_apply(hm: HybridizedMixed, residual: np.ndarray,
                        inner: KrylovConfig, include_boundary_data: bool = False
                        ) -> tuple[np.ndarray, SolveReport, Stages]:
    """Solve the hybridized problem for a conforming mixed residual.

    The conforming flux residual is split onto the broken space,
    :func:`scpc_apply` solves the three-field system, and the broken
    flux is averaged back to H(div).  In residual correction mode (the
    default) the transmission right-hand side is zero;
    ``include_boundary_data`` adds the Neumann surface data and the
    stored trace constraint values, turning the application into a full
    solve from the problem's natural right-hand side.
    """
    Wc = hm.conforming
    residual = np.asarray(residual, dtype=float)
    if residual.shape != (Wc.ndof_global,):
        raise ValueError("residual does not match the conforming mixed space")
    stages = Stages()
    with stages.timing("forward"):
        r_u, r_p = Wc.split(residual)
        g = hm.trace_data if include_boundary_data else np.zeros_like(hm.trace_data)
        r = np.concatenate([transfer_residual(hm.transfer, r_u), r_p, g])
    x, report, applied = scpc_apply(hm.cs, r, inner, homogeneous_bcs=not include_boundary_data)
    stages.add(applied)
    with stages.timing("backsub"):
        n_u, n_e = hm.transfer.broken.ndof_global, hm.cs.local_inverse.shape[0]
        u = project_div(hm.transfer, Function(hm.transfer.broken, x[:n_u]))
        out = np.concatenate([u.coeffs, x[n_u:n_e]])
    return out, report, stages
