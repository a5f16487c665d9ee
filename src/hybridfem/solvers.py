"""Global Krylov solvers, the sparse direct oracle and boundary conditions.

CG and flexible GMRES are implemented here directly: flexible
preconditioning (inner Krylov solves inside the preconditioner) and
deterministic iteration reports are needed, and runs are serial.
Sparse direct solves are delegated to scipy.

Convergence is declared on the true relative residual of the solved
system; non-convergence is reported, not raised, with the reason the
iteration stopped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.linalg
from scipy.linalg.blas import daxpy
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .expressions import constrain_matrix


@dataclass
class KrylovConfig:
    method: str = "cg"  # "cg" | "fgmres"
    rtol: float = 1e-8
    maxiter: int = 2000
    restart: int = 50
    preconditioner: Callable[[np.ndarray], np.ndarray] | None = None

    def __post_init__(self):
        if not 0.0 < self.rtol < 1.0:
            raise ValueError("rtol must lie in (0, 1)")
        if self.maxiter < 1:
            raise ValueError("maxiter must be at least 1")
        if self.method not in ("cg", "fgmres"):
            raise ValueError(f"unknown Krylov method {self.method!r}; use 'cg' or 'fgmres'")


@dataclass
class SolveReport:
    method: str
    iterations: int
    residual: float  # final true relative residual
    converged: bool
    reason: str = "converged"  # converged | maxiter | indefinite | breakdown


# ---------------------------------------------------------------------------
# Krylov methods


def krylov_solve(A, b: np.ndarray, cfg: KrylovConfig,
                 x0: np.ndarray | None = None) -> tuple[np.ndarray, SolveReport]:
    """Iterate to a true relative residual below ``cfg.rtol``.

    ``A`` is any operator with a ``shape`` and ``A @ x`` (a sparse or
    dense matrix).  Returns the approximate solution together with a
    report; non-convergence is recorded in the report rather than raised.
    """
    matvec = lambda x: A @ x
    b = np.asarray(b, dtype=float)
    if b.shape != (A.shape[0],):
        raise ValueError("right-hand side does not match the operator")
    x, its, res, stop = np.zeros(len(b)), 0, 0.0, "converged"
    bnorm = np.linalg.norm(b)
    if bnorm != 0.0:
        if x0 is not None:
            x = np.asarray(x0, dtype=float).copy()
        r = b.copy() if x0 is None else b - matvec(x)
        res = np.linalg.norm(r) / bnorm
        if not res <= cfg.rtol:
            method = _cg if cfg.method == "cg" else _fgmres
            x, its, res, stop = method(matvec, b, bnorm, x, r, res,
                                       cfg.preconditioner or (lambda v: v), cfg)
    converged = bool(res <= cfg.rtol)
    report = SolveReport(cfg.method, its, res, converged,
                         "converged" if converged else stop)
    return x, report


def _cg(matvec, b, bnorm, x, r, res, M, cfg):
    """Preconditioned CG from ``x``, whose residual ``r`` has relative norm
    ``res``; returns (x, iterations, residual, stop reason).

    ``x`` and ``r`` (both owned by :func:`krylov_solve`) are updated in
    place by BLAS ``daxpy`` and the direction is formed in CG's own ``p``;
    nothing ``M`` returns is written to, as the ``none`` preconditioner
    returns ``r`` itself.  A non-finite ``p . Ap`` or residual is a
    breakdown.
    """
    z = M(r)
    p = z.copy()
    rz = r @ z
    for it in range(1, cfg.maxiter + 1):
        Ap = matvec(p)
        denom = p @ Ap
        if not math.isfinite(denom):
            return x, it - 1, res, "breakdown"
        if denom <= 0.0:
            # loss of positive definiteness; report current state
            return x, it - 1, res, "indefinite"
        alpha = rz / denom
        x = daxpy(p, x, a=alpha)
        r = daxpy(Ap, r, a=-alpha)
        res = np.sqrt(r @ r) / bnorm
        if res <= cfg.rtol:
            return x, it, res, "converged"
        if not math.isfinite(res):
            return x, it, res, "breakdown"
        z = M(r)
        rz_new = r @ z
        p *= rz_new / rz
        p += z
        rz = rz_new
    return x, cfg.maxiter, res, "maxiter"


def _fgmres(matvec, b, bnorm, x, r, res, M, cfg):
    """Right-preconditioned flexible GMRES with restarts, from ``x`` as
    :func:`_cg` starts.

    The monitored residual is the true residual of the original system,
    so convergence reports need no un-preconditioning.  A breakdown (no
    new Krylov direction) ends the iteration after its least-squares
    update; a non-finite Arnoldi column norm ends it before, keeping the
    last restart's ``x``.  Returns (x, iterations, residual, stop reason).
    """
    n, total_its = len(b), 0
    m = cfg.restart
    breakdown = False
    while total_its < cfg.maxiter:
        beta = np.linalg.norm(r)
        V = np.zeros((m + 1, n))
        Z = np.zeros((m, n))
        H = np.zeros((m + 1, m))
        cs, sn = np.zeros(m), np.zeros(m)
        g = np.zeros(m + 1)
        g[0] = beta
        V[0] = r / beta
        j = -1
        for j in range(m):
            if total_its >= cfg.maxiter:
                j -= 1
                break
            Z[j] = M(V[j])
            w = matvec(Z[j])
            for i in range(j + 1):
                H[i, j] = w @ V[i]
                w -= H[i, j] * V[i]
            H[j + 1, j] = np.linalg.norm(w)
            if not math.isfinite(H[j + 1, j]):
                return x, total_its, res, "breakdown"
            breakdown = H[j + 1, j] <= 1e-14 * beta
            if not breakdown:
                V[j + 1] = w / H[j + 1, j]
            # apply stored Givens rotations, then a new one
            for i in range(j):
                h0 = cs[i] * H[i, j] + sn[i] * H[i + 1, j]
                H[i + 1, j] = -sn[i] * H[i, j] + cs[i] * H[i + 1, j]
                H[i, j] = h0
            denom = np.hypot(H[j, j], H[j + 1, j])
            if denom <= 1e-14 * np.linalg.norm(H[: j + 2, j]):
                # A Z[j] lies in the span of the earlier directions: drop it
                breakdown = True
                j -= 1
                break
            cs[j], sn[j] = H[j, j] / denom, H[j + 1, j] / denom
            H[j, j] = denom
            H[j + 1, j] = 0.0
            g[j + 1] = -sn[j] * g[j]
            g[j] = cs[j] * g[j]
            total_its += 1
            res_est = abs(g[j + 1]) / bnorm
            if res_est <= cfg.rtol or breakdown:
                break
        if j >= 0:
            y = scipy.linalg.solve_triangular(H[: j + 1, : j + 1], g[: j + 1])
            x = x + Z[: j + 1].T @ y
            r = b - matvec(x)
            res = np.linalg.norm(r) / bnorm
        if res <= cfg.rtol or breakdown or j < 0:
            break
    if res <= cfg.rtol:
        return x, total_its, res, "converged"
    return x, total_its, res, "breakdown" if breakdown else "maxiter"


# ---------------------------------------------------------------------------
# direct solve and boundary conditions


def sparse_direct_solve(A: sp.spmatrix, b: np.ndarray) -> np.ndarray:
    """LU-based direct solve; the oracle for iterative paths.  It keeps
    SuperLU's default column ordering, unlike :func:`exact_preconditioner`,
    so the oracle stays an independent factorization path."""
    A = A.tocsc()
    if A.shape[0] != A.shape[1]:
        raise ValueError("direct solve requires a square matrix")
    b = np.asarray(b, dtype=float)
    try:
        lu = spla.splu(A)
    except RuntimeError as exc:
        raise RuntimeError(f"sparse factorization failed: {exc}") from None
    x = lu.solve(b)
    resid = np.linalg.norm(b - A @ x) / max(np.linalg.norm(b), 1e-300)
    if not np.isfinite(x).all() or resid > 1e-6:
        raise RuntimeError("sparse direct solve is numerically singular")
    return x


@dataclass(frozen=True, eq=False)
class Constraints:
    """Strong constraints ``x[dofs] = values`` in the global numbering of
    the space of the system they constrain: sorted, distinct, non-negative
    integer dofs with one finite value each, kept as read-only arrays."""

    dofs: np.ndarray = ()
    values: np.ndarray = ()

    def __post_init__(self):
        dofs, values = np.array(self.dofs), np.array(self.values, dtype=float)
        integer = dofs.dtype.kind in "iu" or dofs.size == 0
        if dofs.ndim != 1 or not integer or values.shape != dofs.shape:
            raise ValueError(f"constraints need a 1-d integer array of dofs and one value each, not "
                             f"{dofs.dtype} dofs of shape {dofs.shape} and {values.shape} values")
        dofs = dofs.astype(np.int64)
        unsorted = np.diff(dofs) <= 0
        if unsorted.any():
            d, prev = dofs[unsorted.argmax() + 1], dofs[unsorted.argmax()]
            raise ValueError(f"constrained dof {d} is "
                             + ("repeated" if d == prev else f"out of order after {prev}"))
        if len(dofs) and dofs[0] < 0:
            raise ValueError(f"constrained dof {dofs[0]} is negative")
        if not np.isfinite(values).all():
            raise ValueError(f"the value on constrained dof {dofs[~np.isfinite(values)][0]} "
                             "is not finite")
        dofs.flags.writeable = values.flags.writeable = False
        object.__setattr__(self, "dofs", dofs)
        object.__setattr__(self, "values", values)

    def __len__(self) -> int:
        return len(self.dofs)

    def vector(self, n: int) -> np.ndarray:
        """The length-``n`` vector ``g`` with the values at the dofs and zero
        elsewhere: the lift source and an initial guess."""
        if len(self) and self.dofs[-1] >= n:
            raise ValueError(f"constrained dof {self.dofs[-1]} is out of range for {n} dofs")
        g = np.zeros(n)
        g[self.dofs] = self.values
        return g

    def rhs(self, b: np.ndarray, lift: np.ndarray) -> np.ndarray:
        """``b - lift`` with the values at the dofs, ``lift`` being the
        unconstrained operator times :meth:`vector`."""
        out = np.asarray(b, dtype=float) - lift
        out[self.dofs] = self.values
        return out

    def rhs_homogeneous(self, b: np.ndarray) -> np.ndarray:
        """``b`` with zeros at the dofs, written in place (residual correction)."""
        b[self.dofs] = 0.0
        return b


def apply_bcs(A: sp.spmatrix, b: np.ndarray,
              bcs: Constraints | None) -> tuple[sp.csr_matrix, np.ndarray]:
    """Symmetric elimination of the constrained dofs ``bcs`` with
    right-hand-side lift.  Rows and columns are zeroed with a unit
    diagonal; known values are lifted off the free equations."""
    if not bcs:
        return A.tocsr(), np.asarray(b, dtype=float).copy()
    b = bcs.rhs(b, A @ bcs.vector(A.shape[0]))
    return constrain_matrix(A, bcs.dofs), b


# ---------------------------------------------------------------------------
# preconditioner factories


def jacobi_preconditioner(A: sp.spmatrix) -> Callable[[np.ndarray], np.ndarray]:
    d = A.diagonal().copy()
    if np.any(d == 0.0):
        raise ValueError("zero diagonal entry; Jacobi preconditioner unavailable")
    dinv = 1.0 / d
    return lambda r: dinv * r


def exact_preconditioner(A: sp.spmatrix) -> Callable[[np.ndarray], np.ndarray]:
    """Apply ``A^{-1}`` through one sparse LU factorization whose columns
    are ordered by minimum degree on the structure of ``A^T + A``.  That
    suits the structurally symmetric condensed operators better than
    SuperLU's default COLAMD, which is meant for unsymmetric ones: on the
    unit-square mixed-hybrid trace operators nnz(L+U) falls 738,408 ->
    444,978 (k=1, n=64), 2,766,268 -> 1,968,424 (k=2, n=64) and 4,214,592
    -> 2,331,354 (k=1, n=128).  Partial pivoting is SuperLU's default, so
    a nonsymmetric ``A`` is still solved exactly."""
    lu = spla.splu(A.tocsc(), permc_spec="MMD_AT_PLUS_A")
    return lambda r: lu.solve(r)


SMOOTHER_DAMPING = 0.6  # the multigrid cycle's Jacobi weight omega where no row needs more


def multigrid_preconditioner(A: sp.spmatrix, maps: list) -> Callable[[np.ndarray], np.ndarray]:
    """One V(1,1) cycle over the levels that ``maps`` (finest first, as from
    :func:`hybridfem.spaces.p1_hierarchy`) build on ``A``: Galerkin coarse
    operators ``P^T A P``, the coarsest factored as by
    :func:`exact_preconditioner`, and a diagonal smoother ``M`` before and
    after each coarse correction.  ``M`` is Jacobi damped by
    ``SMOOTHER_DAMPING``, each row raised to at least ``a_ii + sum_{j != i}
    |a_ij| sqrt(a_ii / a_jj) / 2`` so that ``2M - A`` is SPD (Gershgorin on
    ``D^{-1/2} (2M - A) D^{-1/2}``): the cycle is SPD for any SPD ``A``.
    The first map keeps its columns that are nonzero and vanish on every
    constrained dof (a row of ``A`` that stores only its diagonal); each
    deeper map keeps the rows its finer level kept and its nonzero
    columns.  With no coarse column it is Jacobi alone."""
    jacobi, A = jacobi_preconditioner(A), sp.csr_matrix(A)
    constrained, levels = A.getnnz(axis=1) == 1, []
    for P in maps:
        P = sp.csc_matrix(P)[kept] if levels else sp.csc_matrix(P)
        kept = P.getnnz(axis=0) > 0
        if not levels:
            kept &= abs(P[constrained]).sum(axis=0).A1 == 0
        if not kept.any():
            break
        P = P[:, kept].tocsr()
        Pt = P.T.tocsr()  # so that products stay CSR: P.T would convert A to CSC
        d = A.diagonal()
        m = np.maximum(d / SMOOTHER_DAMPING, 0.5 * (d + np.sqrt(d) * (abs(A) @ (1.0 / np.sqrt(d)))))
        levels.append((A, 1.0 / m, P, Pt))
        A = Pt @ A @ P
    if not levels:
        return jacobi
    try:
        coarse_solve = exact_preconditioner(A)
    except RuntimeError as exc:
        raise RuntimeError(f"multigrid coarse operator ({A.shape[0]} x {A.shape[0]}) "
                           f"could not be factored: {exc}") from None

    def cycle(r):  # a loop, not recursion: a self-calling closure waits for the cyclic GC
        down = []
        for A_l, wdinv, _, Pt in levels:
            down.append((r, wdinv * r))
            r = Pt @ (r - A_l @ down[-1][1])
        x = coarse_solve(r)
        for (A_l, wdinv, P, _), (r, x_pre) in zip(reversed(levels), reversed(down)):
            x = x_pre + P @ x
            x += wdinv * (r - A_l @ x)
        return x
    return cycle


INNER_PCS = ("none", "jacobi", "multigrid", "exact")


def make_preconditioner(A: sp.spmatrix, name: str | None, maps: list | None = None):
    """Resolve a named inner preconditioner, one of ``INNER_PCS``: none,
    jacobi, multigrid (which needs the maps of
    :func:`hybridfem.spaces.p1_hierarchy`) or exact."""
    if name in (None, "none"):
        return None
    if name == "jacobi":
        return jacobi_preconditioner(A)
    if name == "multigrid":
        if maps is None:
            raise ValueError("the multigrid preconditioner needs its coarse maps")
        return multigrid_preconditioner(A, maps)
    if name == "exact":
        return exact_preconditioner(A)
    raise ValueError(f"unknown preconditioner {name!r}; choose one of {', '.join(INNER_PCS)}")
