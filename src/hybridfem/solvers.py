"""Global Krylov solvers, the sparse direct oracle and boundary conditions.

CG, GMRES, and flexible GMRES are implemented here directly: flexible
preconditioning (inner Krylov solves inside the preconditioner) and
deterministic iteration reports are needed, and runs are serial.
Sparse direct solves are delegated to scipy.

Convergence is declared on the true relative residual of the solved
system; non-convergence is reported, not raised, with the reason the
iteration stopped.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .expressions import constrain_matrix


@dataclass
class KrylovConfig:
    method: str = "cg"  # "cg" | "gmres" | "fgmres"
    rtol: float = 1e-8
    atol: float = 0.0
    maxiter: int = 2000
    restart: int = 50
    preconditioner: Callable[[np.ndarray], np.ndarray] | None = None

    def __post_init__(self):
        if not 0.0 < self.rtol < 1.0:
            raise ValueError("rtol must lie in (0, 1)")
        if self.maxiter < 1:
            raise ValueError("maxiter must be at least 1")
        if self.method not in ("cg", "gmres", "fgmres"):
            raise ValueError(f"unknown Krylov method {self.method!r}")


@dataclass
class SolveReport:
    method: str
    iterations: int
    residual: float  # final true relative residual
    converged: bool
    reason: str = "converged"  # converged | maxiter | indefinite | breakdown

    def csv_row(self) -> dict:
        return {
            "method": self.method,
            "iterations": self.iterations,
            "residual": self.residual,
            "converged": int(self.converged),
        }


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
    if cfg.method == "cg":
        x, its, res, stop = _cg(matvec, b, cfg, x0)
    else:
        x, its, res, stop = _fgmres(matvec, b, cfg, x0)
    tol = max(cfg.rtol, cfg.atol / max(np.linalg.norm(b), 1e-300))
    converged = bool(res <= tol)
    report = SolveReport(cfg.method, its, res, converged,
                         "converged" if converged else stop)
    return x, report


def _true_relres(matvec, b, x, bnorm):
    return np.linalg.norm(b - matvec(x)) / bnorm


def _cg(matvec, b, cfg, x0):
    """Preconditioned CG; returns (x, iterations, residual, stop reason)."""
    n = len(b)
    x = np.zeros(n) if x0 is None else np.asarray(x0, dtype=float).copy()
    M = cfg.preconditioner or (lambda v: v)
    bnorm = np.linalg.norm(b)
    if bnorm == 0.0:
        return np.zeros(n), 0, 0.0, "converged"
    r = b - matvec(x)
    z = M(r)
    p = z.copy()
    rz = r @ z
    res = np.linalg.norm(r) / bnorm
    if res <= cfg.rtol:
        return x, 0, res, "converged"
    for it in range(1, cfg.maxiter + 1):
        Ap = matvec(p)
        denom = p @ Ap
        if denom <= 0.0:
            # loss of positive definiteness; report current state
            return x, it - 1, res, "indefinite"
        alpha = rz / denom
        x += alpha * p
        r -= alpha * Ap
        res = np.linalg.norm(r) / bnorm
        if res <= cfg.rtol:
            return x, it, res, "converged"
        z = M(r)
        rz_new = r @ z
        p = z + (rz_new / rz) * p
        rz = rz_new
    return x, cfg.maxiter, res, "maxiter"


def _fgmres(matvec, b, cfg, x0):
    """Right-preconditioned flexible GMRES with restarts.

    The monitored residual is the true residual of the original system,
    so convergence reports need no un-preconditioning.  A breakdown (no
    new Krylov direction) ends the iteration after its least-squares
    update; returns (x, iterations, residual, stop reason).
    """
    n = len(b)
    x = np.zeros(n) if x0 is None else np.asarray(x0, dtype=float).copy()
    M = cfg.preconditioner or (lambda v: v)
    bnorm = np.linalg.norm(b)
    if bnorm == 0.0:
        return np.zeros(n), 0, 0.0, "converged"
    total_its = 0
    res = _true_relres(matvec, b, x, bnorm)
    if res <= cfg.rtol:
        return x, 0, res, "converged"
    m = cfg.restart
    breakdown = False
    while total_its < cfg.maxiter:
        r = b - matvec(x)
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
            res = _true_relres(matvec, b, x, bnorm)
        if res <= cfg.rtol or breakdown or j < 0:
            break
    if res <= cfg.rtol:
        return x, total_its, res, "converged"
    return x, total_its, res, "breakdown" if breakdown else "maxiter"


# ---------------------------------------------------------------------------
# direct solve and boundary conditions


def sparse_direct_solve(A: sp.spmatrix, b: np.ndarray) -> np.ndarray:
    """LU-based direct solve; the oracle for iterative paths."""
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


def apply_bcs(A: sp.spmatrix, b: np.ndarray, bcs) -> tuple[sp.csr_matrix, np.ndarray]:
    """Symmetric elimination of constrained dofs with right-hand-side lift.

    ``bcs`` is a list of (dof, value).  Rows and columns are zeroed with
    a unit diagonal; known values are lifted off the free equations.
    """
    if not bcs:
        return A.tocsr(), np.asarray(b, dtype=float).copy()
    dofs = np.asarray([d for d, _ in bcs], dtype=int)
    values = np.asarray([v for _, v in bcs], dtype=float)
    return constrain_matrix(A, dofs), lift_bcs(A, b, dofs, values)


def lift_bcs(A: sp.spmatrix, b: np.ndarray, dofs: np.ndarray,
             values: np.ndarray) -> np.ndarray:
    """Lift known values off the free equations of ``b`` and place them
    on the constrained ones."""
    lift = np.zeros(A.shape[0])
    lift[dofs] = values
    out = np.asarray(b, dtype=float) - A @ lift
    out[dofs] = values
    return out


def bc_lift_vector(n: int, bcs) -> np.ndarray:
    x = np.zeros(n)
    for d, v in bcs:
        x[d] = v
    return x


# ---------------------------------------------------------------------------
# preconditioner factories


def jacobi_preconditioner(A: sp.spmatrix) -> Callable[[np.ndarray], np.ndarray]:
    d = A.diagonal().copy()
    if np.any(d == 0.0):
        raise ValueError("zero diagonal entry; Jacobi preconditioner unavailable")
    dinv = 1.0 / d
    return lambda r: dinv * r


def exact_preconditioner(A: sp.spmatrix) -> Callable[[np.ndarray], np.ndarray]:
    lu = spla.splu(A.tocsc())
    return lambda r: lu.solve(r)


def make_preconditioner(A: sp.spmatrix, name: str | None):
    """Resolve a named inner preconditioner: none, jacobi, or exact."""
    if name in (None, "none"):
        return None
    if name == "jacobi":
        return jacobi_preconditioner(A)
    if name == "exact":
        return exact_preconditioner(A)
    raise ValueError(f"unknown preconditioner {name!r}")
