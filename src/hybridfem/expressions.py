"""Expression language over element tensors with a plan compiler.

Expressions compose terminal tensors (forms and coefficient vectors)
with dense linear algebra: addition, contraction, negation, transpose,
inverse, factorized solve, and sub-block extraction.  :func:`compile_expr`
lowers one or more expressions to an :class:`ExecPlan`, a deduplicated
kernel sequence over virtual registers in which a subtree shared by the
expressions is computed once.  :func:`evaluate_all` runs the plan over
consecutive blocks of cells, batched over the leading cell axis; a
block's size is set by the plan's largest register and
:data:`BLOCK_ENTRIES`, so its transient memory is one block's whatever
the mesh.  A deliberately naive recursive evaluator,
:func:`naive_evaluate`, serves as the semantics oracle for the compiled
plans.

Plan outputs that depend only on the mesh are memoized: an output whose
subtree holds no :class:`AssembledVector` and no form with coefficient
functions is stored whole and read-only on its expression node, and a
later plan that contains the node reads its block's slice instead of
evaluating the subtree.  Intermediates are shared within a plan only.

Global assembly scatters evaluated element tensors into scipy CSR
matrices or numpy vectors through the spaces' cell-to-global maps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from .forms import FormIR, assemble_form, assemble_local
from .spaces import Function, FunctionSpace, MixedSpace, local_offsets

Axis = tuple[FunctionSpace, ...]

# smallest reciprocal condition number (LU) or relative pivot (Cholesky)
# for which a local factorization is not declared singular
PIVOT_RTOL = 1e-12
# entries per block of the largest register of a plan, and cells per
# block of a plan of several outputs: 2048 cells of a 17 x 17 local tensor
# (the mixed-hybrid k=2 operator)
BLOCK_CELLS = 2048
BLOCK_ENTRIES = BLOCK_CELLS * 17**2


def _axis_extent(axis: Axis) -> int:
    return sum(s.local_dim for s in axis)


class TensorExpr:
    """Base class; subclasses set ``axes`` (tuple of per-axis field lists)."""

    axes: tuple[Axis, ...]
    _value: np.ndarray | None = None  # all cells' value, memoized by evaluate_all

    @property
    def rank(self) -> int:
        return len(self.axes)

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(_axis_extent(a) for a in self.axes)

    def __add__(self, other):
        return Add(self, other)

    def __sub__(self, other):
        return Add(self, Negate(other))

    def __mul__(self, other):
        return Mul(self, other)

    def __neg__(self):
        return Negate(self)

    @property
    def T(self):
        return Transpose(self)

    @property
    def inv(self):
        return Inverse(self)

    def solve(self, rhs, decomposition: str = "lu"):
        return Solve(self, rhs, decomposition)

    @property
    def blocks(self):
        return _BlocksAccessor(self)

    def children(self) -> tuple["TensorExpr", ...]:
        return ()

    def key(self):
        raise NotImplementedError


class Tensor(TensorExpr):
    """Element tensors of a multilinear form."""

    def __init__(self, form: FormIR):
        if form.rank == 0:
            raise ValueError("rank-0 forms are not supported in expressions")
        self.form = form
        axes = []
        if form.test is not None:
            axes.append(tuple(form.test_fields))
        if form.trial is not None:
            axes.append(tuple(form.trial_fields))
        self.axes = tuple(axes)

    def key(self):
        return ("tensor", id(self.form))


class AssembledVector(TensorExpr):
    """Per-cell coefficient vector of a function (or mixed data)."""

    def __init__(self, fn: Union[Function, tuple]):
        if isinstance(fn, Function):
            self.fields: Axis = (fn.space,)
            self.coeffs = fn.coeffs
        else:
            space, coeffs = fn
            if not isinstance(space, MixedSpace):
                raise ValueError("expected a Function or (MixedSpace, vector) pair")
            coeffs = np.asarray(coeffs, dtype=float)
            if coeffs.shape != (space.ndof_global,):
                raise ValueError("vector length does not match the mixed space")
            self.fields = tuple(space.fields)
            self.coeffs = coeffs
            self._mixed = space
        self.axes = (self.fields,)

    def cell_gather(self, cells: slice = slice(None)) -> np.ndarray:
        """The coefficients of the cells ``cells``, one row per cell."""
        if len(self.fields) == 1:
            return self.coeffs[self.fields[0].cell_dofs[cells]]
        return np.concatenate([self.coeffs[s.cell_dofs[cells] + o]
                               for s, o in zip(self.fields, self._mixed.offsets)], axis=1)

    def key(self):
        return ("vector", id(self))


class Add(TensorExpr):
    def __init__(self, a: TensorExpr, b: TensorExpr):
        if a.shape != b.shape:
            raise ValueError(f"addition of unequal shapes {a.shape} and {b.shape}")
        self.a, self.b = a, b
        self.axes = a.axes

    def children(self):
        return (self.a, self.b)

    def key(self):
        return ("add",)


class Mul(TensorExpr):
    """Contraction over the last axis of ``a`` and the first of ``b``."""

    def __init__(self, a: TensorExpr, b: TensorExpr):
        if a.rank == 0 or b.rank == 0:
            raise ValueError("multiplication requires operands of rank >= 1")
        if a.shape[-1] != b.shape[0]:
            raise ValueError(
                f"contraction mismatch: {a.shape} cannot multiply {b.shape}"
            )
        rank = a.rank + b.rank - 2
        if rank > 2:
            raise ValueError("expressions of rank > 2 are not supported")
        if rank == 0:
            raise ValueError("full contraction to a scalar is not supported")
        self.a, self.b = a, b
        self.axes = a.axes[:-1] + b.axes[1:]

    def children(self):
        return (self.a, self.b)

    def key(self):
        return ("mul",)


class Negate(TensorExpr):
    def __init__(self, x: TensorExpr):
        self.x = x
        self.axes = x.axes

    def children(self):
        return (self.x,)

    def key(self):
        return ("neg",)


class Transpose(TensorExpr):
    def __init__(self, x: TensorExpr):
        if x.rank != 2:
            raise ValueError("transpose requires a rank-2 operand")
        self.x = x
        self.axes = (x.axes[1], x.axes[0])

    def children(self):
        return (self.x,)

    def key(self):
        return ("transpose",)


class Inverse(TensorExpr):
    def __init__(self, x: TensorExpr):
        if x.rank != 2 or x.shape[0] != x.shape[1]:
            raise ValueError("inverse requires a square rank-2 operand")
        self.x = x
        self.axes = x.axes

    def children(self):
        return (self.x,)

    def key(self):
        return ("inverse",)


class Solve(TensorExpr):
    def __init__(self, a: TensorExpr, b: TensorExpr, decomposition: str = "lu"):
        if a.rank != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("solve requires a square rank-2 operator")
        if b.shape[0] != a.shape[0]:
            raise ValueError("solve right-hand side has mismatched extent")
        if decomposition not in ("lu", "cholesky"):
            raise ValueError(f"unknown decomposition {decomposition!r}")
        self.a, self.b, self.decomposition = a, b, decomposition
        self.axes = (a.axes[1],) + b.axes[1:]

    def children(self):
        return (self.a, self.b)

    def key(self):
        return ("solve", self.decomposition)


class Blocks(TensorExpr):
    def __init__(self, x: TensorExpr, ranges: tuple[tuple[int, int], ...]):
        if len(ranges) != x.rank:
            raise ValueError("block indices must match the operand rank")
        axes = []
        for (lo, hi), axis in zip(ranges, x.axes):
            if not 0 <= lo < hi <= len(axis):
                raise ValueError(f"block range {lo}:{hi} outside {len(axis)} fields")
            axes.append(axis[lo:hi])
        self.x = x
        self.ranges = ranges
        self.axes = tuple(axes)

    def children(self):
        return (self.x,)

    def key(self):
        return ("blocks", self.ranges)


class _BlocksAccessor:
    def __init__(self, expr: TensorExpr):
        self.expr = expr

    def __getitem__(self, idx):
        if not isinstance(idx, tuple):
            idx = (idx,)
        ranges = []
        for i, axis in zip(idx, self.expr.axes):
            if isinstance(i, int):
                ranges.append((i, i + 1))
            elif isinstance(i, slice):
                lo, hi, step = i.indices(len(axis))
                if step != 1:
                    raise ValueError("block slices must be contiguous")
                ranges.append((lo, hi))
            else:
                raise TypeError(f"invalid block index {i!r}")
        if len(ranges) != self.expr.rank:
            raise ValueError("block indices must match the operand rank")
        return Blocks(self.expr, tuple(ranges))


# ---------------------------------------------------------------------------
# compilation


@dataclass(frozen=True)
class Kernel:
    op: str
    out: int
    ins: tuple[int, ...]
    payload: object = None  # Tensor / AssembledVector / block ranges / decomposition
    memo: TensorExpr | None = None  # node memoizing the value, if it may be cached


@dataclass
class ExecPlan:
    """Deduplicated kernel sequence evaluating expressions per cell; the
    registers ``outputs`` hold their values, in the order given."""

    kernels: list[Kernel]
    outputs: tuple[int, ...]
    shapes: dict[int, tuple[int, ...]]

    def describe(self) -> str:
        """Stable human-readable kernel listing (for golden tests)."""
        lines = []
        forms: dict[int, int] = {}
        vectors: dict[int, int] = {}
        for k in self.kernels:
            shape = "x".join(str(s) for s in self.shapes[k.out])
            if k.op == "assemble":
                label = forms.setdefault(id(k.payload), len(forms))
                rhs = f"assemble(T{label})"
            elif k.op == "gather":
                label = vectors.setdefault(id(k.payload), len(vectors))
                rhs = f"gather(V{label})"
            elif k.op == "blocks":
                spans = ",".join(f"{lo}:{hi}" for lo, hi in k.payload[0])
                rhs = f"blocks[{spans}](r{k.ins[0]})"
            elif k.op == "solve":
                rhs = f"solve[{k.payload}](" + ", ".join(f"r{i}" for i in k.ins) + ")"
            else:
                rhs = f"{k.op}(" + ", ".join(f"r{i}" for i in k.ins) + ")"
            lines.append(f"r{k.out} = {rhs}  # {shape}")
        lines.append("return " + ", ".join(f"r{o}" for o in self.outputs))
        return "\n".join(lines)


_ALGEBRA_OPS = {Add: "add", Mul: "mul", Negate: "neg", Transpose: "transpose",
                 Inverse: "inverse"}


def compile_expr(*exprs: TensorExpr) -> ExecPlan:
    """Lower expressions to one plan; identical subtrees are computed once."""
    if not exprs:
        raise ValueError("compile_expr needs at least one expression")
    kernels: list[Kernel] = []
    shapes: dict[int, tuple[int, ...]] = {}
    seen: dict = {}
    outputs = tuple(_lower(e, kernels, shapes, seen) for e in exprs)
    return ExecPlan(kernels, outputs, shapes)


def _lower(node: TensorExpr, kernels: list[Kernel], shapes: dict, seen: dict) -> int:
    # a module-level recursion: a recursive closure would form a reference
    # cycle holding the kernels, and the values memoized on their nodes,
    # until the cyclic garbage collector happens to run
    child_regs = tuple(_lower(c, kernels, shapes, seen) for c in node.children())
    key = node.key() + child_regs
    if key in seen:
        return seen[key]
    reg = len(kernels)
    # a value may be memoized when it depends on no mutable coefficients
    if isinstance(node, Tensor):
        op, payload, cacheable = "assemble", node, not node.form.coefficients
    elif isinstance(node, AssembledVector):
        op, payload, cacheable = "gather", node, False
    else:
        cacheable = all(kernels[c].memo is not None for c in child_regs)
        if isinstance(node, Solve):
            op, payload = "solve", node.decomposition
        elif isinstance(node, Blocks):
            op = "blocks"
            payload = (node.ranges, _block_slices(node.x.axes, node.ranges))
        elif type(node) in _ALGEBRA_OPS:
            op, payload = _ALGEBRA_OPS[type(node)], None
        else:
            raise TypeError(f"unknown expression node {node!r}")
    kernels.append(Kernel(op, reg, child_regs, payload,
                          node if cacheable else None))
    shapes[reg] = node.shape
    seen[key] = reg
    return reg


# ---------------------------------------------------------------------------
# evaluation


def _block_slices(expr_axes, ranges):
    out = []
    for (lo, hi), axis in zip(ranges, expr_axes):
        off = local_offsets(axis)
        out.append(slice(off[lo], off[hi]))
    return tuple(out)


def _check_symmetric(A: np.ndarray) -> None:
    scale = np.abs(A).max()
    if scale and np.abs(A - np.swapaxes(A, -1, -2)).max() > 1e-10 * scale:
        raise ValueError("cholesky solve requires a symmetric operand")


def evaluate_all(plan: ExecPlan):
    """Evaluate the plan for every cell, in blocks of consecutive cells of
    at most ``BLOCK_ENTRIES`` entries of its largest register, and of at
    most ``BLOCK_CELLS`` cells for a plan of several outputs, which are
    held whole beside a block's element tensors.  A block assembles its
    forms on its own cells, reading no per-facet data of other cells,
    so the work per block does not grow with the mesh.  Returns each output's
    values, leading axis the cell index, C-contiguous: one array, or a
    tuple of them for a plan of several outputs.

    A kernel whose node holds a memoized value reads its block's slice of
    it and is not run, nor is any kernel that only it needs.  An output
    that depends on no mutable coefficients is memoized, read-only.
    """
    memo = {k.out: k.memo._value for k in plan.kernels
            if k.memo is not None and k.memo._value is not None}
    needed = set(plan.outputs)
    for k in reversed(plan.kernels):
        if k.out in needed and k.out not in memo:
            needed.update(k.ins)
    run = [k for k in plan.kernels if k.out in needed and k.out not in memo]
    values = {r: memo[r] for r in plan.outputs if r in memo}
    todo = [r for r in dict.fromkeys(plan.outputs) if r not in values]
    nc = plan.kernels[0].payload.axes[0][0].mesh.n_cells  # the first kernel is a terminal
    last_use = {r: i for i, k in enumerate(run) for r in k.ins}
    step = max(1, BLOCK_ENTRIES // max(int(np.prod(s)) for s in plan.shapes.values()))
    if len(todo) > 1:
        step = min(step, BLOCK_CELLS)
    for lo in range(0, nc if todo else 0, step):
        hi = min(lo + step, nc)
        regs = {r: v[lo:hi] for r, v in memo.items() if r in needed}
        for i, k in enumerate(run):
            regs[k.out] = _run_kernel(k, regs, lo, hi)
            for r in k.ins:  # a register is dropped after its last use
                if last_use[r] == i and r not in todo:
                    regs.pop(r, None)
        for r in todo:
            if hi - lo == nc:  # one block: copied only if the value is a strided view
                values[r] = np.ascontiguousarray(regs[r])
                continue
            if lo == 0:
                values[r] = np.empty((nc,) + regs[r].shape[1:], regs[r].dtype)
            values[r][lo:hi] = regs[r]
        del regs  # the block's registers are freed before the next block's
    for r in todo:
        if plan.kernels[r].memo is not None:
            values[r].flags.writeable = False
            plan.kernels[r].memo._value = values[r]
    out = tuple(values[r] for r in plan.outputs)
    return out[0] if len(out) == 1 else out


def _run_kernel(k: Kernel, regs: dict[int, np.ndarray], lo: int, hi: int) -> np.ndarray:
    """The kernel's value on cells ``lo`` to ``hi - 1``; guards name cells
    by their index in the mesh."""
    if k.op == "assemble":
        return assemble_form(k.payload.form, slice(lo, hi))
    if k.op == "gather":
        return k.payload.cell_gather(slice(lo, hi))
    if k.op == "add":
        return regs[k.ins[0]] + regs[k.ins[1]]
    if k.op == "neg":
        return -regs[k.ins[0]]
    if k.op == "transpose":
        return np.swapaxes(regs[k.ins[0]], 1, 2)
    if k.op == "mul":
        a, b = regs[k.ins[0]], regs[k.ins[1]]
        if a.ndim == 3 and b.ndim == 3:
            return a @ b
        if a.ndim == 3 and b.ndim == 2:
            return np.einsum("cij,cj->ci", a, b)
        if a.ndim == 2 and b.ndim == 3:
            return np.einsum("ci,cij->cj", a, b)
        raise ValueError("unsupported contraction ranks")
    if k.op == "inverse":
        return _batched_inverse(regs[k.ins[0]], "local tensor", lo)
    if k.op == "solve":
        return _batched_solve(regs[k.ins[0]], regs[k.ins[1]], k.payload, lo)
    if k.op == "blocks":
        return regs[k.ins[0]][(slice(None),) + k.payload[1]]
    raise AssertionError(k.op)


def _batched_inverse(a: np.ndarray, what: str, first_cell: int) -> np.ndarray:
    """The inverse of every cell's ``a``, rejecting singular and
    ill-conditioned cells; the one LU factorization of a local tensor.
    The cell of ``a[0]`` is named ``first_cell``."""
    try:
        inv = np.linalg.inv(a)
    except np.linalg.LinAlgError:
        cell = first_cell + _first_failing(np.linalg.inv, a)
        raise RuntimeError(f"singular {what} in cell {cell}") from None
    _check_conditioning(a, inv, what, first_cell)
    return inv


def _batched_solve(a: np.ndarray, b: np.ndarray, decomposition: str,
                   first_cell: int) -> np.ndarray:
    vector_rhs = b.ndim == 2
    rhs = b[:, :, None] if vector_rhs else b
    if decomposition == "cholesky":
        _check_symmetric(a)
        try:
            chol = np.linalg.cholesky(a)
        except np.linalg.LinAlgError:
            cell = first_cell + _first_failing(np.linalg.cholesky, a)
            raise RuntimeError(
                f"cholesky breakdown in local solve (cell {cell})") from None
        # the pivots of A = L D L^T are the squared diagonal of the factor
        pivots = np.diagonal(chol, axis1=1, axis2=2) ** 2
        bad = pivots.min(axis=1) < PIVOT_RTOL * np.abs(a).max(axis=(1, 2))
        if bad.any():
            raise RuntimeError(f"cholesky pivot breakdown in local solve "
                               f"(cell {first_cell + int(np.flatnonzero(bad)[0])})")
        y = np.linalg.solve(chol, rhs)
        x = np.linalg.solve(np.swapaxes(chol, 1, 2), y)
    else:
        x = _batched_inverse(a, "local system", first_cell) @ rhs
    return x[:, :, 0] if vector_rhs else x


def _reciprocal_condition(a: np.ndarray, inv: np.ndarray) -> np.ndarray:
    """Each cell's ``1 / (|A|_1 |A^-1|_1)``; ``einsum`` sums each column in
    one pass, and the column maxima are reduced over a (columns, cells)
    copy of the sums, so each ``np.maximum`` step runs over contiguous
    cells instead of over one cell's few columns."""
    def norm1(m):
        return np.maximum.reduce(np.einsum("cij->cj", np.abs(m)).T.copy(), axis=0)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return 1.0 / (norm1(a) * norm1(inv))


def _check_conditioning(a: np.ndarray, inv: np.ndarray, what: str, first_cell: int) -> None:
    """Raise naming the first cell whose reciprocal condition is below ``PIVOT_RTOL``."""
    rcond = _reciprocal_condition(a, inv)
    bad = ~(rcond >= PIVOT_RTOL)  # also catches NaN
    if bad.any():
        cell = int(np.flatnonzero(bad)[0])
        raise RuntimeError(
            f"ill-conditioned {what} in cell {first_cell + cell} "
            f"(reciprocal condition {rcond[cell]:.1e} < {PIVOT_RTOL:g})")


def _first_failing(factor, a: np.ndarray) -> int:
    """The first cell whose ``a`` the batched ``factor`` rejects; it runs
    the same LAPACK routine on each cell alone, so some cell fails."""
    for c in range(a.shape[0]):
        try:
            factor(a[c])
        except np.linalg.LinAlgError:
            return c
    raise AssertionError("the batched factorization failed on no single cell")


def naive_evaluate(expr: TensorExpr, cell: int) -> np.ndarray:
    """Recursive tree-walking evaluation; the oracle for compiled plans."""
    if isinstance(expr, Tensor):
        return assemble_local(expr.form, cell)
    if isinstance(expr, AssembledVector):
        return expr.cell_gather()[cell]
    if isinstance(expr, Add):
        return naive_evaluate(expr.a, cell) + naive_evaluate(expr.b, cell)
    if isinstance(expr, Mul):
        return naive_evaluate(expr.a, cell) @ naive_evaluate(expr.b, cell)
    if isinstance(expr, Negate):
        return -naive_evaluate(expr.x, cell)
    if isinstance(expr, Transpose):
        return naive_evaluate(expr.x, cell).T
    if isinstance(expr, Inverse):
        return np.linalg.inv(naive_evaluate(expr.x, cell))
    if isinstance(expr, Solve):
        a = naive_evaluate(expr.a, cell)
        b = naive_evaluate(expr.b, cell)
        if expr.decomposition == "cholesky":
            return scipy.linalg.cho_solve(scipy.linalg.cho_factor(a), b)
        return np.linalg.solve(a, b)
    if isinstance(expr, Blocks):
        src = naive_evaluate(expr.x, cell)
        sl = _block_slices(expr.x.axes, expr.ranges)
        return src[sl]
    raise TypeError(f"unknown expression node {expr!r}")


# ---------------------------------------------------------------------------
# global assembly


def assemble_global(expr: TensorExpr):
    """Gather per-cell expression values into a CSR matrix or vector."""
    plan = compile_expr(expr)
    vals = evaluate_all(plan)
    shape = tuple(sum(s.ndof_global for s in axis) for axis in expr.axes)
    if expr.rank == 1:
        return np.bincount(_global_maps(expr.axes[0]).ravel(), vals.ravel(), minlength=shape[0])
    if expr.rank != 2:
        raise ValueError("global assembly requires a rank-1 or rank-2 expression")
    test, trial = expr.axes
    if len(test) == len(trial) and all(s is t for s, t in zip(test, trial)):
        rows = _global_maps(test)  # the same spaces on both axes share one map
        return scatter_csr(vals, rows, rows, shape)
    return scatter_csr(vals, _global_maps(test), _global_maps(trial), shape)


def scatter_csr(vals: np.ndarray, rows: np.ndarray, cols: np.ndarray,
                shape: tuple[int, int], sum_duplicates: bool = True) -> sp.csr_matrix:
    """The CSR sum of per-cell blocks ``vals`` (nc, r, c) placed at
    ``rows`` (nc, r) and ``cols`` (nc, c), without a COO: a stable argsort
    of the row map puts the block rows in CSR order (cell-major within a
    row), so no index is made per local entry.  Each row's duplicates are
    then summed in place in that order, as scipy's COO conversion sums
    them; ``sum_duplicates=False`` keeps them, for blocks that share no
    entry.  Indices are int32 when the sizes allow it."""
    nc, r, c = vals.shape
    idx = np.int32 if max(*shape, vals.size) < 2**31 else np.int64
    rows = rows.ravel()
    order = np.argsort(rows, kind="stable").astype(idx, copy=False)
    indptr = np.zeros(shape[0] + 1, dtype=idx)
    np.cumsum(np.bincount(rows, minlength=shape[0]) * c, out=indptr[1:])
    del rows  # maps the caller does not hold are freed as soon as they are used
    data = vals.reshape(nc * r, c)[order].ravel()
    order //= r
    A = sp.csr_matrix((data, cols.astype(idx, copy=False)[order].ravel(), indptr),
                      shape=shape)
    del order, cols
    if sum_duplicates:
        A.sum_duplicates()
    return A


def _global_maps(axis: Axis) -> np.ndarray:
    return MixedSpace(axis).cell_dofs_global()


def constrain_matrix(A: sp.csr_matrix, dofs: np.ndarray) -> sp.csr_matrix:
    """Zero constrained rows and columns and place a unit diagonal, in one
    copy of ``A``'s arrays."""
    n = A.shape[0]
    fixed = np.zeros(n, dtype=bool)
    fixed[dofs] = True
    out = A.tocsr(copy=True)
    rows = np.repeat(np.arange(n, dtype=out.indices.dtype), np.diff(out.indptr))
    hit = fixed[rows] | fixed[out.indices]
    out.data[hit] = 0.0
    diagonal = hit & (rows == out.indices)
    out.data[diagonal] = 1.0
    fixed[rows[diagonal]] = False
    if fixed.any():  # constrained rows without a stored diagonal
        out = out + sp.diags(fixed.astype(float))
    out.eliminate_zeros()
    out.sort_indices()
    return out
