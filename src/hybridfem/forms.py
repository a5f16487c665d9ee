"""Declarative multilinear forms and element-local assembly.

A :class:`FormIR` lists its arguments (test/trial spaces, possibly
mixed), and a set of integral terms over cells, interior facets, or
labelled exterior facets.  Integrands are built from a small closed
vocabulary: argument values, gradients, divergences, facet normals,
per-side normal jumps, finite element coefficients, analytic scalar
fields, and pointwise algebra.

Interior facet terms are assembled cell-wise: each incident cell
contributes the restriction of the integrand to its own side, with
``jump`` of a vector argument meaning the normal component against the
cell's outward normal.  Summing both sides reproduces the facet jump.

Two assembly routes are provided: :func:`assemble_form` evaluates all
cells at once with batched numpy, while :func:`assemble_local` is an
independent single-cell reference implementation used as a testing
oracle.  Within :func:`assemble_form`, bilinear terms with constant data
are contracted from reference tensors; all other terms are integrated
point by point.  Both batched paths take every basis from
:func:`~hybridfem.spaces.ref_basis` (coefficients through
:func:`~hybridfem.spaces.contract`); the oracle holds the only physical
tabulation of its own, so it checks both.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Union

import numpy as np

from . import reference
from .mesh import DIRICHLET, NEUMANN, Mesh
from .spaces import Function, FunctionSpace, MixedSpace, contract, ref_basis

QUADRATURE_MARGIN = 2  # safety margin added to estimated integrand degree


# ---------------------------------------------------------------------------
# scalar coefficient fields


@dataclass(frozen=True)
class ScalarField:
    """Analytic scalar coefficient with a polynomial degree surrogate.

    ``degree`` feeds quadrature selection; smooth non-polynomial data
    should keep the default.  ``value`` is set only by :meth:`constant`;
    ``fld`` turns such a field into a :class:`Const` integrand node.
    """

    fn: Callable
    degree: int = 6
    name: str = ""
    value: float | None = None

    @staticmethod
    def constant(value: float, name: str = "") -> "ScalarField":
        v = float(value)
        return ScalarField(lambda x, y: np.full(np.shape(x), v), degree=0,
                           name=name or repr(v), value=v)

    def __call__(self, x, y):
        return np.asarray(self.fn(x, y), dtype=float)


# ---------------------------------------------------------------------------
# integrand expression nodes


class Expr:
    __slots__ = ()

    def __add__(self, other):
        return Sum(self, other)

    def __sub__(self, other):
        return Sum(self, Scale(-1.0, other))

    def __neg__(self):
        return Scale(-1.0, self)

    def __rmul__(self, c):
        if isinstance(c, (int, float)):
            return Scale(float(c), self)
        return NotImplemented


@dataclass(frozen=True)
class Arg(Expr):
    """Basis of one field of the test or trial argument."""

    role: str  # "test" | "trial"
    field: int = 0
    deriv: str = "value"  # "value" | "grad" | "div"


@dataclass(frozen=True)
class Coef(Expr):
    fn: Function
    __hash__ = object.__hash__
    __eq__ = object.__eq__


@dataclass(frozen=True)
class Fld(Expr):
    sf: ScalarField


@dataclass(frozen=True)
class Const(Expr):
    """A constant scalar coefficient."""

    value: float


@dataclass(frozen=True)
class VFld(Expr):
    """Analytic vector field (boundary flux data and the like)."""

    fn: Callable
    degree: int = 6
    __hash__ = object.__hash__
    __eq__ = object.__eq__


@dataclass(frozen=True)
class Normal(Expr):
    pass


@dataclass(frozen=True)
class Dot(Expr):
    a: Expr
    b: Expr


@dataclass(frozen=True)
class Sum(Expr):
    a: Expr
    b: Expr


@dataclass(frozen=True)
class Scale(Expr):
    c: float
    x: Expr


def test(fld: int = 0) -> Arg:
    return Arg("test", fld)


def trial(fld: int = 0) -> Arg:
    return Arg("trial", fld)


def grad(a: Arg) -> Arg:
    if not isinstance(a, Arg) or a.deriv != "value":
        raise ValueError("grad applies to plain test/trial arguments")
    return Arg(a.role, a.field, "grad")


def div(a: Arg) -> Arg:
    if not isinstance(a, Arg) or a.deriv != "value":
        raise ValueError("div applies to plain test/trial arguments")
    return Arg(a.role, a.field, "div")


def dot(a: Expr, b: Expr) -> Dot:
    return Dot(a, b)


def jump(a: Expr) -> Dot:
    """Per-side normal component of a vector quantity on a facet.

    Both incident cells of an interior facet contribute their own
    restriction, so the assembled sum carries the full normal jump.
    """
    return Dot(a, Normal())


def coef(fn: Function) -> Coef:
    return Coef(fn)


def fld(sf: ScalarField) -> Fld | Const:
    return Fld(sf) if sf.value is None else Const(sf.value)


def vfld(fn: Callable, degree: int = 6) -> VFld:
    return VFld(fn, degree)


# ---------------------------------------------------------------------------
# terms and forms

CELL = "cell"
INTERIOR = "interior_facet"
EXTERIOR = "exterior_facet"


@dataclass(frozen=True)
class IntegralTerm:
    domain: str
    integrand: Expr
    label: str | None = None  # exterior facets only; None means all

    def __post_init__(self):
        if self.domain not in (CELL, INTERIOR, EXTERIOR):
            raise ValueError(f"unknown integration domain {self.domain!r}")
        if self.label is not None and self.domain != EXTERIOR:
            raise ValueError("labels apply to exterior facet terms only")
        if self.label not in (None, DIRICHLET, NEUMANN):
            raise ValueError(f"unknown facet label {self.label!r}")


SpaceLike = Union[FunctionSpace, MixedSpace, None]


def _as_fields(space: SpaceLike) -> tuple[FunctionSpace, ...]:
    if space is None:
        return ()
    if isinstance(space, MixedSpace):
        return space.fields
    return (space,)


@dataclass
class FormIR:
    """A multilinear form over (possibly mixed) argument spaces."""

    test: SpaceLike
    trial: SpaceLike
    terms: list[IntegralTerm]

    def __post_init__(self):
        if self.trial is not None and self.test is None:
            raise ValueError("a form with a trial argument needs a test argument")
        for t in self.terms:
            self._validate_term(t)

    @property
    def rank(self) -> int:
        return (self.test is not None) + (self.trial is not None)

    @property
    def test_fields(self) -> tuple[FunctionSpace, ...]:
        return _as_fields(self.test)

    @property
    def trial_fields(self) -> tuple[FunctionSpace, ...]:
        return _as_fields(self.trial)

    @property
    def mesh(self) -> Mesh:
        for s in self.test_fields + self.trial_fields:
            return s.mesh
        for t in self.terms:
            for c in _collect(t.integrand, Coef):
                return c.fn.space.mesh
        raise ValueError("form has no arguments or coefficients")

    @property
    def coefficients(self) -> list[Function]:
        out: list[Function] = []
        for t in self.terms:
            for c in _collect(t.integrand, Coef):
                if all(c.fn is not f for f in out):
                    out.append(c.fn)
        return out

    def _validate_term(self, term: IntegralTerm) -> None:
        roles = {"test": set(), "trial": set()}
        for a in _collect(term.integrand, Arg):
            roles[a.role].add(a.field)
            fields = self.test_fields if a.role == "test" else self.trial_fields
            if not fields:
                raise ValueError(f"term references an absent {a.role} argument")
            if not 0 <= a.field < len(fields):
                raise ValueError(f"{a.role} field {a.field} out of range")
            space = fields[a.field]
            if a.deriv == "div" and not space.family.is_vector:
                raise ValueError("div applies to vector-valued arguments only")
            if a.deriv == "grad" and space.family.is_vector:
                raise ValueError("grad applies to scalar arguments only")
            if space.family.kind == "Trace" and term.domain == CELL:
                raise ValueError("trace arguments appear in facet terms only")
            if a.deriv != "value" and space.family.kind == "Trace":
                raise ValueError("trace arguments support values only")
        if self.rank >= 1 and len(roles["test"]) != 1:
            raise ValueError("each term must reference exactly one test field")
        if self.rank == 2 and len(roles["trial"]) != 1:
            raise ValueError("each term must reference exactly one trial field")
        if term.domain == CELL and _contains_normal(term.integrand):
            raise ValueError("facet normals appear in facet terms only")

    def term_blocks(self, term: IntegralTerm) -> tuple[int, int]:
        ti = tj = -1
        for a in _collect(term.integrand, Arg):
            if a.role == "test":
                ti = a.field
            else:
                tj = a.field
        return ti, tj


def _collect(node: Expr, kind) -> list:
    out = []
    stack = [node]
    while stack:
        n = stack.pop()
        if isinstance(n, kind):
            out.append(n)
        if isinstance(n, Dot) or isinstance(n, Sum):
            stack.extend((n.a, n.b))
        elif isinstance(n, Scale):
            stack.append(n.x)
    return out


def _contains_normal(node: Expr) -> bool:
    return bool(_collect(node, Normal))


# ---------------------------------------------------------------------------
# degree estimation


def _node_degree(node: Expr, form: FormIR) -> int:
    if isinstance(node, Arg):
        fields = form.test_fields if node.role == "test" else form.trial_fields
        deg = fields[node.field].family.degree
        return max(deg - 1, 0) if node.deriv in ("grad", "div") else deg
    if isinstance(node, Coef):
        return node.fn.space.family.degree
    if isinstance(node, Fld):
        return node.sf.degree
    if isinstance(node, Const):
        return 0
    if isinstance(node, VFld):
        return node.degree
    if isinstance(node, Normal):
        return 0
    if isinstance(node, Dot):
        return _node_degree(node.a, form) + _node_degree(node.b, form)
    if isinstance(node, Sum):
        return max(_node_degree(node.a, form), _node_degree(node.b, form))
    if isinstance(node, Scale):
        return _node_degree(node.x, form)
    raise TypeError(f"unknown integrand node {node!r}")


def estimate_degree(form: FormIR) -> int:
    """Conservative polynomial degree bound over all terms."""
    if not form.terms:
        return 0
    return max(_node_degree(t.integrand, form) for t in form.terms)


def _term_exactness(term: IntegralTerm, form: FormIR) -> int:
    need = _node_degree(term.integrand, form) + QUADRATURE_MARGIN
    if need > reference.MAX_EXACTNESS:
        raise ValueError(
            f"required quadrature exactness {need} exceeds the supported "
            f"maximum {reference.MAX_EXACTNESS}"
        )
    return need


# ---------------------------------------------------------------------------
# batched evaluation contexts

class _CellCtx:
    """Quadrature data on cell interiors, for all cells or the given ones."""

    def __init__(self, mesh: Mesh, rule, cells: np.ndarray | None = None):
        self.mesh = mesh
        self.cells = np.arange(mesh.n_cells) if cells is None else cells
        self.nq = len(rule.weights)
        self.rule = rule
        self.geo = mesh.geometry()
        self.ref_pts = rule.points
        self.scale = self.geo.det_j[self.cells]  # integration measure factor

    @cached_property
    def phys(self) -> np.ndarray:
        return self.geo.physical_points(self.rule.points, self.cells)

    def ref_basis(self, space: FunctionSpace, deriv: str):
        return ref_basis(space, deriv, self.ref_pts, self.geo, self.cells)

    def eval_field(self, sf: ScalarField) -> np.ndarray:
        return sf(self.phys[..., 0], self.phys[..., 1])

    def normal(self):
        raise ValueError("facet normal is undefined on cell interiors")

    def local_coeffs(self, fn: Function) -> np.ndarray:
        # basis values are sign-corrected, so the gather is plain indexing
        return fn.coeffs[fn.space.cell_dofs[self.cells]]


class _FacetCtx:
    """Quadrature data for one local edge over a batch of cells."""

    def __init__(self, mesh: Mesh, cells: np.ndarray, local_edge: int, rule):
        geo = mesh.geometry()
        self.mesh = mesh
        self.cells = cells
        self.local_edge = local_edge
        self.nq = len(rule.weights)
        self.rule = rule
        self.geo = geo
        self.ref_pts = reference.edge_points(local_edge, rule.points)
        self.scale = geo.edge_lengths[cells, local_edge]
        self.normals = geo.edge_normals[cells, local_edge]  # (ncs, 2)
        self.dir_match = geo.dir_match[cells, local_edge]

    @cached_property
    def phys(self) -> np.ndarray:
        return self.geo.physical_points(self.ref_pts, self.cells)

    def ref_basis(self, space: FunctionSpace, deriv: str):
        if space.family.kind != "Trace":
            return ref_basis(space, deriv, self.ref_pts, self.geo, self.cells)
        # component 0 is the forward, component 1 the reversed tabulation;
        # the map selects one of them per cell by facet direction
        per = space.family.degree + 1
        el = space.element()
        ref = np.zeros((self.nq, 3 * per, 2))
        block = slice(self.local_edge * per, (self.local_edge + 1) * per)
        ref[:, block, 0] = el.tabulate(self.rule.points)
        ref[:, block, 1] = el.tabulate(1.0 - self.rule.points)
        g = np.stack([self.dir_match, ~self.dir_match], axis=-1).astype(float)
        return ref, g[:, None, :], None

    def eval_field(self, sf: ScalarField) -> np.ndarray:
        return sf(self.phys[..., 0], self.phys[..., 1])

    def normal(self) -> np.ndarray:
        return self.normals

    def local_coeffs(self, fn: Function) -> np.ndarray:
        return fn.coeffs[fn.space.cell_dofs[self.cells]]


# ---------------------------------------------------------------------------
# batched integrand evaluation
#
# Arrays are shaped (ncells, nq, n_test, n_trial) with a trailing
# component axis for vector quantities; absent axes have extent 1.


def _eval_expr(node: Expr, ctx, form: FormIR):
    if isinstance(node, Arg):
        fields = form.test_fields if node.role == "test" else form.trial_fields
        ref, g, signs = ctx.ref_basis(fields[node.field], node.deriv)
        vals = np.einsum("cdr,qir->cqid", g, ref, optimize=True)  # (nc|1, nq, nd, ncomp)
        if signs is not None:
            vals = vals * signs[:, None, :, None]
        vals, is_vec = _squeeze_scalar(vals)
        if node.role == "test":
            return vals[:, :, :, None, ...], is_vec
        return vals[:, :, None, :, ...], is_vec
    if isinstance(node, Coef):
        vals = contract(ctx.ref_basis(node.fn.space, "value"), ctx.local_coeffs(node.fn))
        vals, is_vec = _squeeze_scalar(vals)
        return vals[:, :, None, None, ...], is_vec
    if isinstance(node, Fld):
        return ctx.eval_field(node.sf)[:, :, None, None], False
    if isinstance(node, Const):
        return np.full((1, ctx.nq, 1, 1), node.value), False
    if isinstance(node, VFld):
        vals = np.asarray(node.fn(ctx.phys[..., 0], ctx.phys[..., 1]), dtype=float)
        return vals[:, :, None, None, :], True
    if isinstance(node, Normal):
        n = ctx.normal()
        return n[:, None, None, None, :], True
    if isinstance(node, Dot):
        a, av = _eval_expr(node.a, ctx, form)
        b, bv = _eval_expr(node.b, ctx, form)
        if av != bv:
            raise ValueError("dot requires operands of equal rank")
        _check_bilinear(a, b)
        if av:
            return (a * b).sum(axis=-1), False
        return a * b, False
    if isinstance(node, Sum):
        a, av = _eval_expr(node.a, ctx, form)
        b, bv = _eval_expr(node.b, ctx, form)
        if av != bv:
            raise ValueError("sum requires operands of equal rank")
        return a + b, av
    if isinstance(node, Scale):
        a, av = _eval_expr(node.x, ctx, form)
        return node.c * a, av
    raise TypeError(f"unknown integrand node {node!r}")


def _squeeze_scalar(vals: np.ndarray) -> tuple[np.ndarray, bool]:
    """Drop the component axis of scalar values; report whether vector."""
    if vals.shape[-1] == 2:
        return vals, True
    return vals[..., 0], False


def _bcast_cells(vals: np.ndarray, nc: int) -> np.ndarray:
    return np.broadcast_to(vals, (nc,) + vals.shape[1:])


def _check_bilinear(a: np.ndarray, b: np.ndarray) -> None:
    if a.shape[2] > 1 and b.shape[2] > 1:
        raise ValueError("integrand is nonlinear in the test argument")
    if a.shape[3] > 1 and b.shape[3] > 1:
        raise ValueError("integrand is nonlinear in the trial argument")


def _integrate(arr: np.ndarray, ctx) -> np.ndarray:
    return np.einsum("q,cqij->cij", ctx.rule.weights,
                     arr * ctx.scale[:, None, None, None])


# ---------------------------------------------------------------------------
# reference-tensor evaluation (Kirby & Logg 2006, "A compiler for
# variational forms")
#
# On affine cells a bilinear term built only from arguments, facet
# normals, constants and scalar factors has the element tensor
#   K[c, i, j] = s[c] sum_rs G[c, r, s] A0[r, s, i, j]
# (times the test and trial cell signs), with the reference tensor
#   A0[r, s, i, j] = sum_q w_q R_test[q, i, r] R_trial[q, j, s]
# and the per-cell factor G built from the argument maps of ref_basis.
# Factors are carried as (g, refs): g shaped (ncs|1, ncomp, rt, rs) with
# extent-1 axes for an absent role, refs maps a role to (ref, signs).

_REFERENCE_NODES = (Arg, Const, Normal, Dot, Scale)


def _is_reference_form(term: IntegralTerm, form: FormIR) -> bool:
    """Whether a term's element tensors are computed from reference tensors."""
    nodes = _collect(term.integrand, Expr)
    return form.rank == 2 and all(isinstance(n, _REFERENCE_NODES) for n in nodes)


def _ref_factor(node: Expr, ctx, form: FormIR):
    if isinstance(node, Arg):
        fields = form.test_fields if node.role == "test" else form.trial_fields
        ref, g, signs = ctx.ref_basis(fields[node.field], node.deriv)
        g = g[:, :, :, None] if node.role == "test" else g[:, :, None, :]
        return g, {node.role: (ref, signs)}
    if isinstance(node, Const):
        return np.full((1, 1, 1, 1), node.value), {}
    if isinstance(node, Normal):
        return ctx.normal()[:, :, None, None], {}
    if isinstance(node, Dot):
        a, a_refs = _ref_factor(node.a, ctx, form)
        b, b_refs = _ref_factor(node.b, ctx, form)
        if a.shape[1] != b.shape[1]:
            raise ValueError("dot requires operands of equal rank")
        shared = a_refs.keys() & b_refs.keys()
        if shared:
            raise ValueError(f"integrand is nonlinear in the {shared.pop()} argument")
        return (a * b).sum(axis=1, keepdims=True), {**a_refs, **b_refs}
    if isinstance(node, Scale):
        g, refs = _ref_factor(node.x, ctx, form)
        return node.c * g, refs
    raise TypeError(f"integrand node {node!r} has no reference form")


def _reference_tensor(term: IntegralTerm, ctx, form: FormIR) -> np.ndarray:
    g, refs = _ref_factor(term.integrand, ctx, form)
    if g.shape[1] != 1:
        raise ValueError("integrand must be scalar-valued")
    (r_t, s_t), (r_u, s_u) = refs["test"], refs["trial"]
    a0 = np.einsum("q,qir,qjs->rsij", ctx.rule.weights, r_t, r_u)
    ncs, (rt, rs) = len(ctx.cells), g.shape[2:]
    gk = g[:, 0].reshape(-1, rt * rs) * ctx.scale[:, None]
    local = (gk @ a0.reshape(rt * rs, -1)).reshape(ncs, r_t.shape[1], r_u.shape[1])
    if s_t is not None:
        local *= s_t[:, :, None]
    if s_u is not None:
        local *= s_u[:, None, :]
    return local


# ---------------------------------------------------------------------------
# assembly drivers


def _facet_selections(mesh: Mesh, term: IntegralTerm, local_edge: int) -> np.ndarray:
    facets = mesh.cell_facets[:, local_edge]
    kind = mesh.facet_kind[facets]
    if term.domain == INTERIOR:
        return np.flatnonzero(kind == "interior")
    sel = kind == "exterior"
    if term.label is not None:
        sel &= mesh.exterior_label[facets] == term.label
    return np.flatnonzero(sel)


def assemble_form(form: FormIR) -> np.ndarray:
    """Element tensors of all cells: (nc, NT, NTR), (nc, NT), or (nc,).

    Bilinear terms built only from arguments, facet normals, constants
    and scalar factors are contracted from reference tensors; all other
    terms are integrated point by point.
    """
    mesh = form.mesh
    nc = mesh.n_cells
    t_off = _local_offsets(form.test_fields)
    u_off = _local_offsets(form.trial_fields)
    nt, ntr = t_off[-1], u_off[-1]
    out = np.zeros((nc, max(nt, 1), max(ntr, 1)))

    for term in form.terms:
        exact = _term_exactness(term, form)
        ti, tj = form.term_blocks(term)
        if term.domain == CELL:
            ctxs = [_CellCtx(mesh, reference.triangle_quadrature(exact))]
        else:
            rule = reference.edge_quadrature(exact)
            ctxs = [_FacetCtx(mesh, cells, loc, rule) for loc in range(3)
                    if len(cells := _facet_selections(mesh, term, loc))]
        by_reference = _is_reference_form(term, form)
        for ctx in ctxs:
            if by_reference:
                local = _reference_tensor(term, ctx, form)
            else:
                arr, is_vec = _eval_expr(term.integrand, ctx, form)
                if is_vec:
                    raise ValueError("integrand must be scalar-valued")
                local = _integrate(_bcast_cells(arr, len(ctx.cells)), ctx)
            _scatter_block(out, local, ctx.cells, ti, tj, t_off, u_off)

    if form.rank == 2:
        return out
    if form.rank == 1:
        return out[:, :, 0]
    return out[:, 0, 0]


def _local_offsets(fields) -> np.ndarray:
    if not fields:
        return np.array([0])
    return np.concatenate([[0], np.cumsum([s.local_dim for s in fields])]).astype(int)


def _scatter_block(out, local, cells, ti, tj, t_off, u_off):
    r0 = t_off[ti] if ti >= 0 else 0
    r1 = t_off[ti + 1] if ti >= 0 else 1
    c0 = u_off[tj] if tj >= 0 else 0
    c1 = u_off[tj + 1] if tj >= 0 else 1
    # cells are sorted and distinct, so a term over every cell adds
    # through a view instead of a fancy-indexed gather and scatter
    rows = slice(None) if len(cells) == len(out) else cells
    out[rows, r0:r1, c0:c1] += local


# ---------------------------------------------------------------------------
# single-cell reference assembly (testing oracle for the batched path)


def assemble_local(form: FormIR, cell: int) -> np.ndarray:
    """Element tensor of one cell by plain quadrature loops.

    Kept independent of the batched evaluator so the two can check each
    other; exact for polynomial integrands within the selected rule.
    """
    mesh = form.mesh
    if not 0 <= cell < mesh.n_cells:
        raise IndexError(f"cell index {cell} out of range")
    t_off = _local_offsets(form.test_fields)
    u_off = _local_offsets(form.trial_fields)
    out = np.zeros((max(t_off[-1], 1), max(u_off[-1], 1)))

    for term in form.terms:
        exact = _term_exactness(term, form)
        ti, tj = form.term_blocks(term)
        if term.domain == CELL:
            rule = reference.triangle_quadrature(exact)
            ctx = _CellCtx(mesh, rule, np.array([cell]))
            acc = _local_term(term, form, ctx)
            scale = mesh.geometry().det_j[cell]
        else:
            rule = reference.edge_quadrature(exact)
            acc = None
            for loc in range(3):
                cells = _facet_selections(mesh, term, loc)
                if cell not in cells:
                    continue
                ctx = _FacetCtx(mesh, np.array([cell]), loc, rule)
                part = _local_term(term, form, ctx)
                part *= mesh.geometry().edge_lengths[cell, loc]
                acc = part if acc is None else acc + part
            scale = 1.0
            if acc is None:
                continue
        block = acc * scale
        r0, r1 = (t_off[ti], t_off[ti + 1]) if ti >= 0 else (0, 1)
        c0, c1 = (u_off[tj], u_off[tj + 1]) if tj >= 0 else (0, 1)
        out[r0:r1, c0:c1] += block

    if form.rank == 2:
        return out
    if form.rank == 1:
        return out[:, 0]
    return out[0, 0]


def _local_term(term, form, ctx) -> np.ndarray:
    """Quadrature-point loop for the context's one cell; returns the
    unscaled block.

    Point values are uniformly shaped (nt, ntr, ncomp) with extent-1
    axes where a role or the component is absent.
    """
    tab: dict = {}

    def basis(space, deriv):
        # tabulates the whole rule: once per context, not per point
        key = (id(space), deriv)
        if key not in tab:
            tab[key] = _cell_basis(space, deriv, ctx)
        return tab[key]

    acc = None
    for q in range(ctx.nq):
        val = _eval_point(term.integrand, ctx, basis, form, q)
        if val.shape[-1] != 1:
            raise ValueError("integrand must be scalar-valued")
        contrib = ctx.rule.weights[q] * val[:, :, 0]
        acc = contrib if acc is None else acc + contrib
    return acc


def _cell_basis(space: FunctionSpace, deriv: str, ctx) -> tuple[np.ndarray, bool]:
    """Physical basis of the context's one cell at its points, written
    out per family without :func:`~hybridfem.spaces.ref_basis`.

    Returns (values, is_vector) with values (nq, nd) or (nq, nd, 2).
    """
    fam, el = space.family, space.element()
    c, geo, pts = ctx.cells[0], ctx.geo, ctx.ref_pts
    if fam.kind in ("DG", "CG") and deriv == "value":
        return el.tabulate(pts), False
    if fam.kind in ("DG", "CG") and deriv == "grad":
        return el.tabulate_grad(pts) @ geo.inv_jt[c].T, True
    if fam.kind == "VectorDG" and deriv == "value":
        sval = el.tabulate(pts)
        zero = np.zeros_like(sval)
        return np.concatenate([np.stack([sval, zero], axis=-1),
                               np.stack([zero, sval], axis=-1)], axis=1), True
    if fam.kind == "VectorDG" and deriv == "div":
        grads = el.tabulate_grad(pts) @ geo.inv_jt[c].T  # (nq, ns, 2)
        return np.concatenate([grads[..., 0], grads[..., 1]], axis=1), False
    if fam.kind == "RT" and deriv == "value":
        piola = el.tabulate(pts) @ geo.jacobians[c].T / geo.det_j[c]
        return piola * space.cell_signs[c][:, None], True
    if fam.kind == "RT" and deriv == "div":
        return el.tabulate_div(pts) / geo.det_j[c] * space.cell_signs[c], False
    if fam.kind == "Trace" and deriv == "value" and isinstance(ctx, _FacetCtx):
        # the trace parameter runs along the facet's global direction
        t = ctx.rule.points if ctx.dir_match[0] else 1.0 - ctx.rule.points
        per = fam.degree + 1
        vals = np.zeros((ctx.nq, 3 * per))
        vals[:, ctx.local_edge * per:(ctx.local_edge + 1) * per] = el.tabulate(t)
        return vals, False
    raise ValueError(f"unsupported tabulation {fam.kind}/{deriv}")


def _eval_point(node, ctx, basis, form, q) -> np.ndarray:
    if isinstance(node, Arg):
        fields = form.test_fields if node.role == "test" else form.trial_fields
        vals, is_vec = basis(fields[node.field], node.deriv)
        v = vals[q]  # (nd,) or (nd, 2)
        if not is_vec:
            v = v[:, None]
        return v[:, None, :] if node.role == "test" else v[None, :, :]
    if isinstance(node, Coef):
        vals, is_vec = basis(node.fn.space, "value")
        local = ctx.local_coeffs(node.fn)[0]
        out = np.tensordot(local, vals[q], axes=(0, 0))  # scalar or (2,)
        out = np.atleast_1d(out)
        return out[None, None, :]
    if isinstance(node, Fld):
        return np.array(ctx.eval_field(node.sf)[0, q]).reshape(1, 1, 1)
    if isinstance(node, Const):
        return np.full((1, 1, 1), node.value)
    if isinstance(node, VFld):
        x, y = ctx.phys[0, q]
        return np.asarray(node.fn(np.array(x), np.array(y)), dtype=float)[None, None, :]
    if isinstance(node, Normal):
        return ctx.normal()[0][None, None, :]
    if isinstance(node, Dot):
        a = _eval_point(node.a, ctx, basis, form, q)
        b = _eval_point(node.b, ctx, basis, form, q)
        if a.shape[-1] != b.shape[-1]:
            raise ValueError("dot requires operands of equal rank")
        return (a * b).sum(axis=-1, keepdims=True)
    if isinstance(node, Sum):
        a = _eval_point(node.a, ctx, basis, form, q)
        b = _eval_point(node.b, ctx, basis, form, q)
        return a + b
    if isinstance(node, Scale):
        return node.c * _eval_point(node.x, ctx, basis, form, q)
    raise TypeError(f"unknown integrand node {node!r}")
