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

Two assembly routes are provided: :func:`assemble_form` evaluates many
cells at once with batched numpy, while :func:`assemble_local` is an
independent single-cell reference implementation used as a testing
oracle.  On a form's first assembly its terms are grouped into integrals,
one per (domain, label, rule), and every integrand is walked once into
monomials, a per-cell factor, built over a contiguous last cell axis,
times reference tabulations of the arguments.  Monomials without
coefficients or fields sum over quadrature points in their reference
tensors, placed in the form's one ``A0`` and
contracted for all terms in one product; the others keep the point index
and are contracted in cell blocks of at most
:data:`~hybridfem.spaces.BLOCK_POINTS` points.  An assembly builds one
context per integral and local edge.  Bases come from the two halves of
:func:`~hybridfem.spaces.ref_basis` (coefficients through
:func:`~hybridfem.spaces.contract`); the oracle holds the only physical
tabulation of its own, so it checks both.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable, NamedTuple, Union

import numpy as np

from . import reference
from .mesh import DIRICHLET, NEUMANN, Mesh
from .spaces import (Function, FunctionSpace, MixedSpace, cell_blocks, contract,
                     local_offsets, ref_map, ref_table)

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


@dataclass(frozen=True)
class FormIR:
    """An immutable multilinear form over (possibly mixed) argument spaces,
    on every cell of its mesh; :func:`assemble_form` takes the cells."""

    test: SpaceLike
    trial: SpaceLike
    terms: tuple[IntegralTerm, ...]

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(self.terms))
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
        if term.domain == CELL and _collect(term.integrand, Normal):
            raise ValueError("facet normals appear in facet terms only")

    @cached_property
    def compiled(self) -> tuple[tuple[_Integral, ...], np.ndarray]:
        """The form compiled on its first assembly (:func:`_compile`): its
        integrals, one per (domain, label, rule), and their element-layout ``A0``."""
        return _compile(self)

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

class _Ctx:
    """Point data shared by the cell and facet contexts, memoized cells-last."""

    def __init__(self, mesh: Mesh, rule, cells, ref_pts: np.ndarray):
        self.cells, self.rule, self.nq = cells, rule, len(rule.weights)
        self.geo, self.ref_pts, self.memo = mesh.geometry(), ref_pts, {}

    @cached_property
    def phys(self) -> np.ndarray:
        return self.geo.physical_points(self.ref_pts, self.cells)

    def eval_field(self, sf: ScalarField) -> np.ndarray:
        return sf(self.phys[..., 0], self.phys[..., 1])

    def local_coeffs(self, fn: Function) -> np.ndarray:
        return fn.coeffs[fn.space.cell_dofs[self.cells]]

    def last(self, key, values: Callable) -> np.ndarray:  # values() (ncs|1, ...) as (..., ncs|1)
        if key not in self.memo:
            self.memo[key] = np.ascontiguousarray(np.moveaxis(values(), 0, -1))
        return self.memo[key]

    def ref_map(self, space: FunctionSpace, deriv: str) -> np.ndarray:  # (ncomp, nr, ncs|1)
        return self.last((id(space), deriv), lambda: ref_map(space, deriv, self.geo, self.cells))

    def table(self, space: FunctionSpace, deriv: str) -> np.ndarray:  # memoized
        return ref_table(space, deriv, self.ref_pts)


class _CellCtx(_Ctx):
    """Quadrature data on the interiors of the given cells (slice or indices)."""

    def __init__(self, mesh: Mesh, rule, cells):
        super().__init__(mesh, rule, cells, rule.points)
        self.scale = np.abs(self.geo.det_j[cells])  # integration measure factor


class _FacetCtx(_Ctx):
    """Quadrature data for one local edge over a batch of cells; edge data read on first use."""

    def __init__(self, mesh: Mesh, cells: np.ndarray, local_edge: int, rule):
        super().__init__(mesh, rule, cells, reference.edge_points(local_edge, rule.points))
        self.local_edge = local_edge

    scale = cached_property(lambda self: self.geo.edge_lengths[self.cells, self.local_edge])
    normals = cached_property(lambda self: self.geo.edge_normals[self.cells, self.local_edge])

    def table(self, space: FunctionSpace, deriv: str) -> np.ndarray:
        return (_trace_table(space.family.degree, self.rule.exactness, self.local_edge)
                if space.family.kind == "Trace" else super().table(space, deriv))


@lru_cache(maxsize=None)
def _trace_table(degree: int, exactness: int, loc: int) -> np.ndarray:
    """Trace(degree) on local edge ``loc`` at ``edge_quadrature(exactness)``, read-only."""
    t, per = reference.edge_quadrature(exactness).points, degree + 1
    table = np.zeros((len(t), 3 * per, 1))
    table[:, loc * per:(loc + 1) * per, 0] = reference.line_element(degree).tabulate(t)
    table.flags.writeable = False
    return table


# ---------------------------------------------------------------------------
# compiled integrands (Kirby & Logg 2006, "A compiler for variational
# forms"; Ølgaard & Wells 2010, "Optimizations for quadrature
# representations of finite element tensors")
#
# An integrand is walked once, on a form's first assembly, into a list of
# monomials (g, refs, ncomp, points): g(ctx) builds the per-cell factor
# (nq|1, ncomp, rt, rs, ncs|1) of a context from its contiguous cells-last
# copies (_Ctx.last) of the maps of ref_map, normals, fields and
# coefficients, per point where a coefficient or field enters (``points``);
# refs maps each argument role present to its reference table.  Extent-1
# axes stand for an absent cell, point or role dependence.  On affine
# cells, with s[c] the measure |det J| or the edge length, a monomial's
# element tensor
#   K[c, i, j] = s[c] sum_q w_q sum_rs g[q, r, s, c] R_test[q, i, r] R_trial[q, j, s]
# is summed over q in one of two places.  A point-independent g leaves the
# sum to the reference tensor
#   A0[r, s, i, j] = sum_q w_q R_test[q, i, r] R_trial[q, j, s],
# so K = G @ A0 with G[c, (r, s)] = s[c] g[r, s, c].  A point-dependent g
# keeps q in both, G[c, (q, r, s)] = w_q s[c] g[q, r, s, c] and
# A0[(q, r, s), i, j] = R_test[q, i, r] R_trial[q, j, s].  Each A0 is compiled;
# an assembly builds only G, C-contiguous, on one context per integral and local edge.

def _monomials(node: Expr, form: FormIR, ctx0) -> list:
    """The monomials of ``node`` on contexts of the kind of ``ctx0`` (no cells)."""
    if isinstance(node, Arg):
        space = (form.test_fields if node.role == "test" else form.trial_fields)[node.field]
        ref, ncomp = ctx0.table(space, node.deriv), len(ctx0.ref_map(space, node.deriv))
        axes = (0, 3) if node.role == "test" else (0, 2)
        return [(lambda ctx: np.expand_dims(ctx.ref_map(space, node.deriv), axes),
                 {node.role: ref}, ncomp, False)]
    if isinstance(node, Coef):
        space = node.fn.space
        return [(lambda c: c.last(node, lambda: contract(
            (c.table(space, "value"), ref_map(space, "value", c.geo, c.cells)),
            c.local_coeffs(node.fn)))[:, :, None, None], {}, 1 + space.family.is_vector, True)]
    if isinstance(node, Fld):
        return [(lambda c: c.last(node, lambda: c.eval_field(node.sf))[:, None, None, None],
                 {}, 1, True)]
    if isinstance(node, VFld):
        vals = lambda c: np.asarray(node.fn(c.phys[..., 0], c.phys[..., 1]), dtype=float)
        return [(lambda c: c.last(node, lambda: vals(c))[:, :, None, None], {}, 2, True)]
    if isinstance(node, Const):
        return [(lambda ctx: np.full((1, 1, 1, 1, 1), node.value), {}, 1, False)]
    if isinstance(node, Normal):
        return [(lambda c: c.last(node, lambda: c.normals)[None, :, None, None], {}, 2, False)]
    if isinstance(node, Dot):
        out, b = [], _monomials(node.b, form, ctx0)
        for ga, a_refs, na, pa in _monomials(node.a, form, ctx0):
            for gb, b_refs, nb, pb in b:
                if na != nb:
                    raise ValueError("dot requires operands of equal rank")
                shared = a_refs.keys() & b_refs.keys()
                if shared:
                    raise ValueError(f"integrand is nonlinear in the {shared.pop()} argument")
                out.append((lambda c, ga=ga, gb=gb: _dot(ga(c), gb(c)),
                            {**a_refs, **b_refs}, 1, pa or pb))
        return out
    if isinstance(node, Sum):
        out = _monomials(node.a, form, ctx0) + _monomials(node.b, form, ctx0)
        if len({n for _, _, n, _ in out}) > 1:
            raise ValueError("sum requires operands of equal rank")
        return out
    if isinstance(node, Scale):
        return [(lambda ctx, g=g: node.c * g(ctx), refs, n, p)
                for g, refs, n, p in _monomials(node.x, form, ctx0)]
    raise TypeError(f"unknown integrand node {node!r}")


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:  # sum over components, axis 1 (<= 2)
    out = a[:, :1] * b[:, :1]
    return out if a.shape[1] == 1 else np.add(out, a[:, 1:] * b[:, 1:], out=out)


class _Integral(NamedTuple):
    """A form's terms on one (domain, label, rule), compiled per context kind: builders
    of cells-last factors, the point-independent ones with their first column in
    the form's ``A0``, and per point-dependent term its builders and ``A0`` rows (p, ni, nj)."""
    term: IntegralTerm  # the first, for the domain and label
    rule: reference.QuadratureRule
    fixed: dict  # kind: [(g, column)]
    points: list  # [(term, block, {kind: (gs, A0)})]


def _compile(form: FormIR) -> tuple[tuple[_Integral, ...], np.ndarray]:
    """The form's integrals, every term walked, checked and tabulated per
    context kind, and the read-only ``A0`` (K, NT * NTR) of the
    point-independent monomials, each term's rows in its block; holds no form."""
    t_off, u_off = local_offsets(form.test_fields), local_offsets(form.trial_fields)
    shape = (max(t_off[-1], 1), max(u_off[-1], 1))
    integrals, rows = {}, []
    for term in form.terms:
        rule = (reference.triangle_quadrature if term.domain == CELL
                else reference.edge_quadrature)(_term_exactness(term, form))
        block = form.term_blocks(term)
        it = integrals.setdefault((term.domain, term.label, rule.exactness),
                                  _Integral(term, rule, {}, []))
        points = {}
        for kind in [None] if term.domain == CELL else range(3):
            ctx0 = _context(form.mesh, rule, kind, np.arange(0))
            for g, refs, ncomp, at_points in _monomials(term.integrand, form, ctx0):
                if ncomp != 1:
                    raise ValueError("integrand must be scalar-valued")
                # a role absent from the form gets a constant tabulation
                tables = [refs.get(role, np.ones((len(rule.weights), 1, 1)))
                          for role in ("test", "trial")]
                a0 = (np.einsum("qir,qjs->qrsij", *tables) if at_points else
                      np.einsum("q,qir,qjs->rsij", rule.weights, *tables))
                a0 = a0.reshape(-1, *a0.shape[-2:])
                if at_points:
                    points.setdefault(kind, []).append((g, a0))
                    continue
                it.fixed.setdefault(kind, []).append((g, sum(map(len, rows))))
                rows.append(np.zeros((len(a0),) + shape))
                rows[-1][(slice(None),) + _block(*block, t_off, u_off)] = a0
        if points:
            it.points.append((term, block, {kind: ([g for g, _ in ms], np.concatenate(
                [a0 for _, a0 in ms])) for kind, ms in points.items()}))
    A0 = np.concatenate(rows or [np.zeros((0,) + shape)]).reshape(-1, shape[0] * shape[1])
    A0.flags.writeable = False
    return tuple(integrals.values()), A0


# ---------------------------------------------------------------------------
# assembly drivers


def _facet_selections(mesh: Mesh, term: IntegralTerm, cells: slice) -> list[np.ndarray]:
    """Cells of the range ``cells`` whose local edge l lies in the term's
    facet set, for l = 0, 1, 2, ascending: from the facets of these cells
    (interior terms) or :attr:`~hybridfem.mesh.Mesh.exterior_sides`."""
    if term.domain == INTERIOR:
        chosen = mesh.facet_cells[mesh.cell_facets[cells], 1] >= 0  # (nc, 3)
        return [cells.start + np.flatnonzero(c) for c in chosen.T]
    facets, sides, loc = mesh.exterior_sides
    keep = (sides >= cells.start) & (sides < cells.stop)
    if term.label is not None:
        keep &= mesh.exterior_label[facets] == term.label
    return [sides[keep & (loc == l)] for l in range(3)]


def _context(mesh: Mesh, rule, kind, cells):
    return _CellCtx(mesh, rule, cells) if kind is None else _FacetCtx(mesh, cells, kind, rule)


def assemble_form(form: FormIR, cells: slice | None = None) -> np.ndarray:
    """Element tensors of the cells ``cells`` (a slice ``lo:hi``; ``None``
    means every cell): (nc, NT, NTR), (nc, NT), or (nc,), row 0 being
    cell ``lo``.  Facet terms read only the facets of these cells.

    A call builds one context per integral and local edge with cells, and
    on them only the factors ``G`` (the rest is :attr:`FormIR.compiled`).
    The point-independent monomials of all terms are contracted in one
    product ``G @ A0``; the point-dependent ones are then added one cell
    block at a time, each cell's sum over its points a product of its own
    (a batched ``matmul`` of one row per cell), so a cell's element tensor
    does not depend on the block it is in.
    """
    mesh, (integrals, A0) = form.mesh, form.compiled
    cells = slice(0, mesh.n_cells) if cells is None else cells
    t_off, u_off = local_offsets(form.test_fields), local_offsets(form.trial_fields)
    contexts = [(it, kind, _context(mesh, it.rule, kind, sel)) for it in integrals
                for kind, sel in ([(None, cells)] if it.term.domain == CELL else
                                  enumerate(_facet_selections(mesh, it.term, cells)))
                if kind is None or len(sel)]
    G = np.zeros((cells.stop - cells.start, len(A0)))
    for it, kind, ctx in contexts:
        for g, k in it.fixed.get(kind, ()):
            gk = (g(ctx)[0, 0] * ctx.scale).reshape(-1, len(ctx.scale))
            G[_rows(ctx.cells, cells), k:k + len(gk)] = gk.T
    contexts = [c for c in contexts if c[0].points]  # the others' maps are freed before the product
    out = np.matmul(G, A0).reshape((len(G), max(t_off[-1], 1), max(u_off[-1], 1)))

    for it, kind, ctx in contexts:
        blocks = list(cell_blocks(ctx.cells, len(it.rule.weights)))
        for blk in blocks:
            bctx = ctx if len(blocks) == 1 else _context(mesh, it.rule, kind, blk)
            w = (it.rule.weights[:, None] * bctx.scale)[:, None, None]  # (nq, 1, 1, ncs)
            for _, block, per_kind in it.points:
                gs, A0 = per_kind[kind]
                G = np.ascontiguousarray(np.concatenate(  # C order, so every product keeps its bits
                    [(g(bctx)[:, 0] * w).reshape(-1, w.shape[-1]) for g in gs]).T)
                local = np.matmul(G[:, None, :], A0.reshape(len(A0), -1))[:, 0]
                _scatter_block(out, local.reshape(len(G), *A0.shape[1:]), _rows(bctx.cells, cells),
                               *block, t_off, u_off)
    return out.reshape(out.shape[:1 + form.rank])


def _rows(cells, first: slice):
    """The rows of ``cells`` (a slice or indices) in an array whose row 0
    is cell ``first.start``."""
    if isinstance(cells, slice):
        return slice(cells.start - first.start, cells.stop - first.start)
    return cells - first.start


def _block(ti, tj, t_off, u_off) -> tuple[slice, slice]:
    """A term's rows and columns in the flattened local layout."""
    return (slice(t_off[ti], t_off[ti + 1]) if ti >= 0 else slice(0, 1),
            slice(u_off[tj], u_off[tj + 1]) if tj >= 0 else slice(0, 1))


def _scatter_block(out, local, cells, ti, tj, t_off, u_off):
    # cell terms come as slices and add through a view; facet cells are
    # sorted and distinct, so the fancy-indexed add is safe
    out[(cells,) + _block(ti, tj, t_off, u_off)] += local


# ---------------------------------------------------------------------------
# single-cell reference assembly (testing oracle for the batched path)


def assemble_local(form: FormIR, cell: int) -> np.ndarray:
    """Element tensor of one cell by plain quadrature loops.

    Kept independent of the batched evaluator, down to which local edges
    a facet term covers, so the two can check each other; exact for
    polynomial integrands within the selected rule.
    """
    mesh = form.mesh
    if not 0 <= cell < mesh.n_cells:
        raise IndexError(f"cell index {cell} out of range")
    t_off = local_offsets(form.test_fields)
    u_off = local_offsets(form.trial_fields)
    out = np.zeros((max(t_off[-1], 1), max(u_off[-1], 1)))

    for term in form.terms:
        exact = _term_exactness(term, form)
        ti, tj = form.term_blocks(term)
        if term.domain == CELL:
            rule = reference.triangle_quadrature(exact)
            ctx = _CellCtx(mesh, rule, np.array([cell]))
            acc = _local_term(term, form, ctx)
            scale = abs(mesh.geometry().det_j[cell])
        else:
            rule = reference.edge_quadrature(exact)
            acc = None
            for loc, f in enumerate(mesh.cell_facets[cell]):
                exterior = mesh.facet_cells[f, 1] < 0
                if ((term.domain == EXTERIOR) != exterior
                        or term.label not in (None, mesh.exterior_label[f])):
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
        return el.tabulate(pts) @ geo.jacobians[c].T / geo.det_j[c], True
    if fam.kind == "RT" and deriv == "div":
        return el.tabulate_div(pts) / geo.det_j[c], False
    if fam.kind == "Trace" and deriv == "value" and isinstance(ctx, _FacetCtx):
        # the edge parameter runs along the facet's global direction in every cell
        per = fam.degree + 1
        vals = np.zeros((ctx.nq, 3 * per))
        vals[:, ctx.local_edge * per:(ctx.local_edge + 1) * per] = el.tabulate(ctx.rule.points)
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
        return ctx.normals[0][None, None, :]
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
