import os
import subprocess
import sys
import time
import tracemalloc
import types

import numpy as np
import pytest

import hybridfem
from hybridfem import (
    DG,
    RT,
    Function,
    build_jittered_square,
    build_unit_square,
    create_space,
    expressions,
    interpolate,
    reference,
    spaces,
    study,
)
from hybridfem.forms import assemble_form
from hybridfem.postprocess import scalar_pp
from hybridfem.problems import manufactured, primal_cg_system
from hybridfem.spaces import contract, eval_function, ref_basis
from hybridfem.study import (
    COMPARE_COLUMNS,
    CONVERGE_COLUMNS,
    StudySpec,
    l2_error,
    l2_error_div,
    run_convergence,
    run_solver_compare,
    solve_hybridizable,
    solve_primal,
    write_csv,
)


def test_runtime_loads_no_sympy():
    """sympy is a test dependency only: importing the library and running
    a convergence study must not load it."""
    code = ("import sys\n"
            "import hybridfem\n"
            "from hybridfem.study import StudySpec, run_convergence\n"
            "run_convergence(StudySpec(sizes=(2, 4)))\n"
            "assert 'sympy' not in sys.modules\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(hybridfem.__file__)))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_spec_validation():
    with pytest.raises(ValueError):
        StudySpec(sizes=(4,))
    with pytest.raises(ValueError):
        StudySpec(sizes=(8, 4))
    with pytest.raises(ValueError):
        StudySpec(method="fem")


def test_unknown_inner_pc_rejected_at_construction():
    """A misspelt preconditioner fails before any mesh is built."""
    with pytest.raises(ValueError, match="unknown preconditioner 'bogus'"):
        StudySpec(inner_pc="bogus")


def test_l2_error_oracle():
    mesh = build_unit_square(3)
    V = create_space(mesh, DG(2))
    fn = interpolate(V, lambda x, y: 1.0 + x + y * x)
    assert l2_error(fn, lambda x, y: 1.0 + x + y * x) < 1e-13
    # constant offset: ||c||_L2(unit square) = |c|
    off = l2_error(fn, lambda x, y: 2.0 + x + y * x)
    assert abs(off - 1.0) < 1e-12


def test_l2_error_rejects_an_unsupported_rule():
    """An error rule beyond the tabulated ones is refused, not clamped to
    the highest one."""
    fn = interpolate(create_space(build_unit_square(2), DG(1)), lambda x, y: x)
    assert l2_error(fn, lambda x, y: x, exactness=12) < 1e-14
    for exactness in (13, 40):
        with pytest.raises(ValueError, match=f"unsupported cell quadrature exactness {exactness}"):
            l2_error(fn, lambda x, y: x, exactness=exactness)


def test_blocked_l2_errors_match_single_pass():
    """The error norms, summed over cell blocks, equal one pass over all
    cells at once."""
    mesh = build_jittered_square(64, 0.2, seed=5)
    prob = manufactured("expsin")
    rng = np.random.default_rng(4)
    rule = reference.triangle_quadrature(10)
    assert mesh.n_cells * len(rule.weights) > 2 * spaces.BLOCK_POINTS
    geo = mesh.geometry()
    pts = geo.physical_points(rule.points)
    x, y = pts[..., 0], pts[..., 1]

    def single_pass(diff2):
        return np.sqrt(np.sum(rule.weights * diff2 * np.abs(geo.det_j)[:, None]))

    p = Function(create_space(mesh, DG(2)), rng.standard_normal(6 * mesh.n_cells))
    U = create_space(mesh, RT(2))
    u = Function(U, rng.standard_normal(U.ndof_global))
    cases = [
        (l2_error(p, prob.p), (eval_function(p, rule.points) - prob.p(x, y)) ** 2),
        (l2_error(u, prob.u),
         ((eval_function(u, rule.points) - prob.u(x, y)) ** 2).sum(axis=-1)),
        (l2_error_div(u, prob.div_u),
         (contract(ref_basis(U, "div", rule.points, geo, slice(None)),
                   u.coeffs[U.cell_dofs])[..., 0] - prob.div_u(x, y)) ** 2),
    ]
    for got, diff2 in cases:
        assert got == pytest.approx(single_pass(diff2), rel=1e-13)


@pytest.mark.parametrize("method,degree", [("mixed-hybrid", 2), ("ldgh", 1)])
@pytest.mark.parametrize("build", [build_unit_square, lambda n: build_jittered_square(n, 0.2, 3)],
                         ids=["unit", "jittered"])
def test_one_pass_errors_match_separate_calls(method, degree, build, monkeypatch):
    """A study row's errors from one pass over the cell blocks (four
    here) are bit for bit those of separate ``l2_error`` and
    ``l2_error_div`` calls, and an exact solution shared by consecutive
    terms is evaluated once per block."""
    monkeypatch.setattr(spaces, "BLOCK_POINTS", 1000)
    mesh, prob = build(8), manufactured("sinsin")
    res = solve_hybridizable(mesh, prob, StudySpec(method=method, degree=degree, sizes=(4, 8)))
    calls = []
    p_exact = lambda x, y: calls.append(x.shape) or prob.p(x, y)
    terms = [(res.p, "value", p_exact), (res.p_star, "value", p_exact),
             (res.u, "value", prob.u)]
    separate = [l2_error(res.p, prob.p), l2_error(res.p_star, prob.p), l2_error(res.u, prob.u)]
    if res.u_star is not None:
        terms += [(res.u_star, "value", prob.u), (res.u_star, "div", prob.div_u)]
        separate += [l2_error(res.u_star, prob.u), l2_error_div(res.u_star, prob.div_u)]
    assert study._l2_norms(terms) == separate
    assert len(calls) == 4
    names = ("err_p", "err_pstar", "err_u", "err_ustar", "err_div_ustar")
    assert study._hybrid_errors(res, prob) == dict(zip(names, separate + [None, None]))


@pytest.mark.parametrize("method", ["mixed-hybrid", "ldgh", "cg-primal"])
def test_convergence_frees_each_mesh_before_the_next_solve(method, monkeypatch):
    """Nothing a row keeps (its solution, its error terms) holds the
    previous mesh alive while the next mesh is solved."""
    import gc
    import weakref

    meshes = []

    def build(n):
        mesh = build_unit_square(n)
        meshes.append(weakref.ref(mesh))
        assert all(ref() is None for ref in meshes[:-1])
        return mesh
    monkeypatch.setattr(study, "build_unit_square", build)
    gc.disable()
    try:
        run_convergence(StudySpec(method=method, sizes=(2, 4, 8), inner_pc="exact"))
    finally:
        gc.enable()
    assert len(meshes) == 3


def test_one_pass_errors_need_one_mesh():
    fns = [Function(create_space(build_unit_square(n), DG(1)), np.zeros(6 * n * n)) for n in (2, 3)]
    with pytest.raises(ValueError, match="share a mesh"):
        study._l2_norms([(fn, "value", lambda x, y: x) for fn in fns])


def test_rhs_and_error_memory_is_bounded_by_blocks():
    """At n=128 the right-hand side and the error norm hold one cell
    block of quadrature data at a time, not the whole mesh."""
    mesh = build_unit_square(128)
    prob = manufactured("sinsin")
    ps = primal_cg_system(mesh, prob, 1)
    p = interpolate(ps.space, prob.p)
    runs = (lambda: assemble_form(ps.rhs), lambda: l2_error(p, prob.p))
    for run in runs:
        run()  # geometry and tabulation caches fill on the first call
    peaks = []
    for run in runs:
        tracemalloc.start()
        try:
            run()
            peaks.append(tracemalloc.get_traced_memory()[1] / 1e6)
        finally:
            tracemalloc.stop()
    assert peaks[0] <= 12.0 and peaks[1] <= 8.0, peaks


def test_convergence_rows_schema_and_rates():
    spec = StudySpec(method="mixed-hybrid", degree=1, sizes=(4, 8),
                     inner_pc="exact", serial=True)
    rows = run_convergence(spec)
    assert len(rows) == 2
    for row in rows:
        assert set(CONVERGE_COLUMNS) <= set(row.keys())
    assert rows[0]["rate_p"] is None
    assert abs(rows[1]["rate_p"] - 1.0) < 0.25
    assert abs(rows[1]["rate_pstar"] - 2.0) < 0.25
    assert all(rows[1][k] == 0.0 for k in
               ("t_condense", "t_forward", "t_trace", "t_backsub", "t_post"))


def test_ldgh_convergence_includes_flux_recovery():
    spec = StudySpec(method="ldgh", degree=1, tau=1.0, sizes=(4, 8),
                     inner_pc="exact")
    rows = run_convergence(spec)
    assert rows[1]["err_ustar"] is not None
    assert abs(rows[1]["rate_ustar"] - 2.0) < 0.3
    assert abs(rows[1]["rate_div_ustar"] - 2.0) < 0.3


def test_scalar_pp_multiplier_degree_choices_superconverge():
    """Every admissible multiplier degree gives the k+2 post-processed
    rate for the hybridized mixed method (scalar degree k = 1 here)."""
    prob = manufactured("sinsin")
    spec = StudySpec(method="mixed-hybrid", degree=2, inner_pc="exact")
    results = [solve_hybridizable(build_unit_square(n), prob, spec) for n in (8, 16)]
    for l in (0, 1):
        coarse, fine = (l2_error(scalar_pp(res.u, res.p, prob.mu, l), prob.p)
                        for res in results)
        assert abs(np.log2(coarse / fine) - 3.0) < 0.3


def test_cg_primal_convergence():
    spec = StudySpec(method="cg-primal", degree=2, sizes=(4, 8),
                     inner_pc="jacobi", rtol=1e-10)
    rows = run_convergence(spec)
    assert abs(rows[1]["rate_p"] - 3.0) < 0.3
    assert rows[1]["err_u"] is None


def test_compare_paths_agree():
    spec = StudySpec(method="mixed-hybrid", degree=1, sizes=(2, 4),
                     inner_pc="exact")
    rows = run_solver_compare(spec)
    assert len(rows) == 6
    for row in rows:
        assert set(COMPARE_COLUMNS) <= set(row.keys())
        assert row["max_diff_vs_direct"] < 1e-7
        if row["path"] != "direct":
            assert row["iterations"] == 1  # exact inner solves


def test_compare_ldgh():
    spec = StudySpec(method="ldgh", degree=1, sizes=(2, 4), inner_pc="exact")
    rows = run_solver_compare(spec)
    paths = {r["path"] for r in rows}
    assert paths == {"direct", "scpc-pc"}
    for row in rows:
        assert row["max_diff_vs_direct"] < 1e-7


@pytest.mark.parametrize("method", ["mixed-hybrid", "ldgh"])
def test_compare_paths_agree_under_twolevel(method):
    """Hybridized and condensed paths with the multigrid inner solve
    reproduce the direct solve."""
    rows = run_solver_compare(StudySpec(method=method, degree=1, sizes=(4, 8),
                                        inner_pc="multigrid"))
    assert all(r["converged"] == 1 for r in rows)
    assert max(r["max_diff_vs_direct"] for r in rows) < 1e-7


def test_cg_primal_odd_n_twolevel_matches_jacobi():
    """On odd n the coarse grid n // 2 does not nest in the mesh; the
    iterations still stop growing, and the solution is Jacobi's."""
    rows = {pc: run_convergence(StudySpec(method="cg-primal", degree=1, sizes=(15, 33, 65),
                                          inner_pc=pc, rtol=1e-10))
            for pc in ("jacobi", "multigrid")}
    two = rows["multigrid"]
    assert all(r["converged"] == 1 for r in two)
    assert two[-1]["iterations"] <= 1.2 * two[0]["iterations"]
    assert two[-1]["iterations"] < rows["jacobi"][-1]["iterations"] / 2
    for jac, r in zip(rows["jacobi"], two):
        assert r["err_p"] == pytest.approx(jac["err_p"], rel=1e-8)


def test_trace_stage_includes_inner_preconditioner_setup(monkeypatch):
    """``t_trace`` counts the inner preconditioner's set-up, on the
    convergence rows and on every compare row that runs an inner solve."""
    real = study.make_preconditioner

    def slow(*args):
        time.sleep(0.05)
        return real(*args)

    monkeypatch.setattr(study, "make_preconditioner", slow)
    rows = [*run_convergence(StudySpec(method="mixed-hybrid", sizes=(2, 4))),
            *run_convergence(StudySpec(method="cg-primal", sizes=(2, 4))),
            *(r for method in ("mixed-hybrid", "ldgh")
              for r in run_solver_compare(StudySpec(method=method, sizes=(2, 4)))
              if r["path"] != "direct")]
    assert len(rows) == 10
    assert all(r["t_trace"] >= 0.05 for r in rows)


def test_stage_columns_time_each_path_stage():
    """Each path reports time only in the stages it runs: cg-primal
    assembly and constraints as ``t_condense`` and its solve as
    ``t_trace``; a hybridized solve all five; a direct solve only
    ``t_trace``.  Both preconditioned compare rows of a mesh start from
    one condensation set-up, and an application adds no condensation
    time.  ``t_total`` is the sum of the stage columns."""
    stages = ["t_condense", "t_forward", "t_trace", "t_backsub", "t_post"]
    primal = run_convergence(StudySpec(method="cg-primal", sizes=(2, 4)))
    hybrid = [*run_convergence(StudySpec(method="mixed-hybrid", sizes=(2, 4))),
              *run_convergence(StudySpec(method="ldgh", sizes=(2, 4)))]
    compare = [*run_solver_compare(StudySpec(method="mixed-hybrid", sizes=(2, 4))),
               *run_solver_compare(StudySpec(method="ldgh", sizes=(2, 4)))]

    def timed(row):
        return [c for c in stages if row[c] > 0.0]

    assert all(timed(r) == ["t_condense", "t_trace"] for r in primal)
    assert all(timed(r) == stages for r in hybrid)
    direct = [r for r in compare if r["path"] == "direct"]
    assert len(direct) == 4 and all(timed(r) == ["t_trace"] for r in direct)
    assert all(timed(r) == stages[:4] for r in compare if r["path"] != "direct")
    for method in ("mixed-hybrid", "ldgh"):
        for n in (2, 4):
            pcs = [r for r in compare if r["method"] == method and r["n"] == n
                   and r["path"] != "direct"]
            assert len(pcs) == (2 if method == "mixed-hybrid" else 1)
            assert len({r["t_condense"] for r in pcs}) == 1
    for row in primal + hybrid + compare:
        assert row["t_total"] == pytest.approx(sum(row[c] for c in stages), rel=1e-12)


def test_compare_rejects_primal():
    with pytest.raises(ValueError):
        run_solver_compare(StudySpec(method="cg-primal", sizes=(2, 4)))


def test_write_csv_golden(tmp_path):
    rows = [{"a": 1, "b": 0.5, "c": None, "d": "x"}]
    path = tmp_path / "out.csv"
    write_csv(str(path), rows, ["a", "b", "c", "d"])
    assert path.read_text(encoding="utf-8") == "a,b,c,d\n1,5.000000000000e-01,,x\n"


def test_serial_mode_deterministic(tmp_path):
    spec = StudySpec(method="mixed-hybrid", degree=1, sizes=(2, 4),
                     inner_pc="jacobi", serial=True)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_csv(str(p1), run_convergence(spec), CONVERGE_COLUMNS)
    write_csv(str(p2), run_convergence(spec), CONVERGE_COLUMNS)
    assert p1.read_bytes() == p2.read_bytes()


def test_mixed_hybrid_solve_assembles_each_form_once(monkeypatch):
    """The three-field operator, its right-hand side and the two
    post-processing forms: four batched assemblies per solve."""
    calls = []
    real = expressions.assemble_form
    monkeypatch.setattr(expressions, "assemble_form",
                        lambda form, cells=None: calls.append(form) or real(form, cells))
    res = solve_hybridizable(build_unit_square(4), manufactured("sinsin"),
                             StudySpec(method="mixed-hybrid", degree=1))
    assert res.report.converged
    assert len(calls) == 4
    assert len({id(f) for f in calls}) == 4


def test_primal_solve_leaves_edge_geometry_uncomputed():
    """A primal CG(1) solve and its error read no per-edge geometry, so
    the geometry's edge cache stays empty; a mixed-hybrid solve fills it."""
    mesh, prob = build_unit_square(8), manufactured("sinsin")
    res = solve_primal(mesh, prob, StudySpec(method="cg-primal", degree=1))
    assert res.report.converged
    assert l2_error(res.p, prob.p) < 0.05
    assert "_edges" not in vars(mesh.geometry())
    solve_hybridizable(mesh, prob, StudySpec(method="mixed-hybrid", degree=1))
    assert "_edges" in vars(mesh.geometry())


@pytest.mark.parametrize("method,degree,n_forms", [("mixed-hybrid", 2, 8),
                                                    ("ldgh", 1, 4)])
def test_solver_compare_assembles_each_form_once(monkeypatch, method, degree, n_forms):
    """Per mesh, the direct system, its right-hand side and (for the mixed
    method) the hybridized system's: the outer matrices reuse the element
    tensors that condensation memoized."""
    calls = []
    real = expressions.assemble_form
    monkeypatch.setattr(expressions, "assemble_form",
                        lambda form, cells=None: calls.append(form) or real(form, cells))
    rows = run_solver_compare(StudySpec(method=method, degree=degree, sizes=(4, 8),
                                        serial=True))
    assert all(r["converged"] == 1 for r in rows)
    assert len({id(f) for f in calls}) == n_forms
    assert len(calls) == n_forms


def test_package_all_lists_every_public_name():
    public = {name for name, value in vars(hybridfem).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert len(hybridfem.__all__) == len(set(hybridfem.__all__))
    assert set(hybridfem.__all__) == public


def test_ldgh_tau_one_error_unchanged():
    """LDG-H at tau = 1 keeps the error it had before the local
    conditioning guard and the single block recovery."""
    rows = run_convergence(StudySpec(method="ldgh", degree=1, tau=1.0, sizes=(4, 8)))
    assert rows[-1]["converged"] == 1
    assert rows[-1]["err_p"] == pytest.approx(0.01245605824867103, rel=1e-9)


def test_compiled_forms_keep_no_mesh_alive():
    """A solve's forms are compiled on the mesh they assemble; once the
    result and the mesh are dropped, nothing (no table memo) keeps the
    mesh alive."""
    import gc
    import weakref

    mesh = build_unit_square(4)
    ref = weakref.ref(mesh)
    res = solve_hybridizable(mesh, manufactured("sinsin"),
                             StudySpec(method="mixed-hybrid", degree=2))
    assert res.report.converged
    del res, mesh
    gc.collect()
    assert ref() is None
