import numpy as np
import pytest
import scipy.sparse as sp

from hybridfem.solvers import (
    INNER_PCS,
    Constraints,
    KrylovConfig,
    apply_bcs,
    exact_preconditioner,
    jacobi_preconditioner,
    krylov_solve,
    make_preconditioner,
    sparse_direct_solve,
)
from hybridfem.spaces import coarse_p1_map, p1_hierarchy


def random_spd(n, seed=0):
    rng = np.random.default_rng(seed)
    Q = rng.standard_normal((n, n))
    return Q @ Q.T + n * np.eye(n)


@pytest.mark.parametrize("method", ["cg", "fgmres"])
def test_identity_converges_in_one_iteration(method):
    b = np.arange(1.0, 6.0)
    x, rep = krylov_solve(sp.eye(5).tocsr(), b, KrylovConfig(method=method))
    np.testing.assert_allclose(x, b, atol=1e-12)
    assert rep.converged and rep.reason == "converged"
    assert rep.iterations == 1


@pytest.mark.parametrize("method", ["cg", "fgmres"])
def test_spd_system_matches_direct(method):
    A = sp.csr_matrix(random_spd(40, seed=7))
    b = np.random.default_rng(1).standard_normal(40)
    cfg = KrylovConfig(method=method, rtol=1e-10, maxiter=500)
    x, rep = krylov_solve(A, b, cfg)
    assert rep.converged
    np.testing.assert_allclose(x, np.linalg.solve(A.toarray(), b), atol=1e-7)


@pytest.mark.parametrize("method", ["cg", "fgmres"])
def test_exact_preconditioner_single_iteration(method):
    A = sp.csr_matrix(random_spd(30, seed=2))
    b = np.random.default_rng(5).standard_normal(30)
    cfg = KrylovConfig(method=method, rtol=1e-8,
                       preconditioner=exact_preconditioner(A))
    x, rep = krylov_solve(A, b, cfg)
    assert rep.converged
    assert rep.iterations == 1


def test_jacobi_accelerates_cg():
    rng = np.random.default_rng(11)
    d = np.concatenate([np.ones(20), 1e3 * np.ones(20)])
    A = sp.diags(d).tocsr()
    b = rng.standard_normal(40)
    plain = krylov_solve(A, b, KrylovConfig(method="cg", rtol=1e-10, maxiter=400))[1]
    prec = krylov_solve(
        A, b, KrylovConfig(method="cg", rtol=1e-10, maxiter=400,
                           preconditioner=jacobi_preconditioner(A))
    )[1]
    assert prec.converged
    assert prec.iterations <= plain.iterations
    assert prec.iterations == 1  # diagonal system: Jacobi is exact


def test_cg_residual_history_reaches_tolerance():
    A = sp.csr_matrix(random_spd(25, seed=9))
    b = np.ones(25)
    x, rep = krylov_solve(A, b, KrylovConfig(method="cg", rtol=1e-9, maxiter=200))
    assert rep.converged
    true_res = np.linalg.norm(b - A @ x) / np.linalg.norm(b)
    assert true_res <= 1e-9
    assert abs(true_res - rep.residual) < 1e-12


def test_nonconvergence_reported_not_raised():
    A = sp.csr_matrix(random_spd(50, seed=13))
    b = np.ones(50)
    x, rep = krylov_solve(A, b, KrylovConfig(method="cg", rtol=1e-14, maxiter=2))
    assert not rep.converged
    assert rep.reason == "maxiter"
    assert rep.iterations == 2


def test_cg_reports_indefinite_operator():
    A = sp.diags([1.0, -2.0, 3.0]).tocsr()
    x, rep = krylov_solve(A, np.ones(3), KrylovConfig(method="cg"))
    assert rep.reason == "indefinite"
    assert rep.converged is False


@pytest.mark.parametrize("method", ["fgmres"])
def test_gmres_reports_breakdown_on_singular_operator(method):
    """b has a component outside the range of A: the Krylov space becomes
    invariant before the residual reaches the tolerance."""
    A = sp.diags([1.0, 2.0, 0.0, 3.0]).tocsr()
    x, rep = krylov_solve(A, np.ones(4), KrylovConfig(method=method))
    assert rep.reason == "breakdown"
    assert rep.converged is False
    np.testing.assert_allclose(x[[0, 1, 3]], [1.0, 0.5, 1.0 / 3.0], atol=1e-12)
    assert abs(rep.residual - 0.5) < 1e-12


@pytest.mark.parametrize("method,bad", [
    ("cg", np.nan), ("cg", np.inf), ("fgmres", np.nan),
    # Gram-Schmidt forms inf - inf, which numpy warns of, before the norm is seen
    pytest.param("fgmres", np.inf,
                 marks=pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning"))])
def test_non_finite_operator_is_a_breakdown(method, bad):
    """One non-finite diagonal entry stops the iteration at its first
    non-finite product (CG's ``p . Ap``, FGMRES's Arnoldi column norm)
    with a breakdown, not after ``maxiter`` iterations or with an error
    from the least-squares solve."""
    d = np.linspace(1.0, 2.0, 20)
    d[7] = bad
    x, rep = krylov_solve(sp.diags(d).tocsr(), np.ones(20), KrylovConfig(method=method))
    assert rep.reason == "breakdown" and rep.converged is False
    assert rep.iterations == 0
    assert rep.residual == 1.0 and not x.any()


def test_gmres_restart_on_nonsymmetric():
    # mild nonnormal perturbation keeps the field of values positive, so
    # restarted GMRES must converge
    rng = np.random.default_rng(21)
    A = sp.csr_matrix(np.eye(30) + 0.1 * rng.standard_normal((30, 30)))
    b = rng.standard_normal(30)
    cfg = KrylovConfig(method="fgmres", rtol=1e-10, restart=10, maxiter=400)
    x, rep = krylov_solve(A, b, cfg)
    assert rep.converged
    assert rep.iterations > 10  # at least one restart happened
    np.testing.assert_allclose(x, np.linalg.solve(A.toarray(), b), atol=1e-6)


def test_initial_guess_respected():
    A = sp.csr_matrix(random_spd(15, seed=23))
    xexact = np.random.default_rng(3).standard_normal(15)
    b = A @ xexact
    x, rep = krylov_solve(A, b, KrylovConfig(method="fgmres", rtol=1e-12), x0=xexact)
    assert rep.iterations == 0
    np.testing.assert_allclose(x, xexact)


def test_sparse_direct_solve_oracle():
    A = sp.csr_matrix(random_spd(50, seed=29))
    b = np.random.default_rng(30).standard_normal(50)
    x = sparse_direct_solve(A, b)
    np.testing.assert_allclose(x, np.linalg.solve(A.toarray(), b), atol=1e-10)
    # diagonal matrix: entrywise division
    D = sp.diags(np.arange(1.0, 6.0)).tocsr()
    np.testing.assert_allclose(sparse_direct_solve(D, np.ones(5)),
                               1.0 / np.arange(1.0, 6.0))


def test_sparse_direct_singular_detected():
    A = sp.csr_matrix(np.array([[1.0, 1.0], [1.0, 1.0]]))
    with pytest.raises(RuntimeError):
        sparse_direct_solve(A, np.ones(2))


def test_apply_bcs_with_lift():
    A = sp.csr_matrix(random_spd(10, seed=31))
    b = np.random.default_rng(32).standard_normal(10)
    bcs = Constraints(np.array([2, 7]), np.array([1.5, -0.5]))
    Ab, bb = apply_bcs(A, b, bcs)
    x = sparse_direct_solve(Ab, bb)
    assert abs(x[2] - 1.5) < 1e-12 and abs(x[7] + 0.5) < 1e-12
    # free equations are satisfied against the original operator
    r = b - A @ x
    free = [i for i in range(10) if i not in (2, 7)]
    assert np.abs(r[free]).max() < 1e-10


def test_constraints_vectors():
    bcs = Constraints(np.array([1, 4]), np.array([2.0, -3.0]))
    np.testing.assert_array_equal(bcs.vector(6), [0.0, 2.0, 0.0, 0.0, -3.0, 0.0])
    b = np.arange(6.0)
    lift = np.full(6, 0.5)
    np.testing.assert_array_equal(bcs.rhs(b, lift), [-0.5, 2.0, 1.5, 2.5, -3.0, 4.5])
    out = bcs.rhs_homogeneous(b)
    assert out is b  # zeroed in place
    np.testing.assert_array_equal(b, [0.0, 0.0, 2.0, 3.0, 0.0, 5.0])
    assert len(Constraints()) == 0 and not Constraints()
    with pytest.raises(ValueError):
        bcs.dofs[0] = 0  # read-only


@pytest.mark.parametrize("dofs,values,match", [
    ([-2, 3], [0.0, 0.0], "dof -2 is negative"),
    ([1, 4, 4], [0.0, 1.0, 2.0], "dof 4 is repeated"),
    ([1, 5, 3], [0.0, 1.0, 2.0], "dof 3 is out of order"),
    ([2, 6], [0.0, np.nan], "dof 6 is not finite"),
    ([2, 6], [np.inf, 1.0], "dof 2 is not finite"),
    ([2, 6], [1.0], "one value each"),
    ([2.0, 6.0], [1.0, 1.0], "integer array"),
    ([[2, 6]], [[1.0, 1.0]], "1-d"),
])
def test_constraints_reject_bad_input(dofs, values, match):
    with pytest.raises(ValueError, match=match):
        Constraints(np.array(dofs), np.array(values))


def test_constraints_out_of_range_dof_is_named():
    bcs = Constraints(np.array([1, 9]), np.zeros(2))
    with pytest.raises(ValueError, match="dof 9 is out of range"):
        bcs.vector(9)
    with pytest.raises(ValueError, match="dof 9 is out of range"):
        apply_bcs(sp.eye(9).tocsr(), np.ones(9), bcs)


def test_apply_bcs_without_constraints_copies():
    A = sp.csr_matrix(random_spd(4, seed=3))
    b = np.ones(4)
    for bcs in (None, Constraints()):
        Ab, bb = apply_bcs(A, b, bcs)
        assert (Ab != A).nnz == 0
        np.testing.assert_array_equal(bb, b)
        assert bb is not b


def test_gmres_alias_is_rejected():
    with pytest.raises(ValueError, match="'fgmres'"):
        KrylovConfig(method="gmres")


def test_preconditioner_names_are_one_list():
    from hybridfem.cli import make_parser
    from hybridfem.study import StudySpec

    A = sp.csr_matrix(random_spd(4, seed=5))
    for name in INNER_PCS:
        StudySpec(inner_pc=name)
        if name != "multigrid":
            make_preconditioner(A, name)
    with pytest.raises(ValueError, match=", ".join(INNER_PCS)):
        make_preconditioner(A, "ilu")
    with pytest.raises(ValueError):
        StudySpec(inner_pc="ilu")
    for name in INNER_PCS:
        assert make_parser().parse_args(["converge", "--inner-pc", name]).inner_pc == name
    with pytest.raises(SystemExit):
        make_parser().parse_args(["converge", "--inner-pc", "ilu"])


def test_dimension_mismatch():
    A = sp.eye(4).tocsr()
    with pytest.raises(ValueError):
        krylov_solve(A, np.ones(5), KrylovConfig())


def test_config_validation():
    with pytest.raises(ValueError):
        KrylovConfig(rtol=2.0)
    with pytest.raises(ValueError):
        KrylovConfig(maxiter=0)
    with pytest.raises(ValueError):
        KrylovConfig(method="sor")


def test_cg_error_anorm_monotone():
    """The A-norm of the CG error never increases with the iteration count."""
    A = random_spd(20, seed=41)
    As = sp.csr_matrix(A)
    xexact = np.random.default_rng(42).standard_normal(20)
    b = A @ xexact
    prev = np.inf
    for its in range(1, 12):
        x, _ = krylov_solve(As, b, KrylovConfig(method="cg", rtol=1e-15,
                                                maxiter=its))
        e = x - xexact
        anorm = float(e @ (A @ e))
        assert anorm <= prev * (1 + 1e-12)
        prev = anorm


def test_gmres_residual_monotone_within_cycle():
    rng = np.random.default_rng(43)
    A = np.eye(25) + 0.2 * rng.standard_normal((25, 25))
    As = sp.csr_matrix(A)
    b = rng.standard_normal(25)
    prev = np.inf
    for its in range(1, 15):  # restart=50 > n: a single Arnoldi cycle
        x, rep = krylov_solve(As, b, KrylovConfig(method="fgmres", rtol=1e-15,
                                                  maxiter=its))
        res = np.linalg.norm(b - A @ x)
        assert res <= prev * (1 + 1e-10)
        prev = res


def test_iteration_counts_deterministic():
    A = sp.csr_matrix(random_spd(30, seed=44))
    b = np.random.default_rng(45).standard_normal(30)
    cfg = KrylovConfig(method="cg", rtol=1e-9, maxiter=200)
    reps = [krylov_solve(A, b, cfg)[1].iterations for _ in range(3)]
    assert reps[0] == reps[1] == reps[2]


@pytest.mark.parametrize("method", ["mixed-hybrid", "ldgh"])
@pytest.mark.parametrize("degree", [1, 2])
@pytest.mark.parametrize("mesh_kind", ["structured", "jittered"])
def test_exact_preconditioner_matches_direct_on_trace_operators(method, degree, mesh_kind):
    """The minimum-degree ordered factor solves the condensed trace
    operators as the default-ordered oracle does."""
    from hybridfem import build_jittered_square, build_unit_square
    from hybridfem.condensation import scpc_setup
    from hybridfem.problems import hybridized_mixed_system, ldgh_system, manufactured

    prob = manufactured("sinsin")
    if mesh_kind == "jittered":
        mesh = build_jittered_square(8, 0.2, 3)
    else:
        mesh = build_unit_square(8)
    if method == "mixed-hybrid":
        hs = hybridized_mixed_system(mesh, prob, degree)
    else:
        hs = ldgh_system(mesh, prob, degree, tau=1.0)
    S = scpc_setup(hs.a, hs.trace_bcs).S
    b = np.random.default_rng(31).standard_normal(S.shape[0])
    xd = sparse_direct_solve(S, b)
    x = exact_preconditioner(S)(b)
    assert np.linalg.norm(x - xd) <= 1e-12 * np.linalg.norm(xd)


@pytest.mark.parametrize("method", ["fgmres"])
def test_exact_preconditioner_pivots_on_nonsymmetric(method):
    """A nonsymmetric matrix whose diagonal is mostly structurally zero
    needs row pivoting; the exact preconditioner still inverts it."""
    n = 60
    rng = np.random.default_rng(37)
    B = sp.random(n, n, density=0.05, random_state=rng) + 5.0 * sp.eye(n)
    A = sp.csr_matrix(B)[np.roll(np.arange(n), 1)]
    assert np.count_nonzero(A.diagonal()) < n // 2
    assert abs(A - A.T).max() > 0.0
    b = rng.standard_normal(n)
    cfg = KrylovConfig(method=method, rtol=1e-10,
                       preconditioner=exact_preconditioner(A))
    x, rep = krylov_solve(A, b, cfg)
    assert rep.converged
    assert rep.iterations == 1
    np.testing.assert_allclose(x, np.linalg.solve(A.toarray(), b), rtol=1e-10, atol=1e-12)


def _two_level_system(method, degree, mesh):
    """The constrained system the study drivers solve and the space of its
    dofs: the condensed trace operator, or the primal CG matrix."""
    from hybridfem.condensation import scpc_setup
    from hybridfem.expressions import Tensor, assemble_global
    from hybridfem.problems import (hybridized_mixed_system, ldgh_system, manufactured,
                                    primal_cg_system)

    prob = manufactured("sinsin")
    if method == "cg-primal":
        ps = primal_cg_system(mesh, prob, degree)
        A, _ = apply_bcs(assemble_global(Tensor(ps.a)), np.zeros(ps.space.ndof_global),
                         ps.dirichlet_bcs)
        return A, ps.space
    if method == "mixed-hybrid":
        hs = hybridized_mixed_system(mesh, prob, degree)
    else:
        hs = ldgh_system(mesh, prob, degree, tau=1.0)
    return scpc_setup(hs.a, hs.trace_bcs).S, hs.trace_space


def _two_level_iterations(method, degree, mesh):
    A, space = _two_level_system(method, degree, mesh)
    pc = make_preconditioner(A, "multigrid", p1_hierarchy(space))
    b = np.random.default_rng(3).standard_normal(A.shape[0])
    _, rep = krylov_solve(A, b, KrylovConfig(rtol=1e-8, preconditioner=pc))
    assert rep.converged
    return rep.iterations


@pytest.mark.parametrize("method,degree", [("mixed-hybrid", 1), ("mixed-hybrid", 2),
                                           ("mixed-hybrid", 3), ("ldgh", 1), ("ldgh", 3),
                                           ("cg-primal", 1), ("cg-primal", 2), ("cg-primal", 3)])
@pytest.mark.parametrize("mesh_kind", ["structured", "jittered"])
def test_twolevel_iterations_do_not_grow_with_n(method, degree, mesh_kind):
    """With the continuous P1 coarse spaces (the n=64 trace hierarchies
    have two levels below the mesh), CG iterations on n=64 stay within 1.2x those on n=8
    (Jacobi alone roughly doubles them with each refinement).  LDG-H k=3
    has rows where Jacobi weighted by 0.6 alone would not contract."""
    from hybridfem import build_jittered_square, build_unit_square

    build = build_unit_square if mesh_kind == "structured" else (
        lambda n: build_jittered_square(n, 0.2, 3))
    coarse, fine = (_two_level_iterations(method, degree, build(n)) for n in (8, 64))
    assert fine <= 1.2 * coarse


@pytest.mark.parametrize("method,degree", [("mixed-hybrid", 1), ("ldgh", 2), ("cg-primal", 2),
                                           ("mixed-hybrid", 3), ("ldgh", 3), ("cg-primal", 3)])
@pytest.mark.parametrize("neumann", [False, True])
def test_twolevel_preconditioner_is_spd(method, degree, neumann, monkeypatch):
    """The dense matrix of the preconditioner is symmetric with positive
    eigenvalues, with Dirichlet boundaries (whose coarse vertices are
    dropped) and with a Neumann side (whose vertices are kept), on one
    coarse level (n=5) and on two or more (n=9, ``COARSEST_VERTICES``
    patched to 10)."""
    from hybridfem import build_jittered_square, spaces
    from hybridfem.mesh import DIRICHLET, NEUMANN, mark_boundary

    for n, coarsest in ((5, spaces.COARSEST_VERTICES), (9, 10)):
        monkeypatch.setattr(spaces, "COARSEST_VERTICES", coarsest)
        mesh = build_jittered_square(n, 0.2, 3)
        if neumann:
            mesh = mark_boundary(mesh, lambda x, y: NEUMANN if x < 1e-12 else DIRICHLET)
        A, space = _two_level_system(method, degree, mesh)
        maps = p1_hierarchy(space)
        assert (len(maps) >= 2) == (n == 9)
        pc = make_preconditioner(A, "multigrid", maps)
        M = np.column_stack([pc(e) for e in np.eye(A.shape[0])])
        assert np.abs(M - M.T).max() <= 1e-12 * np.abs(M).max()
        assert np.linalg.eigvalsh(0.5 * (M + M.T)).min() > 0.0
        jacobi = np.diag(1.0 / A.diagonal())
        assert np.abs(M - jacobi).max() > 0.0  # the coarse term is present


@pytest.mark.parametrize("family", ["Trace0", "Trace1", "Trace2", "CG1", "CG2"])
@pytest.mark.parametrize("n", [4, 5])
def test_coarse_p1_map_has_full_column_rank(family, n):
    """Every coarse vertex function reaches some dof and no two coincide,
    on even and odd jittered meshes with a Neumann side; the CG map
    reproduces P1 functions at the fine nodes."""
    from hybridfem import CG, Trace, build_jittered_square, create_space, interpolate
    from hybridfem.mesh import DIRICHLET, NEUMANN, mark_boundary

    mesh = mark_boundary(build_jittered_square(n, 0.2, 3),
                         lambda x, y: NEUMANN if y < 1e-12 else DIRICHLET)
    kind, k = family[:-1], int(family[-1])
    space = create_space(mesh, (CG if kind == "CG" else Trace)(k))
    P = coarse_p1_map(space).toarray()
    n_coarse = mesh.n_vertices if kind == "Trace" else (n // 2 + 1) ** 2
    assert P.shape == (space.ndof_global, n_coarse)
    assert np.linalg.matrix_rank(P) == n_coarse
    np.testing.assert_allclose(P.sum(axis=1), 1.0, atol=1e-14)  # constants reproduced
    if kind == "CG":
        m = n // 2
        xc, yc = np.divmod(np.arange(n_coarse), m + 1)[::-1]
        linear = lambda x, y: 1.0 + 2.0 * x - 3.0 * y
        np.testing.assert_allclose(P @ linear(xc / m, yc / m),
                                   interpolate(space, linear).coeffs, atol=1e-13)


@pytest.mark.parametrize("family", ["Trace1", "CG2"])
@pytest.mark.parametrize("n", [17, 18])
def test_p1_hierarchy_halves_the_grid_down_to_the_coarsest_size(family, n, monkeypatch):
    """Each map after the first takes P1 on one grid to P1 on half of it,
    reproducing linear functions at the finer level's vertices (the
    jittered mesh's own, for a Trace space), and the last level is the
    first with at most ``COARSEST_VERTICES`` vertices."""
    from hybridfem import CG, Trace, build_jittered_square, create_space, spaces

    monkeypatch.setattr(spaces, "COARSEST_VERTICES", 30)
    mesh = build_jittered_square(n, 0.2, 3)
    space = create_space(mesh, (CG if family[:-1] == "CG" else Trace)(int(family[-1])))
    maps = p1_hierarchy(space)
    sizes = [P.shape[1] for P in maps]
    assert sizes[-1] <= 30 < min(sizes[:-1])
    linear = lambda x, y: 1.0 + 2.0 * x - 3.0 * y
    pts = mesh.vertex_coords if family == "Trace1" else None
    for P in maps[1:]:
        m = int(np.sqrt(P.shape[1])) - 1
        if pts is None:  # the CG space's first level: the n // 2 grid
            g = int(np.sqrt(P.shape[0])) - 1
            pts = np.column_stack(np.divmod(np.arange((g + 1) ** 2), g + 1)[::-1]) / g
        xc, yc = np.divmod(np.arange(P.shape[1]), m + 1)[::-1]
        np.testing.assert_allclose(P @ linear(xc / m, yc / m), linear(*pts.T), atol=1e-13)
        pts = np.column_stack([xc, yc]) / m


@pytest.mark.parametrize("method,n", [("cg-primal", 1), ("cg-primal", 2), ("mixed-hybrid", 1)])
def test_twolevel_without_free_coarse_vertex_is_jacobi(method, n, monkeypatch):
    """n <= 2 leaves no coarse vertex off the Dirichlet boundary: the
    preconditioner is the Jacobi term alone and factors nothing."""
    from hybridfem import build_unit_square, solvers

    A, space = _two_level_system(method, 1, build_unit_square(n))

    def no_factor(*args, **kwargs):
        raise AssertionError("an empty coarse operator was factored")

    monkeypatch.setattr(solvers.spla, "splu", no_factor)
    r = np.random.default_rng(4).standard_normal(A.shape[0])
    pc = make_preconditioner(A, "multigrid", p1_hierarchy(space))
    np.testing.assert_array_equal(pc(r), jacobi_preconditioner(A)(r))


def test_twolevel_requires_coarse_map():
    with pytest.raises(ValueError, match="coarse map"):
        make_preconditioner(sp.eye(3).tocsr(), "multigrid")


def test_twolevel_singular_coarse_operator_raises():
    """Two equal coarse columns make the coarse operator singular; the
    error names the stage and the coarse size."""
    A = sp.diags([-np.ones(4), 2.0 * np.ones(5), -np.ones(4)], [-1, 0, 1]).tocsr()
    P = sp.csr_matrix(np.repeat(np.eye(5)[:, :1], 2, axis=1))
    with pytest.raises(RuntimeError, match=r"multigrid coarse operator \(2 x 2\)"):
        make_preconditioner(A, "multigrid", [P])


def test_multigrid_singular_coarsest_operator_raises():
    """Two equal columns in the deepest map make the coarsest operator
    singular; the error names the multigrid stage and the coarsest size."""
    A = sp.diags([-np.ones(4), 2.0 * np.ones(5), -np.ones(4)], [-1, 0, 1]).tocsr()
    maps = [sp.csr_matrix(np.eye(5)[:, :3]), sp.csr_matrix(np.repeat(np.eye(3)[:, :1], 2, axis=1))]
    with pytest.raises(RuntimeError, match=r"multigrid coarse operator \(2 x 2\)"):
        make_preconditioner(A, "multigrid", maps)


def test_multigrid_preconditioner_is_freed_without_the_cyclic_gc(monkeypatch):
    """The cycle holds no reference to itself, so dropping the last
    reference frees the hierarchy at once."""
    import gc
    import weakref

    from hybridfem import build_unit_square, spaces

    monkeypatch.setattr(spaces, "COARSEST_VERTICES", 10)
    A, space = _two_level_system("cg-primal", 1, build_unit_square(8))
    maps = p1_hierarchy(space)
    assert len(maps) == 2
    gc.disable()
    try:
        pc = make_preconditioner(A, "multigrid", maps)
        ref = weakref.ref(pc)
        del pc
        assert ref() is None
    finally:
        gc.enable()


def _numpy_cg(A, b, x0, M, rtol, maxiter):
    """Preconditioned CG written with numpy temporaries, as the solver's
    loop was before its in-place BLAS-1 updates: the oracle of that loop."""
    x = x0.copy()
    r = b - A @ x
    bnorm = np.linalg.norm(b)
    z = M(r)
    p = z.copy()
    rz = r @ z
    for it in range(1, maxiter + 1):
        Ap = A @ p
        alpha = rz / (p @ Ap)
        x += alpha * p
        r -= alpha * Ap
        if np.linalg.norm(r) / bnorm <= rtol:
            return x, it
        z = M(r)
        rz_new = r @ z
        p = z + (rz_new / rz) * p
        rz = rz_new
    return x, maxiter


def _caching_jacobi(A):
    """A Jacobi preconditioner that returns the array it cached for an
    input it has seen, and its cache of (input, output) pairs."""
    dinv, cache = 1.0 / A.diagonal(), {}

    def pc(r):
        key = r.tobytes()
        if key not in cache:
            cache[key] = (r.copy(), dinv * r)
        return cache[key][1]
    return pc, cache


@pytest.mark.parametrize("pc_name", ["none", "jacobi", "multigrid", "exact", "cached"])
def test_in_place_cg_matches_numpy_loop_and_writes_no_input(pc_name):
    """CG's in-place updates leave ``b``, ``x0`` and every array a
    preconditioner returned (here one kept in its cache) as they were,
    and take the iterations of the numpy-temporary loop to a solution
    equal to 1e-12 relative on a mixed-hybrid k=1 trace operator."""
    from hybridfem import build_unit_square

    A, space = _two_level_system("mixed-hybrid", 1, build_unit_square(8))
    rng = np.random.default_rng(17)
    b, x0 = rng.standard_normal(A.shape[0]), 1e-3 * rng.standard_normal(A.shape[0])
    b_in, x0_in = b.copy(), x0.copy()
    if pc_name == "cached":
        pc, cache = _caching_jacobi(A)
    else:
        pc = make_preconditioner(A, pc_name, p1_hierarchy(space))
    x, rep = krylov_solve(A, b, KrylovConfig(rtol=1e-10, maxiter=1000, preconditioner=pc), x0=x0)
    assert rep.converged
    assert np.array_equal(b, b_in) and np.array_equal(x0, x0_in)
    if pc_name == "cached":
        assert all(np.array_equal(z, (1.0 / A.diagonal()) * r) for r, z in cache.values())
    x_ref, its = _numpy_cg(A, b, x0, pc or (lambda v: v), 1e-10, 1000)
    assert rep.iterations == its
    assert np.linalg.norm(x - x_ref) <= 1e-12 * np.linalg.norm(x_ref)
