import numpy as np
import pytest

from hybridfem import DG, RT, Function, build_unit_square, create_space, interpolate
from hybridfem.cli import main, make_parser
from hybridfem.io_vtk import export_fields, write_mesh_vtk
from hybridfem.problems import manufactured
from hybridfem.spaces import eval_function
from hybridfem.study import StudySpec, solve_hybridizable, solve_primal
from support import read_vtk


def test_mesh_dump_roundtrip(tmp_path):
    mesh = build_unit_square(2)
    path = tmp_path / "mesh.vtk"
    write_mesh_vtk(str(path), mesh)
    data = read_vtk(str(path))
    np.testing.assert_allclose(data["points"][:, :2], mesh.vertex_coords)
    np.testing.assert_array_equal(data["cells"], mesh.cell_vertices)


def test_export_dg0_ones(tmp_path):
    mesh = build_unit_square(3)
    V = create_space(mesh, DG(0))
    ones = Function(V, np.ones(V.ndof_global))
    path = tmp_path / "ones.vtk"
    export_fields(str(path), [("field", ones)])
    data = read_vtk(str(path))
    np.testing.assert_allclose(data["cell_data"]["field"], 1.0)
    assert len(data["cell_data"]["field"]) == mesh.n_cells


def test_export_roundtrip_values(tmp_path):
    mesh = build_unit_square(2)
    V = create_space(mesh, DG(1))
    fn = interpolate(V, lambda x, y: x - 2 * y)
    U = create_space(mesh, RT(1))
    # (1 + x/2, 2 + y/2) lies in the lowest-order RT space
    uf = interpolate(U, lambda x, y: np.stack([1 + 0.5 * x, 2 + 0.5 * y], axis=-1))
    path = tmp_path / "f.vtk"
    export_fields(str(path), [("p", fn), ("u", uf)])
    data = read_vtk(str(path))
    # centroid values of the linear field
    geo = mesh.geometry()
    cent = geo.origins + np.einsum("cij,j->ci", geo.jacobians,
                                   np.array([1 / 3, 1 / 3]))
    np.testing.assert_allclose(data["cell_data"]["p"],
                               cent[:, 0] - 2 * cent[:, 1], atol=1e-11)
    np.testing.assert_allclose(data["cell_data"]["u"][:, 0],
                               1 + 0.5 * cent[:, 0], atol=1e-11)
    np.testing.assert_allclose(data["cell_data"]["u"][:, 1],
                               2 + 0.5 * cent[:, 1], atol=1e-11)
    # identical bytes on re-export
    path2 = tmp_path / "g.vtk"
    export_fields(str(path2), [("p", fn), ("u", uf)])
    assert path.read_bytes() == path2.read_bytes()


def test_export_empty_rejected(tmp_path):
    with pytest.raises(ValueError):
        export_fields(str(tmp_path / "x.vtk"), [])


def test_cli_converge_csv(tmp_path):
    out = tmp_path / "conv.csv"
    rc = main(["converge", "--method", "mixed-hybrid", "--degree", "1",
               "--sizes", "2,4", "--inner-pc", "exact", "--serial",
               "--csv", str(out)])
    assert rc == 0
    text = out.read_text(encoding="utf-8")
    assert text.startswith("method,problem,degree,tau,n,h,cells")
    assert len(text.strip().split("\n")) == 3


def test_cli_serial_bit_identical(tmp_path):
    args = ["converge", "--method", "ldgh", "--degree", "1", "--sizes", "2,4",
            "--inner-pc", "exact", "--serial"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    main(args + ["--csv", str(a)])
    main(args + ["--csv", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_cli_twolevel_serial_bit_identical(tmp_path):
    args = ["converge", "--method", "cg-primal", "--degree", "1", "--sizes", "4,8",
            "--inner-pc", "multigrid", "--serial"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    main(args + ["--csv", str(a)])
    main(args + ["--csv", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_cli_multigrid_serial_bit_identical(tmp_path):
    args = ["converge", "--method", "mixed-hybrid", "--degree", "1", "--sizes", "4,8",
            "--inner-pc", "multigrid", "--serial"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    main(args + ["--csv", str(a)])
    main(args + ["--csv", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_cli_inner_pc_default_is_the_library_default():
    assert make_parser().parse_args(["converge"]).inner_pc == StudySpec.inner_pc == "multigrid"


def test_cli_single_size_rejected():
    with pytest.raises(ValueError):
        main(["converge", "--sizes", "4", "--serial"])


def test_cli_compare(tmp_path):
    out = tmp_path / "cmp.csv"
    rc = main(["compare", "--method", "mixed-hybrid", "--sizes", "2,4",
               "--inner-pc", "exact", "--serial", "--csv", str(out)])
    assert rc == 0
    lines = out.read_text(encoding="utf-8").strip().split("\n")
    assert len(lines) == 7


def test_cli_export(tmp_path):
    out = tmp_path / "f.vtk"
    rc = main(["export", "--method", "mixed-hybrid", "--degree", "1",
               "--size", "2", "--inner-pc", "exact", "--vtk", str(out)])
    assert rc == 0
    data = read_vtk(str(out))
    assert "p" in data["cell_data"]
    assert "p_star" in data["cell_data"]
    assert "u" in data["cell_data"]


@pytest.mark.parametrize("method", ["ldgh", "cg-primal"])
def test_cli_export_roundtrip(tmp_path, method):
    """``hybridfem export`` writes what a solve with the same options
    gives: LDG-H's four fields as cell data at centroids, ``u_star``
    included, and the CG scalar as point data at the vertices."""
    out = tmp_path / "fields.vtk"
    assert main(["export", "--method", method, "--size", "4", "--vtk", str(out)]) == 0
    data = read_vtk(str(out))
    mesh = build_unit_square(4)
    spec = StudySpec(method=method, sizes=(4, 5))
    np.testing.assert_allclose(data["points"][:, :2], mesh.vertex_coords, rtol=1e-12)
    if method == "cg-primal":
        p = solve_primal(mesh, manufactured("sinsin"), spec).p
        assert set(data["point_data"]) == {"p"} and not data["cell_data"]
        np.testing.assert_allclose(data["point_data"]["p"], p.coeffs[:mesh.n_vertices],
                                   rtol=1e-11, atol=1e-14)
        return
    res = solve_hybridizable(mesh, manufactured("sinsin"), spec)
    assert set(data["cell_data"]) == {"p", "p_star", "u", "u_star"} and not data["point_data"]
    for name in ("p", "p_star", "u", "u_star"):
        want = eval_function(getattr(res, name), np.array([[1 / 3, 1 / 3]]))[:, 0]
        got = data["cell_data"][name]
        if want.ndim == 2:  # a vector field is written with a zero third component
            assert (got[:, 2] == 0.0).all()
            got = got[:, :2]
        np.testing.assert_allclose(got, want, rtol=1e-11, atol=1e-14, err_msg=name)
