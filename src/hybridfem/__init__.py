"""hybridfem: hybridized finite element methods on triangles.

A small numpy/scipy library for mixed and hybridizable discretizations
of second-order elliptic problems on the unit square, built around an
expression language for element-local dense linear algebra: static
condensation, hybridization of H(div) x L2 mixed methods, LDG-H, local
recovery, and superconvergent post-processing.
"""

from .mesh import (
    DIRICHLET,
    NEUMANN,
    Mesh,
    build_jittered_square,
    build_unit_square,
    cell_geometry,
    mark_boundary,
)
from .spaces import (
    CG,
    DG,
    RT,
    Trace,
    VectorDG,
    ElementFamily,
    Function,
    FunctionSpace,
    MixedSpace,
    break_space,
    broken_transfer,
    create_space,
    inject_broken,
    interpolate,
    project_div,
    transfer_residual,
    zero_function,
)
from .reference import quadrature
from .forms import FormIR, IntegralTerm, ScalarField, assemble_form, assemble_local, estimate_degree
from .expressions import (
    AssembledVector,
    Tensor,
    assemble_global,
    compile_expr,
    evaluate_all,
    naive_evaluate,
)
from .solvers import (
    KrylovConfig,
    SolveReport,
    apply_bcs,
    krylov_solve,
    sparse_direct_solve,
)
from .condensation import (
    FieldSplit,
    hybridization_apply,
    hybridization_setup,
    scpc_apply,
    scpc_setup,
)
from .postprocess import flux_pp, scalar_pp
from .problems import hybridize, manufactured
from .study import StudySpec, l2_error, run_convergence, run_solver_compare

__all__ = [
    "DIRICHLET",
    "NEUMANN",
    "Mesh",
    "build_jittered_square",
    "build_unit_square",
    "cell_geometry",
    "mark_boundary",
    "CG",
    "DG",
    "RT",
    "Trace",
    "VectorDG",
    "ElementFamily",
    "Function",
    "FunctionSpace",
    "MixedSpace",
    "break_space",
    "broken_transfer",
    "create_space",
    "inject_broken",
    "interpolate",
    "project_div",
    "transfer_residual",
    "zero_function",
    "quadrature",
    "FormIR",
    "IntegralTerm",
    "ScalarField",
    "assemble_form",
    "assemble_local",
    "estimate_degree",
    "AssembledVector",
    "Tensor",
    "assemble_global",
    "compile_expr",
    "evaluate_all",
    "naive_evaluate",
    "KrylovConfig",
    "SolveReport",
    "apply_bcs",
    "krylov_solve",
    "sparse_direct_solve",
    "FieldSplit",
    "hybridization_apply",
    "hybridization_setup",
    "scpc_apply",
    "scpc_setup",
    "flux_pp",
    "scalar_pp",
    "hybridize",
    "manufactured",
    "StudySpec",
    "l2_error",
    "run_convergence",
    "run_solver_compare",
]
