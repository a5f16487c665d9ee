"""hybridfem: hybridized finite element methods on triangles.

A small numpy/scipy library for mixed and hybridizable discretizations
of second-order elliptic problems on the unit square, built around an
expression language for element-local dense linear algebra: static
condensation, hybridization of H(div) x L2 mixed methods, LDG-H, local
recovery, and superconvergent post-processing.
"""

from types import ModuleType as _ModuleType

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
    interpolate,
    project_div,
    transfer_residual,
)
from .reference import quadrature
from .forms import FormIR, IntegralTerm, ScalarField, assemble_form, assemble_local
from .expressions import (
    AssembledVector,
    Tensor,
    assemble_global,
    compile_expr,
    evaluate_all,
    naive_evaluate,
)
from .solvers import (
    Constraints,
    KrylovConfig,
    SolveReport,
    apply_bcs,
    krylov_solve,
    sparse_direct_solve,
)
from .condensation import hybridization_apply, hybridization_setup, scpc_apply, scpc_setup
from .postprocess import flux_pp, scalar_pp
from .problems import hybridize, manufactured
from .study import StudySpec, l2_error, run_convergence, run_solver_compare

# every public name imported above, and nothing else
__all__ = [name for name, value in globals().items()
           if not name.startswith("_") and not isinstance(value, _ModuleType)]
