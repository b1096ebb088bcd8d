"""Space-time interface-fitted FEM for parabolic optimal control.

Solves an energy-regularized tracking problem for a 1d heat equation whose
diffusion coefficient jumps across a moving interface, by meshing the whole
space-time cylinder with interface-fitted triangles and solving the coupled
state-adjoint optimality system in one shot.
"""

from .errors import (
    ConfigError,
    GeometryError,
    MeshFormatError,
    MeshingError,
    PointLocationError,
    SingularMatrixError,
    SolverError,
)
from .fem import (
    DofMap,
    QuadratureRule,
    adjoint_dofmap,
    assemble_load,
    assemble_mass,
    assemble_spatial_stiffness,
    assemble_state_matrix,
    assemble_time_weighted_load,
    element_gradients,
    lagrange_interpolate,
    rule_degree2,
    rule_degree5,
    state_dofmap,
    subdivided_rule,
    triangle_geometry,
)
from .linalg import Factorization, SolveResult, factorize, solve
from .mesh import (
    MeshReport,
    SpaceTimeMesh,
    build_mesh,
    read_mesh,
    validate_mesh,
    write_mesh,
)
from .metrics import (
    ConvergenceReport,
    PointLocator,
    compute_eoc,
    energy_error,
    reference_error,
    star_norm,
    triple_norm,
)
from .problem import (
    PiecewiseField,
    ProblemSpec,
    Velocity,
    classify_point,
    derive_desired_state,
    desired_state_function,
    displacement,
    example1_moving,
    example1_static,
    velocity_sine,
    velocity_tabulated,
    velocity_zero,
)
from .solver import (
    BlockSystem,
    DiscreteSolution,
    build_block_system,
    recover_control_riesz,
    solve_optimality,
    solve_riesz,
)

__version__ = "0.1.0"
