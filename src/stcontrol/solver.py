"""Coupled optimality system for the energy-regularized control problem.

With A the state form matrix, K the kappa-weighted spatial stiffness and M
the mass matrix, the discrete first-order optimality conditions couple the
state u and the scaled adjoint p through

    [ A   (1/eta) K ] [u]   [ 0 ]
    [ M      -A^T   ] [p] = [b_d],

where b_d is the load of the desired state against the second test space.
By default trial and test spaces are both U x U (state space for both
fields); the theoretical pairing with the adjoint in W is available through
``adjoint_space="W"``.  The discrete control is recovered from the adjoint
via the Riesz relation z_f = -p / eta.

The first block row gives p = -eta K^{-1} A u.  Substituting it leaves the
SPD state system (M + eta A^T K^{-1} A) u = b_d, solved by preconditioned CG
with the Schur complement applied matrix-free through one factorization of
K.  No 2N x 2N matrix is built or factored; the full coupled residual is
checked once at the end.  Every strip triangle has one vertex alone on its
time line, whose dx gradient is exactly 0, so K only couples neighbours on
one time line: it is assembled as its two bands, the diagonal and
superdiagonal of a linalg.Tridiagonal in the mesh's vertex order, and its
cyclic reduction factor (linalg.factorize) holds N pivots and the
couplings of every level: K's own N - 1 off-diagonal entries and about N
more.  The preconditioner is the time-line blocks of M + eta K, read off
the diagonals and superdiagonals of M and K, a Tridiagonal with a factor
of the same size.  A and M share one
padded-row pattern, so each CG step gathers its vector once for A v and
M v (linalg.matvecs), and A^T is formed once per solve.  The whole solve runs
on numpy alone.  On meshes of at least FORK_LOAD_TRIANGLES triangles the
load b_d is assembled in a forked child (``_fork.run``) beside the
pattern, A, M and K, which it does not read; the child runs element-wise
numpy work only, no BLAS routine and nothing that takes a lock another
thread may hold, and its b_d is bitwise the in-process one.
CG needs about 20 iterations while eta is of order h^2 or smaller (both
presets use eta = 1e-6); for eta >> h^2 the count grows like 1/h.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from . import _fork, fem, linalg
from .errors import SolverError
from .mesh import SpaceTimeMesh
from .problem import ProblemSpec, desired_state_function

__all__ = [
    "BlockSystem",
    "DiscreteSolution",
    "build_block_system",
    "solve_optimality",
    "recover_control_riesz",
    "solve_riesz",
]

CG_RTOL = 1e-12
CG_MAX_ITERATIONS = 2000
# The fewest triangles on which build_block_system forks the load: the
# fork and the pipe cost more than the overlap gains at 80 layers (12,928
# triangles) and less at 100 (20,160).
FORK_LOAD_TRIANGLES = 16384


@dataclasses.dataclass
class BlockSystem:
    """Blocks of the coupled operator, the load b_d of its second row and
    the ``fem.constrained`` masks of the state and adjoint spaces."""

    b_d: np.ndarray
    state_matrix: linalg.SparseMatrix
    stiffness: linalg.Tridiagonal
    mass: linalg.SparseMatrix
    eta: float
    state_dofs: np.ndarray
    adjoint_dofs: np.ndarray


@dataclasses.dataclass
class DiscreteSolution:
    """Nodal state/adjoint vectors with the solve's relative residual, CG
    iteration count and the summed ``lu.nnz`` of the cyclic reduction
    factors it used, K and the time-line blocks of M + eta K: 2 (2N - 1), or
    0 when zero data skips the solve."""

    u: np.ndarray
    p: np.ndarray
    residual: float
    iterations: int
    factor_nnz: int


def build_block_system(mesh: SpaceTimeMesh, spec: ProblemSpec,
                       adjoint_space: str = "U",
                       quad_subdiv: int = 1, *, geometry=None) -> BlockSystem:
    """The blocks and load of the coupled system, the load forked beside
    the matrices on large meshes (see the module docstring); an error of
    the load is raised in place of any error of the matrices, as when it
    runs first in-process.  ``geometry`` is ``fem.triangle_geometry(mesh)``,
    computed when not given."""
    dofs_u = fem.constrained(mesh, "U")
    dofs_p = fem.constrained(mesh, adjoint_space)
    geometry = fem._geometry(mesh, geometry)

    def load():
        return fem.assemble_load(mesh, desired_state_function(spec), dofs=dofs_u,
                                 subdiv=quad_subdiv, geometry=geometry)

    def matrices():
        # One pattern for A and M, dropped before K, which does not read it.
        pattern = fem.sparsity_pattern(mesh)
        # Block rows: first tested against the adjoint space, second against
        # the state space; trial columns are (u in U, p in adjoint space).
        A = fem.assemble_state_matrix(mesh, spec, dofs=dofs_u, row_dofs=dofs_p,
                                      geometry=geometry, pattern=pattern)
        M = fem.assemble_mass(mesh, dofs=dofs_u, geometry=geometry, pattern=pattern)
        del pattern
        return A, M, fem.assemble_spatial_stiffness(mesh, spec, dofs=dofs_p, geometry=geometry)

    # One geometry for all four assemblers.  Below the threshold the load
    # runs first, so its temporaries are gone before the pattern exists; the
    # geometry dies with this frame unless the caller holds it.
    forked = mesh.num_triangles >= FORK_LOAD_TRIANGLES
    b_d, (A, M, K) = _fork.run([("load assembly" if forked else None, load),
                                (None, matrices)])

    return BlockSystem(
        b_d=b_d,
        state_matrix=A,
        stiffness=K,
        mass=M,
        eta=spec.eta,
        state_dofs=dofs_u,
        adjoint_dofs=dofs_p,
    )


def _preconditioner(system: BlockSystem, times: np.ndarray) -> linalg.Tridiagonal:
    """The time-line blocks of M + eta K, with K restricted to the state's
    free dofs.  Only the diagonal and superdiagonal are kept, and in them
    only the entries joining vertices with equal ``times``, leaving one SPD
    tridiagonal block per time line: the pattern of K, factored in O(N).
    Constrained state dofs stay decoupled, so CG keeps them exactly zero on
    any mesh; with the adjoint in W, K itself does not constrain the
    initial line."""
    free = ~system.state_dofs
    M, K, eta = system.mass, system.stiffness, system.eta
    diag = M.diagonal() + eta * np.where(free, K.diag, 0.0)
    off = M.diagonal(1) + eta * np.where(free[:-1] & free[1:], K.off, 0.0)
    off[times[:-1] != times[1:]] = 0.0
    return linalg.Tridiagonal(diag, off)


def solve_optimality(mesh: SpaceTimeMesh, spec: ProblemSpec,
                     adjoint_space: str = "U",
                     quad_subdiv: int = 1, *, geometry=None) -> DiscreteSolution:
    """Assemble and solve the coupled system through its state Schur
    complement; raises SolverError when CG fails or the coupled relative
    residual exceeds linalg.RESIDUAL_LIMIT.

    The triangles must be in ``build_mesh``'s strip order, or the load's
    ``mesh.strips`` raises ValueError, and each time
    line's vertices numbered consecutively in x order, so that K and the
    preconditioner are tridiagonal; another numbering raises ValueError
    from fem.assemble_spatial_stiffness.  ``geometry`` is
    ``fem.triangle_geometry(mesh)``, computed when not given."""
    system = build_block_system(mesh, spec, adjoint_space, quad_subdiv,
                                geometry=geometry)
    n = mesh.num_vertices
    b_d = system.b_d
    if not np.any(b_d):
        return DiscreteSolution(u=np.zeros(n), p=np.zeros(n), residual=0.0,
                                iterations=0, factor_nnz=0)

    A, K, M, eta = system.state_matrix, system.stiffness, system.mass, system.eta
    lu_k = linalg.factorize(K).lu
    lu_p = linalg.factorize(_preconditioner(system, mesh.vertices[:, 1])).lu
    solve_k, solve_p = lu_k.solve, lu_p.solve

    def schur(v):
        av, mv = linalg.matvecs((A, M), v)
        return mv + eta * (A.T @ solve_k(av))

    u, iterations = linalg.pcg(schur, b_d, solve_p, CG_RTOL, CG_MAX_ITERATIONS)
    au, mu = linalg.matvecs((A, M), u)
    p = -eta * solve_k(au)

    r_state = au + (K @ p) / eta
    r_adjoint = mu - A.T @ p - b_d
    residual = float(np.hypot(np.linalg.norm(r_state), np.linalg.norm(r_adjoint))
                     / np.linalg.norm(b_d))
    if not residual <= linalg.RESIDUAL_LIMIT:
        raise SolverError(
            f"coupled relative residual {residual:.3e} exceeds "
            f"{linalg.RESIDUAL_LIMIT:.1e} after {iterations} CG iterations"
        )
    return DiscreteSolution(u=u, p=p, residual=residual, iterations=iterations,
                            factor_nnz=int(lu_k.nnz + lu_p.nnz))


def recover_control_riesz(solution: DiscreteSolution, spec: ProblemSpec) -> np.ndarray:
    """Riesz representative of the optimal control: z_f = -p / eta."""
    return -solution.p / spec.eta


def solve_riesz(mesh: SpaceTimeMesh, spec: ProblemSpec, rhs: np.ndarray, *,
                geometry=None) -> np.ndarray:
    """Solve the discrete Riesz problem in W: (kappa_h dx z, dx zeta) =
    rhs[zeta].  ``rhs`` must already be zeroed on constrained entries, and
    the mesh numbered as ``solve_optimality`` requires.  ``geometry`` is
    ``fem.triangle_geometry(mesh)``, computed when not given."""
    K = fem.assemble_spatial_stiffness(mesh, spec, dofs=fem.constrained(mesh, "W"),
                                       geometry=geometry)
    fact = linalg.factorize(K)
    z, _ = linalg.solve(fact, rhs)
    return z
