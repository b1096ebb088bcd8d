"""Invariant checks shared by ``stcontrol selftest`` and the test suite.

Each check returns its measured defect, at most zero or at rounding level
when the invariant holds; the callers hold the bounds.  Checks that draw
random vectors take the generator, so the caller fixes the draw order.
"""

import math
import os
import tempfile

import numpy as np

from . import fem, metrics, solver
from . import mesh as meshmod
from . import problem as probmod


def zero_data_spec() -> probmod.ProblemSpec:
    """A moving-interface problem whose desired state is zero everywhere."""
    def zeros(x, t):
        return np.zeros_like(np.asarray(x, dtype=float))

    return probmod.ProblemSpec(
        x_min=0.0, x_max=1.0, t_final=1.0, kappa1=0.5, kappa2=1.0, eta=1e-6,
        velocity=probmod.velocity_sine(), offset_a=0.4, offset_b=0.6,
        desired_state=zeros, name="zero-data",
    )


def quadrature_defect() -> float:
    """Largest error of the rules on the monomials x^p t^q up to their degree
    over the triangle (0,0)-(1,0)-(0,1), where x, t are barycentrics 2, 3."""
    errors = []
    for rule in (fem.rule_degree2(), fem.rule_degree5(),
                 fem.subdivided_rule(fem.rule_degree5(), 1)):
        x, t = rule.points[:, 1], rule.points[:, 2]
        for p in range(rule.degree + 1):
            for q in range(rule.degree + 1 - p):
                exact = math.factorial(p) * math.factorial(q) / math.factorial(p + q + 2)
                errors.append(abs(0.5 * float(np.sum(rule.weights * x**p * t**q)) - exact))
    return float(np.max(errors))


def invalid_preset_meshes() -> int:
    """How many of the presets' meshes at 2, 8 and 17 layers fail validation."""
    return sum(not meshmod.validate_mesh(meshmod.build_mesh(spec, layers), spec).ok
               for spec in (probmod.example1_static(), probmod.example1_moving())
               for layers in (2, 8, 17))


def roundtrip_mismatches() -> int:
    """How many arrays of a mesh file write and read changes."""
    m = meshmod.build_mesh(probmod.example1_moving(), 6)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "m.stmesh")
        meshmod.write_mesh(m, path)
        back = meshmod.read_mesh(path)
    return sum(not np.array_equal(getattr(m, name), getattr(back, name))
               for name in ("vertices", "triangles", "regions",
                            "interface_edges", "boundary_tags"))


def coercivity_defect(rng, vectors: int, specs) -> float:
    """Largest (|||u|||^2 - u^T A u) / |||u|||^2 over ``vectors`` random u
    per spec, uniform in [-1, 1] on the free state dofs at 8 layers."""
    defects = []
    for spec in specs:
        m = meshmod.build_mesh(spec, 8)
        dofs = fem.constrained(m, "U")
        free = np.flatnonzero(~dofs)
        a = fem.assemble_state_matrix(m, spec, dofs)
        for _ in range(vectors):
            u = np.zeros(m.num_vertices)
            u[free] = rng.uniform(-1.0, 1.0, free.size)
            quad = float(u @ (a @ u))
            tri2 = metrics.triple_norm(m, spec, u) ** 2
            defects.append((tri2 - quad) / tri2)
    return float(np.max(defects))


def star_norm_defect(rng) -> float:
    """|||w||| - |||w|||_* for one w drawn as in ``coercivity_defect``."""
    spec = probmod.example1_static()
    m = meshmod.build_mesh(spec, 8)
    free = np.flatnonzero(~fem.constrained(m, "U"))
    w = np.zeros(m.num_vertices)
    w[free] = rng.uniform(-1.0, 1.0, free.size)
    return float(metrics.triple_norm(m, spec, w) - metrics.star_norm(m, spec, w))


def zero_data_defect() -> float:
    """Largest |u|, |p| and residual of the 8-layer solve of ``zero_data_spec``."""
    spec = zero_data_spec()
    sol = solver.solve_optimality(meshmod.build_mesh(spec, 8), spec)
    return float(np.max(np.abs(np.concatenate([sol.u, sol.p, [sol.residual]]))))


def linear_interpolant_defect(specs, layers: int) -> float:
    """Largest | |||x|||^2 - (0.2 kappa1 + 0.8 kappa2) |; a preset's band is 0.2 wide."""
    errors = []
    for spec in specs:
        m = meshmod.build_mesh(spec, layers)
        got = metrics.triple_norm(m, spec, m.vertices[:, 0].copy()) ** 2
        errors.append(abs(got - (spec.kappa1 * 0.2 + spec.kappa2 * 0.8)))
    return float(np.max(errors))


def control_recovery_defect(specs, layers: int) -> float:
    """Largest |A u - K z_f| / |K z_f| on the free state dofs, z_f = -p / eta."""
    defects = []
    for spec in specs:
        m = meshmod.build_mesh(spec, layers)
        sol = solver.solve_optimality(m, spec)
        z_f = solver.recover_control_riesz(sol, spec)
        dofs = fem.constrained(m, "U")
        lhs = (fem.assemble_state_matrix(m, spec, dofs) @ sol.u)[~dofs]
        rhs = (fem.assemble_spatial_stiffness(m, spec, dofs) @ z_f)[~dofs]
        defects.append(float(np.linalg.norm(lhs - rhs) / np.linalg.norm(rhs)))
    return float(np.max(defects))
