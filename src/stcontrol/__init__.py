"""Space-time interface-fitted FEM for parabolic optimal control.

Solves an energy-regularized tracking problem for a 1d heat equation whose
diffusion coefficient jumps across a moving interface, by meshing the whole
space-time cylinder with interface-fitted triangles and solving the coupled
state-adjoint optimality system in one shot.
"""

__version__ = "0.1.0"
