"""Error taxonomy shared across the package.

Each class maps onto one CLI exit code family: usage errors (plain
ValueError and argparse errors) and config errors exit 1, geometry and
meshing problems exit 2, solver failures exit 3, and I/O problems exit 4.
"""


class GeometryError(ValueError):
    """Interface geometry incompatible with the domain (exits the cylinder,
    touches the boundary, or offsets out of order)."""


class MeshingError(RuntimeError):
    """Mesh construction failed; carries the offending layer index."""

    def __init__(self, message, layer=None):
        if layer is not None:
            message = f"{message} (layer {layer})"
        super().__init__(message)
        self.layer = layer


class MeshFormatError(ValueError):
    """Mesh file violates the text format; carries the 1-based line number."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class SingularMatrixError(RuntimeError):
    """Factorization hit an exactly singular pivot."""


class SolverError(RuntimeError):
    """A linear solve produced an unacceptable residual or non-finite values."""


class PointLocationError(ValueError):
    """A query point could not be located inside the reference mesh."""

    def __init__(self, message, point=None):
        if point is not None:
            message = f"{message}: ({point[0]!r}, {point[1]!r})"
        super().__init__(message)
        self.point = point


class ConfigError(ValueError):
    """A config file is malformed, has an unknown section or key, or holds
    a bad value (named by its key), or its [problem] section meets
    ``--preset``.  Exits 1; a bad flag value is a usage error instead."""
