"""Sparse SPD solves: factorizations with residual reporting, and
preconditioned conjugate gradients.

``factorize`` takes a symmetric tridiagonal matrix, the only kind the solver
builds, and factors it with LAPACK's banded Cholesky (``dpbtrf`` through
scipy.linalg.cholesky_banded); the factor is two length-N bands.  ``solve``
computes the relative residual and refuses to return garbage silently.
``pcg`` runs CG on an operator given as a function, typically a Schur
complement whose inner solves use a factor's raw ``lu.solve``; its caller
checks the residual of the system it actually solves.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, NamedTuple

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from .errors import SingularMatrixError, SolverError

__all__ = ["Factorization", "SolveResult", "factorize", "solve", "pcg"]

RESIDUAL_LIMIT = 1e-8


@dataclasses.dataclass(frozen=True)
class BandedCholesky:
    """Upper Cholesky factor R (A = R^T R) of an SPD tridiagonal matrix in
    LAPACK's upper banded layout: row 0 holds the superdiagonal (its first
    entry unused), row 1 the diagonal."""

    bands: np.ndarray

    @property
    def nnz(self) -> int:
        """Stored factor entries: N diagonal plus N - 1 superdiagonal."""
        return 2 * self.bands.shape[1] - 1

    def solve(self, b: np.ndarray) -> np.ndarray:
        return sla.cho_solve_banded((self.bands, False), b, check_finite=False)


@dataclasses.dataclass
class Factorization:
    """A factorization bound to its matrix so solves can report true residuals."""

    lu: BandedCholesky
    matrix: sp.csr_matrix


class SolveResult(NamedTuple):
    x: np.ndarray
    residual: float


def factorize(matrix) -> Factorization:
    """Factor a square SPD tridiagonal sparse matrix.  Raises ValueError for
    a matrix that is not symmetric tridiagonal and SingularMatrixError for
    one that is singular or not positive definite."""
    matrix = sp.csr_matrix(matrix)
    if matrix.shape[0] != matrix.shape[1]:
        raise ValueError(f"matrix must be square, got shape {matrix.shape}")
    if not np.all(np.isfinite(matrix.data)):
        raise ValueError("matrix contains non-finite entries")
    lower, diag, upper = (matrix.diagonal(k) for k in (-1, 0, 1))
    # Every nonzero of the three diagonals has a stored nonzero behind it,
    # so equal counts leave none outside them; duplicate stored entries can
    # only make the count larger and the matrix refused.
    if (not np.array_equal(lower, upper) or np.count_nonzero(matrix.data)
            != np.count_nonzero(diag) + 2 * np.count_nonzero(upper)):
        raise ValueError("matrix must be symmetric tridiagonal: it stores a "
                         "nonzero outside the three central diagonals or "
                         "differs from its transpose")
    bands = np.zeros((2, matrix.shape[0]))
    bands[0, 1:] = upper
    bands[1] = diag
    try:
        bands = sla.cholesky_banded(bands, overwrite_ab=True, lower=False,
                                    check_finite=False)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError(
            f"factorization failed: matrix is exactly singular or not "
            f"positive definite ({exc})") from exc
    return Factorization(lu=BandedCholesky(bands), matrix=matrix)


def solve(fact: Factorization, b, residual_limit: float = RESIDUAL_LIMIT) -> SolveResult:
    """Solve with a prior factorization; returns the solution together with
    the relative residual ||Ax - b|| / ||b|| (absolute when b = 0), and
    raises SolverError when it exceeds ``residual_limit``."""
    b = np.asarray(b, dtype=float)
    if b.shape != (fact.matrix.shape[0],):
        raise ValueError(f"right-hand side shape {b.shape} does not match matrix")
    x = fact.lu.solve(b)
    if not np.all(np.isfinite(x)):
        raise SolverError("solve produced non-finite values")
    norm_b = float(np.linalg.norm(b))
    norm_r = float(np.linalg.norm(fact.matrix @ x - b))
    residual = norm_r / norm_b if norm_b > 0.0 else norm_r
    if residual > residual_limit:
        raise SolverError(
            f"relative residual {residual:.3e} exceeds {residual_limit:.1e}"
        )
    return SolveResult(x=x, residual=residual)


def pcg(apply: Callable[[np.ndarray], np.ndarray], b: np.ndarray,
        precondition: Callable[[np.ndarray], np.ndarray],
        rtol: float, maxiter: int) -> tuple[np.ndarray, int]:
    """Preconditioned conjugate gradients for ``apply(x) = b`` with an SPD
    operator and SPD preconditioner, started from zero.

    Stops once the recursive residual satisfies ||r|| <= rtol ||b|| and
    returns (x, iterations); b = 0 gives x = 0 after 0 iterations.  Raises
    SolverError when ``maxiter`` iterations do not reach the tolerance or
    the iteration produces non-finite values."""
    x = np.zeros_like(b)
    norm_b = float(np.linalg.norm(b))
    if norm_b == 0.0:
        return x, 0
    r = b.copy()
    z = precondition(r)
    d = z.copy()
    rz = float(r @ z)
    relative = 1.0
    for iteration in range(1, maxiter + 1):
        q = apply(d)
        alpha = rz / float(d @ q)
        x += alpha * d
        r -= alpha * q
        relative = float(np.linalg.norm(r)) / norm_b
        if not np.isfinite(relative):
            raise SolverError(f"CG produced non-finite values at iteration {iteration}")
        if relative <= rtol:
            return x, iteration
        z = precondition(r)
        rz_next = float(r @ z)
        d = z + (rz_next / rz) * d
        rz = rz_next
    raise SolverError(
        f"CG did not converge in {maxiter} iterations "
        f"(relative residual {relative:.3e}, tolerance {rtol:.1e})"
    )
