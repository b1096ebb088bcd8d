"""Sparse SPD solves on numpy alone: a padded-row sparse matrix, a
symmetric tridiagonal matrix held as its two bands with a cyclic reduction
factor and residual reporting, and preconditioned conjugate gradients.

``SparseMatrix`` stores padded rows of a square, structurally symmetric
pattern.  Matrices on one pattern share its column array, so ``matvecs``
gathers a vector once for all of them, and ``.T`` is one gather of the
values through the pattern's mirror permutation.  ``Tridiagonal`` holds a
diagonal and a superdiagonal, the only kind of matrix the solver factors.
``factorize`` reduces it by odd-even cyclic reduction (Buzbee, Golub &
Nielson, SINUM 1970): about log2(N) levels of whole-array operations, down
to no row left.  The factor keeps every level's pivots and couplings: N
pivots, and about N couplings beside T's own superdiagonal; ``nnz``
counts the pivots and T's N - 1 off-diagonal entries.  ``solve`` computes
the relative residual and refuses to return garbage silently.  ``pcg``
runs CG on an operator given as a function, typically a Schur complement
whose inner solves use a factor's raw ``lu.solve``; its caller checks the
residual of the system it actually solves.
"""

from __future__ import annotations

import dataclasses
import functools
from typing import Callable, NamedTuple

import numpy as np

from .errors import SingularMatrixError, SolverError

__all__ = ["SparseMatrix", "matvecs", "Tridiagonal", "Factorization",
           "SolveResult", "factorize", "solve", "pcg"]

RESIDUAL_LIMIT = 1e-8


@dataclasses.dataclass(frozen=True, eq=False)
class SparseMatrix:
    """A square sparse matrix in padded rows: ``vals[k, i]`` is the value at
    (i, ``cols[k, i]``).  A row's entries are in increasing column order;
    the slots it does not use hold its own index and the value 0.
    ``mirror[k * n + i]`` is the flat slot of the entry (cols[k, i], i), so
    the pattern must be structurally symmetric; unused slots mirror
    themselves.  Matrices built on one pattern share ``cols`` and
    ``mirror``."""

    vals: np.ndarray
    cols: np.ndarray
    mirror: np.ndarray

    @property
    def shape(self) -> tuple[int, int]:
        n = self.cols.shape[1]
        return n, n

    def diagonal(self, k: int = 0) -> np.ndarray:
        """The entries (i, i + k), k >= 0, with both indices in range."""
        n = self.shape[0]
        on = self.cols == np.arange(n) + k
        return np.where(on, self.vals, 0.0).sum(axis=0)[:n - k]

    @functools.cached_property
    def T(self) -> "SparseMatrix":
        vals = self.vals.ravel().take(self.mirror).reshape(self.vals.shape)
        return SparseMatrix(vals, self.cols, self.mirror)

    def __matmul__(self, v) -> np.ndarray:
        return matvecs((self,), v)[0]


def matvecs(matrices, v) -> list[np.ndarray]:
    """[m @ v for m in matrices] for matrices that share one pattern,
    gathering ``v`` once for all of them."""
    cols = matrices[0].cols
    if any(m.cols is not cols for m in matrices):
        raise ValueError("matrices must share one pattern")
    v = np.asarray(v, dtype=float)
    if v.shape != (cols.shape[1],):
        raise ValueError(f"vector shape {v.shape} does not match matrix")
    gathered = v.take(cols)
    return [np.einsum("kn,kn->n", m.vals, gathered) for m in matrices]


@dataclasses.dataclass(frozen=True, eq=False)
class Tridiagonal:
    """The symmetric tridiagonal matrix with diagonal ``diag`` and
    superdiagonal (and subdiagonal) ``off``."""

    diag: np.ndarray
    off: np.ndarray

    def __post_init__(self):
        if len(self.off) != len(self.diag) - 1:
            raise ValueError(f"superdiagonal of length {len(self.off)} does not fit "
                             f"a diagonal of length {len(self.diag)}")

    @property
    def shape(self) -> tuple[int, int]:
        n = len(self.diag)
        return n, n

    @property
    def nnz(self) -> int:
        return int(np.count_nonzero(self.diag) + 2 * np.count_nonzero(self.off))

    def __matmul__(self, v) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        # (sub + diag) + super in each row, as SparseMatrix's product sums
        y = self.diag * v
        y[1:] += self.off * v[:-1]
        y[:-1] += self.off * v[1:]
        return y


@dataclasses.dataclass(frozen=True)
class CyclicReduction:
    """Odd-even cyclic reduction of an SPD tridiagonal matrix T.  Level l
    eliminates the even rows of its system, whose diagonal entries are its
    pivots, and leaves the odd rows coupled through new off-diagonals.
    ``levels`` holds each level's (pivots, left, right): the pivots and the
    even and odd entries of that level's superdiagonal, T's own at level 0.
    The levels run until no row is left."""

    levels: tuple

    @property
    def nnz(self) -> int:
        """Factor entries counted as N pivots plus the N - 1 off-diagonals of
        T; the couplings of the later levels, about N more, are not counted."""
        _, left, right = self.levels[0]
        return sum(len(p) for p, _, _ in self.levels) + len(left) + len(right)

    def solve(self, b: np.ndarray) -> np.ndarray:
        reduced = []
        for p, left, right in self.levels:
            half = len(b) // 2
            y = b[0::2] / p
            b = b[1::2] - left * y[:half]
            b[:len(right)] -= right * y[1:len(right) + 1]
            reduced.append(y)
        x = b  # empty: the last level left no row
        for y, (p, left, right) in zip(reversed(reduced), reversed(self.levels)):
            half = len(x)
            full = np.empty(len(y) + half)
            full[1::2] = x
            # the even rows: y - (left x_right + right x_left) / p
            even = full[0::2]
            np.multiply(left, x, out=even[:half])
            even[half:] = 0.0
            even[1:len(right) + 1] += right * x[:len(right)]
            even /= p
            np.subtract(y, even, out=even)
            x = full
        return x


def _singular(pivot, row):
    return SingularMatrixError(
        f"factorization failed: matrix is exactly singular or not positive "
        f"definite (pivot {float(pivot)!r} of row {row})")


def _reduce(diag: np.ndarray, off: np.ndarray) -> CyclicReduction:
    """The levels of the cyclic reduction of the tridiagonal (diag, off);
    raises SingularMatrixError at the first pivot that is not positive,
    before dividing by it."""
    levels, d, e = [], diag, off
    while len(d):
        p = np.ascontiguousarray(d[0::2])
        if not np.all(p > 0.0):
            bad = int(np.argmin(p > 0.0))
            raise _singular(p[bad], (2 * bad + 1) * 2 ** len(levels) - 1)
        half = len(d) // 2
        left, right = e[0::2], e[1::2]
        levels.append((p, left, right))
        lp, rp = left / p[:half], right / p[1:len(right) + 1]
        d = d[1::2] - left * lp
        d[:len(right)] -= right * rp
        e = -(left[1:] * rp[:half - 1])
    return CyclicReduction(levels=tuple(levels))


@dataclasses.dataclass
class Factorization:
    """A factorization bound to its matrix so solves can report true residuals."""

    lu: CyclicReduction
    matrix: Tridiagonal


class SolveResult(NamedTuple):
    x: np.ndarray
    residual: float


def factorize(matrix: Tridiagonal) -> Factorization:
    """Factor an SPD tridiagonal matrix.  Raises ValueError for non-finite
    entries and SingularMatrixError for a matrix that is singular or not
    positive definite."""
    if not (np.all(np.isfinite(matrix.diag)) and np.all(np.isfinite(matrix.off))):
        raise ValueError("matrix contains non-finite entries")
    return Factorization(lu=_reduce(matrix.diag, matrix.off), matrix=matrix)


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
