"""Sparse SPD solves on numpy alone: one sparse matrix class, a cyclic
reduction factor for symmetric tridiagonal matrices with residual
reporting, and preconditioned conjugate gradients.

``SparseMatrix`` stores padded rows of a square, structurally symmetric
pattern; its ``data``, ``indices`` and ``indptr`` are the CSR view without
stored zeros.  Matrices on one pattern share its column array, so
``matvecs`` gathers a vector once for all of them, and ``.T`` is one gather
of the values through the pattern's mirror permutation.
``factorize`` takes a symmetric tridiagonal matrix, the only kind the solver
factors, and reduces it by odd-even cyclic reduction (Buzbee, Golub &
Nielson, SINUM 1970): about log2(N) levels of whole-array operations, the
last few rows eliminated one by one, with a factor of N pivots plus the
N - 1 off-diagonal entries.  ``solve`` computes
the relative residual and refuses to return garbage silently.  ``pcg`` runs
CG on an operator given as a function, typically a Schur complement whose
inner solves use a factor's raw ``lu.solve``; its caller checks the
residual of the system it actually solves.
"""

from __future__ import annotations

import dataclasses
import functools
from typing import Callable, NamedTuple

import numpy as np

from .errors import SingularMatrixError, SolverError

__all__ = ["SparseMatrix", "matvecs", "tridiagonal", "Factorization",
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

    @property
    def nnz(self) -> int:
        return int(np.count_nonzero(self.vals))

    @functools.cached_property
    def _csr(self):
        # row-major copies: masking them is faster than masking the views
        vals, cols = self.vals.T.copy(), self.cols.T.copy()
        stored = vals != 0.0
        indptr = np.zeros(self.shape[0] + 1, dtype=np.intp)
        np.cumsum(np.count_nonzero(self.vals, axis=0), out=indptr[1:])
        return vals[stored], cols[stored], indptr

    @property
    def data(self) -> np.ndarray:
        return self._csr[0]

    @property
    def indices(self) -> np.ndarray:
        return self._csr[1]

    @property
    def indptr(self) -> np.ndarray:
        return self._csr[2]

    def diagonal(self, k: int = 0) -> np.ndarray:
        """The entries (i, i + k) with both indices in range."""
        n = self.shape[0]
        on = self.cols == np.arange(n) + k
        band = np.where(on, self.vals, 0.0).sum(axis=0)
        return band[:n - k] if k >= 0 else band[-k:]

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


def tridiagonal(diag: np.ndarray, off: np.ndarray) -> SparseMatrix:
    """The symmetric tridiagonal matrix with diagonal ``diag`` and
    superdiagonal ``off``, in padded rows of width 3."""
    n = len(diag)
    rows = np.arange(n)
    cols = np.stack([rows - 1, rows, rows + 1])
    cols[0, 0], cols[2, -1] = 0, n - 1
    vals = np.zeros((3, n))
    vals[0, 1:] = vals[2, :-1] = off
    vals[1] = diag
    mirror = np.arange(3 * n)
    mirror[1:n] = 2 * n + rows[:-1]
    mirror[2 * n:-1] = rows[1:]
    return SparseMatrix(vals, cols, mirror)


# Rows left to a sequential LDL^T at the end of the reduction: below this
# size a level costs more in numpy calls than a python loop over its rows.
SEQUENTIAL_ROWS = 16


@dataclasses.dataclass(frozen=True)
class CyclicReduction:
    """Odd-even cyclic reduction of an SPD tridiagonal matrix T.  Level l
    eliminates the even rows of its system, whose diagonal entries are the
    ``pivots[l]``, and leaves the odd rows coupled through new
    off-diagonals, which every solve recomputes from the pivots and ``off``,
    the superdiagonal of T.  The last system, of at most SEQUENTIAL_ROWS
    rows, is eliminated row by row, with pivots ``last``."""

    pivots: tuple
    last: tuple
    off: np.ndarray

    @property
    def nnz(self) -> int:
        """Stored factor entries: N pivots plus N - 1 off-diagonals."""
        return sum(map(len, self.pivots)) + len(self.last) + len(self.off)

    def solve(self, b: np.ndarray) -> np.ndarray:
        e, levels = self.off, []
        for p in self.pivots:
            half = len(b) // 2
            left, right = e[0::2], e[1::2]
            y = b[0::2] / p
            b = b[1::2] - left * y[:half]
            b[:len(right)] -= right * y[1:len(right) + 1]
            levels.append((y, p, left, right))
            e = -(left[1:] * (right[:half - 1] / p[1:half]))
        x = _sequential_solve(self.last, e.tolist(), b.tolist())
        for y, p, left, right in reversed(levels):
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


def _sequential_solve(pivots, off, b) -> np.ndarray:
    """Forward and back substitution of the LDL^T factor of a tridiagonal
    matrix with the given pivots and superdiagonal ``off``."""
    for i in range(1, len(b)):
        b[i] -= off[i - 1] / pivots[i - 1] * b[i - 1]
    x = [0.0] * len(b)
    for i in reversed(range(len(b))):
        x[i] = (b[i] - off[i] * x[i + 1] if i < len(off) else b[i]) / pivots[i]
    return np.array(x)


def _singular(pivot, row):
    return SingularMatrixError(
        f"factorization failed: matrix is exactly singular or not positive "
        f"definite (pivot {float(pivot)!r} of row {row})")


def _reduce(diag: np.ndarray, off: np.ndarray) -> CyclicReduction:
    """Pivots of the cyclic reduction of the tridiagonal (diag, off); raises
    SingularMatrixError at the first pivot that is not positive, before
    dividing by it."""
    pivots, d, e = [], diag, off
    while len(d) > SEQUENTIAL_ROWS:
        p = np.ascontiguousarray(d[0::2])
        if not np.all(p > 0.0):
            bad = int(np.argmin(p > 0.0))
            raise _singular(p[bad], (2 * bad + 1) * 2 ** len(pivots) - 1)
        pivots.append(p)
        half = len(d) // 2
        left, right = e[0::2], e[1::2]
        lp, rp = left / p[:half], right / p[1:len(right) + 1]
        d = d[1::2] - left * lp
        d[:len(right)] -= right * rp
        e = -(left[1:] * rp[:half - 1])
    last = []
    for i, (pivot, coupling) in enumerate(zip(d.tolist(), [0.0, *e.tolist()])):
        if i:
            pivot -= coupling * (coupling / last[-1])
        if not pivot > 0.0:
            raise _singular(pivot, (i + 1) * 2 ** len(pivots) - 1)
        last.append(pivot)
    return CyclicReduction(pivots=tuple(pivots), last=tuple(last), off=off)


@dataclasses.dataclass
class Factorization:
    """A factorization bound to its matrix so solves can report true residuals."""

    lu: CyclicReduction
    matrix: object


class SolveResult(NamedTuple):
    x: np.ndarray
    residual: float


def factorize(matrix) -> Factorization:
    """Factor a square SPD tridiagonal sparse matrix, read through its
    ``shape``, ``data``, ``indices`` and ``indptr`` (CSR).  Raises ValueError
    for a matrix that is not symmetric tridiagonal and SingularMatrixError
    for one that is singular or not positive definite."""
    n, columns = matrix.shape
    if n != columns:
        raise ValueError(f"matrix must be square, got shape {matrix.shape}")
    data = np.asarray(matrix.data, dtype=float)
    if not np.all(np.isfinite(data)):
        raise ValueError("matrix contains non-finite entries")
    rows = np.repeat(np.arange(n), np.diff(matrix.indptr))
    offset = np.asarray(matrix.indices) - rows
    # entries of a band summed by row; one outside the bands is refused
    # unless it is zero, so clipping its offset adds nothing
    band = (np.clip(offset, -1, 1) + 1) * n + rows
    lower, diag, upper = np.bincount(band, data, minlength=3 * n).reshape(3, n)
    if np.any(data[np.abs(offset) > 1]) or not np.array_equal(lower[1:], upper[:-1]):
        raise ValueError("matrix must be symmetric tridiagonal: it stores a "
                         "nonzero outside the three central diagonals or "
                         "differs from its transpose")
    return Factorization(lu=_reduce(diag, upper[:-1].copy()), matrix=matrix)


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
