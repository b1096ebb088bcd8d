"""Sparse SPD solver wrapper: correctness against dense elimination,
the tridiagonal type, singularity detection and the residual
guarantee."""

import re

import numpy as np
import pytest

import oracles
from stcontrol import linalg
from stcontrol.errors import SingularMatrixError, SolverError


def random_spd_system(n, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n))
    a = a @ a.T + n * np.eye(n)
    b = rng.standard_normal(n)
    return a, b


def banded(a):
    """The linalg.Tridiagonal of a dense symmetric tridiagonal matrix."""
    return linalg.Tridiagonal(np.diag(a).copy(), np.diag(a, 1).copy())


def random_spd_tridiagonal_system(n, seed):
    rng = np.random.default_rng(seed)
    off = rng.standard_normal(n - 1)
    # diagonally dominant, hence SPD
    diag = 1.0 + rng.random(n) + np.abs(np.r_[off, 0.0]) + np.abs(np.r_[0.0, off])
    a = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
    b = rng.standard_normal(n)
    return a, b


def test_identity_solve():
    fact = linalg.factorize(banded(np.eye(6)))
    b = np.arange(6.0)
    x, residual = linalg.solve(fact, b)
    assert np.array_equal(x, b)
    assert residual == 0.0


@pytest.mark.parametrize("n", [1, 2, 7])
def test_tridiagonal_matches_its_dense_matrix(n):
    a, v = random_spd_tridiagonal_system(n, seed=n)
    a[0, 0] = 0.0
    if n > 2:
        a[1, 2] = a[2, 1] = 0.0
    t = banded(a)
    assert t.shape == (n, n)
    assert t.nnz == np.count_nonzero(a)
    # a row sums at most 3 products
    bound = 1e-15 * (np.abs(a) @ np.abs(v))
    assert np.all(np.abs(t @ v - a @ v) <= bound)
    assert np.array_equal(t @ list(v), t @ v)


def test_matches_dense_elimination_oracle():
    a, b = random_spd_tridiagonal_system(50, seed=4)
    x, residual = linalg.solve(linalg.factorize(banded(a)), b)
    want = oracles.dense_lu_solve(a, b)
    assert np.allclose(x, want, rtol=1e-10, atol=1e-12)
    assert residual <= 1e-12


def test_zero_rhs_gives_zero_solution():
    a, _ = random_spd_tridiagonal_system(20, seed=5)
    x, residual = linalg.solve(linalg.factorize(banded(a)), np.zeros(20))
    assert np.all(x == 0.0)
    assert residual == 0.0


def test_repeat_solves_are_identical():
    a, b = random_spd_tridiagonal_system(30, seed=6)
    fact = linalg.factorize(banded(a))
    x1, r1 = linalg.solve(fact, b)
    x2, r2 = linalg.solve(fact, b)
    assert np.array_equal(x1, x2)
    assert r1 == r2


def test_singular_matrix_is_detected():
    a = np.eye(8)
    a[3, 3] = 0.0
    with pytest.raises(SingularMatrixError, match="exactly singular"):
        linalg.factorize(banded(a))


def test_factorize_input_validation():
    for diag, off in ((np.ones(3), np.ones(3)), (np.ones(3), np.ones(1)),
                      (np.ones(0), np.ones(0))):
        with pytest.raises(ValueError, match="does not fit"):
            linalg.Tridiagonal(diag, off)
    bad = np.eye(3)
    bad[0, 0] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        linalg.factorize(banded(bad))
    bad = np.eye(3)
    bad[1, 2] = bad[2, 1] = np.inf
    with pytest.raises(ValueError, match="non-finite"):
        linalg.factorize(banded(bad))


def test_solve_input_validation():
    fact = linalg.factorize(banded(np.eye(4)))
    with pytest.raises(ValueError):
        linalg.solve(fact, np.zeros(5))
    with pytest.raises(SolverError):
        linalg.solve(fact, np.array([1.0, np.nan, 0.0, 0.0]))


def test_residual_limit_is_enforced(monkeypatch):
    a, b = random_spd_tridiagonal_system(40, seed=8)
    fact = linalg.factorize(banded(a))
    monkeypatch.setattr(linalg, "RESIDUAL_LIMIT", 0.0)
    with pytest.raises(SolverError):
        linalg.solve(fact, b)


def test_pcg_matches_oracle():
    a, b = random_spd_system(50, seed=9)
    diag = np.diag(a)
    x, iterations = linalg.pcg(lambda v: a @ v, b, lambda r: r / diag,
                               rtol=1e-12, maxiter=200)
    assert np.allclose(x, oracles.dense_lu_solve(a, b), rtol=1e-10, atol=1e-12)
    assert 0 < iterations <= 50
    x0, iterations0 = linalg.pcg(lambda v: a @ v, np.zeros(50), lambda r: r,
                                 rtol=1e-12, maxiter=200)
    assert np.all(x0 == 0.0) and iterations0 == 0
    with pytest.raises(SolverError, match="in 2 iterations"):
        linalg.pcg(lambda v: a @ v, b, lambda r: r, rtol=1e-12, maxiter=2)


def random_spd_tridiagonal_with_breaks(n, seed):
    """A diagonally dominant tridiagonal matrix with some zero
    off-diagonals (time-line breaks) and some identity rows (constrained
    dofs), as K and the line-block preconditioner have."""
    rng = np.random.default_rng(seed)
    off = rng.standard_normal(n - 1)
    off[rng.random(n - 1) < 0.2] = 0.0
    identity = rng.random(n) < 0.1
    off[identity[:-1] | identity[1:]] = 0.0
    diag = 1.0 + rng.random(n) + np.abs(np.r_[off, 0.0]) + np.abs(np.r_[0.0, off])
    diag[identity] = 1.0
    a = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
    return a, rng.standard_normal(n), identity


@pytest.mark.parametrize("n", [1, 2, 3, 7, 8, 9, 255, 256, 257])
def test_cyclic_reduction_matches_dense_solve(n):
    a, b, identity = random_spd_tridiagonal_with_breaks(n, seed=n)
    fact = linalg.factorize(banded(a))
    x, residual = linalg.solve(fact, b)
    want = np.linalg.solve(a, b)
    assert np.max(np.abs(x - want)) <= 1e-13 * np.max(np.abs(want))
    assert residual <= 1e-14
    assert np.array_equal(x[identity], b[identity])
    assert np.all(fact.lu.solve(np.zeros(n)) == 0.0)
    assert fact.lu.nnz == 2 * n - 1


@pytest.mark.parametrize("n", [2, 9, 17, 40, 100])
@pytest.mark.parametrize("block", [[[1.0, 1.0], [1.0, 1.0]], [[1.0, 2.0], [2.0, 1.0]]],
                         ids=["zero-pivot", "negative-pivot"])
def test_bad_pivot_at_any_level_is_detected(n, block):
    # a singular or indefinite 2 x 2 block on the rows (row, row + 1) of an
    # identity: its first row eliminated pivots on 1, and the other is left
    # with 0 or -3, which becomes a pivot at a level that depends on row;
    # the error names one of the two rows
    for row in range(n - 1):
        a = np.eye(n)
        a[row:row + 2, row:row + 2] = block
        with pytest.raises(SingularMatrixError, match="exactly singular") as error:
            linalg.factorize(banded(a))
        reported = int(re.search(r"of row (\d+)\)", str(error.value)).group(1))
        assert reported in (row, row + 1), (row, reported)
