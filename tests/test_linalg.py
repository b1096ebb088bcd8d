"""Sparse SPD solver wrapper: correctness against dense elimination,
the tridiagonal contract, singularity detection and the residual
guarantee."""

import numpy as np
import pytest
import scipy.sparse as sp

import oracles
from stcontrol import linalg
from stcontrol.errors import SingularMatrixError, SolverError


def random_spd_system(n, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n))
    a = a @ a.T + n * np.eye(n)
    b = rng.standard_normal(n)
    return a, b


def random_spd_tridiagonal_system(n, seed):
    rng = np.random.default_rng(seed)
    off = rng.standard_normal(n - 1)
    # diagonally dominant, hence SPD
    diag = 1.0 + rng.random(n) + np.abs(np.r_[off, 0.0]) + np.abs(np.r_[0.0, off])
    a = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
    b = rng.standard_normal(n)
    return a, b


def test_identity_solve():
    fact = linalg.factorize(sp.eye(6, format="csr"))
    b = np.arange(6.0)
    x, residual = linalg.solve(fact, b)
    assert np.array_equal(x, b)
    assert residual == 0.0


def test_arrowhead_matrix_is_refused():
    # an SPD arrowhead matrix: its dense first row and column lie outside
    # the three central diagonals, which the banded factor cannot hold
    n = 12
    a = np.diag(np.arange(1.0, n + 1.0) + n)
    a[0, 1:] = a[1:, 0] = 1.0
    with pytest.raises(ValueError, match="tridiagonal"):
        linalg.factorize(sp.csr_matrix(a))


def test_matches_dense_elimination_oracle():
    a, b = random_spd_tridiagonal_system(50, seed=4)
    x, residual = linalg.solve(linalg.factorize(sp.csr_matrix(a)), b)
    want = oracles.dense_lu_solve(a, b)
    assert np.allclose(x, want, rtol=1e-10, atol=1e-12)
    assert residual <= 1e-12


def test_zero_rhs_gives_zero_solution():
    a, _ = random_spd_tridiagonal_system(20, seed=5)
    x, residual = linalg.solve(linalg.factorize(sp.csr_matrix(a)), np.zeros(20))
    assert np.all(x == 0.0)
    assert residual == 0.0


def test_repeat_solves_are_identical():
    a, b = random_spd_tridiagonal_system(30, seed=6)
    fact = linalg.factorize(sp.csr_matrix(a))
    x1, r1 = linalg.solve(fact, b)
    x2, r2 = linalg.solve(fact, b)
    assert np.array_equal(x1, x2)
    assert r1 == r2


def test_singular_matrix_is_detected():
    a = np.eye(8)
    a[3, 3] = 0.0
    with pytest.raises(SingularMatrixError, match="exactly singular"):
        linalg.factorize(sp.csr_matrix(a))


def test_factorize_input_validation():
    with pytest.raises(ValueError):
        linalg.factorize(sp.csr_matrix(np.ones((3, 4))))
    bad = np.eye(3)
    bad[0, 0] = np.nan
    with pytest.raises(ValueError):
        linalg.factorize(sp.csr_matrix(bad))


def test_solve_input_validation():
    fact = linalg.factorize(sp.eye(4, format="csr"))
    with pytest.raises(ValueError):
        linalg.solve(fact, np.zeros(5))
    with pytest.raises(SolverError):
        linalg.solve(fact, np.array([1.0, np.nan, 0.0, 0.0]))


def test_residual_limit_is_enforced():
    a, b = random_spd_tridiagonal_system(40, seed=8)
    fact = linalg.factorize(sp.csr_matrix(a))
    with pytest.raises(SolverError):
        linalg.solve(fact, b, residual_limit=0.0)


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
