"""Seeded coordinate-descent search over isometries and unitaries."""

import numpy as np
import pytest

from qce.linalg import fourier_matrix, rng
from qce.optim import OptOpts, isometry_from_params, n_iso_params, search_isometry, search_unitary

SEED = 20240830


def _overlap(u):
    return abs(u[0, 0]) ** 2


def _phase(a):
    return np.diag([np.exp(1j * a), 1.0])


def test_isometry_columns_are_orthonormal():
    g = rng(SEED)
    for n, k in ((2, 1), (3, 1), (4, 2), (5, 3), (2, 2), (3, 3), (5, 5)):
        for _ in range(5):
            v = isometry_from_params(n, k, g.uniform(-np.pi, np.pi, n_iso_params(n, k)))
            assert v.shape == (n, k)
            np.testing.assert_allclose(v.conj().T @ v, np.eye(k), atol=1e-12)
        np.testing.assert_array_equal(isometry_from_params(n, k, np.zeros(n_iso_params(n, k))), np.eye(n)[:, :k])
    assert [n_iso_params(n, n) for n in range(1, 6)] == [1, 4, 9, 16, 25]  # real dimension of U(n)


def test_restarts_used_counts_every_start():
    opts = OptOpts(restarts=3, sweeps=1, seed=SEED)
    bases = [np.eye(3, dtype=complex), fourier_matrix(3)]
    assert search_unitary(_overlap, 3, opts, structured=bases)[2] == 5
    assert search_unitary(_overlap, 3, opts)[2] == 3  # an empty structured list adds no start
    assert search_isometry(_overlap, 4, 2, opts)[2] == 4  # the zero-angle start, then the restarts
    assert search_isometry(_overlap, 3, 3, opts, structured=bases)[2] == 5
    with pytest.raises(ValueError):
        search_unitary(_overlap, 3, OptOpts(restarts=0))


def test_single_dimension_scores_the_only_unitary():
    u, val, used = search_unitary(lambda u: 0.25 * u[0, 0].real, 1, OptOpts(restarts=5))
    np.testing.assert_array_equal(u, [[1.0]])
    assert val == 0.25
    assert used == 0


def test_minimize_returns_the_objective_value():
    swap = np.array([[0, 1], [1, 0]], dtype=complex)
    bare = OptOpts(restarts=0, sweeps=0)
    u, val, _ = search_unitary(_overlap, 2, bare, structured=[np.eye(2), swap], minimize=True)
    np.testing.assert_array_equal(u, swap)
    assert val == 0.0
    u, val, _ = search_unitary(_overlap, 2, bare, structured=[swap, np.eye(2)])
    np.testing.assert_array_equal(u, np.eye(2))
    assert val == 1.0
    u, val, _ = search_unitary(_overlap, 2, OptOpts(restarts=4, sweeps=2, seed=SEED), structured=[np.eye(2)], minimize=True)
    assert val == _overlap(u)
    assert val < 0.5


def test_best_structured_start_wins_and_ties_go_first():
    bare = OptOpts(restarts=0, sweeps=0)
    imag = lambda u: u[0, 0].imag
    # 5e-16 is within the 1e-15 tie band of 0, so the earlier start is kept
    u, val, _ = search_unitary(imag, 2, bare, structured=[_phase(0.0), _phase(5e-16)])
    np.testing.assert_array_equal(u, _phase(0.0))
    assert val == 0.0
    u, val, _ = search_unitary(imag, 2, bare, structured=[_phase(0.0), _phase(5e-16), _phase(3e-15)])
    np.testing.assert_array_equal(u, _phase(3e-15))
    u, val, _ = search_unitary(imag, 2, bare, structured=[_phase(-0.1), _phase(0.2), _phase(0.1)])
    np.testing.assert_array_equal(u, _phase(0.2))
    assert val == np.sin(0.2)


def test_seeded_search_is_deterministic():
    target = fourier_matrix(3)[:, :2]
    fit = lambda v: -np.linalg.norm(v - target)
    runs = [search_isometry(fit, 3, 2, OptOpts(restarts=3, sweeps=2, seed=SEED)) for _ in range(2)]
    np.testing.assert_array_equal(runs[0][0], runs[1][0])
    assert runs[0][1:] == runs[1][1:]
    assert runs[0][1] == fit(runs[0][0])
