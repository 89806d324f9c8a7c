"""Seeded coordinate-descent search over isometries and unitaries."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qce.linalg import fourier_matrix, haar_unitary, rng, spawn_rngs
from qce.optim import OptOpts, isometry_from_params, n_iso_params, search_isometry, search_unitary

SEED = 20240830


def _overlap(us):
    return abs(us[..., 0, 0]) ** 2


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


def test_stacked_build_matches_row_builds():
    g = rng(SEED + 1)
    for n, k in ((2, 1), (3, 1), (4, 2), (2, 2), (3, 3), (8, 2)):
        stack = g.uniform(-np.pi, np.pi, (2, 5, n_iso_params(n, k)))
        vs = isometry_from_params(n, k, stack)
        assert vs.shape == (2, 5, n, k)
        for i in range(2):
            for j in range(5):
                assert vs[i, j].tobytes() == isometry_from_params(n, k, stack[i, j]).tobytes()


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
    u, val, used = search_unitary(lambda us: 0.25 * us[..., 0, 0].real, 1, OptOpts(restarts=5))
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
    assert val == _overlap(u[None])[0]
    assert val < 0.5


def test_best_structured_start_wins_and_ties_go_first():
    bare = OptOpts(restarts=0, sweeps=0)
    imag = lambda us: us[..., 0, 0].imag
    # 5e-16 is within the 1e-15 tie band of 0, so the earlier start is kept
    u, val, _ = search_unitary(imag, 2, bare, structured=[_phase(0.0), _phase(5e-16)])
    np.testing.assert_array_equal(u, _phase(0.0))
    assert val == 0.0
    u, val, _ = search_unitary(imag, 2, bare, structured=[_phase(0.0), _phase(5e-16), _phase(3e-15)])
    np.testing.assert_array_equal(u, _phase(3e-15))
    u, val, _ = search_unitary(imag, 2, bare, structured=[_phase(-0.1), _phase(0.2), _phase(0.1)])
    np.testing.assert_array_equal(u, _phase(0.2))
    assert val == np.sin(0.2)


def test_probe_ties_go_to_the_plus_step():
    # cos is even, so both probes of the first angle and of the first phase
    # gain the same; +step is accepted first and -step must beat it
    u, val, _ = search_unitary(lambda us: -us[..., 0, 0].real, 2, OptOpts(restarts=0, sweeps=1), structured=[np.eye(2)])
    np.testing.assert_allclose(u, isometry_from_params(2, 2, [0.5, 0.0, 0.5, 0.0]), rtol=0, atol=1e-15)
    assert val == -np.cos(0.5) * np.cos(0.5)


def test_seeded_search_is_deterministic():
    target = fourier_matrix(3)[:, :2]
    fit = lambda vs: -np.linalg.norm(vs - target, axis=(-2, -1))
    runs = [search_isometry(fit, 3, 2, OptOpts(restarts=3, sweeps=2, seed=SEED)) for _ in range(2)]
    np.testing.assert_array_equal(runs[0][0], runs[1][0])
    assert runs[0][1:] == runs[1][1:]
    assert runs[0][1] == fit(runs[0][0][None])[0]


def _per_start_search(objective, n, k, opts, structured, minimize):
    """Reference search: one coordinate descent per start, each run to the end before the next."""
    sign = -1.0 if minimize else 1.0
    npar = n_iso_params(n, k)
    if structured is None:
        starts = [(None, np.zeros(npar))]
    else:
        starts = [(np.asarray(u0, dtype=complex), np.zeros(npar)) for u0 in structured]
    starts += [(None, g.uniform(-np.pi, np.pi, size=npar)) for g in spawn_rngs(opts.seed, opts.restarts)]
    best_v, best_val = None, 0.0
    for u0, params in starts:
        def build(p):
            v = isometry_from_params(n, k, p)
            return v if u0 is None else u0 @ v

        f = lambda p: sign * objective(build(p)[None])[0]
        best, step = f(params), opts.step
        for _ in range(opts.sweeps):
            for i in range(npar):
                base = params[i]
                for cand in (base + step, base - step):
                    params[i] = cand
                    val = f(params)
                    if val > best + 1e-15:
                        best, base = val, cand
                    else:
                        params[i] = base
            step *= 0.5
        if best_v is None or best > best_val + 1e-15:
            best_v, best_val = build(params), best
    return best_v, sign * best_val, len(starts)


@settings(max_examples=40, deadline=None)
@given(
    shape=st.sampled_from([(2, 1), (3, 1), (2, 2), (3, 2), (4, 2), (3, 3)]),
    seed=st.integers(0, 2**31 - 1),
    restarts=st.integers(0, 3),
    sweeps=st.integers(0, 2),
    step=st.sampled_from([0.5, 0.25, 1.0]),
    n_structured=st.integers(0, 4),
    minimize=st.booleans(),
)
def test_lockstep_search_matches_per_start_descent(shape, seed, restarts, sweeps, step, n_structured, minimize):
    n, k = shape
    g = rng(seed)
    c = g.normal(size=(n, k)) + 1j * g.normal(size=(n, k))
    objective = lambda vs: np.array([np.vdot(c, v).real for v in vs.reshape(-1, n, k)]).reshape(vs.shape[:-2])
    opts = OptOpts(restarts=restarts, sweeps=sweeps, seed=seed, step=step)
    structured = None
    if k == n and n_structured:
        # near ties: a repeated unitary, then copies with a column phase inside and outside the 1e-15 band
        u = haar_unitary(n, seed=g)
        shifted = [u @ np.diag(np.exp(1j * np.r_[a, np.zeros(n - 1)])) for a in (3e-16, 3e-15)]
        structured = [u, u, *shifted][:n_structured] + [haar_unitary(n, seed=g)]
    got = search_isometry(objective, n, k, opts, structured, minimize)
    want = _per_start_search(objective, n, k, opts, structured, minimize)
    assert got[0].tobytes() == want[0].tobytes()
    assert np.float64(got[1]).tobytes() == np.float64(want[1]).tobytes()
    assert got[2] == want[2]


def test_search_scores_both_probes_of_a_coordinate_as_one_call():
    shapes = []

    def objective(vs):
        shapes.append(vs.shape)
        return _overlap(vs)

    for n, k, sweeps in ((3, 2, 2), (2, 2, 1), (4, 1, 3), (3, 3, 0)):
        shapes.clear()
        search_isometry(objective, n, k, OptOpts(restarts=3, sweeps=sweeps, seed=SEED))
        assert len(shapes) == 1 + n_iso_params(n, k) * sweeps
        assert shapes[0] == (4, n, k)
        assert all(s == (2, 4, n, k) for s in shapes[1:])
    # a batch of problems: the starts follow the batch axes, the probe axis leads them
    shapes.clear()
    batch = np.broadcast_to(fourier_matrix(3), (2, 5, 2, 3, 3))
    u, val, used = search_unitary(objective, 3, OptOpts(restarts=3, sweeps=1, seed=SEED), structured=batch)
    assert (u.shape, val.shape, used) == ((2, 5, 3, 3), (2, 5), 5)
    assert len(shapes) == 1 + n_iso_params(3, 3)
    assert shapes[0] == (2, 5, 5, 3, 3)
    assert all(s == (2, 2, 5, 5, 3, 3) for s in shapes[1:])


@settings(max_examples=30, deadline=None)
@given(
    shape=st.sampled_from([(2, 1), (2, 2), (3, 2), (3, 3)]),
    batch=st.sampled_from([(1,), (3,), (2, 2)]),
    seed=st.integers(0, 2**31 - 1),
    restarts=st.integers(0, 2),
    sweeps=st.integers(0, 2),
    n_structured=st.integers(0, 2),
    minimize=st.booleans(),
)
def test_batched_search_matches_one_search_per_problem(shape, batch, seed, restarts, sweeps, n_structured, minimize):
    n, k = shape
    if n_structured == 0 and restarts == 0:
        restarts = 1
    g = rng(seed)
    c = g.normal(size=batch + (n, k)) + 1j * g.normal(size=batch + (n, k))
    structured = np.array([haar_unitary(n, seed=g) for _ in range(int(np.prod(batch)) * n_structured)])
    structured = structured.reshape(batch + (n_structured, n, n))
    if n_structured == 2:
        structured[..., 1, :, :] = structured[..., 0, :, :]  # a repeated start ties and goes first

    def objective_for(cs):
        def objective(vs):
            rows = zip(np.broadcast_to(cs[..., None, :, :], vs.shape).reshape(-1, n, k), vs.reshape(-1, n, k))
            return np.array([np.vdot(ci, v).real for ci, v in rows]).reshape(vs.shape[:-2])
        return objective

    opts = OptOpts(restarts=restarts, sweeps=sweeps, seed=seed)
    got = search_isometry(objective_for(c), n, k, opts, structured, minimize)
    assert got[0].shape == batch + (n, k) and got[1].shape == batch
    for i in np.ndindex(*batch):
        want = search_isometry(objective_for(c[i]), n, k, opts, list(structured[i]), minimize)
        assert got[0][i].tobytes() == want[0].tobytes()
        assert got[1][i].tobytes() == np.float64(want[1]).tobytes()
        assert got[2] == want[2]
