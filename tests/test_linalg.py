"""Core linear algebra: states, partial traces, spectra, majorization."""

import numpy as np
import pytest

from qce import channels as qc
from qce.linalg import (
    DensityOperator,
    dagger,
    density,
    eig_desc,
    eigh_desc,
    embed_alice,
    entangled_basis,
    fourier_matrix,
    group_dims,
    haar_unitary,
    ket,
    kron,
    kyfan,
    majorizes,
    max_entangled,
    maximally_mixed,
    partial_trace,
    permutation_matrix,
    permute_systems,
    prefix_sums,
    probability_vector,
    proj,
    pure,
    purify,
    random_density,
    random_pmf,
    random_pure,
    rng,
    shift_clock,
    spawn_rngs,
    weyl_unitaries,
)

SEED = 20240817
N_TRIALS = 25


def test_density_validation():
    with pytest.raises(ValueError):
        density(np.array([[1.0, 0.5], [0.0, 0.0]]), (2,))  # not hermitian
    with pytest.raises(ValueError):
        density(np.diag([0.7, 0.7]), (2,))  # trace != 1
    with pytest.raises(ValueError):
        density(np.diag([1.5, -0.5]), (2,))  # not PSD
    with pytest.raises(ValueError):
        density(np.eye(4) / 4, (2, 3))  # dims mismatch


def test_records_check_form_and_entry_points_check_physics():
    # a record takes any well-shaped finite matrix; density/channel check the physics
    for mat in (np.array([[1.0, 0.5], [0.0, 0.0]]), np.diag([0.7, 0.7]), np.diag([1.5, -0.5])):
        rec = DensityOperator((2,), mat)
        assert rec.dims == (2,) and rec.mat.dtype == complex
        with pytest.raises(ValueError):
            density(mat, (2,))
    ks = (2.0 * np.eye(2),)
    assert len(qc.QuantumChannel((2,), (2,), ks).kraus) == 1
    with pytest.raises(ValueError, match="not trace preserving"):
        qc.channel(ks, (2,), (2,))
    # the form checks stay on the records
    with pytest.raises(ValueError, match="does not match dims"):
        DensityOperator((2, 3), np.eye(4) / 4)
    with pytest.raises(ValueError, match="non-finite"):
        DensityOperator((2,), np.diag([np.nan, 1.0]))
    with pytest.raises(ValueError, match="at least one Kraus"):
        qc.QuantumChannel((2,), (2,), ())
    with pytest.raises(ValueError, match="Kraus shape"):
        qc.QuantumChannel((2,), (2,), (np.eye(3),))


def test_trace_one_and_psd_accepted():
    g = rng(SEED)
    for _ in range(N_TRIALS):
        s = random_density((2, 2), seed=g)
        assert abs(np.trace(s.mat) - 1.0) < 1e-12
        assert np.linalg.eigvalsh(s.mat).min() > -1e-9


def test_partial_trace_antisymmetric_like_state():
    # Tr_B[(I4 - phi+)/3] = u2; frozen from a direct 4x4 computation
    rho = density((np.eye(4) - max_entangled(2).mat) / 3, (2, 2))
    marg = partial_trace(rho, [0])
    np.testing.assert_allclose(marg.mat, np.eye(2) / 2, atol=1e-12)
    marg_b = partial_trace(rho, [1])
    np.testing.assert_allclose(marg_b.mat, np.eye(2) / 2, atol=1e-12)


def test_partial_trace_product():
    g = rng(SEED + 1)
    for _ in range(N_TRIALS):
        a = random_density((2,), seed=g)
        b = random_density((3,), seed=g)
        ab = a.tensor(b)
        np.testing.assert_allclose(partial_trace(ab, [0]).mat, a.mat, atol=1e-12)
        np.testing.assert_allclose(partial_trace(ab, [1]).mat, b.mat, atol=1e-12)


def test_partial_trace_preserves_trace_and_psd():
    g = rng(SEED + 2)
    for _ in range(N_TRIALS):
        s = random_density((2, 3, 2), seed=g)
        for keep in ([0], [1], [2], [0, 2], [1, 2]):
            m = partial_trace(s, keep)
            assert abs(np.trace(m.mat) - 1.0) < 1e-10
            assert np.linalg.eigvalsh(m.mat).min() > -1e-9


def test_permute_systems_roundtrip():
    g = rng(SEED + 3)
    for _ in range(N_TRIALS):
        s = random_density((2, 3, 2), seed=g)
        p = permute_systems(s, [2, 0, 1])
        back = permute_systems(p, [1, 2, 0])
        np.testing.assert_allclose(back.mat, s.mat, atol=1e-12)
        assert p.dims == (2, 2, 3)


def test_permute_matches_permutation_matrix():
    g = rng(SEED + 4)
    dims = (2, 3)
    for _ in range(N_TRIALS):
        s = random_density(dims, seed=g)
        u = permutation_matrix(dims, [1, 0])
        np.testing.assert_allclose(
            permute_systems(s, [1, 0]).mat, u @ s.mat @ dagger(u), atol=1e-12
        )


def test_group_dims_is_metadata_only():
    s = random_density((2, 2, 3), seed=SEED)
    grouped = group_dims(s, [[0, 1], [2]])
    assert grouped.dims == (4, 3)
    np.testing.assert_allclose(grouped.mat, s.mat)


def test_eigh_desc_ordering_and_reconstruction():
    g = rng(SEED + 5)
    for _ in range(N_TRIALS):
        s = random_density((4,), seed=g)
        vals, vecs = eigh_desc(s.mat)
        assert np.all(np.diff(vals) <= 1e-12)
        np.testing.assert_allclose(vecs @ np.diag(vals) @ dagger(vecs), s.mat, atol=1e-10)


def test_isotropic_spectrum():
    # (1-g) phi+ + g I/4 at g = 0.4 has eigenvalues (0.7, 0.1, 0.1, 0.1)
    iso = density(0.6 * max_entangled(2).mat + 0.1 * np.eye(4), (2, 2))
    np.testing.assert_allclose(eig_desc(iso.mat), [0.7, 0.1, 0.1, 0.1], atol=1e-12)
    assert abs(kyfan(iso.mat, 1) - 0.7) < 1e-12
    assert abs(kyfan(iso.mat, 4) - 1.0) < 1e-12


def test_kyfan_monotone_and_clipped():
    g = rng(SEED + 6)
    for _ in range(N_TRIALS):
        s = random_density((2, 2), seed=g)
        vals = [kyfan(s.mat, w) for w in range(1, 5)]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
        assert abs(vals[-1] - 1.0) < 1e-10
    with pytest.raises(ValueError):
        kyfan(np.eye(4) / 4, 9)  # w out of range
    with pytest.raises(ValueError):
        kyfan(np.eye(4) / 4, 0)


def test_prefix_sums():
    np.testing.assert_allclose(prefix_sums(np.array([0.5, 0.3, 0.2])), [0.5, 0.8, 1.0])


def test_majorizes_examples():
    # prefix sums 0.6 >= 0.5, 1.0 >= 0.8, 1.0 >= 1.0
    assert majorizes([0.6, 0.4], [0.5, 0.3, 0.2])
    assert not majorizes([0.5, 0.5], [1.0, 0.0])
    assert majorizes([1.0, 0.0], [0.5, 0.5])
    assert majorizes([0.5, 0.5], [0.5, 0.5])


def test_majorizes_requires_equal_mass():
    with pytest.raises(ValueError):
        majorizes([0.6, 0.3], [0.5, 0.5])
    with pytest.raises(ValueError):
        majorizes([0.6, -0.1, 0.5], [0.5, 0.5])


def test_probability_vector_rejects_nan_and_bad_mass():
    np.testing.assert_array_equal(probability_vector([0.25, 0.75]), [0.25, 0.75])
    for bad in ([float("nan"), 1.0], [0.6, 0.6], [1.1, -0.1], [], [[0.5, 0.5]]):
        with pytest.raises(ValueError, match="probability vector"):
            probability_vector(bad)


def test_majorizes_uniform_is_bottom():
    g = rng(SEED + 7)
    for _ in range(N_TRIALS):
        p = random_pmf(5, seed=g)
        assert majorizes(p, np.full(5, 0.2))


def test_purify_spectral_example():
    # diag(0.7, 0.3) purifies to sqrt(0.7)|00> + sqrt(0.3)|11>
    s = density(np.diag([0.7, 0.3]), (2,))
    phi = purify(s)
    want = np.sqrt(0.7) * kron(ket(0, 2), ket(0, 2)) + np.sqrt(0.3) * kron(ket(1, 2), ket(1, 2))
    np.testing.assert_allclose(phi.mat, np.outer(want, want.conj()), atol=1e-12)
    assert phi.dims == (2, 2)


def test_purify_pure_state_gets_trivial_reference():
    s = pure(ket(1, 3), (3,))
    phi = purify(s)
    assert phi.dims == (3, 1)
    np.testing.assert_allclose(phi.mat, s.mat, atol=1e-12)


def test_purify_marginal_recovered():
    g = rng(SEED + 8)
    for _ in range(N_TRIALS):
        s = random_density((2, 2), seed=g)
        phi = purify(s)
        keep = list(range(len(s.dims)))
        np.testing.assert_allclose(partial_trace(phi, keep).mat, s.mat, atol=1e-10)
        # purity of the big state
        assert abs(np.trace(phi.mat @ phi.mat).real - 1.0) < 1e-10


def test_haar_unitary_is_unitary_and_seeded():
    for d in (2, 3, 5):
        u = haar_unitary(d, seed=SEED)
        np.testing.assert_allclose(dagger(u) @ u, np.eye(d), atol=1e-12)
    np.testing.assert_array_equal(haar_unitary(3, seed=7), haar_unitary(3, seed=7))
    assert np.abs(haar_unitary(3, seed=7) - haar_unitary(3, seed=8)).max() > 1e-3


def test_spawn_rngs_streams_are_stable():
    a = [g.random() for g in spawn_rngs(5, 3)]
    b = [g.random() for g in spawn_rngs(5, 3)]
    assert a == b
    assert len(set(a)) == 3


def test_random_pure_and_pmf():
    g = rng(SEED + 9)
    for _ in range(N_TRIALS):
        s = random_pure((2, 2), seed=g)
        assert abs(np.trace(s.mat @ s.mat).real - 1.0) < 1e-10
        p = random_pmf(4, seed=g)
        assert abs(p.sum() - 1.0) < 1e-12 and p.min() >= 0


def test_shift_clock_weyl_relations():
    for d in (2, 3):
        x, z = shift_clock(d)
        np.testing.assert_allclose(z @ x, np.exp(2j * np.pi / d) * (x @ z), atol=1e-12)
        ws = weyl_unitaries(d)
        assert len(ws) == d * d
        for w in ws:
            np.testing.assert_allclose(dagger(w) @ w, np.eye(d), atol=1e-12)


def test_entangled_basis_orthonormal():
    for d in (2, 3):
        basis = entangled_basis(d)
        assert len(basis) == d * d
        gram = np.array([[np.vdot(a, b) for b in basis] for a in basis])
        np.testing.assert_allclose(gram, np.eye(d * d), atol=1e-12)
        phi = max_entangled(d)
        np.testing.assert_allclose(proj(basis[0]), phi.mat, atol=1e-12)


def test_fourier_matrix_unitary():
    f = fourier_matrix(4)
    np.testing.assert_allclose(dagger(f) @ f, np.eye(4), atol=1e-12)


def test_embed_alice_pads_with_zeros():
    s = random_density((2, 2), seed=SEED)
    big = embed_alice(s, 4)
    assert big.dims == (4, 2)
    np.testing.assert_allclose(big.mat[:4, :4], s.mat, atol=1e-12)
    assert np.abs(big.mat[4:, :]).max() == 0.0


def test_maximally_mixed():
    u = maximally_mixed((2, 3))
    assert u.dims == (2, 3)
    np.testing.assert_allclose(u.mat, np.eye(6) / 6)


def test_density_operator_equality_frozen():
    s = maximally_mixed((2,))
    with pytest.raises(Exception):
        s.mat = np.eye(2)  # frozen dataclass
    assert isinstance(s, DensityOperator)
