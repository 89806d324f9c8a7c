"""Conditionally unital semi-causal channels: verdicts and constructions."""

import numpy as np
import pytest

from qce import channels as qc
from qce.cusc import (
    bell_scrambler,
    cds_channel,
    conditional_unitality_violation,
    is_conditionally_unital,
    is_cusc,
    is_semicausal,
    nonneg_witness_channel,
    nonneg_witness_choi_deviations,
    nonneg_witness_composite,
    random_cusc,
    semicausal_choi_violation,
    semicausal_from_parts,
    semicausal_operational_violation,
    separable_prep_channel,
    teleport_cusc,
    unitary_sending_zero_to,
)
from qce.linalg import (
    density,
    ket,
    kron,
    max_entangled,
    maximally_mixed,
    permutation_matrix,
    permute_systems,
    proj,
    pure,
    random_density,
    rng,
)

SEED = 20240819
TOL = 1e-7


def _swap_channel():
    return qc.unitary_channel(permutation_matrix((2, 2), [1, 0]), (2, 2))


def _cnot_channel():
    m = np.zeros((4, 4))
    m[0, 0] = m[1, 1] = m[2, 3] = m[3, 2] = 1.0
    return qc.unitary_channel(m, (2, 2))


def test_identity_tensor_anything_is_cusc():
    g = rng(SEED)
    for _ in range(10):
        f = qc.random_channel(2, 2, seed=g)
        ch = qc.tensor(qc.identity_channel((2,)), f)
        v = is_cusc(ch)
        assert v.conditionally_unital and v.semicausal_choi
        assert v.max_violation <= TOL


def test_swap_fails_both():
    v = is_cusc(_swap_channel())
    assert not v.conditionally_unital
    assert not v.semicausal_choi
    assert v.max_violation >= 1e-3


def test_cnot_fails_both():
    ch = _cnot_channel()
    assert conditional_unitality_violation(ch) >= 1e-3
    assert semicausal_choi_violation(ch) >= 1e-3
    v = is_cusc(ch)
    assert not (v.conditionally_unital or v.semicausal_choi)


def test_operational_violation_matches_choi_verdict():
    # operational probe: measurements on A must not shift Bob's output
    assert semicausal_operational_violation(_swap_channel(), trials=6, seed=SEED) > 1e-3
    good = qc.tensor(qc.identity_channel((2,)), qc.depolarizing(0.3))
    assert semicausal_operational_violation(good, trials=6, seed=SEED) <= 1e-9
    v = is_semicausal(good, operational_trials=4, seed=SEED)
    assert v


def test_cds_single_identity_term():
    ch = cds_channel([np.eye(2)], [[np.eye(2, dtype=complex)]], 2, 2)
    v = is_cusc(ch)
    assert v.conditionally_unital and v.semicausal_choi
    # acts as the classical identity on A (x) identity on B
    s = random_density((2, 2), seed=SEED)
    want = qc.apply(qc.tensor(qc.classical_identity(2), qc.identity_channel((2,))), s)
    np.testing.assert_allclose(qc.apply(ch, s).mat, want.mat, atol=1e-10)


def test_cds_measurement_instrument_is_cusc():
    g = rng(SEED + 1)
    for trial in range(5):
        # two doubly stochastic terms paired with a qubit measurement instrument
        lam = g.uniform(0.2, 0.8)
        d0 = lam * np.eye(2) + (1 - lam) * np.array([[0.0, 1.0], [1.0, 0.0]])
        mu = g.uniform(0.2, 0.8)
        d1 = mu * np.eye(2) + (1 - mu) * np.array([[0.0, 1.0], [1.0, 0.0]])
        fs = [[proj(ket(0, 2))], [proj(ket(1, 2))]]  # instrument of a projective measurement
        ch = cds_channel([d0, d1], fs, 2, 2)
        v = is_cusc(ch)
        assert v.conditionally_unital and v.semicausal_choi, f"trial {trial}"


def test_cds_rejects_non_doubly_stochastic():
    bad = np.array([[0.9, 0.3], [0.1, 0.7]])
    with pytest.raises(ValueError, match="doubly stochastic"):
        cds_channel([bad], [[np.eye(2, dtype=complex)]], 2, 2)


def test_semicausal_from_parts_product():
    # f copies B into (R, B'); e traces R and keeps A: product of local maps
    v_iso = np.zeros((4, 2), dtype=complex)
    v_iso[0, 0] = v_iso[3, 1] = 1.0  # |b> -> |b>|b>
    f = qc.QuantumChannel((2,), (2, 2), (v_iso,))
    tr_r = qc.QuantumChannel((2, 2), (2,), tuple(kron(ket(r, 2).conj()[None, :], np.eye(2)) for r in range(2)))
    ch = semicausal_from_parts(f, tr_r)
    assert is_semicausal(ch)


def test_semicausal_from_parts_random():
    # R with one factor (2,) and with two factors (2, 2); |B'| = |B|
    g = rng(SEED + 2)
    for r_dims, db, n_trials in (((2,), 2, 20), ((2, 2), 3, 5)):
        r = int(np.prod(r_dims))
        for trial in range(n_trials):
            blocks = np.linalg.qr(g.normal(size=(r * db, r * db)) + 1j * g.normal(size=(r * db, r * db)))[0][:, :db]
            f = qc.QuantumChannel((db,), r_dims + (db,), (blocks,))
            e = qc.random_channel(r * 2, 2, seed=g)
            e = qc.QuantumChannel(r_dims + (2,), (2,), e.kraus)
            ch = semicausal_from_parts(f, e)
            assert ch.in_dims == (2, db) and ch.out_dims == (2, db)
            assert is_semicausal(ch), f"seed stream trial {trial}, R dims {r_dims}"
            assert semicausal_choi_violation(ch) <= TOL


def test_teleport_reaches_uniform_target():
    target = maximally_mixed((2, 2))
    ch = teleport_cusc(target)
    out = qc.apply(ch, max_entangled(2))
    np.testing.assert_allclose(out.mat, np.eye(4) / 4, atol=1e-10)
    v = is_cusc(ch)
    assert v.conditionally_unital and v.semicausal_choi


def test_teleport_reaches_antisymmetric_like_target():
    target = density((np.eye(4) - max_entangled(2).mat) / 3, (2, 2))
    ch = teleport_cusc(target)
    out = qc.apply(ch, max_entangled(2))
    np.testing.assert_allclose(out.mat, target.mat, atol=1e-10)
    assert is_cusc(ch).max_violation <= TOL


def test_teleport_random_targets():
    g = rng(SEED + 3)
    cases = [((2, 2), None)] * 5 + [((4, 4), None), ((3, 3), 1)]
    for dims, rank in cases:
        target = random_density(dims, rank=rank, seed=g)
        ch = teleport_cusc(target)
        d = dims[0]
        assert len(ch.kraus) == d * d * (rank or d * d)
        np.testing.assert_allclose(qc.apply(ch, max_entangled(d)).mat, target.mat, atol=1e-9)
        assert is_cusc(ch).max_violation <= TOL


def test_bell_scrambler_is_cusc_and_breaks_entanglement():
    for d in (2, 3):
        ch = bell_scrambler(d)
        v = is_cusc(ch)
        assert v.conditionally_unital and v.semicausal_choi
        # entangled pair on (A, B), passive uniform A2, input order (A, A2, B)
        inp = permute_systems(max_entangled(d).tensor(maximally_mixed((d,))), [0, 2, 1])
        out = qc.apply(ch, density(inp.mat, ch.in_dims))
        # the scrambled pair collapses to the first flag state exactly
        np.testing.assert_allclose(out.mat, proj(ket(0, d * d)), atol=1e-10)


def test_nonneg_witness_conditions():
    rho = density((np.eye(4) - max_entangled(2).mat) / 3, (2, 2))
    ch = nonneg_witness_channel(rho)
    dev_in, dev_cross = nonneg_witness_choi_deviations(ch)
    assert dev_in <= TOL and dev_cross <= TOL
    comp = nonneg_witness_composite(rho)
    out = qc.apply(comp, pure(ket(0, 2), (2,)))
    np.testing.assert_allclose(out.mat, rho.mat, atol=1e-9)


def test_nonneg_witness_rejects_peaked_spectrum():
    # lambda_max = 0.7 > 1/2
    rho = density(np.diag([0.7, 0.0, 0.0, 0.3]), (2, 2))
    with pytest.raises(ValueError, match="1/d"):
        nonneg_witness_channel(rho)


def test_nonneg_witness_rejects_biased_marginal():
    mat = np.diag([0.5, 0.2, 0.2, 0.1])
    with pytest.raises(ValueError):
        nonneg_witness_channel(density(mat, (2, 2)))


def test_unitary_sending_zero_to():
    g = rng(SEED + 4)
    for d in (2, 3, 4):
        psi = g.normal(size=d) + 1j * g.normal(size=d)
        psi /= np.linalg.norm(psi)
        u = unitary_sending_zero_to(psi)
        np.testing.assert_allclose(u.conj().T @ u, np.eye(d), atol=1e-10)
        np.testing.assert_allclose(u[:, 0], psi, atol=1e-10)


def test_separable_prep_single_term():
    ch = separable_prep_channel([(1.0, ket(0, 2), ket(0, 2))])
    out = qc.apply(ch, pure(kron(ket(0, 2), ket(0, 2)), (2, 2)))
    np.testing.assert_allclose(out.mat, proj(kron(ket(0, 2), ket(0, 2))), atol=1e-12)


def test_separable_prep_correlated_mixture():
    ch = separable_prep_channel([(0.5, ket(0, 2), ket(0, 2)), (0.5, ket(1, 2), ket(1, 2))])
    out = qc.apply(ch, pure(kron(ket(0, 2), ket(0, 2)), (2, 2)))
    want = 0.5 * proj(kron(ket(0, 2), ket(0, 2))) + 0.5 * proj(kron(ket(1, 2), ket(1, 2)))
    np.testing.assert_allclose(out.mat, want, atol=1e-12)


def test_separable_prep_matches_mixture():
    g = rng(SEED + 5)
    for _ in range(5):
        parts = []
        ps = g.dirichlet(np.ones(3))
        for p in ps:
            psi = g.normal(size=2) + 1j * g.normal(size=2)
            phi = g.normal(size=2) + 1j * g.normal(size=2)
            parts.append((float(p), psi / np.linalg.norm(psi), phi / np.linalg.norm(phi)))
        ch = separable_prep_channel(parts)
        out = qc.apply(ch, pure(kron(ket(0, 2), ket(0, 2)), (2, 2)))
        want = sum(p * kron(proj(psi), proj(phi)) for p, psi, phi in parts)
        np.testing.assert_allclose(out.mat, want, atol=1e-10)


def test_random_cusc_always_verifies():
    for seed in range(12):
        ch = random_cusc(2, 2, seed=seed)
        v = is_cusc(ch)
        assert v.conditionally_unital and v.semicausal_choi, f"seed {seed}"
        assert v.max_violation <= TOL
