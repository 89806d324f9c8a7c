"""Kraus/Choi channel representations and the named qubit zoo."""

import numpy as np
import pytest

from qce import channels as qc
from qce.cusc import bell_scrambler, cds_channel, is_cusc, random_cusc, separable_prep_channel, teleport_cusc
from qce.linalg import (
    dagger,
    density,
    ket,
    max_entangled,
    maximally_mixed,
    permutation_matrix,
    proj,
    pure,
    random_density,
    rng,
)

SEED = 20240818
N_TRIALS = 20


def _swap():
    m = np.zeros((4, 4))
    for i in range(2):
        for j in range(2):
            m[j * 2 + i, i * 2 + j] = 1.0
    return m


def test_kraus_validation():
    with pytest.raises(ValueError):
        qc.channel([np.array([[1.0, 0.0], [0.0, 0.5]])], (2,), (2,))  # not TP


def test_identity_and_unitary_action():
    g = rng(SEED)
    ch = qc.identity_channel((2, 2))
    for _ in range(N_TRIALS):
        s = random_density((2, 2), seed=g)
        np.testing.assert_allclose(qc.apply(ch, s).mat, s.mat, atol=1e-12)
    u = _swap()
    uch = qc.unitary_channel(u, dims=(2, 2))
    s = random_density((2, 2), seed=g)
    np.testing.assert_allclose(qc.apply(uch, s).mat, u @ s.mat @ u.T, atol=1e-12)


def test_choi_trace_and_marginal():
    g = rng(SEED + 1)
    for _ in range(N_TRIALS):
        ch = qc.random_channel(2, 3, seed=g)
        j = qc.choi(ch)
        assert abs(np.trace(j).real - 2.0) < 1e-9
        # TP: tracing the output leg leaves the identity on the input copy
        marg = np.einsum(j.reshape(2, 3, 2, 3), [0, 2, 1, 2])
        np.testing.assert_allclose(marg, np.eye(2), atol=1e-8)
        assert np.linalg.eigvalsh(j).min() > -1e-9


def test_choi_roundtrip():
    g = rng(SEED + 2)
    for _ in range(N_TRIALS):
        ch = qc.random_channel(2, 2, kraus_rank=3, seed=g)
        back = qc.from_choi(qc.choi(ch), (2,), (2,))
        s = random_density((2,), seed=g)
        np.testing.assert_allclose(qc.apply(back, s).mat, qc.apply(ch, s).mat, atol=1e-8)


def test_from_choi_rejects_non_cp():
    j = np.diag([1.0, -0.2, 1.0, 0.2])
    with pytest.raises(ValueError, match="not completely positive"):
        qc.from_choi(j, (2,), (2,))


def test_from_choi_rejects_non_tp():
    j = np.diag([1.0, 0.5, 0.25, 0.25])  # PSD but Tr_out != I
    with pytest.raises(ValueError, match="not trace preserving"):
        qc.from_choi(j, (2,), (2,))


def test_replacement_choi_pattern():
    # J(R_sigma) = I_in (x) sigma
    g = rng(SEED + 3)
    for _ in range(N_TRIALS):
        sigma = random_density((2,), seed=g)
        ch = qc.replacement(sigma)
        np.testing.assert_allclose(qc.choi(ch), np.kron(np.eye(2), sigma.mat), atol=1e-10)
        back = qc.from_choi(np.kron(np.eye(2), sigma.mat), (2,), (2,))
        s = random_density((2,), seed=g)
        np.testing.assert_allclose(qc.apply(back, s).mat, sigma.mat, atol=1e-8)


def test_depolarizing_choi_closed_form():
    # J = (1-g) * (unnormalized phi+) + (g't/2) I4 at d = 2
    gam = 0.4
    ch = qc.depolarizing(gam)
    want = 0.6 * 2 * max_entangled(2).mat + (gam / 2) * np.eye(4)
    np.testing.assert_allclose(qc.choi(ch), want, atol=1e-10)


def test_depolarizing_semigroup():
    g = rng(SEED + 4)
    g1, g2 = 0.3, 0.5
    both = qc.compose(qc.depolarizing(g2), qc.depolarizing(g1))
    eff = qc.depolarizing(1 - (1 - g1) * (1 - g2))  # = 0.65
    for _ in range(N_TRIALS):
        s = random_density((2,), seed=g)
        np.testing.assert_allclose(qc.apply(both, s).mat, qc.apply(eff, s).mat, atol=1e-10)


def test_compose_unitary_inverse():
    u = _swap()
    ch = qc.compose(qc.unitary_channel(u.T), qc.unitary_channel(u))
    s = random_density((2, 2), seed=SEED)
    np.testing.assert_allclose(qc.apply_mat(ch, s.mat), s.mat, atol=1e-12)


def test_tensor_with_randomizing_branch():
    g = rng(SEED + 5)
    idc = qc.identity_channel((2,))
    rand = qc.randomizing(2)
    joint = qc.tensor(idc, rand)
    for _ in range(N_TRIALS):
        a = random_density((2,), seed=g)
        b = random_density((2,), seed=g)
        out = qc.apply(joint, a.tensor(b))
        np.testing.assert_allclose(out.mat, np.kron(a.mat, np.eye(2) / 2), atol=1e-10)


def test_povm_channel_on_plus_state():
    plus = pure((ket(0, 2) + ket(1, 2)) / np.sqrt(2), (2,))
    ch = qc.povm_channel([proj(ket(0, 2)), proj(ket(1, 2))])
    np.testing.assert_allclose(qc.apply(ch, plus).mat, np.eye(2) / 2, atol=1e-12)


def test_povm_channel_rejects_bad_elements():
    with pytest.raises(ValueError):
        qc.povm_channel([proj(ket(0, 2)), 0.5 * proj(ket(1, 2))])  # does not resolve identity


def test_amplitude_damping_unilateral_spectrum():
    # (A_g (x) id)(phi+) has spectrum {1 - g/2, g/2, 0, 0}; frozen oracle at g = 0.3
    gam = 0.3
    big = qc.tensor(qc.amplitude_damping(gam), qc.identity_channel((2,)))
    out = qc.apply(big, max_entangled(2))
    lam = np.sort(np.linalg.eigvalsh(out.mat))[::-1]
    np.testing.assert_allclose(lam, [0.85, 0.15, 0.0, 0.0], atol=1e-10)


def test_dephasing_kills_off_diagonals():
    gam = 1.0
    ch = qc.dephasing(gam)
    s = pure((ket(0, 2) + ket(1, 2)) / np.sqrt(2), (2,))
    np.testing.assert_allclose(qc.apply(ch, s).mat, np.eye(2) / 2, atol=1e-12)
    # gamma = 0 is the identity
    s2 = random_density((2,), seed=SEED)
    np.testing.assert_allclose(qc.apply(qc.dephasing(0.0), s2).mat, s2.mat, atol=1e-12)


def test_classical_identity_decoheres():
    ch = qc.classical_identity(2)
    s = pure((ket(0, 2) + ket(1, 2)) / np.sqrt(2), (2,))
    np.testing.assert_allclose(qc.apply(ch, s).mat, np.eye(2) / 2, atol=1e-12)
    d = density(np.diag([0.7, 0.3]), (2,))
    np.testing.assert_allclose(qc.apply(ch, d).mat, d.mat, atol=1e-12)


def test_compress_drops_null_kraus():
    ks = (np.eye(2, dtype=complex), np.zeros((2, 2), dtype=complex))
    ch = qc.QuantumChannel((2,), (2,), ks)
    small = qc.compress(ch)
    assert len(small.kraus) == 1
    s = random_density((2,), seed=SEED)
    np.testing.assert_allclose(qc.apply(small, s).mat, s.mat, atol=1e-12)


def test_random_channel_is_tp_and_seeded():
    for seed in range(5):
        ch = qc.random_channel(3, 2, seed=seed)
        acc = sum(dagger(k) @ k for k in ch.kraus)
        np.testing.assert_allclose(acc, np.eye(3), atol=1e-10)
    a = qc.random_channel(2, 2, seed=11)
    b = qc.random_channel(2, 2, seed=11)
    for ka, kb in zip(a.kraus, b.kraus):
        np.testing.assert_array_equal(ka, kb)


def test_make_dispatch():
    ch = qc.make("depolarizing", gamma=0.2, d=2)
    np.testing.assert_allclose(qc.choi(ch), qc.choi(qc.depolarizing(0.2)), atol=1e-12)
    ch2 = qc.make("replacement", sigma=maximally_mixed((2,)))
    np.testing.assert_allclose(qc.choi(ch2), np.eye(4) / 2, atol=1e-12)
    with pytest.raises((KeyError, ValueError)):
        qc.make("not_a_channel")


def _choi_outer_loop(ch):
    """Sum of one outer product per Kraus operator, as ``choi`` was first written."""
    j = np.zeros((ch.din * ch.dout, ch.din * ch.dout), dtype=complex)
    for k in ch.kraus:
        v = k.T.reshape(-1)
        j += np.outer(v, v.conj())
    return j


def test_choi_matches_the_outer_product_loop():
    g = rng(SEED + 6)
    u = np.linalg.qr(g.normal(size=(3, 3)) + 1j * g.normal(size=(3, 3)))[0]
    channels = [
        qc.random_channel(2, 3, kraus_rank=4, seed=g),
        qc.random_channel(3, 2, seed=g),
        qc.unitary_channel(u),
        bell_scrambler(3),
    ]
    assert len(channels[-1].kraus) == 27
    for ch in channels:
        np.testing.assert_allclose(qc.choi(ch), _choi_outer_loop(ch), rtol=0, atol=1e-14)


def _cusc_constructions(g):
    def unit(d):
        v = g.normal(size=d) + 1j * g.normal(size=d)
        return v / np.linalg.norm(v)

    def cds(m):
        v = np.linalg.qr(g.normal(size=(2 * m * m, m)) + 1j * g.normal(size=(2 * m * m, m)))[0]
        kraus = list(v.reshape(m, 2 * m, m).transpose(1, 0, 2))
        flip = np.roll(np.eye(m), 1, axis=0)
        ds = [lam * np.eye(m) + (1 - lam) * flip for lam in g.uniform(0.2, 0.8, size=2)]
        return cds_channel(ds, [kraus[0::2], kraus[1::2]], m, m)

    def prep(d):
        return separable_prep_channel([(float(p), unit(d), unit(d)) for p in g.dirichlet(np.ones(3))])

    return [
        teleport_cusc(random_density((2, 2), seed=g)), teleport_cusc(random_density((3, 3), seed=g)),
        bell_scrambler(2), bell_scrambler(3),
        cds(2), cds(2), cds(3),
        prep(2), prep(3),
        random_cusc(2, 3, seed=1), random_cusc(2, 3, seed=2),
    ]


def test_cusc_verdicts_unchanged_by_the_stacked_choi(monkeypatch):
    def swap(d):
        return permutation_matrix((d, d), [1, 0])

    cnot = np.eye(4)
    cnot[2:, 2:] = [[0.0, 1.0], [1.0, 0.0]]
    controls = [qc.unitary_channel(swap(2), (2, 2)), qc.unitary_channel(swap(3), (3, 3)),
                qc.unitary_channel(cnot, (2, 2))]
    channels = _cusc_constructions(rng(SEED + 7)) + controls
    stacked = [is_cusc(ch) for ch in channels]
    monkeypatch.setattr(qc, "choi", _choi_outer_loop)
    for ch, new in zip(channels, stacked):
        old = is_cusc(ch)
        assert new.conditionally_unital == old.conditionally_unital
        assert new.semicausal_choi == old.semicausal_choi
        assert abs(new.max_violation - old.max_violation) <= 1e-14
    assert all(v.conditionally_unital and v.semicausal_choi for v in stacked[:-3])
    assert not any(v.conditionally_unital and v.semicausal_choi for v in stacked[-3:])
