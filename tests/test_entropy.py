"""Entropies and divergences, pinned to log base 2."""

import math

import numpy as np
import pytest

from qce.cusc import random_cusc
from qce import channels as qc
from qce.entropy import (
    DMAX,
    UMEGAKI,
    coherent_information,
    cond_entropy_down,
    divergence,
    dual_cond_entropy,
    vn_cond_entropy,
    vn_entropy,
)
from qce.linalg import (
    density,
    group_dims,
    ket,
    max_entangled,
    maximally_mixed,
    partial_trace,
    permute_systems,
    pure,
    purify,
    random_density,
    random_pure,
    rng,
)

SEED = 20240820
N_TRIALS = 20
LOG2_3_MINUS_1 = 0.5849625007211561  # frozen: log2(3) - 1


def test_vn_entropy_examples():
    assert vn_entropy(pure(ket(0, 2), (2,))) == 0.0
    assert abs(vn_entropy(maximally_mixed((2,))) - 1.0) < 1e-12
    assert abs(vn_entropy(density(np.diag([0.5, 0.25, 0.25]), (3,))) - 1.5) < 1e-12


def test_divergence_zero_on_equal_states():
    g = rng(SEED)
    for _ in range(N_TRIALS):
        s = random_density((3,), seed=g)
        assert abs(divergence(UMEGAKI, s, s)) < 1e-9
        assert abs(divergence(DMAX, s, s)) < 1e-9


def test_divergence_frozen_values():
    # D(|0><0| || u2) = 1 for Umegaki; D_max(phi+ || uA x uB) = 2 at d = 2
    assert abs(divergence(UMEGAKI, pure(ket(0, 2), (2,)), maximally_mixed((2,))) - 1.0) < 1e-10
    phi = max_entangled(2)
    assert abs(divergence(DMAX, phi, maximally_mixed((2, 2))) - 2.0) < 1e-10


def test_divergence_infinite_outside_support():
    rho = pure(ket(0, 2), (2,))
    sigma = pure(ket(1, 2), (2,))
    assert divergence(UMEGAKI, rho, sigma) == math.inf
    assert divergence(DMAX, rho, sigma) == math.inf


def test_divergence_nonnegative_and_dmax_dominates():
    # D_max >= D_umegaki >= 0 on random pairs
    g = rng(SEED + 1)
    for _ in range(N_TRIALS):
        rho = random_density((3,), seed=g)
        sigma = random_density((3,), seed=g)
        du = divergence(UMEGAKI, rho, sigma)
        dm = divergence(DMAX, rho, sigma)
        assert du >= -1e-9
        assert dm >= du - 1e-8


def test_cond_entropy_down_maximally_entangled():
    for d in (2, 3, 4):
        phi = max_entangled(d)
        assert abs(cond_entropy_down(phi, UMEGAKI) + math.log2(d)) < 1e-8
        assert abs(cond_entropy_down(phi, DMAX) + math.log2(d)) < 1e-8


def test_cond_entropy_down_normalization():
    # H(u2) = 1 with a trivial conditioning system
    u2 = density(np.eye(2) / 2, (2, 1))
    assert cond_entropy_down(u2, UMEGAKI) == 1.0
    assert abs(cond_entropy_down(u2, DMAX) - 1.0) < 1e-12


def test_umegaki_down_equals_vn_conditional():
    # with sigma_B pinned at rho_B the Umegaki variant is the von Neumann one
    g = rng(SEED + 2)
    for _ in range(N_TRIALS):
        s = random_density((2, 3), seed=g)
        assert abs(cond_entropy_down(s, UMEGAKI) - vn_cond_entropy(s)) < 1e-8


def test_vn_cond_entropy_frozen_example():
    rho = density((np.eye(4) - max_entangled(2).mat) / 3, (2, 2))
    assert abs(vn_cond_entropy(rho) - LOG2_3_MINUS_1) < 1e-10


def test_lower_bound_random_states():
    g = rng(SEED + 3)
    for dims in ((2, 2), (2, 3), (3, 2)):
        bound = -math.log2(min(dims))
        for _ in range(N_TRIALS):
            s = random_density(dims, seed=g)
            for kind in (UMEGAKI, DMAX):
                assert cond_entropy_down(s, kind) >= bound - 1e-7


def test_additivity_on_tensor_pairs():
    g = rng(SEED + 4)
    for _ in range(10):
        s1 = random_density((2, 2), seed=g)
        s2 = random_density((2, 2), seed=g)
        joint = permute_systems(
            density(np.kron(s1.mat, s2.mat), (2, 2, 2, 2)), [0, 2, 1, 3]
        )  # regroup to (A1 A2, B1 B2)
        joint = group_dims(joint, [[0, 1], [2, 3]])
        for kind in (UMEGAKI, DMAX):
            total = cond_entropy_down(joint, kind)
            parts = cond_entropy_down(s1, kind) + cond_entropy_down(s2, kind)
            assert abs(total - parts) < 1e-7, kind


def test_monotone_under_cusc():
    g = rng(SEED + 5)
    for trial in range(10):
        s = random_density((2, 2), seed=g)
        ch = random_cusc(2, 2, seed=trial)
        out = qc.apply(ch, s)
        out = density(out.mat, (2, out.side // 2))
        for kind in (UMEGAKI, DMAX):
            assert cond_entropy_down(out, kind) >= cond_entropy_down(s, kind) - 1e-7


def test_vn_self_duality():
    g = rng(SEED + 6)
    for _ in range(N_TRIALS):
        s = random_density((2, 2), seed=g)
        assert abs(dual_cond_entropy(vn_cond_entropy, s) - vn_cond_entropy(s)) < 1e-7


def test_dual_matches_explicit_purification():
    # reference: -h on (A, reference) of the full canonical purification
    g = rng(SEED + 10)
    scores = (
        lambda s: cond_entropy_down(s, UMEGAKI),
        lambda s: cond_entropy_down(s, DMAX),
        vn_cond_entropy,
    )
    for dims in ((2, 2), (2, 3), (3, 4), (4, 5)):
        for rank in (None, 1, 2):
            s = random_density(dims, rank=rank, seed=g)
            for h in scores:
                want = -h(partial_trace(purify(s), [0, 2]))
                assert abs(dual_cond_entropy(h, s) - want) < 1e-12, (dims, rank)


def test_umegaki_self_duality_8x8():
    s = random_density((8, 8), seed=SEED + 11)
    want = cond_entropy_down(s, UMEGAKI)
    assert abs(dual_cond_entropy(lambda x: cond_entropy_down(x, UMEGAKI), s) - want) < 1e-7


def test_dual_on_product_states():
    g = rng(SEED + 7)
    for _ in range(10):
        a = random_density((2,), seed=g)
        b = random_density((3,), seed=g)
        s = density(np.kron(a.mat, b.mat), (2, 3))
        assert abs(dual_cond_entropy(vn_cond_entropy, s) - vn_entropy(a)) < 1e-8


def test_coherent_information():
    assert abs(coherent_information(max_entangled(2)) - 1.0) < 1e-10
    g = rng(SEED + 8)
    for _ in range(10):
        a = random_density((2,), seed=g)
        b = random_density((2,), seed=g)
        s = density(np.kron(a.mat, b.mat), (2, 2))
        assert abs(coherent_information(s) + vn_entropy(a)) < 1e-8


def test_separable_mixtures_nonnegative_vn():
    g = rng(SEED + 9)
    for _ in range(N_TRIALS):
        mat = np.zeros((4, 4), dtype=complex)
        ps = g.dirichlet(np.ones(3))
        for p in ps:
            mat += p * np.kron(random_pure((2,), seed=g).mat, random_pure((2,), seed=g).mat)
        s = density(mat, (2, 2))
        assert vn_cond_entropy(s) >= -1e-8


def test_pure_entangled_states_go_negative():
    assert vn_cond_entropy(max_entangled(2)) < -0.99


def test_divergence_rejects_shape_mismatch():
    with pytest.raises(ValueError):
        divergence(UMEGAKI, maximally_mixed((2,)), maximally_mixed((3,)))
    with pytest.raises(ValueError):
        divergence("renyi", maximally_mixed((2,)), maximally_mixed((2,)))
