"""Classical joints, host games, and the conditional-majorization LP.

The product-space LP that decided the ordering before the one-LP decision
(``_lp_system``) is kept here as the reference for the verdicts.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog
from scipy.sparse import coo_array

from qce import classical
from qce.classical import (
    GAME_GAP,
    ClassicalJoint,
    HostMatrix,
    _descending,
    _t_transforms,
    _witness_lp,
    apply_cds_classical,
    cond_majorizes_classical,
    embed_classical,
    fixed_w_host,
    fixed_w_value,
    prob_t,
    random_cds_data,
    random_host,
    random_joint,
    shannon_cond_entropy,
    uniform_target_certificate,
)
from qce.entropy import vn_cond_entropy
from qce.linalg import ATOL, random_doubly_stochastic, rng

SEED = 20240821


def test_joint_validation():
    with pytest.raises(ValueError):
        ClassicalJoint(np.array([0.5, 0.5]))  # not a matrix
    with pytest.raises(ValueError):
        ClassicalJoint(np.array([[0.9, 0.2], [0.0, 0.0]]))  # sums above 1
    with pytest.raises(ValueError):
        ClassicalJoint(np.array([[1.1, -0.1], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        ClassicalJoint(np.array([[np.nan, 0.5], [0.25, 0.25]]))


def test_host_validation():
    with pytest.raises(ValueError):
        HostMatrix(np.array([0.5, 0.5]))  # not a matrix
    with pytest.raises(ValueError):
        HostMatrix(np.array([[0.5, 1.0], [0.5 + 2 * ATOL, 0.0]]))  # a column sums above 1
    with pytest.raises(ValueError):
        HostMatrix(np.array([[-0.1, 1.0], [0.5, 0.0]]))
    with pytest.raises(ValueError):
        HostMatrix(np.array([[np.nan, 1.0], [0.5, 0.0]]))
    h = HostMatrix(np.array([[0.25, 1.0], [0.75, 0.0]]))
    assert h.n_w == 2 and h.n_zprime == 2
    # a column summing below 1 pays no prize with the remaining probability
    short = HostMatrix(np.array([[0.5, 0.5], [0.2, 0.2]]))
    np.testing.assert_array_equal(short.t.sum(axis=0), [0.7, 0.7])


def test_no_prize_deficit_scales_the_game_value():
    g = rng(SEED + 10)
    for _ in range(5):
        p = random_joint(3, 2, seed=g)
        host = random_host(3, 2, seed=g)
        assert abs(prob_t(p, HostMatrix(0.4 * host.t)) - 0.4 * prob_t(p, host)) < 1e-12


def test_prob_t_frozen_example():
    # columns carry mass 1/2 each with conditionals (0.7,0.3) and (0.6,0.4);
    # a fixed w=1 host pays the largest conditional: 0.5*0.7 + 0.5*0.6
    p = ClassicalJoint(np.array([[0.35, 0.30], [0.15, 0.20]]))
    host = fixed_w_host(1, 2)
    assert abs(prob_t(p, host) - 0.65) < 1e-12
    assert abs(fixed_w_value(p, 1) - 0.65) < 1e-12


def test_prob_t_uniform_and_correlated():
    uniform = ClassicalJoint(np.full((2, 2), 0.25))
    assert abs(fixed_w_value(uniform, 1) - 0.5) < 1e-12
    # bits agreeing with probability 3/4
    corr = ClassicalJoint(np.array([[3 / 8, 1 / 8], [1 / 8, 3 / 8]]))
    assert abs(fixed_w_value(corr, 1) - 0.75) < 1e-12


def test_prob_t_saturates_at_full_mass():
    g = rng(SEED)
    for trial in range(10):
        p = random_joint(3, 3, seed=g)
        assert abs(fixed_w_value(p, 3) - 1.0) < 1e-10
        assert abs(fixed_w_value(p, 7) - 1.0) < 1e-10  # w past the alphabet saturates


def test_prob_t_monotone_in_w():
    g = rng(SEED + 1)
    for _ in range(10):
        p = random_joint(4, 3, seed=g)
        vals = [fixed_w_value(p, w) for w in range(1, 5)]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


def test_fixed_w_value_is_the_fixed_host_game():
    g = rng(SEED + 7)
    for m, n in ((1, 3), (2, 2), (3, 4), (5, 2)):
        p = random_joint(m, n, seed=g)
        for w in range(1, m + 3):
            got = fixed_w_value(p, w)
            assert got == prob_t(p, fixed_w_host(w, w))
            top_w = np.sort(p.p, axis=0)[::-1][:w].sum()
            assert abs(got - top_w) < 1e-12, (m, n, w)


def test_prob_t_beats_every_fixed_answer():
    # the max over z' inside prob_t dominates any single-column host
    g = rng(SEED + 2)
    for _ in range(10):
        p = random_joint(3, 4, seed=g)
        host = random_host(3, 3, seed=g)
        best = prob_t(p, host)
        for w in range(host.n_zprime):
            single = HostMatrix(host.t[:, [w]])
            assert best >= prob_t(p, single) - 1e-10


def test_uniform_target_always_feasible():
    g = rng(SEED + 3)
    for trial in range(5):
        p = random_joint(3, 3, seed=g)
        q = ClassicalJoint(np.full((3, 1), 1.0 / 3))
        verdict = cond_majorizes_classical(p, q)
        assert verdict.feasible
        assert verdict.certificate.residual <= 1e-7
        cert = uniform_target_certificate(p)
        assert cert.residual <= 1e-12


def test_cds_pairs_are_feasible():
    g = rng(SEED + 4)
    for trial in range(5):
        p = random_joint(3, 3, seed=g)
        es, rs = random_cds_data(3, 2, seed=trial)
        q = apply_cds_classical(p, es, rs)
        verdict = cond_majorizes_classical(p, q)
        assert verdict.feasible, f"trial {trial}"
        # certificate reconstructs q from p
        assert verdict.certificate.residual <= 1e-7
        t = verdict.certificate.t
        np.testing.assert_allclose(t.sum(axis=1), 1.0, atol=1e-7)
        ds = verdict.certificate.ds
        np.testing.assert_allclose(ds.sum(axis=2), 1.0, atol=1e-6)
        np.testing.assert_allclose(ds.sum(axis=3), 1.0, atol=1e-6)


def test_uniform_cannot_reach_correlated():
    # uniform bits cannot be steered into perfectly correlated bits
    p = ClassicalJoint(np.full((2, 2), 0.25))
    q = ClassicalJoint(np.array([[0.5, 0.0], [0.0, 0.5]]))
    verdict = cond_majorizes_classical(p, q)
    assert not verdict.feasible
    assert verdict.witness_host is not None
    # the witness host certifies the gap through the game value
    assert prob_t(q, verdict.witness_host) > prob_t(p, verdict.witness_host) + 1e-6


def _lp_system(pm, qm):
    """Sparse ``A_eq`` and ``b_eq`` of the product-space majorization LP.

    Its nonnegative variables are Z[y, w, r, c] = t_yw D_(y,w)[r, c] then
    t[y, w], each row-major; its equality rows are, in order: per block
    (y, w), the m row sums and then the m column sums of Z[y, w], each equal
    to t[y, w]; per y, sum_w t[y, w] = 1; per (w, r),
    sum_(y, c) Z[y, w, r, c] p[c, y] = q[r, w].
    """
    m, n = pm.shape
    n_prime = qm.shape[1]
    n_blocks = n * n_prime
    n_z = n_blocks * m * m
    z = np.arange(n_z).reshape(n, n_prime, m, m)   # variable index of Z[y, w, r, c]
    r = np.arange(m)
    n_block_rows = 2 * m * n_blocks
    block_start = 2 * m * np.arange(n_blocks).reshape(n, n_prime, 1, 1)
    target_row = n_block_rows + n + (np.arange(n_prime)[:, None] * m + r)[:, :, None]  # row of (w, r)

    def full(a):
        return np.broadcast_to(a, z.shape).ravel()

    block_rows = np.arange(n_block_rows)
    rows = np.concatenate([
        full(block_start + r[:, None]),           # row sums of block (y, w), indexed by r
        full(block_start + m + r),                # its column sums, indexed by c
        block_rows,                               # -t_yw in each of those 2m rows
        n_block_rows + np.arange(n_blocks) // n_prime,
        full(target_row),
    ])
    cols = np.concatenate([z.ravel(), z.ravel(), n_z + block_rows // (2 * m), n_z + np.arange(n_blocks), z.ravel()])
    vals = np.concatenate([np.ones(2 * n_z), -np.ones(n_block_rows), np.ones(n_blocks), full(pm.T[:, None, None, :])])
    keep = vals != 0.0                            # zero-padded rows of P store no entries
    shape = (n_block_rows + n + n_prime * m, n_z + n_blocks)
    a_eq = coo_array((vals[keep], (rows[keep], cols[keep])), shape=shape)
    b_eq = np.concatenate([np.zeros(n_block_rows), np.ones(n), qm.T.ravel()])
    return a_eq, b_eq


def _product_lp_feasible(pm, qm):
    """Verdict of the product-space LP: HiGHS status 0 (feasible) or 2 (infeasible).

    Dual simplex can stop with status 4 on a nearly feasible pair; interior
    point then decides it, as the product-space decision did.
    """
    a_eq, b_eq = _lp_system(pm, qm)
    lp = dict(c=np.zeros(a_eq.shape[1]), A_eq=a_eq, b_eq=b_eq, bounds=(0.0, None))
    res = linprog(**lp, method="highs")
    if res.status == 4:
        res = linprog(**lp, method="highs-ipm")
    assert res.status in (0, 2), res.message
    return res.status == 0


def _loop_lp_system(pm, qm):
    """Row-by-row build of the product-space LP: the reference for ``_lp_system``."""
    m, n = pm.shape
    n_prime = qm.shape[1]
    n_z = n * n_prime * m * m

    def z_index(y, w, r, c):
        return ((y * n_prime + w) * m + r) * m + c

    def t_index(y, w):
        return n_z + y * n_prime + w

    rows, cols, vals, b = [], [], [], []

    def add_row(entries, rhs):
        r = len(b)
        for c, v in entries:
            rows.append(r)
            cols.append(c)
            vals.append(v)
        b.append(rhs)

    for y in range(n):
        for w in range(n_prime):
            for r in range(m):
                add_row([(z_index(y, w, r, c), 1.0) for c in range(m)] + [(t_index(y, w), -1.0)], 0.0)
            for c in range(m):
                add_row([(z_index(y, w, r, c), 1.0) for r in range(m)] + [(t_index(y, w), -1.0)], 0.0)
    for y in range(n):
        add_row([(t_index(y, w), 1.0) for w in range(n_prime)], 1.0)
    for w in range(n_prime):
        for r in range(m):
            add_row([(z_index(y, w, r, c), float(pm[c, y])) for y in range(n) for c in range(m)], float(qm[r, w]))
    a = np.zeros((len(b), n_z + n * n_prime))
    a[rows, cols] = vals
    return a, np.array(b)


def test_lp_system_matches_row_loop():
    g = rng(SEED + 8)
    for mp, n, mq, n_prime in ((2, 3, 3, 2), (3, 2, 2, 4), (1, 4, 3, 1), (4, 4, 4, 4), (3, 3, 3, 5)):
        p, q = random_joint(mp, n, seed=g), random_joint(mq, n_prime, seed=g)
        m = max(mp, mq)
        pm, qm = (np.pad(j.p, ((0, m - j.m), (0, 0))) for j in (p, q))
        a_eq, b_eq = _lp_system(pm, qm)
        want_a, want_b = _loop_lp_system(pm, qm)
        assert a_eq.shape == want_a.shape
        np.testing.assert_array_equal(a_eq.toarray(), want_a)
        np.testing.assert_array_equal(b_eq, want_b)
        assert a_eq.nnz == np.count_nonzero(want_a)  # no stored zeros from padded rows


def _loop_game_value(p, t):
    total = 0.0
    for y in range(p.n):
        pref = np.cumsum(np.sort(p.p[:, y])[::-1])
        pref = np.concatenate([pref, np.full(max(t.shape[0] - pref.size, 0), pref[-1])])[: t.shape[0]]
        total += float((pref @ t).max())
    return total


def test_simplex_failure_pair_is_decided():
    # HiGHS dual simplex stopped with status 4 on this 5x4 pair in the
    # product-space LP (P then Q, each
    # default_rng([66, 89]).dirichlet(ones(20)).reshape(5, 4)); the pair is
    # infeasible, and the one-LP decision needs no retry to say so.
    p = ClassicalJoint(np.array([
        [0.012303146811670681, 0.0002563985625277801, 0.002943246070558267, 0.07898946486682236],
        [0.024430755343095828, 0.00024143266756449297, 0.06725318908432709, 0.024275271942430975],
        [0.01437541251271863, 0.0681878311221763, 0.13022536036825139, 0.13248407690367003],
        [0.015529425197778467, 0.07437641279976316, 0.10716469801809247, 0.022842858002894456],
        [0.19059329455182855, 8.591720145010558e-07, 0.0128388083461387, 0.020688057655675576],
    ]))
    q = ClassicalJoint(np.array([
        [0.009017023825135717, 0.0682623097927491, 0.07311397672421009, 0.036880136860312725],
        [0.0468382866803747, 0.00023416232985271488, 0.0968716302696719, 0.05185183615629099],
        [0.017407850020225785, 0.04985097299284295, 0.04473095017244637, 0.02759866835831068],
        [0.0606657177792383, 0.0038438606305788146, 0.08033136097720237, 0.01611535137420992],
        [0.05060077998198356, 0.07229897614824288, 0.13476310564875754, 0.058723043277362975],
    ]))
    verdict = cond_majorizes_classical(p, q)
    assert not verdict.feasible
    assert verdict.witness_host is not None
    assert prob_t(q, verdict.witness_host) > prob_t(p, verdict.witness_host) + GAME_GAP


def test_feasible_pairs_never_game_falsified():
    g = rng(SEED + 5)
    for trial in range(3):
        p = random_joint(3, 3, seed=g)
        es, rs = random_cds_data(3, 2, seed=trial + 50)
        q = apply_cds_classical(p, es, rs)
        for k in range(30):
            host = random_host(3, int(g.integers(1, 4)), seed=g)
            assert prob_t(q, host) <= prob_t(p, host) + 1e-6, f"trial {trial} host {k}"


PROPS = settings(max_examples=25, deadline=None)
shapes = st.integers(1, 4)
seeds = st.integers(0, 2**31 - 1)


def _pair(mp, n, mq, n_prime, seed, made):
    """A random pair, or (made) a target steered from P by doubly stochastic E_j and a split R_j."""
    g = rng(seed)
    p = random_joint(mp, n, seed=g)
    if not made:
        return p, random_joint(mq, n_prime, seed=g)
    split = g.dirichlet(np.ones(2))
    es = [random_doubly_stochastic(mp, g) for _ in split]
    rs = [w * g.dirichlet(np.ones(n_prime), size=n) for w in split]
    return p, apply_cds_classical(p, es, rs)


def _padded(p, q):
    m = max(p.m, q.m)
    return tuple(np.pad(j.p, ((0, m - j.m), (0, 0))) for j in (p, q))


def _largest_gap(pm, qm):
    return _witness_lp(_descending(pm)[1], _descending(qm)[1])[0]


def _least_l1_infeasibility(pm, qm):
    """min ||q - reached target||_1 over the majorization LP, with slack on its target rows only."""
    a_eq, b_eq = _lp_system(pm, qm)
    n_target = qm.size
    slack = np.zeros((a_eq.shape[0], n_target))
    slack[-n_target:] = np.eye(n_target)
    c = np.concatenate([np.zeros(a_eq.shape[1]), np.ones(2 * n_target)])
    res = linprog(c, A_eq=np.hstack([a_eq.toarray(), slack, -slack]), b_eq=b_eq, bounds=(0.0, None), method="highs")
    assert res.status == 0
    return res.fun


@PROPS
@given(mp=shapes, n=shapes, mq=shapes, n_prime=shapes, seed=seeds, made=st.booleans())
def test_feasible_exactly_when_no_game_prefers_q(mp, n, mq, n_prime, seed, made):
    p, q = _pair(mp, n, mq, n_prime, seed, made)
    verdict = cond_majorizes_classical(p, q)
    gap = _largest_gap(*_padded(p, q))
    assert verdict.feasible == (gap <= GAME_GAP)
    assert verdict.feasible or not made
    if verdict.feasible:
        assert verdict.witness_host is None
    else:
        t = verdict.witness_host.t
        assert t.sum(axis=0).max() <= 1.0 + ATOL
        assert _loop_game_value(q, t) > _loop_game_value(p, t) + GAME_GAP


@PROPS
@given(mp=shapes, n=shapes, mq=shapes, n_prime=shapes, seed=seeds, made=st.booleans())
def test_largest_game_gap_is_half_the_least_l1_infeasibility(mp, n, mq, n_prime, seed, made):
    p, q = _pair(mp, n, mq, n_prime, seed, made)
    pm, qm = _padded(p, q)
    gap = _largest_gap(pm, qm)
    assert abs(gap - 0.5 * _least_l1_infeasibility(pm, qm)) < 1e-9


def _assert_certificate(p, q, cert):
    """t row-stochastic, blocks doubly stochastic, and sum_y t_yw D_(y,w) p_y rebuilds Q within 1e-7."""
    pm, qm = _padded(p, q)
    t, ds = cert.t, cert.ds
    assert t.min() >= 0.0 and ds.min() >= 0.0
    np.testing.assert_allclose(t.sum(axis=1), 1.0, atol=1e-7)
    np.testing.assert_allclose(ds.sum(axis=2), 1.0, atol=1e-7)
    np.testing.assert_allclose(ds.sum(axis=3), 1.0, atol=1e-7)
    np.testing.assert_allclose(np.einsum("yw,ywrc,cy->rw", t, ds, pm), qm, atol=1e-7, rtol=0.0)


@settings(max_examples=40, deadline=None)
@given(mp=st.integers(1, 5), n=st.integers(1, 5), mq=st.integers(1, 5), n_prime=st.integers(1, 5),
       seed=seeds, made=st.booleans())
def test_one_lp_verdict_matches_the_product_space_lp(mp, n, mq, n_prime, seed, made):
    p, q = _pair(mp, n, mq, n_prime, seed, made)
    verdict = cond_majorizes_classical(p, q)
    assert verdict.feasible == _product_lp_feasible(*_padded(p, q))
    if verdict.feasible:
        _assert_certificate(p, q, verdict.certificate)


def _assert_transfers(x, y, b):
    assert b.min() >= 0.0 and b.max() <= 1.0
    np.testing.assert_allclose(b.sum(axis=0), 1.0, atol=1e-14)
    np.testing.assert_allclose(b.sum(axis=1), 1.0, atol=1e-14)
    np.testing.assert_allclose(b @ x, y, atol=1e-12, rtol=0.0)


def test_t_transforms_of_equal_vectors_are_the_identity():
    for x in (np.array([1.0]), np.array([0.5, 0.3, 0.2]), np.array([0.4, 0.4, 0.1, 0.1, 0.0])):
        np.testing.assert_array_equal(_t_transforms(x, x.copy()), np.eye(x.size))


def test_t_transforms_take_x_to_every_vector_it_majorizes():
    g = rng(SEED + 11)
    for m in range(1, 7):
        for _ in range(10):
            x = np.sort(g.dirichlet(np.ones(m)))[::-1]
            y = np.sort(random_doubly_stochastic(m, g) @ x)[::-1]
            _assert_transfers(x, y, _t_transforms(x, y))


def test_t_transforms_with_ties():
    x = np.array([0.3, 0.3, 0.2, 0.2])
    for y in (np.array([0.25, 0.25, 0.25, 0.25]), np.array([0.3, 0.25, 0.25, 0.2]), x.copy()):
        _assert_transfers(x, y, _t_transforms(x, y))


def test_t_transforms_ignore_rounding_in_the_prefix_sums():
    # prefix sums of x - y touch zero with -1e-15 slack; a step must neither
    # start from the rounding nor stop at it
    cases = (
        (np.array([0.5, 0.3, 0.2]), np.array([0.5 + 1e-15, 0.3 - 1e-15, 0.2])),
        (np.array([0.6, 0.2, 0.2]), np.array([0.5, 0.3, 0.2 - 1e-15])),
        (np.array([0.4, 0.4, 0.2]), np.array([0.4 + 1e-15, 0.3, 0.3 - 1e-15])),
        # r_w and q_w of a random 5-row pair: x - y ends in +1.3e-15, after the last real loss
        (np.array([0.11503990353883875, 0.03092567637631076, 0.01403195445779655, 0.0123436435957772, 0.00778095540812407]),
         np.array([0.11213360018246274, 0.03383197973268456, 0.01340778043397046, 0.01296781761960376, 0.00778095540812281])),
        (np.array([0.6, 0.2, 0.2]), np.array([0.5, 0.3, 0.2 - 3e-15])),
    )
    for x, y in cases:
        _assert_transfers(x, y, _t_transforms(x, y))


def test_certificate_with_ties_in_both_joints():
    p = ClassicalJoint(np.array([[0.2, 0.1], [0.2, 0.1], [0.1, 0.3]]))
    q = apply_cds_classical(p, [np.eye(3), np.full((3, 3), 1.0 / 3)], [0.5 * np.eye(2), 0.5 * np.eye(2)])
    verdict = cond_majorizes_classical(p, q)
    assert verdict.feasible
    _assert_certificate(p, q, verdict.certificate)


def test_certificate_with_a_zero_column_of_p():
    p = ClassicalJoint(np.array([[0.6, 0.0, 0.1], [0.3, 0.0, 0.0]]))
    q = ClassicalJoint(np.array([[0.3, 0.2], [0.3, 0.2]]))
    verdict = cond_majorizes_classical(p, q)
    assert verdict.feasible
    np.testing.assert_array_equal(verdict.certificate.t[1], [0.5, 0.5])   # no mass, uniform response
    _assert_certificate(p, q, verdict.certificate)


def test_certificate_with_one_row():
    p = ClassicalJoint(np.array([[0.3, 0.7]]))
    for q in (ClassicalJoint(np.array([[1.0]])), ClassicalJoint(np.array([[0.1, 0.6, 0.3]]))):
        verdict = cond_majorizes_classical(p, q)
        assert verdict.feasible
        assert verdict.certificate.ds.shape == (2, q.n, 1, 1)
        _assert_certificate(p, q, verdict.certificate)


def test_certificate_with_zero_padding():
    g = rng(SEED + 12)
    for mp, mq in ((2, 4), (1, 3), (3, 5)):
        p = random_joint(mp, 3, seed=g)
        padded = ClassicalJoint(np.pad(p.p, ((0, mq - mp), (0, 0))))
        es = [random_doubly_stochastic(mq, g) for _ in range(2)]
        rs = [0.5 * g.dirichlet(np.ones(2), size=3) for _ in range(2)]
        q = apply_cds_classical(padded, es, rs)
        verdict = cond_majorizes_classical(p, q)
        assert verdict.feasible, (mp, mq)
        assert verdict.certificate.ds.shape == (3, 2, mq, mq)
        _assert_certificate(p, q, verdict.certificate)
        assert cond_majorizes_classical(q, p).feasible == _product_lp_feasible(*_padded(q, p))


def test_one_lp_call_per_pair(monkeypatch):
    calls = []

    def counting_linprog(*args, **kwargs):
        calls.append(kwargs.get("method"))
        return linprog(*args, **kwargs)

    monkeypatch.setattr(classical, "linprog", counting_linprog)
    corr = ClassicalJoint(np.array([[0.5, 0.0], [0.0, 0.5]]))
    unif = ClassicalJoint(np.full((2, 2), 0.25))
    for p, q, feasible in ((corr, unif, True), (unif, corr, False)):
        calls.clear()
        assert cond_majorizes_classical(p, q).feasible == feasible
        assert calls == ["highs"]


def test_tol_bounds_the_residual_and_never_the_verdict():
    corr = ClassicalJoint(np.array([[0.5, 0.0], [0.0, 0.5]]))
    unif = ClassicalJoint(np.full((2, 2), 0.25))
    for tol in (1e-7, 1.0):
        verdict = cond_majorizes_classical(unif, corr, tol=tol)
        assert not verdict.feasible and verdict.witness_host is not None
        assert cond_majorizes_classical(corr, unif, tol=tol).feasible
    with pytest.raises(classical.LpSolverError):
        cond_majorizes_classical(corr, unif, tol=-1.0)   # no certificate has a negative residual


def test_apply_cds_identity():
    p = random_joint(3, 3, seed=SEED)
    q = apply_cds_classical(p, [np.eye(3)], [np.eye(3)])
    np.testing.assert_allclose(q.p, p.p, atol=1e-12)


def test_apply_cds_uniformizer():
    # E = all-ones/m uniformizes Alice's conditionals, R = I keeps Bob fixed
    p = random_joint(3, 2, seed=SEED + 1)
    q = apply_cds_classical(p, [np.full((3, 3), 1.0 / 3)], [np.eye(2)])
    np.testing.assert_allclose(q.p.sum(axis=0), p.p.sum(axis=0), atol=1e-12)
    for y in range(2):
        col = q.p[:, y]
        np.testing.assert_allclose(col, np.full(3, col.sum() / 3), atol=1e-12)


def test_apply_cds_validation():
    p = random_joint(2, 2, seed=SEED)
    with pytest.raises(ValueError):
        apply_cds_classical(p, [np.array([[0.9, 0.0], [0.0, 1.0]])], [np.eye(2)])
    with pytest.raises(ValueError):
        apply_cds_classical(p, [np.eye(2)], [0.5 * np.eye(2)])


def test_embed_classical_examples():
    uniform = ClassicalJoint(np.full((2, 2), 0.25))
    np.testing.assert_allclose(embed_classical(uniform).mat, np.eye(4) / 4, atol=1e-12)
    corr = ClassicalJoint(np.diag([0.5, 0.5]))
    want = np.zeros((4, 4))
    want[0, 0] = want[3, 3] = 0.5
    np.testing.assert_allclose(embed_classical(corr).mat, want, atol=1e-12)


def test_embed_matches_shannon():
    g = rng(SEED + 6)
    for _ in range(10):
        p = random_joint(3, 2, seed=g)
        assert abs(vn_cond_entropy(embed_classical(p)) - shannon_cond_entropy(p)) < 1e-8


def test_shannon_cond_entropy_known_values():
    uniform = ClassicalJoint(np.full((2, 2), 0.25))
    assert abs(shannon_cond_entropy(uniform) - 1.0) < 1e-12
    perfect = ClassicalJoint(np.diag([0.5, 0.5]))
    assert abs(shannon_cond_entropy(perfect)) < 1e-12
