"""Each independent check accepts a right output and rejects a wrong one.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import math

import numpy as np

import checks
from inputs import column_stochastic, doubly_stochastic, max_entangled, mixed_state, separable_state


def _scores(mat, dims):
    h = checks.cond_entropy_bits(mat, *dims)
    return {"umegaki": h, "dmax": h - 0.1, "vn": h, "dual_umegaki": h, "dual_dmax": h + 0.1}


def test_state_scores_accept_consistent_values():
    g = np.random.default_rng(1)
    mat = mixed_state(g, 6)
    assert checks.state_score_errors("full", mat, (2, 3), _scores(mat, (2, 3))) == []


def test_entropy_off_by_1e_3_is_rejected():
    g = np.random.default_rng(2)
    mat = mixed_state(g, 9)
    s = _scores(mat, (3, 3))
    s["umegaki"] += 1e-3
    s["dmax"] = s["umegaki"] - 0.1
    assert any("H(AB) - H(B)" in e for e in checks.state_score_errors("full", mat, (3, 3), s))


def test_maxent_value_off_the_floor_is_rejected():
    mat = max_entangled(3)
    s = _scores(mat, (3, 3))
    s["dmax"] = -math.log2(3) + 1e-3
    errs = checks.state_score_errors("maxent", mat, (3, 3), s)
    assert any("maximally entangled" in e for e in errs)


def test_negative_entropy_on_a_separable_state_is_rejected():
    g = np.random.default_rng(3)
    mat = separable_state(g, 2, 2, 3)
    s = _scores(mat, (2, 2))
    s["umegaki"] = -1e-3
    assert any("separable" in e for e in checks.state_score_errors("separable", mat, (2, 2), s))


def test_dmax_dual_below_umegaki_is_rejected():
    g = np.random.default_rng(4)
    mat = mixed_state(g, 4)
    s = _scores(mat, (2, 2))
    s["dual_dmax"] = s["umegaki"] - 1e-3
    assert any("dmax dual" in e for e in checks.state_score_errors("full", mat, (2, 2), s))


def _swap_kraus(d):
    u = np.zeros((d * d, d * d))
    for a in range(d):
        for b in range(d):
            u[b * d + a, a * d + b] = 1.0
    return [u]


def test_unital_product_deviation_separates_cusc_from_swap():
    rho_b = np.diag([0.7, 0.3])
    local = np.kron(np.array([[0, 1], [1, 0]]), np.eye(2))  # X on A keeps u_A x rho_B a product
    assert checks.unital_product_deviation([local], 2, 2, rho_b) < 1e-12
    assert checks.unital_product_deviation(_swap_kraus(2), 2, 2, rho_b) > 1e-3


def test_win_rate_6_standard_errors_off_is_rejected():
    rounds = 20000
    closed = 0.5
    se = math.sqrt(closed * (1 - closed) / rounds)
    assert checks.win_rate_errors(int(rounds * (closed + 2 * se)), rounds, closed, "t") == []
    assert checks.win_rate_errors(int(rounds * (closed + 6 * se)), rounds, closed, "t") != []


def test_reward_above_its_closed_form_is_rejected():
    p = np.array([0.4, 0.3, 0.2, 0.1])
    closed = checks.zoo_closed_form("depolarizing", "bell", p, gamma=0.5)
    assert closed == (1 - 0.5) + 0.5 * (0.4 + 0.6 + 0.6 + 0.4) / 4
    assert checks.reward_bound_errors(closed - 5e-4, closed, "t") == []
    assert checks.reward_bound_errors(closed + 1e-6, closed, "t") != []
    assert checks.reward_bound_errors(closed - 2e-3, closed, "t") != []


def _made_pair(g, m, n):
    p = g.dirichlet(np.ones(m * n)).reshape(m, n)
    t = g.dirichlet(np.ones(n), size=n)
    ds = np.array([[doubly_stochastic(g, m) for _ in range(n)] for _ in range(n)])
    q = np.einsum("yw,ywrc,cy->rw", t, ds, p)
    return p, q, t, ds


def test_certificate_accepted_then_perturbed_block_rejected():
    g = np.random.default_rng(5)
    p, q, t, ds = _made_pair(g, 3, 2)
    assert checks.certificate_errors(p, q, t, ds) == []
    bad = ds.copy()
    bad[0, 1, 0, 0] += 1e-3
    bad[0, 1, 0, 1] -= 1e-3
    assert checks.certificate_errors(p, q, t, bad) != []


def test_ordering_checks_on_a_made_pair():
    g = np.random.default_rng(6)
    p, q, t, ds = _made_pair(g, 3, 3)
    hosts = [column_stochastic(g, 3, 2)]
    embedded = [checks.classical_game_value(p, hosts[0])]
    good = {"p": p, "q": q, "made": True, "feasible": True, "cert_t": t, "cert_ds": ds,
            "witness_t": None, "hosts": hosts, "embedded": embedded}
    assert checks.majorization_errors(good) == []
    assert checks.majorization_errors(dict(good, feasible=False)) != []
    assert checks.majorization_errors(dict(good, embedded=[embedded[0] + 1e-5])) != []


def test_witness_that_does_not_separate_is_rejected():
    g = np.random.default_rng(7)
    p, q, _, _ = _made_pair(g, 3, 3)
    # Q is reachable from P, so no host can make Q beat P.
    base = {"p": p, "q": q, "made": False, "feasible": False, "cert_t": None, "cert_ds": None,
            "hosts": [], "embedded": []}
    assert checks.majorization_errors(dict(base, witness_t=checks.fixed_w_hosts(3)[0])) != []
    # Swapping the roles gives a pair where the w = 1 host does separate.
    corr = np.diag([0.5, 0.3, 0.2])
    flat = np.full((3, 3), 1 / 9)
    sep = {"p": flat, "q": corr, "made": False, "feasible": False, "cert_t": None, "cert_ds": None,
           "hosts": [], "embedded": [], "witness_t": checks.fixed_w_hosts(3)[0]}
    assert checks.majorization_errors(sep) == []
