"""Monte Carlo round simulation as a statistical oracle."""

import numpy as np
import pytest

from qce import channels as qc
from qce.classical import HostMatrix, fixed_w_host, prob_t, random_host, random_joint, embed_classical
from qce.channel_games import bell_game, zero_game
from qce.linalg import fourier_matrix, ket, max_entangled, maximally_mixed, pure, rng
from qce.mc_sim import simulate_channel_game, simulate_state_game
from qce.optim import OptOpts
from qce.state_games import Adversary, StateGameSpec, StateStrategy, reward_given_bob, reward_noadv
from test_channel_games import kraus_path_value

SEED = 20240824
ROUNDS = 20000


def _sigma_band(res, target, k=4):
    return abs(res.win_rate - target) <= k * max(res.std_err, 1e-4)


def test_result_bookkeeping():
    phi = max_entangled(2)
    host = fixed_w_host(1, 2)
    strat = reward_noadv(phi, host, OptOpts(restarts=2, sweeps=1)).strategy
    res = simulate_state_game(phi, StateGameSpec(host), strat, rounds=500, seed=SEED)
    assert res.rounds == 500
    assert res.win_rate == res.wins / res.rounds
    want_err = np.sqrt(res.win_rate * (1 - res.win_rate) / res.rounds)
    assert abs(res.std_err - want_err) < 1e-12
    assert res.seed == SEED


def test_max_entangled_wins_every_round():
    # conditioned states are pure, so the win is deterministic
    phi = max_entangled(2)
    g = rng(SEED)
    for trial in range(3):
        host = random_host(2, 2, seed=g)
        strat = reward_noadv(phi, host, OptOpts(restarts=2, sweeps=1)).strategy
        res = simulate_state_game(phi, StateGameSpec(host), strat, rounds=2000, seed=trial)
        assert res.win_rate == 1.0, f"trial {trial}"


def test_classical_embedding_tracks_prob_t():
    g = rng(SEED + 1)
    for trial in range(3):
        p = random_joint(3, 3, seed=g)
        host = random_host(3, 2, seed=g)
        state = embed_classical(p)
        strat = reward_noadv(state, host, OptOpts(restarts=0, sweeps=0)).strategy
        res = simulate_state_game(state, StateGameSpec(host), strat, rounds=ROUNDS, seed=trial)
        assert _sigma_band(res, reward_noadv(state, host, OptOpts(restarts=0, sweeps=0)).value), f"trial {trial}"
        assert res.win_rate >= prob_t(p, host) - 4 * res.std_err - 1e-6


def test_no_prize_deficit_loses_the_round():
    # the host pays w = 1 half the time and no prize otherwise
    host = HostMatrix(np.array([[0.5], [0.0]]))
    state = embed_classical(random_joint(2, 2, seed=SEED + 9))
    basis = np.eye(2, dtype=complex)
    res = simulate_state_game(state, StateGameSpec(host), StateStrategy(basis, np.zeros(2, dtype=int)),
                              rounds=ROUNDS, seed=SEED)
    assert _sigma_band(res, reward_given_bob(state, host, basis))
    assert res.win_rate < 0.5 + 4 * res.std_err


def test_uniform_pair_is_a_coin_flip():
    state = maximally_mixed((2, 2))
    host = fixed_w_host(1, 2)
    strat = StateStrategy(np.eye(2, dtype=complex), np.zeros(2, dtype=int))
    res = simulate_state_game(state, StateGameSpec(host), strat, rounds=ROUNDS, seed=SEED)
    assert _sigma_band(res, 0.5)


def test_adversary_coin_interpolates():
    # a Fourier-basis scramble turns phi+ into a coin flip for a
    # computational-basis strategy; the coin mixes the two regimes
    phi = max_entangled(2)
    host = fixed_w_host(1, 2)
    strat = StateStrategy(np.eye(2, dtype=complex), np.zeros(2, dtype=int))
    adv = Adversary(fourier_matrix(2), ((0,), (1,)), strat)
    res_off = simulate_state_game(phi, StateGameSpec(host, 0.0), strat, adv, rounds=ROUNDS, seed=SEED)
    assert res_off.win_rate == 1.0
    res_on = simulate_state_game(phi, StateGameSpec(host, 1.0), strat, adv, rounds=ROUNDS, seed=SEED)
    assert _sigma_band(res_on, 0.5)
    res_half = simulate_state_game(phi, StateGameSpec(host, 0.5), strat, adv, rounds=ROUNDS, seed=SEED)
    assert _sigma_band(res_half, 0.75)
    # adversary rounds without an adversary are refused, not replayed unscrambled
    with pytest.raises(ValueError, match="adversary"):
        simulate_state_game(phi, StateGameSpec(host, 0.5), strat, rounds=ROUNDS, seed=SEED)


def test_seeded_runs_are_bitwise_identical():
    phi = max_entangled(2)
    host = random_host(2, 2, seed=SEED)
    strat = reward_noadv(phi, host, OptOpts(restarts=2, sweeps=1)).strategy
    a = simulate_state_game(phi, StateGameSpec(host), strat, rounds=4000, seed=9)
    b = simulate_state_game(phi, StateGameSpec(host), strat, rounds=4000, seed=9)
    assert a == b


def test_channel_game_unitary_always_wins():
    u = qc.identity_channel((2,))
    res = simulate_channel_game(u, u, bell_game((1.0, 0.0, 0.0, 0.0)), rounds=2000, seed=SEED)
    assert res.win_rate == 1.0


def test_channel_game_depolarized_bell():
    # frozen analytic cell: 0.6 + 0.4 / 4 = 0.7
    n = qc.depolarizing(0.4)
    e = qc.identity_channel((2,))
    res = simulate_channel_game(n, e, bell_game((1.0, 0.0, 0.0, 0.0)), rounds=ROUNDS, seed=SEED)
    assert _sigma_band(res, 0.7)


def test_channel_game_replacement_zero():
    n = qc.replacement(maximally_mixed((2,)))
    e = qc.identity_channel((2,))
    res = simulate_channel_game(n, e, zero_game((1.0, 0.0)), rounds=ROUNDS, seed=SEED)
    assert _sigma_band(res, 0.5)


def test_channel_game_tracks_fixed_value():
    g = rng(SEED + 2)
    for trial in range(3):
        n = qc.random_channel(2, 2, seed=trial)
        e = qc.random_channel(2, 2, seed=trial + 100)
        p = g.dirichlet(np.ones(4))
        game = bell_game(p)
        want = kraus_path_value(n, e, game)
        res = simulate_channel_game(n, e, game, rounds=ROUNDS, seed=trial)
        assert _sigma_band(res, want), f"trial {trial}: {res.win_rate} vs {want}"


def test_degenerate_spectra_win_rate_stable():
    # fully depolarized output: every eigenbasis ordering gives the same
    # win probability, so two rotated-but-equivalent setups must agree
    n = qc.depolarizing(1.0)
    e1 = qc.identity_channel((2,))
    e2 = qc.unitary_channel(fourier_matrix(2))
    game = zero_game((1.0, 0.0))
    r1 = simulate_channel_game(n, e1, game, rounds=ROUNDS, seed=SEED)
    r2 = simulate_channel_game(n, e2, game, rounds=ROUNDS, seed=SEED)
    band = 4 * np.sqrt(r1.std_err ** 2 + r2.std_err ** 2)
    assert abs(r1.win_rate - r2.win_rate) <= band
    assert _sigma_band(r1, 0.5)
