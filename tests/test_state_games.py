"""Gambling games on bipartite states."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qce import state_games
from qce.classical import (
    HostMatrix,
    embed_classical,
    fixed_w_host,
    prob_t,
    random_host,
    random_joint,
)
from qce.linalg import (
    density,
    eig_desc,
    haar_unitary,
    ket,
    kron,
    majorizes,
    max_entangled,
    proj,
    pure,
    random_density,
    random_pure,
    rng,
)
from qce.optim import OptOpts, n_iso_params, search_isometry
from qce.state_games import (
    StateGameSpec,
    _StateStack,
    _bob_after_pinching,
    _reward_and_answer,
    _structured_adv_bases,
    compare_states,
    reward,
    reward_adv,
    reward_given_bob,
    reward_noadv,
    scramble,
)

SEED = 20240822
FAST = OptOpts(restarts=4, sweeps=1, seed=SEED)


def test_game_spec_validation():
    host = fixed_w_host(1, 2)
    with pytest.raises(ValueError):
        StateGameSpec(host, p_adv=1.5)
    with pytest.raises(ValueError):
        StateGameSpec(host, p_adv=-0.1)
    assert StateGameSpec(host, p_adv=0.25).p_adv == 0.25


def test_max_entangled_wins_every_game():
    # conditioned states are pure whatever Bob measures, so any host pays 1
    g = rng(SEED)
    for d in (2, 3):
        phi = max_entangled(d)
        for trial in range(5):
            host = random_host(d, int(g.integers(1, 4)), seed=g)
            rep = reward_noadv(phi, host, FAST)
            assert abs(rep.value - 1.0) < 1e-6, f"d={d} trial={trial}"


def test_classical_embedding_matches_prob_t():
    g = rng(SEED + 1)
    for trial in range(10):
        p = random_joint(3, 3, seed=g)
        host = random_host(3, 2, seed=g)
        state = embed_classical(p)
        got = reward_given_bob(state, host, np.eye(3, dtype=complex))
        assert abs(got - prob_t(p, host)) < 1e-10, f"trial {trial}"
        # the optimized value can only improve on the computational basis
        assert reward_noadv(state, host, FAST).value >= got - 1e-9


def test_stacked_bob_objective_matches_per_basis_reward():
    g = rng(SEED + 9)
    for dims in ((2, 2), (3, 3), (2, 3), (3, 2)):
        state = random_density(dims, seed=g)
        host = random_host(dims[0] + 1, 3, seed=g)  # n_w > |A| pads the saturated prefixes
        bases = np.stack([haar_unitary(dims[1], seed=g) for _ in range(5)])
        values, answers = _reward_and_answer(state, host, bases)
        assert values.shape == (5,) and answers.shape == (5, dims[1])
        for u, value, answer in zip(bases, values, answers):
            assert np.float64(reward_given_bob(state, host, u)).tobytes() == value.tobytes()
            np.testing.assert_array_equal(_reward_and_answer(state, host, u)[1], answer)


def test_product_state_worst_case_qubit_game():
    # w=1 deterministic host, adversary always plays: value is 1/2
    host = fixed_w_host(1, 2)
    game = StateGameSpec(host, p_adv=1.0)
    g = rng(SEED + 2)
    for trial in range(3):
        state = random_pure((2,), seed=g).tensor(random_pure((2,), seed=g))
        rep = reward(state, game, FAST, inner_opts=OptOpts(restarts=2, sweeps=1, seed=trial))
        assert abs(rep.value - 0.5) < 1e-6, f"trial {trial}"


def test_max_entangled_immune_to_adversary():
    phi = max_entangled(2)
    host = fixed_w_host(1, 2)
    rep = reward_adv(phi, host, FAST, inner_opts=OptOpts(restarts=2, sweeps=1))
    assert abs(rep.value - 1.0) < 1e-6


def test_adversary_never_helps():
    # |A| != |B| included: Bob's search then gets no adversary-derived start
    g = rng(SEED + 3)
    for dims, trials in (((2, 2), 5), ((2, 3), 2), ((3, 2), 2)):
        for trial in range(trials):
            state = random_density(dims, seed=g)
            host = random_host(dims[0], dims[1], seed=g)
            free = reward_noadv(state, host, FAST).value
            adv = reward_adv(state, host, FAST, inner_opts=OptOpts(restarts=2, sweeps=1)).value
            assert adv <= free + 1e-9, f"dims {dims} trial {trial}"


def test_reward_affine_in_p_adv():
    state = random_density((2, 2), seed=SEED)
    host = fixed_w_host(1, 2)
    inner = OptOpts(restarts=2, sweeps=1)
    free = reward(state, StateGameSpec(host, 0.0), FAST, inner).value
    adv = reward(state, StateGameSpec(host, 1.0), FAST, inner).value
    for p in (0.25, 0.5, 0.8):
        mixed = reward(state, StateGameSpec(host, p), FAST, inner).value
        assert abs(mixed - (p * adv + (1 - p) * free)) < 1e-12


def test_scramble_frozen_example():
    # computational rank-one scramble of phi+ leaves the classically
    # correlated mixture (|00><00| + |11><11|) / 2
    phi = max_entangled(2)
    out = scramble(phi, np.eye(2, dtype=complex), ((0,), (1,)))
    want = 0.5 * proj(kron(ket(0, 2), ket(0, 2))) + 0.5 * proj(kron(ket(1, 2), ket(1, 2)))
    np.testing.assert_allclose(out.mat, want, atol=1e-12)


def test_scramble_trivial_partition_is_identity():
    s = random_density((2, 2), seed=SEED)
    out = scramble(s, np.eye(2, dtype=complex), ((0, 1),))
    np.testing.assert_allclose(out.mat, s.mat, atol=1e-12)


def test_scramble_keeps_state_valid():
    g = rng(SEED + 4)
    for _ in range(10):
        s = random_density((3, 2), seed=g)
        out = scramble(s, np.linalg.qr(g.normal(size=(3, 3)) + 1j * g.normal(size=(3, 3)))[0], ((0, 1), (2,)))
        assert abs(np.trace(out.mat) - 1.0) < 1e-10
        assert np.linalg.eigvalsh(out.mat).min() > -1e-10


def test_scramble_rejects_a_bad_basis_or_partition():
    phi = max_entangled(2)
    for basis in (2.0 * np.eye(2), np.array([[1.0, 1.0], [0.0, 1.0]]), np.eye(3)):
        with pytest.raises(ValueError, match="not a unitary"):
            scramble(phi, basis, ((0,), (1,)))
    for partition in (((0,),), ((0, 1), (1,)), ((0,), (1,), (2,))):
        with pytest.raises(ValueError, match="exactly once"):
            scramble(phi, np.eye(2, dtype=complex), partition)


def test_reward_adv_matches_the_partition_enumeration():
    # one search over rank-one dephasings gives the minimum of the baseline
    # and one search per non-trivial partition of three labels, since the
    # finest pinching of a basis dominates every coarser one
    g = rng(SEED + 21)
    outer, inner = OptOpts(restarts=2, sweeps=1, seed=1), OptOpts(restarts=2, sweeps=1, seed=2)
    partitions = (((0, 1), (2,)), ((0, 2), (1,)), ((1, 2), (0,)), ((0,), (1,), (2,)))
    for db in (2, 3):
        state = random_density((3, db), seed=g)
        host = random_host(3, db, seed=g)
        values = [reward_noadv(state, host, inner).value]
        for partition in partitions:
            def bob(us, partition=partition):
                return np.array([
                    reward_noadv(scramble(state, u, partition), host, inner,
                                 extra_bases=(u.conj(),) if db == 3 else ()).value
                    for u in us.reshape(-1, 3, 3)
                ]).reshape(us.shape[:-2])

            values.append(search_isometry(bob, 3, 3, outer, structured=_structured_adv_bases(state), minimize=True)[1])
        rep = reward_adv(state, host, outer, inner)
        assert abs(rep.value - min(values)) <= 1e-12, db
        assert rep.adversary.partition == ((0,), (1,), (2,))
        assert rep.restarts_used == len(_structured_adv_bases(state)) + outer.restarts
        # Bob's reported response to the move scores the reported value
        scrambled = scramble(state, rep.adversary.basis, rep.adversary.partition)
        assert abs(reward_given_bob(scrambled, host, rep.adversary.response.bob_basis) - rep.value) <= 1e-12


def test_batched_adversary_objective_matches_per_row_reward_noadv():
    # the outer objective scores every pinched state with one batched Bob
    # search; each row must be bitwise what reward_noadv gives it alone, and
    # reward_adv bitwise what a search over that per-row comprehension gives
    g = rng(SEED + 24)
    outer, inner = OptOpts(restarts=2, sweeps=1, seed=3), OptOpts(restarts=2, sweeps=1, seed=4)
    for dims in ((2, 2), (3, 3), (2, 3), (3, 2)):
        da, db = dims
        state = random_density(dims, seed=g)
        host = random_host(da, db, seed=g)
        finest = tuple((i,) for i in range(da))

        def bob(u):
            return reward_noadv(scramble(state, u, finest), host, inner, extra_bases=(u.conj(),) if da == db else ())

        us = np.stack([haar_unitary(da, seed=g) for _ in range(6)]).reshape(2, 3, da, da)
        bases, values = _bob_after_pinching(state, host, inner, us)
        assert bases.shape == (2, 3, db, db) and values.shape == (2, 3)
        for i in np.ndindex(2, 3):
            rep = bob(us[i])
            assert np.float64(rep.value).tobytes() == values[i].tobytes()
            assert rep.strategy.bob_basis.tobytes() == bases[i].tobytes()

        comprehension = lambda us: np.array([bob(u).value for u in us.reshape(-1, da, da)]).reshape(us.shape[:-2])
        u, value, used = search_isometry(comprehension, da, da, outer, structured=_structured_adv_bases(state), minimize=True)
        rep = reward_adv(state, host, outer, inner)
        assert rep.restarts_used == used
        if rep.adversary.partition == finest:
            assert np.float64(rep.value).tobytes() == np.float64(value).tobytes()
            assert rep.adversary.basis.tobytes() == u.tobytes()
            response = bob(u).strategy
            assert rep.adversary.response.bob_basis.tobytes() == response.bob_basis.tobytes()
            np.testing.assert_array_equal(rep.adversary.response.answer, response.answer)
        else:
            assert value >= reward_noadv(state, host, inner).value - 1e-15


def test_reward_adv_probes_the_phases_of_its_basis(monkeypatch):
    # Bob's search starts from the adversary's conjugate basis, so the outer
    # search sees column phases and probes all n_iso_params(dA, dA) angles
    calls = []
    bob_after_pinching = state_games._bob_after_pinching

    def counted(state, host, opts, us):
        calls.append(us.shape)
        return bob_after_pinching(state, host, opts, us)

    monkeypatch.setattr(state_games, "_bob_after_pinching", counted)
    g = rng(SEED + 25)
    for dims, sweeps in (((2, 2), 1), ((3, 2), 2), ((2, 3), 1)):
        da = dims[0]
        state = random_density(dims, seed=g)
        outer = OptOpts(restarts=2, sweeps=sweeps, seed=5)
        calls.clear()
        reward_adv(state, random_host(da, dims[1], seed=g), outer, OptOpts(restarts=1, sweeps=1, seed=6))
        assert len(calls) == 1 + n_iso_params(da, da) * sweeps
        assert calls[0] == (len(_structured_adv_bases(state)) + outer.restarts, da, da)


@settings(max_examples=40, deadline=None)
@given(
    dims=st.sampled_from([(2, 2), (3, 2), (2, 3), (3, 3), (1, 3), (2, 4)]),
    seed=st.integers(0, 2**31 - 1),
    stack=st.integers(0, 3),
)
def test_bob_value_is_blind_to_the_phases_of_his_basis(dims, seed, stack):
    # Bob's objective reads only the projectors |b_z><b_z|, the contract of
    # search_unitary: U and U D score alike for diagonal phases D
    g = rng(seed)
    da, db = dims
    host = random_host(int(g.integers(1, da + 1)), db, seed=g)
    if stack:
        state = _StateStack(dims, np.stack([random_density(dims, seed=g).mat for _ in range(stack)]))
        u = np.stack([haar_unitary(db, seed=g) for _ in range(stack)])
    else:
        state = random_density(dims, seed=g)
        u = haar_unitary(db, seed=g)
    d = np.exp(1j * g.uniform(-np.pi, np.pi, u.shape[:-1]))
    value, _ = _reward_and_answer(state, host, u)
    shifted, _ = _reward_and_answer(state, host, u * d[..., None, :])
    np.testing.assert_allclose(shifted, value, rtol=0, atol=1e-12)


def test_win_probabilities_are_reported_no_larger_than_one():
    # Ky-Fan sums of the 3x3 maximally entangled state round one ulp above 1
    phi = max_entangled(3)
    host = fixed_w_host(1, 3)
    assert reward_noadv(phi, host).value == 1.0
    assert reward_adv(phi, host).value == 1.0
    assert reward(phi, StateGameSpec(host, 0.5)).value == 1.0


def test_reward_adv_without_a_move_returns_the_baseline():
    state = random_density((1, 2), seed=SEED + 22)
    host = random_host(1, 2, seed=SEED + 22)
    rep = reward_adv(state, host, FAST, OptOpts(restarts=2, sweeps=1))
    free = reward_noadv(state, host, OptOpts(restarts=2, sweeps=1))
    assert rep.value == free.value
    assert rep.restarts_used == 0
    assert rep.adversary.partition == ((0,),)
    np.testing.assert_array_equal(rep.adversary.response.bob_basis, free.strategy.bob_basis)


def test_reward_adv_bounds_alice_up_front():
    state = random_density((6, 1), seed=SEED + 23)
    with pytest.raises(ValueError, match=r"\|A\| <= 5"):
        reward(state, StateGameSpec(fixed_w_host(1, 1), 1.0), FAST)


def test_compare_states_self_consistent():
    for dims in ((2, 2), (2, 3)):
        s = random_density(dims, seed=SEED)
        v = compare_states(s, s, n_games=6, seed=SEED, opts=FAST)
        assert v.consistent


def test_compare_states_matches_majorization_at_trivial_b():
    # |B| = 1 reduces the game preorder to vector majorization
    g = rng(SEED + 5)
    for trial in range(6):
        a = random_density((3, 1), seed=g)
        b = random_density((3, 1), seed=g)
        expect = majorizes(eig_desc(a.mat), eig_desc(b.mat))
        got = compare_states(a, b, n_games=8, seed=trial, opts=FAST).consistent
        assert got == expect, f"trial {trial}"


def test_majorization_witness_found_for_pure_vs_mixed():
    # uniform cannot majorize a pure state: the game hunt must find a witness
    pure_state = density(np.diag([1.0, 0.0, 0.0]), (3, 1))
    mixed = density(np.eye(3) / 3, (3, 1))
    v = compare_states(mixed, pure_state, n_games=8, seed=SEED, opts=FAST)
    assert not v.consistent
    assert v.witness_game is not None
    assert v.reward_second > v.reward_first + 1e-9
    # and the reverse direction is fine
    assert compare_states(pure_state, mixed, n_games=8, seed=SEED, opts=FAST).consistent
