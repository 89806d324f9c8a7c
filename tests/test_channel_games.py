"""Gambling games on channels: fixed values, search, degradation, purity."""

import json

import numpy as np
import pytest

from qce import channels as qc
from qce import serialize as ser
from qce.channel_games import (
    AMP_DAMP_TABLE_NOTE,
    FIXED_EVAL_ATOL,
    ChannelGameSpec,
    ChannelOpts,
    analytic_reward,
    bell_game,
    channel_reward,
    channel_reward_fixed,
    compare_channels,
    degrade,
    max_output_purity,
    output_purity,
    purity_game,
    spectrum_probe_games,
    zero_game,
    _GameEvaluator,
    _structured_candidates,
)
from qce.linalg import (
    dagger,
    density,
    eig_desc,
    haar_unitary,
    ket,
    kyfan,
    majorizes,
    max_entangled,
    maximally_mixed,
    pure,
    random_density,
    rng,
)
from qce.mc_sim import simulate_channel_game
from qce.optim import isometry_from_params, n_iso_params
from qce.state_games import bipartite_dims

SEED = 20240823
FAST = ChannelOpts(restarts=4, sweeps=1, seed=SEED)


def kraus_path_value(n, e, game):
    """Independent reference: (N o E (x) id_B) rho_x from Kraus operators, then Ky-Fan prefixes."""
    da, db = bipartite_dims(game.entries[0][1])
    full = qc.compose(n, e)
    if db > 1:
        full = qc.tensor(full, qc.identity_channel((db,)))
    value = 0.0
    for x, (px, state) in enumerate(game.entries, start=1):
        lam = np.linalg.eigvalsh(qc.apply_mat(full, state.mat))[::-1]
        pref = np.cumsum(np.clip(lam, 0.0, None))
        value += px * float(pref[min(x, pref.size) - 1])
    return value


def test_game_spec_validation():
    phi = max_entangled(2)
    with pytest.raises(ValueError):
        ChannelGameSpec(((0.6, phi), (0.6, phi)))  # weights exceed 1
    with pytest.raises(ValueError):
        ChannelGameSpec(((float("nan"), phi), (1.0, phi)))
    with pytest.raises(ValueError):
        ChannelGameSpec(())
    with pytest.raises(ValueError):
        ChannelGameSpec(((0.5, phi), (0.5, maximally_mixed((2,)))))  # mixed dims


def test_bell_and_zero_game_shapes():
    b = bell_game((0.4, 0.3, 0.2, 0.1))
    assert len(b.entries) == 4 and b.state_dims == (2, 2)
    z = zero_game((0.7, 0.3))
    assert len(z.entries) == 2 and z.state_dims == (2,)


def test_game_groups_equal_states_by_content():
    phi = max_entangled(2)
    twin = density(phi.mat.copy(), (2, 2))  # another object, equal matrix
    other = random_density((2, 2), seed=SEED)
    game = ChannelGameSpec(((0.4, phi), (0.3, other), (0.2, twin), (0.1, phi)))
    assert game.state_index == (0, 1, 0, 0)
    assert len(game.states) == 2 and game.states[0] is phi and game.states[1] is other
    nudged = density(phi.mat + np.diag([1e-15, 0.0, 0.0, -1e-15]), (2, 2))
    assert ChannelGameSpec(((0.5, phi), (0.5, nudged))).state_index == (0, 1)


def test_decoded_game_scores_as_its_in_memory_original():
    game = bell_game((0.4, 0.3, 0.2, 0.1))
    # stdlib json keeps every float digit, so the decoded states equal phi's matrix
    decoded = ser.decode_channel_game(json.loads(json.dumps(ser.encode_channel_game(game))))
    assert len(decoded.states) == 1 and decoded.state_index == (0, 0, 0, 0)
    n = qc.depolarizing(0.3)
    opts = ChannelOpts(restarts=8, sweeps=1, seed=1)
    a, b = channel_reward(n, game, opts), channel_reward(n, decoded, opts)
    assert a.value == b.value and a.restarts_used == b.restarts_used
    assert [k.tobytes() for k in a.preprocessing.kraus] == [k.tobytes() for k in b.preprocessing.kraus]
    sim = simulate_channel_game(n, a.preprocessing, game, rounds=5000, seed=3)
    assert sim == simulate_channel_game(n, b.preprocessing, decoded, rounds=5000, seed=3)
    # dumps rounds to 12 digits (phi's 0.4999999999999999 becomes 0.5): still one group, equal to roundoff
    rounded = ser.decode_channel_game(json.loads(ser.dumps(ser.encode_channel_game(game))))
    assert len(rounded.states) == 1
    assert abs(channel_reward(n, rounded, opts).value - a.value) < 1e-14


def test_fixed_reward_identity_bell():
    idc = qc.identity_channel((2,))
    assert abs(channel_reward_fixed(idc, idc, bell_game((1.0, 0.0, 0.0, 0.0))) - 1.0) < 1e-12


def test_fixed_reward_depolarized_bell_frozen():
    # isotropic output spectrum (0.7, 0.1, 0.1, 0.1) at gamma = 0.4
    ch = qc.depolarizing(0.4)
    idc = qc.identity_channel((2,))
    got = channel_reward_fixed(ch, idc, bell_game((1.0, 0.0, 0.0, 0.0)))
    assert abs(got - 0.7) < 1e-10


def test_fixed_reward_monotone_in_coarsening():
    # moving weight toward larger x never decreases the value
    g = rng(SEED)
    ch = qc.amplitude_damping(0.35)
    idc = qc.identity_channel((2,))
    for _ in range(10):
        p = g.dirichlet(np.ones(4))
        base = channel_reward_fixed(ch, idc, bell_game(p))
        shifted = p.copy()
        shifted[0], shifted[-1] = 0.0, shifted[-1] + shifted[0]
        moved = channel_reward_fixed(ch, idc, bell_game(shifted))
        assert moved >= base - 1e-12


def test_reported_value_matches_fixed_evaluation():
    # the reported value must re-score as the reported preprocessing, in the
    # evaluator and through the independent Kraus path
    g = rng(SEED + 1)
    for trial in range(3):
        ch = qc.random_channel(2, 2, seed=trial)
        game = bell_game(g.dirichlet(np.ones(4)))
        rep = channel_reward(ch, game, FAST)
        again = channel_reward_fixed(ch, rep.preprocessing, game)
        assert abs(rep.value - again) < 1e-12
        assert abs(rep.value - kraus_path_value(ch, rep.preprocessing, game)) < FIXED_EVAL_ATOL


def test_search_objective_scores_a_stack_row_by_row():
    g = rng(SEED + 7)
    mixed = random_density((2, 2), seed=g)
    games = [
        bell_game((0.4, 0.3, 0.2, 0.1)),
        zero_game((0.7, 0.3)),
        ChannelGameSpec(((0.5, mixed), (0.3, max_entangled(2)), (0.2, mixed))),
    ]
    for ch in (qc.amplitude_damping(0.3), qc.random_channel(2, 3, seed=g)):
        for game in games:
            da = bipartite_dims(game.entries[0][1])[0]
            fast = _GameEvaluator(ch, game)
            for env in (da * da, 1):
                side = ch.din * env
                vs = isometry_from_params(side, da, g.uniform(-np.pi, np.pi, (6, n_iso_params(side, da))))
                values = fast(vs)
                assert values.shape == (6,)
                for v, value in zip(vs, values):
                    assert fast(v[None])[0].tobytes() == value.tobytes()
                    e = fast.channel(v)
                    ref = kraus_path_value(ch, e, game)
                    assert abs(value - ref) < FIXED_EVAL_ATOL
                    assert abs(channel_reward_fixed(ch, e, game) - ref) < FIXED_EVAL_ATOL


def test_structured_candidates_score_as_one_stack():
    g = rng(SEED + 8)
    mixed = random_density((2, 2), seed=g)
    games = [bell_game((0.4, 0.3, 0.2, 0.1)), ChannelGameSpec(((0.5, mixed), (0.3, max_entangled(2)), (0.2, mixed)))]
    for ch in (qc.amplitude_damping(0.3), qc.random_channel(2, 3, seed=g), qc.random_channel(3, 2, seed=g)):
        for game in games:
            ev = _GameEvaluator(ch, game)
            cands = _structured_candidates(ch, ev.da)
            values = ev.values(np.stack([ev.superop(c) for c in cands]))
            assert values.shape == (len(cands),)
            for cand, value in zip(cands, values):
                assert np.float64(channel_reward_fixed(ch, cand, game)).tobytes() == value.tobytes()
                assert abs(value - kraus_path_value(ch, cand, game)) < FIXED_EVAL_ATOL


def test_fixed_value_rejects_a_preprocessing_that_does_not_bridge():
    game = bell_game((0.4, 0.3, 0.2, 0.1))
    ch = qc.depolarizing(0.3)
    for e in (qc.random_channel(3, 2, seed=1), qc.random_channel(2, 3, seed=1)):
        with pytest.raises(ValueError, match="do not bridge"):
            channel_reward_fixed(ch, e, game)
        with pytest.raises(ValueError, match="do not bridge"):
            simulate_channel_game(ch, e, game, rounds=10)


def test_projective_povm_reaches_one_on_the_zero_game():
    # request channel.povm.zero of the game_rewards benchmark at seed 1405:
    # the Choi operator has the eigenvalue 1 twice, so the Choi candidates are
    # mixed inputs (0.943, 0.939) and the search stalled at 0.98767; the K+K
    # candidates prepare the POVM's own basis vectors, which it reads exactly
    u = np.array([
        [0.02006791029928845 + 0.6817969770576495j, 0.727148971244281 - 0.07748893256236507j],
        [0.6893325931131362 + 0.24407117224938749j, -0.17769526847949224 + 0.6585394676925069j],
    ])
    ch = qc.povm_channel([np.outer(u[:, k], u[:, k].conj()) for k in range(2)])
    game = zero_game((0.9151435597652894, 0.08485644023471067))
    rep = channel_reward(ch, game, ChannelOpts(restarts=4, sweeps=1, seed=1842053558))
    assert abs(rep.value - 1.0) <= 1e-12
    assert simulate_channel_game(ch, rep.preprocessing, game, rounds=20000, seed=1842053558).wins == 20000


def test_channel_reward_is_reported_no_larger_than_one():
    # the Ky-Fan sums of this search round one ulp above 1
    rep = channel_reward(qc.dephasing(0.5), zero_game((0.7, 0.3)), ChannelOpts(restarts=4, sweeps=1, seed=2))
    assert rep.value == 1.0


def test_channel_reward_deterministic():
    game = bell_game((0.4, 0.3, 0.2, 0.1))
    for ch, seed in ((qc.depolarizing(0.3), 3), (qc.amplitude_damping(0.5), 5)):
        a = channel_reward(ch, game, ChannelOpts(restarts=6, seed=seed)).value
        b = channel_reward(ch, game, ChannelOpts(restarts=6, seed=seed)).value
        assert a == b


def test_analytic_reward_formulas():
    px = (0.4, 0.3, 0.2, 0.1)
    pz = (0.7, 0.3)
    assert analytic_reward("unitary", "bell", px) == 1.0
    assert abs(analytic_reward("classical_identity", "bell", px) - 0.8) < 1e-12
    # frozen cell: 0.7 + 0.3 * (sum x p_x = 2.0) / 4 = 0.85
    assert abs(analytic_reward("depolarizing", "bell", px, gamma=0.3) - 0.85) < 1e-12
    assert abs(analytic_reward("depolarizing", "zero", pz, gamma=0.3) - (1 - 0.3 * 0.7 / 2)) < 1e-12
    assert abs(analytic_reward("amplitude_damping", "bell", px, gamma=0.3) - (1 - 0.4 * 0.3 / 2)) < 1e-12
    assert analytic_reward("amplitude_damping", "zero", pz, gamma=0.3) == 1.0
    assert abs(analytic_reward("dephasing", "bell", px, gamma=0.5) - (1 - 0.5 * 0.4 / 2)) < 1e-12
    sigma = random_density((2,), seed=SEED)
    lam = eig_desc(sigma.mat)
    want_zero = 0.7 * lam[0] + 0.3  # top-1 then everything
    assert abs(analytic_reward("replacement", "zero", pz, sigma=sigma) - want_zero) < 1e-10
    with pytest.raises(ValueError):
        analytic_reward("unitary", "middle", px)
    with pytest.raises(ValueError):
        analytic_reward("hadamard_noise", "bell", px)
    with pytest.raises(ValueError):
        analytic_reward("unitary", "bell", (float("nan"), 0.5, 0.3, 0.2))


def test_amp_damp_note_flags_the_discrepancy():
    assert "erratum" in AMP_DAMP_TABLE_NOTE


def test_optimizer_reaches_analytic_cells():
    px = (0.4, 0.3, 0.2, 0.1)
    pz = (0.7, 0.3)
    cells = [
        (qc.depolarizing(0.3), bell_game(px), analytic_reward("depolarizing", "bell", px, gamma=0.3)),
        (qc.amplitude_damping(0.7), bell_game(px), analytic_reward("amplitude_damping", "bell", px, gamma=0.7)),
        (qc.dephasing(0.7), zero_game(pz), analytic_reward("dephasing", "zero", pz, gamma=0.7)),
        (qc.classical_identity(2), bell_game(px), 0.8),
    ]
    for ch, game, want in cells:
        got = channel_reward(ch, game, FAST).value
        assert abs(got - want) < 1e-6, (want, got)


def test_classical_channels_reduce_to_best_input():
    # diagonal-Kraus channels: the optimum is a classical input choice
    g = rng(SEED + 2)
    for trial in range(5):
        s = g.dirichlet(np.ones(2), size=2).T  # column-stochastic 2x2
        ks = tuple(
            np.sqrt(s[i, j]) * np.outer(ket(i, 2), ket(j, 2))
            for i in range(2)
            for j in range(2)
            if s[i, j] > 1e-14
        )
        ch = qc.QuantumChannel((2,), (2,), ks)
        p = g.dirichlet(np.ones(2))
        game = zero_game(p)
        classical_best = max(
            sum(px * kyfan(np.diag(s[:, z]), min(x, 2)) for x, px in enumerate(p, start=1))
            for z in range(2)
        )
        rep = channel_reward(ch, game, FAST)
        assert rep.value >= classical_best - 1e-9, f"trial {trial}"
        assert rep.value <= classical_best + 1e-6, f"trial {trial}"


def test_degrade_identity_part_is_parent():
    n = qc.random_channel(2, 2, seed=SEED)
    m = degrade(n, [(1.0, qc.identity_channel((2,)), qc.identity_channel((2,)))])
    np.testing.assert_allclose(qc.choi(m), qc.choi(n), atol=1e-10)


def test_degrade_validation():
    n = qc.random_channel(2, 2, seed=SEED)
    with pytest.raises(ValueError):
        degrade(n, [(0.7, qc.identity_channel((2,)), qc.identity_channel((2,)))])  # weights
    with pytest.raises(ValueError):
        degrade(n, [(1.0, qc.depolarizing(0.5), qc.identity_channel((2,)))])  # post not isometry
    with pytest.raises(ValueError):
        degrade(n, [(float("nan"), qc.identity_channel((2,)), qc.identity_channel((2,))),
                    (1.0, qc.identity_channel((2,)), qc.identity_channel((2,)))])


def test_full_scramble_degradation_hits_replacement_row():
    # scrambling the input turns any unital parent into replacement at u
    n = qc.depolarizing(0.3)
    m = degrade(n, [(1.0, qc.identity_channel((2,)), qc.randomizing(2))])
    pz = (1.0, 0.0)
    got = channel_reward(m, zero_game(pz), FAST).value
    assert abs(got - 0.5) < 1e-9  # top-1 of the flat pair
    px = (0.4, 0.3, 0.2, 0.1)
    want = analytic_reward("replacement", "bell", px, sigma=maximally_mixed((2,)))
    got_bell = channel_reward(m, bell_game(px), FAST).value
    assert abs(got_bell - want) < 1e-6


def test_degraded_channel_never_beats_parent():
    g = rng(SEED + 3)
    for trial in range(2):
        n = qc.random_channel(2, 2, seed=trial)
        parts = []
        ps = g.dirichlet(np.ones(2))
        for p in ps:
            v = qc.unitary_channel(haar_unitary(2, seed=int(g.integers(1 << 30))))
            e = qc.random_channel(2, 2, seed=int(g.integers(1 << 30)))
            parts.append((float(p), v, e))
        m = degrade(n, parts)

        def hints(e_star, parts=parts):
            return [qc.compose(ez, e_star) for _, _, ez in parts]

        v = compare_channels(n, m, n_games=8, seed=trial, opts=ChannelOpts(restarts=2, sweeps=1), hints_for_first=hints)
        assert v.consistent, f"trial {trial}"


def test_unitary_dominates_random_qubit_channels():
    u = haar_unitary(2, seed=SEED)
    first = qc.unitary_channel(u)
    for trial in range(2):
        second = qc.random_channel(2, 2, seed=trial + 7)

        def hints(e_star, second=second):
            # route second's best play through the unitary: U (U+ o N o E*)
            return [qc.compose(qc.unitary_channel(dagger(u)), qc.compose(second, e_star))]

        v = compare_channels(first, second, n_games=8, seed=trial, opts=ChannelOpts(restarts=2, sweeps=1), hints_for_first=hints)
        assert v.consistent, f"trial {trial}"


def test_small_unitary_loses_on_larger_entangled_game():
    # a qutrit unitary keeps the d=3 entangled game at 1; squeezing through
    # a qubit cannot
    phi3 = max_entangled(3)
    game = ChannelGameSpec(((1.0, phi3),))
    big = qc.unitary_channel(haar_unitary(3, seed=1), dims=(3,))
    small = qc.unitary_channel(haar_unitary(2, seed=1), dims=(2,))
    assert channel_reward(big, game, FAST).value > 1.0 - 1e-9
    assert channel_reward(small, game, ChannelOpts(restarts=6, seed=SEED)).value < 0.95


def test_replacement_verdicts_match_spectrum_majorization():
    g = rng(SEED + 4)
    for trial in range(4):
        s1 = random_density((2,), seed=g)
        s2 = random_density((2,), seed=g)
        first = qc.replacement(s1)
        second = qc.replacement(s2)
        expect = majorizes(eig_desc(s1.mat), eig_desc(s2.mat))
        v = compare_channels(first, second, n_games=6, seed=trial, opts=ChannelOpts(restarts=2, sweeps=1))
        assert v.consistent == expect, f"trial {trial}"


def test_spectrum_probe_games_are_kyfan_prefixes():
    n = qc.amplitude_damping(0.6)
    idc = qc.identity_channel((2,))
    out = qc.apply_mat(n, pure(ket(0, 2), (2,)).mat)
    for w, game in enumerate(spectrum_probe_games(2, 2), start=1):
        got = channel_reward_fixed(n, idc, game)
        assert abs(got - kyfan(out, w)) < 1e-12


def test_output_purity_depolarizing_frozen():
    ch = qc.depolarizing(0.4)
    g = rng(SEED + 5)
    for _ in range(5):
        v = g.normal(size=2) + 1j * g.normal(size=2)
        psi = pure(v / np.linalg.norm(v), (2,))
        assert abs(output_purity(ch, psi) - 0.68) < 1e-10
    rep = max_output_purity(ch)
    assert abs(rep.value - 0.68) < 1e-8


def test_max_output_purity_unitary_is_one():
    rep = max_output_purity(qc.unitary_channel(haar_unitary(2, seed=2)))
    assert abs(rep.value - 1.0) < 1e-9


def test_purity_game_analytic_value():
    # depolarizing 0.4 on |0><0|: spectrum (0.8, 0.2), alpha = 1.25,
    # game value alpha * Tr[M(rho*)^2] = 1.25 * 0.68 = 0.85
    m = qc.depolarizing(0.4)
    rho_star = pure(ket(0, 2), (2,))
    pg = purity_game(m, rho_star)
    assert abs(pg.alpha - 1.25) < 1e-10
    got = channel_reward(m, pg.game, FAST).value
    assert abs(got - pg.alpha * output_purity(m, rho_star)) < 1e-5
    assert abs(got - 0.85) < 1e-5


def test_purity_never_improves_under_degradation():
    g = rng(SEED + 6)
    for trial in range(3):
        n = qc.random_channel(2, 2, seed=trial + 20)
        v = qc.unitary_channel(haar_unitary(2, seed=trial))
        e = qc.random_channel(2, 2, seed=trial + 40)
        m = degrade(n, [(1.0, v, e)])
        best_m = max_output_purity(m)
        # seed the parent search with the degraded channel's favourite input
        best_n = max_output_purity(n, extra_inputs=(qc.apply(e, best_m.best_input),))
        assert best_n.value >= best_m.value - 1e-4, f"trial {trial}"
