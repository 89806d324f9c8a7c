"""Release gate: thirteen end-to-end checks at the shipped tolerances.

Each check prints one `criterion NN ...: PASS` line (visible with -s/-rP)
and carries its own runtime budget where one is promised.
"""

import time

import numpy as np

from qce import channels as qc
from qce import serialize as ser
from qce.channel_games import (
    AMP_DAMP_TABLE_NOTE,
    ChannelOpts,
    analytic_reward,
    bell_game,
    channel_reward,
    compare_channels,
    degrade,
    max_output_purity,
    output_purity,
    purity_game,
    zero_game,
)
from qce.classical import (
    apply_cds_classical,
    cond_majorizes_classical,
    embed_classical,
    fixed_w_host,
    prob_t,
    random_cds_data,
    random_host,
    random_joint,
)
from qce.cusc import (
    bell_scrambler,
    cds_channel,
    is_cusc,
    nonneg_witness_channel,
    nonneg_witness_choi_deviations,
    random_cusc,
    separable_prep_channel,
    teleport_cusc,
    unitary_sending_zero_to,
)
from qce.entropy import DMAX, UMEGAKI, cond_entropy_down, dual_cond_entropy, vn_cond_entropy
from qce.linalg import (
    dagger,
    density,
    eig_desc,
    eigh_desc,
    fourier_matrix,
    group_dims,
    haar_unitary,
    ket,
    kron,
    majorizes,
    max_entangled,
    maximally_mixed,
    permutation_matrix,
    permute_systems,
    proj,
    pure,
    random_density,
    random_pure,
    rng,
)
from qce.mc_sim import simulate_channel_game, simulate_state_game
from qce.optim import OptOpts
from qce.state_games import Adversary, StateGameSpec, StateStrategy, compare_states, reward, reward_noadv

SEED = 20240901


def _pass(num: int, label: str, elapsed: float | None = None) -> None:
    tail = f" ({elapsed:.2f}s)" if elapsed is not None else ""
    print(f"criterion {num:02d} {label}: PASS{tail}")


def test_criterion_01_entangled_state_hits_entropy_floor():
    t0 = time.perf_counter()
    for d in (2, 3, 4):
        phi = max_entangled(d)
        for kind in (UMEGAKI, DMAX):
            assert abs(cond_entropy_down(phi, kind) + np.log2(d)) <= 1e-8, (d, kind)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _pass(1, "entangled state hits the -log2(d) floor", elapsed)


def test_criterion_02_entropy_never_below_floor():
    t0 = time.perf_counter()
    g = rng(SEED + 2)
    dims = [(2, 2), (2, 3), (3, 2)]
    for i in range(500):
        da, db = dims[i % 3]
        s = random_density((da, db), seed=g)
        floor = -np.log2(min(da, db)) - 1e-7
        for kind in (UMEGAKI, DMAX):
            assert cond_entropy_down(s, kind) >= floor, (i, kind)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _pass(2, "500 random states stay above the floor", elapsed)


def test_criterion_03_separable_states_nonnegative():
    g = rng(SEED + 3)
    for i in range(200):
        ps = g.dirichlet(np.ones(3))
        mat = sum(
            p * np.kron(random_density((2,), seed=g).mat, random_density((2,), seed=g).mat)
            for p in ps
        )
        s = density(mat, (2, 2))
        assert vn_cond_entropy(s) >= -1e-8, i
    _pass(3, "200 separable states score nonnegative entropy")


def test_criterion_04_additivity_monotonicity_normalization():
    g = rng(SEED + 4)
    for i in range(50):
        s1 = random_density((2, 2), seed=g)
        s2 = random_density((2, 2), seed=g)
        joint = permute_systems(density(np.kron(s1.mat, s2.mat), (2, 2, 2, 2)), [0, 2, 1, 3])
        joint = group_dims(joint, [[0, 1], [2, 3]])
        for kind in (UMEGAKI, DMAX):
            total = cond_entropy_down(joint, kind)
            parts = cond_entropy_down(s1, kind) + cond_entropy_down(s2, kind)
            assert abs(total - parts) <= 1e-7, (i, kind)
    for i in range(100):
        s = random_density((2, 2), seed=g)
        ch = random_cusc(2, 2, seed=i)
        out = qc.apply(ch, s)
        out = density(out.mat, (2, out.side // 2))
        for kind in (UMEGAKI, DMAX):
            assert cond_entropy_down(out, kind) >= cond_entropy_down(s, kind) - 1e-7, (i, kind)
    u2 = density(np.eye(2) / 2, (2, 1))
    assert cond_entropy_down(u2, UMEGAKI) == 1.0
    assert abs(cond_entropy_down(u2, DMAX) - 1.0) <= 1e-12
    _pass(4, "additivity, monotonicity, normalization")


def test_criterion_05_vn_entropy_is_self_dual():
    g = rng(SEED + 5)
    h = lambda s: cond_entropy_down(s, UMEGAKI)
    for i in range(50):
        s = random_density((2, 2), seed=g)
        assert abs(dual_cond_entropy(h, s) - h(s)) <= 1e-7, i
    _pass(5, "self-duality on 50 two-qubit states")


def test_criterion_06_constructions_verify_and_swap_cnot_fail():
    t0 = time.perf_counter()
    g = rng(SEED + 6)
    channels = []
    channels.append(cds_channel([np.eye(2)], [[np.eye(2, dtype=complex)]], 2, 2))
    for trial in range(3):
        lam, mu = g.uniform(0.2, 0.8, size=2)
        flip = np.array([[0.0, 1.0], [1.0, 0.0]])
        d0 = lam * np.eye(2) + (1 - lam) * flip
        d1 = mu * np.eye(2) + (1 - mu) * flip
        channels.append(cds_channel([d0, d1], [[proj(ket(0, 2))], [proj(ket(1, 2))]], 2, 2))
    channels.append(teleport_cusc(maximally_mixed((2, 2))))
    channels.append(teleport_cusc(random_density((2, 2), seed=g)))
    channels.append(teleport_cusc(random_density((3, 3), seed=g)))
    channels.append(bell_scrambler(2))
    channels.append(bell_scrambler(3))
    for _ in range(2):
        parts = []
        for p in g.dirichlet(np.ones(3)):
            psi = g.normal(size=2) + 1j * g.normal(size=2)
            phi = g.normal(size=2) + 1j * g.normal(size=2)
            parts.append((float(p), psi / np.linalg.norm(psi), phi / np.linalg.norm(phi)))
        channels.append(separable_prep_channel(parts))
    for ch in channels:
        v = is_cusc(ch)
        assert v.conditionally_unital and v.semicausal_choi
        assert v.max_violation <= 1e-7
    for w in (0.0, 0.5, 1.0):
        rho = density((1 - w) * np.eye(4) / 4 + w * (np.eye(4) - max_entangled(2).mat) / 3, (2, 2))
        dev_in, dev_cross = nonneg_witness_choi_deviations(nonneg_witness_channel(rho))
        assert dev_in <= 1e-7 and dev_cross <= 1e-7, w
    swap = qc.unitary_channel(permutation_matrix((2, 2), [1, 0]), (2, 2))
    cnot_mat = np.zeros((4, 4))
    cnot_mat[0, 0] = cnot_mat[1, 1] = cnot_mat[2, 3] = cnot_mat[3, 2] = 1.0
    cnot = qc.unitary_channel(cnot_mat, (2, 2))
    for bad in (swap, cnot):
        v = is_cusc(bad)
        assert not (v.conditionally_unital and v.semicausal_choi)
        assert v.max_violation >= 1e-3
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _pass(6, "constructions verify; SWAP and CNOT fail", elapsed)


def test_criterion_07_classical_reduction():
    g = rng(SEED + 7)
    opts = OptOpts(restarts=1, sweeps=1, seed=0)
    for i in range(30):
        p = random_joint(3, 3, seed=g)
        state = embed_classical(p)
        for k in range(20):
            host = random_host(3, int(g.integers(1, 4)), seed=g)
            got = reward_noadv(state, host, opts).value
            assert abs(got - prob_t(p, host)) <= 1e-6, (i, k)
    feasible_pairs = []
    for trial in range(10):
        p = random_joint(3, 3, seed=g)
        es, rs = random_cds_data(3, 2, seed=trial)
        q = apply_cds_classical(p, es, rs)
        verdict = cond_majorizes_classical(p, q)
        assert verdict.feasible, trial
        feasible_pairs.append((p, q))
    for trial, (p, q) in enumerate(feasible_pairs):
        for k in range(10):
            host = random_host(3, int(g.integers(1, 4)), seed=g)
            assert prob_t(q, host) <= prob_t(p, host) + 1e-6, (trial, k)
    _pass(7, "embedded joints match the classical game; CDS pairs feasible")


def test_criterion_08_entangled_wins_product_states_coin_flip():
    g = rng(SEED + 8)
    opts = OptOpts(restarts=3, sweeps=1, seed=1)
    inner = OptOpts(restarts=2, sweeps=1, seed=2)
    for d in (2, 3):
        phi = max_entangled(d)
        for trial in range(10):
            host = random_host(d, int(g.integers(1, 4)), seed=g)
            game = StateGameSpec(host, p_adv=float(g.uniform(0.0, 1.0)))
            rep = reward(phi, game, opts, inner_opts=inner)
            assert abs(rep.value - 1.0) <= 1e-6, (d, trial)
    host = fixed_w_host(1, 2)
    game = StateGameSpec(host, p_adv=1.0)
    for trial in range(5):
        state = random_pure((2,), seed=g).tensor(random_pure((2,), seed=g))
        rep = reward(state, game, opts, inner_opts=inner)
        assert abs(rep.value - 0.5) <= 1e-6, trial
    _pass(8, "entangled state wins; product states at 1/2 under adversary")


def test_criterion_09_trivial_b_matches_vector_majorization():
    g = rng(SEED + 9)
    fast = OptOpts(restarts=4, sweeps=1, seed=3)
    for trial in range(30):
        a = random_density((3, 1), seed=g)
        b = random_density((3, 1), seed=g)
        expect = majorizes(eig_desc(a.mat), eig_desc(b.mat))
        got = compare_states(a, b, n_games=8, seed=trial, opts=fast).consistent
        assert got == expect, trial
    _pass(9, "30 verdicts match vector majorization at trivial B")


def test_criterion_10_noisy_channel_table():
    t0 = time.perf_counter()
    g = rng(SEED + 10)
    opts = ChannelOpts(restarts=32, seed=0)
    sigma = random_density((2,), seed=11)
    u_game = haar_unitary(2, seed=12)
    u_povm = haar_unitary(2, seed=13)
    worst = 0.0
    assert "erratum" in AMP_DAMP_TABLE_NOTE
    for gamma in (0.0, 0.3, 0.7, 1.0):
        for _ in range(5):
            px = np.sort(g.dirichlet(np.ones(4)))[::-1]
            pz = np.sort(g.dirichlet(np.ones(2)))[::-1]
            rows = [
                ("unitary", qc.unitary_channel(u_game), {}),
                ("classical_identity", qc.classical_identity(2), {}),
                ("depolarizing", qc.depolarizing(gamma), {"gamma": gamma}),
                ("povm", qc.povm_channel([proj(u_povm[:, 0]), proj(u_povm[:, 1])]), {}),
                ("amplitude_damping", qc.amplitude_damping(gamma), {"gamma": gamma}),
                ("replacement", qc.replacement(sigma), {"sigma": sigma}),
                ("dephasing", qc.dephasing(gamma), {"gamma": gamma}),
            ]
            for kind, ch, params in rows:
                for game_kind, game, p in (("bell", bell_game(px), px), ("zero", zero_game(pz), pz)):
                    want = analytic_reward(kind, game_kind, p, **params)
                    got = channel_reward(ch, game, opts).value
                    gap = abs(got - want)
                    worst = max(worst, gap)
                    assert gap <= 1e-3, (kind, game_kind, gamma, gap)
    elapsed = time.perf_counter() - t0
    assert elapsed < 180.0
    _pass(10, f"table matches analytic values, worst gap {worst:.2e}", elapsed)


def test_criterion_11_degradation_and_dominance():
    g = rng(SEED + 11)
    fast = ChannelOpts(restarts=2, sweeps=1)
    for trial in range(5):
        n = qc.random_channel(2, 2, seed=trial)
        parts = []
        for p in g.dirichlet(np.ones(2)):
            v = qc.unitary_channel(haar_unitary(2, seed=int(g.integers(1 << 30))))
            e = qc.random_channel(2, 2, seed=int(g.integers(1 << 30)))
            parts.append((float(p), v, e))
        m = degrade(n, parts)

        def hints(e_star, parts=parts):
            return [qc.compose(ez, e_star) for _, _, ez in parts]

        v = compare_channels(n, m, n_games=10, seed=trial, opts=fast, hints_for_first=hints)
        assert v.consistent, trial
        assert v.games_checked == 10

    u = haar_unitary(2, seed=SEED)
    first = qc.unitary_channel(u)
    for trial in range(2):
        second = qc.random_channel(2, 2, seed=trial + 7)

        def hints(e_star, second=second):
            return [qc.compose(qc.unitary_channel(dagger(u)), qc.compose(second, e_star))]

        v = compare_channels(first, second, n_games=10, seed=trial, opts=fast, hints_for_first=hints)
        assert v.consistent, trial

    for trial in range(20):
        s1 = random_density((2,), seed=g)
        s2 = random_density((2,), seed=g)
        expect = majorizes(eig_desc(s1.mat), eig_desc(s2.mat))
        v = compare_channels(qc.replacement(s1), qc.replacement(s2), n_games=6, seed=trial, opts=fast)
        assert v.consistent == expect, trial
    _pass(11, "no degraded or noisy channel beats its parent; replacements match spectra")


def test_criterion_12_purity_game_and_degradation():
    g = rng(SEED + 12)
    targets = [
        qc.depolarizing(0.4),
        qc.amplitude_damping(0.3),
        qc.dephasing(0.6),
        qc.unitary_channel(haar_unitary(2, seed=1)),
        qc.random_channel(2, 2, seed=2),
        qc.random_channel(2, 2, seed=3),
    ]
    deep = lambda i: OptOpts(restarts=16, sweeps=14, seed=i)  # small steps pin rho* tightly
    for i, m in enumerate(targets):
        best = max_output_purity(m, deep(i))
        pg = purity_game(m, best.best_input)
        prep = qc.unitary_channel(unitary_sending_zero_to(_top_vec(best.best_input)))
        got = channel_reward(m, pg.game, ChannelOpts(restarts=8, seed=i), extra_candidates=(prep,)).value
        want = pg.alpha * output_purity(m, best.best_input)
        assert abs(got - want) <= 1e-5, i
    for trial in range(10):
        n = qc.random_channel(2, 2, seed=trial + 20)
        v = qc.unitary_channel(haar_unitary(2, seed=trial))
        e = qc.random_channel(2, 2, seed=trial + 40)
        m = degrade(n, [(1.0, v, e)])
        best_m = max_output_purity(m, deep(trial))
        best_n = max_output_purity(n, deep(trial), extra_inputs=(qc.apply(e, best_m.best_input),))
        assert best_n.value >= best_m.value - 1e-4, trial
    _pass(12, "purity game matches alpha*Tr[M(rho*)^2]; degradation never purifies")


def _top_vec(state):
    _, vecs = eigh_desc(state.mat)
    return vecs[:, 0]


def test_criterion_13_monte_carlo_matches_and_reproduces():
    t0 = time.perf_counter()
    rounds = 10**5
    px = np.array([0.4, 0.3, 0.2, 0.1])
    pz = np.array([0.7, 0.3])
    gamma = 0.3
    sigma = random_density((2,), seed=11)
    u_game = haar_unitary(2, seed=12)
    u_povm = haar_unitary(2, seed=13)
    rows = [
        ("unitary", qc.unitary_channel(u_game), {}),
        ("classical_identity", qc.classical_identity(2), {}),
        ("depolarizing", qc.depolarizing(gamma), {"gamma": gamma}),
        ("povm", qc.povm_channel([proj(u_povm[:, 0]), proj(u_povm[:, 1])]), {}),
        ("amplitude_damping", qc.amplitude_damping(gamma), {"gamma": gamma}),
        ("replacement", qc.replacement(sigma), {"sigma": sigma}),
        ("dephasing", qc.dephasing(gamma), {"gamma": gamma}),
    ]
    opts = ChannelOpts(restarts=8, seed=1)
    for i, (kind, ch, params) in enumerate(rows):
        for game_kind, game, p in (("bell", bell_game(px), px), ("zero", zero_game(pz), pz)):
            want = analytic_reward(kind, game_kind, p, **params)
            rep = channel_reward(ch, game, opts)
            res = simulate_channel_game(ch, rep.preprocessing, game, rounds=rounds, seed=100 + i)
            band = 4 * res.std_err + 1e-12
            assert abs(res.win_rate - want) <= band, (kind, game_kind, res.win_rate, want)

    phi = max_entangled(2)
    host = random_host(2, 2, seed=SEED)
    rep = reward_noadv(phi, host, OptOpts(restarts=4, seed=2))
    res = simulate_state_game(phi, StateGameSpec(host), rep.strategy, rounds=rounds, seed=200)
    assert res.win_rate == 1.0

    coin_host = fixed_w_host(1, 2)
    strat = StateStrategy(np.eye(2, dtype=complex), np.zeros(2, dtype=int))
    adv = Adversary(fourier_matrix(2), ((0,), (1,)), strat)
    for p_adv, want in ((0.0, 1.0), (1.0, 0.5), (0.5, 0.75)):
        res = simulate_state_game(phi, StateGameSpec(coin_host, p_adv), strat, adv, rounds=rounds, seed=201)
        assert abs(res.win_rate - want) <= 4 * res.std_err + 1e-12, p_adv

    g = rng(SEED + 13)
    p = random_joint(3, 3, seed=g)
    chost = random_host(3, 2, seed=g)
    state = embed_classical(p)
    srep = reward_noadv(state, chost, OptOpts(restarts=0, sweeps=0))
    res = simulate_state_game(state, StateGameSpec(chost), srep.strategy, rounds=rounds, seed=202)
    assert abs(res.win_rate - prob_t(p, chost)) <= 4 * res.std_err + 1e-12

    dep = qc.depolarizing(0.4)
    game = bell_game(px)
    rep = channel_reward(dep, game, opts)
    a = simulate_channel_game(dep, rep.preprocessing, game, rounds=rounds, seed=303)
    b = simulate_channel_game(dep, rep.preprocessing, game, rounds=rounds, seed=303)
    assert a == b
    assert ser.dumps(ser.encode_sim_result(a)) == ser.dumps(ser.encode_sim_result(b))
    sa = simulate_state_game(phi, StateGameSpec(coin_host, 0.5), strat, adv, rounds=rounds, seed=404)
    sb = simulate_state_game(phi, StateGameSpec(coin_host, 0.5), strat, adv, rounds=rounds, seed=404)
    assert sa == sb

    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    _pass(13, "simulation within 4 standard errors; seeds reproduce bitwise", elapsed)
