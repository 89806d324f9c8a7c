"""Workload ``game_rewards``: optimised channel and state game rewards.

A round is 26 channel requests and 9 state requests.  Channel requests score
the seven-kind qubit zoo (unitary, classical identity, depolarizing, POVM,
amplitude damping, replacement, dephasing; the three noisy kinds at three
noise strengths) on the Bell and zero games with ``channel_reward``, then
replay the found preprocessing twice with ``mc_sim`` under one seed.  State
requests score 2x2 states (maximally entangled, product, random entangled)
with and without the adversary and replay Bob's strategy.  Coordinate
descent in ``optim`` dominates; the dual and the CUSC constructions are
never called.

The 9 state requests all run the adversary search and are the slowest, so
the 90th percentile sits inside them and the median inside the channel
requests.
"""

from __future__ import annotations

import json

import numpy as np

import qce
from qce import channels as qc
from qce import serialize as ser

import checks
from inputs import Op, child_rng, column_stochastic, haar_unitary, max_entangled, mixed_state, sorted_pmf, to_json

GAMMAS = (0.2, 0.5, 0.8)
KINDS = ("unitary", "classical_identity", "depolarizing", "povm", "amplitude_damping", "replacement", "dephasing")
NOISY = ("depolarizing", "amplitude_damping", "dephasing")
STATE_KINDS = ("maxent", "maxent", "maxent_half", "product", "product", "product", "entangled", "entangled", "entangled")

CHANNEL_OPTS = dict(restarts=4, sweeps=1)
STATE_OPTS = dict(restarts=1, sweeps=1)
REPLAY_ROUNDS = 20000

LAYERS = {
    "serialize.decode_ms": (
        "serialize.decode_channel", "serialize.decode_channel_game",
        "serialize.decode_density", "serialize.decode_state_game",
    ),
    "serialize.encode_ms": ("serialize.encode_sim_result", "serialize.dumps"),
    "channel_games.reward_ms": ("channel_games.channel_reward",),
    "state_games.reward_ms": ("state_games.reward_noadv",),
    "state_games.adversary_ms": ("state_games.reward",),
    "mc_sim.simulate_ms": ("mc_sim.simulate_channel_game", "mc_sim.simulate_state_game"),
}


def _zoo_channel(g, tr, kind: str, gamma: float):
    """(channel, eigenvalues of the replacement state or None)."""
    if kind == "unitary":
        return qc.unitary_channel(haar_unitary(g, 2)), None
    if kind == "classical_identity":
        return qc.classical_identity(2), None
    if kind == "povm":
        u = haar_unitary(g, 2)
        return qc.povm_channel([np.outer(u[:, k], u[:, k].conj()) for k in range(2)]), None
    if kind == "replacement":
        sigma = mixed_state(g, 2)
        return qc.replacement(tr.call(qce.density, sigma, (2,))), np.linalg.eigvalsh(sigma)
    return getattr(qc, kind)(gamma), None


def _channel_op(g, tr, kind: str, gamma: float, game: str) -> Op:
    ch, sigma_eigs = _zoo_channel(g, tr, kind, gamma)
    p = sorted_pmf(g, 4 if game == "bell" else 2)
    spec = qce.bell_game(p) if game == "bell" else qce.zero_game(p)
    ch_request = to_json(ser.encode_channel(ch))
    game_request = to_json(ser.encode_channel_game(spec))
    closed = checks.zoo_closed_form(kind, game, p, gamma, sigma_eigs)
    seed = int(g.integers(1 << 31))
    label = f"{kind} {game} gamma={gamma}"

    def run(tr):
        n = tr.call(ser.decode_channel, json.loads(ch_request))
        gm = tr.call(ser.decode_channel_game, json.loads(game_request))
        rep = tr.call(qce.channel_reward, n, gm, qce.ChannelOpts(seed=seed, **CHANNEL_OPTS))
        tr.count("optim.restarts", rep.restarts_used)
        tr.count("channel_games.restarts", rep.restarts_used)
        sims = [
            tr.call(qce.simulate_channel_game, n, rep.preprocessing, gm, rounds=REPLAY_ROUNDS, seed=seed)
            for _ in range(2)
        ]
        tr.count("mc_sim.rounds", 2 * REPLAY_ROUNDS)
        tr.call(ser.dumps, {"value": rep.value, "sim": tr.call(ser.encode_sim_result, sims[0])})
        return rep.value, sims

    def check(o):
        value, sims = o
        return checks.reward_bound_errors(value, closed, label) + _sim_errors(sims, closed, label)

    return Op(f"channel.{kind}.{game}", run, check)


def _state_game_json(t: np.ndarray, p_adv: float) -> str:
    return to_json({"t": t.tolist(), "p_adv": p_adv})


W1_HOST = np.array([[1.0], [0.0]])


def _state_op(g, tr, kind: str) -> Op:
    if kind.startswith("maxent"):
        mat = max_entangled(2)
    elif kind == "product":
        rho_a = mixed_state(g, 2)
        mat = np.kron(rho_a, mixed_state(g, 2))
    else:
        mat = mixed_state(g, 4)
    state_request = to_json(ser.encode_density(tr.call(qce.density, mat, (2, 2))))
    t = column_stochastic(g, 2, 2)
    free_request = _state_game_json(t, 0.0)
    adv_request = {
        "maxent": _state_game_json(t, 1.0),
        "maxent_half": _state_game_json(t, 0.5),
        "product": _state_game_json(W1_HOST, 1.0),
        "entangled": _state_game_json(t, 1.0),
    }[kind]
    seed = int(g.integers(1 << 31))
    opts = qce.OptOpts(seed=seed, **STATE_OPTS)
    inner = qce.OptOpts(seed=seed + 1, **STATE_OPTS)

    def run(tr):
        st = tr.call(ser.decode_density, json.loads(state_request))
        free = tr.call(ser.decode_state_game, json.loads(free_request))
        adv = tr.call(ser.decode_state_game, json.loads(adv_request))
        out = {}
        if kind != "maxent_half":
            rep = tr.call(qce.reward_noadv, st, free.host, opts)
            tr.count("optim.restarts", rep.restarts_used)
            out["free"] = rep.value
            if kind in ("maxent", "product"):
                out["free_sims"] = _replay(tr, st, free, rep.strategy, None, seed)
        rep_adv = tr.call(qce.reward, st, adv, opts, inner)
        tr.count("optim.restarts", rep_adv.restarts_used)
        out["adv"] = rep_adv.value
        if kind == "product":
            bob = tr.call(qce.reward_noadv, st, adv.host, opts)
            tr.count("optim.restarts", bob.restarts_used)
            out["adv_sims"] = _replay(tr, st, adv, bob.strategy, rep_adv.adversary, seed + 2)
        tr.call(ser.dumps, {k: v for k, v in out.items() if not k.endswith("sims")})
        return out

    def check(o):
        errs = []
        if kind.startswith("maxent"):
            for key in ("free", "adv"):
                if key in o and abs(o[key] - 1.0) > 1e-6:
                    errs.append(f"maximally entangled state scored {o[key]!r} ({key})")
            if "free_sims" in o:
                errs += _sim_errors(o["free_sims"], 1.0, "maximally entangled replay")
        elif kind == "product":
            closed = checks.product_state_reward(rho_a, t)
            if abs(o["free"] - closed) > 1e-9:
                errs.append(f"product state scored {o['free']!r}, closed form {closed!r}")
            if abs(o["adv"] - 0.5) > 1e-6:
                errs.append(f"product state scored {o['adv']!r} under the full adversary, not 1/2")
            errs += _sim_errors(o["free_sims"], closed, "product replay")
            errs += _sim_errors(o["adv_sims"], 0.5, "product adversary replay")
        if "free" in o and o["adv"] > o["free"] + 1e-9:
            errs.append(f"reward with the adversary {o['adv']!r} above the reward without {o['free']!r}")
        return errs

    return Op(f"state.{kind}", run, check)


def _replay(tr, st, game, strategy, adversary, seed):
    sims = [
        tr.call(qce.simulate_state_game, st, game, strategy, adversary, rounds=REPLAY_ROUNDS, seed=seed)
        for _ in range(2)
    ]
    tr.count("mc_sim.rounds", 2 * REPLAY_ROUNDS)
    return sims


def _sim_errors(sims, closed: float, label: str) -> list[str]:
    errs = checks.win_rate_errors(sims[0].wins, sims[0].rounds, closed, label)
    if sims[0] != sims[1]:
        errs.append(f"{label}: equal seeds replayed differently")
    return errs


def build(seed: int, tr) -> list[Op]:
    chans = []
    i = 0
    for kind in KINDS:
        for gamma in GAMMAS if kind in NOISY else (0.0,):
            for game in ("bell", "zero"):
                chans.append(_channel_op(child_rng(seed, i), tr, kind, gamma, game))
                i += 1
    states = [_state_op(child_rng(seed, 100 + j), tr, kind) for j, kind in enumerate(STATE_KINDS)]
    # One state request after every third channel request.
    ops = []
    for j, op in enumerate(chans):
        ops.append(op)
        if j % 3 == 2 and states:
            ops.append(states.pop(0))
    return ops + states
