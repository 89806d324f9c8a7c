"""Command line interface.

Subcommands: entropy, cusc-check, state-reward, channel-reward, table,
classical-majorize, simulate.  All results go to stdout as deterministic
JSON (or csv/md for the table); exit code 0 means the computation ran, 1
flags bad input, 2 flags a numerical failure.  Negative verdicts are data,
not errors.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import channels as qc
from . import serialize as ser
from .channel_games import (
    AMP_DAMP_TABLE_NOTE,
    ChannelOpts,
    analytic_reward,
    bell_game,
    channel_reward,
    zero_game,
)
from .classical import LpSolverError, cond_majorizes_classical, prob_t
from .cusc import is_cusc
from .entropy import DMAX, UMEGAKI, cond_entropy_down, dual_cond_entropy
from .linalg import haar_unitary, proj, random_density
from .mc_sim import simulate_channel_game, simulate_state_game
from .optim import OptOpts
from .state_games import reward as state_reward

TABLE_GAP_FLAG = 1e-3


def _load_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _emit(obj) -> None:
    sys.stdout.write(ser.dumps(obj) + "\n")


def cmd_entropy(args) -> None:
    state = ser.decode_density(_load_json(args.state))
    value = cond_entropy_down(state, args.divergence)
    out = {"divergence": args.divergence, "value": value}
    if args.dual:
        out["dual"] = dual_cond_entropy(lambda s: cond_entropy_down(s, args.divergence), state)
    _emit(out)


def cmd_cusc_check(args) -> None:
    ch = ser.decode_channel(_load_json(args.channel))
    verdict = is_cusc(ch, tol=args.tol, operational_trials=args.operational_trials, seed=args.seed)
    _emit(ser.encode_cusc_verdict(verdict))


def cmd_state_reward(args) -> None:
    state = ser.decode_density(_load_json(args.state))
    game = ser.decode_state_game(_load_json(args.game))
    opts = OptOpts(restarts=args.restarts, seed=args.seed)
    report = state_reward(state, game, opts)
    _emit({"value": report.value, "p_adv": game.p_adv, "restarts_used": report.restarts_used})


def cmd_channel_reward(args) -> None:
    ch = ser.decode_channel(_load_json(args.channel))
    game = ser.decode_channel_game(_load_json(args.game))
    opts = ChannelOpts(restarts=args.restarts, seed=args.seed, kraus_rank=args.kraus_rank)
    report = channel_reward(ch, game, opts)
    _emit({"value": report.value, "restarts_used": report.restarts_used})


def _table_channel(kind: str, gamma: float, seed: int):
    if kind == "unitary":
        return qc.unitary_channel(haar_unitary(2, seed)), {}
    if kind == "classical_identity":
        return qc.classical_identity(2), {}
    if kind == "depolarizing":
        return qc.depolarizing(gamma), {"gamma": gamma}
    if kind == "povm":
        u = haar_unitary(2, seed + 1)
        elements = [proj(u[:, 0]), proj(u[:, 1])]
        return qc.povm_channel(elements), {}
    if kind == "amplitude_damping":
        return qc.amplitude_damping(gamma), {"gamma": gamma}
    if kind == "replacement":
        sigma = random_density((2,), seed=seed + 2)
        return qc.replacement(sigma), {"sigma": sigma}
    if kind == "dephasing":
        return qc.dephasing(gamma), {"gamma": gamma}
    raise ValueError(f"unknown table kind {kind!r}")


TABLE_KINDS = (
    "unitary",
    "classical_identity",
    "depolarizing",
    "povm",
    "amplitude_damping",
    "replacement",
    "dephasing",
)
GAMMA_KINDS = ("depolarizing", "amplitude_damping", "dephasing")


def build_table(gammas, px, pz, restarts: int, seed: int) -> list[dict]:
    rows = []
    opts = ChannelOpts(restarts=restarts, seed=seed)
    for kind in TABLE_KINDS:
        kind_gammas = gammas if kind in GAMMA_KINDS else [gammas[0]]
        for gamma in kind_gammas:
            ch, params = _table_channel(kind, gamma, seed)
            for game_kind, game, p in (("bell", bell_game(px), px), ("zero", zero_game(pz), pz)):
                analytic = float(analytic_reward(kind, game_kind, p, gamma=params.get("gamma"), sigma=params.get("sigma")))
                optimized = channel_reward(ch, game, opts).value
                gap = abs(optimized - analytic)
                flagged = bool(gap > TABLE_GAP_FLAG)
                row = {
                    "kind": kind,
                    "game": game_kind,
                    "gamma": gamma if kind in GAMMA_KINDS else None,
                    "analytic": analytic,
                    "optimized": optimized,
                    "gap": gap,
                    "flagged": flagged,
                }
                if kind == "amplitude_damping" and game_kind == "bell":
                    row["note"] = AMP_DAMP_TABLE_NOTE
                rows.append(row)
    return rows


def _format_table(rows, fmt: str) -> str:
    if fmt == "json":
        return ser.dumps(rows)
    cols = ["kind", "game", "gamma", "analytic", "optimized", "gap", "flagged"]

    def cell(row, c):
        v = row.get(c)
        if v is None:
            return ""
        if isinstance(v, float):
            return f"{v:.12g}"
        return str(v)

    if fmt == "csv":
        lines = [",".join(cols)]
        lines += [",".join(cell(r, c) for c in cols) for r in rows]
        return "\n".join(lines)
    if fmt == "md":
        lines = ["| " + " | ".join(cols) + " |", "|" + "---|" * len(cols)]
        lines += ["| " + " | ".join(cell(r, c) for c in cols) + " |" for r in rows]
        return "\n".join(lines)
    raise ValueError(f"unknown format {fmt!r}")


def cmd_table(args) -> None:
    gammas = [float(x) for x in args.gamma.split(",")] if args.gamma else [0.3]
    if args.px:
        px = np.array([float(x) for x in args.px.split(",")], dtype=float)
    else:
        px = np.array([0.4, 0.3, 0.2, 0.1])
    if px.size != 4:
        raise ValueError("--px needs 4 comma-separated weights for the max-entangled game")
    pz = px[:2] / px[:2].sum()
    rows = build_table(gammas, px, pz, args.restarts, args.seed)
    sys.stdout.write(_format_table(rows, args.format) + "\n")


def cmd_classical_majorize(args) -> None:
    with open(args.p) as fh:
        p = ser.joint_from_csv(fh.read())
    with open(args.q) as fh:
        q = ser.joint_from_csv(fh.read())
    verdict = cond_majorizes_classical(p, q, tol=args.tol)
    out = {"feasible": verdict.feasible}
    if verdict.certificate is not None:
        out["residual"] = verdict.certificate.residual
        out["t"] = [[float(v) for v in row] for row in verdict.certificate.t]
    if verdict.witness_host is not None:
        out["witness_t"] = [[float(v) for v in row] for row in verdict.witness_host.t]
        out["witness_gap"] = prob_t(q, verdict.witness_host) - prob_t(p, verdict.witness_host)
    _emit(out)


def cmd_simulate(args) -> None:
    if args.rounds < 1:
        raise ValueError("--rounds must be positive")
    if args.state and args.channel:
        raise ValueError("pass either --state or --channel, not both")
    if args.state:
        state = ser.decode_density(_load_json(args.state))
        game = ser.decode_state_game(_load_json(args.game))
        opts = OptOpts(restarts=args.restarts, seed=args.seed)
        report = state_reward(state, game, opts)
        # only a p_adv = 1 report has no plain-round strategy, and then no plain round is played
        strategy = report.strategy if report.strategy is not None else report.adversary.response
        res = simulate_state_game(state, game, strategy, report.adversary, rounds=args.rounds, seed=args.seed)
    elif args.channel:
        ch = ser.decode_channel(_load_json(args.channel))
        game = ser.decode_channel_game(_load_json(args.game))
        report = channel_reward(ch, game, ChannelOpts(restarts=args.restarts, seed=args.seed))
        res = simulate_channel_game(ch, report.preprocessing, game, rounds=args.rounds, seed=args.seed)
    else:
        raise ValueError("simulate needs --state or --channel")
    _emit(ser.encode_sim_result(res))


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="qce", description="quantum conditional entropy toolkit")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("entropy", help="conditional entropy of a bipartite state")
    p.add_argument("--state", required=True)
    p.add_argument("--divergence", choices=[UMEGAKI, DMAX], default=UMEGAKI)
    p.add_argument("--dual", action="store_true")
    p.set_defaults(func=cmd_entropy)

    p = sub.add_parser("cusc-check", help="verify conditional unitality and semi-causality")
    p.add_argument("--channel", required=True)
    p.add_argument("--tol", type=float, default=1e-7)
    p.add_argument("--operational-trials", type=int, default=0)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_cusc_check)

    p = sub.add_parser("state-reward", help="optimized reward of a state game")
    p.add_argument("--state", required=True)
    p.add_argument("--game", required=True)
    p.add_argument("--restarts", type=int, default=32)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_state_reward)

    p = sub.add_parser("channel-reward", help="optimized reward of a channel game")
    p.add_argument("--channel", required=True)
    p.add_argument("--game", required=True)
    p.add_argument("--restarts", type=int, default=32)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--kraus-rank", type=int, default=None)
    p.set_defaults(func=cmd_channel_reward)

    p = sub.add_parser("table", help="analytic vs optimized rewards for the named channel zoo")
    p.add_argument("--gamma", default=None, help="comma separated noise strengths")
    p.add_argument("--px", default=None, help="4 comma separated weights, sorted descending")
    p.add_argument("--restarts", type=int, default=32)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=["json", "csv", "md"], default="json")
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("classical-majorize", help="decide conditional majorization of classical joints")
    p.add_argument("--p", required=True, help="CSV file, rows are Alice symbols")
    p.add_argument("--q", required=True)
    p.add_argument("--tol", type=float, default=1e-7)
    p.set_defaults(func=cmd_classical_majorize)

    p = sub.add_parser("simulate", help="Monte Carlo spot check of a game value")
    p.add_argument("--state", default=None)
    p.add_argument("--channel", default=None)
    p.add_argument("--game", required=True)
    p.add_argument("--rounds", type=int, default=10**5)
    p.add_argument("--restarts", type=int, default=8)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_simulate)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.func(args)
    except (ValueError, KeyError, TypeError, OSError, json.JSONDecodeError) as exc:
        sys.stderr.write(f"input error: {exc}\n")
        return 1
    except (LpSolverError, np.linalg.LinAlgError, FloatingPointError) as exc:
        sys.stderr.write(f"numerical failure: {exc}\n")
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
