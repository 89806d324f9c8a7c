"""JSON and CSV interchange encodings.

Complex matrices travel as ``{"rows": r, "cols": c, "data": [[re, im], ...]}``
in row-major order; density operators add ``"dims"``; channels carry either a
Kraus list or a Choi matrix next to their in/out dims.  Decoded states pass
``linalg.density`` and decoded channels ``channels.channel`` or ``from_choi``.
Floats emitted by the CLI are rounded to 12 significant digits so identical
runs serialize byte for byte.
"""

from __future__ import annotations

import json
from itertools import chain

import numpy as np

from . import channels as qc
from .channel_games import ChannelGameSpec
from .classical import ClassicalJoint, HostMatrix
from .cusc import CuscVerdict
from .linalg import DensityOperator, density
from .mc_sim import SimResult
from .state_games import StateGameSpec


def _json_int(v, name: str) -> int:
    if type(v) is not int:  # a bool is no JSON int
        raise TypeError(f"{name} must be a JSON integer, not {v!r}")
    return v


def _json_numbers(values, name: str) -> None:
    if not set(map(type, values)) <= {int, float}:
        raise TypeError(f"{name} must be JSON numbers")


def encode_matrix(m: np.ndarray) -> dict:
    m = np.asarray(m, dtype=complex)
    data = np.stack((m.real, m.imag), -1).reshape(-1, 2).tolist()
    return {"rows": int(m.shape[0]), "cols": int(m.shape[1]), "data": data}


def decode_matrix(obj: dict) -> np.ndarray:
    rows, cols = _json_int(obj["rows"], "rows"), _json_int(obj["cols"], "cols")
    data = obj["data"]
    if len(data) != rows * cols:
        raise ValueError("matrix data length does not match rows*cols")
    if set(map(len, data)) - {2}:
        raise ValueError("matrix data must be [re, im] pairs")
    _json_numbers(chain.from_iterable(data), "matrix entries")
    flat = np.fromiter(chain.from_iterable(data), float, 2 * rows * cols).view(complex)
    if not np.all(np.isfinite(flat)):
        raise ValueError("matrix has non-finite entries")
    return flat.reshape(rows, cols)


def encode_density(state: DensityOperator) -> dict:
    out = encode_matrix(state.mat)
    out["dims"] = list(state.dims)
    return out


def decode_density(obj: dict) -> DensityOperator:
    return density(decode_matrix(obj), tuple(_json_int(d, "dims") for d in obj["dims"]))


def encode_channel(ch: qc.QuantumChannel, as_choi: bool = False) -> dict:
    out = {"in_dims": list(ch.in_dims), "out_dims": list(ch.out_dims)}
    if as_choi:
        out["choi"] = encode_matrix(qc.choi(ch))
    else:
        out["kraus"] = [encode_matrix(k) for k in ch.kraus]
    return out


def decode_channel(obj: dict) -> qc.QuantumChannel:
    in_dims = tuple(_json_int(d, "in_dims") for d in obj["in_dims"])
    out_dims = tuple(_json_int(d, "out_dims") for d in obj["out_dims"])
    if "kraus" in obj:
        return qc.channel([decode_matrix(k) for k in obj["kraus"]], in_dims, out_dims)
    if "choi" in obj:
        return qc.from_choi(decode_matrix(obj["choi"]), in_dims, out_dims)
    raise ValueError("channel JSON needs either 'kraus' or 'choi'")


def encode_host(host: HostMatrix) -> dict:
    return {"t": [[float(v) for v in row] for row in host.t]}


def decode_host(obj: dict) -> HostMatrix:
    _json_numbers(chain.from_iterable(obj["t"]), "host entries")
    return HostMatrix(np.array(obj["t"], dtype=float))


def encode_state_game(game: StateGameSpec) -> dict:
    out = encode_host(game.host)
    out["p_adv"] = float(game.p_adv)
    return out


def decode_state_game(obj: dict) -> StateGameSpec:
    p_adv = obj.get("p_adv", 0.0)
    _json_numbers([p_adv], "p_adv")
    return StateGameSpec(decode_host(obj), float(p_adv))


def encode_channel_game(game: ChannelGameSpec) -> dict:
    return {"entries": [{"p": float(p), "state": encode_density(s)} for p, s in game.entries]}


def decode_channel_game(obj: dict) -> ChannelGameSpec:
    _json_numbers([e["p"] for e in obj["entries"]], "game weights")
    return ChannelGameSpec(tuple((e["p"], decode_density(e["state"])) for e in obj["entries"]))


def encode_sim_result(res: SimResult) -> dict:
    return {
        "wins": res.wins,
        "rounds": res.rounds,
        "win_rate": res.win_rate,
        "std_err": res.std_err,
        "seed": res.seed,
    }


def encode_cusc_verdict(v: CuscVerdict) -> dict:
    return {
        "conditionally_unital": v.conditionally_unital,
        "semicausal_choi": v.semicausal_choi,
        "semicausal_operational": v.semicausal_operational,
        "max_violation": v.max_violation,
    }


def joint_to_csv(joint: ClassicalJoint) -> str:
    return "\n".join(",".join(f"{v:.12g}" for v in row) for row in joint.p) + "\n"


def joint_from_csv(text: str) -> ClassicalJoint:
    rows = []
    for line in text.strip().splitlines():
        line = line.strip()
        if not line:
            continue
        rows.append([float(tok) for tok in line.split(",")])
    return ClassicalJoint(np.array(rows, dtype=float))


def _float_pair(v) -> bool:
    return type(v) is list and len(v) == 2 and type(v[0]) is float and type(v[1]) is float


def _round_floats(obj):
    if isinstance(obj, float):
        return float(f"{obj:.12g}")
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        if all(map(_float_pair, obj)):  # encoded matrix data, rounded in one pass
            return [[float(f"{re:.12g}"), float(f"{im:.12g}")] for re, im in obj]
        return [_round_floats(v) for v in obj]
    return obj


def dumps(obj) -> str:
    """Deterministic JSON with floats at 12 significant digits."""
    return json.dumps(_round_floats(obj), sort_keys=True, separators=(",", ":"))
