"""JSON and CSV interchange encodings.

Complex matrices travel as ``{"rows": r, "cols": c, "data": [[re, im], ...]}``
in row-major order; density operators add ``"dims"``; channels carry either a
Kraus list or a Choi matrix next to their in/out dims.  Decoded states pass
``linalg.density`` and decoded channels ``channels.channel`` or ``from_choi``.
Floats emitted by the CLI are rounded to 12 significant digits so identical
runs serialize byte for byte.

``dumps`` writes each float v as ``repr(float(f"{v:.12g}"))``, the per-float
rule.  Matrix data (a list whose every element is a 2-list of exact
``float``) is written in one pass instead: one ``str.format`` call renders
every entry with ``{:.12g}``, bare integers get ``.0``, and the text is
spliced into the ``json.dumps`` output of the rest through placeholder
strings.  This is byte-identical to the per-float rule whenever the %g text
holds no ``e+``, ``n`` or ``e-3``: such a token is a decimal of at most 12
digits of a normal double, which is its own shortest repr, and %g and repr
both switch to ``e-05`` style below 1e-4.  A list with a token outside that
range (magnitudes of 1e12 and up, where %g writes ``1e+12``; below 1e-299,
subnormals included, and, at the cost of time only, exponents -30 to -39; NaN
and infinities) takes the per-float rule, as do ``np.float64``, int and bool
entries.  If a caller's own string holds the placeholder marker, the whole
object takes the per-float rule.
"""

from __future__ import annotations

import json
import re
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
    return {"t": host.t.tolist()}


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


_MARK = "\x00"  # placeholder prefix, followed by the index of its text
_MARK_JSON = json.dumps(_MARK)[:-1]  # a placeholder's opening in json.dumps output
_BARE_INT = re.compile(r"([\[,]-?\d+)(?=[,\]])")


def _matrix_text(obj) -> str | None:
    """JSON text of [[re, im], ...] matrix data, or None off the one-pass rule."""
    if not (
        set(map(type, obj)) == {list}
        and set(map(len, obj)) == {2}
        and set(map(type, chain.from_iterable(obj))) == {float}
    ):
        return None
    text = ("[{:.12g},{:.12g}]," * len(obj)).format(*chain.from_iterable(obj))
    if "e+" in text or "n" in text or "e-3" in text:
        return None  # 1e12 and up, nan, inf, below 1e-299: %g and repr disagree
    n = 2 * len(obj)
    if text.count(".") < n:  # integer-valued entries, in states mostly a zero imaginary part
        text = text.replace("[0,", "[0.0,").replace(",0]", ",0.0]")
        if text.count(".") < n:
            text = _BARE_INT.sub(r"\1.0", text)
    return "[" + text[:-1] + "]"


def _round_floats(obj, texts: list | None):
    if isinstance(obj, float):
        return float(f"{obj:.12g}")
    if isinstance(obj, dict):
        return {k: _round_floats(v, texts) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        text = None if texts is None else _matrix_text(obj)
        if text is not None:
            texts.append(text)
            return f"{_MARK}{len(texts) - 1}"
        return [_round_floats(v, texts) for v in obj]
    return obj


def _json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def dumps(obj) -> str:
    """Deterministic JSON with floats at 12 significant digits."""
    texts: list[str] = []
    pieces = _json(_round_floats(obj, texts)).split(_MARK_JSON)
    if len(pieces) != len(texts) + 1:  # a caller's string holds the marker
        return _json(_round_floats(obj, None))
    out = [pieces[0]]
    for piece in pieces[1:]:
        i, rest = piece.split('"', 1)
        out += (texts[int(i)], rest)
    return "".join(out)
