"""Workload ``entropy_axioms``: entropy scores, duals and CUSC channels.

A round is 34 state requests and 11 channel requests.  State requests carry a
JSON-encoded bipartite state, 2x2 up to 6x6 (pure, low-rank, full-rank,
maximally entangled, separable mixtures), and return the Umegaki, Dmax and
von Neumann conditional entropies and the Umegaki and Dmax duals with the
state encoded back.  Channel requests build a CUSC channel (teleport, Bell
scrambler, CDS, separable preparation, random_cusc) on 2x2 or 3x3, verify it,
apply it to a JSON-encoded state, score input and output, and verify a SWAP
or CNOT control that must be rejected.  Nothing here reaches the optimiser.

The three slowest requests (full-rank 6x6 and 5x5 states, the 3x3 teleport)
are followed by three full-rank 4x5/5x4 states; with 45 operations per round
the 90th percentile falls in the middle of those three, and the median in
the middle of the small requests, rather than on the edge between two
request sizes.
"""

from __future__ import annotations

import json

import numpy as np

import qce
from qce import serialize as ser

import checks
from inputs import (
    Op,
    child_rng,
    doubly_stochastic,
    gaussian,
    max_entangled,
    mixed_state,
    pure_state,
    separable_state,
    to_json,
    unit_vector,
)

STATES = (
    ("maxent", (2, 2)), ("maxent", (3, 3)), ("maxent", (4, 4)), ("maxent", (5, 5)), ("maxent", (6, 6)),
    ("pure", (2, 2)), ("pure", (2, 3)), ("pure", (3, 3)), ("pure", (3, 4)), ("pure", (4, 4)), ("pure", (5, 6)),
    ("pure", (6, 6)),
    ("rank2", (3, 3)), ("rank2", (3, 4)), ("rank2", (4, 4)), ("rank3", (5, 5)), ("rank2", (6, 6)), ("rank3", (4, 6)),
    ("separable", (2, 2)), ("separable", (2, 4)), ("separable", (3, 3)), ("separable", (3, 4)),
    ("separable", (4, 4)), ("separable", (5, 5)), ("separable", (6, 6)),
    ("full", (2, 2)), ("full", (2, 3)), ("full", (3, 3)), ("full", (3, 4)),
    ("full", (4, 5)), ("full", (5, 4)), ("full", (4, 5)), ("full", (5, 5)), ("full", (6, 6)),
)
# (construction, local dimension, control)
CHANNELS = (
    ("teleport", 2, "cnot"), ("teleport", 3, "swap3"),
    ("bell_scrambler", 2, "swap2"), ("bell_scrambler", 3, "cnot"),
    ("cds", 2, "swap2"), ("cds", 2, "cnot"), ("cds", 3, "swap3"),
    ("separable_prep", 2, "swap2"), ("separable_prep", 3, "cnot"),
    ("random_cusc", 2, "swap2"), ("random_cusc", 2, "cnot"),
)

LAYERS = {
    "serialize.decode_ms": ("serialize.decode_density",),
    "serialize.encode_ms": ("serialize.encode_density", "serialize.encode_cusc_verdict", "serialize.dumps"),
    "entropy.cond_ms": ("entropy.cond_entropy_down", "entropy.vn_cond_entropy"),
    "entropy.dual_ms": ("entropy.dual_cond_entropy",),
    "cusc.construct_ms": (
        "cusc.teleport_cusc", "cusc.bell_scrambler", "cusc.cds_channel",
        "cusc.separable_prep_channel", "cusc.random_cusc",
    ),
    "cusc.verdict_ms": ("cusc.is_cusc",),
    "channels.apply_ms": ("channels.apply",),
}


def _umegaki(s):
    return qce.cond_entropy_down(s, qce.UMEGAKI)


def _dmax(s):
    return qce.cond_entropy_down(s, qce.DMAX)


def _state_matrix(g, kind: str, dims) -> np.ndarray:
    da, db = dims
    side = da * db
    if kind == "maxent":
        return max_entangled(da)
    if kind == "pure":
        return pure_state(g, side)
    if kind.startswith("rank"):
        return mixed_state(g, side, int(kind[4:]))
    if kind == "separable":
        return separable_state(g, da, db, 3)
    return mixed_state(g, side)


def _state_op(g, tr, kind: str, dims) -> Op:
    mat = _state_matrix(g, kind, dims)
    request = to_json(ser.encode_density(tr.call(qce.density, mat, dims)))

    def run(tr):
        st = tr.call(ser.decode_density, json.loads(request))
        scores = {
            "umegaki": tr.call(qce.cond_entropy_down, st, qce.UMEGAKI),
            "dmax": tr.call(qce.cond_entropy_down, st, qce.DMAX),
            "vn": tr.call(qce.vn_cond_entropy, st),
            "dual_umegaki": tr.call(qce.dual_cond_entropy, _umegaki, st),
            "dual_dmax": tr.call(qce.dual_cond_entropy, _dmax, st),
        }
        body = tr.call(ser.encode_density, st)
        return tr.call(ser.dumps, dict(scores, state=body))

    def check(response):
        return checks.state_score_errors(kind, mat, dims, json.loads(response))

    return Op(f"state.{kind}.{dims[0]}x{dims[1]}", run, check)


def _unitary(name: str) -> tuple:
    if name == "cnot":
        u = np.eye(4, dtype=complex)
        u[2:, 2:] = [[0, 1], [1, 0]]
        return u, (2, 2)
    d = int(name[-1])
    u = np.zeros((d * d, d * d), dtype=complex)
    for a in range(d):
        for b in range(d):
            u[b * d + a, a * d + b] = 1.0
    return u, (d, d)


def _cds_args(g, m: int) -> tuple:
    """Two doubly stochastic steerings and a two-outcome instrument on B."""
    v, _ = np.linalg.qr(gaussian(g, m * 2 * m, m))
    blocks = v.reshape(m, 2 * m, m)
    kraus = [blocks[:, e, :] for e in range(2 * m)]
    return [doubly_stochastic(g, m), doubly_stochastic(g, m)], [kraus[0::2], kraus[1::2]], m, m


def _construction(g, tr, name: str, d: int):
    """(constructor, args, kwargs, input dims, input matrix, target of the teleport or None)."""
    if name == "teleport":
        target = mixed_state(g, d * d)
        args = (tr.call(qce.density, target, (d, d)),)
        return qce.teleport_cusc, args, {}, (d, d), max_entangled(d), target
    if name == "bell_scrambler":
        return qce.bell_scrambler, (d,), {}, (d * d, d), mixed_state(g, d ** 3), None
    if name == "cds":
        return qce.cds_channel, _cds_args(g, d), {}, (d, d), mixed_state(g, d * d), None
    if name == "separable_prep":
        w = g.dirichlet(np.ones(3))
        parts = [(float(w[k]), unit_vector(g, d), unit_vector(g, d)) for k in range(3)]
        return qce.separable_prep_channel, (parts,), {}, (d, d), mixed_state(g, d * d), None
    seed = int(g.integers(1 << 31))
    return qce.random_cusc, (d, d + 1), {"seed": seed}, (d, d + 1), mixed_state(g, d * (d + 1)), None


def _channel_op(g, tr, name: str, d: int, control: str) -> Op:
    fn, args, kwargs, in_dims, in_mat, target = _construction(g, tr, name, d)
    request = to_json(ser.encode_density(tr.call(qce.density, in_mat, in_dims)))
    u, control_dims = _unitary(control)
    control_ch = tr.call(qce.unitary_channel, u, control_dims)
    rho_b = mixed_state(g, in_dims[1])
    tr.call(qce.density, rho_b, (in_dims[1],))
    control_rho_b = np.diag(np.linspace(2.0, 1.0, control_dims[1]))
    control_rho_b /= control_rho_b.trace()

    def run(tr):
        st = tr.call(ser.decode_density, json.loads(request))
        ch = tr.call(fn, *args, **kwargs)
        tr.count("channels.kraus_ops", len(ch.kraus))
        verdict = tr.call(qce.is_cusc, ch)
        out = tr.call(qce.apply, ch, st)
        h_in = {"umegaki": tr.call(qce.cond_entropy_down, st, qce.UMEGAKI),
                "dmax": tr.call(qce.cond_entropy_down, st, qce.DMAX)}
        h_out = {"umegaki": tr.call(qce.cond_entropy_down, out, qce.UMEGAKI),
                 "dmax": tr.call(qce.cond_entropy_down, out, qce.DMAX)}
        control_verdict = tr.call(qce.is_cusc, control_ch)
        response = tr.call(ser.dumps, {
            "verdict": tr.call(ser.encode_cusc_verdict, verdict),
            "control": tr.call(ser.encode_cusc_verdict, control_verdict),
            "output": tr.call(ser.encode_density, out),
            "h_in": h_in,
            "h_out": h_out,
        })
        return {"response": response, "kraus": ch.kraus, "output": out.mat}

    def check(o):
        r = json.loads(o["response"])
        outcome = {
            "name": f"{name} {d}",
            "control": control,
            "verdict": r["verdict"],
            "control_verdict": r["control"],
            "in_dims": in_dims,
            "kraus": o["kraus"],
            "rho_b": rho_b,
            "control_dims": control_dims,
            "control_kraus": control_ch.kraus,
            "control_rho_b": control_rho_b,
            "h_in": r["h_in"],
            "h_out": r["h_out"],
            "input": in_mat,
            "output": o["output"],
        }
        if target is not None:
            outcome["target"] = target
        return checks.channel_errors(outcome)

    return Op(f"channel.{name}.{d}", run, check)


def build(seed: int, tr) -> list[Op]:
    states = [_state_op(child_rng(seed, i), tr, kind, dims) for i, (kind, dims) in enumerate(STATES)]
    chans = [
        _channel_op(child_rng(seed, 100 + i), tr, name, d, control)
        for i, (name, d, control) in enumerate(CHANNELS)
    ]
    # Spread the channel requests evenly through the round.
    ops = []
    stride = len(states) // len(chans) + 1
    for i, op in enumerate(states):
        ops.append(op)
        if i % stride == stride - 1 and chans:
            ops.append(chans.pop(0))
    return ops + chans
