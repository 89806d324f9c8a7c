"""Workload ``classical_ordering``: conditional majorization of classical joints.

A round is 96 pairs (P, Q) of m x n joints, m, n in 2..5: for every size,
three pairs with Q made from P by the benchmark (Q_w = sum_y t_yw D_yw P_y
with t row-stochastic and D doubly stochastic, so the pair is feasible by
construction) and three with Q drawn at random (often infeasible, which runs
the witness search).  Whether a random pair is feasible, and how soon a
witness turns up, depends on the seed and moves its cost several-fold; three
random pairs per size keep the round's total cost close across seeds.  Each
pair is decoded from CSV, decided by ``cond_majorizes_classical`` (LP build, HiGHS
solve, witness search), and two hosts score the embedded P with
``reward_noadv`` at the fewest restarts.  Where ``game_rewards`` makes few
heavy optimiser calls, this makes many light ones.
"""

from __future__ import annotations

import numpy as np

import qce
from qce import serialize as ser

import checks
from inputs import Op, child_rng, column_stochastic, doubly_stochastic

SIZES = tuple((m, n) for m in range(2, 6) for n in range(2, 6))
PAIRS_PER_KIND = 3
PAIRS = tuple((size, made) for size in SIZES for made in (True, False) for _ in range(PAIRS_PER_KIND))
EMBED_OPTS = dict(restarts=0, sweeps=1)

LAYERS = {
    "serialize.decode_ms": ("serialize.joint_from_csv",),
    "serialize.encode_ms": ("serialize.dumps",),
    "classical.feasible_ms": ("classical.cond_majorizes_classical:feasible",),
    "classical.infeasible_ms": ("classical.cond_majorizes_classical:infeasible",),
    "state_games.embedded_ms": ("state_games.reward_noadv",),
}


def _csv(p: np.ndarray) -> str:
    return "".join(",".join(repr(float(v)) for v in row) + "\n" for row in p)


def _made_target(g, p: np.ndarray) -> np.ndarray:
    """Q reachable from P: row-stochastic t, doubly stochastic blocks D."""
    m, n = p.shape
    t = g.dirichlet(np.ones(n), size=n)
    q = np.zeros((m, n))
    for y in range(n):
        for w in range(n):
            q[:, w] += t[y, w] * (doubly_stochastic(g, m) @ p[:, y])
    return q


def _pair_op(g, tr, size, made: bool) -> Op:
    m, n = size
    p = g.dirichlet(np.ones(m * n)).reshape(m, n)
    q = _made_target(g, p) if made else g.dirichlet(np.ones(m * n)).reshape(m, n)
    p_csv, q_csv = _csv(p), _csv(q)
    embedded = tr.call(qce.density, np.diag(p.reshape(-1)), (m, n))
    host_ts = [column_stochastic(g, m, 1), column_stochastic(g, m, 2)]
    hosts = [qce.HostMatrix(t) for t in host_ts]
    seed = int(g.integers(1 << 31))
    lp_vars = n * n * m * m + n * n
    opts = qce.OptOpts(seed=seed, **EMBED_OPTS)

    def run(tr):
        pj = tr.call(ser.joint_from_csv, p_csv)
        qj = tr.call(ser.joint_from_csv, q_csv)
        v = tr.call(qce.cond_majorizes_classical, pj, qj, seed=seed)
        tr.tag("feasible" if v.feasible else "infeasible")
        tr.count("classical.lp_vars", lp_vars)
        if v.witness_host is not None:
            tr.count("classical.witnesses_found")
        scores = []
        for host in hosts:
            rep = tr.call(qce.reward_noadv, embedded, host, opts)
            tr.count("optim.restarts", rep.restarts_used)
            scores.append(rep.value)
        out = {
            "feasible": v.feasible,
            "t": None if v.certificate is None else v.certificate.t.tolist(),
            "witness_t": None if v.witness_host is None else v.witness_host.t.tolist(),
            "embedded": scores,
        }
        tr.call(ser.dumps, out)
        return v, scores

    def check(o):
        v, scores = o
        return checks.majorization_errors({
            "p": p,
            "q": q,
            "made": made,
            "feasible": v.feasible,
            "cert_t": None if v.certificate is None else v.certificate.t,
            "cert_ds": None if v.certificate is None else v.certificate.ds,
            "witness_t": None if v.witness_host is None else v.witness_host.t,
            "hosts": host_ts,
            "embedded": scores,
        })

    return Op(f"pair.{'made' if made else 'random'}.{m}x{n}", run, check)


def build(seed: int, tr) -> list[Op]:
    return [_pair_op(child_rng(seed, i), tr, size, made) for i, (size, made) in enumerate(PAIRS)]
