"""Classical joint distributions, game values, and conditional majorization.

A joint distribution is an m x n nonnegative matrix summing to 1; row index
is Alice's symbol, column index Bob's.  The central decision procedure asks
whether a source pair (P) can be steered into a target pair (Q) by a
correlated redistribution: a row-stochastic host response T = (t_yw) and
doubly stochastic blocks D_(y,w) with  q_w = sum_y t_yw D_(y,w) p_y.

One LP decides it, on both joints zero-padded to m rows, with pref_y the
prefix sums of the descending column y of a joint.  Its nonnegative variables
are the host t[w, z'] (m x n') then s[y], row-major; it maximises
sum_z' prefQ_z' . t[:, z'] - sum_y s[y], and its inequality rows are, in
order: per (y, z'), prefP_y . t[:, z'] - s[y] <= 0; per z', sum_w t[w, z'] <= 1.
Its primal is the game that Q wins by the most: the optimum is half the least
L1 distance from Q to what P reaches, and it separates every infeasible pair
only because a host column may sum to less than 1.  At optimum 0 the duals of
the (y, z') rows give a response t[y, w] with prefQ_w <= sum_y t_yw prefP_y,
which suffices by Rado's theorem (a Minkowski sum of permutohedra is the
permutohedron of the summed sorted vectors).  The blocks are then
D_(y,w) = Pi_qw^T B_w Pi_py, with Pi sorting a column descending and B_w at
most m - 1 T-transforms taking r_w = sum_y t_yw Pi_py p_y to Pi_qw q_w
(Marshall, Olkin and Arnold, *Inequalities: Theory of Majorization*, 2.B.1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog

from .linalg import ATOL, DensityOperator, random_doubly_stochastic, rng

LP_ATOL = 1e-7
GAME_GAP = 1e-6
TIE = 1e-12


class LpSolverError(RuntimeError):
    """The LP backend failed numerically (distinct from a clean infeasible verdict)."""


@dataclass(frozen=True, eq=False)
class ClassicalJoint:
    p: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.p, dtype=float)
        if p.ndim != 2:
            raise ValueError("joint distribution must be a matrix")
        if not np.all(np.isfinite(p)):
            raise ValueError("joint distribution has non-finite entries")
        if p.min() < -1e-12:
            raise ValueError("joint distribution has negative entries")
        if abs(p.sum() - 1.0) > ATOL:
            raise ValueError("joint distribution must sum to 1")
        object.__setattr__(self, "p", np.clip(p, 0.0, None))

    @property
    def m(self) -> int:
        return self.p.shape[0]

    @property
    def n(self) -> int:
        return self.p.shape[1]


@dataclass(frozen=True, eq=False)
class HostMatrix:
    """Host w-draw table: t[w, z'] = prob of prize index w+1 given answer z'.

    A column may sum to less than 1; its deficit 1 - sum_w t[w, z'] is the
    chance that the host pays no prize (w = 0) and the round is lost.
    """

    t: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.t, dtype=float)
        if t.ndim != 2:
            raise ValueError("host matrix must be a matrix")
        if not np.all(np.isfinite(t)):
            raise ValueError("host matrix has non-finite entries")
        if t.min() < -1e-12:
            raise ValueError("host matrix has negative entries")
        if t.sum(axis=0).max() > 1.0 + ATOL:
            raise ValueError("host matrix columns must sum to at most 1")
        object.__setattr__(self, "t", np.clip(t, 0.0, None))

    @property
    def n_w(self) -> int:
        return self.t.shape[0]

    @property
    def n_zprime(self) -> int:
        return self.t.shape[1]


def _saturated_prefixes(desc: np.ndarray, n_w: int) -> np.ndarray:
    """Prefix sums of descending values along the last axis for w = 1..n_w, clamped at the full sum."""
    pref = np.cumsum(desc, axis=-1)
    size = pref.shape[-1]
    if n_w <= size:
        return pref[..., :n_w]
    return np.concatenate([pref, np.repeat(pref[..., -1:], n_w - size, axis=-1)], axis=-1)


def _game_values(joint: ClassicalJoint, ts: np.ndarray) -> np.ndarray:
    """Game values of one joint for a stack of host tables (..., n_w, n_zprime)."""
    desc = np.sort(joint.p.T, axis=-1)[:, ::-1]
    pref = _saturated_prefixes(desc, ts.shape[-2])  # (n, n_w): row y is column y of the joint
    return (pref @ ts).max(axis=-1).sum(axis=-1)


def prob_t(joint: ClassicalJoint, host: HostMatrix) -> float:
    """Expected win probability of the best classical answering strategy.

    For every Bob symbol y the answer z' maximizing the t-weighted top-w
    masses of the joint column is chosen; the column is unnormalized, which
    folds the probability of y into the score.
    """
    return float(_game_values(joint, host.t))


def fixed_w_value(joint: ClassicalJoint, w: int) -> float:
    """Game value when the prize index is pinned to w (deterministic host)."""
    if w < 1:
        raise ValueError("w must be at least 1")
    return prob_t(joint, fixed_w_host(w, w))


def fixed_w_host(w: int, n_w: int, n_zprime: int = 1) -> HostMatrix:
    t = np.zeros((n_w, n_zprime))
    t[min(w, n_w) - 1, :] = 1.0
    return HostMatrix(t)


@dataclass(frozen=True)
class MajorizationCertificate:
    t: np.ndarray                 # row-stochastic, shape (n, n_prime)
    ds: np.ndarray                # doubly stochastic blocks, shape (n, n_prime, m, m)
    residual: float


@dataclass(frozen=True)
class MajorizationVerdict:
    feasible: bool
    certificate: MajorizationCertificate | None
    witness_host: HostMatrix | None


def _descending(pm: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Stable descending order of each column of pm, and the sorted columns, both (m, n)."""
    order = np.argsort(-pm, axis=0, kind="stable")
    return order, np.take_along_axis(pm, order, axis=0)


def _witness_lp(desc_p: np.ndarray, desc_q: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """The LP of the module docstring on sorted columns: its gap, host t (m x n') and dual response (n x n')."""
    m, n = desc_p.shape
    n_prime = desc_q.shape[1]
    pref_p, pref_q = np.cumsum(desc_p, axis=0).T, np.cumsum(desc_q, axis=0).T
    n_t = m * n_prime
    a_ub = np.zeros((n * n_prime + n_prime, n_t + n))
    a_ub[: n * n_prime, :n_t] = (pref_p[:, None, :, None] * np.eye(n_prime)[None, :, None, :]).reshape(n * n_prime, n_t)
    a_ub[: n * n_prime, n_t:] = -np.repeat(np.eye(n), n_prime, axis=0)
    a_ub[n * n_prime:, :n_t] = np.tile(np.eye(n_prime), m)
    b_ub = np.concatenate([np.zeros(n * n_prime), np.ones(n_prime)])
    c = np.concatenate([-pref_q.T.ravel(), np.ones(n)])
    res = linprog(c, A_ub=a_ub, b_ub=b_ub, bounds=(0.0, None), method="highs")
    if res.status != 0:
        raise LpSolverError(f"LP backend failed with status {res.status}: {res.message}")
    t = np.clip(res.x[:n_t].reshape(m, n_prime), 0.0, None)
    response = -res.ineqlin.marginals[: n * n_prime].reshape(n, n_prime)
    return -float(res.fun), t / np.maximum(t.sum(axis=0), 1.0), response


def _t_transforms(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Doubly stochastic B with B x = y, for descending x majorizing descending y (MOA 2.B.1).

    Each step moves mass from the last x_j > y_j before the first x_k < y_k
    to x_k, until one of them meets its target; differences up to ``TIE``
    count as equal, so rounding neither starts a step nor blocks one.
    """
    x = x.copy()
    b = np.eye(x.size)
    while True:
        d = x - y
        after_gain = (d < -TIE) & (np.cumsum(d > TIE) > 0)
        if not after_gain.any():
            return b
        k = int(np.argmax(after_gain))
        j = int(np.flatnonzero(d[:k] > TIE)[-1])
        delta = min(d[j], -d[k])
        a = delta / (x[j] - x[k])   # at most 1/2, as y is descending
        b[[j, k]] = (1.0 - a) * b[[j, k]] + a * b[[k, j]]
        x[j] -= delta
        x[k] += delta


def _rebuild_target(t: np.ndarray, ds: np.ndarray, pm: np.ndarray) -> np.ndarray:
    """sum_y t_yw D_(y,w) p_y for every w, shape (m, n_prime)."""
    moved = (ds @ pm.T[:, None, :, None])[..., 0]   # D_(y,w) p_y, shape (n, n_prime, m)
    return (t[:, :, None] * moved).sum(axis=0).T


def cond_majorizes_classical(
    p: ClassicalJoint,
    q: ClassicalJoint,
    tol: float = LP_ATOL,
    seed: int = 0,
) -> MajorizationVerdict:
    """Decide whether Q is reachable from P by a host-correlated redistribution.

    The pair is infeasible when the LP's game gap exceeds ``GAME_GAP``; the
    verdict carries that game's host, or ``None`` if it fails to beat P by
    ``GAME_GAP`` when scored again.  A feasible verdict carries t from the
    duals (clipped, rows normalised, uniform where P's column has no mass)
    and T-transform blocks.  ``tol`` bounds their residual, above which
    ``LpSolverError`` is raised, and never changes the verdict.  ``seed`` is
    accepted for existing callers and unused: nothing is drawn.
    """
    m, n, n_prime = max(p.m, q.m), p.n, q.n
    pm, qm = (np.pad(j.p, ((0, m - j.m), (0, 0))) for j in (p, q))
    (order_p, desc_p), (order_q, desc_q) = _descending(pm), _descending(qm)
    gap, host, response = _witness_lp(desc_p, desc_q)
    if gap > GAME_GAP:
        separates = _game_values(q, host) > _game_values(p, host) + GAME_GAP   # scored by the one evaluator
        return MajorizationVerdict(False, None, HostMatrix(host) if separates else None)

    t = np.clip(response, 0.0, None)
    row = t.sum(axis=1, keepdims=True)
    live = (pm.sum(axis=0)[:, None] > 0.0) & (row > TIE)
    t = np.divide(t, row, out=np.full(t.shape, 1.0 / n_prime), where=live)
    reached = desc_p @ t   # column w is r_w
    bs = np.stack([_t_transforms(reached[:, w], desc_q[:, w]) for w in range(n_prime)])
    ds = np.empty((n, n_prime, m, m))   # D_(y,w)[order_q[a, w], order_p[b, y]] = B_w[a, b]
    y_idx, w_idx = np.arange(n)[:, None, None, None], np.arange(n_prime)[:, None, None]
    ds[y_idx, w_idx, order_q.T[:, :, None], order_p.T[:, None, None, :]] = bs
    residual = float(np.abs(_rebuild_target(t, ds, pm) - qm).max())
    residual = max(residual, float(np.abs(t.sum(axis=1) - 1.0).max()))
    if residual > tol:
        raise LpSolverError(f"LP returned a certificate with residual {residual:.2e} above {tol:.0e}")
    return MajorizationVerdict(True, MajorizationCertificate(t, ds, residual), None)


def uniform_target_certificate(p: ClassicalJoint, q_cols: int = 1) -> MajorizationCertificate:
    """Explicit certificate steering any source into the uniform target."""
    m, n = p.m, p.n
    t = np.full((n, q_cols), 1.0 / q_cols)
    ds = np.full((n, q_cols, m, m), 1.0 / m)
    target = np.full((m, q_cols), 1.0 / (m * q_cols))
    return MajorizationCertificate(t, ds, float(np.abs(_rebuild_target(t, ds, p.p) - target).max()))


def apply_cds_classical(p: ClassicalJoint, es, rs) -> ClassicalJoint:
    """Q = sum_j E_j P R_j for column-stochastic E_j and a row-substochastic family R_j."""
    if len(es) != len(rs) or not es:
        raise ValueError("need matching nonempty lists")
    es = [np.asarray(e, dtype=float) for e in es]
    rs = [np.asarray(r, dtype=float) for r in rs]
    for e in es:
        if e.min() < -ATOL or np.abs(e.sum(axis=0) - 1.0).max() > ATOL:
            raise ValueError("E factors must be column stochastic")
    r_total = sum(r.sum(axis=1) for r in rs)
    if any(r.min() < -ATOL for r in rs) or np.abs(r_total - 1.0).max() > ATOL:
        raise ValueError("R factors must be nonnegative with row sums totalling 1")
    q = sum(e @ p.p @ r for e, r in zip(es, rs))
    return ClassicalJoint(q)


def embed_classical(p: ClassicalJoint) -> DensityOperator:
    """Diagonal embedding of the joint distribution on (A, B)."""
    return DensityOperator((p.m, p.n), np.diag(p.p.reshape(-1)).astype(complex))


def shannon_cond_entropy(p: ClassicalJoint) -> float:
    """H(X|Y) of the joint table, in bits."""
    total = 0.0
    for y in range(p.n):
        col = p.p[:, y]
        qy = col.sum()
        if qy <= 1e-15:
            continue
        cond = col[col > 1e-15] / qy
        total += qy * float(-(cond * np.log2(cond)).sum())
    return total


def random_joint(m: int, n: int, seed=0) -> ClassicalJoint:
    g = rng(seed)
    return ClassicalJoint(g.dirichlet(np.ones(m * n)).reshape(m, n))


def random_host(n_w: int, n_zprime: int, seed=0) -> HostMatrix:
    g = rng(seed)
    return HostMatrix(g.dirichlet(np.ones(n_w), size=n_zprime).T)


def random_cds_data(m: int, n_terms: int, seed=0):
    """Doubly stochastic E factors and a matching row-stochastic split of R."""
    g = rng(seed)
    es = [random_doubly_stochastic(m, g, n_perms=3) for _ in range(n_terms)]
    split = g.dirichlet(np.ones(n_terms), size=1)[0]
    rs = []
    for j in range(n_terms):
        r = g.dirichlet(np.ones(m), size=m)  # row stochastic m x m
        rs.append(split[j] * r)
    return es, rs
