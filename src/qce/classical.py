"""Classical joint distributions, game values, and conditional majorization.

A joint distribution is an m x n nonnegative matrix summing to 1; row index
is Alice's symbol, column index Bob's.  The central decision procedure asks
whether a source pair (P) can be steered into a target pair (Q) by a
correlated redistribution: a row-stochastic host response T = (t_yw) and
doubly stochastic blocks D_(y,w) with  q_w = sum_y t_yw D_(y,w) p_y.
Feasibility is decided by a linear program over the products Z = t * D, with
both joints zero-padded to m rows.  Its nonnegative variables are Z[y, w, r, c]
then t[y, w], each row-major; its equality rows are, in order: per block (y, w),
the m row sums and then the m column sums of Z[y, w], each equal to t[y, w];
per y, sum_w t[y, w] = 1; per (w, r), sum_(y, c) Z[y, w, r, c] p[c, y] = q[r, w].

An infeasible pair is separated by the game that Q wins by the most.  Q may
take its best answer for each of its own Bob symbols as its own host column,
so the largest gap over all hosts is the optimum of one more LP, the dual of
the first.  With pref_y the prefix sums of the descending column y of a
joint, its nonnegative variables are the host t[w, z'] (m x n') then s[y],
row-major; it maximises sum_z' prefQ_z' . t[:, z'] - sum_y s[y], and its
inequality rows are, in order: per (y, z'), prefP_y . t[:, z'] - s[y] <= 0;
per z', sum_w t[w, z'] <= 1.  Its optimum is half the least L1 distance from
Q to the targets reachable from P.  It separates every infeasible pair only
because a host column may sum to less than 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import coo_array

from .linalg import ATOL, DensityOperator, random_doubly_stochastic, rng

LP_ATOL = 1e-7
GAME_GAP = 1e-6


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


def _lp_system(pm: np.ndarray, qm: np.ndarray):
    """Sparse ``A_eq`` and ``b_eq`` of the majorization LP, in the row layout of the module docstring."""
    m, n = pm.shape
    n_prime = qm.shape[1]
    n_blocks = n * n_prime
    n_z = n_blocks * m * m
    z = np.arange(n_z).reshape(n, n_prime, m, m)   # variable index of Z[y, w, r, c]
    r = np.arange(m)
    n_block_rows = 2 * m * n_blocks
    block_start = 2 * m * np.arange(n_blocks).reshape(n, n_prime, 1, 1)
    target_row = n_block_rows + n + (np.arange(n_prime)[:, None] * m + r)[:, :, None]  # row of (w, r)

    def full(a):
        return np.broadcast_to(a, z.shape).ravel()

    block_rows = np.arange(n_block_rows)
    rows = np.concatenate([
        full(block_start + r[:, None]),           # row sums of block (y, w), indexed by r
        full(block_start + m + r),                # its column sums, indexed by c
        block_rows,                               # -t_yw in each of those 2m rows
        n_block_rows + np.arange(n_blocks) // n_prime,
        full(target_row),
    ])
    cols = np.concatenate([z.ravel(), z.ravel(), n_z + block_rows // (2 * m), n_z + np.arange(n_blocks), z.ravel()])
    vals = np.concatenate([np.ones(2 * n_z), -np.ones(n_block_rows), np.ones(n_blocks), full(pm.T[:, None, None, :])])
    keep = vals != 0.0                            # zero-padded rows of P store no entries
    shape = (n_block_rows + n + n_prime * m, n_z + n_blocks)
    a_eq = coo_array((vals[keep], (rows[keep], cols[keep])), shape=shape)
    b_eq = np.concatenate([np.zeros(n_block_rows), np.ones(n), qm.T.ravel()])
    return a_eq, b_eq


def _witness_lp(pm: np.ndarray, qm: np.ndarray) -> tuple[float, np.ndarray]:
    """Largest game gap of Q over P and its host t (m x n'), from the LP of the module docstring."""
    m, n = pm.shape
    n_prime = qm.shape[1]
    pref_p, pref_q = (np.cumsum(np.sort(j.T, axis=1)[:, ::-1], axis=1) for j in (pm, qm))
    n_t = m * n_prime
    t_var = np.arange(n_t).reshape(m, n_prime)               # variable index of t[w, z']
    epi_row = np.arange(n * n_prime).reshape(n, n_prime)      # row of (y, z')
    shape = (n, m, n_prime)
    rows = np.concatenate([
        np.broadcast_to(epi_row[:, None, :], shape).ravel(),  # prefP_y . t[:, z']
        epi_row.ravel(),                                      # - s[y]
        n * n_prime + t_var.ravel() % n_prime,                # column sums of t
    ])
    cols = np.concatenate([np.broadcast_to(t_var, shape).ravel(), n_t + epi_row.ravel() // n_prime, t_var.ravel()])
    vals = np.concatenate([np.broadcast_to(pref_p[:, :, None], shape).ravel(), -np.ones(n * n_prime), np.ones(n_t)])
    a_ub = coo_array((vals, (rows, cols)), shape=(n * n_prime + n_prime, n_t + n))
    b_ub = np.concatenate([np.zeros(n * n_prime), np.ones(n_prime)])
    c = np.concatenate([-pref_q.T.ravel(), np.ones(n)])
    res = linprog(c, A_ub=a_ub, b_ub=b_ub, bounds=(0.0, None), method="highs")
    if res.status != 0:
        raise LpSolverError(f"witness LP failed with status {res.status}: {res.message}")
    t = np.clip(res.x[:n_t].reshape(m, n_prime), 0.0, None)
    return -float(res.fun), t / np.maximum(t.sum(axis=0), 1.0)


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

    A feasible verdict carries the LP's certificate.  An infeasible one
    carries the host of the game that Q wins by the most, found by the
    witness LP of the module docstring; its columns may sum to less than 1.
    The host is ``None`` only when that game's gap is at most ``GAME_GAP``.
    ``seed`` is accepted for existing callers and unused: the decision and
    the witness draw no random numbers.
    """
    m, n, n_prime = max(p.m, q.m), p.n, q.n
    pm, qm = (np.pad(j.p, ((0, m - j.m), (0, 0))) for j in (p, q))
    a_eq, b_eq = _lp_system(pm, qm)
    lp = dict(c=np.zeros(a_eq.shape[1]), A_eq=a_eq, b_eq=b_eq, bounds=(0.0, None))
    res = linprog(**lp, method="highs")
    if res.status == 4:  # dual simplex can fail numerically on nearly feasible pairs; interior point decides them
        res = linprog(**lp, method="highs-ipm")
    if res.status == 2:
        _, t = _witness_lp(pm, qm)
        separates = _game_values(q, t) > _game_values(p, t) + GAME_GAP   # scored by the one evaluator
        return MajorizationVerdict(False, None, HostMatrix(t) if separates else None)
    if res.status != 0:
        raise LpSolverError(f"LP backend failed with status {res.status}: {res.message}")

    n_z = n * n_prime * m * m
    z, t = res.x[:n_z].reshape(n, n_prime, m, m), res.x[n_z:].reshape(n, n_prime)
    ds = np.divide(z, t[..., None, None], out=np.full(z.shape, 1.0 / m), where=t[..., None, None] > 1e-12)
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
