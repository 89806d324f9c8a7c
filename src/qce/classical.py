"""Classical joint distributions, game values, and conditional majorization.

A joint distribution is an m x n nonnegative matrix summing to 1; row index
is Alice's symbol, column index Bob's.  The central decision procedure asks
whether a source pair (P) can be steered into a target pair (Q) by a
correlated redistribution: a row-stochastic host response T = (t_yw) and
doubly stochastic blocks D_(y,w) with  q_w = sum_y t_yw D_(y,w) p_y.
Feasibility is decided by a linear program over the products Z = t * D.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog

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
    """Column-stochastic w-draw table: t[w, z'] = prob of prize index w+1 given answer z'."""

    t: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.t, dtype=float)
        if t.ndim != 2:
            raise ValueError("host matrix must be a matrix")
        if t.min() < -1e-12:
            raise ValueError("host matrix has negative entries")
        if np.abs(t.sum(axis=0) - 1.0).max() > ATOL:
            raise ValueError("host matrix columns must sum to 1")
        object.__setattr__(self, "t", np.clip(t, 0.0, None))

    @property
    def n_w(self) -> int:
        return self.t.shape[0]

    @property
    def n_zprime(self) -> int:
        return self.t.shape[1]


def _saturated_prefixes(col: np.ndarray, n_w: int) -> np.ndarray:
    """Sums of the w largest entries for w = 1..n_w, clamped at the full sum."""
    desc = np.sort(col)[::-1]
    pref = np.cumsum(desc)
    if n_w <= desc.size:
        return pref[:n_w]
    return np.concatenate([pref, np.full(n_w - desc.size, pref[-1])])


def prob_t(joint: ClassicalJoint, host: HostMatrix) -> float:
    """Expected win probability of the best classical answering strategy.

    For every Bob symbol y the answer z' maximizing the t-weighted top-w
    masses of the joint column is chosen; the column is unnormalized, which
    folds the probability of y into the score.
    """
    total = 0.0
    for y in range(joint.n):
        pref = _saturated_prefixes(joint.p[:, y], host.n_w)
        total += float((pref @ host.t).max())
    return total


def fixed_w_value(joint: ClassicalJoint, w: int) -> float:
    """Game value when the prize index is pinned to w (deterministic host)."""
    if w < 1:
        raise ValueError("w must be at least 1")
    return sum(float(_saturated_prefixes(joint.p[:, y], w)[-1]) for y in range(joint.n))


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
    gap: float


def _pad_rows(a: np.ndarray, m: int) -> np.ndarray:
    if a.shape[0] == m:
        return a
    out = np.zeros((m, a.shape[1]))
    out[: a.shape[0], :] = a
    return out


def cond_majorizes_classical(
    p: ClassicalJoint,
    q: ClassicalJoint,
    tol: float = LP_ATOL,
    search_witness: bool = True,
    n_witness_hosts: int = 500,
    seed: int = 0,
) -> MajorizationVerdict:
    """Decide whether Q is reachable from P by a host-correlated redistribution."""
    m = max(p.m, q.m)
    pm = _pad_rows(p.p, m)
    qm = _pad_rows(q.p, m)
    n = pm.shape[1]
    n_prime = qm.shape[1]

    n_z = n * n_prime * m * m
    n_t = n * n_prime
    n_vars = n_z + n_t

    def z_index(y, w, r, c):
        return ((y * n_prime + w) * m + r) * m + c

    def t_index(y, w):
        return n_z + y * n_prime + w

    rows, cols, vals, b = [], [], [], []

    def add_row(entries, rhs):
        r = len(b)
        for c, v in entries:
            rows.append(r)
            cols.append(c)
            vals.append(v)
        b.append(rhs)

    for y in range(n):
        for w in range(n_prime):
            for r in range(m):
                add_row([(z_index(y, w, r, c), 1.0) for c in range(m)] + [(t_index(y, w), -1.0)], 0.0)
            for c in range(m):
                add_row([(z_index(y, w, r, c), 1.0) for r in range(m)] + [(t_index(y, w), -1.0)], 0.0)
    for y in range(n):
        add_row([(t_index(y, w), 1.0) for w in range(n_prime)], 1.0)
    for w in range(n_prime):
        for r in range(m):
            add_row(
                [(z_index(y, w, r, c), float(pm[c, y])) for y in range(n) for c in range(m)],
                float(qm[r, w]),
            )

    a_eq = np.zeros((len(b), n_vars))
    a_eq[rows, cols] = vals
    res = linprog(
        c=np.zeros(n_vars),
        A_eq=a_eq,
        b_eq=np.array(b),
        bounds=[(0.0, None)] * n_vars,
        method="highs",
    )
    if res.status == 2:
        witness = _search_witness(p, q, n_witness_hosts, seed) if search_witness else None
        return MajorizationVerdict(False, None, witness, 0.0)
    if res.status != 0:
        raise LpSolverError(f"LP backend failed with status {res.status}: {res.message}")

    x = res.x
    t = x[n_z:].reshape(n, n_prime)
    ds = np.zeros((n, n_prime, m, m))
    for y in range(n):
        for w in range(n_prime):
            block = x[z_index(y, w, 0, 0): z_index(y, w, 0, 0) + m * m].reshape(m, m)
            if t[y, w] > 1e-12:
                ds[y, w] = block / t[y, w]
            else:
                ds[y, w] = np.full((m, m), 1.0 / m)
    recon = np.zeros((m, n_prime))
    for w in range(n_prime):
        for y in range(n):
            recon[:, w] += t[y, w] * (ds[y, w] @ pm[:, y])
    residual = float(np.abs(recon - qm).max())
    residual = max(residual, float(np.abs(t.sum(axis=1) - 1.0).max()))
    if residual > tol:
        raise LpSolverError(f"LP returned a certificate with residual {residual:.2e} above {tol:.0e}")
    return MajorizationVerdict(True, MajorizationCertificate(t, ds, residual), None, 0.0)


def uniform_target_certificate(p: ClassicalJoint, q_cols: int = 1) -> MajorizationCertificate:
    """Explicit certificate steering any source into the uniform target."""
    m, n = p.m, p.n
    t = np.full((n, q_cols), 1.0 / q_cols)
    ds = np.full((n, q_cols, m, m), 1.0 / m)
    q = np.zeros((m, q_cols))
    for w in range(q_cols):
        for y in range(n):
            q[:, w] += t[y, w] * (ds[y, w] @ p.p[:, y])
    target = np.full((m, q_cols), 1.0 / (m * q_cols))
    return MajorizationCertificate(t, ds, float(np.abs(q - target).max()))


def _search_witness(p: ClassicalJoint, q: ClassicalJoint, n_random: int, seed) -> HostMatrix | None:
    g = rng(seed)
    m = max(p.m, q.m)
    candidates = [fixed_w_host(w, m) for w in range(1, m + 1)]
    for _ in range(n_random):
        t = g.dirichlet(np.ones(m), size=int(g.integers(1, 4))).T
        candidates.append(HostMatrix(t))
    for host in candidates:
        if prob_t(q, host) > prob_t(p, host) + GAME_GAP:
            return host
    return None


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
