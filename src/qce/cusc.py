"""Conditionally unital, semi-causal (CUSC) bipartite channels.

A bipartite channel N: (A,B) -> (A,B') is

* semi-causal when nothing Alice does on A can signal to Bob's output,
  certified here through the Choi marginal condition
  ``Tr_out_A J = u_A (x) Tr_{A, out_A} J``;
* conditionally unital when N(u_A (x) rho_B) keeps the A side maximally
  mixed, certified through ``Tr_A J = J_{BB'} (x) u_outA``.

Both tests operate on the unnormalized Choi operator with subsystem order
(A, B, A_out, B_out).  The module also provides constructions that realize
such channels: dephase-and-steer sums, isometry-then-recovery composites,
teleportation correctors, a scrambler with maximally-entangled Choi blocks,
a witness channel for nonnegative conditional entropy, and separable
preparations from mixtures of local unitaries.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import channels as qc
from .linalg import (
    ATOL,
    DensityOperator,
    _as_complex,
    _permute_mat,
    _spectral_amplitudes,
    _trace_out,
    dagger,
    entangled_basis,
    ket,
    kron,
    max_entangled_vec,
    proj,
    random_density,
    rng,
    weyl_unitaries,
)

CUSC_ATOL = 1e-7


@dataclass(frozen=True)
class CuscVerdict:
    conditionally_unital: bool
    semicausal_choi: bool
    semicausal_operational: bool | None
    max_violation: float


def _bipartite_dims(ch: qc.QuantumChannel):
    if len(ch.in_dims) != 2 or len(ch.out_dims) != 2:
        raise ValueError("channel must carry bipartite in/out dims")
    da, db = ch.in_dims
    da2, db2 = ch.out_dims
    if da2 != da:
        raise ValueError("the A side must keep its dimension")
    return da, db, db2


def conditional_unitality_violation(ch: qc.QuantumChannel) -> float:
    """Largest entry deviation of Tr_A J from J_{BB'} (x) u_outA."""
    da, db, db2 = _bipartite_dims(ch)
    j = qc.choi(ch)
    dims = [da, db, da, db2]
    j_b_ao_bo = _trace_out(j, dims, [0])            # order (B, A_out, B_out)
    j_b_bo = _trace_out(j_b_ao_bo, [db, da, db2], [1])
    target = kron(j_b_bo, np.eye(da) / da)          # order (B, B_out, A_out)
    target = _permute_mat(target, [db, db2, da], [0, 2, 1])
    return float(np.abs(j_b_ao_bo - target).max())


def semicausal_choi_violation(ch: qc.QuantumChannel) -> float:
    """Largest entry deviation of Tr_outA J from u_A (x) J_{BB'}."""
    da, db, db2 = _bipartite_dims(ch)
    j = qc.choi(ch)
    dims = [da, db, da, db2]
    j_a_b_bo = _trace_out(j, dims, [2])             # order (A, B, B_out)
    j_b_bo = _trace_out(j_a_b_bo, [da, db, db2], [0])
    target = kron(np.eye(da) / da, j_b_bo)
    return float(np.abs(j_a_b_bo - target).max())


def semicausal_operational_violation(ch: qc.QuantumChannel, trials: int = 8, seed=0) -> float:
    """Spot-check that Alice-side tampering cannot move Bob's output marginal."""
    da, db, db2 = _bipartite_dims(ch)
    g = rng(seed)
    worst = 0.0
    for _ in range(trials):
        m = qc.random_channel(da, da, seed=g)
        rho = random_density((da, db), seed=g)
        tampered = qc.apply(qc.tensor(m, qc.identity_channel((db,))), rho)
        out_t = _trace_out(qc.apply(ch, tampered).mat, [da, db2], [0])
        out_p = _trace_out(qc.apply(ch, rho).mat, [da, db2], [0])
        worst = max(worst, float(np.abs(out_t - out_p).max()))
    return worst


def is_conditionally_unital(ch: qc.QuantumChannel, tol: float = CUSC_ATOL):
    v = conditional_unitality_violation(ch)
    return v <= tol, v


def is_semicausal(ch: qc.QuantumChannel, tol: float = CUSC_ATOL, operational_trials: int = 0, seed=0):
    v = semicausal_choi_violation(ch)
    if operational_trials > 0:
        v = max(v, semicausal_operational_violation(ch, operational_trials, seed))
    return v <= tol, v


def is_cusc(ch: qc.QuantumChannel, tol: float = CUSC_ATOL, operational_trials: int = 0, seed=0) -> CuscVerdict:
    cu = conditional_unitality_violation(ch)
    sc = semicausal_choi_violation(ch)
    op_ok = None
    worst = max(cu, sc)
    if operational_trials > 0:
        op = semicausal_operational_violation(ch, operational_trials, seed)
        op_ok = op <= tol
        worst = max(worst, op)
    return CuscVerdict(cu <= tol, sc <= tol, op_ok, worst)


# ---------------------------------------------------------------------------
# constructions


def cds_channel(ds, fs, b_in_dim: int, b_out_dim: int) -> qc.QuantumChannel:
    """Sum of (dephase-and-redistribute on A) (x) (CP map on B) terms.

    ``ds[j]`` must be doubly stochastic; ``fs[j]`` is a Kraus list of a CP
    map B -> B' such that the sum over j is trace preserving.
    """
    if len(ds) != len(fs) or not ds:
        raise ValueError("need matching nonempty lists of stochastic matrices and CP maps")
    m = np.asarray(ds[0]).shape[0]
    kraus = []
    tp = np.zeros((b_in_dim, b_in_dim), dtype=complex)
    for d_mat, f_kraus in zip(ds, fs):
        d_mat = np.asarray(d_mat, dtype=float)
        if d_mat.shape != (m, m) or d_mat.min() < -ATOL:
            raise ValueError("stochastic matrix has wrong shape or negative entries")
        if np.abs(d_mat.sum(axis=0) - 1.0).max() > ATOL or np.abs(d_mat.sum(axis=1) - 1.0).max() > ATOL:
            raise ValueError("matrix is not doubly stochastic")
        for f in f_kraus:
            f = _as_complex(f)
            tp += dagger(f) @ f
        for i in range(m):
            for jj in range(m):
                if d_mat[i, jj] > 1e-14:
                    amp = np.sqrt(d_mat[i, jj]) * np.outer(ket(i, m), ket(jj, m).conj())
                    for f in f_kraus:
                        kraus.append(kron(amp, f))
    if np.abs(tp - np.eye(b_in_dim)).max() > qc.CHOI_PSD_ATOL:
        raise ValueError("CP maps do not sum to a trace-preserving map")
    return qc.QuantumChannel((m, b_in_dim), (m, b_out_dim), tuple(kraus))


def semicausal_from_parts(f_iso: qc.QuantumChannel, e: qc.QuantumChannel) -> qc.QuantumChannel:
    """Compose B -> (R, B') isometry with an (R, A) -> A recovery into (A,B) -> (A,B').

    Semi-causality holds by construction: Bob acts first, Alice's system is
    only touched by the recovery map.  Each recovery Kraus operator K gives
    one composite Kraus operator of shape (|A||B'|, |A||B|), contracted over
    R in a single einsum with the isometry V.
    """
    if len(f_iso.kraus) != 1:
        raise ValueError("f_iso must be an isometry channel with a single Kraus operator")
    v = f_iso.kraus[0]
    if np.abs(dagger(v) @ v - np.eye(f_iso.din)).max() > qc.RECON_ATOL:
        raise ValueError("f_iso Kraus operator is not an isometry")
    r_dims = tuple(e.in_dims[:-1])
    da = e.in_dims[-1]
    if tuple(f_iso.out_dims[: len(r_dims)]) != r_dims:
        raise ValueError("f_iso output does not start with the recovery map's R systems")
    b_out_dims = tuple(f_iso.out_dims[len(r_dims):])
    if e.out_dims != (da,):
        raise ValueError("recovery map must output the A system alone")

    r = int(np.prod(r_dims))
    db, db2 = f_iso.din, int(np.prod(b_out_dims))
    v3 = v.reshape(r, db2, db)
    ks = tuple(
        np.einsum("xra,rby->xbay", k.reshape(da, r, da), v3).reshape(da * db2, da * db) for k in e.kraus
    )
    return qc.QuantumChannel((da, db), (da,) + b_out_dims, ks)


def teleport_cusc(target: DensityOperator) -> qc.QuantumChannel:
    """CUSC channel mapping the maximally entangled state to ``target``.

    Bob locally prepares a purification of the target, measures his input
    against its first half in the maximally entangled basis, and forwards
    the outcome flag; Alice applies the matching shift-and-phase correction.
    The purification is read from the target's spectral amplitudes (one
    eigensolve of side d^2); the channel has d^2 * rank Kraus operators of
    side d^2, Kraus (j, e) = W_j (x) block_j[e], with W_j the correction and
    block_j the target tensor projected on the j-th Bell vector.
    """
    if len(target.dims) != 2 or target.dims[0] != target.dims[1]:
        raise ValueError("target must live on two systems of equal dimension")
    d = target.dims[0]
    amps, de = _spectral_amplitudes(target)
    t_tens = amps.reshape(d, d, de)  # (A', B', E)

    ks = []
    for w, bvec in zip(weyl_unitaries(d), entangled_basis(d)):
        b_mat = bvec.reshape(d, d)  # (A', B-in)
        block = np.einsum("ab,axe->exb", b_mat.conj(), t_tens)  # (E, B', B-in)
        ks.extend(kron(w, block[e]) for e in range(de))
    return qc.QuantumChannel((d, d), (d, d), tuple(ks))


def bell_scrambler(d: int) -> qc.QuantumChannel:
    """CUSC channel whose Choi couples the maximally entangled basis on (A,B)
    to a fixed orthonormal output basis, with a passive second A system.

    Input bipartition ((A, A2), B), output ((A_out, A2_out), trivial); feeding
    it the maximally entangled state on (A,B) next to a maximally mixed A2
    returns the first output basis state exactly.
    """
    bells = entangled_basis(d)
    d2 = d * d
    side = d2 * d * d2
    j = np.zeros((side, side), dtype=complex)
    eye_a2 = np.eye(d, dtype=complex)
    for idx, bvec in enumerate(bells):
        block = kron(proj(bvec), eye_a2)                    # order (A, B, A2)
        block = _permute_mat(block, [d, d, d], [0, 2, 1])   # -> (A, A2, B)
        out = proj(ket(idx, d2))
        j += kron(block, out)
    return qc.from_choi(j, (d2, d), (d2, 1))


def nonneg_witness_channel(rho: DensityOperator) -> qc.QuantumChannel:
    """Recovery channel (A_in, B_in) -> A whose Choi encodes ``rho``.

    Requires the largest eigenvalue of ``rho`` to be at most 1/d and its B
    marginal to be maximally mixed.  Feeding |0><0| next to half of a
    maximally entangled pair reproduces ``rho``; see
    :func:`nonneg_witness_composite`.
    """
    if len(rho.dims) != 2 or rho.dims[0] != rho.dims[1]:
        raise ValueError("state must live on two systems of equal dimension")
    d = rho.dims[0]
    if d < 2:
        raise ValueError("dimension must be at least 2")
    lam_max = float(np.linalg.eigvalsh(rho.mat).max())
    if lam_max > 1.0 / d + ATOL:
        raise ValueError("largest eigenvalue exceeds 1/d")
    marg_b = _trace_out(rho.mat, rho.dims, [0])
    if np.abs(marg_b - np.eye(d) / d).max() > qc.RECON_ATOL:
        raise ValueError("B marginal is not maximally mixed")

    rho_ba = _permute_mat(rho.mat, [d, d], [1, 0])  # (B_in, A)
    top = d * rho_ba
    rest = (np.eye(d * d) - top) / (d - 1)
    j = kron(proj(ket(0, d)), top)
    for x in range(1, d):
        j += kron(proj(ket(x, d)), rest)
    return qc.from_choi(j, (d, d), (d,))


def nonneg_witness_choi_deviations(ch: qc.QuantumChannel):
    """Deviations of the two identity marginals that certify the witness property."""
    da, db = ch.in_dims
    j = qc.choi(ch)
    dims = [da, db, ch.dout]
    dev_in = float(np.abs(_trace_out(j, dims, [2]) - np.eye(da * db)).max())
    dev_cross = float(np.abs(_trace_out(j, dims, [0]) - np.eye(db * ch.dout)).max())
    return dev_in, dev_cross


def nonneg_witness_composite(rho: DensityOperator) -> qc.QuantumChannel:
    """One-system channel w -> (A,B): feed (w, half of a max-entangled pair) to the witness."""
    e = nonneg_witness_channel(rho)
    d = rho.dims[0]
    phi = max_entangled_vec(d)
    insert = kron(np.eye(d, dtype=complex), phi.reshape(d * d, 1))  # (A_in) -> (A_in, B_in, B)
    ks = tuple(kron(k, np.eye(d, dtype=complex)) @ insert for k in e.kraus)
    return qc.QuantumChannel((d,), (d, d), ks)


def unitary_sending_zero_to(psi: np.ndarray) -> np.ndarray:
    """Householder-style unitary with U|0> = psi."""
    psi = np.asarray(psi, dtype=complex).ravel()
    d = psi.size
    if abs(np.linalg.norm(psi) - 1.0) > ATOL:
        raise ValueError("target vector must be normalized")
    phase = psi[0] / abs(psi[0]) if abs(psi[0]) > 1e-12 else 1.0
    phi = psi * np.conj(phase)
    v = ket(0, d) - phi
    nv2 = float(np.vdot(v, v).real)
    h = np.eye(d, dtype=complex)
    if nv2 > 1e-24:
        h = h - 2.0 * np.outer(v, v.conj()) / nv2
    return phase * h


def separable_prep_channel(parts) -> qc.QuantumChannel:
    """Mixture of local unitaries sending |00> to sum_j p_j psi_j (x) phi_j."""
    ps = np.array([p for p, _, _ in parts], dtype=float)
    if ps.min() < -ATOL or abs(ps.sum() - 1.0) > ATOL:
        raise ValueError("weights must form a probability vector")
    first = parts[0]
    da = np.asarray(first[1]).size
    db = np.asarray(first[2]).size
    ks = []
    for p, psi, phi in parts:
        u = unitary_sending_zero_to(psi)
        v = unitary_sending_zero_to(phi)
        if u.shape[0] != da or v.shape[0] != db:
            raise ValueError("all parts must share the same local dimensions")
        ks.append(np.sqrt(p) * kron(u, v))
    return qc.QuantumChannel((da, db), (da, db), tuple(ks))


def random_cusc(da: int, db: int, seed=0) -> qc.QuantumChannel:
    """Random CUSC channel with B' = B, drawn from the module's constructions."""
    g = rng(seed)
    kinds = ["mix_local", "cds", "separable"]
    if da == db:
        kinds.append("teleport")
    kind = kinds[int(g.integers(len(kinds)))]
    if kind == "mix_local":
        n_terms = int(g.integers(1, 4))
        ps = g.dirichlet(np.ones(n_terms))
        ks = []
        for j in range(n_terms):
            u = _haar(da, g)
            f = qc.random_channel(db, db, seed=g)
            for kf in f.kraus:
                ks.append(np.sqrt(ps[j]) * kron(u, kf))
        return qc.QuantumChannel((da, db), (da, db), tuple(ks))
    if kind == "cds":
        n_terms = int(g.integers(1, 3))
        ds = [_random_doubly_stochastic(da, g) for _ in range(n_terms)]
        instrument = qc.random_channel(db, db, kraus_rank=max(n_terms, db), seed=g)
        groups = [list(instrument.kraus[j::n_terms]) for j in range(n_terms)]
        groups = [gr if gr else [np.zeros((db, db), dtype=complex)] for gr in groups]
        return cds_channel(ds, groups, db, db)
    if kind == "separable":
        n_terms = int(g.integers(1, 4))
        ps = g.dirichlet(np.ones(n_terms))
        parts = [(ps[j], _haar_vec(da, g), _haar_vec(db, g)) for j in range(n_terms)]
        return separable_prep_channel(parts)
    return teleport_cusc(random_density((da, db), seed=g))


def _haar(d, g):
    from .linalg import haar_unitary

    return haar_unitary(d, g)


def _haar_vec(d, g):
    v = g.standard_normal(d) + 1j * g.standard_normal(d)
    return v / np.linalg.norm(v)


def _random_doubly_stochastic(m, g, n_perms: int = 4):
    ws = g.dirichlet(np.ones(n_perms))
    out = np.zeros((m, m))
    for w in ws:
        perm = g.permutation(m)
        p = np.zeros((m, m))
        p[perm, np.arange(m)] = 1.0
        out += w * p
    return out
