"""Divergences and the conditional entropies they induce.

All entropies use log base 2, pinned by the normalization H(u_2) = 1.
Eigenvalues below ``EIG_CUTOFF`` are treated as zero; relative entropies
return ``math.inf`` when the first argument has weight outside the support
of the second.
"""

from __future__ import annotations

import math

import numpy as np

from .linalg import EIG_CUTOFF, DensityOperator, _spectral_amplitudes, _trace_out, kron

UMEGAKI = "umegaki"
DMAX = "dmax"
SUPPORT_LEAK_ATOL = 1e-9


def _mat(x) -> np.ndarray:
    return x.mat if isinstance(x, DensityOperator) else np.asarray(x, dtype=complex)


def vn_entropy(state) -> float:
    """-sum(lam * log2(lam)) over the spectrum."""
    lam = np.linalg.eigvalsh(_mat(state))
    lam = lam[lam > EIG_CUTOFF]
    return float(-(lam * np.log2(lam)).sum())


def divergence(kind: str, rho, sigma) -> float:
    """Relative entropy between density operators of matching dimension."""
    r = _mat(rho)
    s = _mat(sigma)
    if r.shape != s.shape:
        raise ValueError("operands have mismatched dimensions")
    if kind == UMEGAKI:
        return _umegaki(r, s)
    if kind == DMAX:
        return _dmax(r, s)
    raise ValueError(f"unknown divergence kind {kind!r}")


def _umegaki(r: np.ndarray, s: np.ndarray) -> float:
    lam, u = np.linalg.eigh(r)
    mu, v = np.linalg.eigh(s)
    lam = np.clip(lam, 0.0, None)
    overlap = np.abs(u.conj().T @ v) ** 2  # overlap[i, j] = |<u_i|v_j>|^2
    weight_on = lam @ overlap              # weight of rho on each sigma eigenvector
    bad = mu <= EIG_CUTOFF
    if weight_on[bad].sum() > SUPPORT_LEAK_ATOL:
        return math.inf
    tr_rho_log_rho = float((lam[lam > EIG_CUTOFF] * np.log2(lam[lam > EIG_CUTOFF])).sum())
    good = ~bad
    tr_rho_log_sigma = float((weight_on[good] * np.log2(mu[good])).sum())
    return tr_rho_log_rho - tr_rho_log_sigma


def _dmax(r: np.ndarray, s: np.ndarray) -> float:
    mu, v = np.linalg.eigh(s)
    good = mu > EIG_CUTOFF
    p_out = v[:, ~good]
    if p_out.shape[1] and float(np.einsum("ij,jk,ki->", p_out.conj().T, r, p_out).real) > SUPPORT_LEAK_ATOL:
        return math.inf
    vs = v[:, good]
    core = (vs.conj().T @ r @ vs) / np.sqrt(np.outer(mu[good], mu[good]))
    lam_max = float(np.linalg.eigvalsh(0.5 * (core + core.conj().T)).max())
    return math.log2(max(lam_max, EIG_CUTOFF))


def _bipartite(state: DensityOperator):
    if len(state.dims) != 2:
        raise ValueError("state must carry bipartite dims")
    return state.dims


def cond_entropy_down(state: DensityOperator, kind: str = UMEGAKI) -> float:
    """log2|A| minus the divergence from u_A (x) rho_B."""
    da, db = _bipartite(state)
    rho_b = _trace_out(state.mat, state.dims, [0])
    sigma = kron(np.eye(da) / da, rho_b)
    return math.log2(da) - divergence(kind, state.mat, sigma)


def vn_cond_entropy(state: DensityOperator) -> float:
    """H(AB) - H(B)."""
    _bipartite(state)
    rho_b = _trace_out(state.mat, state.dims, [0])
    return vn_entropy(state.mat) - vn_entropy(rho_b)


def dual_cond_entropy(h, state: DensityOperator) -> float:
    """-h evaluated on (A, purifying reference) of the canonical purification.

    rho_AC is contracted straight from the spectral amplitudes of ``state``:
    one eigensolve of side n = |A||B|, then ``h`` on a state of side
    |A|*rank.  The purification itself (side n*rank) is never formed.
    """
    da, db = _bipartite(state)
    amps, rank = _spectral_amplitudes(state)
    t = amps.reshape(da, db, rank)
    rho_ac = np.einsum("abc,xby->acxy", t, t.conj()).reshape(da * rank, da * rank)
    return -h(DensityOperator((da, rank), rho_ac))


def coherent_information(state: DensityOperator) -> float:
    return -vn_cond_entropy(state)
