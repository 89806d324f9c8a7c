"""Divergences and the conditional entropies they induce.

All entropies use log base 2, pinned by the normalization H(u_2) = 1.
Eigenvalues below ``EIG_CUTOFF`` are treated as zero; relative entropies
return ``math.inf`` when the first argument has weight outside the support
of the second.

``divergence`` is the general path: one ``eigh`` of each operand.  The
conditional entropies H(A|B) = log|A| - D(rho_AB || u_A (x) rho_B) never form
sigma = u_A (x) rho_B; its spectrum is the spectrum of rho_B scaled by 1/|A|.
The Umegaki value costs one ``eigvalsh`` of side n = |A||B| and one of side
|B|; the Dmax value one ``eigh`` of side |B|, two products with the n x n
state and one ``eigvalsh`` of side |A| * rank(rho_B).  A dual adds one
eigensolve of side n and evaluates its entropy on a state of side |A| * rank.
"""

from __future__ import annotations

import math

import numpy as np

from .linalg import EIG_CUTOFF, DensityOperator, _spectral_amplitudes, _trace_out

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
    """log2|A| minus the divergence from u_A (x) rho_B.

    Equal to ``log2(da) - divergence(kind, state, u_A (x) rho_B)`` up to
    rounding, without forming sigma.  For Umegaki it is H(AB) - H(B)
    (``vn_cond_entropy``): the support test of ``divergence`` cannot fire
    on a state, because supp rho_AB lies in A (x) supp rho_B, so the weight
    on sigma's kernel is at most |A| * ``EIG_CUTOFF``, far below
    ``SUPPORT_LEAK_ATOL``.  For Dmax, with rho_B = V diag(mu) V^dagger and W
    = V_good mu_good^{-1/2} over the eigenvalues with mu/|A| above the
    cutoff, sigma^{-1/2} rho sigma^{-1/2} has the spectrum of |A| * core,
    core = (I_A (x) W)^dagger rho (I_A (x) W); weight of rho_B on its kernel
    beyond ``SUPPORT_LEAK_ATOL`` gives -inf.
    """
    if kind == UMEGAKI:
        return vn_cond_entropy(state)
    if kind != DMAX:
        raise ValueError(f"unknown divergence kind {kind!r}")
    da, db = _bipartite(state)
    rho_b = _trace_out(state.mat, state.dims, [0])
    mu, v = np.linalg.eigh(rho_b)
    good = mu / da > EIG_CUTOFF
    if mu[~good].sum() > SUPPORT_LEAK_ATOL:  # Tr(P_ker rho_B)
        return -math.inf
    w = v[:, good] / np.sqrt(mu[good])
    k = w.shape[1]
    # rho (I (x) W), then (I (x) W)^dagger on the left through its adjoint
    right = (state.mat.reshape(-1, db) @ w).reshape(da * db, da * k)
    core = (right.conj().T.reshape(-1, db) @ w).reshape(da * k, da * k)
    lam_max = float(np.linalg.eigvalsh(0.5 * (core + core.conj().T)).max())
    return math.log2(da) - math.log2(max(da * lam_max, EIG_CUTOFF))


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
    m = t.transpose(0, 2, 1).reshape(da * rank, db)  # rows (a, c), columns b
    rho_ac = m @ m.conj().T
    return -h(DensityOperator((da, rank), rho_ac))


def coherent_information(state: DensityOperator) -> float:
    return -vn_cond_entropy(state)
