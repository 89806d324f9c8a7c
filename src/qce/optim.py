"""Derivative-free search over unitaries and isometries.

An n x k isometry is the first k columns of a product of complex Givens
rotations, one theta/lambda pair per plane that touches an occupied column,
applied to a diagonal phase layer; this family reaches every n x k isometry,
and with k = n every unitary.  One driver, ``search_isometry``, runs plain
coordinate descent over the angles from a fixed list of starts (structured
ones first, then seeded random restarts) and keeps the first best start, so
results are reproducible for a fixed seed.  ``search_unitary`` is its k = n
case.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import spawn_rngs


@dataclass(frozen=True)
class OptOpts:
    restarts: int = 32
    sweeps: int = 2
    seed: int = 0
    step: float = 0.5


def n_iso_params(n: int, k: int) -> int:
    return 2 * (n * k - k * (k + 1) // 2) + k


def isometry_from_params(n: int, k: int, params: np.ndarray) -> np.ndarray:
    """First k columns of a Givens-parametrized unitary on the n-dim padded space.

    Only the planes that touch the occupied columns are parametrized; with a
    phase layer on the diagonal this family reaches every n x k isometry.
    """
    params = np.asarray(params, dtype=float)
    n_pairs = n * k - k * (k + 1) // 2
    thetas = params[:n_pairs]
    lams = params[n_pairs: 2 * n_pairs]
    phases = params[2 * n_pairs:]
    v = np.zeros((n, k), dtype=complex)
    v[np.arange(k), np.arange(k)] = np.exp(1j * phases)
    idx = 0
    for c in range(k):
        for r in range(c + 1, n):
            th = thetas[idx]
            e = np.exp(1j * lams[idx])
            cc = np.cos(th)
            ss = np.sin(th)
            row_c = v[c].copy()
            v[c] = cc * row_c - np.conj(e) * ss * v[r]
            v[r] = e * ss * row_c + cc * v[r]
            idx += 1
    return v


def _coordinate_descent(f, params: np.ndarray, opts: OptOpts):
    """Maximize f over params by cyclic +-step probes with shrinking step."""
    best = f(params)
    step = opts.step
    for _ in range(opts.sweeps):
        for k in range(params.size):
            base = params[k]
            for cand in (base + step, base - step):
                params[k] = cand
                val = f(params)
                if val > best + 1e-15:
                    best = val
                    base = cand
                else:
                    params[k] = base
        step *= 0.5
    return params, best


def search_isometry(objective, n: int, k: int, opts: OptOpts | None = None, structured=None, minimize: bool = False):
    """Optimize ``objective(V)`` over n x k isometries (V+ V = I_k).

    Coordinate descent runs from each start in order.  First come the
    structured starts: one per n x n unitary U0 in ``structured``, searching
    U0 @ V from zero angles, or, when ``structured`` is None, the single
    zero-angle start V = padded identity.  Then come ``opts.restarts``
    random angle vectors seeded from ``opts.seed``.  The first start with the
    best value wins; a later start must beat it by more than 1e-15.  With
    ``minimize`` the objective is minimized instead.

    Returns (best_isometry, best_value, restarts_used), where restarts_used
    is the number of starts: len(structured) (1 when None) + opts.restarts.
    """
    opts = opts or OptOpts()
    sign = -1.0 if minimize else 1.0
    npar = n_iso_params(n, k)
    if structured is None:
        starts = [(None, np.zeros(npar))]
    else:
        starts = [(np.asarray(u0, dtype=complex), np.zeros(npar)) for u0 in structured]
    for g in spawn_rngs(opts.seed, max(opts.restarts, 0)):
        starts.append((None, g.uniform(-np.pi, np.pi, size=npar)))
    if not starts:
        raise ValueError("search needs a structured start or opts.restarts > 0")

    best_v, best_val = None, 0.0
    for u0, p0 in starts:
        def build(p):
            v = isometry_from_params(n, k, p)
            return v if u0 is None else u0 @ v

        p, val = _coordinate_descent(lambda p: sign * objective(build(p)), p0, opts)
        if best_v is None or val > best_val + 1e-15:
            best_v, best_val = build(p), val
    return best_v, sign * best_val, len(starts)


def search_unitary(objective, n: int, opts: OptOpts | None = None, structured=(), minimize: bool = False):
    """Optimize ``objective(U)`` over n x n unitaries: ``search_isometry`` with k = n.

    The starts are one per unitary in ``structured`` (an empty sequence adds
    none), then ``opts.restarts`` seeded random ones, so restarts_used is
    len(structured) + opts.restarts.  For n = 1 the only unitary [[1]] is
    scored and restarts_used is 0.  Returns (best_unitary, best_value,
    restarts_used).
    """
    if n == 1:
        u = np.ones((1, 1), dtype=complex)
        return u, objective(u), 0
    return search_isometry(objective, n, n, opts, tuple(structured), minimize)
