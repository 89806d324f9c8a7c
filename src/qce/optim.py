"""Derivative-free search over unitaries and isometries.

An n x k isometry is the first k columns of a product of complex Givens
rotations, one theta/lambda pair per plane that touches an occupied column,
applied to a diagonal phase layer; this family reaches every n x k isometry,
and with k = n every unitary.  One driver, ``search_isometry``, runs plain
coordinate descent over the angles from a fixed list of starts (structured
ones first, then seeded random restarts) and keeps the first best start, so
results are reproducible for a fixed seed.  ``search_unitary`` is its k = n
case.

All starts follow the same coordinate schedule, so they run in lockstep:
each +step or -step probe of one coordinate is scored for every start at
once.  An objective therefore takes a stack of R matrices, shape
(R, n, k), and returns R values.  Each start accepts or rejects its own
probes exactly as a descent run on its own would.
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
    ``params`` may be one angle vector, giving one (n, k) matrix, or a stack
    (..., n_iso_params(n, k)), giving (..., n, k); each matrix of a stack is
    bitwise the one its angle vector gives alone.
    """
    params = np.asarray(params, dtype=float)
    n_pairs = n * k - k * (k + 1) // 2
    cos = np.cos(params[..., :n_pairs, None])
    sin = np.sin(params[..., :n_pairs, None])
    e = np.exp(1j * params[..., n_pairs: 2 * n_pairs, None])
    v = np.zeros(params.shape[:-1] + (n, k), dtype=complex)
    v[..., np.arange(k), np.arange(k)] = np.exp(1j * params[..., 2 * n_pairs:])
    idx = 0
    for c in range(k):
        for r in range(c + 1, n):
            cc, ss, ee = cos[..., idx, :], sin[..., idx, :], e[..., idx, :]
            row_c = v[..., c, :].copy()
            v[..., c, :] = cc * row_c - np.conj(ee) * ss * v[..., r, :]
            v[..., r, :] = ee * ss * row_c + cc * v[..., r, :]
            idx += 1
    return v


def _coordinate_descent(f, params: np.ndarray, opts: OptOpts):
    """Maximize f over each row of params by cyclic +-step probes with shrinking step.

    ``f`` maps an (R, npar) stack of angle rows to R values.  Both probes of
    a coordinate step from its value before the probes; the -step stack is
    scored after each row has accepted or rejected its +step probe, and each
    row compares against its own best so far, as a descent on one row would.
    """
    best = f(params)
    step = opts.step
    for _ in range(opts.sweeps):
        for k in range(params.shape[1]):
            base = params[:, k].copy()
            for cand in (base + step, base - step):
                params[:, k] = cand
                val = f(params)
                better = val > best + 1e-15
                best = np.where(better, val, best)
                base = np.where(better, cand, base)
                params[:, k] = base
        step *= 0.5
    return params, best


def search_isometry(objective, n: int, k: int, opts: OptOpts | None = None, structured=None, minimize: bool = False):
    """Optimize ``objective`` over n x k isometries (V+ V = I_k).

    ``objective`` takes a stack of R isometries, shape (R, n, k), and
    returns their R values.  Coordinate descent runs from every start in
    lockstep.  The starts, in order: first the structured ones, one per
    n x n unitary U0 in ``structured``, searching U0 @ V from zero angles,
    or, when ``structured`` is None, the single zero-angle start V = padded
    identity; then ``opts.restarts`` random angle vectors seeded from
    ``opts.seed``.  The first start with the best value wins; a later start
    must beat it by more than 1e-15.  With ``minimize`` the objective is
    minimized instead.

    Returns (best_isometry, best_value, restarts_used), where restarts_used
    is the number of starts: len(structured) (1 when None) + opts.restarts.
    """
    opts = opts or OptOpts()
    sign = -1.0 if minimize else 1.0
    npar = n_iso_params(n, k)
    n_struct = 1 if structured is None else len(structured)
    u0 = np.array(structured, dtype=complex) if structured else None
    starts = [np.zeros(npar)] * n_struct
    starts += [g.uniform(-np.pi, np.pi, size=npar) for g in spawn_rngs(opts.seed, max(opts.restarts, 0))]
    if not starts:
        raise ValueError("search needs a structured start or opts.restarts > 0")

    def build(p):
        v = isometry_from_params(n, k, p)
        if u0 is not None:
            v[:n_struct] = u0 @ v[:n_struct]
        return v

    params, vals = _coordinate_descent(lambda p: sign * objective(build(p)), np.array(starts), opts)
    best = 0
    for i in range(1, len(vals)):
        if vals[i] > vals[best] + 1e-15:
            best = i
    return build(params)[best], sign * vals[best], len(starts)


def search_unitary(objective, n: int, opts: OptOpts | None = None, structured=(), minimize: bool = False):
    """Optimize ``objective`` over n x n unitaries: ``search_isometry`` with k = n.

    ``objective`` takes a stack (R, n, n) and returns R values.  The starts
    are one per unitary in ``structured`` (an empty sequence adds none),
    then ``opts.restarts`` seeded random ones, so restarts_used is
    len(structured) + opts.restarts.  For n = 1 the only unitary [[1]] is
    scored and restarts_used is 0.  Returns (best_unitary, best_value,
    restarts_used).
    """
    if n == 1:
        u = np.ones((1, 1), dtype=complex)
        return u, objective(u[None])[0], 0
    return search_isometry(objective, n, n, opts, tuple(structured), minimize)
