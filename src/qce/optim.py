"""Derivative-free search over unitaries and isometries.

An n x k isometry is the first k columns of a product of complex Givens
rotations, one theta/lambda pair per plane that touches an occupied column,
applied to a diagonal phase layer; this family reaches every n x k isometry,
and with k = n every unitary.  One driver, ``search_isometry``, runs plain
coordinate descent over the angles from a fixed list of starts (structured
ones first, then seeded random restarts) and keeps the first best start, so
results are reproducible for a fixed seed.  ``search_unitary`` is its k = n
case.

All starts follow the same coordinate schedule, so they run in lockstep, and
a search may carry a leading batch of independent problems that share the
schedule too.  An objective therefore maps a stack of matrices (..., n, k)
to values (...).  The first call scores the starts, (..., R, n, k); each
later call scores both probes of one coordinate for every start of every
problem as one stack (2, ..., R, n, k), the +step probes first.  Each start
accepts or rejects its own probes exactly as a descent run on its own would,
so every problem of a batch gets bitwise the result of its own search.
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
    e_sin, conj_e_sin = e * sin, np.conj(e) * sin
    v = np.zeros(params.shape[:-1] + (n, k), dtype=complex)
    v[..., np.arange(k), np.arange(k)] = np.exp(1j * params[..., 2 * n_pairs:])
    idx = 0
    for c in range(k):
        for r in range(c + 1, n):
            cc = cos[..., idx, :]
            row_c = v[..., c, :].copy()
            v[..., c, :] = cc * row_c - conj_e_sin[..., idx, :] * v[..., r, :]
            v[..., r, :] = e_sin[..., idx, :] * row_c + cc * v[..., r, :]
            idx += 1
    return v


def _coordinate_descent(f, params: np.ndarray, opts: OptOpts):
    """Maximize f over each row of params by cyclic +-step probes with shrinking step.

    ``f`` maps a stack of angle rows (..., npar) to values (...).  Both probes
    of a coordinate step from its value before the probes, so they are scored
    by one call on the stack (2, ..., npar), +step first.  Each row then
    accepts or rejects +step and then -step against its own best so far, as a
    descent on one row would.
    """
    best = f(params)
    step = opts.step
    for _ in range(opts.sweeps):
        for k in range(params.shape[-1]):
            base = params[..., k].copy()
            probes = np.stack([params, params])
            probes[0, ..., k] = base + step
            probes[1, ..., k] = base - step
            for cand, val in zip(probes[..., k], f(probes)):
                better = val > best + 1e-15
                best = np.where(better, val, best)
                base = np.where(better, cand, base)
            params[..., k] = base
        step *= 0.5
    return params, best


def search_isometry(objective, n: int, k: int, opts: OptOpts | None = None, structured=None, minimize: bool = False):
    """Optimize ``objective`` over n x k isometries (V+ V = I_k).

    ``objective`` maps a stack of isometries (..., n, k) to their values
    (...); see the module docstring for the stacks it is given.  The starts,
    in order: first the structured ones, one per n x n unitary U0 in
    ``structured``, searching U0 @ V from zero angles, or, when
    ``structured`` is None, the single zero-angle start V = padded identity;
    then ``opts.restarts`` random angle vectors seeded from ``opts.seed``.
    The first start with the best value wins; a later start must beat it by
    more than 1e-15.  With ``minimize`` the objective is minimized instead.

    ``structured`` may carry a leading batch of independent problems, shape
    (..., S, n, n): each problem searches from its own S structured starts
    and the shared random ones, and gets bitwise the result it would get
    alone.

    Returns (best_isometry, best_value, restarts_used): isometries (..., n, k)
    and values (...) per problem, and restarts_used, the number of starts per
    problem: S (1 when None) + opts.restarts.
    """
    opts = opts or OptOpts()
    sign = -1.0 if minimize else 1.0
    npar = n_iso_params(n, k)
    u0, batch, n_struct = None, (), 1
    if structured is not None:
        u0 = np.asarray(structured, dtype=complex)
        if u0.ndim < 3:  # an empty sequence
            u0 = u0.reshape(0, n, n)
        batch, n_struct = u0.shape[:-3], u0.shape[-3]
    starts = [np.zeros(npar)] * n_struct
    starts += [g.uniform(-np.pi, np.pi, size=npar) for g in spawn_rngs(opts.seed, max(opts.restarts, 0))]
    if not starts:
        raise ValueError("search needs a structured start or opts.restarts > 0")

    def build(p):
        v = isometry_from_params(n, k, p)
        if u0 is not None:
            v[..., :n_struct, :, :] = u0 @ v[..., :n_struct, :, :]
        return v

    params = np.broadcast_to(np.array(starts), batch + (len(starts), npar)).copy()
    params, vals = _coordinate_descent(lambda p: sign * objective(build(p)), params, opts)
    best, best_val = np.zeros(batch, dtype=int), vals[..., 0]
    for i in range(1, len(starts)):
        better = vals[..., i] > best_val + 1e-15
        best = np.where(better, i, best)
        best_val = np.where(better, vals[..., i], best_val)
    v = np.take_along_axis(build(params), best[..., None, None, None], axis=-3)[..., 0, :, :]
    return v, sign * best_val, len(starts)


def search_unitary(objective, n: int, opts: OptOpts | None = None, structured=(), minimize: bool = False):
    """Optimize ``objective`` over n x n unitaries: ``search_isometry`` with k = n.

    ``objective`` maps a stack (..., n, n) to values (...).  The starts are
    one per unitary in ``structured`` (an empty sequence adds none; a batch
    (..., S, n, n) gives one search per problem), then ``opts.restarts``
    seeded random ones, so restarts_used is S + opts.restarts.  For n = 1
    the only unitary [[1]] is scored, per problem, and restarts_used is 0.
    Returns (best_unitary, best_value, restarts_used).
    """
    if n == 1:
        u = np.ones(np.shape(structured)[:-3] + (1, 1), dtype=complex)
        return u, objective(u[..., None, :, :])[..., 0], 0
    return search_isometry(objective, n, n, opts, structured, minimize)
