"""Derivative-free search over unitaries and isometries.

An n x k isometry is the first k columns of a product of complex Givens
rotations, one theta/lambda pair per plane that touches an occupied column,
applied to a diagonal phase layer; this family reaches every n x k isometry,
and with k = n every unitary.  The angle vector holds the thetas, then the
lambdas, then the k phases, and the phase layer multiplies column j by its
phase.  One search loop runs plain coordinate descent over the angles from a
fixed list of starts (structured ones first, then seeded random restarts)
and keeps the first best start, so results are reproducible for a fixed
seed.  ``search_isometry`` probes every angle, making
1 + sweeps * n_iso_params(n, k) objective calls.  ``search_unitary``
searches orthonormal bases up to column phases: its objective must not
depend on the phases of U's columns (a function of the projectors
|u_j><u_j| does not), so it probes only the n(n - 1) Givens angles, making
1 + sweeps * n(n - 1) calls.  Its starts keep the phase layer, zero for
structured starts and drawn for random ones, so its seeded random draws are
those of ``search_isometry``.

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


def _coordinate_descent(f, params: np.ndarray, opts: OptOpts, n_probed: int):
    """Maximize f over each row of params by cyclic +-step probes with shrinking step.

    Each sweep probes the first ``n_probed`` coordinates in order; the rest
    keep their start values.  ``f`` maps a stack of angle rows (..., npar) to
    values (...).  Both probes of a coordinate step from its value before the
    probes, so they are scored by one call on the stack (2, ..., npar), +step
    first.  Each row then accepts or rejects +step and then -step against its
    own best so far, as a descent on one row would.
    """
    best = f(params)
    step = opts.step
    for _ in range(opts.sweeps):
        for k in range(n_probed):
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
    """Optimize ``objective`` over n x k isometries (V+ V = I_k), probing every angle.

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
    problem: S (1 when None) + opts.restarts.  ``objective`` is called
    1 + opts.sweeps * n_iso_params(n, k) times.
    """
    return _search(objective, n, k, opts, structured, minimize, n_iso_params(n, k))


def _search(objective, n: int, k: int, opts: OptOpts | None, structured, minimize: bool, n_probed: int):
    """The search behind both public searches: coordinate descent probing the first ``n_probed`` angles."""
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
    params, vals = _coordinate_descent(lambda p: sign * objective(build(p)), params, opts, n_probed)
    best, best_val = np.zeros(batch, dtype=int), vals[..., 0]
    for i in range(1, len(starts)):
        better = vals[..., i] > best_val + 1e-15
        best = np.where(better, i, best)
        best_val = np.where(better, vals[..., i], best_val)
    v = np.take_along_axis(build(params), best[..., None, None, None], axis=-3)[..., 0, :, :]
    return v, sign * best_val, len(starts)


def search_unitary(objective, n: int, opts: OptOpts | None = None, structured=(), minimize: bool = False):
    """Optimize ``objective`` over orthonormal bases of C^n, up to the phases of the columns.

    The contract: ``objective`` maps a stack (..., n, n) of unitaries to
    values (...) that do not change when a column of a unitary is multiplied
    by a phase, as for a function of the projectors |u_j><u_j|.  Under it the
    search probes only the n(n - 1) Givens angles and leaves each start's
    phases as they are: zero for a structured start, drawn for a random one.
    Every random start still draws n_iso_params(n, n) angles, so the seeded
    draws are those of ``search_isometry(objective, n, n, ...)``.  An
    objective that sees the phases belongs to ``search_isometry``.

    The starts are one per unitary in ``structured`` (an empty sequence adds
    none; a batch (..., S, n, n) gives one search per problem), then
    ``opts.restarts`` seeded random ones, so restarts_used is
    S + opts.restarts, and ``objective`` is called
    1 + opts.sweeps * n(n - 1) times.  For n = 1 the only unitary [[1]] is
    scored, per problem, and restarts_used is 0.  Returns (best_unitary,
    best_value, restarts_used).
    """
    if n == 1:
        u = np.ones(np.shape(structured)[:-3] + (1, 1), dtype=complex)
        return u, objective(u[..., None, :, :])[..., 0], 0
    return _search(objective, n, n, opts, structured, minimize, n * (n - 1))
