"""Seeded input generators and the operation record shared by the workloads.

Inputs are drawn with the benchmark's own numpy code from the ``--seed``
argument; the program only ever sees the generated matrices.  The make-up of
each workload (kinds, sizes, counts) is fixed; the seed only moves the
random entries, so runs with different seeds do the same amount of work.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np


@dataclass(frozen=True)
class Op:
    """One request: ``run(tracer)`` calls into qce, ``check(outcome)`` lists errors."""

    kind: str
    run: Callable[[Any], Any]
    check: Callable[[Any], list]


def child_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, index])


def gaussian(g: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    return g.standard_normal((rows, cols)) + 1j * g.standard_normal((rows, cols))


def unit_vector(g: np.random.Generator, n: int) -> np.ndarray:
    v = gaussian(g, n, 1).ravel()
    return v / np.linalg.norm(v)


def mixed_state(g: np.random.Generator, side: int, rank: int | None = None) -> np.ndarray:
    m = gaussian(g, side, rank or side)
    rho = m @ m.conj().T
    rho = rho / rho.trace().real
    return 0.5 * (rho + rho.conj().T)


def pure_state(g: np.random.Generator, side: int) -> np.ndarray:
    v = unit_vector(g, side)
    return np.outer(v, v.conj())


def max_entangled(d: int) -> np.ndarray:
    v = np.eye(d).reshape(-1) / np.sqrt(d)
    return np.outer(v, v).astype(complex)


def separable_state(g: np.random.Generator, da: int, db: int, terms: int) -> np.ndarray:
    """Mixture of ``terms`` pure product states."""
    w = g.dirichlet(np.ones(terms))
    out = np.zeros((da * db, da * db), dtype=complex)
    for k in range(terms):
        out += w[k] * np.kron(pure_state(g, da), pure_state(g, db))
    return 0.5 * (out + out.conj().T)


def haar_unitary(g: np.random.Generator, n: int) -> np.ndarray:
    q, r = np.linalg.qr(gaussian(g, n, n))
    ph = np.diag(r) / np.abs(np.diag(r))
    return q * ph


def doubly_stochastic(g: np.random.Generator, m: int, n_perms: int = 3) -> np.ndarray:
    out = np.zeros((m, m))
    for w in g.dirichlet(np.ones(n_perms)):
        out[g.permutation(m), np.arange(m)] += w
    return out


def column_stochastic(g: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    return g.dirichlet(np.ones(rows), size=cols).T


def sorted_pmf(g: np.random.Generator, n: int) -> np.ndarray:
    return np.sort(g.dirichlet(np.ones(n)))[::-1]


def to_json(obj) -> str:
    """Request text; stdlib json keeps every float digit, so decoding is exact."""
    return json.dumps(obj)
