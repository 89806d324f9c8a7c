"""Dense complex linear algebra for finite-dimensional quantum systems.

Conventions used throughout the package:

* composite systems are ordered left to right, with the leftmost factor
  varying slowest in the flattened index (subsystem 0 is the most
  significant digit);
* all operators are dense ``numpy`` arrays with ``complex128`` entries;
* tolerances: ``ATOL`` for structural checks (hermiticity, trace,
  stochasticity), ``RECON_ATOL`` for reconstructions and round trips,
  ``EIG_CUTOFF`` below which eigenvalues count as zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

ATOL = 1e-9
RECON_ATOL = 1e-8
EIG_CUTOFF = 1e-12


def rng(seed) -> np.random.Generator:
    """Normalize an integer seed or an existing Generator into a Generator."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def spawn_rngs(seed, n: int) -> list[np.random.Generator]:
    """Derive ``n`` independent child generators from one seed.

    Used to give every optimizer restart / simulation shard its own
    stream so results do not depend on evaluation order.
    """
    ss = np.random.SeedSequence(seed)
    return [np.random.default_rng(child) for child in ss.spawn(n)]


def dagger(m: np.ndarray) -> np.ndarray:
    return np.asarray(m).conj().T


def is_hermitian(m: np.ndarray, tol: float = ATOL) -> bool:
    m = np.asarray(m)
    return m.ndim == 2 and m.shape[0] == m.shape[1] and np.abs(m - m.conj().T).max() <= tol


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.kron(np.asarray(a), np.asarray(b))


def ket(i: int, d: int) -> np.ndarray:
    v = np.zeros(d, dtype=complex)
    v[i] = 1.0
    return v


def proj(vec: np.ndarray) -> np.ndarray:
    v = np.asarray(vec, dtype=complex).ravel()
    return np.outer(v, v.conj())


def _as_complex(m) -> np.ndarray:
    a = np.asarray(m, dtype=complex)
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix has non-finite entries")
    return a


@dataclass(frozen=True, eq=False)
class DensityOperator:
    """A validated density operator together with its subsystem dimensions."""

    dims: tuple
    mat: np.ndarray

    def __post_init__(self):
        dims = tuple(int(d) for d in self.dims)
        if len(dims) == 0 or any(d < 1 for d in dims):
            raise ValueError("dims must be a nonempty list of positive ints")
        m = _as_complex(self.mat)
        side = int(np.prod(dims))
        if m.shape != (side, side):
            raise ValueError(f"matrix shape {m.shape} does not match dims {dims}")
        if np.abs(m - m.conj().T).max() > ATOL:
            raise ValueError("density operator is not hermitian")
        if abs(m.trace().real - 1.0) > ATOL or abs(m.trace().imag) > ATOL:
            raise ValueError("density operator trace is not 1")
        if np.linalg.eigvalsh(m).min() < -ATOL:
            raise ValueError("density operator is not positive semidefinite")
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "mat", m)

    @property
    def side(self) -> int:
        return self.mat.shape[0]

    def tensor(self, other: "DensityOperator") -> "DensityOperator":
        return DensityOperator(self.dims + other.dims, kron(self.mat, other.mat))


def density(mat, dims) -> DensityOperator:
    return DensityOperator(tuple(dims), np.asarray(mat, dtype=complex))


def pure(vec, dims) -> DensityOperator:
    v = np.asarray(vec, dtype=complex).ravel()
    n = np.linalg.norm(v)
    if abs(n - 1.0) > ATOL:
        raise ValueError("state vector is not normalized")
    return DensityOperator(tuple(dims), np.outer(v, v.conj()))


def maximally_mixed(dims) -> DensityOperator:
    dims = tuple(int(d) for d in dims)
    side = int(np.prod(dims))
    return DensityOperator(dims, np.eye(side, dtype=complex) / side)


def max_entangled_vec(d: int) -> np.ndarray:
    v = np.zeros(d * d, dtype=complex)
    for k in range(d):
        v[k * d + k] = 1.0
    return v / math.sqrt(d)


def max_entangled(d: int) -> DensityOperator:
    return pure(max_entangled_vec(d), (d, d))


# ---------------------------------------------------------------------------
# subsystem surgery


def _trace_out(mat: np.ndarray, dims, drop) -> np.ndarray:
    """Raw partial trace over the subsystems in ``drop``."""
    dims = list(dims)
    n = len(dims)
    dropset = set(drop)
    t = np.asarray(mat).reshape(dims + dims)
    row = list(range(n))
    col = [i if i in dropset else n + i for i in range(n)]
    out = [i for i in range(n) if i not in dropset]
    out = out + [n + i for i in out]
    res = np.einsum(t, row + col, out)
    keep_side = int(np.prod([dims[i] for i in range(n) if i not in dropset])) if len(dropset) < n else 1
    return res.reshape(keep_side, keep_side)


def partial_trace(state: DensityOperator, keep) -> DensityOperator:
    """Trace out every subsystem not listed in ``keep`` (indices, any order kept sorted)."""
    keep = sorted(set(int(k) for k in keep))
    n = len(state.dims)
    if not keep or any(k < 0 or k >= n for k in keep):
        raise ValueError(f"keep set {keep} invalid for {n} subsystems")
    drop = [i for i in range(n) if i not in keep]
    if not drop:
        return state
    m = _trace_out(state.mat, state.dims, drop)
    return DensityOperator(tuple(state.dims[i] for i in keep), m)


def _permute_mat(mat: np.ndarray, dims, perm) -> np.ndarray:
    dims = list(dims)
    n = len(dims)
    perm = list(perm)
    t = np.asarray(mat).reshape(dims + dims)
    t = t.transpose(perm + [n + p for p in perm])
    side = int(np.prod(dims))
    return t.reshape(side, side)


def permute_systems(state: DensityOperator, perm) -> DensityOperator:
    """Reorder subsystems so that new position ``j`` holds old subsystem ``perm[j]``."""
    perm = [int(p) for p in perm]
    if sorted(perm) != list(range(len(state.dims))):
        raise ValueError("perm is not a permutation of the subsystem indices")
    m = _permute_mat(state.mat, state.dims, perm)
    return DensityOperator(tuple(state.dims[p] for p in perm), m)


def group_dims(state: DensityOperator, groups) -> DensityOperator:
    """Merge adjacent subsystems, e.g. [(0,1),(2,3)] -> two composite factors."""
    flat = [i for g in groups for i in g]
    if flat != list(range(len(state.dims))):
        raise ValueError("groups must cover adjacent subsystems in order")
    dims = tuple(int(np.prod([state.dims[i] for i in g])) for g in groups)
    return DensityOperator(dims, state.mat)


def permutation_matrix(dims, perm) -> np.ndarray:
    """Unitary that maps |i_0 i_1 ...> to the basis vector with factors reordered by perm."""
    dims = list(dims)
    n = len(dims)
    perm = list(perm)
    side = int(np.prod(dims))
    new_dims = [dims[p] for p in perm]
    P = np.zeros((side, side), dtype=complex)
    for old in range(side):
        idx = np.unravel_index(old, dims)
        new = np.ravel_multi_index([idx[p] for p in perm], new_dims)
        P[new, old] = 1.0
    return P


# ---------------------------------------------------------------------------
# spectra, norms, majorization


def eigh_desc(h: np.ndarray):
    """Eigenvalues and eigenvectors of a hermitian matrix, descending."""
    vals, vecs = np.linalg.eigh(h)
    return vals[::-1].copy(), vecs[:, ::-1].copy()


def eig_desc(h: np.ndarray) -> np.ndarray:
    h = np.asarray(h)
    if not is_hermitian(h):
        raise ValueError("matrix is not hermitian")
    return np.linalg.eigvalsh(h)[::-1].copy()


def kyfan(m: np.ndarray, w: int) -> float:
    """Sum of the ``w`` largest singular values (= eigenvalues for PSD input)."""
    m = np.asarray(m)
    if w < 1 or w > min(m.shape):
        raise ValueError(f"w={w} out of range for shape {m.shape}")
    s = np.linalg.svd(m, compute_uv=False)
    return float(s[:w].sum())


def prefix_sums(desc_vals: np.ndarray) -> np.ndarray:
    """Cumulative sums of a descending vector (Ky-Fan values of a PSD spectrum)."""
    return np.cumsum(desc_vals)


def majorizes(v, u, tol: float = ATOL) -> bool:
    """True when ``v`` majorizes ``u`` (shorter vector zero-padded)."""
    v = np.asarray(v, dtype=float)
    u = np.asarray(u, dtype=float)
    if v.min(initial=0.0) < -tol or u.min(initial=0.0) < -tol:
        raise ValueError("majorization requires nonnegative vectors")
    n = max(v.size, u.size)
    v = np.sort(np.concatenate([v, np.zeros(n - v.size)]))[::-1]
    u = np.sort(np.concatenate([u, np.zeros(n - u.size)]))[::-1]
    if abs(v.sum() - u.sum()) > max(tol, 1e-9 * max(1.0, abs(v.sum()))):
        raise ValueError("majorization requires equal totals")
    return bool(np.all(np.cumsum(v) >= np.cumsum(u) - tol))


def _spectral_amplitudes(state: DensityOperator):
    """Canonical purification amplitudes of ``state`` and its rank.

    Column k of ``amps`` (side x rank) is sqrt(lambda_k) v_k for the
    eigenvalues above ``EIG_CUTOFF`` in descending order, renormalized so the
    kept spectrum sums to 1; ``amps.reshape(-1)`` is the purification vector
    with the reference index fastest.  Costs one eigensolve of the state's side.
    """
    vals, vecs = eigh_desc(state.mat)
    vals = np.clip(vals, 0.0, None)
    rank = max(1, int(np.sum(vals > EIG_CUTOFF)))
    amps = vecs[:, :rank] * np.sqrt(vals[:rank])
    return amps / np.linalg.norm(amps), rank


def purify(state: DensityOperator) -> DensityOperator:
    """Canonical spectral purification; the reference system is appended last.

    Builds and validates the full pure state of side n*rank (n the state's
    side), so its eigen-check costs O((n*rank)^3).  The library computes the
    dual and the teleport channel from :func:`_spectral_amplitudes` instead;
    this stays the public reference for them.
    """
    amps, rank = _spectral_amplitudes(state)
    return pure(amps.reshape(-1), state.dims + (rank,))


# ---------------------------------------------------------------------------
# sampling


def haar_unitary(d: int, seed=0) -> np.ndarray:
    """Haar-distributed unitary via QR with phase-fixed diagonal."""
    g = rng(seed)
    z = (g.standard_normal((d, d)) + 1j * g.standard_normal((d, d))) / math.sqrt(2.0)
    q, r = np.linalg.qr(z)
    ph = np.diag(r).copy()
    ph = ph / np.abs(ph)
    return q * ph


def random_density(dims, rank: int | None = None, seed=0) -> DensityOperator:
    """Random density operator obtained by tracing out a Gaussian purification."""
    g = rng(seed)
    dims = tuple(int(d) for d in dims)
    side = int(np.prod(dims))
    if rank is None:
        rank = side
    m = (g.standard_normal((side, rank)) + 1j * g.standard_normal((side, rank)))
    rho = m @ m.conj().T
    rho = rho / rho.trace().real
    rho = 0.5 * (rho + rho.conj().T)
    return DensityOperator(dims, rho)


def random_pmf(n: int, seed=0) -> np.ndarray:
    g = rng(seed)
    return g.dirichlet(np.ones(n))


def random_pure(dims, seed=0) -> DensityOperator:
    g = rng(seed)
    side = int(np.prod(tuple(dims)))
    v = g.standard_normal(side) + 1j * g.standard_normal(side)
    return pure(v / np.linalg.norm(v), tuple(dims))


# ---------------------------------------------------------------------------
# structured unitaries


def shift_clock(d: int):
    """Cyclic shift X and phase Z on dimension d."""
    X = np.zeros((d, d), dtype=complex)
    for k in range(d):
        X[(k + 1) % d, k] = 1.0
    w = np.exp(2j * math.pi / d)
    Z = np.diag(w ** np.arange(d))
    return X, Z


def weyl_unitaries(d: int) -> list[np.ndarray]:
    """The d^2 shift-and-phase unitaries X^a Z^b, index j = a*d + b."""
    X, Z = shift_clock(d)
    out = []
    for a in range(d):
        Xa = np.linalg.matrix_power(X, a)
        for b in range(d):
            out.append(Xa @ np.linalg.matrix_power(Z, b))
    return out


def entangled_basis(d: int) -> list[np.ndarray]:
    """Maximally entangled orthonormal basis (W_j x I)|max_ent>, j = 0 first."""
    phi = max_entangled_vec(d)
    eye = np.eye(d)
    return [kron(W, eye) @ phi for W in weyl_unitaries(d)]


def fourier_matrix(d: int) -> np.ndarray:
    w = np.exp(2j * math.pi / d)
    j, k = np.meshgrid(np.arange(d), np.arange(d), indexing="ij")
    return w ** (j * k) / math.sqrt(d)


def embed_alice(state: DensityOperator, new_da: int) -> DensityOperator:
    """Zero-pad the first subsystem up to dimension ``new_da``."""
    if len(state.dims) < 1:
        raise ValueError("state has no subsystems")
    da = state.dims[0]
    if new_da < da:
        raise ValueError("cannot shrink a subsystem")
    if new_da == da:
        return state
    rest = int(np.prod(state.dims[1:])) if len(state.dims) > 1 else 1
    V = kron(np.eye(new_da, da, dtype=complex), np.eye(rest, dtype=complex))
    return DensityOperator((new_da,) + state.dims[1:], V @ state.mat @ V.conj().T)
