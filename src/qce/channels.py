"""Quantum channels in Kraus form, Choi conversions, and a zoo of named channels.

The Choi operator convention is unnormalized: for a channel N with input
dimension n, ``choi(N) = sum_ij |i><j| (x) N(|i><j|)`` with trace n.  The
input copy is the slower tensor factor, the output the faster one.

Channels are checked once, where outside numbers enter: :func:`channel`,
:func:`from_choi`, the named constructors that take raw matrices or weights,
and the ``qce.serialize`` decoders; :class:`QuantumChannel` records are what
the library passes around, built with no K+K sum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import (
    ATOL,
    RECON_ATOL,
    DensityOperator,
    _as_complex,
    dagger,
    eigh_desc,
    is_hermitian,
    kron,
    ket,
    maximally_mixed,
    proj,
    rng,
    weyl_unitaries,
)

CHOI_TP_ATOL = 1e-7
CHOI_PSD_ATOL = 1e-8
KRAUS_CUTOFF = 1e-10


@dataclass(frozen=True, eq=False)
class QuantumChannel:
    """CPTP map as Kraus operators with in/out dims; building one checks only its form."""

    in_dims: tuple
    out_dims: tuple
    kraus: tuple

    def __post_init__(self):
        in_dims = tuple(int(d) for d in self.in_dims)
        out_dims = tuple(int(d) for d in self.out_dims)
        din = int(np.prod(in_dims))
        dout = int(np.prod(out_dims))
        ks = tuple(_as_complex(k) for k in self.kraus)
        if not ks:
            raise ValueError("channel needs at least one Kraus operator")
        for k in ks:
            if k.shape != (dout, din):
                raise ValueError(f"Kraus shape {k.shape} does not match ({dout},{din})")
        object.__setattr__(self, "in_dims", in_dims)
        object.__setattr__(self, "out_dims", out_dims)
        object.__setattr__(self, "kraus", ks)

    @property
    def din(self) -> int:
        return int(np.prod(self.in_dims))

    @property
    def dout(self) -> int:
        return int(np.prod(self.out_dims))


def channel(kraus, in_dims, out_dims) -> QuantumChannel:
    """The checked entry for a Kraus list: sum K+K = I within ``CHOI_PSD_ATOL``."""
    ch = QuantumChannel(tuple(in_dims), tuple(out_dims), tuple(kraus))
    s = sum(dagger(k) @ k for k in ch.kraus)
    if np.abs(s - np.eye(ch.din)).max() > CHOI_PSD_ATOL:
        raise ValueError("Kraus operators are not trace preserving")
    return ch


def identity_channel(dims) -> QuantumChannel:
    dims = tuple(int(d) for d in dims)
    side = int(np.prod(dims))
    return QuantumChannel(dims, dims, (np.eye(side, dtype=complex),))


def unitary_channel(u, dims=None) -> QuantumChannel:
    u = _as_complex(u)
    n = u.shape[0]
    if np.abs(u @ dagger(u) - np.eye(n)).max() > RECON_ATOL:
        raise ValueError("matrix is not unitary")
    dims = tuple(dims) if dims is not None else (n,)
    return QuantumChannel(dims, dims, (u,))


def apply_mat(ch: QuantumChannel, mat: np.ndarray) -> np.ndarray:
    mat = np.asarray(mat, dtype=complex)
    if mat.shape != (ch.din, ch.din):
        raise ValueError(f"operator side {mat.shape} does not match channel input {ch.din}")
    out = np.zeros((ch.dout, ch.dout), dtype=complex)
    for k in ch.kraus:
        out += k @ mat @ dagger(k)
    return out


def apply(ch: QuantumChannel, state: DensityOperator) -> DensityOperator:
    if state.side != ch.din:
        raise ValueError("state dimension does not match channel input")
    out = apply_mat(ch, state.mat)
    out = 0.5 * (out + out.conj().T)
    return DensityOperator(ch.out_dims, out)


def choi(ch: QuantumChannel) -> np.ndarray:
    """Unnormalized Choi operator; index order (input copy, output)."""
    j = np.zeros((ch.din * ch.dout, ch.din * ch.dout), dtype=complex)
    for k in ch.kraus:
        v = k.T.reshape(-1)  # v[(i_in, i_out)] = K[i_out, i_in]
        j += np.outer(v, v.conj())
    return j


def from_choi(j, in_dims, out_dims) -> QuantumChannel:
    """Recover a Kraus representation from an unnormalized Choi operator.

    Eigenvalues below ``KRAUS_CUTOFF`` are dropped; the Kraus set is then
    renormalized to be exactly trace preserving (the marginal must already
    be the identity within ``CHOI_TP_ATOL``).
    """
    j = _as_complex(j)
    in_dims = tuple(int(d) for d in in_dims)
    out_dims = tuple(int(d) for d in out_dims)
    din = int(np.prod(in_dims))
    dout = int(np.prod(out_dims))
    if j.shape != (din * dout, din * dout):
        raise ValueError("Choi side does not match dims")
    if not is_hermitian(j, CHOI_PSD_ATOL):
        raise ValueError("Choi operator is not hermitian")
    j = 0.5 * (j + j.conj().T)
    vals, vecs = eigh_desc(j)
    if vals[-1] < -CHOI_PSD_ATOL:
        raise ValueError("not completely positive: Choi operator has a negative eigenvalue")
    marg = np.einsum(j.reshape(din, dout, din, dout), [0, 1, 2, 1], [0, 2])
    if np.abs(marg - np.eye(din)).max() > CHOI_TP_ATOL:
        raise ValueError("not trace preserving: Choi input marginal is not the identity")
    ks = []
    for lam, v in zip(vals, vecs.T):
        if lam <= KRAUS_CUTOFF:
            break
        ks.append(np.sqrt(lam) * v.reshape(din, dout).T)
    s = sum(dagger(k) @ k for k in ks)
    svals, svecs = np.linalg.eigh(s)
    inv_sqrt = svecs @ np.diag(1.0 / np.sqrt(np.clip(svals, 1e-14, None))) @ dagger(svecs)
    ks = [k @ inv_sqrt for k in ks]
    return QuantumChannel(in_dims, out_dims, tuple(ks))


def compose(outer: QuantumChannel, inner: QuantumChannel) -> QuantumChannel:
    if inner.dout != outer.din:
        raise ValueError("channel dimensions do not chain")
    ks = tuple(ko @ ki for ko in outer.kraus for ki in inner.kraus)
    return QuantumChannel(inner.in_dims, outer.out_dims, ks)


def tensor(a: QuantumChannel, b: QuantumChannel) -> QuantumChannel:
    ks = tuple(kron(ka, kb) for ka in a.kraus for kb in b.kraus)
    return QuantumChannel(a.in_dims + b.in_dims, a.out_dims + b.out_dims, ks)


def compress(ch: QuantumChannel) -> QuantumChannel:
    """Shrink the Kraus set via a Choi round trip (rank <= din*dout)."""
    return from_choi(choi(ch), ch.in_dims, ch.out_dims)


def random_channel(in_dim: int, out_dim: int, kraus_rank: int | None = None, seed=0) -> QuantumChannel:
    """Random CPTP map from a Haar-like isometry into output x environment."""
    g = rng(seed)
    if kraus_rank is None:
        kraus_rank = in_dim * out_dim
    rows = out_dim * kraus_rank
    if rows < in_dim:
        raise ValueError("kraus_rank too small to accommodate an isometry")
    z = g.standard_normal((rows, in_dim)) + 1j * g.standard_normal((rows, in_dim))
    v, _ = np.linalg.qr(z)
    blocks = v.reshape(out_dim, kraus_rank, in_dim)
    ks = tuple(blocks[:, e, :] for e in range(kraus_rank))
    return QuantumChannel((in_dim,), (out_dim,), ks)


# ---------------------------------------------------------------------------
# named single-system channels


def classical_identity(d: int = 2) -> QuantumChannel:
    """Full dephasing in the computational basis."""
    ks = tuple(proj(ket(j, d)) for j in range(d))
    return QuantumChannel((d,), (d,), ks)


def depolarizing(gamma: float, d: int = 2) -> QuantumChannel:
    """rho -> (1-gamma) rho + gamma * I/d."""
    if not 0.0 <= gamma <= 1.0:
        raise ValueError("gamma must lie in [0, 1]")
    ws = weyl_unitaries(d)
    c0 = 1.0 - gamma + gamma / d**2
    ks = [np.sqrt(c0) * ws[0]]
    for w in ws[1:]:
        ks.append(np.sqrt(gamma / d**2) * w)
    return QuantumChannel((d,), (d,), tuple(ks))


def povm_channel(elements) -> QuantumChannel:
    """Measure the POVM and write the outcome into the computational basis."""
    elements = [_as_complex(e) for e in elements]
    d = elements[0].shape[0]
    total = sum(elements)
    if np.abs(total - np.eye(d)).max() > CHOI_PSD_ATOL:
        raise ValueError("POVM elements do not sum to the identity")
    ks = []
    for j, e in enumerate(elements):
        if not is_hermitian(e, ATOL):
            raise ValueError("POVM element is not hermitian")
        vals, vecs = np.linalg.eigh(e)
        if vals.min() < -ATOL:
            raise ValueError("POVM element is not positive semidefinite")
        for lam, v in zip(vals, vecs.T):
            if lam > KRAUS_CUTOFF:
                ks.append(np.sqrt(lam) * np.outer(ket(j, len(elements)), v.conj()))
    return QuantumChannel((d,), (len(elements),), tuple(ks))


def amplitude_damping(gamma: float) -> QuantumChannel:
    if not 0.0 <= gamma <= 1.0:
        raise ValueError("gamma must lie in [0, 1]")
    k0 = np.array([[1.0, 0.0], [0.0, np.sqrt(1.0 - gamma)]], dtype=complex)
    k1 = np.array([[0.0, np.sqrt(gamma)], [0.0, 0.0]], dtype=complex)
    return QuantumChannel((2,), (2,), (k0, k1))


def replacement(sigma: DensityOperator, in_dim: int | None = None) -> QuantumChannel:
    """Discard the input and prepare ``sigma``."""
    if in_dim is None:
        in_dim = sigma.side
    vals, vecs = eigh_desc(sigma.mat)
    ks = []
    for lam, v in zip(vals, vecs.T):
        if lam > KRAUS_CUTOFF:
            for i in range(in_dim):
                ks.append(np.sqrt(lam) * np.outer(v, ket(i, in_dim).conj()))
    return QuantumChannel((in_dim,), sigma.dims, tuple(ks))


def dephasing(gamma: float, d: int = 2) -> QuantumChannel:
    """rho -> (1-gamma) rho + gamma * diag(rho)."""
    if not 0.0 <= gamma <= 1.0:
        raise ValueError("gamma must lie in [0, 1]")
    ks = [np.sqrt(1.0 - gamma) * np.eye(d, dtype=complex)]
    for j in range(d):
        ks.append(np.sqrt(gamma) * proj(ket(j, d)))
    return QuantumChannel((d,), (d,), tuple(ks))


def randomizing(d: int = 2) -> QuantumChannel:
    """Replace the input with the maximally mixed state."""
    return replacement(maximally_mixed((d,)), in_dim=d)


def make(kind: str, **params) -> QuantumChannel:
    """Dispatch constructor for the named channel zoo."""
    kinds = {
        "unitary": lambda: unitary_channel(params["u"], params.get("dims")),
        "classical_identity": lambda: classical_identity(params.get("d", 2)),
        "depolarizing": lambda: depolarizing(params["gamma"], params.get("d", 2)),
        "povm": lambda: povm_channel(params["elements"]),
        "amplitude_damping": lambda: amplitude_damping(params["gamma"]),
        "replacement": lambda: replacement(params["sigma"], params.get("in_dim")),
        "dephasing": lambda: dephasing(params["gamma"], params.get("d", 2)),
        "randomizing": lambda: randomizing(params.get("d", 2)),
    }
    if kind not in kinds:
        raise ValueError(f"unknown channel kind {kind!r}")
    return kinds[kind]()
