"""Gambling games on bipartite states.

One game round: the host (holding a column-stochastic table t) asks Bob for
an answer z' after Bob measures his share in a basis of his choice; the host
draws a prize rank w from column z'; Alice measures her conditioned share in
its own eigenbasis and wins if her outcome ranks within the top w.  The
optimal value for a fixed Bob basis folds into t-weighted Ky-Fan sums of the
unnormalized conditioned operators.  With probability ``p_adv`` an adversary
first measures Alice's share in a rank-one basis of its choice; a coarser
projective partition of the same basis never does better, since refining a
pinching pinches again, which cannot raise any Ky-Fan sum.  Bob learns the
chosen basis, so his strategy is re-optimized per adversary candidate inside
the minimization, and the report carries his response to the chosen move.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .classical import HostMatrix, _saturated_prefixes, fixed_w_host, random_host
from .linalg import (
    RECON_ATOL,
    DensityOperator,
    _trace_out,
    eigh_desc,
    fourier_matrix,
    kron,
    rng,
)
from .optim import OptOpts, search_unitary

REWARD_GAP = 2e-6


@dataclass(frozen=True)
class StateGameSpec:
    host: HostMatrix
    p_adv: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.p_adv <= 1.0:
            raise ValueError("p_adv must lie in [0, 1]")


@dataclass(frozen=True)
class StateStrategy:
    bob_basis: np.ndarray          # columns are Bob's measurement vectors
    answer: np.ndarray             # answer[z] = host column index z'


@dataclass(frozen=True)
class Adversary:
    basis: np.ndarray              # columns define the projective partition blocks
    partition: tuple               # tuple of tuples of basis-column indices
    response: StateStrategy        # Bob's best response to this move


@dataclass(frozen=True)
class RewardReport:
    value: float
    strategy: StateStrategy | None = None
    adversary: Adversary | None = None
    restarts_used: int = 0


def bipartite_dims(state: DensityOperator):
    if len(state.dims) == 1:
        return state.dims[0], 1
    if len(state.dims) == 2:
        return state.dims
    raise ValueError("state must have one or two subsystems")


def _conditioned_eigs(state: DensityOperator, basis: np.ndarray) -> np.ndarray:
    """Descending eigenvalues of each <b_z| rho |b_z>, clipped at 0; shape (..., dB, dA).

    ``basis`` is one (dB, dB) basis or a stack (..., dB, dB).
    """
    da, db = bipartite_dims(state)
    r4 = state.mat.reshape(da, db, da, db)
    ops = np.einsum("aicj,...iz,...jz->...zac", r4, basis.conj(), basis)
    return np.clip(np.linalg.eigvalsh(ops)[..., ::-1], 0.0, None)


def reward_given_bob(state: DensityOperator, host: HostMatrix, bob_basis: np.ndarray) -> float:
    value, _ = _reward_and_answer(state, host, bob_basis)
    return float(value)


def _reward_and_answer(state: DensityOperator, host: HostMatrix, bob_basis: np.ndarray):
    """Bob's value and his best answer z' per outcome z, for one basis or a stack of them."""
    scores = _saturated_prefixes(_conditioned_eigs(state, bob_basis), host.n_w) @ host.t  # (..., z, z')
    return scores.max(axis=-1).sum(axis=-1), scores.argmax(axis=-1)


def _structured_bob_bases(state: DensityOperator, extra=()):
    da, db = bipartite_dims(state)
    rho_b = _trace_out(state.mat, (da, db), [0])
    _, vecs = eigh_desc(rho_b)
    bases = [np.eye(db, dtype=complex), vecs, fourier_matrix(db)]
    bases.extend(extra)
    return bases


def reward_noadv(state: DensityOperator, host: HostMatrix, opts: OptOpts | None = None, extra_bases=()) -> RewardReport:
    """Best reward over Bob's measurement bases (exact when |B| = 1)."""
    da, db = bipartite_dims(state)
    if db == 1:
        basis = np.ones((1, 1), dtype=complex)
        value, answer = _reward_and_answer(state, host, basis)
        return RewardReport(float(value), StateStrategy(basis, answer), restarts_used=0)
    opts = opts or OptOpts()
    objective = lambda us: _reward_and_answer(state, host, us)[0]
    u, value, used = search_unitary(objective, db, opts, structured=_structured_bob_bases(state, extra_bases))
    _, answer = _reward_and_answer(state, host, u)
    return RewardReport(float(value), StateStrategy(u, answer), restarts_used=used)


def scramble(state: DensityOperator, basis: np.ndarray, partition) -> DensityOperator:
    """Project Alice's share onto the partition blocks of a unitary basis of A."""
    da, db = bipartite_dims(state)
    basis = np.asarray(basis)
    if basis.shape != (da, da) or np.abs(basis @ basis.conj().T - np.eye(da)).max() > RECON_ATOL:
        raise ValueError("scramble basis is not a unitary on Alice's system")
    if sorted(i for block in partition for i in block) != list(range(da)):
        raise ValueError("partition must use each basis column exactly once")
    out = np.zeros_like(state.mat)
    eye_b = np.eye(db, dtype=complex)
    for block in partition:
        cols = basis[:, list(block)]
        pi = kron(cols @ cols.conj().T, eye_b)
        out += pi @ state.mat @ pi
    out = 0.5 * (out + out.conj().T)
    return DensityOperator(state.dims, out)


def _structured_adv_bases(state: DensityOperator):
    da, db = bipartite_dims(state)
    rho_a = _trace_out(state.mat, (da, db), [1])
    _, vecs = eigh_desc(rho_a)
    return [np.eye(da, dtype=complex), vecs, vecs @ fourier_matrix(da), fourier_matrix(da)]


def reward_adv(
    state: DensityOperator,
    host: HostMatrix,
    opts: OptOpts | None = None,
    inner_opts: OptOpts | None = None,
) -> RewardReport:
    """Adversarial reward: minimize Bob's re-optimized value over dephasings of A.

    The adversary measures Alice's share in a searched basis (the partition
    into singletons) or leaves it alone (the trivial partition), whichever
    leaves Bob less; coarser partitions of a basis are dominated by its
    singletons and are not searched.  Bob's inner maximization sees the
    adversary's conjugate basis as a structured candidate when |A| = |B|.
    The reported ``Adversary.response`` is Bob's best response to the move.
    """
    da, db = bipartite_dims(state)
    opts = opts or OptOpts(restarts=8, sweeps=1)
    inner_opts = inner_opts or OptOpts(restarts=4, sweeps=1)
    if da > 5:
        raise ValueError("adversarial reward supports |A| <= 5")

    free = reward_noadv(state, host, inner_opts)
    trivial = Adversary(np.eye(da, dtype=complex), (tuple(range(da)),), free.strategy)
    if da == 1:
        return RewardReport(free.value, adversary=trivial)
    finest = tuple((i,) for i in range(da))

    def bob(u):
        return reward_noadv(scramble(state, u, finest), host, inner_opts, extra_bases=(u.conj(),) if da == db else ())

    objective = lambda us: np.array([bob(u).value for u in us])
    u, value, used = search_unitary(objective, da, opts, structured=_structured_adv_bases(state), minimize=True)
    if value < free.value - 1e-15:
        return RewardReport(float(value), adversary=Adversary(u, finest, bob(u).strategy), restarts_used=used)
    return RewardReport(free.value, adversary=trivial, restarts_used=used)


def reward(
    state: DensityOperator,
    game: StateGameSpec,
    opts: OptOpts | None = None,
    inner_opts: OptOpts | None = None,
) -> RewardReport:
    """Convex split p_adv * adversarial + (1 - p_adv) * unhindered."""
    p = game.p_adv
    if p == 0.0:
        return reward_noadv(state, game.host, opts)
    adv = reward_adv(state, game.host, opts, inner_opts)
    if p == 1.0:
        return adv
    free = reward_noadv(state, game.host, opts)
    return RewardReport(
        p * adv.value + (1.0 - p) * free.value,
        strategy=free.strategy,
        adversary=adv.adversary,
        restarts_used=adv.restarts_used + free.restarts_used,
    )


@dataclass(frozen=True)
class ComparisonVerdict:
    consistent: bool
    witness_game: StateGameSpec | None
    reward_first: float
    reward_second: float
    games_checked: int


def compare_states(
    first: DensityOperator,
    second: DensityOperator,
    n_games: int = 20,
    seed: int = 0,
    opts: OptOpts | None = None,
    inner_opts: OptOpts | None = None,
) -> ComparisonVerdict:
    """Falsification-only check that ``second`` never beats ``first``.

    Samples fixed-w hosts first, then random (host, p_adv in {0,1}) games;
    reports the first witness where second's reward exceeds first's by more
    than ``REWARD_GAP``.
    """
    da1, db1 = bipartite_dims(first)
    da2, db2 = bipartite_dims(second)
    if da1 != da2:
        raise ValueError("states must share Alice's dimension")
    g = rng(seed)
    n_z = max(db1, db2, 1)
    games = [StateGameSpec(fixed_w_host(w, da1, n_z), 0.0) for w in range(1, da1 + 1)]
    while len(games) < n_games:
        host = random_host(int(g.integers(1, da1 + 1)), n_z, seed=g)
        games.append(StateGameSpec(host, float(g.integers(0, 2))))
    games = games[:n_games]
    last_f, last_s = 0.0, 0.0
    for game in games:
        r_first = reward(first, game, opts, inner_opts).value
        r_second = reward(second, game, opts, inner_opts).value
        last_f, last_s = r_first, r_second
        if r_second > r_first + REWARD_GAP:
            return ComparisonVerdict(False, game, r_first, r_second, len(games))
    return ComparisonVerdict(True, None, last_f, last_s, len(games))
