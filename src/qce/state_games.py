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

Bob's search runs on one state or on a stack of states with one evaluator
(``_reward_and_answer``), and ``reward_noadv`` is its single-state case.
Each call of the adversary's search objective pinches all of its candidate
bases as one stack and runs one batched Bob search over the pinched states;
Bob's basis for the winning move is kept from that search.  Reported win
probabilities are clamped at 1 after the searches, since rounding in the
Ky-Fan sums can leave them one ulp above.
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
    rng,
)
from .optim import OptOpts, search_isometry, search_unitary

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


@dataclass(frozen=True)
class _StateStack:
    """Bipartite states of one dims as a raw stack, mat (..., dA dB, dA dB).

    The game evaluator reads only ``dims`` and ``mat``, so it scores a stack
    as it scores one ``DensityOperator``, row by row bitwise.
    """

    dims: tuple
    mat: np.ndarray


def _conditioned_eigs(state, basis: np.ndarray) -> np.ndarray:
    """Descending eigenvalues of each <b_z| rho |b_z>, clipped at 0; shape (..., dB, dA).

    ``state`` is one state or a ``_StateStack``; the leading axes of its
    matrix broadcast against those of ``basis``, one (dB, dB) basis or a
    stack (..., dB, dB).
    """
    da, db = bipartite_dims(state)
    r4 = state.mat.reshape(state.mat.shape[:-2] + (da, db, da, db))
    ops = np.einsum("...aicj,...iz,...jz->...zac", r4, basis.conj(), basis)
    return np.clip(np.linalg.eigvalsh(ops)[..., ::-1], 0.0, None)


def reward_given_bob(state: DensityOperator, host: HostMatrix, bob_basis: np.ndarray) -> float:
    value, _ = _reward_and_answer(state, host, bob_basis)
    return float(value)


def _reward_and_answer(state, host: HostMatrix, bob_basis: np.ndarray):
    """Bob's value and his best answer z' per outcome z, for one basis or a stack of them."""
    scores = _saturated_prefixes(_conditioned_eigs(state, bob_basis), host.n_w) @ host.t  # (..., z, z')
    return scores.max(axis=-1).sum(axis=-1), scores.argmax(axis=-1)


def _structured_bob_bases(state, extra=()) -> np.ndarray:
    """Bob's structured starts per state, (..., S, dB, dB): identity, rho_B's eigenbasis, Fourier, then ``extra``."""
    da, db = bipartite_dims(state)
    lead = state.mat.shape[:-2]
    rho_b = np.einsum("...aiaj->...ij", state.mat.reshape(lead + (da, db, da, db)))
    vecs = np.linalg.eigh(rho_b)[1][..., None, :, ::-1]
    fixed = lambda m: np.broadcast_to(m, lead + (1, db, db))
    extra = np.asarray(extra, dtype=complex).reshape(lead + (-1, db, db))
    return np.concatenate([fixed(np.eye(db, dtype=complex)), vecs, fixed(fourier_matrix(db)), extra], axis=-3)


def _bob_search(state, host: HostMatrix, opts: OptOpts, extra=()):
    """Bob's searched bases and values for one state or a ``_StateStack``, as one lockstep search.

    Each state gets its own structured starts, then the shared random ones;
    ``extra`` adds starts per state, a sequence of (dB, dB) bases for one
    state or a stack (..., E, dB, dB) for a stack.  Returns (bases
    (..., dB, dB), values (...), restarts_used), values unclamped.
    """
    per_start = _StateStack(state.dims, state.mat[..., None, :, :])  # each state broadcast over its starts
    objective = lambda us: _reward_and_answer(per_start, host, us)[0]
    return search_unitary(objective, bipartite_dims(state)[1], opts, structured=_structured_bob_bases(state, extra))


def _bob_strategy(state: DensityOperator, host: HostMatrix, basis: np.ndarray) -> StateStrategy:
    return StateStrategy(basis, _reward_and_answer(state, host, basis)[1])


def reward_noadv(state: DensityOperator, host: HostMatrix, opts: OptOpts | None = None, extra_bases=()) -> RewardReport:
    """Best reward over Bob's measurement bases (exact when |B| = 1), reported no larger than 1."""
    u, value, used = _bob_search(state, host, opts or OptOpts(), extra_bases)
    return RewardReport(min(float(value), 1.0), _bob_strategy(state, host, u), restarts_used=used)


def _pinch(mat: np.ndarray, dims, bases: np.ndarray, partition) -> np.ndarray:
    """Project Alice's share of ``mat`` onto the partition blocks of each basis of a stack (..., dA, dA)."""
    da, db = dims
    eye_b = np.eye(db, dtype=complex)
    out = np.zeros(bases.shape[:-2] + mat.shape, dtype=complex)
    for block in partition:
        cols = bases[..., :, list(block)]
        p = cols @ np.swapaxes(cols.conj(), -1, -2)
        pi = (p[..., :, None, :, None] * eye_b[:, None, :]).reshape(out.shape)  # kron(p, eye_b) per basis
        out += pi @ mat @ pi
    return 0.5 * (out + np.swapaxes(out.conj(), -1, -2))


def scramble(state: DensityOperator, basis: np.ndarray, partition) -> DensityOperator:
    """Project Alice's share onto the partition blocks of a unitary basis of A."""
    da, db = bipartite_dims(state)
    basis = np.asarray(basis)
    if basis.shape != (da, da) or np.abs(basis @ basis.conj().T - np.eye(da)).max() > RECON_ATOL:
        raise ValueError("scramble basis is not a unitary on Alice's system")
    if sorted(i for block in partition for i in block) != list(range(da)):
        raise ValueError("partition must use each basis column exactly once")
    return DensityOperator(state.dims, _pinch(state.mat, (da, db), basis, partition))


def _structured_adv_bases(state: DensityOperator):
    da, db = bipartite_dims(state)
    rho_a = _trace_out(state.mat, (da, db), [1])
    _, vecs = eigh_desc(rho_a)
    return [np.eye(da, dtype=complex), vecs, vecs @ fourier_matrix(da), fourier_matrix(da)]


def _bob_after_pinching(state: DensityOperator, host: HostMatrix, opts: OptOpts, us: np.ndarray):
    """Bob's searched bases (..., dB, dB) and values (...) after a rank-one pinching of A.

    ``us`` is a stack (..., dA, dA) of the adversary's bases.  All pinched
    states are scored by one batched Bob search; each gets bitwise what
    ``reward_noadv`` gives it alone, with the adversary's conjugate basis as
    an extra structured start when |A| = |B|.
    """
    da, db = bipartite_dims(state)
    scrambled = _StateStack(state.dims, _pinch(state.mat, (da, db), us, tuple((i,) for i in range(da))))
    bases, values, _ = _bob_search(scrambled, host, opts, us.conj()[..., None, :, :] if da == db else ())
    return bases, values


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
    adversary's conjugate basis as a structured candidate when |A| = |B|,
    and runs as one batched search per objective call.  That start carries
    the phases of the adversary's columns into Bob's search, so the outer
    search probes them too (``search_isometry``, not ``search_unitary``).
    The reported ``Adversary.response`` is Bob's best response to the move,
    his basis from the search that scored it.
    """
    da, db = bipartite_dims(state)
    opts = opts or OptOpts(restarts=8, sweeps=1)
    inner_opts = inner_opts or OptOpts(restarts=4, sweeps=1)
    if da > 5:
        raise ValueError("adversarial reward supports |A| <= 5")

    free_u, free_value, _ = _bob_search(state, host, inner_opts)
    trivial = Adversary(np.eye(da, dtype=complex), (tuple(range(da)),), _bob_strategy(state, host, free_u))
    if da == 1:
        return RewardReport(min(float(free_value), 1.0), adversary=trivial)
    finest = tuple((i,) for i in range(da))
    responses = {}  # Bob's searched basis per scored adversary basis (its bytes)

    def objective(us):
        bases, values = _bob_after_pinching(state, host, inner_opts, us)
        for u, basis in zip(us.reshape(-1, da, da), bases.reshape(-1, db, db)):
            responses[u.tobytes()] = basis
        return values

    u, value, used = search_isometry(objective, da, da, opts, structured=_structured_adv_bases(state), minimize=True)
    if value < free_value - 1e-15:
        response = _bob_strategy(scramble(state, u, finest), host, responses[u.tobytes()])
        return RewardReport(min(float(value), 1.0), adversary=Adversary(u, finest, response), restarts_used=used)
    return RewardReport(min(float(free_value), 1.0), adversary=trivial, restarts_used=used)


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
