"""Round-by-round Monte Carlo check of game values.

Rounds are sampled from the exact outcome distributions (Born rule on the
conditioned operators), so the empirical win rate of a fixed strategy
estimates the analytic reward.  Sampling order is fixed and every result is
bitwise reproducible from its seed.  Wins use the inclusive rule: Alice's
outcome rank y pays out when y <= w.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import channels as qc
from .channel_games import ChannelGameSpec
from .linalg import DensityOperator, rng
from .state_games import Adversary, StateGameSpec, StateStrategy, bipartite_dims, scramble


@dataclass(frozen=True)
class SimResult:
    wins: int
    rounds: int
    win_rate: float
    std_err: float
    seed: int


def _result(wins: int, rounds: int, seed: int) -> SimResult:
    rate = wins / rounds
    err = float(np.sqrt(rate * (1.0 - rate) / rounds))
    return SimResult(int(wins), int(rounds), float(rate), err, int(seed))


def _sample_categorical(g: np.random.Generator, probs: np.ndarray, size: int) -> np.ndarray:
    c = np.cumsum(probs)
    c[-1] = max(c[-1], 1.0)
    return np.searchsorted(c, g.random(size), side="right")


def _joint_outcome_table(state: DensityOperator, basis: np.ndarray) -> np.ndarray:
    """P(z, y): Bob outcome z and Alice rank y (eigenvalues of the conditioned ops)."""
    da, db = bipartite_dims(state)
    r4 = state.mat.reshape(da, db, da, db)
    ops = np.einsum("aicj,iz,jz->zac", r4, basis.conj(), basis)
    lam = np.linalg.eigvalsh(ops)[:, ::-1]
    lam = np.clip(lam, 0.0, None)
    return lam / lam.sum()


def _play_rounds(g, table: np.ndarray, answer: np.ndarray, t: np.ndarray, n: int) -> int:
    """Sample n rounds from the (z, y) table, then w from t given z' = answer[z]."""
    if n == 0:
        return 0
    db, da = table.shape
    flat = _sample_categorical(g, table.reshape(-1), n)
    z = flat // da
    y = flat % da  # 0-based rank
    zp = np.asarray(answer)[z]
    w = np.empty(n, dtype=int)
    for col in np.unique(zp):
        mask = zp == col
        w[mask] = _sample_categorical(g, t[:, col], int(mask.sum()))
    return int((y <= w).sum())


def simulate_state_game(
    state: DensityOperator,
    game: StateGameSpec,
    strategy: StateStrategy,
    adversary: Adversary | None = None,
    rounds: int = 10**5,
    seed: int = 0,
) -> SimResult:
    if rounds < 1:
        raise ValueError("rounds must be positive")
    if game.p_adv > 0.0 and adversary is None:
        raise ValueError("game has p_adv > 0 but no adversary was given")
    g = rng(seed)
    t = game.host.t
    adv_mask = g.random(rounds) < game.p_adv if game.p_adv > 0.0 else np.zeros(rounds, dtype=bool)
    n_adv = int(adv_mask.sum())
    wins = 0
    plain_table = _joint_outcome_table(state, strategy.bob_basis)
    wins += _play_rounds(g, plain_table, strategy.answer, t, rounds - n_adv)
    if n_adv:
        scrambled = scramble(state, adversary.basis, adversary.partition)
        adv_table = _joint_outcome_table(scrambled, strategy.bob_basis)
        wins += _play_rounds(g, adv_table, strategy.answer, t, n_adv)
    return _result(wins, rounds, seed)


def simulate_channel_game(
    n: qc.QuantumChannel,
    e: qc.QuantumChannel,
    game: ChannelGameSpec,
    rounds: int = 10**5,
    seed: int = 0,
) -> SimResult:
    if rounds < 1:
        raise ValueError("rounds must be positive")
    g = rng(seed)
    da, db = bipartite_dims(game.entries[0][1])
    full = qc.compose(n, e)
    if db > 1:
        full = qc.tensor(full, qc.identity_channel((db,)))
    spectra = {}
    for x, (_, state) in enumerate(game.entries):
        key = id(state)
        if key not in spectra:
            lam = np.linalg.eigvalsh(qc.apply_mat(full, state.mat))[::-1]
            lam = np.clip(lam, 0.0, None)
            spectra[key] = lam / lam.sum()
    ps = np.array([p for p, _ in game.entries])
    xs = _sample_categorical(g, ps, rounds)
    wins = 0
    for x in np.unique(xs):
        mask = xs == x
        lam = spectra[id(game.entries[x][1])]
        y = _sample_categorical(g, lam, int(mask.sum()))
        wins += int((y <= x).sum())  # rank y+1 within top x+1
    return _result(wins, rounds, seed)
