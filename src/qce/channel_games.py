"""Gambling games on channels.

A channel game is a tuple of weighted input states (p_x, rho_x) on (A, B).
The player prepends a preprocessing channel E on A; the host draws x, sends
A through N o E, and pays out according to the top-x mass of the output,
so the fixed-strategy value is  sum_x p_x * KyFan_x((N o E (x) id_B) rho_x)
with x clipped at the output dimension.  A game groups its equal states once;
one evaluator scores superoperator stacks: a fixed preprocessing, the
structured candidates (identity, replacements derived from the Choi
eigenvectors, the computational basis and the top eigenvector of each
Kraus operator's K+K, measure-and-prepare in the computational and Fourier
bases), the search over Stinespring isometries A -> in x env (shared Givens
parametrization), and ``mc_sim``'s replays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import channels as qc
from .cusc import unitary_sending_zero_to
from .linalg import (
    DensityOperator,
    _trace_out,
    eigh_desc,
    fourier_matrix,
    ket,
    max_entangled,
    probability_vector,
    pure,
    random_density,
    rng,
    shift_clock,
)
from .optim import OptOpts, search_isometry, search_unitary
from .state_games import REWARD_GAP, bipartite_dims

FIXED_EVAL_ATOL = 1e-9


@dataclass(frozen=True, eq=False)
class ChannelGameSpec:
    entries: tuple  # ((p_x, DensityOperator), ...), x is the 1-based position
    states: tuple = field(init=False, repr=False)  # distinct states (equal mat), in order of first occurrence
    state_index: tuple = field(init=False, repr=False)  # group of each entry in ``states``

    def __post_init__(self):
        entries = tuple((float(p), s) for p, s in self.entries)
        if not entries:
            raise ValueError("game needs at least one entry")
        probability_vector([p for p, _ in entries])
        states, index = [], []
        for _, s in entries:
            if s.dims != entries[0][1].dims:
                raise ValueError("all game states must share their dims")
            i = next((i for i, t in enumerate(states) if np.array_equal(s.mat, t.mat)), len(states))
            if i == len(states):
                states.append(s)
            index.append(i)
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "states", tuple(states))
        object.__setattr__(self, "state_index", tuple(index))

    @property
    def state_dims(self):
        return self.entries[0][1].dims


@dataclass(frozen=True)
class ChannelRewardReport:
    value: float
    preprocessing: qc.QuantumChannel | None = None
    restarts_used: int = 0


@dataclass(frozen=True)
class ChannelOpts(OptOpts):
    kraus_rank: int | None = None  # environment dimension; default |A|^2


def bell_game(p) -> ChannelGameSpec:
    phi = max_entangled(2)
    return ChannelGameSpec(tuple((float(px), phi) for px in p))


def zero_game(p) -> ChannelGameSpec:
    z = pure(ket(0, 2), (2,))
    return ChannelGameSpec(tuple((float(px), z) for px in p))


def _choi_input_candidates(n: qc.QuantumChannel) -> list[np.ndarray]:
    """Input-side pure states suggested by the channel's Choi eigenvectors."""
    j = qc.choi(n)
    vals, vecs = eigh_desc(j)
    out = []
    for lam, v in zip(vals, vecs.T):
        if lam < 0.1 * max(vals[0], 1e-12):
            break
        marg = _trace_out(np.outer(v, v.conj()), [n.din, n.dout], [1])
        _, mv = eigh_desc(marg)
        out.append(mv[:, 0].conj())
    return out


def _structured_candidates(n: qc.QuantumChannel, da: int, extra=()):
    din = n.din
    cands = []
    if da == din:
        cands.append(qc.identity_channel((din,)))
        comp = np.eye(din, dtype=complex)
        four = fourier_matrix(din)
        for basis in (comp, four):
            ks = tuple(np.outer(basis[:, k], basis[:, k].conj()) for k in range(din))
            cands.append(qc.QuantumChannel((din,), (din,), ks))
    for k in range(din):
        cands.append(qc.replacement(pure(ket(k, din), (din,)), in_dim=da))
    for v in _choi_input_candidates(n):
        cands.append(qc.replacement(pure(v, (din,)), in_dim=da))
    for k in n.kraus:  # the input each Kraus operator passes best: a projective POVM's own basis vectors
        cands.append(qc.replacement(pure(eigh_desc(k.conj().T @ k)[1][:, 0], (din,)), in_dim=da))
    cands.extend(extra)
    return cands


def _superop(kraus) -> np.ndarray:
    """Matrix of rho -> sum_k K rho K+ on row-major vectorized operators.

    Each term is kron(K, K*) as one broadcast product, summed over the Kraus
    axis from 0 in Kraus order, as a Python sum of the krons would.
    """
    k = np.asarray(kraus)
    terms = k[:, :, None, :, None] * k.conj()[:, None, :, None, :]
    return sum(terms.reshape(len(k), k.shape[1] ** 2, k.shape[2] ** 2))


class _GameEvaluator:
    """The one evaluator of channel-game values, built from (n, game).

    Holds the channel's superoperator and, per distinct game state, its
    reshaped matrix and the weights on its output's Ky-Fan prefixes.  A stack
    of R preprocessing superoperators (R, din^2, da^2) costs two stacked
    matmuls and one stacked eigvalsh per distinct state; each row scores
    bitwise as it would alone.
    """

    def __init__(self, n: qc.QuantumChannel, game: ChannelGameSpec):
        da, db = bipartite_dims(game.states[0])
        self.din, self.dout, self.da, self.db = n.din, n.dout, da, db
        self.sn = _superop(n.kraus)
        side_out = n.dout * db
        self.mats: list[np.ndarray] = []
        for state in game.states:
            m = state.mat.reshape(da, db, da, db).transpose(0, 2, 1, 3)
            self.mats.append(np.ascontiguousarray(m.reshape(da * da, db * db)))
        self.coeffs = [np.zeros(side_out) for _ in game.states]
        for x, ((px, _), i) in enumerate(zip(game.entries, game.state_index), start=1):
            self.coeffs[i][min(x, side_out) - 1] += px

    def superop(self, e: qc.QuantumChannel) -> np.ndarray:
        """Superoperator of a Kraus preprocessing A -> channel input."""
        if e.din != self.da or e.dout != self.din:
            raise ValueError("preprocessing dims do not bridge the game and the channel")
        return _superop(e.kraus)

    def spectra(self, se: np.ndarray) -> list[np.ndarray]:
        """Descending output spectra clipped at 0, one (R, dout * db) array per distinct state."""
        s = self.sn @ se
        dout, db = self.dout, self.db
        out = []
        for m in self.mats:
            o = (s @ m).reshape(-1, dout, dout, db, db).transpose(0, 1, 3, 2, 4)
            lam = np.linalg.eigvalsh(o.reshape(-1, dout * db, dout * db))[:, ::-1]
            out.append(np.clip(lam, 0.0, None))
        return out

    def values(self, se: np.ndarray) -> np.ndarray:
        """Game values of a stack of preprocessing superoperators, shape (R, din^2, da^2) -> (R,)."""
        total = np.zeros(len(se))
        for lam, coeff in zip(self.spectra(se), self.coeffs):
            pref = np.cumsum(lam, axis=-1)
            total += (pref[:, None, :] @ coeff[:, None])[:, 0, 0]  # a 1-D dot per row, summed as coeff @ pref
        return total

    def __call__(self, vs: np.ndarray) -> np.ndarray:
        """Game values of a stack of isometries, shape (..., din * env, da) -> (...)."""
        blocks = vs.reshape(-1, self.din, vs.shape[-2] // self.din, self.da)
        se = np.einsum("riea,rjeb->rijab", blocks, blocks.conj()).reshape(-1, self.din ** 2, self.da ** 2)
        return self.values(se).reshape(vs.shape[:-2])

    def channel(self, v: np.ndarray) -> qc.QuantumChannel:
        ks = tuple(v.reshape(self.din, -1, self.da).transpose(1, 0, 2))
        return qc.QuantumChannel((self.da,), (self.din,), ks)


def channel_reward_fixed(n: qc.QuantumChannel, e: qc.QuantumChannel, game: ChannelGameSpec) -> float:
    """Game value for a fixed preprocessing channel: one row of the game evaluator."""
    ev = _GameEvaluator(n, game)
    return float(ev.values(ev.superop(e)[None])[0])


def channel_reward(
    n: qc.QuantumChannel,
    game: ChannelGameSpec,
    opts: ChannelOpts | None = None,
    extra_candidates=(),
) -> ChannelRewardReport:
    """Best game value over preprocessing channels: the structured ones as one stack, then the search.

    The reported value is clamped at 1, a win probability's bound, after the
    search; rounding in the Ky-Fan sums can put it one ulp above.
    """
    opts = opts or ChannelOpts()
    ev = _GameEvaluator(n, game)
    cands = _structured_candidates(n, ev.da, extra_candidates)
    best_val, best_e = -math.inf, None
    for cand, val in zip(cands, ev.values(np.stack([ev.superop(c) for c in cands]))):
        if val > best_val + 1e-15:
            best_val, best_e = val, cand

    env = opts.kraus_rank if opts.kraus_rank is not None else ev.da * ev.da
    v, val, used = search_isometry(ev, n.din * env, ev.da, opts)
    if val > best_val + 1e-15:
        best_val, best_e = val, ev.channel(v)
    return ChannelRewardReport(min(float(best_val), 1.0), best_e, restarts_used=used)


# ---------------------------------------------------------------------------
# analytic values for the named qubit zoo

AMP_DAMP_TABLE_NOTE = (
    "amplitude damping, max-entangled game: the optimum follows the half-damped"
    " pair spectrum (1 - gamma/2, gamma/2), giving 1 - p1*gamma/2; the variant"
    " (1 - gamma/2)*p1 + gamma/2 sometimes quoted for this cell disagrees for"
    " p1 < 1 and is treated as erratum-suspect, flagged rather than matched"
)


def analytic_reward(kind: str, game_kind: str, p, gamma: float | None = None, sigma: DensityOperator | None = None) -> float:
    """Closed-form optimum for the named qubit channels on the two reference games."""
    p = probability_vector(p, "p")
    if game_kind not in ("bell", "zero"):
        raise ValueError("game_kind must be 'bell' or 'zero'")
    p1 = p[0]
    if kind == "unitary":
        return 1.0
    if kind == "classical_identity":
        return 1.0 - p1 / 2.0 if game_kind == "bell" else 1.0
    if kind == "depolarizing":
        if game_kind == "bell":
            xs = np.arange(1, p.size + 1)
            return (1.0 - gamma) + gamma * float((xs * p).sum()) / 4.0
        return 1.0 - gamma * p1 / 2.0
    if kind == "povm":
        return 1.0 - p1 / 2.0 if game_kind == "bell" else 1.0
    if kind == "amplitude_damping":
        return 1.0 - p1 * gamma / 2.0 if game_kind == "bell" else 1.0
    if kind == "replacement":
        lam = eigh_desc(sigma.mat)[0]
        spec = np.sort(np.concatenate([lam / 2.0, lam / 2.0]))[::-1] if game_kind == "bell" else lam
        pref = np.cumsum(spec)  # Ky-Fan sums of the output spectrum
        return float(sum(px * float(pref[min(x, pref.size) - 1]) for x, px in enumerate(p, start=1)))
    if kind == "dephasing":
        return 1.0 - gamma * p1 / 2.0 if game_kind == "bell" else 1.0
    raise ValueError(f"no analytic value for kind {kind!r}")


# ---------------------------------------------------------------------------
# degradation and comparison


def degrade(n: qc.QuantumChannel, parts) -> qc.QuantumChannel:
    """Random pre/post processing sum_z p_z V_z o N o E_z (V_z isometry channels)."""
    probability_vector([p for p, _, _ in parts], "part weights")
    in_dims = parts[0][2].in_dims
    out_dims = parts[0][1].out_dims
    ks = []
    for p, v, e in parts:
        if len(v.kraus) != 1:
            raise ValueError("post-processing parts must be isometry channels")
        if e.in_dims != in_dims or v.out_dims != out_dims:
            raise ValueError("all parts must share input and output dims")
        if e.dout != n.din or v.din != n.dout:
            raise ValueError("part dims do not bridge the channel")
        for kn in n.kraus:
            for ke in e.kraus:
                ks.append(np.sqrt(p) * (v.kraus[0] @ kn @ ke))
    return qc.QuantumChannel(in_dims, out_dims, tuple(ks))


@dataclass(frozen=True)
class ChannelComparisonVerdict:
    consistent: bool
    witness_game: ChannelGameSpec | None
    reward_first: float
    reward_second: float
    games_checked: int


def spectrum_probe_games(x_max: int, da: int) -> list[ChannelGameSpec]:
    """Deterministic games whose values are Ky-Fan prefixes of the output spectrum."""
    z = pure(ket(0, da), (da,))
    games = []
    for w in range(1, x_max + 1):
        p = np.zeros(w)
        p[w - 1] = 1.0
        games.append(ChannelGameSpec(tuple((float(px), z) for px in p)))
    return games


def compare_channels(
    first: qc.QuantumChannel,
    second: qc.QuantumChannel,
    n_games: int = 20,
    seed: int = 0,
    opts: ChannelOpts | None = None,
    extra_first=(),
    extra_second=(),
    hints_for_first=None,
) -> ChannelComparisonVerdict:
    """Falsification-only check that ``second`` never beats ``first``.

    Game dimensions follow the comparison rule: |A|, |B| up to the larger
    input dimension, |X| up to that bound times the smaller output dimension.
    ``hints_for_first`` may map second's best preprocessing to candidate
    preprocessings for first (used to stabilize degradation comparisons).
    """
    opts = opts or ChannelOpts(restarts=4, sweeps=1)
    g = rng(seed)
    d_in_max = max(first.din, second.din)
    x_max = d_in_max * min(first.dout, second.dout)
    games = spectrum_probe_games(x_max, d_in_max)
    while len(games) < n_games:
        da = int(g.integers(1, d_in_max + 1))
        db = int(g.integers(1, d_in_max + 1))
        n_x = int(g.integers(1, x_max + 1))
        p = g.dirichlet(np.ones(n_x))
        state = random_density((da, db) if db > 1 else (da,), seed=g)
        games.append(ChannelGameSpec(tuple((float(px), state) for px in p)))
    games = games[:n_games]
    last_f = last_s = 0.0
    for game in games:
        rep_second = channel_reward(second, game, opts, extra_candidates=extra_second)
        hints = list(extra_first)
        if hints_for_first is not None and rep_second.preprocessing is not None:
            hints.extend(hints_for_first(rep_second.preprocessing))
        rep_first = channel_reward(first, game, opts, extra_candidates=hints)
        last_f, last_s = rep_first.value, rep_second.value
        if rep_second.value > rep_first.value + REWARD_GAP:
            return ChannelComparisonVerdict(False, game, rep_first.value, rep_second.value, len(games))
    return ChannelComparisonVerdict(True, None, last_f, last_s, len(games))


# ---------------------------------------------------------------------------
# output purity


@dataclass(frozen=True)
class PurityReport:
    value: float
    best_input: DensityOperator
    restarts_used: int = 0


def output_purity(n: qc.QuantumChannel, state: DensityOperator) -> float:
    out = qc.apply_mat(n, state.mat)
    return float(np.trace(out @ out).real)


def max_output_purity(n: qc.QuantumChannel, opts: OptOpts | None = None, extra_inputs=()) -> PurityReport:
    """Maximize Tr[N(psi)^2] over pure inputs (convexity makes pure inputs enough)."""
    opts = opts or OptOpts(restarts=8, sweeps=2)
    din = n.din
    x, _ = shift_clock(din)
    structured = [np.linalg.matrix_power(x, k).astype(complex) for k in range(din)]
    structured.append(fourier_matrix(din))
    for s in extra_inputs:
        _, vecs = eigh_desc(s.mat)
        for k in range(vecs.shape[1]):
            structured.append(unitary_sending_zero_to(vecs[:, k]))

    def objective(us):
        values = [output_purity(n, pure(u[:, 0] / np.linalg.norm(u[:, 0]), (din,))) for u in us.reshape(-1, din, din)]
        return np.reshape(values, us.shape[:-2])

    u, val, used = search_unitary(objective, din, opts, structured=structured)
    best = pure(u[:, 0] / np.linalg.norm(u[:, 0]), (din,))
    return PurityReport(float(val), best, used)


@dataclass(frozen=True)
class PurityGame:
    game: ChannelGameSpec
    alpha: float


def purity_game(m: qc.QuantumChannel, rho_star: DensityOperator) -> PurityGame:
    """Game whose optimal value is alpha * Tr[M(rho*)^2] when rho* maximizes output purity.

    The weights solve  sum_{x >= j} p_x = alpha * lambda_j(M(rho*))  with
    alpha = 1/lambda_1, i.e. p_x = alpha * (lambda_x - lambda_{x+1}).
    """
    if rho_star.side != m.din:
        raise ValueError("rho_star does not match the channel input")
    lam = np.clip(np.linalg.eigvalsh(qc.apply_mat(m, rho_star.mat))[::-1], 0.0, None)
    alpha = 1.0 / float(lam[0])
    diffs = lam - np.concatenate([lam[1:], [0.0]])
    p = np.clip(alpha * diffs, 0.0, None)
    p = p / p.sum()
    z = pure(ket(0, m.din), (m.din,))
    game = ChannelGameSpec(tuple((float(px), z) for px in p))
    return PurityGame(game, alpha)
