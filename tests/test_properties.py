"""Properties of derived values and of the paper's entropy invariants.

States and channels are checked once, where outside numbers enter
(``density``, ``channel``, ``from_choi``, the decoders); the records the
library derives from checked values are built without a second check.  The
first half of this file shows that every builder's output would pass that
check anyway.  The second half states the paper's invariants for the Umegaki
and Dmax conditional entropies on random states, with the tolerances of the
benchmark's own checks.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from qce import channels as qc
from qce.channel_games import ChannelGameSpec, _GameEvaluator, degrade
from qce.classical import HostMatrix, random_host
from qce.cusc import random_cusc, semicausal_from_parts, teleport_cusc
from qce.entropy import DMAX, UMEGAKI, cond_entropy_down, divergence, dual_cond_entropy, vn_cond_entropy
from qce.linalg import (
    density,
    embed_alice,
    haar_unitary,
    ket,
    max_entangled,
    partial_trace,
    permute_systems,
    pure,
    random_density,
    rng,
)
from qce.optim import isometry_from_params, n_iso_params
from qce.state_games import _reward_and_answer, scramble

PROPS = settings(max_examples=15, deadline=None)
sides = st.integers(1, 4)
seeds = st.integers(0, 2**31 - 1)


def checked(state):
    """The state re-entered through the checked entry point."""
    return density(state.mat, state.dims)


def checked_channel(ch):
    return qc.channel(ch.kraus, ch.in_dims, ch.out_dims)


def _state(dims, seed, rank):
    return random_density(dims, rank=min(rank, int(np.prod(dims))), seed=seed)


# ---------------------------------------------------------------------------
# derived states


@PROPS
@given(dims=st.lists(sides, min_size=1, max_size=3), seed=seeds, data=st.data())
def test_partial_trace_and_permute_stay_states(dims, seed, data):
    s = _state(tuple(dims), seed, rank=data.draw(st.integers(1, 4)))
    keep = data.draw(st.lists(st.integers(0, len(dims) - 1), min_size=1, unique=True))
    checked(partial_trace(s, keep))
    perm = data.draw(st.permutations(range(len(dims))))
    checked(permute_systems(s, perm))


@PROPS
@given(da=sides, db=sides, dc=sides, seed=seeds, grow=st.integers(0, 2))
def test_tensor_and_embed_stay_states(da, db, dc, seed, grow):
    g = rng(seed)
    a = random_density((da, db), seed=g)
    checked(a.tensor(random_density((dc,), seed=g)))
    checked(embed_alice(a, da + grow))


@PROPS
@given(din=sides, dout=sides, db=sides, seed=seeds)
def test_apply_stays_a_state(din, dout, db, seed):
    g = rng(seed)
    ch = qc.random_channel(din, dout, seed=g)
    checked(qc.apply(ch, random_density((din,), seed=g)))
    wide = qc.tensor(ch, qc.identity_channel((db,)))
    checked(qc.apply(wide, random_density((din, db), seed=g)))


def _draw_partition(data, n):
    """A partition of range(n), drawn as one block label per basis column."""
    labels = data.draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    return tuple(tuple(i for i in range(n) if labels[i] == b) for b in sorted(set(labels)))


@PROPS
@given(da=st.integers(2, 4), db=sides, seed=seeds, data=st.data())
def test_scramble_in_a_haar_basis_stays_a_state(da, db, seed, data):
    g = rng(seed)
    partition = _draw_partition(data, da)
    checked(scramble(random_density((da, db), seed=g), haar_unitary(da, g), partition))


@PROPS
@given(da=st.integers(2, 4), db=sides, seed=seeds, data=st.data())
def test_finest_pinching_dominates_every_coarser_one(da, db, seed, data):
    # pinching by a partition of a basis and then by its singletons is the
    # singletons' pinching, so Bob's value under it is never higher; this is
    # why the adversary searches only rank-one dephasings
    g = rng(seed)
    state = _state((da, db), g, rank=data.draw(st.integers(1, 16)))
    n_w = data.draw(st.integers(1, da + 2))
    t = random_host(n_w, data.draw(st.integers(1, 3)), seed=g).t
    t[:, 0] *= data.draw(st.sampled_from([1.0, 0.6]))  # a column may pay no prize
    host = HostMatrix(t)
    u = haar_unitary(da, g)
    bases = np.stack([haar_unitary(db, g) for _ in range(4)])
    finest = tuple((i,) for i in range(da))
    fine = _reward_and_answer(scramble(state, u, finest), host, bases)[0]
    coarse = _reward_and_answer(scramble(state, u, _draw_partition(data, da)), host, bases)[0]
    assert np.all(fine <= coarse + 1e-12)


@PROPS
@given(da=sides, db=sides, seed=seeds, rank=st.integers(1, 16))
def test_dual_builds_a_state_on_a_and_the_reference(da, db, seed, rank):
    s = _state((da, db), seed, rank)
    seen = []

    def h(x):
        seen.append(checked(x).dims)
        return cond_entropy_down(x)

    dual_cond_entropy(h, s)
    assert seen and seen[0][0] == da


# ---------------------------------------------------------------------------
# derived channels


@PROPS
@given(a=st.integers(1, 3), b=st.integers(1, 3), c=st.integers(1, 3), seed=seeds)
def test_compose_tensor_random_channel_stay_tp(a, b, c, seed):
    g = rng(seed)
    inner = checked_channel(qc.random_channel(a, b, seed=g))
    outer = checked_channel(qc.random_channel(b, c, kraus_rank=b, seed=g))
    checked_channel(qc.compose(outer, inner))
    checked_channel(qc.tensor(inner, outer))


@PROPS
@given(da=st.integers(1, 3), db=st.integers(1, 3), seed=seeds)
def test_random_cusc_stays_tp(da, db, seed):
    checked_channel(random_cusc(da, db, seed=seed))


@PROPS
@given(d=st.integers(2, 3), seed=seeds, rank=st.integers(1, 9))
def test_teleport_cusc_stays_tp(d, seed, rank):
    checked_channel(teleport_cusc(_state((d, d), seed, rank)))


@PROPS
@given(r=st.integers(1, 3), da=st.integers(1, 3), db=st.integers(1, 3), seed=seeds)
def test_semicausal_from_parts_stays_tp(r, da, db, seed):
    g = rng(seed)
    z = g.normal(size=(r * db, db)) + 1j * g.normal(size=(r * db, db))
    f_iso = qc.channel((np.linalg.qr(z)[0],), (db,), (r, db))
    rec = qc.random_channel(r * da, da, seed=g)
    e = qc.channel(rec.kraus, (r, da), (da,))
    checked_channel(semicausal_from_parts(f_iso, e))


@PROPS
@given(d=st.integers(1, 3), n_parts=st.integers(1, 3), seed=seeds)
def test_degrade_stays_tp(d, n_parts, seed):
    g = rng(seed)
    n = qc.random_channel(d, d, seed=g)
    ps = g.dirichlet(np.ones(n_parts))
    parts = [(p, qc.unitary_channel(haar_unitary(d, g)), qc.random_channel(d, d, seed=g)) for p in ps]
    checked_channel(degrade(n, parts))


@PROPS
@given(da=st.integers(1, 3), din=st.integers(1, 3), env=st.integers(1, 4), seed=seeds)
def test_search_objective_channel_stays_tp(da, din, env, seed):
    g = rng(seed)
    if din * env < da:
        env = da
    n = qc.random_channel(din, 2, seed=g)
    game = ChannelGameSpec(((1.0, random_density((da, 2), seed=g)),))
    fast = _GameEvaluator(n, game)
    params = g.uniform(-math.pi, math.pi, n_iso_params(din * env, da))
    checked_channel(fast.channel(isometry_from_params(din * env, da, params)))


# ---------------------------------------------------------------------------
# the paper's invariants


def _both(state):
    return cond_entropy_down(state, UMEGAKI), cond_entropy_down(state, DMAX)


def _through_divergence(state, kind):
    """The reference: log2|A| minus the general divergence from a dense u_A (x) rho_B."""
    da = state.dims[0]
    sigma = np.kron(np.eye(da) / da, partial_trace(state, [1]).mat)
    return math.log2(da) - divergence(kind, state, sigma)


@PROPS
@given(da=sides, db=sides, seed=seeds, rank=st.integers(1, 16), pure_b=st.booleans())
def test_cond_entropy_matches_the_dense_divergence(da, db, seed, rank, pure_b):
    g = rng(seed)
    if pure_b:  # rho_A (x) |0><0|: rho_B has rank 1
        s = _state((da,), g, rank).tensor(pure(ket(0, db), (db,)))
    else:
        s = _state((da, db), g, rank)
    for state in (s, _state((da, 1), g, rank)):  # the second has a trivial B
        for kind in (UMEGAKI, DMAX):
            assert abs(cond_entropy_down(state, kind) - _through_divergence(state, kind)) <= 1e-10


@PROPS
@given(da=sides, db=sides, seed=seeds, rank=st.integers(1, 16))
def test_entropies_obey_floor_order_and_duals(da, db, seed, rank):
    s = _state((da, db), seed, rank)
    um, dm = _both(s)
    floor = -math.log2(min(da, db))
    assert um >= floor - 1e-7 and dm >= floor - 1e-7
    assert dm <= um + 1e-9
    assert abs(dual_cond_entropy(lambda x: cond_entropy_down(x, UMEGAKI), s) - um) <= 1e-7
    assert dual_cond_entropy(lambda x: cond_entropy_down(x, DMAX), s) >= um - 1e-7


@PROPS
@given(d=sides)
def test_maximally_entangled_state_reaches_the_floor(d):
    for value in _both(max_entangled(d)):
        assert abs(value - (-math.log2(d))) <= 1e-8


@PROPS
@given(da=sides, db=sides, n_terms=st.integers(1, 4), seed=seeds)
def test_separable_mixtures_have_nonnegative_entropy(da, db, n_terms, seed):
    g = rng(seed)
    ps = g.dirichlet(np.ones(n_terms))
    mat = sum(p * random_density((da,), seed=g).tensor(random_density((db,), seed=g)).mat for p in ps)
    s = density(mat, (da, db))
    assert cond_entropy_down(s, UMEGAKI) >= -1e-8
    assert vn_cond_entropy(s) >= -1e-8


@PROPS
@given(da=st.integers(1, 3), db=st.integers(1, 3), seed=seeds)
def test_cusc_channels_never_lower_the_entropies(da, db, seed):
    g = rng(seed)
    s = random_density((da, db), seed=g)
    out = qc.apply(random_cusc(da, db, seed=g), s)
    for before, after in zip(_both(s), _both(out)):
        assert after >= before - 1e-7
