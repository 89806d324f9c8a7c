"""JSON/CSV interchange round trips and deterministic dumps."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qce import channels as qc
from qce import serialize as ser
from qce.channel_games import bell_game
from qce.classical import HostMatrix, random_host, random_joint
from qce.cusc import is_cusc
from qce.linalg import max_entangled, random_density, rng
from qce.mc_sim import simulate_channel_game
from qce.state_games import StateGameSpec

SEED = 20240825


def test_matrix_roundtrip():
    g = rng(SEED)
    m = g.normal(size=(3, 2)) + 1j * g.normal(size=(3, 2))
    back = ser.decode_matrix(ser.encode_matrix(m))
    np.testing.assert_allclose(back, m, atol=0)


def test_matrix_decode_validation():
    with pytest.raises(ValueError):
        ser.decode_matrix({"rows": 2, "cols": 2, "data": [[1.0, 0.0]]})
    with pytest.raises(ValueError):
        ser.decode_matrix({"rows": 1, "cols": 1, "data": [[float("nan"), 0.0]]})


def test_density_roundtrip():
    s = random_density((2, 3), seed=SEED)
    back = ser.decode_density(ser.encode_density(s))
    assert back.dims == s.dims
    np.testing.assert_allclose(back.mat, s.mat, atol=0)


def test_channel_roundtrip_kraus_and_choi():
    ch = qc.random_channel(2, 3, seed=SEED)
    s = random_density((2,), seed=SEED + 1)
    for as_choi in (False, True):
        back = ser.decode_channel(ser.encode_channel(ch, as_choi=as_choi))
        assert back.in_dims == ch.in_dims and back.out_dims == ch.out_dims
        np.testing.assert_allclose(qc.apply(back, s).mat, qc.apply(ch, s).mat, atol=1e-8)
    with pytest.raises(ValueError):
        ser.decode_channel({"in_dims": [2], "out_dims": [2]})


def test_host_and_state_game_roundtrip():
    host = random_host(3, 2, seed=SEED)
    back = ser.decode_host(ser.encode_host(host))
    np.testing.assert_allclose(back.t, host.t, atol=0)
    game = StateGameSpec(host, p_adv=0.3)
    back_game = ser.decode_state_game(ser.encode_state_game(game))
    assert back_game.p_adv == 0.3
    np.testing.assert_allclose(back_game.host.t, host.t, atol=0)
    # p_adv defaults to 0 when omitted
    assert ser.decode_state_game(ser.encode_host(host)).p_adv == 0.0


def test_channel_game_roundtrip():
    game = bell_game((0.4, 0.3, 0.2, 0.1))
    back = ser.decode_channel_game(ser.encode_channel_game(game))
    assert len(back.entries) == 4
    for (p1, s1), (p2, s2) in zip(back.entries, game.entries):
        assert p1 == p2
        np.testing.assert_allclose(s1.mat, s2.mat, atol=0)


def test_sim_result_and_verdict_encodings():
    res = simulate_channel_game(
        qc.identity_channel((2,)), qc.identity_channel((2,)), bell_game((1.0, 0.0, 0.0, 0.0)),
        rounds=100, seed=3,
    )
    obj = ser.encode_sim_result(res)
    assert obj["wins"] == res.wins and obj["rounds"] == 100 and obj["seed"] == 3
    v = is_cusc(qc.tensor(qc.identity_channel((2,)), qc.depolarizing(0.2)))
    vo = ser.encode_cusc_verdict(v)
    assert vo["conditionally_unital"] is True and vo["semicausal_choi"] is True
    assert vo["max_violation"] <= 1e-7


def test_joint_csv_roundtrip():
    p = random_joint(3, 2, seed=SEED)
    text = ser.joint_to_csv(p)
    back = ser.joint_from_csv(text)
    np.testing.assert_allclose(back.p, p.p, atol=1e-11)
    # blank lines are tolerated
    again = ser.joint_from_csv("\n" + text + "\n\n")
    np.testing.assert_allclose(again.p, back.p, atol=0)


def test_dumps_is_deterministic_and_sorted():
    obj = {"b": 0.1234567890123456789, "a": [1.0 / 3.0, {"z": 2, "y": True}]}
    s1 = ser.dumps(obj)
    s2 = ser.dumps(json.loads(s1))
    assert s1 == s2  # 12-digit rounding is idempotent
    assert s1.index('"a"') < s1.index('"b"')
    assert "0.333333333333" in s1


def test_dumps_drops_sub_precision_noise():
    a = ser.dumps({"x": 0.7})
    b = ser.dumps({"x": 0.7 + 1e-15})
    assert a == b


def test_emitted_density_survives_dumps_roundtrip():
    s = max_entangled(2)
    text = ser.dumps(ser.encode_density(s))
    back = ser.decode_density(json.loads(text))
    np.testing.assert_allclose(back.mat, s.mat, atol=1e-11)


NON_STATES = [
    (np.array([[1.0, 0.5], [0.0, 0.0]]), "not hermitian"),
    (np.diag([0.7, 0.7]), "trace is not 1"),
    (np.diag([1.5, -0.5]), "not positive semidefinite"),
]


@pytest.mark.parametrize("mat, msg", NON_STATES)
def test_decode_density_rejects_non_states(mat, msg):
    obj = ser.encode_matrix(mat)
    obj["dims"] = [2]
    with pytest.raises(ValueError, match=msg):
        ser.decode_density(obj)


def test_decode_channel_rejects_non_tp_kraus():
    obj = {"in_dims": [2], "out_dims": [2], "kraus": [ser.encode_matrix(2.0 * np.eye(2))]}
    with pytest.raises(ValueError, match="not trace preserving"):
        ser.decode_channel(obj)


def test_encode_matrix_pairs_match_per_entry_floats():
    m = random_density((2, 3), seed=SEED).mat
    want = [[float(z.real), float(z.imag)] for z in m.reshape(-1)]
    assert ser.encode_matrix(m)["data"] == want
    assert ser.encode_matrix(m.T)["data"] == [[float(z.real), float(z.imag)] for z in m.T.reshape(-1)]


def _float_pair(v) -> bool:
    return type(v) is list and len(v) == 2 and type(v[0]) is float and type(v[1]) is float


def _round_floats_per_float(obj):
    """The per-float rounding ``dumps`` used before its one-pass matrix writer."""
    if isinstance(obj, float):
        return float(f"{obj:.12g}")
    if isinstance(obj, dict):
        return {k: _round_floats_per_float(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        if all(map(_float_pair, obj)):
            return [[float(f"{re:.12g}"), float(f"{im:.12g}")] for re, im in obj]
        return [_round_floats_per_float(v) for v in obj]
    return obj


def _dumps_per_float(obj) -> str:
    return json.dumps(_round_floats_per_float(obj), sort_keys=True, separators=(",", ":"))


EDGE_FLOATS = [
    0.0, -0.0, 1.0, -7.0, 123456.0, 1e-5, 9.99999999999e-5, 1e-4, 0.1, 1.0 / 3.0,
    999999999999.4, 999999999999.6, 1e12, 1234567890123.5, 5e15, 9.999e15, 1e16, 3e20,
    1e-299, 1e-300, 5e-324, 2.2250738585072014e-308, 1.5e-30,
    float("nan"), float("inf"), float("-inf"),
]
_float = st.one_of(
    st.sampled_from(EDGE_FLOATS),
    st.floats(),
    st.floats(-2.0, 2.0),
    st.integers(-10**13, 10**13).map(float),
    st.builds(lambda m, e: m * 10.0 ** e, st.floats(-10.0, 10.0), st.integers(-320, 20)),
)
_entry = st.one_of(_float, _float, _float, _float.map(np.float64), st.integers(-3, 3), st.booleans())
_pairs = st.lists(st.lists(_float, min_size=2, max_size=2), max_size=8)
_mixed_pairs = st.lists(st.lists(_entry, min_size=2, max_size=2), max_size=4)
_text = st.one_of(st.text(max_size=4), st.integers(0, 12).map(lambda i: f"\x00{i}"))
_json_values = st.recursive(
    st.one_of(_entry, _text, st.none(), _pairs, _mixed_pairs),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.lists(st.tuples(_float, _float), max_size=3).map(tuple),
        st.dictionaries(_text, inner, max_size=4),
    ),
    max_leaves=12,
)


@settings(max_examples=400, deadline=None)
@given(_json_values)
def test_dumps_matches_the_per_float_rule(obj):
    assert ser.dumps(obj) == _dumps_per_float(obj)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.sampled_from(EDGE_FLOATS), min_size=2, max_size=8))
def test_dumps_matches_the_per_float_rule_on_edge_values(values):
    data = [values[i:i + 2] for i in range(0, len(values) - 1, 2)]
    obj = {"rows": len(data), "cols": 1, "data": data}
    assert ser.dumps(obj) == _dumps_per_float(obj)


def test_dumps_matches_the_per_float_rule_on_encoded_objects():
    g = rng(SEED)
    host = HostMatrix(g.dirichlet(np.ones(3), size=2).T)  # 2 columns: host t is matrix data
    cases = [
        ser.encode_density(random_density((2, 3), seed=SEED)),
        ser.encode_density(max_entangled(3)),
        ser.encode_channel(qc.random_channel(2, 3, seed=SEED)),
        ser.encode_channel(qc.depolarizing(0.25), as_choi=True),
        ser.encode_host(host),
        {"data": ((0.5, 0.25), [1.0, 2.0]), "empty": [], "nested": {"x": {"y": [[0.1, 1e-7]]}}},
        {"data": [[1e12, 0.0]], "scalars": [1e-300, 5e-324, 3, np.float64(0.1)]},
        {"data": [[0.5, 5e-324]], "normal": [[1e-299, -1e-300]]},
        {"data": [[float("nan"), float("inf")], [float("-inf"), -0.0]]},
        {"data": [[np.float64(0.1), 0.2]], "ints": [[1, 2], [3, 4]]},
        {"\x000": "marker in a key", "m": [[0.5, 0.25], [0.125, 2.0]]},
        {"s": "\x001", "m": [[0.5, 0.25]], "n": [[0.75, 1.0]]},
        {"s": 'a"\x000', "m": [[0.5, 0.25]]},
    ]
    for obj in cases:
        assert ser.dumps(obj) == _dumps_per_float(obj)
    assert ser._matrix_text(ser.encode_density(random_density((3, 3), seed=SEED))["data"]) is not None
