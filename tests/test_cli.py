"""End-to-end command line checks through main(argv)."""

import json

import numpy as np
import pytest

from qce import channels as qc
from qce import serialize as ser
from qce.channel_games import bell_game
from qce.classical import ClassicalJoint, HostMatrix, random_host
from qce.cli import main
from qce.entropy import DMAX, UMEGAKI
from qce.linalg import density, ket, kron, max_entangled, permutation_matrix, proj, random_density, rng
from qce.state_games import StateGameSpec

SEED = 20240826


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def _write_json(tmp_path, name, obj):
    return _write(tmp_path, name, ser.dumps(obj))


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_entropy_max_entangled(tmp_path, capsys):
    path = _write_json(tmp_path, "phi.json", ser.encode_density(max_entangled(2)))
    for div in (UMEGAKI, DMAX):
        code, out = _run(capsys, ["entropy", "--state", path, "--divergence", div, "--dual"])
        assert code == 0
        obj = json.loads(out)
        assert abs(obj["value"] - (-1.0)) < 1e-9
        assert abs(obj["dual"] - (-1.0)) < 1e-9


def test_cusc_check_swap_negative_verdict_exits_zero(tmp_path, capsys):
    swap = qc.unitary_channel(permutation_matrix((2, 2), [1, 0]), (2, 2))
    path = _write_json(tmp_path, "swap.json", ser.encode_channel(swap))
    code, out = _run(capsys, ["cusc-check", "--channel", path])
    assert code == 0
    obj = json.loads(out)
    assert obj["conditionally_unital"] is False
    assert obj["semicausal_choi"] is False
    assert obj["max_violation"] >= 1e-3


def test_state_reward_max_entangled(tmp_path, capsys):
    state = _write_json(tmp_path, "phi.json", ser.encode_density(max_entangled(2)))
    game = _write_json(
        tmp_path, "game.json",
        ser.encode_state_game(StateGameSpec(random_host(2, 2, seed=SEED), p_adv=0.0)),
    )
    code, out = _run(capsys, [
        "state-reward", "--state", state, "--game", game, "--restarts", "4", "--seed", "1",
    ])
    assert code == 0
    obj = json.loads(out)
    assert abs(obj["value"] - 1.0) < 1e-6
    assert obj["p_adv"] == 0.0


def test_state_reward_adversary_on_unequal_sides(tmp_path, capsys):
    state = _write_json(tmp_path, "s.json", ser.encode_density(random_density((2, 3), seed=SEED)))
    game = _write_json(
        tmp_path, "game.json", ser.encode_state_game(StateGameSpec(random_host(2, 3, seed=SEED), p_adv=1.0)),
    )
    code, out = _run(capsys, ["state-reward", "--state", state, "--game", game, "--restarts", "2", "--seed", "1"])
    assert code == 0
    obj = json.loads(out)
    assert 0.0 <= obj["value"] <= 1.0
    assert obj["p_adv"] == 1.0


def test_channel_reward_identity_bell(tmp_path, capsys):
    ch = _write_json(tmp_path, "id.json", ser.encode_channel(qc.identity_channel((2,))))
    game = _write_json(
        tmp_path, "game.json", ser.encode_channel_game(bell_game((0.4, 0.3, 0.2, 0.1))),
    )
    code, out = _run(capsys, [
        "channel-reward", "--channel", ch, "--game", game, "--restarts", "2", "--seed", "1",
    ])
    assert code == 0
    assert abs(json.loads(out)["value"] - 1.0) < 1e-9


def test_table_json_analytic_cells(capsys):
    code, out = _run(capsys, ["table", "--gamma", "0.3", "--restarts", "6", "--seed", "2"])
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 14  # 7 kinds x 2 games, one gamma
    by_key = {(r["kind"], r["game"]): r for r in rows}
    dep_bell = by_key[("depolarizing", "bell")]
    assert abs(dep_bell["analytic"] - 0.85) < 1e-12
    assert abs(by_key[("unitary", "bell")]["analytic"] - 1.0) == 0.0
    assert abs(by_key[("dephasing", "zero")]["analytic"] - 1.0) == 0.0
    note = by_key[("amplitude_damping", "bell")]["note"]
    assert "erratum" in note
    assert "note" not in by_key[("amplitude_damping", "zero")]
    for r in rows:
        assert abs(r["gap"] - abs(r["optimized"] - r["analytic"])) < 1e-9
        assert r["flagged"] == (r["gap"] > 1e-3)


def test_table_csv_and_md(capsys):
    code, out = _run(capsys, ["table", "--restarts", "2", "--format", "csv"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "kind,game,gamma,analytic,optimized,gap,flagged"
    assert len(lines) == 15
    code, out = _run(capsys, ["table", "--restarts", "2", "--format", "md"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("| kind | game |")
    assert set(lines[1]) <= {"|", "-"}


def test_table_rejects_bad_px(capsys):
    code = main(["table", "--px", "0.5,0.5", "--restarts", "2"])
    capsys.readouterr()
    assert code == 1


def test_classical_majorize_feasible_and_not(tmp_path, capsys):
    corr = ClassicalJoint(np.array([[0.5, 0.0], [0.0, 0.5]]))
    unif = ClassicalJoint(np.full((2, 2), 0.25))
    p_corr = _write(tmp_path, "corr.csv", ser.joint_to_csv(corr))
    p_unif = _write(tmp_path, "unif.csv", ser.joint_to_csv(unif))

    code, out = _run(capsys, ["classical-majorize", "--p", p_corr, "--q", p_unif])
    assert code == 0
    obj = json.loads(out)
    assert obj["feasible"] is True
    assert obj["residual"] <= 1e-7
    assert np.allclose(np.array(obj["t"]).sum(axis=1), 1.0)

    code, out = _run(capsys, ["classical-majorize", "--p", p_unif, "--q", p_corr])
    assert code == 0
    obj = json.loads(out)
    assert obj["feasible"] is False
    assert obj["witness_gap"] > 1e-7
    assert "t" not in obj


def test_classical_majorize_tol_never_changes_the_verdict(tmp_path, capsys):
    # --tol bounds the certificate's residual; an infeasible pair stays infeasible
    p_unif = _write(tmp_path, "unif.csv", ser.joint_to_csv(ClassicalJoint(np.full((2, 2), 0.25))))
    p_corr = _write(tmp_path, "corr.csv", ser.joint_to_csv(ClassicalJoint(np.array([[0.5, 0.0], [0.0, 0.5]]))))
    code, out = _run(capsys, ["classical-majorize", "--p", p_unif, "--q", p_corr, "--tol", "1"])
    assert code == 0
    obj = json.loads(out)
    assert obj["feasible"] is False
    assert obj["witness_gap"] > 1e-7 and obj["witness_t"]


def test_simulate_state_max_entangled(tmp_path, capsys):
    state = _write_json(tmp_path, "phi.json", ser.encode_density(max_entangled(2)))
    game = _write_json(
        tmp_path, "game.json",
        ser.encode_state_game(StateGameSpec(random_host(2, 1, seed=SEED), p_adv=0.0)),
    )
    code, out = _run(capsys, [
        "simulate", "--state", state, "--game", game,
        "--rounds", "200", "--restarts", "4", "--seed", "5",
    ])
    assert code == 0
    obj = json.loads(out)
    assert obj["rounds"] == 200
    assert obj["wins"] == 200


def test_simulate_state_replays_the_adversary(tmp_path, capsys):
    # |0><0| (x) |+><+| under a full adversary: state-reward gives 1/2, and the
    # replay must scramble Alice's share in the adversary rounds to match it
    plus = np.array([1.0, 1.0]) / np.sqrt(2.0)
    state = _write_json(tmp_path, "prod.json", ser.encode_density(density(kron(proj(ket(0, 2)), proj(plus)), (2, 2))))
    game = _write_json(
        tmp_path, "game.json", ser.encode_state_game(StateGameSpec(HostMatrix([[1.0], [0.0]]), p_adv=1.0)),
    )
    code, out = _run(capsys, ["state-reward", "--state", state, "--game", game, "--restarts", "2", "--seed", "3"])
    assert code == 0
    value = json.loads(out)["value"]
    assert abs(value - 0.5) < 1e-6
    code, out = _run(capsys, [
        "simulate", "--state", state, "--game", game,
        "--rounds", "4000", "--restarts", "2", "--seed", "3",
    ])
    assert code == 0
    obj = json.loads(out)
    assert abs(obj["win_rate"] - value) <= 5 * obj["std_err"]


def test_simulate_state_replays_bob_response_to_the_adversary(tmp_path, capsys):
    # the adversarial value lets Bob re-optimize against the adversary's
    # measurement, so the adversary rounds of the replay play his response
    g = rng(11)
    state = _write_json(tmp_path, "s.json", ser.encode_density(random_density((2, 2), seed=g)))
    host = random_host(2, 2, seed=g)
    for p_adv in (1.0, 0.5):
        game = _write_json(tmp_path, "game.json", ser.encode_state_game(StateGameSpec(host, p_adv=p_adv)))
        args = ["--state", state, "--game", game, "--restarts", "8", "--seed", "0"]
        code, out = _run(capsys, ["state-reward", *args])
        assert code == 0
        value = json.loads(out)["value"]
        code, out = _run(capsys, ["simulate", *args, "--rounds", "200000"])
        assert code == 0
        obj = json.loads(out)
        assert abs(obj["win_rate"] - value) <= 5 * obj["std_err"], (p_adv, obj["win_rate"], value)


def test_state_reward_refuses_a_large_alice_with_an_adversary(tmp_path, capsys):
    state = _write_json(tmp_path, "s.json", ser.encode_density(random_density((6, 1), seed=SEED)))
    game = _write_json(tmp_path, "game.json", ser.encode_state_game(StateGameSpec(HostMatrix([[1.0]] + [[0.0]] * 5), p_adv=1.0)))
    code = main(["state-reward", "--state", state, "--game", game, "--restarts", "2"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert "|A| <= 5" in captured.err
    assert "Traceback" not in captured.err


def test_simulate_channel_deterministic_bytes(tmp_path, capsys):
    ch = _write_json(tmp_path, "dep.json", ser.encode_channel(qc.depolarizing(0.4)))
    game = _write_json(
        tmp_path, "game.json", ser.encode_channel_game(bell_game((0.4, 0.3, 0.2, 0.1))),
    )
    argv = [
        "simulate", "--channel", ch, "--game", game,
        "--rounds", "400", "--restarts", "2", "--seed", "7",
    ]
    code, first = _run(capsys, argv)
    assert code == 0
    code, second = _run(capsys, argv)
    assert code == 0
    assert first == second
    obj = json.loads(first)
    # optimized preprocessing beats the bare bell value, reaching 0.8 here
    assert abs(obj["win_rate"] - 0.8) < 4 * obj["std_err"] + 1e-12


def test_simulate_input_validation(tmp_path, capsys):
    state = _write_json(tmp_path, "phi.json", ser.encode_density(max_entangled(2)))
    game = _write_json(
        tmp_path, "game.json",
        ser.encode_state_game(StateGameSpec(random_host(2, 1, seed=SEED), p_adv=0.0)),
    )
    assert main(["simulate", "--state", state, "--game", game, "--rounds", "0"]) == 1
    capsys.readouterr()
    assert main(["simulate", "--game", game]) == 1
    capsys.readouterr()
    assert main(["simulate", "--state", state, "--channel", state, "--game", game]) == 1
    capsys.readouterr()


def test_bad_input_files_exit_one(tmp_path, capsys):
    broken = _write(tmp_path, "broken.json", "{not json")
    assert main(["entropy", "--state", broken]) == 1
    capsys.readouterr()
    assert main(["entropy", "--state", str(tmp_path / "missing.json")]) == 1
    capsys.readouterr()
    wrong = _write_json(tmp_path, "wrong.json", {"rows": 2, "cols": 2, "data": []})
    assert main(["cusc-check", "--channel", wrong]) == 1
    capsys.readouterr()
    # u_2 with a string entry, with a ragged entry and with pairs of the wrong length
    u2 = [[0.5, 0.0], [0.0, 0.0], [0.0, 0.0], [0.5, 0.0]]
    for data in ([["0.5", 0.0]] + u2[1:], u2[:2] + [[0.0]] + u2[3:], [p + [0.0] for p in u2]):
        bad = _write(tmp_path, "bad.json", json.dumps({"rows": 2, "cols": 2, "dims": [2, 1], "data": data}))
        assert main(["entropy", "--state", bad]) == 1
        capsys.readouterr()
    # scalars of the wrong JSON type: float dims and rows, bools, numbers as strings
    u2_state = {"rows": 2, "cols": 2, "dims": [2, 1], "data": u2}
    for key, value in (("dims", [2.7, 1.2]), ("dims", [2, True]), ("rows", 2.9), ("cols", "2"),
                       ("data", [[True, 0.0]] + u2[1:])):
        bad = _write(tmp_path, "bad.json", json.dumps({**u2_state, key: value}))
        assert main(["entropy", "--state", bad]) == 1
        capsys.readouterr()
    ints = _write(tmp_path, "ints.json", json.dumps({**u2_state, "data": [[1, 0], [0, 0], [0, 0], [0, 0]]}))
    assert main(["entropy", "--state", ints]) == 0  # JSON ints stay valid numbers
    capsys.readouterr()

    phi = _write_json(tmp_path, "phi.json", ser.encode_density(max_entangled(2)))
    for t, p_adv in (([["1.0"], [0.0]], 0.0), ([[True], [False]], 0.0), ([[1.0], [0.0]], "0.5"), ([[1.0], [0.0]], True)):
        game = _write(tmp_path, "game.json", json.dumps({"t": t, "p_adv": p_adv}))
        assert main(["state-reward", "--state", phi, "--game", game, "--restarts", "1"]) == 1
        capsys.readouterr()
    game = _write(tmp_path, "game.json", json.dumps({"t": [[1], [0]], "p_adv": 0}))
    assert main(["state-reward", "--state", phi, "--game", game, "--restarts", "1"]) == 0
    capsys.readouterr()

    ch = _write_json(tmp_path, "id.json", ser.encode_channel(qc.identity_channel((2,))))
    for dims in ([2.0], [True]):
        bad = _write(tmp_path, "bad_ch.json", json.dumps({**ser.encode_channel(qc.identity_channel((2,))), "in_dims": dims}))
        assert main(["cusc-check", "--channel", bad]) == 1
        capsys.readouterr()
    for p in ("1.0", True):
        ch_game = ser.encode_channel_game(bell_game((1.0, 0.0, 0.0, 0.0)))
        ch_game["entries"][0]["p"] = p
        game = _write(tmp_path, "ch_game.json", json.dumps(ch_game))
        assert main(["channel-reward", "--channel", ch, "--game", game, "--restarts", "1"]) == 1
        capsys.readouterr()


def test_non_finite_inputs_exit_one(tmp_path, capsys):
    state = _write_json(tmp_path, "phi.json", ser.encode_density(max_entangled(2)))
    game = ser.encode_state_game(StateGameSpec(HostMatrix([[1.0], [0.0]])))
    game["t"][0][0] = float("nan")
    game_path = _write(tmp_path, "game.json", json.dumps(game))
    assert main(["state-reward", "--state", state, "--game", game_path, "--restarts", "1"]) == 1
    capsys.readouterr()

    ch = _write_json(tmp_path, "id.json", ser.encode_channel(qc.identity_channel((2,))))
    ch_game = ser.encode_channel_game(bell_game((0.4, 0.3, 0.2, 0.1)))
    ch_game["entries"][0]["p"] = float("nan")
    ch_game_path = _write(tmp_path, "ch_game.json", json.dumps(ch_game))
    assert main(["channel-reward", "--channel", ch, "--game", ch_game_path, "--restarts", "1"]) == 1
    capsys.readouterr()

    good = _write(tmp_path, "good.csv", "0.25,0.25\n0.25,0.25\n")
    bad = _write(tmp_path, "bad.csv", "nan,0.5\n0.25,0.25\n")
    assert main(["classical-majorize", "--p", bad, "--q", good]) == 1
    assert main(["classical-majorize", "--p", good, "--q", bad]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("mat, msg", [
    (np.array([[1.0, 0.5], [0.0, 0.0]]), "not hermitian"),
    (np.diag([0.7, 0.7]), "trace is not 1"),
    (np.diag([1.5, -0.5]), "not positive semidefinite"),
])
def test_entropy_rejects_a_non_state_with_exit_one(tmp_path, capsys, mat, msg):
    obj = ser.encode_matrix(mat)
    obj["dims"] = [2]
    path = _write_json(tmp_path, "bad.json", obj)
    assert main(["entropy", "--state", path]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("input error:") and msg in captured.err
    assert "Traceback" not in captured.err


def test_cusc_check_rejects_non_tp_kraus_with_exit_one(tmp_path, capsys):
    obj = {"in_dims": [2, 2], "out_dims": [2, 2], "kraus": [ser.encode_matrix(2.0 * np.eye(4))]}
    path = _write_json(tmp_path, "bad.json", obj)
    assert main(["cusc-check", "--channel", path]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("input error:") and "not trace preserving" in captured.err
    assert "Traceback" not in captured.err
