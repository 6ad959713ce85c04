"""CLI surface: exit codes, --json contract, end-to-end command flows."""

from __future__ import annotations

import gc
import json
import shlex
import shutil
import sqlite3
import sys

import pytest

from policygym import load_package
from policygym.cli import main
from policygym.errors import InvalidManifest, IoFailure
from policygym.fixtures import corporate_travel as ct
from policygym.rollout import import_trajectory


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def scripted_port_cmd(fixture_dir, role: str) -> str:
    script = fixture_dir / "scripts" / f"{role}_script.json"
    return f"{sys.executable} -m policygym.ports --role {role} --script {script}"


def test_validate_fixture(fixture_dir, capsys):
    code, out, _ = run_cli(capsys, "validate", str(fixture_dir))
    assert code == 0
    assert "delta0: 4" in out
    assert "18" in out


def test_validate_json_single_document(fixture_dir, capsys):
    code, out, _ = run_cli(capsys, "validate", str(fixture_dir), "--json")
    assert code == 0
    doc = json.loads(out)  # exactly one document
    assert doc["delta0"] == 4
    assert doc["tools"]["total"] == 18
    assert doc["tables"] == 10
    assert not doc["trivial"]


def test_validate_missing_path_is_usage_error(capsys, tmp_path):
    code, _, err = run_cli(capsys, "validate", str(tmp_path / "nope"))
    assert code == 2
    assert "not found" in err


def test_validate_corrupted_trigger_is_task_failure(fixture_dir, tmp_path, capsys):
    broken = tmp_path / "broken"
    shutil.copytree(fixture_dir, broken)
    text = (broken / "triggers.sql").read_text("utf-8")
    (broken / "triggers.sql").write_text(text.replace("FROM users", "FROM userz", 1), "utf-8")
    code, _, err = run_cli(capsys, "validate", str(broken))
    assert code == 1
    assert "CompileFailure" in err


def test_verify_identical_and_origin_target(fixture_dir, capsys):
    origin = str(fixture_dir / "origin.db")
    target = str(fixture_dir / "target.db")
    code, out, _ = run_cli(capsys, "verify", origin, origin, str(fixture_dir), "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc == {"total": 0, "r_final": 1, "per_table": {}}

    code, out, _ = run_cli(capsys, "verify", origin, target, str(fixture_dir), "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["total"] == 4
    assert doc["r_final"] == 0
    assert doc["per_table"]["flight_bookings"] == {"added": 1, "removed": 0}


def test_verify_wrong_schema_snapshot_fails(fixture_dir, tmp_path, capsys):
    alien = tmp_path / "alien.db"
    conn = sqlite3.connect(alien)
    conn.execute("CREATE TABLE misc (x INTEGER)")
    conn.commit()
    conn.close()
    code, _, err = run_cli(capsys, "verify", str(alien), str(alien), str(fixture_dir))
    assert code == 1
    assert "SchemaMismatch" in err


def test_rollout_oracle_scripts_pass_hat_one(fixture_dir, tmp_path, capsys):
    out_dir = tmp_path / "rollouts"
    code, out, _ = run_cli(
        capsys, "rollout", str(fixture_dir),
        "--agent-cmd", scripted_port_cmd(fixture_dir, "agent"),
        "--user-cmd", scripted_port_cmd(fixture_dir, "user"),
        "--k", "4", "--seed", "11", "--out-dir", str(out_dir), "--json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["successes"] == 4
    assert doc["metrics"]["pass_hat_k"]["1"] == 1.0
    assert doc["metrics"]["pass_at_k"]["4"] == 1.0
    exports = sorted(out_dir.glob("trajectory_*.jsonl"))
    assert len(exports) == 4
    for episode in doc["episodes"]:
        assert episode["r_final"] == 1
        assert episode["termination"] == "stop_signal"


def test_rollout_k_zero_usage_error(fixture_dir, capsys):
    code, _, err = run_cli(
        capsys, "rollout", str(fixture_dir),
        "--agent-cmd", "true", "--user-cmd", "true", "--k", "0",
    )
    assert code == 2
    assert "--k" in err


def test_rollout_budget_exhausted_still_exit_zero(fixture_dir, tmp_path, capsys):
    limited = tmp_path / "limited"
    shutil.copytree(fixture_dir, limited)
    manifest = json.loads((limited / "manifest.json").read_text("utf-8"))
    manifest["limits"]["max_turns"] = 3
    (limited / "manifest.json").write_text(json.dumps(manifest, indent=2), "utf-8")
    agent_script = tmp_path / "agent.json"
    agent_script.write_text(json.dumps([{"text": f"hm {i}"} for i in range(9)]), "utf-8")
    user_script = tmp_path / "user.json"
    user_script.write_text(json.dumps([f"go on {i}" for i in range(9)]), "utf-8")
    code, out, _ = run_cli(
        capsys, "rollout", str(limited),
        "--agent-cmd", f"{sys.executable} -m policygym.ports --role agent --script {agent_script}",
        "--user-cmd", f"{sys.executable} -m policygym.ports --role user --script {user_script}",
        "--k", "1", "--out-dir", str(tmp_path / "r"), "--json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["episodes"][0]["termination"] == "budget_exhausted"
    assert doc["episodes"][0]["r_final"] == 0


def test_rollout_port_failure_exits_one(fixture_dir, tmp_path, capsys):
    # user script exhausts after one message and never emits the stop token
    user_script = tmp_path / "user.json"
    user_script.write_text(json.dumps(["do the thing"]), "utf-8")
    agent_script = tmp_path / "agent.json"
    agent_script.write_text(json.dumps([{"text": "on it"}]), "utf-8")
    code, out, _ = run_cli(
        capsys, "rollout", str(fixture_dir),
        "--agent-cmd", f"{sys.executable} -m policygym.ports --role agent --script {agent_script}",
        "--user-cmd", f"{sys.executable} -m policygym.ports --role user --script {user_script}",
        "--k", "1", "--out-dir", str(tmp_path / "r"), "--json",
    )
    assert code == 1
    doc = json.loads(out)
    assert "port failure" in doc["episodes"][0]["note"]


def _run_rollouts(fixture_dir, tmp_path, capsys, k, seed=0, agent=None, user=None):
    out_dir = tmp_path / f"group_{seed}"
    agent_cmd = agent or scripted_port_cmd(fixture_dir, "agent")
    user_cmd = user or scripted_port_cmd(fixture_dir, "user")
    code, out, _ = run_cli(
        capsys, "rollout", str(fixture_dir),
        "--agent-cmd", agent_cmd,
        "--user-cmd", user_cmd,
        "--k", str(k), "--seed", str(seed), "--out-dir", str(out_dir), "--json",
    )
    assert code == 0
    return sorted(out_dir.glob("trajectory_*.jsonl"))


def test_score_group_advantages_match_hand_computation(fixture_dir, tmp_path, capsys):
    winners = _run_rollouts(fixture_dir, tmp_path, capsys, 2, seed=0)

    # two failing episodes: agent answers in text only, user stops -> diff stays 4
    lazy_agent = tmp_path / "lazy_agent.json"
    lazy_agent.write_text(json.dumps([{"text": "I cannot help"}] * 9), "utf-8")
    lazy_user = tmp_path / "lazy_user.json"
    lazy_user.write_text(json.dumps(["please book it", "###STOP###"] * 2), "utf-8")
    losers_dir = tmp_path / "losers"
    code, _, _ = run_cli(
        capsys, "rollout", str(fixture_dir),
        "--agent-cmd", f"{sys.executable} -m policygym.ports --role agent --script {lazy_agent}",
        "--user-cmd", f"{sys.executable} -m policygym.ports --role user --script {lazy_user}",
        "--k", "2", "--out-dir", str(losers_dir), "--json",
    )
    assert code == 0
    losers = sorted(losers_dir.glob("trajectory_*.jsonl"))

    paths = [winners[0], losers[0], losers[1], winners[1]]  # rewards 1,0,0,1
    export = tmp_path / "advantages.jsonl"
    code, out, _ = run_cli(
        capsys, "score", str(paths[0]), str(fixture_dir),
        *[str(p) for p in paths[1:]], "--out", str(export), "--json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["r_final"] == [1, 0, 0, 1]
    assert doc["trajectory_advantages"] == [1.0, -1.0, -1.0, 1.0]
    # the failing episodes made no tool calls, so only winner turns are exported
    lines = [json.loads(line) for line in export.read_text("utf-8").splitlines()]
    assert len(lines) == 10
    assert {line["A_i"] for line in lines} == {1.0}


def test_score_single_trajectory_zero_advantage(fixture_dir, tmp_path, capsys):
    paths = _run_rollouts(fixture_dir, tmp_path, capsys, 1, seed=5)
    code, out, _ = run_cli(capsys, "score", str(paths[0]), str(fixture_dir), "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["trajectory_advantages"] == [0.0]
    assert all(row["A_it"] == 0.0 for row in doc["turn_advantages"] if row["r_t"] >= 0)


def test_score_violation_turn_penalized(fixture_dir, tmp_path, capsys):
    naughty_agent = tmp_path / "naughty.json"
    naughty_agent.write_text(json.dumps([
        {"tool_call": {"tool_name": "insert_flight_bookings", "arguments": {
            "travel_request_id": 1, "flight_code": "FL-X", "cost": 10,
            "class": "ECONOMY", "departure_step": 30, "booking_step": 12}}},
        {"text": "rejected, stopping"},
    ]), "utf-8")
    stop_user = tmp_path / "stop_user.json"
    stop_user.write_text(json.dumps(["book a 4th flight", "###STOP###"]), "utf-8")
    paths = _run_rollouts(
        fixture_dir, tmp_path, capsys, 1, seed=9,
        agent=f"{sys.executable} -m policygym.ports --role agent --script {naughty_agent}",
        user=f"{sys.executable} -m policygym.ports --role user --script {stop_user}",
    )
    code, out, _ = run_cli(capsys, "score", str(paths[0]), str(fixture_dir), "--json")
    assert code == 0
    doc = json.loads(out)
    row = doc["turn_advantages"][0]
    assert row["r_t"] == pytest.approx(-0.1)
    assert row["A_it"] == pytest.approx(row["A_i"] - 0.1)


def test_score_mixed_packages_usage_error(fixture_dir, tmp_path, capsys):
    paths = _run_rollouts(fixture_dir, tmp_path, capsys, 1, seed=3)
    alien = tmp_path / "alien.jsonl"
    text = paths[0].read_text("utf-8").replace('"corporate-travel"', '"other-package"', 1)
    alien.write_text(text, "utf-8")
    code, _, err = run_cli(capsys, "score", str(alien), str(fixture_dir))
    assert code == 2
    assert "other-package" in err


@pytest.mark.parametrize("data", [
    b"not json\n",
    b'{"record": "trajectory", "termination": "stop"}\n',
    b'{"record": "trajectory"}\n[1, 2]\n',
    b'{"record": "trajectory"}\n\xff\n',
], ids=["not-json", "no-package-id", "line-not-object", "not-utf-8"])
def test_score_malformed_trajectory_is_io_failure(fixture_dir, tmp_path, capsys, data):
    path = tmp_path / "bad.jsonl"
    path.write_bytes(data)
    with pytest.raises(IoFailure, match="bad.jsonl"):
        import_trajectory(path)
    code, _, err = run_cli(capsys, "score", str(path), str(fixture_dir))
    assert code == 1
    assert "IoFailure" in err and "bad.jsonl" in err


@pytest.mark.parametrize("key, value", [
    ("permissions", ["a"]),
    ("limits", 5),
    ("limits", {"max_turns": "50"}),
    ("limits", {"stop_token": 5}),
    ("diff_config", "drop"),
    ("diff_config", {"excluded_columns": {"travel_requests": "id"}}),
    ("diff_config", {"excluded_columns": ["travel_requests"]}),
    ("diff_config", {"epsilon": "small"}),
    ("redaction_list", 5),
    ("redaction_list", [5]),
    ("error_registry", 5),
    ("error_registry", {"QUOTA_EXCEEDED": 1}),
    ("name", 5),
    # booleans are ints in Python, and NaN and the infinities are floats
    ("diff_config", {"epsilon": True}),
    ("diff_config", {"lambda_err": True}),
    ("diff_config", {"epsilon": float("nan")}),
    ("diff_config", {"lambda_err": float("inf")}),
    ("limits", {"max_turns": True}),
])
def test_wrongly_typed_manifest_field_is_invalid_manifest(fixture_dir, tmp_path, capsys,
                                                          key, value):
    broken = tmp_path / "badmanifest"
    shutil.copytree(fixture_dir, broken)
    manifest = json.loads((broken / "manifest.json").read_text("utf-8"))
    manifest[key] = value
    (broken / "manifest.json").write_text(json.dumps(manifest), "utf-8")
    with pytest.raises(InvalidManifest, match=key):
        load_package(broken)
    code, out, _ = run_cli(capsys, "validate", str(broken), "--json")
    assert code == 1
    assert "InvalidManifest" in out


def test_synthesize_stub_roundtrip(tmp_path, capsys):
    seed_file = tmp_path / "seed.txt"
    seed_file.write_text(ct.SEED_DOMAIN_TEXT, "utf-8")
    out_dir = tmp_path / "synth"
    code, out, _ = run_cli(
        capsys, "synthesize", str(seed_file), "stub", str(out_dir), "--json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["delta0"] == 4
    assert doc["adjacency_score"] > 0
    assert (out_dir / "synthesis_log.json").is_file()
    code, out, _ = run_cli(capsys, "validate", str(out_dir), "--json")
    assert code == 0


def test_synthesize_missing_port_command(tmp_path, capsys):
    seed_file = tmp_path / "seed.txt"
    seed_file.write_text("travel", "utf-8")
    code, _, err = run_cli(
        capsys, "synthesize", str(seed_file), "/no/such/port-binary", str(tmp_path / "o"),
    )
    assert code == 2
    assert "spawn" in err


def test_synthesize_exhausted_names_stage(tmp_path, capsys, monkeypatch):
    import policygym.fixtures.corporate_travel as fixture_module

    outputs = fixture_module.canned_generation_outputs()
    outputs["triggers"] = [fixture_module.TRIGGERS_SQL.replace("FROM users", "FROM userz", 1)]
    monkeypatch.setattr(fixture_module, "canned_generation_outputs", lambda: outputs)
    seed_file = tmp_path / "seed.txt"
    seed_file.write_text("travel", "utf-8")
    code, _, err = run_cli(
        capsys, "synthesize", str(seed_file), "stub", str(tmp_path / "o"),
        "--max-attempts", "1",
    )
    assert code == 1
    assert "architect stage failed" in err
    assert "triggers" in err


def test_fixture_command(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "fixture", str(tmp_path / "pkg"), "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["delta0"] == 4
    assert (tmp_path / "pkg" / "scripts" / "agent_script.json").is_file()


def test_lambda_override_flows_into_scoring(fixture_dir, tmp_path, capsys):
    naughty_agent = tmp_path / "naughty2.json"
    naughty_agent.write_text(json.dumps([
        {"tool_call": {"tool_name": "insert_flight_bookings", "arguments": {
            "travel_request_id": 1, "flight_code": "FL-X", "cost": 10,
            "class": "ECONOMY", "departure_step": 30, "booking_step": 12}}},
        {"text": "stopping"},
    ]), "utf-8")
    stop_user = tmp_path / "stop_user2.json"
    stop_user.write_text(json.dumps(["book a 4th flight", "###STOP###"]), "utf-8")
    paths = _run_rollouts(
        fixture_dir, tmp_path, capsys, 1, seed=2,
        agent=f"{sys.executable} -m policygym.ports --role agent --script {naughty_agent}",
        user=f"{sys.executable} -m policygym.ports --role user --script {stop_user}",
    )
    code, out, _ = run_cli(
        capsys, "score", str(paths[0]), str(fixture_dir), "--lambda-err", "0.5", "--json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["turn_advantages"][0]["r_t"] == pytest.approx(-0.5)


def test_rollout_parallel_episodes(fixture_dir, tmp_path, capsys):
    out_dir = tmp_path / "parallel"
    code, out, _ = run_cli(
        capsys, "rollout", str(fixture_dir),
        "--agent-cmd", scripted_port_cmd(fixture_dir, "agent"),
        "--user-cmd", scripted_port_cmd(fixture_dir, "user"),
        "--k", "4", "--parallel", "4", "--out-dir", str(out_dir), "--json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["successes"] == 4
    assert len(sorted(out_dir.glob("trajectory_*.jsonl"))) == 4


def test_synthesize_through_subprocess_generation_port(tmp_path, capsys):
    gen_script = tmp_path / "generator.json"
    gen_script.write_text(json.dumps(ct.canned_generation_outputs()), "utf-8")
    seed_file = tmp_path / "seed.txt"
    seed_file.write_text(ct.SEED_DOMAIN_TEXT, "utf-8")
    out_dir = tmp_path / "synth_subprocess"
    code, out, _ = run_cli(
        capsys, "synthesize", str(seed_file),
        f"{sys.executable} -m policygym.ports --role generate --script {gen_script}",
        str(out_dir), "--json",
    )
    assert code == 0
    assert json.loads(out)["delta0"] == 4
    code, _, _ = run_cli(capsys, "validate", str(out_dir))
    assert code == 0


def test_validate_reports_delta0_matching_independent_oracle(fixture_dir, capsys):
    from policygym import load_package
    from test_verify import brute_force_diff_total

    code, out, _ = run_cli(capsys, "validate", str(fixture_dir), "--json")
    assert code == 0
    reported = json.loads(out)["delta0"]
    pkg = load_package(fixture_dir)
    oracle = brute_force_diff_total(pkg.origin_snapshot, pkg.target_snapshot, pkg.diff_config)
    assert reported == oracle == 4


def test_validate_warns_on_trivial_package(fixture_dir, tmp_path, capsys):
    trivial = tmp_path / "trivial"
    shutil.copytree(fixture_dir, trivial)
    shutil.copyfile(trivial / "origin.db", trivial / "target.db")
    code, out, _ = run_cli(capsys, "validate", str(trivial))
    assert code == 0
    assert "trivial" in out
    code, out, _ = run_cli(capsys, "validate", str(trivial), "--json")
    assert json.loads(out)["trivial"] is True


# --- port pairs across episodes ------------------------------------------------------

@pytest.fixture
def spawned(monkeypatch):
    """The command of every port process the CLI starts, counted in-process."""
    from policygym import ports

    commands = []
    spawn = ports.SubprocessTransport.__init__

    def counting_spawn(self, cmd, *args, **kwargs):
        commands.append(cmd)
        spawn(self, cmd, *args, **kwargs)

    monkeypatch.setattr(ports.SubprocessTransport, "__init__", counting_spawn)
    return commands


def _rollout(fixture_dir, tmp_path, capsys, *extra, agent=None, user=None, out="r"):
    out_dir = tmp_path / out
    code, out, _ = run_cli(
        capsys, "rollout", str(fixture_dir),
        "--agent-cmd", agent or scripted_port_cmd(fixture_dir, "agent"),
        "--user-cmd", user or scripted_port_cmd(fixture_dir, "user"),
        "--out-dir", str(out_dir), "--json", *extra,
    )
    exports = [p.read_bytes() for p in sorted(out_dir.glob("trajectory_*.jsonl"))]
    return code, json.loads(out), exports


def test_rollout_reuses_one_port_pair_for_all_episodes(fixture_dir, tmp_path, capsys, spawned):
    code, doc, exports = _rollout(fixture_dir, tmp_path, capsys, "--k", "8", "--seed", "5")
    assert code == 0
    assert doc["successes"] == 8
    assert len(spawned) == 2
    assert len(set(exports)) == 1  # every episode replayed the script from its start


def test_parallel_rollout_keeps_at_most_one_pair_per_worker(fixture_dir, tmp_path, capsys,
                                                            spawned):
    code, doc, _ = _rollout(fixture_dir, tmp_path, capsys, "--k", "4", "--parallel", "2")
    assert code == 0
    assert doc["successes"] == 4
    assert 2 <= len(spawned) <= 4


def test_a_pair_with_a_port_failure_is_never_reused(fixture_dir, tmp_path, capsys, spawned):
    user_script = tmp_path / "user.json"
    user_script.write_text(json.dumps(["do the thing"]), "utf-8")
    code, doc, _ = _rollout(
        fixture_dir, tmp_path, capsys, "--k", "3",
        user=f"{sys.executable} -m policygym.ports --role user --script {user_script}",
    )
    assert code == 1
    assert len(spawned) == 6
    for episode in doc["episodes"]:
        assert "user port failure" in episode["note"]
        assert "user script exhausted" in episode["note"]


LEGACY_PORT = """
import json, sys

role, script, unknown_reply = sys.argv[1], sys.argv[2], json.loads(sys.argv[3])
with open(script, encoding="utf-8") as fh:
    steps = json.load(fh)
for raw in sys.stdin:
    request = json.loads(raw)
    if request["type"] == role + "_turn":
        reply = {"type": request["type"], "content": steps.pop(0)}
    else:
        reply = unknown_reply
    print(json.dumps(reply), flush=True)
"""


@pytest.mark.parametrize("role, unknown_reply", [
    ("agent", {"type": "error", "message": "unknown request type"}),
    ("user", {"type": "ready"}),
])
def test_a_port_that_does_not_rearm_gets_a_fresh_pair_each_episode(
        fixture_dir, tmp_path, capsys, spawned, role, unknown_reply):
    _, _, scripted = _rollout(fixture_dir, tmp_path, capsys, "--k", "3", "--seed", "4",
                              out="scripted")
    spawned.clear()
    legacy = tmp_path / "legacy_port.py"
    legacy.write_text(LEGACY_PORT, "utf-8")
    script = fixture_dir / "scripts" / f"{role}_script.json"
    command = shlex.join([sys.executable, str(legacy), role, str(script),
                          json.dumps(unknown_reply)])
    code, doc, exports = _rollout(fixture_dir, tmp_path, capsys, "--k", "3", "--seed", "4",
                                  **{role: command})
    assert code == 0
    assert doc["successes"] == 3
    assert len(spawned) == 6
    assert exports == scripted


def test_an_unspawnable_user_port_closes_the_agent_port(fixture_dir, tmp_path, capsys):
    """The agent port spawned before the user port failed to spawn is
    closed; nothing is left for the garbage collector to warn about."""
    code, out, _ = run_cli(
        capsys, "rollout", str(fixture_dir),
        "--agent-cmd", scripted_port_cmd(fixture_dir, "agent"),
        "--user-cmd", "/nonexistent/port", "--out-dir", str(tmp_path / "r"), "--json",
    )
    gc.collect()
    assert code == 1
    assert "cannot spawn port command" in json.loads(out)["error"]


# --- reward overrides ----------------------------------------------------------------

@pytest.mark.parametrize("flag, value", [
    ("--epsilon", "0"),
    ("--epsilon", "-0.5"),
    ("--epsilon", "nan"),
    ("--epsilon", "inf"),
    ("--lambda-err", "0"),
    ("--lambda-err", "nan"),
])
def test_bad_numeric_override_is_usage_error(fixture_dir, capsys, flag, value):
    code, out, err = run_cli(capsys, "validate", str(fixture_dir), flag, value, "--json")
    assert code == 2
    assert "internal" not in out
    assert flag.lstrip("-").replace("-", "_") in err


def test_every_port_pair_is_closed_when_an_episode_raises(fixture_dir, tmp_path, capsys,
                                                          monkeypatch):
    from policygym import cli

    episodes = []

    def failing_third_episode(pkg, agent, user, seed):
        episodes.append(seed)
        if len(episodes) == 3:
            raise RuntimeError("episode blew up")
        return cli_run_episode(pkg, agent, user, seed=seed)

    cli_run_episode = cli.run_episode
    monkeypatch.setattr(cli, "run_episode", failing_third_episode)
    code, out, _ = run_cli(
        capsys, "rollout", str(fixture_dir),
        "--agent-cmd", scripted_port_cmd(fixture_dir, "agent"),
        "--user-cmd", scripted_port_cmd(fixture_dir, "user"),
        "--k", "6", "--parallel", "2", "--out-dir", str(tmp_path / "r"), "--json",
    )
    gc.collect()  # a port left open warns here, and the warning fails the test
    assert code == 3
    assert "episode blew up" in json.loads(out)["error"]
