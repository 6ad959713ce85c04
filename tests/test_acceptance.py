"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see per-criterion lines.
"""

from __future__ import annotations

import itertools
import json
import random
import sys
import time

import pytest

from policygym import load_package
from policygym.advantage import group_advantages, turn_refine
from policygym.cli import main as cli_main
from policygym.executor import ToolCall, execute_tool, open_environment, safe_execute_tool
from policygym.fixtures import corporate_travel as ct
from policygym.packages import compile_environment
from policygym.rollout import compute_metrics, pass_at_k, pass_hat_k, run_episode
from policygym.verify import DiffConfig, diff, proximity

from conftest import snapshot_from_sql
from test_verify import brute_force_diff_total


def _report(criterion: int, elapsed: float, detail: str) -> None:
    print(f"[criterion {criterion}] PASS ({elapsed:.2f}s) {detail}")


def test_criterion_1_fixture_fidelity(travel_pkg):
    start = time.monotonic()
    info, _ = compile_environment(travel_pkg.env.schema, travel_pkg.env.triggers)
    assert len(info.triggers) == 16

    with open_environment(travel_pkg) as env:
        # QUOTA_EXCEEDED: request 1 already holds 3 active flights
        result = execute_tool(env, ToolCall("insert_flight_bookings", {
            "travel_request_id": 1, "flight_code": "FL-4TH", "cost": 100,
            "class": "ECONOMY", "departure_step": 30, "booking_step": 12,
        }))
        assert result.status == "error" and result.error.code == "QUOTA_EXCEEDED"

        # POLICY_VIOLATION: STAFF books BUSINESS (request 2 belongs to a
        # DIRECTOR, so open a fresh staff request first)
        execute_tool(env, ToolCall("insert_travel_requests", {
            "user_id": "u_staff_01", "trip_purpose": "Training week", "current_step": 12,
        }))
        staff_request = execute_tool(env, ToolCall("query_travel_requests", {
            "filters": {"trip_purpose": "Training week"},
        })).rows[0]
        result = execute_tool(env, ToolCall("insert_flight_bookings", {
            "travel_request_id": staff_request["id"], "flight_code": "FL-BIZ", "cost": 100,
            "class": "BUSINESS", "departure_step": 30, "booking_step": 12,
        }))
        assert result.status == "error" and result.error.code == "POLICY_VIOLATION"
        assert "Only DIRECTOR/VP level can book non-ECONOMY class" in result.error.message

        # IRREVERSIBLE: ticket a flight through the approval flow, then cancel
        execute_tool(env, ToolCall("insert_flight_bookings", {
            "travel_request_id": staff_request["id"], "flight_code": "FL-EXP",
            "cost": 1500, "class": "ECONOMY", "departure_step": 30,
            "booking_step": 12, "approval_status": "PENDING",
        }))
        approval = execute_tool(env, ToolCall("query_approvals", {
            "filters": {"status": "PENDING"},
        })).rows[0]
        execute_tool(env, ToolCall("update_approvals", {
            "filters": {"id": approval["id"]},
            "set": {"status": "APPROVED", "approver_id": "u_mgr_01"},
        }))
        ticketed = execute_tool(env, ToolCall("query_flight_bookings", {
            "filters": {"flight_code": "FL-EXP"},
        })).rows[0]
        assert ticketed["status"] == "TICKETED"
        result = execute_tool(env, ToolCall("update_flight_bookings", {
            "filters": {"id": ticketed["id"]},
            "set": {"status": "CANCELLED", "cancellation_step": 14, "refund_amount": 1500},
        }))
        assert result.status == "error" and result.error.code == "IRREVERSIBLE"

        # CALCULATION_ERROR: late cancel with a full-refund claim
        result = execute_tool(env, ToolCall("update_flight_bookings", {
            "filters": {"id": 1},
            "set": {"status": "CANCELLED", "cancellation_step": 20, "refund_amount": 300},
        }))
        assert result.status == "error" and result.error.code == "CALCULATION_ERROR"

    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    _report(1, elapsed, "16 triggers compiled; all four rejection codes fired")


def test_criterion_2_diff_oracle_equivalence():
    start = time.monotonic()
    rng = random.Random(2024)
    checked = 0
    for _ in range(1000):
        a, b, cfg = _random_snapshot_pair(rng)
        assert diff(a, b, cfg).total == brute_force_diff_total(a, b, cfg)
        checked += 1
    elapsed = time.monotonic() - start
    assert checked >= 1000
    assert elapsed < 60.0
    _report(2, elapsed, f"{checked} randomized pairs matched the brute-force oracle exactly")


def _random_snapshot_pair(rng: random.Random):
    n_tables = rng.randint(1, 5)
    column_pool = ["a", "b", "c", "d"]
    ddl = []
    for i in range(n_tables):
        cols = ", ".join(
            f"{name} {rng.choice(['INTEGER', 'TEXT', 'REAL'])}" for name in column_pool
        )
        ddl.append(
            f"CREATE TABLE t{i} (id INTEGER PRIMARY KEY AUTOINCREMENT, {cols})"
        )
    schema = ";\n".join(ddl) + ";"

    def build():
        stmts = [schema]
        for i in range(n_tables):
            for _ in range(rng.randint(0, 20)):
                values = [
                    rng.choice([None, rng.randint(-2, 2), rng.uniform(0, 2),
                                rng.choice(["x", "y", "z", ""])])
                    for _ in column_pool
                ]
                stmts.append((
                    f"INSERT INTO t{i} (a, b, c, d) VALUES (?, ?, ?, ?)", tuple(values),
                ))
        return snapshot_from_sql(stmts)

    excluded = {}
    for i in range(n_tables):
        cols = set()
        if rng.random() < 0.85:
            cols.add("id")
        if rng.random() < 0.3:
            cols.add(rng.choice(column_pool))
        if cols:
            excluded[f"t{i}"] = frozenset(cols)
    return build(), build(), DiffConfig(excluded_columns=excluded)


def test_criterion_3_reward_algebra(travel_pkg):
    start = time.monotonic()
    from policygym.ports import ScriptedAgentPort, ScriptedUserPort

    trajectories = [run_episode(
        travel_pkg,
        ScriptedAgentPort(ct.ORACLE_AGENT_SCRIPT),
        ScriptedUserPort(ct.ORACLE_USER_SCRIPT),
    )]
    rng = random.Random(31)
    for _ in range(12):
        script, user_lines = _random_agent_script(rng)
        trajectories.append(run_episode(
            travel_pkg, ScriptedAgentPort(script), ScriptedUserPort(user_lines),
        ))

    lam = travel_pkg.diff_config.lambda_err
    p0 = proximity(travel_pkg.delta0, travel_pkg.delta0, travel_pkg.diff_config.epsilon)
    violations = 0
    for trajectory in trajectories:
        tool_turns = trajectory.tool_turns()
        for turn in tool_turns:
            assert 0.0 <= turn.proximity <= 1.0
        clean_sum = 0.0
        p_last = p0
        for turn in tool_turns:
            is_violation = turn.content is not None and _is_violation(trajectory, turn)
            if is_violation:
                assert turn.reward == -lam
                violations += 1
            else:
                clean_sum += turn.reward
            p_last = turn.proximity
        assert clean_sum == pytest.approx(p_last - p0, abs=1e-9)
    elapsed = time.monotonic() - start
    assert violations > 0, "corpus must exercise the violation branch"
    _report(3, elapsed,
            f"{len(trajectories)} trajectories telescoped within 1e-9; "
            f"{violations} violation turns at exactly -lambda_err")


def _is_violation(trajectory, tool_turn) -> bool:
    for turn in trajectory.turns:
        if turn.role == "tool_result" and turn.index == tool_turn.index + 1:
            return turn.content.status == "error"
    return False


def _random_agent_script(rng: random.Random):
    actions = []
    n = rng.randint(1, 6)
    for _ in range(n):
        kind = rng.random()
        if kind < 0.35:
            actions.append({"tool_call": {"tool_name": "insert_flight_bookings", "arguments": {
                "travel_request_id": rng.choice([1, 2]),
                "flight_code": f"FL-{rng.randint(100, 999)}",
                "cost": rng.choice([100, 420, 1500]),
                "class": rng.choice(["ECONOMY", "BUSINESS"]),
                "departure_step": rng.randint(10, 30),
                "booking_step": 12,
            }}})
        elif kind < 0.55:
            actions.append({"tool_call": {"tool_name": "insert_hotel_bookings", "arguments": {
                "travel_request_id": rng.choice([1, 2]),
                "hotel_vendor_id": rng.choice(["v_grand", "v_harbor", "v_city", "v_missing"]),
                "cost": rng.randint(50, 400),
                "booking_step": 12,
            }}})
        elif kind < 0.75:
            actions.append({"tool_call": {"tool_name": "query_travel_requests", "arguments": {}}})
        else:
            actions.append({"tool_call": {"tool_name": "update_travel_requests", "arguments": {
                "filters": {"id": rng.choice([1, 2])},
                "set": {"status": rng.choice(["APPROVED", "SUBMITTED"])},
            }}})
    actions.append({"text": "done with this round"})
    user_lines = ["please proceed with my travel plans", "###STOP###"]
    return actions, user_lines


def test_criterion_4_advantage_algebra():
    start = time.monotonic()
    assert group_advantages([1, 1, 0, 0]) == [1.0, 1.0, -1.0, -1.0]

    rng = random.Random(77)
    eps_std = 1e-6
    for _ in range(1000):
        size = rng.randint(1, 8)
        rewards = [rng.choice([0.0, 1.0]) for _ in range(size)]
        a = group_advantages(rewards, eps_std)
        mean = sum(rewards) / size
        std = (sum((r - mean) ** 2 for r in rewards) / size) ** 0.5
        if std >= eps_std:
            assert abs(sum(a) / size) < 1e-12
        else:
            assert all(x == 0.0 for x in a)
        for a_i in a:
            dense = [round(rng.uniform(-0.5, 0.5), 3) for _ in range(rng.randint(0, 6))]
            refined = turn_refine(a_i, dense)
            for r, a_it in zip(dense, refined):
                assert a_it <= a_i
                assert (a_it == a_i) == (r >= 0)
    elapsed = time.monotonic() - start
    _report(4, elapsed, "1000 randomized groups: zero mean, refinement monotone")


def test_criterion_5_end_to_end_oracle_episode(fixture_dir, tmp_path, capsys):
    start = time.monotonic()
    agent_cmd = (f"{sys.executable} -m policygym.ports --role agent "
                 f"--script {fixture_dir / 'scripts' / 'agent_script.json'}")
    user_cmd = (f"{sys.executable} -m policygym.ports --role user "
                f"--script {fixture_dir / 'scripts' / 'user_script.json'}")
    exports = []
    for run in range(2):
        out_dir = tmp_path / f"run{run}"
        code = cli_main([
            "rollout", str(fixture_dir),
            "--agent-cmd", agent_cmd, "--user-cmd", user_cmd,
            "--k", "1", "--seed", "42", "--out-dir", str(out_dir), "--json",
        ])
        out = capsys.readouterr().out
        assert code == 0
        doc = json.loads(out)
        assert doc["episodes"][0]["termination"] == "stop_signal"
        assert doc["episodes"][0]["r_final"] == 1
        exports.append((out_dir / "trajectory_000.jsonl").read_bytes())
    assert exports[0] == exports[1], "seeded runs must be byte-identical"
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    with capsys.disabled():
        _report(5, elapsed, "stop signal, R_final=1, byte-identical exports across runs")


def test_criterion_6_ground_truth_non_drift(tmp_path, capsys):
    start = time.monotonic()
    seed_file = tmp_path / "seed.txt"
    seed_file.write_text(ct.SEED_DOMAIN_TEXT, "utf-8")
    out_dir = tmp_path / "synth"
    code = cli_main(["synthesize", str(seed_file), "stub", str(out_dir), "--json"])
    capsys.readouterr()
    assert code == 0

    pkg = load_package(out_dir)
    log = json.loads((out_dir / "synthesis_log.json").read_text("utf-8"))
    from policygym.executor import open_environment_at

    with open_environment_at(pkg.env, pkg.origin_snapshot) as env:
        for entry in log["actions"]:
            result = execute_tool(env, ToolCall.from_json(entry["tool_call"]))
            assert result.status == "success"
        replayed = env.snapshot()
    assert diff(replayed, pkg.target_snapshot, pkg.diff_config).total == 0
    elapsed = time.monotonic() - start
    with capsys.disabled():
        _report(6, elapsed, "replayed episode actions reproduce s_target with diff 0")


def test_criterion_7_atomicity_under_churn(travel_pkg):
    start = time.monotonic()
    rng = random.Random(9001)
    calls = 0
    errors = 0
    with open_environment(travel_pkg) as env:
        tables = ("travel_requests", "flight_bookings", "hotel_bookings",
                  "approvals", "escalations")
        def row_counts():
            return tuple(
                env.connection.execute(f"SELECT COUNT(*) FROM {t}").fetchone()[0]
                for t in tables
            )

        digest = env.digest()
        counts = row_counts()
        while calls < 10_000:
            call = _random_churn_call(rng)
            result = safe_execute_tool(env, call)
            calls += 1
            if result.status == "error":
                errors += 1
                assert result.state_digest == digest, f"state moved on error: {call}"
            digest = result.state_digest
            new_counts = row_counts()
            assert all(n >= o for n, o in zip(new_counts, counts)), "a row disappeared"
            counts = new_counts
    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    _report(7, elapsed,
            f"{calls} randomized calls, {errors} errors, state digest stable on "
            "every error, row counts non-decreasing")


def _random_churn_call(rng: random.Random) -> ToolCall:
    roll = rng.random()
    if roll < 0.03:
        return ToolCall("warp_reality", {"oops": True})
    if roll < 0.06:
        return ToolCall("update_users", {"filters": {"id": "u_dir_01"}, "set": {"active": 0}})
    if roll < 0.09:
        return ToolCall("insert_flight_bookings", {"bogus_column": 1})
    if roll < 0.17:
        return ToolCall(f"query_{rng.choice(['users', 'travel_requests', 'flight_bookings', 'approvals'])}", {})
    if roll < 0.23:
        return ToolCall("insert_travel_requests", {
            "user_id": rng.choice(["u_staff_01", "u_dir_01", "u_ghost", "u_staff_02"]),
            "trip_purpose": rng.choice(["Audit", "Expo", ""]),
            "current_step": rng.randint(10, 40),
        })
    if roll < 0.45:
        return ToolCall("insert_flight_bookings", {
            "travel_request_id": rng.randint(1, 6),
            "flight_code": f"FL-{rng.randint(100, 999)}",
            "cost": rng.choice([80, 420, 900, 1600]),
            "class": rng.choice(["ECONOMY", "BUSINESS", "FIRST"]),
            "departure_step": rng.randint(9, 40),
            "booking_step": rng.randint(8, 20),
            "approval_status": rng.choice(["NOT_REQUIRED", "PENDING"]),
        })
    if roll < 0.6:
        return ToolCall("insert_hotel_bookings", {
            "travel_request_id": rng.randint(1, 6),
            "hotel_vendor_id": rng.choice(["v_grand", "v_harbor", "v_city", "v_nope"]),
            "cost": rng.randint(40, 500),
            "booking_step": rng.randint(8, 20),
        })
    if roll < 0.68:
        return ToolCall("insert_approvals", {
            "flight_booking_id": rng.randint(1, 12),
            "status": rng.choice(["PENDING", "APPROVED"]),
            "step": rng.randint(8, 20),
        })
    if roll < 0.8:
        return ToolCall("update_flight_bookings", {
            "filters": {"id": rng.randint(1, 12)},
            "set": rng.choice([
                {"status": "CANCELLED", "cancellation_step": rng.randint(10, 30),
                 "refund_amount": rng.choice([80, 150, 210, 300, 420, 450, 600])},
                {"status": rng.choice(["APPROVED", "TICKETED"])},
                {"cost": rng.randint(50, 2000)},
            ]),
        })
    if roll < 0.9:
        return ToolCall("update_approvals", {
            "filters": {"id": rng.randint(1, 8)},
            "set": {"status": rng.choice(["APPROVED", "DENIED"]),
                    "approver_id": rng.choice(["u_mgr_01", "u_staff_01", "u_dir_01"])},
        })
    if roll < 0.97:
        return ToolCall("update_travel_requests", {
            "filters": {"id": rng.randint(1, 6)},
            "set": {"status": rng.choice(["SUBMITTED", "APPROVED", "CANCELLED"])},
        })
    return ToolCall("transfer_to_human_agents", {"summary": f"case {rng.randint(1, 99)}"})


def test_criterion_8_metrics_correctness(travel_pkg):
    start = time.monotonic()
    for n in range(1, 9):
        for c in range(0, n + 1):
            outcomes = [1] * c + [0] * (n - c)
            for k in range(1, n + 1):
                subsets = list(itertools.combinations(outcomes, k))
                any_rate = sum(1 for s in subsets if any(s)) / len(subsets)
                all_rate = sum(1 for s in subsets if all(s)) / len(subsets)
                assert pass_at_k(n, c, k) == pytest.approx(any_rate, abs=1e-12)
                assert pass_hat_k(n, c, k) == pytest.approx(all_rate, abs=1e-12)

    from policygym.ports import ScriptedAgentPort, ScriptedUserPort

    successes = 0
    for seed in range(4):
        trajectory = run_episode(
            travel_pkg,
            ScriptedAgentPort(ct.ORACLE_AGENT_SCRIPT),
            ScriptedUserPort(ct.ORACLE_USER_SCRIPT),
            seed=seed,
        )
        successes += trajectory.r_final
    metrics = compute_metrics(
        [{"task_id": travel_pkg.name, "successes": successes, "trials": 4}], 1
    )
    assert metrics["pass_hat_k"] == 1.0
    elapsed = time.monotonic() - start
    _report(8, elapsed,
            "pass@k/pass^k equal exhaustive enumeration for n<=8; "
            "four-run oracle pass^1 = 1.0")
