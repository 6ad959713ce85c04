"""Rollout engine: episode loop, trajectory recording, metrics, export."""

from __future__ import annotations

import dataclasses
import gc
import itertools
import json
import shlex
import sys
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from policygym.errors import InsufficientTrials, PortFailure
from policygym.fixtures import corporate_travel
from policygym.ports import (
    STDERR_TAIL,
    ScriptedAgentPort,
    ScriptedUserPort,
    SubprocessAgentPort,
    SubprocessTransport,
)
from policygym.rollout import (
    MAX_ACTIONS_PER_TURN,
    Trajectory,
    compute_metrics,
    detect_stop,
    export_trajectory,
    import_trajectory,
    pass_at_k,
    pass_hat_k,
    run_episode,
)


def oracle_ports():
    agent = ScriptedAgentPort(corporate_travel.ORACLE_AGENT_SCRIPT)
    user = ScriptedUserPort(corporate_travel.ORACLE_USER_SCRIPT)
    return agent, user


def test_detect_stop_standalone_rule():
    assert detect_stop("###STOP###", "###STOP###")
    assert detect_stop("  ###STOP###\n", "###STOP###")
    assert not detect_stop("ok ###STOP###", "###STOP###")
    assert not detect_stop("", "###STOP###")


def test_oracle_episode_succeeds(travel_pkg):
    agent, user = oracle_ports()
    trajectory = run_episode(travel_pkg, agent, user, seed=0)
    assert trajectory.termination == "stop_signal"
    assert trajectory.r_final == 1
    assert trajectory.final_diff == 0
    roles = [t.role for t in trajectory.turns]
    assert roles.count("user") == 5
    assert roles.count("agent_tool") == 5
    assert roles.count("tool_result") == 5
    # user turns never adjacent
    for a, b in zip(roles, roles[1:]):
        assert not (a == "user" and b == "user")


def test_oracle_rewards_telescope(travel_pkg):
    agent, user = oracle_ports()
    trajectory = run_episode(travel_pkg, agent, user, seed=0)
    tool_turns = trajectory.tool_turns()
    proximities = [t.proximity for t in tool_turns]
    assert all(0.0 <= p <= 1.0 for p in proximities)
    p_first_prev = 1 - min(travel_pkg.delta0, travel_pkg.delta0) / (
        travel_pkg.delta0 + travel_pkg.diff_config.epsilon
    )
    assert sum(trajectory.dense_rewards()) == pytest.approx(
        proximities[-1] - p_first_prev, abs=1e-9
    )
    assert proximities[-1] == 1.0
    assert trajectory.sum_dense == pytest.approx(1.0, abs=1e-6)


def test_turn_field_contract(travel_pkg):
    agent, user = oracle_ports()
    trajectory = run_episode(travel_pkg, agent, user, seed=0)
    for turn in trajectory.turns:
        if turn.role == "agent_tool":
            assert turn.proximity is not None and turn.reward is not None
            assert turn.mask_in_loss is False
        else:
            assert turn.proximity is None and turn.reward is None
        if turn.role in ("user", "tool_result"):
            assert turn.mask_in_loss is True
        if turn.role == "agent_text":
            assert turn.mask_in_loss is False


def test_budget_exhausted_when_user_never_stops(travel_pkg):
    pkg = dataclasses.replace(
        travel_pkg, limits=dataclasses.replace(travel_pkg.limits, max_turns=6)
    )
    agent = ScriptedAgentPort([{"text": f"thinking {i}"} for i in range(40)])
    user = ScriptedUserPort([f"keep going {i}" for i in range(40)])
    trajectory = run_episode(pkg, agent, user, seed=0)
    assert trajectory.termination == "budget_exhausted"
    assert sum(1 for t in trajectory.turns if t.role == "user") == 6
    assert trajectory.r_final == 0


def test_an_agent_that_never_answers_the_user_ends_at_the_action_cap(travel_pkg):
    call = {"tool_call": {"tool_name": "query_users", "arguments": {}}}
    agent = ScriptedAgentPort([call] * (MAX_ACTIONS_PER_TURN + 1))
    trajectory = run_episode(travel_pkg, agent, ScriptedUserPort(["hi", "###STOP###"]), seed=0)
    assert trajectory.termination == "budget_exhausted"
    assert trajectory.note == "agent action budget exhausted within one turn"
    assert len(trajectory.tool_turns()) == MAX_ACTIONS_PER_TURN
    assert [t.index for t in trajectory.turns] == list(range(len(trajectory.turns)))


def test_immediate_stop_yields_zero_agent_turns(travel_pkg):
    agent = ScriptedAgentPort([])
    user = ScriptedUserPort(["###STOP###"])
    trajectory = run_episode(travel_pkg, agent, user, seed=0)
    assert trajectory.termination == "stop_signal"
    assert [t.role for t in trajectory.turns] == ["user"]
    assert trajectory.final_diff == travel_pkg.delta0
    assert trajectory.r_final == 0


def test_port_failure_returns_partial_trajectory(travel_pkg):
    class ExplodingUser:
        def next_utterance(self, task, history, seed):
            raise RuntimeError("simulated outage")

    trajectory = run_episode(travel_pkg, ScriptedAgentPort([]), ExplodingUser(), seed=0)
    assert trajectory.termination == "deviation"
    assert "user port failure" in trajectory.note

    agent_fail = ScriptedAgentPort([])  # exhausts immediately -> PortFailure
    user = ScriptedUserPort(["please book the flight"])
    trajectory = run_episode(travel_pkg, agent_fail, user, seed=0)
    assert trajectory.termination == "deviation"
    assert "agent port failure" in trajectory.note


def test_violation_turn_rewards_minus_lambda(travel_pkg):
    agent = ScriptedAgentPort([
        {"tool_call": {"tool_name": "insert_flight_bookings", "arguments": {
            "travel_request_id": 1, "flight_code": "FL-900", "cost": 100,
            "class": "ECONOMY", "departure_step": 30, "booking_step": 12}}},
        {"text": "that was rejected"},
    ])
    user = ScriptedUserPort(["book a 4th flight on the onboarding trip", "###STOP###"])
    trajectory = run_episode(travel_pkg, agent, user, seed=0)
    rewards = trajectory.dense_rewards()
    assert rewards == [-travel_pkg.diff_config.lambda_err]
    result_turn = [t for t in trajectory.turns if t.role == "tool_result"][0]
    assert result_turn.content.error.code == "QUOTA_EXCEEDED"


def test_deviation_detector_hook(travel_pkg):
    agent, user = oracle_ports()
    trajectory = run_episode(
        travel_pkg, agent, user, seed=0,
        deviation_detector=lambda turns: len(turns) >= 2,
    )
    assert trajectory.termination == "deviation"


def test_export_import_round_trip(travel_pkg, tmp_path):
    agent, user = oracle_ports()
    trajectory = run_episode(travel_pkg, agent, user, seed=0)
    path = tmp_path / "episode.jsonl"
    export_trajectory(trajectory, path)
    again = import_trajectory(path)
    assert again == trajectory


def test_export_replay_is_byte_identical(travel_pkg, tmp_path):
    paths = []
    for i in range(2):
        agent, user = oracle_ports()
        trajectory = run_episode(travel_pkg, agent, user, seed=7)
        path = tmp_path / f"run{i}.jsonl"
        export_trajectory(trajectory, path)
        paths.append(path)
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_export_empty_trajectory_header_only(tmp_path):
    empty = Trajectory(package_id="p", turns=(), termination="budget_exhausted",
                       final_diff=3, r_final=0, sum_dense=0.0)
    path = tmp_path / "empty.jsonl"
    export_trajectory(empty, path)
    lines = path.read_text("utf-8").strip().splitlines()
    assert len(lines) == 1
    assert import_trajectory(path) == empty


def test_rescoring_from_export_matches(travel_pkg, tmp_path):
    agent, user = oracle_ports()
    trajectory = run_episode(travel_pkg, agent, user, seed=0)
    path = tmp_path / "episode.jsonl"
    export_trajectory(trajectory, path)
    from policygym.cli import _rescore

    rescored = _rescore(travel_pkg, import_trajectory(path))
    assert rescored.sum_dense == pytest.approx(trajectory.sum_dense, abs=1e-12)
    assert rescored.r_final == trajectory.r_final
    assert [t.reward for t in rescored.tool_turns()] == pytest.approx(
        trajectory.dense_rewards(), abs=1e-12
    )


# --- metrics -------------------------------------------------------------------

def test_pass_metrics_match_contract_examples():
    assert pass_hat_k(4, 3, 2) == pytest.approx(0.5)
    assert pass_at_k(4, 3, 2) == pytest.approx(1.0)
    for k in range(1, 5):
        assert pass_at_k(4, 4, k) == 1.0
        assert pass_hat_k(4, 4, k) == 1.0


def test_metrics_match_exhaustive_enumeration():
    for n in range(1, 7):
        for c in range(0, n + 1):
            outcomes = [1] * c + [0] * (n - c)
            for k in range(1, n + 1):
                subsets = list(itertools.combinations(outcomes, k))
                any_rate = sum(1 for s in subsets if any(s)) / len(subsets)
                all_rate = sum(1 for s in subsets if all(s)) / len(subsets)
                assert pass_at_k(n, c, k) == pytest.approx(any_rate, abs=1e-12)
                assert pass_hat_k(n, c, k) == pytest.approx(all_rate, abs=1e-12)


@given(
    n=st.integers(min_value=1, max_value=12),
    data=st.data(),
)
@settings(max_examples=200, deadline=None)
def test_pass_hat_never_exceeds_pass_at(n, data):
    c = data.draw(st.integers(min_value=0, max_value=n))
    k = data.draw(st.integers(min_value=1, max_value=n))
    assert pass_hat_k(n, c, k) <= pass_at_k(n, c, k) + 1e-12


def test_compute_metrics_means_and_errors():
    outcomes = [
        {"task_id": "a", "successes": 3, "trials": 4},
        {"task_id": "b", "successes": 4, "trials": 4},
    ]
    metrics = compute_metrics(outcomes, 2)
    assert metrics["pass_at_k"] == pytest.approx((1.0 + 1.0) / 2)
    assert metrics["pass_hat_k"] == pytest.approx((0.5 + 1.0) / 2)
    with pytest.raises(InsufficientTrials):
        compute_metrics(outcomes, 5)
    with pytest.raises(InsufficientTrials):
        compute_metrics([], 1)
    with pytest.raises(InsufficientTrials):
        pass_at_k(4, 3, 0)


def test_agent_multiple_tools_within_one_user_turn(travel_pkg):
    agent = ScriptedAgentPort([
        {"tool_call": {"tool_name": "query_users", "arguments": {}}},
        {"tool_call": {"tool_name": "query_companies", "arguments": {}}},
        {"tool_call": {"tool_name": "query_travel_requests", "arguments": {}}},
        {"text": "here is everything I found"},
    ])
    user = ScriptedUserPort(["give me a full overview", "###STOP###"])
    trajectory = run_episode(travel_pkg, agent, user, seed=0)
    roles = [t.role for t in trajectory.turns]
    assert roles == [
        "user",
        "agent_tool", "tool_result",
        "agent_tool", "tool_result",
        "agent_tool", "tool_result",
        "agent_text",
        "user",
    ]
    # read-only queries do not move the state
    assert all(r == 0.0 for r in trajectory.dense_rewards())


def test_subprocess_port_error_reply_keeps_its_message(travel_pkg, tmp_path):
    script = tmp_path / "agent_script.json"
    script.write_text(json.dumps([{"text": "Hello, how can I help?"}]))
    agent = SubprocessAgentPort(
        f"{sys.executable} -m policygym.ports --role agent --script {script}", timeout=30)
    user = ScriptedUserPort(["hi", "please book the flight"])
    try:
        trajectory = run_episode(travel_pkg, agent, user, seed=0)
    finally:
        agent.close()
    assert trajectory.termination == "deviation"
    assert "agent script exhausted" in trajectory.note


def test_subprocess_agent_call_with_null_arguments_gets_feedback(travel_pkg, tmp_path):
    """A call whose arguments are not an object is the agent's mistake: it
    comes back as MALFORMED_ARGUMENTS, and the episode goes on."""
    script = tmp_path / "agent_script.json"
    script.write_text(json.dumps([
        {"tool_call": {"tool_name": "query_users", "arguments": None}},
        {"text": "That call was malformed, sorry."},
    ]))
    agent = SubprocessAgentPort(
        f"{sys.executable} -m policygym.ports --role agent --script {script}", timeout=30)
    try:
        trajectory = run_episode(travel_pkg, agent, ScriptedUserPort(["hi", "###STOP###"]),
                                 seed=0)
    finally:
        agent.close()
    assert trajectory.termination == "stop_signal", trajectory.note
    roles = [t.role for t in trajectory.turns]
    assert roles[1:3] == ["agent_tool", "tool_result"]
    assert trajectory.turns[1].content.arguments is None
    assert trajectory.turns[2].content.error.code == "MALFORMED_ARGUMENTS"


def test_a_step_with_tool_call_and_text_is_the_same_call_in_process_and_over_the_wire(
        travel_pkg, tmp_path):
    """A script step holding both keys is its tool_call, whether a
    ScriptedAgentPort replays it or ``python -m policygym.ports`` serves it."""
    script = [{"text": "Let me look you up.",
               "tool_call": {"tool_name": "query_users", "arguments": {}}},
              {"text": "Found you."}]
    path = tmp_path / "agent_script.json"
    path.write_text(json.dumps(script), "utf-8")
    in_process = run_episode(travel_pkg, ScriptedAgentPort(script),
                             ScriptedUserPort(["hi", "###STOP###"]), seed=0)
    agent = SubprocessAgentPort(
        f"{shlex.quote(sys.executable)} -m policygym.ports --role agent "
        f"--script {shlex.quote(str(path))}", timeout=30)
    try:
        over_the_wire = run_episode(travel_pkg, agent, ScriptedUserPort(["hi", "###STOP###"]),
                                    seed=0)
    finally:
        agent.close()
    assert [t.role for t in in_process.turns] == [
        "user", "agent_tool", "tool_result", "agent_text", "user"]
    assert in_process.turns[1].content.tool_name == "query_users"
    assert over_the_wire == in_process


def test_a_closed_subprocess_port_leaves_no_open_file(travel_pkg, tmp_path, monkeypatch):
    """Closing a port closes its pipes and its stderr file; nothing is left
    for the garbage collector to warn about."""
    gc.collect()  # garbage left by earlier tests is not this test's
    unraisable = []  # a warning raised inside a finalizer lands here
    monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
    script = tmp_path / "agent_script.json"
    script.write_text(json.dumps([{"text": "Hello, how can I help?"}]))
    with warnings.catch_warnings():
        warnings.simplefilter("error", ResourceWarning)
        agent = SubprocessAgentPort(
            f"{sys.executable} -m policygym.ports --role agent --script {script}", timeout=30)
        try:
            run_episode(travel_pkg, agent, ScriptedUserPort(["hi", "book it"]), seed=0)
        finally:
            agent.close()
        del agent
        gc.collect()
    assert [u.exc_value for u in unraisable] == []


def test_port_failure_quotes_the_tail_of_the_port_stderr():
    code = ("import sys; sys.stderr.write('x' * 10000 + 'config file missing'); "
            "sys.stderr.flush(); sys.exit(3)")
    transport = SubprocessTransport(f"{shlex.quote(sys.executable)} -c {shlex.quote(code)}",
                                    timeout=30)
    try:
        with pytest.raises(PortFailure) as failure:
            transport.request({"type": "agent_turn"})
    finally:
        transport.close()
    message = str(failure.value)
    assert message.endswith("config file missing")
    assert STDERR_TAIL <= len(message) < STDERR_TAIL + 100
