"""In-memory engine: digests pinned across versions, and no temp files."""

from __future__ import annotations

import hashlib
import tempfile

import pytest

from policygym.executor import ToolCall, execute_tool, open_environment
from policygym.fixtures import corporate_travel as ct
from policygym.ports import ScriptedAgentPort, ScriptedUserPort
from policygym.rollout import export_trajectory, run_episode
from policygym.synthesis import StubGenerationPort, synthesize_package
from policygym.verify import canonicalize, diff

# Recorded trajectories replay against these values in `policygym score`;
# a change here breaks every recorded fixture trajectory.
ORIGIN_DIGEST = "833fe153ec371ccc88a305110618246edc210e7e9b69e54ac6ece62c18f2b44e"
AFTER_CALL_3 = "b27a3dbb34156c53cc0011cad920362a77fafd85bca356e88cd0f8951eae704b"
TARGET_DIGEST = "7b37bda22b41ff2366d28f9cbe86f914e678ef43bd8dc68777203f1c9e885960"

# (role, state_digest) of every turn of the fixture oracle episode
ORACLE_TURN_DIGESTS = (
    [("user", ORIGIN_DIGEST), ("agent_tool", ORIGIN_DIGEST), ("tool_result", ORIGIN_DIGEST),
     ("agent_tool", ORIGIN_DIGEST), ("tool_result", ORIGIN_DIGEST),
     ("agent_text", ORIGIN_DIGEST), ("user", ORIGIN_DIGEST)]
    + [("agent_tool", AFTER_CALL_3), ("tool_result", AFTER_CALL_3),
       ("agent_text", AFTER_CALL_3), ("user", AFTER_CALL_3),
       ("agent_tool", AFTER_CALL_3), ("tool_result", AFTER_CALL_3),
       ("agent_text", AFTER_CALL_3), ("user", AFTER_CALL_3)]
    + [("agent_tool", TARGET_DIGEST), ("tool_result", TARGET_DIGEST),
       ("agent_text", TARGET_DIGEST), ("user", TARGET_DIGEST)]
)

# SHA-256 of the fixture oracle episode's ``export_trajectory`` bytes: every
# result field and the JSON layout of a recorded trajectory
ORACLE_EXPORT_SHA256 = "2c1026ea2df93d2d482ff64deac668afcb423b75dfe3b67e80532555df4afa70"

# (tool, state_digest) of every explorer action in the stub synthesis round's
# synthesis_log.json; the log's readers check a package against these
SYNTH_EXPLORER_DIGESTS = [
    ("query_users", ORIGIN_DIGEST), ("query_travel_requests", ORIGIN_DIGEST),
    ("insert_flight_bookings", AFTER_CALL_3), ("query_preferred_vendors", AFTER_CALL_3),
    ("insert_hotel_bookings", TARGET_DIGEST),
]


def _oracle_episode(pkg):
    return run_episode(pkg, ScriptedAgentPort(ct.ORACLE_AGENT_SCRIPT),
                       ScriptedUserPort(ct.ORACLE_USER_SCRIPT))


def test_fixture_digests_are_pinned(travel_pkg):
    assert travel_pkg.origin_snapshot.digest() == ORIGIN_DIGEST
    assert travel_pkg.target_snapshot.digest() == TARGET_DIGEST
    trajectory = _oracle_episode(travel_pkg)
    assert [(t.role, t.state_digest) for t in trajectory.turns] == ORACLE_TURN_DIGESTS
    assert trajectory.r_final == 1


def test_fixture_oracle_export_is_pinned(travel_pkg, tmp_path):
    export_trajectory(_oracle_episode(travel_pkg), tmp_path / "oracle.jsonl")
    assert hashlib.sha256((tmp_path / "oracle.jsonl").read_bytes()).hexdigest() == (
        ORACLE_EXPORT_SHA256)


def test_stub_synthesis_explorer_digests_are_pinned():
    _, log = synthesize_package("corporate travel portal",
                                StubGenerationPort(ct.canned_generation_outputs()),
                                name="travel-synth", limits=ct.LIMITS)
    assert [(a["tool_call"]["tool_name"], a["result"]["state_digest"])
            for a in log["actions"]] == SYNTH_EXPLORER_DIGESTS


@pytest.fixture()
def no_temp_files(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("temp file requested")

    monkeypatch.setattr(tempfile, "mkstemp", refuse)
    monkeypatch.setattr(tempfile, "NamedTemporaryFile", refuse)


def test_engine_runs_without_temp_files(travel_pkg, no_temp_files):
    assert _oracle_episode(travel_pkg).r_final == 1
    with open_environment(travel_pkg) as env:
        execute_tool(env, ToolCall("transfer_to_human_agents", {"summary": "note"}))
        snap = env.snapshot()
        env.reset()
        assert env.digest() == ORIGIN_DIGEST
    assert snap.digest() != ORIGIN_DIGEST
    assert canonicalize(snap, travel_pkg.diff_config).row_count("escalations") == 1
    pkg, _ = synthesize_package("corporate travel portal",
                                StubGenerationPort(ct.canned_generation_outputs()),
                                name="travel-synth", limits=ct.LIMITS)
    assert diff(pkg.origin_snapshot, pkg.target_snapshot, pkg.diff_config).total == pkg.delta0
