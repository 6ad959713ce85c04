"""Synthesis pipeline: architect loop, verification, seeding, probing,
exploration, projection and assembly under the deterministic stub port."""

from __future__ import annotations

import json

import pytest

from policygym import load_package, save_package
from policygym import executor, packages, snapshots, tracker
from policygym import synthesis as synthesis_module
from policygym.errors import (
    CompilationExhausted,
    ExplorationDiverged,
    RedactionIncomplete,
    SchemaMismatch,
    SeedRejected,
    SynthesisError,
)
from policygym.executor import ToolCall, execute_tool, open_environment_at
from policygym.fixtures import corporate_travel as ct
from policygym.synthesis import (
    EpisodeMessage,
    RawEpisode,
    StubGenerationPort,
    architect_compile,
    assemble_package,
    build_redaction_list,
    derive_probe_row,
    explore_episode,
    parse_permission_tags,
    probe_boundary_adjacency,
    project_user_view,
    seed_initial_state,
    synthesize_package,
    verify_environment,
)
from policygym.verify import diff


def stub_port() -> StubGenerationPort:
    return StubGenerationPort(ct.canned_generation_outputs())


def test_parse_permission_tags():
    tags = parse_permission_tags(ct.SCHEMA_SQL)
    assert tags["users"] == "read_only"
    assert tags["flight_classes"] == "read_only"
    assert tags["approvals"] == "read_write"
    assert len(tags) == 9


@pytest.mark.parametrize("comment, tags", [
    ('-- L0_REFERENCE Table: "order items"', {"order items": "read_only"}),
    ("--L1_ENTITY Table:[order items]", {"order items": "read_only"}),
    ("-- l2_transaction table: `it's`", {"it's": "read_write"}),
    ("-- NOTE Table: items", {}),
])
def test_parse_permission_tags_reads_quoted_names(comment, tags):
    assert parse_permission_tags(f"{comment}\nCREATE TABLE x (a);") == tags


def test_architect_replays_fixture_first_attempt():
    result = architect_compile("corporate travel", stub_port(), max_attempts=3)
    assert result.bundle.schema == ct.SCHEMA_SQL
    assert result.bundle.triggers == ct.TRIGGERS_SQL
    assert result.policy_doc == ct.POLICY_MD
    assert len(result.bundle.tool_catalog) == 18
    stages = {r.stage: r for r in result.reports}
    assert stages["tables"].physical == "pass"
    assert stages["tables"].attempts == 1
    assert stages["triggers"].physical == "pass"
    assert stages["policy"].semantic == "skipped"
    assert "QUOTA_EXCEEDED" in result.bundle.error_registry


def test_architect_check_fix_verify_recovers_from_bad_trigger():
    outputs = ct.canned_generation_outputs()
    broken = ct.TRIGGERS_SQL.replace("FROM users", "FROM userz", 1)
    outputs["triggers"] = [broken, ct.TRIGGERS_SQL]
    result = architect_compile("corporate travel", StubGenerationPort(outputs), max_attempts=3)
    trigger_reports = [r for r in result.reports if r.stage == "triggers"]
    assert [r.physical for r in trigger_reports] == ["fail", "pass"]
    assert trigger_reports[1].attempts == 2
    assert "userz" in trigger_reports[0].physical_message


def test_architect_exhaustion_and_zero_attempts():
    outputs = ct.canned_generation_outputs()
    outputs["tables"] = ["CREATE TABLE broken (" for _ in range(3)]
    with pytest.raises(CompilationExhausted):
        architect_compile("corporate travel", StubGenerationPort(outputs), max_attempts=3)
    with pytest.raises(CompilationExhausted):
        architect_compile("corporate travel", stub_port(), max_attempts=0)


def test_architect_semantic_checker_hook():
    checker = StubGenerationPort({"semantic_check": ["PASS", "PASS", "PASS"]})
    result = architect_compile("corporate travel", stub_port(), max_attempts=3,
                               semantic_checker=checker)
    assert all(r.semantic == "pass" for r in result.reports if r.physical == "pass")


def test_verify_environment_fixture_passes():
    report = verify_environment(ct.build_bundle())
    assert report.physical == "pass"
    assert report.accepted


def test_verify_environment_truncated_trigger_fails():
    bundle = ct.build_bundle()
    import dataclasses

    broken = dataclasses.replace(bundle, triggers=bundle.triggers[: len(bundle.triggers) // 2])
    report = verify_environment(broken)
    assert report.physical == "fail"
    assert report.physical_message


def test_verify_environment_empty_schema_vacuous_pass():
    from policygym.packages import EnvironmentBundle, derive_tools

    bundle = EnvironmentBundle(schema="", triggers="", permissions={},
                               tool_catalog=derive_tools("", {}), error_registry={})
    report = verify_environment(bundle)
    assert report.physical == "pass"
    assert any("vacuous" in w for w in report.warnings)


def test_verify_environment_warns_on_the_probes_that_surprise_it():
    """``notes`` drops a NULL body (ON CONFLICT IGNORE) instead of refusing
    it, and a trigger on ``tags`` refuses the derived valid row."""
    schema_sql = ("CREATE TABLE notes (id INTEGER PRIMARY KEY,\n"
                  "    body TEXT NOT NULL ON CONFLICT IGNORE);\n"
                  "CREATE TABLE tags (id INTEGER PRIMARY KEY, label TEXT NOT NULL);")
    triggers_sql = ("CREATE TRIGGER tags_no_probe BEFORE INSERT ON tags\n"
                    "WHEN NEW.label = 'probe'\n"
                    "BEGIN SELECT RAISE(ABORT, '[NO_PROBE] probe labels are refused'); END;")
    compiled = packages.compile_environment(schema_sql, triggers_sql)
    bundle = packages.EnvironmentBundle.from_schema(
        schema_sql, triggers_sql, compiled,
        {"notes": packages.READ_WRITE, "tags": packages.READ_WRITE}, {})
    report = verify_environment(bundle)
    assert report.physical == "pass"
    assert report.warnings == (
        "notes: invalid probe unexpectedly accepted",
        "tags: valid probe rejected: [NO_PROBE] probe labels are refused",
    )


def test_seed_initial_state_replays_fixture_origin():
    bundle = ct.build_bundle()
    snapshot = seed_initial_state(bundle, {}, stub_port())
    assert diff(snapshot, ct.build_origin_snapshot(bundle), ct.DIFF_CONFIG).total == 0


def test_seed_rejection_filtered_and_logged():
    bundle = ct.build_bundle()
    proposals = [
        {"table": "companies", "strategy": "distractors",
         "rows": [{"id": "c1", "name": "One", "active": 1},
                  {"id": "c2", "name": "Two", "active": 7}]},  # CHECK(active IN (0,1))
    ]
    port = StubGenerationPort({"seed_state": [json.dumps(proposals)]})
    snapshot = seed_initial_state(bundle, {"required_tables": ["companies"]}, port)
    with snapshot.connect() as conn:
        rows = conn.execute("SELECT id FROM companies ORDER BY id").fetchall()
    assert rows == [("c1",)]


def test_seed_rejected_when_required_table_empty():
    bundle = ct.build_bundle()
    proposals = [
        {"table": "companies", "strategy": "edge",
         "rows": [{"id": "c1", "name": "One", "active": 9}]},
    ]
    port = StubGenerationPort({"seed_state": [json.dumps(proposals)]})
    with pytest.raises(SeedRejected, match="companies"):
        seed_initial_state(bundle, {"required_tables": ["companies"]}, port)


def test_seed_empty_config_yields_empty_snapshot():
    bundle = ct.build_bundle()
    port = StubGenerationPort({"seed_state": ["[]"]})
    snapshot = seed_initial_state(bundle, {"required_tables": []}, port)
    with snapshot.connect() as conn:
        for table in ("users", "companies", "travel_requests"):
            assert conn.execute(f"SELECT COUNT(*) FROM {table}").fetchone()[0] == 0


def test_probe_boundary_adjacency_on_fixture_origin():
    bundle = ct.build_bundle()
    origin = ct.build_origin_snapshot(bundle)
    result = probe_boundary_adjacency(bundle, origin, probe_budget=32)
    flight_probes = [p for p in result.probes
                     if p["tool_call"]["tool_name"] == "insert_flight_bookings"]
    assert flight_probes and flight_probes[0]["outcome"] == "rejected"
    assert flight_probes[0]["code"] == "QUOTA_EXCEEDED"
    assert 0.0 < result.adjacency_score < 1.0
    # probes never persist
    assert diff(origin, ct.build_origin_snapshot(bundle), ct.DIFF_CONFIG).total == 0


def test_probe_empty_state_scores_zero():
    bundle = ct.build_bundle()
    result = probe_boundary_adjacency(bundle, ct.build_bundle().empty_snapshot, probe_budget=16)
    assert result.adjacency_score == 0.0


def test_integer_check_enum_probes_with_integers():
    """CHECK(urgent IN (0,1)) lists integers: the derived probe row must bind
    0, not '0', or the typed insert tool refuses the probe as malformed."""
    schema_sql = ("CREATE TABLE tickets (id INTEGER PRIMARY KEY AUTOINCREMENT,\n"
                  "    urgent INTEGER NOT NULL CHECK(urgent IN (0,1)));")
    triggers_sql = ("CREATE TRIGGER tickets_quota BEFORE INSERT ON tickets\n"
                    "WHEN (SELECT COUNT(*) FROM tickets) >= 3\n"
                    "BEGIN SELECT RAISE(ABORT, '[QUOTA] at most 3 tickets'); END;")
    compiled = packages.compile_environment(schema_sql, triggers_sql)
    bundle = packages.EnvironmentBundle.from_schema(
        schema_sql, triggers_sql, compiled, {"tickets": packages.READ_WRITE}, {})
    with bundle.empty_snapshot.connect() as conn:
        assert derive_probe_row(conn, bundle, "tickets") == {"urgent": 0}
    result = probe_boundary_adjacency(bundle, bundle.empty_snapshot, probe_budget=4)
    assert [(p["outcome"], p["code"]) for p in result.probes] == [("accepted", "")]
    assert result.adjacency_score == 0.0


@pytest.fixture
def digest_calls(monkeypatch):
    """Every full-scan ``state_digest`` call, counted."""
    calls, state_digest = [], snapshots.state_digest

    def counting(conn, schema=None):
        calls.append(conn)
        return state_digest(conn, schema)

    for module in (executor, snapshots, tracker):
        monkeypatch.setattr(module, "state_digest", counting)
    return calls


def test_only_recorded_explorer_actions_take_a_digest(digest_calls):
    """A synthesis round digests once per explorer action, the digest its log
    records; boundary probes are undone and take none."""
    _, log = synthesize_package("corporate travel portal", stub_port(),
                                name="travel-synth", limits=ct.LIMITS)
    assert len(digest_calls) == len(log["actions"]) == 5
    digest_calls.clear()
    bundle = ct.build_bundle()
    origin = ct.build_origin_snapshot(bundle)
    assert len(probe_boundary_adjacency(bundle, origin, probe_budget=32).probes) == 19
    assert digest_calls == []


def test_probe_pair_demonstrates_adjacency_at_n_minus_one():
    # quota 3 with 2 active flights: one insert accepted, the next rejected
    bundle = ct.build_bundle()
    origin = ct.build_origin_snapshot(bundle)
    with open_environment_at(bundle, origin) as env:
        cancel = execute_tool(env, ToolCall("update_flight_bookings", {
            "filters": {"id": 3},
            "set": {"status": "CANCELLED", "cancellation_step": 12, "refund_amount": 600},
        }))
        assert cancel.status == "success"
        adjacent = env.snapshot()

    probe = {"tool_name": "insert_flight_bookings", "arguments": {
        "travel_request_id": 1, "flight_code": "FL-PROBE", "cost": 50,
        "class": "ECONOMY", "departure_step": 30, "booking_step": 12}}
    with open_environment_at(bundle, adjacent) as env:
        accepted = execute_tool(env, ToolCall.from_json(probe))
        assert accepted.status == "success"
        rejected = execute_tool(env, ToolCall.from_json(
            {**probe, "arguments": {**probe["arguments"], "flight_code": "FL-PROBE2"}}
        ))
        assert rejected.status == "error"
        assert rejected.error.code == "QUOTA_EXCEEDED"


def test_explore_episode_reproduces_fixture_target():
    bundle = ct.build_bundle()
    origin = ct.build_origin_snapshot(bundle)
    port = stub_port()
    episode = explore_episode(bundle, origin, port, port, ct.LIMITS)
    target = ct.build_task_package().target_snapshot
    assert diff(episode.s_target, target, ct.DIFF_CONFIG).total == 0
    assert episode.goal == ct.EPISODE_GOAL
    assert len(episode.actions) == 5
    assert all(res.status == "success" for _, res in episode.actions)


def test_explore_episode_zero_action_client_stop():
    bundle = ct.build_bundle()
    origin = ct.build_origin_snapshot(bundle)
    port = StubGenerationPort({
        "client": [json.dumps({"message": "never mind, all good", "stop": True})],
        "consultant": [],
    })
    episode = explore_episode(bundle, origin, port, port, ct.LIMITS)
    assert episode.actions == ()
    assert diff(episode.s_target, origin, ct.DIFF_CONFIG).total == 0


def test_explore_episode_diverges_on_repeated_rejection():
    bundle = ct.build_bundle()
    origin = ct.build_origin_snapshot(bundle)
    bad_call = {"tool_name": "insert_flight_bookings", "arguments": {
        "travel_request_id": 1, "flight_code": "FL-BAD", "cost": 50,
        "class": "ECONOMY", "departure_step": 30, "booking_step": 12}}
    port = StubGenerationPort({
        "client": [json.dumps({"message": "add another flight", "stop": False})] * 3,
        "consultant": [json.dumps({"message": "trying again",
                                   "tool_calls": [bad_call] * 3})],
    })
    with pytest.raises(ExplorationDiverged, match="identical rejected"):
        explore_episode(bundle, origin, port, port, ct.LIMITS)


def test_explore_episode_diverges_on_turn_limit():
    bundle = ct.build_bundle()
    origin = ct.build_origin_snapshot(bundle)
    port = StubGenerationPort({
        "client": [json.dumps({"message": f"still thinking {i}", "stop": False})
                   for i in range(4)],
        "consultant": [json.dumps({"message": "ok", "tool_calls": []})] * 4,
    })
    from policygym.packages import RolloutLimits

    with pytest.raises(ExplorationDiverged, match="turn limit"):
        explore_episode(bundle, origin, port, port, RolloutLimits(max_turns=3), seed=0)


def test_project_user_view_strips_tools_and_key_values():
    episode = RawEpisode(
        transcript=(
            EpisodeMessage("client", "please run insert_flight_bookings for booking fb_17"),
            EpisodeMessage("consultant", "done via insert_flight_bookings"),
        ),
        actions=(),
        s_target=ct.build_bundle().empty_snapshot,
        goal="book whatever fb_17 needs",
    )
    text = project_user_view(episode, ("insert_flight_bookings", "fb_17"))
    assert "insert_flight_bookings" not in text
    assert "fb_17" not in text
    assert "consultant" not in text  # consultant speech never surfaces
    assert "[redacted]" in text


def test_project_user_view_client_only_transcript():
    episode = RawEpisode(
        transcript=(EpisodeMessage("client", "just the goal, please"),),
        actions=(),
        s_target=ct.build_bundle().empty_snapshot,
        goal="a simple errand",
    )
    text = project_user_view(episode, ())
    assert text.startswith("GOAL: a simple errand")
    assert "- just the goal, please" in text


def test_project_user_view_matches_fixture_task(fixture_dir):
    bundle = ct.build_bundle()
    origin = ct.build_origin_snapshot(bundle)
    port = stub_port()
    episode = explore_episode(bundle, origin, port, port, ct.LIMITS)
    tokens = build_redaction_list(bundle, episode, ct.REDACTION_LIST)
    text = project_user_view(episode, tokens)
    assert text == (fixture_dir / "task.md").read_text("utf-8")


def test_project_user_view_rewrite_leak_detected():
    episode = RawEpisode(
        transcript=(EpisodeMessage("client", "hello"),),
        actions=(), s_target=ct.build_bundle().empty_snapshot, goal="g",
    )

    class LeakyRewriter(StubGenerationPort):
        def generate(self, stage, context, seed):
            return "now mentioning insert_flight_bookings"

    with pytest.raises(RedactionIncomplete):
        project_user_view(episode, ("insert_flight_bookings",), port=LeakyRewriter({}))


def test_assemble_package_round_trips_and_flags_trivial(tmp_path):
    bundle = ct.build_bundle()
    origin = ct.build_origin_snapshot(bundle)
    port = stub_port()
    episode = explore_episode(bundle, origin, port, port, ct.LIMITS)
    tokens = build_redaction_list(bundle, episode, ct.REDACTION_LIST)
    task_text = project_user_view(episode, tokens)
    pkg = assemble_package(bundle, ct.POLICY_MD, origin, episode, task_text,
                           name="travel-synth", limits=ct.LIMITS, redaction_list=tokens)
    assert pkg.delta0 == 4
    save_package(pkg, tmp_path / "synth")
    reloaded = load_package(tmp_path / "synth")
    assert reloaded.delta0 == 4

    lazy = RawEpisode(transcript=(EpisodeMessage("client", "nothing"),), actions=(),
                      s_target=origin, goal="noop")
    with pytest.warns(UserWarning, match="trivial"):
        trivial = assemble_package(bundle, ct.POLICY_MD, origin, lazy, "GOAL: noop\n",
                                   name="noop")
    assert trivial.trivial


def test_assemble_package_refuses_an_image_that_does_not_conform():
    """A target whose table has the bundle's column names but not its column
    types fails the check that ``load_package`` makes, before any diff."""
    bundle = ct.build_bundle()
    origin = ct.build_origin_snapshot(bundle)
    with origin.connect() as conn:
        conn.executescript("DROP TABLE escalations; CREATE TABLE escalations "
                           "(id INTEGER PRIMARY KEY AUTOINCREMENT, summary BLOB NOT NULL);")
        other = snapshots.Snapshot.from_connection(conn)
    episode = RawEpisode(transcript=(EpisodeMessage("client", "nothing"),), actions=(),
                         s_target=other, goal="noop")
    with pytest.raises(SchemaMismatch, match="target.db: column mismatch in table escalations"):
        assemble_package(bundle, ct.POLICY_MD, origin, episode, "GOAL: noop\n")


def test_synthesize_package_end_to_end_ground_truth_non_drift(tmp_path):
    pkg, log = synthesize_package("corporate travel portal", stub_port(),
                                  name="travel-synth", limits=ct.LIMITS)
    assert log["adjacency_score"] > 0
    assert [s["physical"] for s in log["stages"]].count("pass") == len(log["stages"])
    # replaying the recorded episode actions from origin reproduces the target
    with open_environment_at(pkg.env, pkg.origin_snapshot) as env:
        for entry in log["actions"]:
            result = execute_tool(env, ToolCall.from_json(entry["tool_call"]))
            assert result.status == "success"
        assert diff(env.snapshot(), pkg.target_snapshot, pkg.diff_config).total == 0
    save_package(pkg, tmp_path / "synth")
    assert load_package(tmp_path / "synth").delta0 == pkg.delta0


def test_stub_pipeline_is_byte_reproducible(tmp_path):
    dirs = []
    for i in range(2):
        pkg, _ = synthesize_package("corporate travel portal", stub_port(),
                                    name="travel-synth", limits=ct.LIMITS)
        out = tmp_path / f"run{i}"
        save_package(pkg, out)
        dirs.append(out)
    for name in ("manifest.json", "policy.md", "task.md", "schema.sql",
                 "triggers.sql", "tools.json", "origin.db", "target.db"):
        assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes(), name


def test_verification_gate_blocks_seeding(monkeypatch):
    import policygym.synthesis as synthesis_module
    from policygym.synthesis import VerificationReport

    consulted = []

    class TattlingPort(StubGenerationPort):
        def generate(self, stage, context, seed):
            consulted.append(stage)
            return super().generate(stage, context, seed)

    monkeypatch.setattr(
        synthesis_module, "verify_environment",
        lambda bundle: VerificationReport(stage="triggers", physical="fail",
                                          physical_message="forced failure"),
    )
    port = TattlingPort(ct.canned_generation_outputs())
    with pytest.raises(CompilationExhausted, match="physical verification"):
        synthesize_package("corporate travel", port, name="x", limits=ct.LIMITS)
    assert "seed_state" not in consulted  # rejected bundles never reach seeding


@pytest.mark.parametrize("proposals", [
    [5],
    [{"rows": [{"id": "c1", "name": "One"}]}],
    [{"table": 5, "rows": []}],
    [{"table": "companies", "rows": "x"}],
    [{"table": "companies", "rows": [5]}],
])
def test_malformed_seed_proposals_are_synthesis_errors(proposals):
    port = StubGenerationPort({"seed_state": [json.dumps(proposals)]})
    with pytest.raises(SynthesisError, match="seed_state"):
        seed_initial_state(ct.build_bundle(), {}, port)


@pytest.mark.parametrize("tool_calls", [
    "nope",
    ["x"],
    [{"arguments": {}}],
    [{"tool_name": "query_users", "arguments": "x"}],
    [{"tool_name": "query_users", "arguments": None}],
])
def test_malformed_consultant_tool_calls_are_synthesis_errors(tool_calls):
    bundle = ct.build_bundle()
    port = StubGenerationPort({
        "client": [json.dumps({"message": "hello", "stop": False})],
        "consultant": [json.dumps({"message": "on it", "tool_calls": tool_calls})],
    })
    with pytest.raises(SynthesisError, match="consultant"):
        explore_episode(bundle, ct.build_origin_snapshot(bundle), port, port, ct.LIMITS)


@pytest.fixture()
def compiles(monkeypatch):
    """Every call of ``compile_environment``, in each module that binds it."""
    calls = []
    real = packages.compile_environment

    def counted(schema_sql, triggers_sql):
        calls.append(schema_sql)
        return real(schema_sql, triggers_sql)

    for module in (packages, synthesis_module, ct):
        monkeypatch.setattr(module, "compile_environment", counted)
    return calls


def test_stub_synthesis_compiles_its_ddl_twice(compiles):
    synthesize_package("corporate travel", stub_port(), name="x", limits=ct.LIMITS)
    assert len(compiles) == 2  # the tables stage, then the triggers stage


def test_fixture_package_compiles_its_ddl_once(compiles):
    ct.build_task_package()
    assert len(compiles) == 1


def test_stages_on_a_compiled_bundle_do_not_compile(compiles):
    bundle = ct.build_bundle()
    compiles.clear()
    assert verify_environment(bundle).accepted
    origin = seed_initial_state(bundle, {}, stub_port())
    probe_boundary_adjacency(bundle, origin, probe_budget=8)
    assert compiles == []
