"""Synthesis pipeline: architect loop, verification, seeding, probing,
exploration, projection and assembly under the deterministic stub port."""

from __future__ import annotations

import dataclasses
import json
import sqlite3

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from policygym import load_package, save_package
from policygym import executor, packages, snapshots, tracker
from policygym.errors import (
    CompilationExhausted,
    ExplorationDiverged,
    MissingArtifact,
    RedactionIncomplete,
    SchemaMismatch,
    SeedRejected,
    SpoilerLeak,
    SynthesisError,
)
from policygym.executor import ToolCall, execute_tool, open_environment_at
from policygym.fixtures import corporate_travel as ct
from policygym.synthesis import (
    EpisodeMessage,
    RawEpisode,
    StubGenerationPort,
    apply_seed_proposals,
    architect_compile,
    assemble_package,
    build_redaction_list,
    derive_probe_row,
    explore_episode,
    parse_permission_tags,
    probe_boundary_adjacency,
    project_user_view,
    quota_bearing_tables,
    seed_initial_state,
    synthesize_package,
    verify_environment,
)
from policygym.verify import diff

from conftest import clear_memos
from test_cli import _blob_package


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
    # a tag inside a string literal or a block comment is no comment
    ("CREATE TABLE y (a TEXT DEFAULT '-- L0_REFERENCE Table: x');", {}),
    ("/* -- L0_REFERENCE Table: x */", {}),
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
    bundle = packages.EnvironmentBundle.from_schema(
        schema_sql, triggers_sql, {"notes": packages.READ_WRITE, "tags": packages.READ_WRITE}, {})
    report = verify_environment(bundle)
    assert report.physical == "pass"
    assert report.warnings == (
        "notes: invalid probe unexpectedly accepted",
        "tags: valid probe rejected: [NO_PROBE] probe labels are refused",
    )


@pytest.fixture(scope="module")
def gate_bundles(tmp_path_factory):
    """The fixture's bundle, the BLOB package's, a stub-synthesized one and the
    fixture's with insert tools that require nothing (a catalog change alone)."""
    blob_dir = tmp_path_factory.mktemp("gate") / "blobs"
    _blob_package(blob_dir)
    fixture = ct.build_bundle()
    synthesized, _ = synthesize_package(ct.SEED_DOMAIN_TEXT, stub_port(), name="x",
                                        limits=ct.LIMITS)
    altered = dataclasses.replace(fixture, tool_catalog=tuple(
        dataclasses.replace(tool, parameter_schema={**tool.parameter_schema, "required": []})
        if tool.kind == "insert" else tool for tool in fixture.tool_catalog))
    return fixture, load_package(blob_dir).env, synthesized.env, altered


@settings(max_examples=20, deadline=None, derandomize=True)
@given(st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=8))
def test_the_memoized_gate_reports_what_the_uncached_gate_does(gate_bundles, order):
    """In any order of calls, ``verify_environment`` returns the report of its
    uncached reference (``__wrapped__``). The altered catalog changes the
    report, so a memo that ignored the catalog would fail here."""
    reference = verify_environment.__wrapped__
    fixture, _, _, altered = gate_bundles
    assert reference(altered) != reference(fixture)
    for index in order:
        bundle = gate_bundles[index]
        assert verify_environment(bundle) == reference(bundle)


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
    bundle = packages.EnvironmentBundle.from_schema(
        schema_sql, triggers_sql, {"tickets": packages.READ_WRITE}, {})
    with open_environment_at(bundle, bundle.empty_snapshot) as env:
        assert derive_probe_row(env.read, bundle, "tickets") == {"urgent": 0}
    result = probe_boundary_adjacency(bundle, bundle.empty_snapshot, probe_budget=4)
    assert [(p["outcome"], p["code"]) for p in result.probes] == [("accepted", "")]
    assert result.adjacency_score == 0.0


@pytest.mark.parametrize("when, tables", [
    ("WHEN (SELECT COUNT(*) FROM t) >= 3", ["t"]),
    ("WHEN (SELECT COUNT(*) FROM t) >=\n  3", ["t"]),
    # the only ">= 3" sits in the RAISE message or in a comment
    ("/* >= 3 */", []),
    ("", []),
])
def test_quota_bearing_tables_read_a_threshold_token(when, tables):
    info, _ = packages.compile_environment(
        "CREATE TABLE t (a);", f"CREATE TRIGGER q BEFORE INSERT ON t {when}"
        " BEGIN SELECT RAISE(ABORT, '[QUOTA] count >= 3'); END;")
    assert quota_bearing_tables(info) == tables


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
    """A synthesis round scans for the digests its log records only where the
    state may have changed: the explorer's first call and its two writes; its
    two queries reuse the digest before them. Boundary probes are undone and
    take none."""
    _, log = synthesize_package("corporate travel portal", stub_port(),
                                name="travel-synth", limits=ct.LIMITS)
    assert len(log["actions"]) == 5
    assert len(digest_calls) == 3
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
    types, and an origin with one trigger more than the bundle's, fail the
    checks that ``load_package`` makes, before any diff."""
    bundle = ct.build_bundle()
    origin = ct.build_origin_snapshot(bundle)
    with origin.connect() as conn:
        conn.executescript("DROP TABLE escalations; CREATE TABLE escalations "
                           "(id INTEGER PRIMARY KEY AUTOINCREMENT, summary BLOB NOT NULL);")
        other_types = snapshots.Snapshot.from_connection(conn)
    with origin.connect() as conn:
        conn.execute("CREATE TRIGGER no_escalations BEFORE INSERT ON escalations BEGIN "
                     "SELECT RAISE(ROLLBACK, 'closed'); END")
        one_more_trigger = snapshots.Snapshot.from_connection(conn)
    for s_origin, s_target, error in [
            (origin, other_types, "target.db: column mismatch in table escalations"),
            (one_more_trigger, origin, "origin.db: its triggers are not those of triggers.sql")]:
        episode = RawEpisode(transcript=(EpisodeMessage("client", "nothing"),), actions=(),
                             s_target=s_target, goal="noop")
        with pytest.raises(SchemaMismatch, match=error):
            assemble_package(bundle, ct.POLICY_MD, s_origin, episode, "GOAL: noop\n")


def _with_sql(snap, sql: str):
    with snap.connect() as conn:
        conn.executescript(sql)
        return snapshots.Snapshot.from_connection(conn)


@pytest.mark.parametrize("defect, error", [
    ("empty-policy", MissingArtifact), ("tool-name-in-task", SpoilerLeak),
    ("origin-extra-trigger", SchemaMismatch), ("target-missing-table", SchemaMismatch)])
def test_load_and_assemble_refuse_each_defect_alike(travel_pkg, tmp_path, defect, error):
    """The same defective parts, saved as a directory for ``load_package`` and
    handed to ``assemble_package``, raise the same error class with the same
    message on both paths (at the parent an empty policy was a SynthesisError
    when assembled and a spoiler had two messages)."""
    parts = dict(policy_doc=travel_pkg.policy_doc, task_description=travel_pkg.task_description,
                 origin_snapshot=travel_pkg.origin_snapshot,
                 target_snapshot=travel_pkg.target_snapshot)
    if defect == "empty-policy":
        parts["policy_doc"] = " \n"
    elif defect == "tool-name-in-task":
        parts["task_description"] += "\nUse insert_flight_bookings now.\n"
    elif defect == "origin-extra-trigger":
        parts["origin_snapshot"] = _with_sql(
            travel_pkg.origin_snapshot, "CREATE TRIGGER no_escalations BEFORE INSERT ON "
            "escalations BEGIN SELECT RAISE(ROLLBACK, 'closed'); END")
    else:
        parts["target_snapshot"] = _with_sql(travel_pkg.target_snapshot, "DROP TABLE approvals")
    save_package(dataclasses.replace(travel_pkg, **parts), tmp_path / "defective")
    with pytest.raises(error) as loaded:
        load_package(tmp_path / "defective")
    episode = RawEpisode(transcript=(EpisodeMessage("client", "nothing"),), actions=(),
                         s_target=parts["target_snapshot"], goal="noop")
    with pytest.raises(Exception) as assembled:
        assemble_package(travel_pkg.env, parts["policy_doc"], parts["origin_snapshot"], episode,
                         parts["task_description"], name=travel_pkg.name,
                         domain=travel_pkg.domain, diff_config=travel_pkg.diff_config,
                         limits=travel_pkg.limits, redaction_list=travel_pkg.redaction_list)
    assert type(assembled.value) is type(loaded.value)
    assert str(assembled.value) == str(loaded.value)


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
def compiles():
    """The number of DDL compiles run so far (memo misses), from empty memos."""
    clear_memos()
    return lambda: packages.compile_environment.cache_info().misses


def test_stub_synthesis_compiles_its_ddl_twice(compiles):
    synthesize_package("corporate travel", stub_port(), name="x", limits=ct.LIMITS)
    assert compiles() == 2  # the tables stage, then the triggers stage


def test_fixture_package_compiles_its_ddl_once(compiles):
    ct.build_task_package()
    assert compiles() == 1


def test_stages_on_a_compiled_bundle_do_not_compile(compiles):
    bundle = ct.build_bundle()
    assert compiles() == 1
    assert verify_environment(bundle).accepted
    origin = seed_initial_state(bundle, {}, stub_port())
    probe_boundary_adjacency(bundle, origin, probe_budget=8)
    assert compiles() == 1


# --- seeding and the explorer share one engine ------------------------------------------------

def _with_rejected_seed_rows() -> dict:
    """The stub's outputs with two more proposed seed rows, which the engine
    rejects: a CHECK failure and a trigger's RAISE."""
    proposals = json.loads(ct.canned_generation_outputs()["seed_state"][0])
    rows = {p["table"]: p["rows"] for p in proposals}
    rows["companies"].append({"id": "comp_gamma", "name": "Gamma", "active": 7})
    rows["flight_bookings"].append({"travel_request_id": 1, "flight_code": "FL-BAD", "cost": 50,
                                    "class": "ECONOMY", "departure_step": 30,
                                    "booking_step": 12})
    bundle = ct.build_bundle()
    with open_environment_at(bundle, bundle.empty_snapshot) as env:
        assert len(apply_seed_proposals(env, proposals)[1]) == 2
    return {**ct.canned_generation_outputs(), "seed_state": [json.dumps(proposals)]}


def _two_engine_round(outputs: dict) -> tuple[packages.TaskPackage, dict]:
    """``synthesize_package`` as its public stages run it, seeding and the
    explorer each on a fresh engine of its own."""
    port = StubGenerationPort(outputs)
    result = architect_compile(ct.SEED_DOMAIN_TEXT, port, 3)
    gate = verify_environment(result.bundle)
    origin = seed_initial_state(result.bundle, {}, port)
    probe = probe_boundary_adjacency(result.bundle, origin, 32)
    episode = explore_episode(result.bundle, origin, port, port, ct.LIMITS)
    redaction = build_redaction_list(result.bundle, episode)
    pkg = assemble_package(result.bundle, result.policy_doc, origin, episode,
                           project_user_view(episode, redaction), name="x", limits=ct.LIMITS,
                           redaction_list=redaction)
    return pkg, {
        "stages": [r.to_json() for r in result.reports] + [gate.to_json()],
        "adjacency_score": probe.adjacency_score,
        "probes": list(probe.probes),
        "goal": episode.goal,
        "actions": [{"tool_call": call.to_json(), "result": res.to_json()}
                    for call, res in episode.actions],
        "delta0": pkg.delta0,
    }


@pytest.mark.parametrize("outputs", [ct.canned_generation_outputs, _with_rejected_seed_rows],
                         ids=["stub", "rejected-seed-rows"])
def test_the_shared_engine_saves_the_bytes_of_two_engines(tmp_path, outputs):
    """The explorer continues on the engine that seeded its origin; the saved
    package (every file, ``origin.db`` and ``target.db`` included) and the
    synthesis log are those of a fresh engine for each, rounds alternating
    from cold memos."""
    clear_memos()
    rounds = []
    for index in range(4):
        if index % 2:
            pkg, log = _two_engine_round(outputs())
        else:
            pkg, log = synthesize_package(ct.SEED_DOMAIN_TEXT, StubGenerationPort(outputs()),
                                          name="x", limits=ct.LIMITS)
        save_package(pkg, tmp_path / str(index))
        rounds.append(({f.name: f.read_bytes() for f in (tmp_path / str(index)).iterdir()},
                       json.dumps(log, sort_keys=True)))
    assert rounds[1:] == [rounds[0]] * 3


def _diverging() -> dict:
    """The stub's outputs with a client that never confirms its goal."""
    return {**ct.canned_generation_outputs(),
            "client": [json.dumps({"message": f"still thinking {i}", "stop": False})
                       for i in range(4)],
            "consultant": [json.dumps({"message": "ok", "tool_calls": []})] * 4}


@pytest.mark.parametrize("outputs, cfg, error", [
    (ct.canned_generation_outputs, {"required_tables": ["escalations"]}, SeedRejected),
    (_diverging, {}, ExplorationDiverged),
], ids=["seed-rejected", "diverged"])
def test_a_failed_round_closes_its_shared_engine(monkeypatch, outputs, cfg, error):
    """The one fresh engine of a round (``open_environment_at`` opens it with
    ``executor.open_handle``; pooled probes do not) is closed when seeding or
    the explorer raises, so nothing is left for ``python -X dev`` to warn of."""
    engines, open_handle = [], executor.open_handle
    monkeypatch.setattr(executor, "open_handle", lambda data: engines.append(open_handle(data))
                        or engines[-1])
    with pytest.raises(error):
        synthesize_package(ct.SEED_DOMAIN_TEXT, StubGenerationPort(outputs()), strategy_cfg=cfg,
                           name="x", limits=packages.RolloutLimits(max_turns=3))
    assert len(engines) == 1
    with pytest.raises(sqlite3.ProgrammingError, match="closed"):
        engines[0].execute("SELECT 1")
