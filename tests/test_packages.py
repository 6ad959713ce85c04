"""Package model: loading, validation, tool derivation, round-trips."""

from __future__ import annotations

import json
import os
import shutil
import sqlite3

import pytest

from policygym import load_package, save_package
from policygym.executor import ToolCall, execute_tool, open_environment, open_environment_at
from policygym.errors import (
    CompileFailure,
    IoFailure,
    MissingArtifact,
    SchemaMismatch,
    SpoilerLeak,
)
from policygym.fixtures import corporate_travel
from policygym.packages import (
    compile_environment,
    derive_tools,
    extract_trigger_annotations,
    find_spoiler,
    harvest_error_codes,
)
from policygym.snapshots import read_schema
from policygym.verify import diff


def test_fixture_loads_with_expected_counts(travel_pkg):
    kinds = {}
    for tool in travel_pkg.env.tool_catalog:
        kinds[tool.kind] = kinds.get(tool.kind, 0) + 1
    assert kinds == {"query": 9, "insert": 4, "update": 4, "escalation": 1}
    assert len(travel_pkg.env.tool_catalog) == 18
    # tool-count law: 3 * rw + ro + 1
    rw = len(travel_pkg.env.tables("read_write"))
    ro = len(travel_pkg.env.tables("read_only"))
    assert (rw, ro) == (4, 5)
    assert len(travel_pkg.env.tool_catalog) == 3 * rw + ro + 1
    assert travel_pkg.delta0 == 4
    assert not travel_pkg.trivial


def test_fixture_has_ten_tables_and_sixteen_triggers(travel_pkg):
    with travel_pkg.origin_snapshot.connect() as conn:
        tables = [r[0] for r in conn.execute(
            "SELECT name FROM sqlite_master WHERE type='table' AND name NOT LIKE 'sqlite_%'"
        )]
        assert len(tables) == 10
        assert "escalations" in tables
        assert len(read_schema(conn).triggers) == 16


def test_spoiler_leak_on_tool_name(fixture_dir, tmp_path):
    broken = tmp_path / "leaky"
    shutil.copytree(fixture_dir, broken)
    task = (broken / "task.md").read_text("utf-8")
    (broken / "task.md").write_text(task + "\nUse insert_flight_bookings now.\n", "utf-8")
    with pytest.raises(SpoilerLeak, match="insert_flight_bookings"):
        load_package(broken)


def test_spoiler_leak_on_redaction_listed_identifier(fixture_dir, tmp_path):
    broken = tmp_path / "leaky2"
    shutil.copytree(fixture_dir, broken)
    task = (broken / "task.md").read_text("utf-8")
    (broken / "task.md").write_text(task + "\nCheck the booking_step column.\n", "utf-8")
    with pytest.raises(SpoilerLeak, match="booking_step"):
        load_package(broken)


def test_schema_mismatch_names_missing_table(fixture_dir, tmp_path):
    broken = tmp_path / "mismatch"
    shutil.copytree(fixture_dir, broken)
    conn = sqlite3.connect(broken / "origin.db")
    conn.execute("DROP TABLE approvals")
    conn.commit()
    conn.close()
    with pytest.raises(SchemaMismatch, match="approvals"):
        load_package(broken)


def test_missing_artifact_names_file(fixture_dir, tmp_path):
    broken = tmp_path / "missing"
    shutil.copytree(fixture_dir, broken)
    os.unlink(broken / "policy.md")
    with pytest.raises(MissingArtifact, match="policy.md"):
        load_package(broken)


def test_empty_policy_rejected(fixture_dir, tmp_path):
    broken = tmp_path / "empty_policy"
    shutil.copytree(fixture_dir, broken)
    (broken / "policy.md").write_text("  \n", "utf-8")
    with pytest.raises(MissingArtifact, match="policy.md"):
        load_package(broken)


def test_compile_failure_carries_engine_message(fixture_dir, tmp_path):
    broken = tmp_path / "badtrig"
    shutil.copytree(fixture_dir, broken)
    triggers = (broken / "triggers.sql").read_text("utf-8")
    (broken / "triggers.sql").write_text(triggers[: len(triggers) // 2], "utf-8")
    with pytest.raises(CompileFailure):
        load_package(broken)


def test_trigger_referencing_missing_table_fails_compile():
    bad = corporate_travel.TRIGGERS_SQL.replace(
        "SELECT 1 FROM users WHERE id = NEW.user_id AND active = 1",
        "SELECT 1 FROM userz WHERE id = NEW.user_id AND active = 1",
    )
    with pytest.raises(CompileFailure, match="userz"):
        compile_environment(corporate_travel.SCHEMA_SQL, bad)


def test_derive_tools_zero_tables_yields_escalation_only():
    tools = derive_tools("", {})
    assert [t.name for t in tools] == ["transfer_to_human_agents"]
    assert tools[0].kind == "escalation"


def test_trigger_annotations_embed_quota_rule(travel_pkg):
    by_name = travel_pkg.env.tools_by_name()
    insert_flights = by_name["insert_flight_bookings"]
    assert any(
        "Maximum 3 flight bookings per travel request" in line
        for line in insert_flights.preconditions
    )
    assert "Maximum 3 flight bookings per travel request" in insert_flights.description
    assert any("policy_violation_flag" in line for line in insert_flights.side_effects)
    # AFTER UPDATE bookkeeping shows up on the update tool
    update_approvals = by_name["update_approvals"]
    assert any("flight_bookings" in line for line in update_approvals.side_effects)


def test_logic_exposed_interface_rule_holds(travel_pkg):
    info, _ = compile_environment(travel_pkg.env.schema, travel_pkg.env.triggers)
    annotations = extract_trigger_annotations(info)
    by_name = travel_pkg.env.tools_by_name()
    for table, events in annotations.items():
        if travel_pkg.env.permissions.get(table) != "read_write":
            continue
        for event, slot in events.items():
            tool = by_name[f"{event}_{table}"]
            if slot["preconditions"]:
                assert tool.preconditions
            if slot["side_effects"]:
                assert tool.side_effects


def test_query_tools_for_read_only_tables_only(travel_pkg):
    names = {t.name for t in travel_pkg.env.tool_catalog}
    for table in travel_pkg.env.tables("read_only"):
        assert f"query_{table}" in names
        assert f"insert_{table}" not in names
        assert f"update_{table}" not in names


def test_round_trip_preserves_texts_and_snapshots(travel_pkg, tmp_path):
    out = tmp_path / "roundtrip"
    save_package(travel_pkg, out)
    reloaded = load_package(out)
    assert reloaded.policy_doc == travel_pkg.policy_doc
    assert reloaded.task_description == travel_pkg.task_description
    assert reloaded.env.schema == travel_pkg.env.schema
    assert reloaded.env.triggers == travel_pkg.env.triggers
    cfg = travel_pkg.diff_config
    assert diff(reloaded.origin_snapshot, travel_pkg.origin_snapshot, cfg).total == 0
    assert diff(reloaded.target_snapshot, travel_pkg.target_snapshot, cfg).total == 0
    assert reloaded.delta0 == travel_pkg.delta0


def test_round_trip_then_single_row_edit_diffs_one(travel_pkg, tmp_path):
    out = tmp_path / "edited"
    save_package(travel_pkg, out)
    conn = sqlite3.connect(out / "origin.db")
    conn.execute("INSERT INTO escalations (summary) VALUES ('manual note')")
    conn.commit()
    conn.close()
    reloaded = load_package(out)
    d = diff(reloaded.origin_snapshot, travel_pkg.origin_snapshot, travel_pkg.diff_config)
    assert d.total == 1


def test_load_package_reads_wal_mode_images(travel_pkg, tmp_path):
    out = tmp_path / "wal"
    save_package(travel_pkg, out)
    for name in ("origin.db", "target.db"):
        conn = sqlite3.connect(out / name)
        assert conn.execute("PRAGMA journal_mode=WAL").fetchone() == ("wal",)
        conn.close()  # the last close checkpoints and removes the -wal file
        assert (out / name).read_bytes()[18:20] == b"\x02\x02"
    reloaded = load_package(out)
    assert reloaded.origin_snapshot.digest() == travel_pkg.origin_snapshot.digest()
    assert reloaded.target_snapshot.digest() == travel_pkg.target_snapshot.digest()
    assert reloaded.delta0 == travel_pkg.delta0
    for env in (open_environment(reloaded),
                open_environment_at(reloaded.env, reloaded.origin_snapshot)):
        with env:
            execute_tool(env, ToolCall("transfer_to_human_agents", {"summary": "note"}))
            env.reset()
            assert env.digest() == travel_pkg.origin_snapshot.digest()


def test_save_to_unwritable_location_raises_io_failure(travel_pkg, tmp_path):
    # a regular file where a directory is needed fails for any uid (root included)
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory", "utf-8")
    with pytest.raises(IoFailure):
        save_package(travel_pkg, blocker / "pkg")


def test_tools_json_written_and_matches_catalog(fixture_dir):
    doc = json.loads((fixture_dir / "tools.json").read_text("utf-8"))
    assert len(doc) == 18
    assert {t["name"] for t in doc} == {
        "query_approvals", "query_companies", "query_flight_bookings",
        "query_flight_classes", "query_users", "query_hotel_bookings",
        "query_preferred_vendors", "query_travel_policies", "query_travel_requests",
        "update_approvals", "update_flight_bookings", "update_hotel_bookings",
        "update_travel_requests",
        "insert_approvals", "insert_flight_bookings", "insert_hotel_bookings",
        "insert_travel_requests",
        "transfer_to_human_agents",
    }


def test_find_spoiler_is_wordwise_and_case_insensitive():
    tools = ["insert_flight_bookings"]
    redactions = ["users"]
    assert find_spoiler("please call Insert_Flight_Bookings", tools, redactions)
    assert find_spoiler("the users table", tools, redactions) == "users"
    assert find_spoiler("a user asked politely", tools, redactions) is None
    assert find_spoiler("unusersed word", tools, redactions) is None


def test_harvest_error_codes_order_deterministic():
    codes = harvest_error_codes(corporate_travel.TRIGGERS_SQL)
    assert codes[0] == "PREREQ_FAIL"
    assert "QUOTA_EXCEEDED" in codes
    assert "CALCULATION_ERROR" in codes
    assert codes == harvest_error_codes(corporate_travel.TRIGGERS_SQL)


def test_manifest_fields_round_trip(fixture_dir):
    manifest = json.loads((fixture_dir / "manifest.json").read_text("utf-8"))
    assert set(manifest) >= {"name", "domain", "permissions", "diff_config",
                             "limits", "redaction_list"}
    assert manifest["limits"] == {"max_turns": 50, "stop_token": "###STOP###"}
    assert manifest["diff_config"]["fk_mode"] == "drop"
    assert manifest["permissions"]["users"] == "read_only"
    assert manifest["permissions"]["approvals"] == "read_write"


def test_every_read_write_table_has_exactly_insert_query_update(travel_pkg):
    names = [t.name for t in travel_pkg.env.tool_catalog]
    for table in travel_pkg.env.tables("read_write"):
        for prefix in ("insert", "query", "update"):
            assert names.count(f"{prefix}_{table}") == 1
    assert not [n for n in names if n.startswith("delete_")]


@pytest.fixture
def read_schema_calls(monkeypatch):
    """Every catalog read made through ``read_schema``, counted."""
    from policygym import packages, verify

    calls = []

    def counting(conn):
        calls.append(conn)
        return read_schema(conn)

    for module in (packages, verify):
        monkeypatch.setattr(module, "read_schema", counting)
    return calls


def test_load_package_reads_the_catalog_once(fixture_dir, travel_pkg, read_schema_calls):
    """The compiled catalog serves the snapshot checks and the delta0 diff of
    images that the package's own DDL created."""
    pkg = load_package(fixture_dir)
    assert len(read_schema_calls) == 1
    assert pkg.delta0 == travel_pkg.delta0 == 4


def _recreate_with_other_ddl(path) -> None:
    """Rewrite the image at ``path`` with the same tables, column types and
    rows, created by CREATE TABLE statements of other text."""
    conn = sqlite3.connect(path)
    tables = conn.execute("SELECT name, sql FROM sqlite_master WHERE type = 'table'"
                          " AND name NOT LIKE 'sqlite_%' ORDER BY name").fetchall()
    rows = {name: conn.execute(f'SELECT * FROM "{name}"').fetchall() for name, _ in tables}
    conn.close()
    os.unlink(path)
    conn = sqlite3.connect(path)
    for name, sql in tables:
        conn.execute(sql.replace("(", "(\n    ", 1))
        if rows[name]:
            marks = ", ".join("?" * len(rows[name][0]))
            conn.executemany(f'INSERT INTO "{name}" VALUES ({marks})', rows[name])
    conn.commit()
    conn.close()


def test_an_image_of_the_same_shape_from_other_ddl_is_accepted(fixture_dir, travel_pkg,
                                                                tmp_path, read_schema_calls):
    other = tmp_path / "other_ddl"
    shutil.copytree(fixture_dir, other)
    _recreate_with_other_ddl(other / "target.db")
    pkg = load_package(other)
    with pkg.target_snapshot.connect() as conn:
        assert not pkg.env.schema_info.describes(conn)
    assert len(read_schema_calls) == 2  # the compile, then the target's own catalog
    assert pkg.delta0 == diff(travel_pkg.origin_snapshot, pkg.target_snapshot,
                              pkg.diff_config).total == 4
