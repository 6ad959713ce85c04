"""Package model: loading, validation, tool derivation, round-trips."""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import shutil
import sqlite3
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from policygym import cli, load_package, packages, save_package
from policygym.executor import (ToolCall, execute_tool, open_environment, open_environment_at,
                                safe_execute_tool)
from policygym.errors import (
    CompileFailure,
    IoFailure,
    MissingArtifact,
    PackageError,
    SchemaMismatch,
    SpoilerLeak,
)
from policygym.fixtures import corporate_travel
from policygym.packages import (
    READ_WRITE,
    EnvironmentBundle,
    compile_environment,
    derive_tools,
    find_spoiler,
    harvest_error_codes,
    trigger_annotations,
)
from policygym.snapshots import catalog, read_schema
from policygym.synthesis import StubGenerationPort, synthesize_package
from policygym.verify import diff

from conftest import clear_memos


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


@pytest.mark.parametrize("dropped", [None, "validate_travel_request_update"])
def test_an_origin_without_the_package_triggers_is_refused(fixture_dir, tmp_path, dropped):
    """Handles run the origin image, so it must carry every compiled trigger
    (``None`` drops all of them)."""
    broken = tmp_path / "unguarded"
    shutil.copytree(fixture_dir, broken)
    conn = sqlite3.connect(broken / "origin.db")
    names = [r[0] for r in conn.execute("SELECT name FROM sqlite_master WHERE type = 'trigger'")]
    for name in names if dropped is None else [dropped]:
        conn.execute(f'DROP TRIGGER "{name}"')
    conn.commit()
    conn.close()
    with pytest.raises(SchemaMismatch, match="origin.db"):
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
    by_name = travel_pkg.env.tools_by_name()
    for table in travel_pkg.env.tables("read_write"):
        for kind in ("insert", "update"):
            tool = by_name[f"{kind}_{table}"]
            assert (tool.preconditions, tool.side_effects) == trigger_annotations(
                info, table, kind.upper())


@pytest.mark.parametrize("schema_sql, auto_key", [
    ("CREATE TABLE t (id INTEGER PRIMARY KEY, name TEXT)", "id"),
    ("CREATE TABLE t (id integer primary key autoincrement, name TEXT)", "id"),
    ("CREATE TABLE t (id INTEGER, name TEXT, PRIMARY KEY (id DESC))", "id"),
    # no rowid alias: an omitted key is stored as NULL, or refused by the engine
    ("CREATE TABLE t (id BIGINT PRIMARY KEY, name TEXT)", None),
    ("CREATE TABLE t (a INTEGER, b INTEGER, name TEXT, PRIMARY KEY (a, b))", None),
    ("CREATE TABLE t (id INTEGER PRIMARY KEY DESC, name TEXT)", None),
    ("CREATE TABLE t (id INTEGER PRIMARY KEY, name TEXT) WITHOUT ROWID", None),
])
def test_only_a_rowid_alias_is_published_as_auto_assigned(schema_sql, auto_key):
    bundle = EnvironmentBundle.from_schema(schema_sql, "", {"t": READ_WRITE}, {})
    contract = bundle.tools_by_name()["insert_t"].parameter_schema
    keys = [c.name for c in bundle.schema_info.tables["t"].columns if c.primary_key]
    omitted = [auto_key] if auto_key else []
    assert [k for k in keys if k not in contract["required"]] == omitted
    assert [k for k in keys
            if "auto-assigned" in contract["properties"][k].get("description", "")] == omitted
    with open_environment_at(bundle, bundle.empty_snapshot) as env:
        result = safe_execute_tool(env, ToolCall("insert_t", {"name": "x"}))
    assert (result.error and result.error.code) == (None if auto_key else "MALFORMED_ARGUMENTS")


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
    info, _ = compile_environment(corporate_travel.SCHEMA_SQL, corporate_travel.TRIGGERS_SQL)
    codes = harvest_error_codes(info)
    assert codes[0] == "PREREQ_FAIL"
    assert "QUOTA_EXCEEDED" in codes
    assert "CALCULATION_ERROR" in codes
    assert codes == harvest_error_codes(info)


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
    from policygym import packages, snapshots, verify

    calls = []

    def counting(conn):
        calls.append(conn)
        return read_schema(conn)

    for module in (packages, snapshots, verify):
        monkeypatch.setattr(module, "read_schema", counting)
    clear_memos()  # a memo hit reads no catalog
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
    assert len(read_schema_calls) == 2  # the compile, then the target's own catalog
    with pkg.target_snapshot.connect() as conn:
        assert catalog(conn, pkg.target_snapshot.data) is not pkg.env.schema_info
    assert pkg.delta0 == diff(travel_pkg.origin_snapshot, pkg.target_snapshot,
                              pkg.diff_config).total == 4


# --- the per-process memos of compiled DDL and shared bundles --------------------------------

def _stub_round(path):
    """A stub synthesis round, then save and load: the synthesized and the loaded package."""
    port = StubGenerationPort(corporate_travel.canned_generation_outputs())
    pkg, _ = synthesize_package(corporate_travel.SEED_DOMAIN_TEXT, port, name="x")
    save_package(pkg, path)
    return pkg, load_package(path)


def test_a_repeat_stub_round_and_its_load_compile_nothing(tmp_path):
    _stub_round(tmp_path / "first")
    misses = compile_environment.cache_info().misses
    pkg, loaded = _stub_round(tmp_path / "second")
    assert compile_environment.cache_info().misses == misses
    assert loaded == pkg


def test_a_compile_failure_is_raised_on_every_call_and_never_kept():
    before = compile_environment.cache_info()
    for attempt in (1, 2):
        with pytest.raises(CompileFailure, match="no such table"):
            compile_environment("CREATE TABLE t (a);",
                                "CREATE TRIGGER x AFTER INSERT ON t BEGIN DELETE FROM u; END")
        info = compile_environment.cache_info()
        assert (info.misses - before.misses, info.currsize) == (attempt, before.currsize)


def test_loading_one_package_twice_shares_one_bundle(fixture_dir, travel_pkg):
    a, b = load_package(fixture_dir), load_package(fixture_dir)
    assert a.env is b.env
    assert a is not b and a == b == travel_pkg


def test_permissions_and_registry_in_any_order_share_one_bundle(fixture_dir):
    """The bundle memo keys permissions and registry in sorted order, so the
    fixture's own bundle is the one its loaded package gets (whose manifest
    lists both sorted); a registry of None stays a bundle of its own."""
    reordered = [dict(reversed(d.items())) for d in (corporate_travel.PERMISSIONS,
                                                     corporate_travel.ERROR_HINTS)]
    assert list(reordered[0]) != list(corporate_travel.PERMISSIONS)
    bundle = corporate_travel.build_bundle()
    assert EnvironmentBundle.from_schema(corporate_travel.SCHEMA_SQL,
                                         corporate_travel.TRIGGERS_SQL, *reordered) is bundle
    assert load_package(fixture_dir).env is bundle
    harvested = EnvironmentBundle.from_schema(corporate_travel.SCHEMA_SQL,
                                              corporate_travel.TRIGGERS_SQL, reordered[0])
    assert harvested is not bundle


def test_threads_loading_one_package_at_once_get_equal_packages(fixture_dir, travel_pkg):
    clear_memos()  # every thread meets a cold memo
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, so that they race on each miss
    try:
        with ThreadPoolExecutor(4) as pool:
            loaded = list(pool.map(load_package, [fixture_dir] * 4, timeout=60))
    finally:
        sys.setswitchinterval(interval)
    assert all(pkg == travel_pkg for pkg in loaded)
    # a race may compile twice, but each memo keeps one entry for the one key
    assert compile_environment.cache_info().currsize == 1
    assert packages._shared_bundle.cache_info().currsize == 1


# --- total loading: a damaged file is a PackageError that names it ---------------------------

def _validate_json(path) -> tuple[int, dict, str]:
    """Exit code, JSON document and stderr of ``policygym validate <path> --json``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["validate", str(path), "--json"])
    return code, json.loads(out.getvalue()), err.getvalue()


def _zero_page_one_tail(data: bytes) -> bytes:
    return data[:100] + bytes(200) + data[300:]


@pytest.mark.parametrize("fname, damage, error", [
    ("task.md", lambda data: b"\xff" + data, "not UTF-8"),
    ("schema.sql", lambda data: data + b"\xc3", "not UTF-8"),
    ("manifest.json", lambda data: data.replace(b'"name"', b'"n\xffame"'), "manifest.json"),
    ("origin.db", lambda data: random.Random(0).randbytes(len(data)), "file is not a database"),
    ("origin.db", _zero_page_one_tail, "malformed"),
    ("target.db", _zero_page_one_tail, "malformed"),
])
def test_an_undecodable_file_is_a_package_error_naming_it(fixture_dir, tmp_path, fname, damage,
                                                          error):
    broken = tmp_path / "pkg"
    shutil.copytree(fixture_dir, broken)
    (broken / fname).write_bytes(damage((broken / fname).read_bytes()))
    with pytest.raises(PackageError, match=fname.replace(".", r"\.")) as raised:
        load_package(broken)
    assert error in str(raised.value)
    code, doc, err = _validate_json(broken)
    assert code == 1 and doc["error"].startswith(type(raised.value).__name__)
    assert "Traceback" not in err


_TEXT_FILES = ("manifest.json", "policy.md", "task.md", "schema.sql", "triggers.sql")
_SWAPS = (None, 0, -1, 2.5, True, "", "x", [], ["x"], {}, {"x": "y"})
_NOT_UTF8 = (b"\xff", b"\xc3", b"\xed\xa0\x80")  # a bad byte, a cut sequence, a surrogate


def _json_paths(doc, prefix=()):
    """The key path of every value inside the JSON document ``doc``."""
    items = (doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list)
             else ())
    for key, value in items:
        yield prefix + (key,)
        yield from _json_paths(value, prefix + (key,))


@st.composite
def _damaged_file(draw, files):
    """``(name, bytes)``: one file of ``files`` (name -> bytes) with bytes
    flipped, cut short, made non-UTF-8 or, for the manifest, a value swapped
    for one of another JSON type."""
    kind = draw(st.sampled_from(("flip", "truncate", "not utf-8", "swap")))
    fname = "manifest.json" if kind == "swap" else draw(st.sampled_from(sorted(files)))
    data = files[fname]
    if kind == "flip":
        damaged = bytearray(data)
        for at in draw(st.lists(st.integers(0, len(data) - 1), min_size=1, max_size=4)):
            damaged[at] ^= draw(st.integers(1, 255))
        return fname, bytes(damaged)
    if kind == "truncate":
        return fname, data[:draw(st.integers(0, len(data) - 1))]
    if kind == "not utf-8":
        at, bad = draw(st.integers(0, len(data))), draw(st.sampled_from(_NOT_UTF8))
        return fname, data[:at] + bad + data[at:]
    doc = json.loads(data)
    *parents, key = draw(st.sampled_from(list(_json_paths(doc))))
    node = doc
    for parent in parents:
        node = node[parent]
    node[key] = draw(st.sampled_from(_SWAPS))
    return fname, json.dumps(doc).encode()


@pytest.fixture(scope="module")
def package_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("total") / "pkg"
    corporate_travel.build(root)
    return root, {f: (root / f).read_bytes() for f in _TEXT_FILES + ("origin.db", "target.db")}


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.data())
def test_load_package_raises_only_package_errors_on_one_damaged_file(package_files, data):
    """Whatever one file of the fixture holds, ``load_package`` returns a
    package or raises a PackageError, and ``validate --json`` answers with a
    structured error, never ``internal:`` and a traceback."""
    root, files = package_files
    fname, damaged = data.draw(_damaged_file(files))
    with tempfile.TemporaryDirectory() as scratch:
        broken = Path(scratch) / "pkg"
        shutil.copytree(root, broken)
        (broken / fname).write_bytes(damaged)
        try:
            load_package(broken)
        except PackageError:
            code, doc, err = _validate_json(broken)
            assert code == 1 and not doc["error"].startswith("internal")
            assert "Traceback" not in err
