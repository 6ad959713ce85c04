"""Incremental state verification against the full-scan reference.

Every check compares a tracked handle's digest with ``state_digest`` and its
distance with ``diff_canonical(canonicalize_connection(..), target).total``.
"""

from __future__ import annotations

import dataclasses
import random
import sqlite3
import sys
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from policygym import tracker
from policygym.executor import (
    ToolCall,
    open_environment,
    open_environment_at,
    safe_execute_tool,
)
from policygym.packages import (
    EnvironmentBundle,
    RolloutLimits,
    TaskPackage,
    compile_environment,
    derive_tools,
)
from policygym.rollout import EpisodeScorer
from policygym.snapshots import Snapshot, state_digest
from policygym.verify import DiffConfig, canonicalize, canonicalize_connection, diff, diff_canonical


class FullScan:
    """The reference values a tracked handle on ``pkg`` must reproduce."""

    def __init__(self, pkg):
        self.cfg = pkg.diff_config
        self.target = canonicalize(pkg.target_snapshot, pkg.diff_config)

    def check(self, env):
        assert env.digest() == state_digest(env.connection, env.schema_info)
        live = canonicalize_connection(env.connection, self.cfg, env.schema_info)
        assert env.distance() == diff_canonical(live, self.target).total


@pytest.fixture(scope="module")
def full_scan(travel_pkg):
    return FullScan(travel_pkg)


@pytest.fixture(scope="module")
def column_values(travel_pkg):
    """Values each column holds in the origin or the target, to draw calls from."""
    values = {}
    for snap in (travel_pkg.origin_snapshot, travel_pkg.target_snapshot):
        with snap.connect() as conn:
            for table, info in travel_pkg.env.schema_info.tables.items():
                for col in info.column_names:
                    found = conn.execute(
                        f'SELECT DISTINCT "{col}" FROM "{table}" LIMIT 8').fetchall()
                    values.setdefault((table, col), set()).update(v for (v,) in found)
    return {k: sorted(v, key=repr) for k, v in values.items()}


# --- random call sequences ---------------------------------------------------------

_ODD_VALUES = (None, 0, 1.5, "x", ["list"])  # the list is malformed on purpose
_SYSTEM_WRITES = (
    ("INSERT INTO escalations (summary) VALUES (?)", ("system note",)),
    ("DELETE FROM hotel_bookings WHERE id = (SELECT min(id) FROM hotel_bookings)", ()),
    ("UPDATE travel_requests SET current_step = current_step + 1", ()),
    ("CREATE INDEX IF NOT EXISTS hotel_cost ON hotel_bookings (cost)", ()),
)


@st.composite
def operations(draw, pkg, values):
    """One step: a tool call (valid, rejected, malformed or whole-table),
    a reset, or a system write."""
    choice = draw(st.integers(0, 19))
    if choice == 0:
        return ("reset",)
    if choice == 1:
        return ("system_write", draw(st.sampled_from(_SYSTEM_WRITES)))
    if choice == 2:
        name = draw(st.sampled_from(["nope", 7, None, ["x"], "insert_users"]))
        return ("call", ToolCall(name, {}))
    spec = draw(st.sampled_from(pkg.env.tool_catalog))
    columns = pkg.env.schema_info.tables[spec.table].column_names

    def value(col):
        return draw(st.sampled_from(values[(spec.table, col)] + list(_ODD_VALUES)))

    if spec.kind == "query":
        col = draw(st.sampled_from(columns))
        args = draw(st.sampled_from([{}, {"filters": {col: value(col)}}]))
    elif spec.kind == "insert":
        props = spec.parameter_schema["properties"]
        chosen = draw(st.sets(st.sampled_from(sorted(props))))
        keys = set(spec.parameter_schema["required"]) | chosen
        args = {k: value(k) for k in sorted(keys)}
    elif spec.kind == "update":
        set_col = draw(st.sampled_from([c for c in columns if c != "id"]))
        filters = draw(st.sampled_from([{}, {"id": value("id")}]))
        args = {"filters": filters, "set": {set_col: value(set_col)}}
    else:
        args = {"summary": draw(st.sampled_from(["please call me", "", 5]))}
    return ("call", ToolCall(spec.name, args))


def _apply(env, op):
    if op[0] == "reset":
        env.reset()
    elif op[0] == "system_write":
        try:
            env.system_write(*op[1])
        except sqlite3.Error:
            pass  # a trigger refused it; the write rolled back
    else:
        result = safe_execute_tool(env, op[1])
        assert result.state_digest == state_digest(env.connection, env.schema_info)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(data=st.data())
def test_random_sequences_match_full_scan(travel_pkg, full_scan, column_values, data):
    ops = data.draw(st.lists(operations(travel_pkg, column_values), max_size=25))
    with open_environment(travel_pkg) as env:
        assert env.tracked
        full_scan.check(env)
        for op in ops:
            _apply(env, op)
            full_scan.check(env)


# --- targeted cases -------------------------------------------------------------------

def test_whole_table_update_matches_full_scan(travel_pkg, full_scan):
    with open_environment(travel_pkg) as env:
        rows = env.connection.execute("SELECT COUNT(*) FROM travel_requests").fetchone()[0]
        result = safe_execute_tool(env, ToolCall(
            "update_travel_requests", {"filters": {}, "set": {"current_step": 16}}))
        assert result.ok and result.affected == rows > 1
        full_scan.check(env)
        assert env.distance() > travel_pkg.delta0


def test_reset_and_write_keep_logging_for_200_rounds(travel_pkg, full_scan):
    """``deserialize`` replaces main's schema object, to which the TEMP
    triggers are bound, so every reset makes SQLite re-read the TEMP schema.
    Without that the triggers fire only while the new object happens to get
    the old one's address; 200 seeded rounds of commits, rejections, system
    writes and resets must all log."""
    rng = random.Random(7)
    writes = [
        ToolCall("transfer_to_human_agents", {"summary": "note"}),
        ToolCall("update_travel_requests", {"filters": {}, "set": {"current_step": 16}}),
        ToolCall("insert_hotel_bookings", {"travel_request_id": 2, "hotel_vendor_id": "v_harbor",
                                           "cost": 250, "booking_step": 14}),
    ]
    rejected = ToolCall("update_travel_requests", {"filters": {"id": 2}, "set": {"status": "x"}})
    with open_environment(travel_pkg) as env:
        assert env.tracked
        for _ in range(200):
            for _ in range(rng.randint(0, 3)):
                call = rng.choice(writes + [rejected])
                result = safe_execute_tool(env, call)
                assert result.state_digest == state_digest(env.connection, env.schema_info)
            if rng.random() < 0.2:
                env.system_write("INSERT INTO escalations (summary) VALUES ('system')")
            full_scan.check(env)
            env.reset()
            assert env.digest() == travel_pkg.origin_snapshot.digest()


def test_digest_resumes_from_hash_marks(travel_pkg, full_scan, monkeypatch):
    """With a mark every 16 bytes, each digest resumes from a kept hash state
    close before its first changed record; a seeded mix of writes into
    several tables, deletions and resets must still match the full scan."""
    monkeypatch.setattr(tracker, "MARK", 16)
    pkg = dataclasses.replace(travel_pkg)  # a base built with the small marks
    rng = random.Random(11)
    calls = [
        ToolCall("transfer_to_human_agents", {"summary": "note"}),
        ToolCall("update_travel_requests", {"filters": {"id": 2}, "set": {"current_step": 15}}),
        ToolCall("update_travel_requests", {"filters": {}, "set": {"current_step": 16}}),
        ToolCall("insert_hotel_bookings", {"travel_request_id": 2, "hotel_vendor_id": "v_harbor",
                                           "cost": 250, "booking_step": 14}),
        ToolCall("update_travel_requests", {"filters": {"id": 2}, "set": {"status": "x"}}),
    ]
    deletion = "DELETE FROM hotel_bookings WHERE id = (SELECT max(id) FROM hotel_bookings)"
    with open_environment(pkg) as env:
        assert len(pkg.verification_base.marks) > 10
        for _ in range(120):
            roll = rng.random()
            if roll < 0.1:
                env.reset()
            elif roll < 0.2:
                env.system_write(deletion)
            else:
                safe_execute_tool(env, rng.choice(calls))
            full_scan.check(env)


def test_reads_inside_an_open_transaction_scan_in_full(travel_pkg, full_scan):
    with open_environment(travel_pkg) as env:
        env.connection.execute("BEGIN")
        env.connection.execute("INSERT INTO escalations (summary) VALUES ('pending')")
        full_scan.check(env)
        env.connection.execute("ROLLBACK")
        assert env.digest() == travel_pkg.origin_snapshot.digest()
        env.connection.execute("BEGIN")
        env.connection.execute("INSERT INTO escalations (summary) VALUES ('kept')")
        env.connection.execute("COMMIT")
        full_scan.check(env)


def test_a_change_the_log_missed_triggers_a_rescan(travel_pkg, full_scan):
    note = ToolCall("transfer_to_human_agents", {"summary": "first"})
    with open_environment(travel_pkg) as env:
        safe_execute_tool(env, note)
        env.connection.execute("DELETE FROM temp.policygym_changelog")  # lose the insert
        env.connection.execute("UPDATE escalations SET summary = 'second'")
        full_scan.check(env)


def test_rejected_call_reuses_the_digest(travel_pkg):
    with open_environment(travel_pkg) as env:
        before = env.digest()
        changes = env.connection.total_changes
        result = safe_execute_tool(env, ToolCall(
            "update_travel_requests", {"filters": {"id": 2}, "set": {"status": "NOT_A_STATUS"}}))
        assert result.status == "error"
        assert result.state_digest == before
        assert env.connection.total_changes == changes


def test_snapshot_images_hold_no_log(travel_pkg):
    with open_environment(travel_pkg) as env:
        safe_execute_tool(env, ToolCall("transfer_to_human_agents", {"summary": "note"}))
        with env.snapshot().connect() as conn:
            names = [r[0] for r in conn.execute("SELECT name FROM sqlite_master")]
    assert not any("changelog" in n for n in names)


def test_handles_opened_at_a_snapshot_are_not_tracked(travel_pkg):
    with open_environment_at(travel_pkg.env, travel_pkg.origin_snapshot) as env:
        assert not env.tracked
        with pytest.raises(RuntimeError):
            env.distance()


def test_threads_sharing_a_base_match_serial_runs(travel_pkg, monkeypatch):
    """Eight threads on two cores race to build one package's base, with a
    hash mark every 16 bytes, then score episodes on it; every digest and
    distance matches a serial run."""
    calls = [
        ToolCall("transfer_to_human_agents", {"summary": "help"}),
        ToolCall("update_travel_requests", {"filters": {}, "set": {"current_step": 12}}),
        ToolCall("insert_hotel_bookings", {"travel_request_id": 2, "hotel_vendor_id": "v_harbor",
                                           "cost": 250, "booking_step": 14}),
        ToolCall("update_travel_requests", {"filters": {"id": 2}, "set": {"status": "x"}}),
    ]

    def episode(pkg, shift: int):
        steps = calls[shift:] + calls[:shift]
        with EpisodeScorer(pkg) as scorer:
            return [(scorer.step(c)[0].state_digest, scorer.final_diff()) for c in steps]

    serial = [episode(travel_pkg, i % len(calls)) for i in range(32)]
    monkeypatch.setattr(tracker, "MARK", 16)
    fresh = dataclasses.replace(travel_pkg)  # no base built yet
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(episode, fresh, i % len(calls)) for i in range(32)]
            parallel = [f.result(timeout=60) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert parallel == serial


# --- the pool of idle tracked connections ------------------------------------------------

def _temp_objects(conn):
    return sorted(conn.execute("SELECT type, name FROM sqlite_temp_master"))


def test_a_closed_handle_gives_its_connection_to_the_next_open(travel_pkg, full_scan):
    pkg = dataclasses.replace(travel_pkg)  # a base with an empty pool
    with open_environment(pkg) as env:
        conn = env.connection
        log_objects = _temp_objects(conn)
        safe_execute_tool(env, ToolCall("transfer_to_human_agents", {"summary": "note"}))
        conn.execute("DELETE FROM hotel_bookings")  # logged, never read
    with open_environment(pkg) as env:
        assert env.connection is conn
        assert env.digest() == travel_pkg.origin_snapshot.digest()
        assert env.distance() == travel_pkg.delta0
        assert conn.execute("SELECT COUNT(*) FROM temp.policygym_changelog").fetchone() == (0,)
        assert _temp_objects(conn) == log_objects
        assert len(log_objects) == 1 + 3 * len(travel_pkg.env.schema_info.tables)
        assert conn.execute("PRAGMA foreign_keys").fetchone() == (1,)
        for call in (ToolCall("transfer_to_human_agents", {"summary": "again"}),
                     ToolCall("update_travel_requests", {"filters": {}, "set": {"current_step": 16}})):
            safe_execute_tool(env, call)
            full_scan.check(env)


def test_the_pool_holds_no_more_than_were_open_at_once(travel_pkg):
    pkg = dataclasses.replace(travel_pkg)
    first = [open_environment(pkg) for _ in range(2)]
    conns = {id(env.connection) for env in first}
    for env in first:
        env.close()
    second = [open_environment(pkg) for _ in range(3)]
    reused = [id(env.connection) in conns for env in second]
    for env in second:
        env.close()
    assert sorted(reused) == [False, True, True]


@pytest.mark.parametrize("misuse", ["system_write", "open_transaction"])
def test_handles_that_may_have_left_state_behind_are_not_pooled(travel_pkg, misuse):
    """``system_write`` runs any SQL (TEMP DDL too), and a handle closed
    inside a transaction holds uncommitted changes: neither connection is
    reused, and the next handle starts clean."""
    pkg = dataclasses.replace(travel_pkg)
    with open_environment(pkg) as env:
        conn = env.connection
        log_objects = _temp_objects(conn)
        if misuse == "system_write":
            env.system_write("CREATE TEMP TABLE escalations (summary)")
        else:
            conn.execute("BEGIN")
            conn.execute("INSERT INTO escalations (summary) VALUES ('pending')")
    with pytest.raises(sqlite3.ProgrammingError):
        conn.execute("SELECT 1")  # closed, not pooled
    with open_environment(pkg) as env:
        assert env.connection is not conn
        assert _temp_objects(env.connection) == log_objects
        assert env.digest() == travel_pkg.origin_snapshot.digest()


def test_a_closed_handle_cannot_reach_the_pooled_connection(travel_pkg):
    pkg = dataclasses.replace(travel_pkg)
    closed = open_environment(pkg)
    closed.close()
    with open_environment(pkg) as env:
        safe_execute_tool(env, ToolCall("transfer_to_human_agents", {"summary": "mine"}))
        digest = env.digest()
        for use in (lambda: closed.connection, closed.digest, closed.distance,
                    closed.snapshot, closed.reset,
                    lambda: closed.system_write("DELETE FROM escalations")):
            with pytest.raises(RuntimeError, match="closed"):
                use()
        assert env.digest() == digest == state_digest(env.connection, env.schema_info)


# --- schemas that keep the full scan ---------------------------------------------------------

def _package(schema_sql: str, origin_sql: str, target_sql: str, cfg: DiffConfig) -> TaskPackage:
    permissions = {"parents": "read_write", "children": "read_write"}

    _, empty = compile_environment(schema_sql, "")

    def image(rows_sql):
        with empty.connect() as conn:
            conn.executescript(rows_sql)
            return Snapshot(conn.serialize())

    origin, target = image(origin_sql), image(target_sql)
    bundle = EnvironmentBundle(schema=schema_sql, triggers="", permissions=permissions,
                               tool_catalog=derive_tools(schema_sql, permissions))
    return TaskPackage(name="small", domain="test", policy_doc="p", task_description="t",
                       env=bundle, origin_snapshot=origin, target_snapshot=target,
                       diff_config=cfg, limits=RolloutLimits(),
                       delta0=diff(origin, target, cfg).total)


_SCHEMA = """
CREATE TABLE parents (id INTEGER PRIMARY KEY, name TEXT NOT NULL{unique});
CREATE TABLE children (id INTEGER PRIMARY KEY, parent_id INTEGER REFERENCES parents(id),
                       label TEXT);
"""
_ORIGIN = """
INSERT INTO parents (id, name) VALUES (1, 'ann'), (2, 'bob'), (3, 'cy');
INSERT INTO children (parent_id, label) VALUES (1, 'a'), (2, 'b');
"""
_TARGET = _ORIGIN + "INSERT INTO children (parent_id, label) VALUES (2, 'c');"


def _drive(pkg, calls):
    full_scan = FullScan(pkg)
    with open_environment(pkg) as env:
        full_scan.check(env)
        for call in calls:
            safe_execute_tool(env, call)
            full_scan.check(env)
        return env.tracked


def test_replace_conflict_resolution_keeps_the_full_scan():
    """REPLACE deletes the conflicting row without firing delete triggers,
    so a change log would miss it."""
    pkg = _package(_SCHEMA.format(unique=" UNIQUE ON CONFLICT REPLACE"), _ORIGIN, _TARGET,
                   DiffConfig(excluded_columns={"parents": {"id"}, "children": {"id"}}))
    replacing = ToolCall("insert_parents", {"id": 4, "name": "cy"})
    tracked = _drive(pkg, [replacing, ToolCall("insert_children", {"parent_id": 2, "label": "c"})])
    assert not tracked
    with open_environment(pkg) as env:
        safe_execute_tool(env, replacing)
        names = [r[0] for r in env.connection.execute("SELECT name FROM parents ORDER BY id")]
        assert names == ["ann", "bob", "cy"]
        assert env.connection.execute("SELECT id FROM parents WHERE name = 'cy'").fetchone() == (4,)


def test_virtual_table_keeps_the_full_scan():
    """SQLite refuses triggers on a virtual table, so the log cannot follow it."""
    schema = _SCHEMA.format(unique="") + "CREATE VIRTUAL TABLE notes USING fts5(body);"
    pkg = _package(schema, _ORIGIN, _TARGET,
                   DiffConfig(excluded_columns={"parents": {"id"}, "children": {"id"}}))
    assert not _drive(pkg, [ToolCall("insert_children", {"parent_id": 2, "label": "c"})])


def test_canonical_remap_scores_by_full_scan():
    cfg = DiffConfig(excluded_columns={"parents": {"id"}, "children": {"id"}},
                     fk_mode="canonical_remap")
    pkg = _package(_SCHEMA.format(unique=""), _ORIGIN, _TARGET, cfg)
    tracked = _drive(pkg, [
        ToolCall("update_parents", {"filters": {"id": 2}, "set": {"name": "bea"}}),
        ToolCall("insert_children", {"parent_id": 2, "label": "c"}),
        ToolCall("update_parents", {"filters": {"id": 2}, "set": {"name": "bob"}}),
    ])
    assert tracked  # the digest stays incremental


def test_drop_mode_small_schema_is_tracked():
    pkg = _package(_SCHEMA.format(unique=""), _ORIGIN, _TARGET,
                   DiffConfig(excluded_columns={"parents": {"id"}, "children": {"id"}}))
    assert _drive(pkg, [ToolCall("insert_children", {"parent_id": 2, "label": "c"}),
                        ToolCall("update_children", {"filters": {}, "set": {"label": "z"}})])
