"""The one savepoint rule: every write a handle runs, and every boundary probe,
is kept or undone through ``executor.savepoint``, including writes that a
trigger ends with ``RAISE(ROLLBACK)`` (the whole transaction is gone) or with
``RAISE(FAIL)`` (the statement's earlier changes would otherwise stay)."""

from __future__ import annotations

import sqlite3

import pytest

from policygym import tracker
from policygym.executor import (
    ToolCall,
    _dispatch_folded,
    execute_tool,
    open_environment,
    open_environment_at,
    safe_execute_tool,
    savepoint,
)
from policygym.fixtures import corporate_travel as ct
from policygym.packages import (
    READ_ONLY,
    READ_WRITE,
    EnvironmentBundle,
    RolloutLimits,
    TaskPackage,
)
from policygym.snapshots import Snapshot, state_digest
from policygym.synthesis import probe_boundary_adjacency
from policygym.verify import DiffConfig, diff

_SCHEMA = """
CREATE TABLE accounts (id INTEGER PRIMARY KEY,
                       status TEXT NOT NULL CHECK(status IN ('open', 'frozen', 'closed')));
CREATE TABLE audit (id INTEGER PRIMARY KEY AUTOINCREMENT, note TEXT NOT NULL);
CREATE TABLE branches (id INTEGER PRIMARY KEY);
"""
_TRIGGERS = """
CREATE TRIGGER accounts_never_close BEFORE UPDATE OF status ON accounts
WHEN NEW.status = 'closed'
BEGIN SELECT RAISE(ROLLBACK, '[NO_CLOSE] accounts are never closed'); END;
CREATE TRIGGER accounts_freeze_needs_review AFTER UPDATE OF status ON accounts
WHEN NEW.status = 'frozen'
BEGIN
    INSERT INTO audit (note) VALUES ('froze ' || NEW.id);
    SELECT RAISE(FAIL, '[NO_FREEZE] freezing needs a review');
END;
CREATE TRIGGER audit_holds_one BEFORE INSERT ON audit
WHEN (SELECT COUNT(*) FROM audit) >= 1
BEGIN SELECT RAISE(ABORT, '[AUDIT_FULL] the audit holds one note'); END;
"""
_CLOSE = ToolCall("update_accounts", {"filters": {"id": 1}, "set": {"status": "closed"}})
_FREEZE = ToolCall("update_accounts", {"filters": {"id": 1}, "set": {"status": "frozen"}})
_NOTE = ToolCall("insert_audit", {"note": "target"})
_READ = ToolCall("query_accounts", {})
_REOPEN = ToolCall("update_accounts", {"filters": {"id": 2}, "set": {"status": "open"}})


_PERMISSIONS = {"accounts": READ_WRITE, "audit": READ_WRITE, "branches": READ_ONLY}


def _accounts_package(schema: str = _SCHEMA, triggers: str = _TRIGGERS,
                      permissions: dict = _PERMISSIONS) -> TaskPackage:
    """Two open accounts; the target adds one audit note."""
    bundle = EnvironmentBundle.from_schema(schema, triggers, permissions, {})
    with bundle.empty_snapshot.connect() as conn:
        conn.execute("INSERT INTO accounts (id, status) VALUES (1, 'open'), (2, 'open')")
        origin = Snapshot.from_connection(conn)
        conn.execute("INSERT INTO audit (note) VALUES ('target')")
        target = Snapshot.from_connection(conn)
    cfg = DiffConfig()
    return TaskPackage(name="accounts", domain="test", policy_doc="p", task_description="t",
                       env=bundle, origin_snapshot=origin, target_snapshot=target,
                       diff_config=cfg, limits=RolloutLimits(),
                       delta0=diff(origin, target, cfg).total)


@pytest.fixture(scope="module")
def accounts_pkg() -> TaskPackage:
    return _accounts_package()


@pytest.mark.parametrize("call, code", [
    (_CLOSE, "NO_CLOSE"), (_FREEZE, "NO_FREEZE"),
    (ToolCall("delete_accounts", {"filters": {"id": 1}}), "UNKNOWN_TOOL"),
    (ToolCall("insert_branches", {"id": 3}), "READ_ONLY_TABLE"),
    (ToolCall("update_accounts", {"filters": {"id": 1}, "set": {"status": 5}}),
     "MALFORMED_ARGUMENTS"),
], ids=["raise_rollback", "raise_fail", "unknown_tool", "read_only_table", "malformed_arguments"])
@pytest.mark.parametrize("opened_at", [False, True], ids=["tracked", "open_environment_at"])
def test_a_rolled_back_or_failed_write_leaves_no_trace(accounts_pkg, call, code, opened_at):
    if opened_at:
        handle = open_environment_at(accounts_pkg.env, accounts_pkg.origin_snapshot)
    else:
        handle = open_environment(accounts_pkg)
    with handle as env:
        assert env.tracked is not opened_at
        before = env.digest()
        for _ in range(2):  # the second time on a handle a rejection already went through
            result = safe_execute_tool(env, call)
            assert result.status == "error" and result.error.code == code
            assert result.state_digest == before == accounts_pkg.origin_snapshot.digest()
            assert not env.connection.in_transaction
            assert env.connection.execute("SELECT COUNT(*) FROM audit").fetchone() == (0,)
            assert env.connection.execute(
                "SELECT status FROM accounts WHERE id = 1").fetchone() == ("open",)
        # the handle still keeps a write, and its digest follows the full scan
        kept = safe_execute_tool(env, _NOTE)
        assert kept.ok and kept.state_digest == state_digest(env.connection)
        # execute_tool stamps it too: on a query, a write and an engine error
        for other in (_READ, _REOPEN, _CLOSE):
            assert execute_tool(env, other).state_digest == state_digest(env.connection)
        if env.tracked:
            assert env.distance() == 0


def test_probes_that_raise_rollback_or_fail_each_start_from_s(accounts_pkg):
    """Each accepted note would fill the one-note audit if it persisted, so
    every later note or freeze probe would then read AUDIT_FULL."""
    specs = [c.to_json() for c in (_CLOSE, _NOTE, _FREEZE, _NOTE, _NOTE, _CLOSE, _NOTE)]
    result = probe_boundary_adjacency(accounts_pkg.env, accounts_pkg.origin_snapshot,
                                      probe_budget=len(specs), probe_specs=specs)
    assert [(p["tool_call"]["tool_name"], p["outcome"], p["code"]) for p in result.probes] == [
        ("update_accounts", "rejected", "NO_CLOSE"),
        ("insert_audit", "accepted", ""),
        ("update_accounts", "rejected", "NO_FREEZE"),
        ("insert_audit", "accepted", ""),
        ("insert_audit", "accepted", ""),
        ("update_accounts", "rejected", "NO_CLOSE"),
        ("insert_audit", "accepted", ""),
    ]
    assert result.adjacency_score == 3 / 7


def test_savepoint_keeps_undoes_and_survives_an_ended_transaction():
    conn = sqlite3.connect(":memory:", isolation_level=None)
    conn.executescript(_SCHEMA + _TRIGGERS + """
        CREATE TABLE links (id INTEGER PRIMARY KEY, account INTEGER
                            REFERENCES accounts(id) DEFERRABLE INITIALLY DEFERRED);
        PRAGMA foreign_keys = ON;
        INSERT INTO accounts VALUES (1, 'open');""")
    count = "SELECT (SELECT COUNT(*) FROM audit) + (SELECT COUNT(*) FROM links)"
    with savepoint(conn):
        conn.execute("INSERT INTO audit (note) VALUES ('kept')")
    with savepoint(conn, keep=False):
        conn.execute("DELETE FROM audit")
    assert conn.execute(count).fetchone() == (1,)
    # a release that commits can fail on a deferred key; the body is undone
    with pytest.raises(sqlite3.IntegrityError), savepoint(conn):
        conn.execute("INSERT INTO links (account) VALUES (99)")
    assert not conn.in_transaction
    assert conn.execute(count).fetchone() == (1,)
    # RAISE(ROLLBACK) inside nested savepoints ends the transaction they share
    with savepoint(conn, keep=False):
        conn.execute("DELETE FROM audit")
        with pytest.raises(sqlite3.IntegrityError, match="NO_CLOSE"), savepoint(conn):
            conn.execute("UPDATE accounts SET status = 'closed'")
    assert not conn.in_transaction
    assert conn.execute(count).fetchone() == (1,)
    conn.close()


def test_fixture_origin_probes_are_pinned():
    bundle = ct.build_bundle()
    result = probe_boundary_adjacency(bundle, ct.build_origin_snapshot(bundle), probe_budget=32)
    flights = [("update_flight_bookings", "accepted", ""),
               ("update_flight_bookings", "accepted", ""),
               ("update_flight_bookings", "rejected", "PROVENANCE_REQUIRED")]
    requests = [("update_travel_requests", "accepted", "")] * 3
    assert [(p["tool_call"]["tool_name"], p["outcome"], p["code"]) for p in result.probes] == [
        ("insert_flight_bookings", "rejected", "QUOTA_EXCEEDED"),
        ("insert_hotel_bookings", "accepted", ""),
        *flights * 3,
        ("update_hotel_bookings", "accepted", ""),
        ("update_hotel_bookings", "rejected", "PROVENANCE_REQUIRED"),
        *requests * 2,
    ]
    assert result.adjacency_score == 5 / 19


def test_undone_probes_leave_a_tracked_handle_at_the_origin(travel_pkg, rescans):
    """Each oracle call, undone by ``savepoint(keep=False)`` around
    ``_dispatch_folded`` as ``probe_boundary_adjacency`` runs its probes,
    leaves a tracked handle at the origin digest with no rescan; a call that
    is kept then matches the full scan."""
    calls = [ToolCall.from_json(step["tool_call"])
             for step in ct.ORACLE_AGENT_SCRIPT if "tool_call" in step]
    origin = travel_pkg.origin_snapshot.digest()
    with open_environment(travel_pkg) as env:
        assert env.tracked
        for call in calls:
            with savepoint(env.connection, keep=False):
                assert _dispatch_folded(env, call).ok
            assert env.digest() == origin == state_digest(env.connection)
        kept = safe_execute_tool(env, calls[-1])
        assert kept.ok and kept.state_digest == state_digest(env.connection) != origin
    assert len(calls) == 5 and rescans == []


# --- schemas that can end a transaction: no episode savepoint ------------------------------

_NULL_NOTE_ROLLS_BACK = _SCHEMA.replace("note TEXT NOT NULL", "note TEXT NOT NULL ON CONFLICT ROLLBACK")
_FREEZE_WRITES_NULL = """
CREATE TRIGGER accounts_freeze_notes_null AFTER UPDATE OF status ON accounts
WHEN NEW.status = 'frozen'
BEGIN INSERT INTO audit (note) VALUES (NULL); END;
"""
_DEFERRED_LINKS = _SCHEMA + """
CREATE TABLE links (id INTEGER PRIMARY KEY, account INTEGER
                    REFERENCES accounts(id) DEFERRABLE INITIALLY DEFERRED);
"""


@pytest.mark.parametrize("schema, triggers, permissions, rejected", [
    (_SCHEMA, _TRIGGERS, _PERMISSIONS, _CLOSE),
    (_NULL_NOTE_ROLLS_BACK, _FREEZE_WRITES_NULL, _PERMISSIONS, _FREEZE),
    (_DEFERRED_LINKS, "", {**_PERMISSIONS, "links": READ_WRITE},
     ToolCall("insert_links", {"account": 99})),
], ids=["raise_rollback", "on_conflict_rollback", "deferred_foreign_key"])
def test_schemas_that_can_end_a_transaction_reset_by_reloading_the_image(
        schema, triggers, permissions, rejected):
    """Inside an episode savepoint a ROLLBACK would undo the whole episode, and
    a deferred key would never be checked, since no call commits. These
    handles open no episode: each call commits or rolls back on its own, so a
    rejected call after an accepted one undoes only itself, and every reset
    reloads the origin, after which the change log must still see each write."""
    pkg = _accounts_package(schema, triggers, permissions)
    base = pkg.verification_base
    assert base.tracked and not base.episodic
    origin = pkg.origin_snapshot.digest()
    with open_environment(pkg) as env:
        conn = env._conn  # read without settling, as the handle's own calls do
        for _ in range(50):
            kept = safe_execute_tool(env, _NOTE)
            assert kept.ok and kept.state_digest == state_digest(conn) != origin
            result = safe_execute_tool(env, rejected)
            assert result.status == "error"
            assert result.state_digest == kept.state_digest == state_digest(conn)
            assert not conn.in_transaction
            assert conn.execute("SELECT note FROM audit").fetchall() == [("target",)]
            assert env.distance() == 0
            env.reset()
            assert env.digest() == origin == state_digest(conn)
            assert env.distance() == pkg.delta0


@pytest.mark.parametrize("ddl, ends", [
    ("SELECT RAISE(ROLLBACK, 'no')", True),
    ("note TEXT NOT NULL ON CONFLICT ROLLBACK", True),
    ("INSERT OR ROLLBACK INTO audit (note) VALUES (1)", True),
    ("REFERENCES accounts(id) DEFERRABLE INITIALLY DEFERRED", True),
    ("REFERENCES accounts(id) DEFERRABLE INITIALLY IMMEDIATE", False),
    ("note TEXT DEFAULT 'ROLLBACK' -- DEFERRED\n", False),
    ('"rollback" TEXT, deferred_until TEXT', False),
])
def test_only_rollback_and_deferred_keywords_end_transactions(ddl, ends):
    assert tracker._ends_transactions(ddl) is ends
