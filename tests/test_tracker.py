"""Incremental state verification against the full-scan reference.

Every check compares a tracked handle's digest with ``state_digest`` and its
distance with ``diff_canonical(canonicalize_connection(..), target).total``.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import random
import sqlite3
import subprocess
import sys
import weakref
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from policygym import executor, snapshots, tracker
from policygym.executor import (
    ToolCall,
    open_environment,
    open_environment_at,
    safe_execute_tool,
)
from policygym.packages import (
    ESCALATIONS_DDL,
    EnvironmentBundle,
    RolloutLimits,
    TaskPackage,
    compile_environment,
    derive_tools,
)
from policygym.fixtures import corporate_travel as ct
from policygym.ports import ScriptedAgentPort, ScriptedUserPort
from policygym.rollout import EpisodeScorer, run_episode
from policygym.snapshots import Snapshot, state_digest
from policygym.verify import DiffConfig, canonicalize, canonicalize_connection, diff, diff_canonical
from test_digest_reuse import FullScan as CountedScan


class FullScan:
    """The reference values a tracked handle on ``pkg`` must reproduce."""

    def __init__(self, pkg):
        self.cfg = pkg.diff_config
        self.target = canonicalize(pkg.target_snapshot, pkg.diff_config)

    def check(self, env):
        assert env.digest() == state_digest(env.connection, env.schema_info)
        live = canonicalize_connection(env.connection, self.cfg, env.schema_info)
        assert env.distance() == diff_canonical(live, self.target).total


def _live(env) -> sqlite3.Connection:
    """The handle's connection, read without ending its episode savepoint
    (``env.connection`` would end it)."""
    return env._conn


class EpisodeScan(FullScan):
    """The same reference values, read through ``_live``."""

    def check(self, env):
        conn = _live(env)
        assert env.digest() == state_digest(conn, env.schema_info)
        live = canonicalize_connection(conn, self.cfg, env.schema_info)
        assert env.distance() == diff_canonical(live, self.target).total


def _in_episode(env) -> bool:
    """The handle's episode savepoint is open (its first write opens it)."""
    return env._tracker._episode


def _episodic(env) -> bool:
    """The handle's writes run inside the episode savepoint: nothing has ended
    it, and a ``system_write`` has not ended its tracking."""
    return env._tracker is not None and env._tracker._episodic


@pytest.fixture(scope="module")
def full_scan(travel_pkg):
    return FullScan(travel_pkg)


@pytest.fixture(scope="module")
def episode_scan(travel_pkg):
    return EpisodeScan(travel_pkg)


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
    # text in an INTEGER column: tool calls can no longer store mixed classes
    ("UPDATE travel_requests SET current_step = 'soon' WHERE id = 2", ()),
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


def _apply(env, op, read=lambda env: env.connection):
    if op[0] == "reset":
        env.reset()
    elif op[0] == "system_write":
        try:
            env.system_write(*op[1])
        except sqlite3.Error:
            pass  # a trigger refused it; the write rolled back
    else:
        result = safe_execute_tool(env, op[1])
        assert result.state_digest == state_digest(read(env), env.schema_info)


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


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(data=st.data())
def test_random_sequences_inside_the_episode_match_full_scan(
        travel_pkg, episode_scan, column_values, data):
    """The property above, read without ending the episode savepoint, so
    resets roll back to it; a system write ends it."""
    ops = data.draw(st.lists(operations(travel_pkg, column_values), max_size=25))
    with open_environment(travel_pkg) as env:
        assert _episodic(env)
        episode_scan.check(env)
        for op in ops:
            _apply(env, op, _live)
            assert _episodic(env) is env._reusable  # only a system write ends it
            episode_scan.check(env)


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


_ROUND_WRITES = [
    ToolCall("transfer_to_human_agents", {"summary": "note"}),
    ToolCall("update_travel_requests", {"filters": {}, "set": {"current_step": 16}}),
    ToolCall("insert_hotel_bookings", {"travel_request_id": 2, "hotel_vendor_id": "v_harbor",
                                       "cost": 250, "booking_step": 14}),
]
_ROUND_REJECTED = ToolCall("update_travel_requests",
                           {"filters": {"id": 2}, "set": {"status": "x"}})


def test_episode_resets_and_writes_keep_logging_for_200_rounds(travel_pkg, episode_scan):
    """The rounds above, read through ``_live``, so resets roll back to the
    episode savepoint. A tenth of the rounds end the episode by handing out
    the connection and close the handle, which reloads the origin into the
    pooled connection; another tenth end it with a system write, whose
    connection is not pooled. Either way the next round opens a new episode.
    Every write of every round must log."""
    rng = random.Random(7)
    pkg = dataclasses.replace(travel_pkg)  # a pool of its own
    origin = travel_pkg.origin_snapshot.digest()
    ended = {"connection": 0, "system_write": 0}
    env = open_environment(pkg)
    try:
        for _ in range(200):
            assert _episodic(env)
            for _ in range(rng.randint(0, 3)):
                result = safe_execute_tool(env, rng.choice(_ROUND_WRITES + [_ROUND_REJECTED]))
                assert result.state_digest == state_digest(_live(env), env.schema_info)
            episode_scan.check(env)
            roll = rng.random()
            if roll < 0.2:
                conn = _live(env)
                if roll < 0.1:
                    assert env.connection is conn
                    ended["connection"] += 1
                else:
                    env.system_write("INSERT INTO escalations (summary) VALUES ('system')")
                    ended["system_write"] += 1
                assert not _episodic(env) and not conn.in_transaction
                episode_scan.check(env)
                env.close()
                env = open_environment(pkg)
                assert (_live(env) is conn) is (roll < 0.1)
            else:
                env.reset()
            assert env.digest() == origin == state_digest(_live(env), env.schema_info)
    finally:
        env.close()
    assert min(ended.values()) >= 10


def test_handing_out_the_connection_ends_the_episode(travel_pkg, full_scan):
    """Inside the episode savepoint ``serialize()`` returns the last committed
    image, the origin. ``snapshot()`` and ``connection`` first end the
    episode, so both images hold the live state; the handle goes on serving
    calls and resets by reloading the origin, and its pooled connection
    starts the next handle at the origin, in a new episode."""
    pkg = dataclasses.replace(travel_pkg)
    origin = travel_pkg.origin_snapshot.digest()
    with open_environment(pkg) as env:
        for call in _ROUND_WRITES:
            assert safe_execute_tool(env, call).ok
        digest = env.digest()
        assert digest != origin and _in_episode(env)
        assert Snapshot(_live(env).serialize()).digest() == origin
        assert env.snapshot().digest() == digest
        assert not _episodic(env) and not _live(env).in_transaction
        assert Snapshot(env.connection.serialize()).digest() == digest
        for call in (_ROUND_WRITES[0], _ROUND_REJECTED):
            result = safe_execute_tool(env, call)
            assert result.state_digest == state_digest(env.connection, env.schema_info)
            full_scan.check(env)
        env.reset()
        assert env.digest() == origin
        assert safe_execute_tool(env, _ROUND_WRITES[1]).ok
        assert not _in_episode(env)
        full_scan.check(env)
        conn = _live(env)
    with open_environment(pkg) as env:
        assert _live(env) is conn and _episodic(env)
        assert env.digest() == origin == state_digest(conn, env.schema_info)
        assert env.distance() == travel_pkg.delta0
        assert safe_execute_tool(env, _ROUND_WRITES[1]).ok and _in_episode(env)


def test_pooled_oracle_episodes_reload_no_image(travel_pkg, monkeypatch):
    """After the first episode opens the package's base, 20 more oracle
    episodes on its pooled connection reset by ``ROLLBACK TO``: no image is
    loaded and the TEMP schema version is never written."""
    loads, statements = [], []
    load_image = snapshots.load_image
    for module in (snapshots,):
        monkeypatch.setattr(module, "load_image",
                            lambda conn, data: (loads.append(data), load_image(conn, data)))
    connect = sqlite3.connect

    def traced(*args, **kwargs):
        conn = connect(*args, **kwargs)
        conn.set_trace_callback(statements.append)
        return conn

    monkeypatch.setattr(sqlite3, "connect", traced)
    pkg = dataclasses.replace(travel_pkg)  # a package with no base yet

    def episode():
        return run_episode(pkg, ScriptedAgentPort(ct.ORACLE_AGENT_SCRIPT),
                           ScriptedUserPort(ct.ORACLE_USER_SCRIPT))

    assert episode().r_final == 1
    assert loads
    loads.clear()
    for _ in range(20):
        assert episode().r_final == 1
    assert loads == []
    assert not [s for s in statements if "schema_version" in s]
    assert sum(s.startswith("ROLLBACK TO") for s in statements) == 21


def test_opening_a_pooled_handle_and_handing_out_its_connection_run_no_sql(travel_pkg):
    """A caller that sets a trace callback on a handle's connection when it
    opens sees the same statements for every handle on the package: the
    open and the handout run none, so nothing runs before the callback that
    the previous handle's callback would see. The first write opens the
    episode."""
    pkg = dataclasses.replace(travel_pkg)
    statements = []
    with open_environment(pkg) as env:
        assert safe_execute_tool(env, _ROUND_WRITES[0]).ok and _in_episode(env)
        conn = _live(env)
    conn.set_trace_callback(statements.append)
    with open_environment(pkg) as env:
        assert env.connection is conn and not _episodic(env)
        assert statements == []
    statements.clear()
    with open_environment(pkg) as env:
        assert statements == [] and _episodic(env) and not _in_episode(env)
        assert safe_execute_tool(env, _ROUND_WRITES[0]).ok
        assert statements[0] == "SAVEPOINT policygym_episode"
    conn.set_trace_callback(None)


def test_a_dropped_package_frees_its_base_without_gc(travel_pkg):
    """The pool holds connections, not trackers, so no reference cycle keeps
    a package's base and its pooled connection alive until a full gc."""
    pkg = dataclasses.replace(travel_pkg)
    gc.disable()
    try:
        with open_environment(pkg) as env:
            assert safe_execute_tool(env, _ROUND_WRITES[0]).ok
        base = weakref.ref(pkg.verification_base)
        del pkg, env
        assert base() is None
    finally:
        gc.enable()


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


def test_a_change_the_log_missed_triggers_a_rescan(travel_pkg, full_scan, rescans):
    with open_environment(travel_pkg) as env:
        # no read folds the insert before its log row is lost
        env.connection.execute("INSERT INTO escalations (summary) VALUES ('first')")
        env.connection.execute("DELETE FROM temp.policygym_changelog")
        env.connection.execute("UPDATE escalations SET summary = 'second'")
        full_scan.check(env)
    assert len(rescans) == 1


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


def _with_extra_escalation(pkg):
    """``pkg`` with one more ``escalations`` row in its origin: the same
    catalog, another origin image."""
    with pkg.origin_snapshot.connect() as conn:
        conn.execute("INSERT INTO escalations (summary) VALUES ('already open')")
        origin = Snapshot(conn.serialize())
    return dataclasses.replace(pkg, origin_snapshot=origin,
                               delta0=diff(origin, pkg.target_snapshot, pkg.diff_config).total)


def _log_installs(monkeypatch) -> set:
    """A token for each connection opened from now on that installs the
    change log (runs ``CREATE TEMP TRIGGER``), seen by a trace callback."""
    installs, connect = set(), sqlite3.connect

    def traced(*args, **kwargs):
        conn, token = connect(*args, **kwargs), object()
        conn.set_trace_callback(
            lambda sql: sql.startswith("CREATE TEMP TRIGGER") and installs.add(token))
        return conn

    monkeypatch.setattr(sqlite3, "connect", traced)
    return installs


def test_rescans_read_only_the_live_database(travel_pkg, rescans, monkeypatch):
    """A rescan (after a change the log missed) counts against the target's
    canonical rows, which the base reads at its first rescan and keeps: the
    next 50 rounds of rescan, digest and distance open no image (each opened
    the target image before the base kept them), and each equals the full
    scan."""
    pkg = dataclasses.replace(travel_pkg)
    scan, opened, open_image = EpisodeScan(pkg), [], snapshots.open_image

    def counting(*args, **kwargs):
        opened.append(args)
        return open_image(*args, **kwargs)

    with open_environment(pkg) as env:
        env._tracker._rescan()  # the first rescan reads the target
        scan.check(env)
        monkeypatch.setattr(snapshots, "open_image", counting)
        for i in range(50):
            safe_execute_tool(env, (_ROUND_WRITES + [_ROUND_REJECTED])[i % 4])
            env._tracker._rescan()
            scan.check(env)
    assert len(rescans) == 51 and opened == []


def test_an_idle_connection_keeps_no_dropped_origin_image(travel_pkg):
    """A package copy with its own origin opens and closes one handle, whose
    connection goes back to its catalog's tracked pool at that origin, and
    is dropped: no idle entry then holds its image bytes, directly or
    through a snapshot it still reaches (at the parent the idle entry held
    the bytes until the connection was taken for another image)."""
    pkg = _with_extra_escalation(travel_pkg)
    data, pool = pkg.origin_snapshot.data, pkg.verification_base.pool
    with open_environment(pkg) as env:
        assert env.tracked and safe_execute_tool(env, _ROUND_WRITES[0]).ok
    assert pool._idle
    del pkg, env
    gc.collect()
    held = [obj for entry in pool._idle for obj in gc.get_referents(entry)]
    held += [ref() for ref in held if isinstance(ref, weakref.ref)]
    assert not [obj for obj in held if obj is data or getattr(obj, "data", None) is data]


def test_an_origin_with_one_more_trigger_runs_episodes_by_its_own_triggers(travel_pkg):
    """The fixture's origin plus one ``BEFORE INSERT ON escalations`` trigger
    that raises ROLLBACK holds every table of the bundle, but its catalog is
    its own, so its base opens no episode savepoint (which the trigger would
    undo whole). After the oracle calls, the refused escalation undoes only
    itself: digest and d_t equal the full scan (at the parent the base took
    the compiled catalog and its triggers, and the tracker kept the oracle
    writes that the ROLLBACK had undone, reading d_t 0 against 4)."""
    with travel_pkg.origin_snapshot.connect() as conn:
        conn.execute("CREATE TRIGGER no_escalations BEFORE INSERT ON escalations BEGIN "
                     "SELECT RAISE(ROLLBACK, '[NO_ESCALATION] escalations are closed'); END")
        origin = Snapshot(conn.serialize())
    pkg = dataclasses.replace(travel_pkg, origin_snapshot=origin)
    base = pkg.verification_base
    assert base.tracked and not base.episodic
    assert base.schema is not travel_pkg.env.schema_info
    with open_environment(pkg) as env:
        for call in ct.oracle_tool_calls():
            assert safe_execute_tool(env, call).ok
        refused = safe_execute_tool(env, ToolCall("transfer_to_human_agents", {"summary": "x"}))
        assert refused.error.code == "NO_ESCALATION"
        conn = _live(env)
        assert env.digest() == state_digest(conn, env.schema_info) == refused.state_digest
        assert env.distance() == base.reference_distance(conn, env.schema_info) == 0


def test_packages_of_one_catalog_share_tracked_connections(travel_pkg, monkeypatch):
    """Packages with the fixture's DDL and different origins share one pool
    of tracked connections. Each base installs the log on a connection of
    its own; after that, 20 episodes of two handles open at once, of either
    package in every pairing and with their calls interleaved, install it on
    no other connection (at the parent each package pooled alone, so two
    handles of one package needed a third). Every digest and d_t equals the
    full scan, also on a connection that held the other package's origin."""
    installs = _log_installs(monkeypatch)
    pkgs = [dataclasses.replace(travel_pkg), _with_extra_escalation(travel_pkg)]
    assert pkgs[0].verification_base.pool is pkgs[1].verification_base.pool
    assert len(installs) == 2
    scans = [EpisodeScan(pkg) for pkg in pkgs]
    for episode, pair in enumerate([(0, 1), (0, 0), (1, 1), (1, 0)] * 5):
        with contextlib.ExitStack() as stack:
            envs = [stack.enter_context(open_environment(pkgs[i])) for i in pair]
            for env, i in zip(envs, pair):
                scans[i].check(env)
            for call in _ROUND_WRITES + [_ROUND_REJECTED]:
                for env, i in zip(envs, pair):
                    safe_execute_tool(env, call)
                    scans[i].check(env)
            if episode % 3 == 0:
                assert envs[0].connection  # ends the episode: its close reloads the origin
    assert len(installs) == 2


def _own_origin(pkg):
    """``pkg`` with an equal origin image in a bytes object of its own."""
    return dataclasses.replace(
        pkg, origin_snapshot=Snapshot(bytes(bytearray(pkg.origin_snapshot.data))))


def _oracle_episode(pkg):
    return run_episode(pkg, ScriptedAgentPort(ct.ORACLE_AGENT_SCRIPT),
                       ScriptedUserPort(ct.ORACLE_USER_SCRIPT))


def _image_loads(monkeypatch) -> list:
    """The image of each ``snapshots.load_image`` call from now on."""
    loads, load_image = [], snapshots.load_image
    monkeypatch.setattr(snapshots, "load_image",
                        lambda conn, data: (loads.append(data), load_image(conn, data)))
    return loads


def test_dropped_packages_leave_no_idle_tracked_connection(travel_pkg, monkeypatch):
    """20 package copies, each with its own origin bytes, open and close one
    handle and are dropped: the pool closes their idle connections when it
    is next used, so it holds at most one more (the last copy's), and the
    live package's next oracle episode loads no image (at the parent the
    pool kept 16 dead connections, which evicted the live package's own)."""
    pkg = _own_origin(travel_pkg)
    assert _oracle_episode(pkg).r_final == 1
    pool = pkg.verification_base.pool
    idle = len(pool._idle)
    for _ in range(20):
        other = _own_origin(pkg)
        with open_environment(other):
            pass
    del other
    gc.collect()
    assert len(pool._idle) <= idle + 1
    loads = _image_loads(monkeypatch)
    assert _oracle_episode(pkg).r_final == 1
    assert loads == []
    assert all(at is None or at() is not None for _, at in pool._idle)


def test_alternating_packages_of_one_catalog_reload_no_image(travel_pkg, monkeypatch):
    """100 oracle episodes that alternate between two live packages with the
    fixture's DDL and distinct origin bytes load no image: each base keeps
    the connection it installed the log on, at its own origin. (A base that
    took its connection from the shared pool would leave the two packages
    one connection to reload every episode.)"""
    pkgs = [_own_origin(travel_pkg) for _ in range(2)]
    for pkg in pkgs:
        assert _oracle_episode(pkg).r_final == 1
    loads = _image_loads(monkeypatch)
    for episode in range(100):
        assert _oracle_episode(pkgs[episode % 2]).r_final == 1
    assert loads == []


def test_an_origin_with_other_ddl_text_pools_its_own_connections(monkeypatch):
    """An origin with the bundle's tables under another ``sqlite_master``
    text (other whitespace) misses the compiled catalog, so its base pools
    over the origin's own: 20 episodes install the log once, and every
    digest and d_t equals the full scan."""
    installs = _log_installs(monkeypatch)
    schema = _SCHEMA.format(unique="")
    pkg = _package(schema, _ORIGIN, _TARGET,
                   DiffConfig(excluded_columns={"parents": {"id"}, "children": {"id"}}))
    conn = sqlite3.connect(":memory:")
    try:
        conn.executescript(schema.replace("name TEXT NOT NULL", "name  TEXT  NOT NULL"))
        conn.execute(ESCALATIONS_DDL)
        conn.executescript(_ORIGIN)
        pkg = dataclasses.replace(pkg, origin_snapshot=Snapshot(conn.serialize()))
    finally:
        conn.close()
    base = pkg.verification_base
    assert base.tracked and base.schema is not pkg.env.schema_info
    scan = EpisodeScan(pkg)
    calls = [ToolCall("insert_children", {"parent_id": 2, "label": "c"}),
             ToolCall("update_parents", {"filters": {"id": 1}, "set": {"name": "al"}})]
    for _ in range(20):
        with open_environment(pkg) as env:
            scan.check(env)
            for call in calls:
                assert safe_execute_tool(env, call).ok
                scan.check(env)
    assert len(installs) == 1


# --- schemas that keep the full scan ---------------------------------------------------------

def _package(schema_sql: str, origin_sql: str, target_sql: str, cfg: DiffConfig,
             triggers_sql: str = "") -> TaskPackage:
    permissions = {"parents": "read_write", "children": "read_write"}

    _, empty = compile_environment(schema_sql, triggers_sql)

    def image(rows_sql):
        with empty.connect() as conn:
            conn.executescript(rows_sql)
            return Snapshot(conn.serialize())

    origin, target = image(origin_sql), image(target_sql)
    bundle = EnvironmentBundle(schema=schema_sql, triggers=triggers_sql, permissions=permissions,
                               tool_catalog=derive_tools(schema_sql, permissions, triggers_sql))
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


_ON_NEW_CHILD = "CREATE TRIGGER g AFTER INSERT ON children BEGIN {} END;"


@pytest.mark.parametrize("unique, triggers_sql, tracked", [
    # REPLACE in a string, in a comment or as the function replace() resolves no conflict
    (" DEFAULT 'REPLACE me'", "", True),
    (" -- no REPLACE here\n", "", True),
    ("", _ON_NEW_CHILD.format("UPDATE children SET label = replace(label, 'c', 'C')"
                              " WHERE id = NEW.id;"), True),
    ("", _ON_NEW_CHILD.format("INSERT OR REPLACE INTO parents (id, name) VALUES (1, 'al');"),
     False),
    ("", _ON_NEW_CHILD.format("REPLACE INTO parents (id, name) VALUES (1, 'al');"), False),
])
def test_only_the_replace_keyword_keeps_the_full_scan(unique, triggers_sql, tracked):
    """A tracked handle's digest and distance equal the full scan's after each call."""
    pkg = _package(_SCHEMA.format(unique=unique), _ORIGIN, _TARGET,
                   DiffConfig(excluded_columns={"parents": {"id"}, "children": {"id"}}),
                   triggers_sql)
    assert _drive(pkg, [ToolCall("insert_children", {"parent_id": 2, "label": "c"})]) is tracked


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


# calls that change no row: queries, and refusals before any row changes
# (a taken key, a NULL name, an unknown tool)
_REMAP_QUIET = (
    ToolCall("query_parents", {}),
    ToolCall("query_children", {"filters": {"parent_id": 2}}),
    ToolCall("insert_parents", {"id": 1, "name": "dup"}),
    ToolCall("update_parents", {"filters": {"id": 1}, "set": {"name": None}}),
    ToolCall("nope", {}),
)
# writes, and a refusal by the foreign key check after its row is inserted
_REMAP_WRITES = (
    ToolCall("insert_children", {"parent_id": 2, "label": "c"}),
    ToolCall("update_parents", {"filters": {"id": 2}, "set": {"name": "bea"}}),
    ToolCall("update_parents", {"filters": {"id": 2}, "set": {"name": "bob"}}),
    ToolCall("update_children", {"filters": {"label": "c"}, "set": {"parent_id": 3}}),
    ToolCall("insert_children", {"parent_id": 9, "label": "x"}),
)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(calls=st.lists(st.sampled_from(_REMAP_QUIET + _REMAP_WRITES), max_size=12))
def test_canonical_remap_distance_keeps_the_no_change_rule(calls):
    """Under ``canonical_remap`` a tracked handle's digest and d_t equal the
    full scan after each call. Its d_t is a full scan, taken only after a
    call that moved ``total_changes``: a call that changes no row reuses the
    last one (each took a scan before)."""
    cfg = DiffConfig(excluded_columns={"parents": {"id"}, "children": {"id"}},
                     fk_mode="canonical_remap")
    pkg = _package(_SCHEMA.format(unique=""), _ORIGIN, _TARGET, cfg)
    with pytest.MonkeyPatch.context() as patch, open_environment(pkg) as env:
        counted = CountedScan(pkg, patch)
        assert env.tracked
        assert counted.check(env) == 1
        for call in calls:
            before = _live(env).total_changes
            safe_execute_tool(env, call)
            moved = _live(env).total_changes != before
            assert not (moved and call in _REMAP_QUIET)
            assert counted.check(env) == moved
        assert env.tracked


def test_drop_mode_small_schema_is_tracked():
    pkg = _package(_SCHEMA.format(unique=""), _ORIGIN, _TARGET,
                   DiffConfig(excluded_columns={"parents": {"id"}, "children": {"id"}}))
    assert _drive(pkg, [ToolCall("insert_children", {"parent_id": 2, "label": "c"}),
                        ToolCall("update_children", {"filters": {}, "set": {"label": "z"}})])


def test_importing_the_tracker_loads_no_package_model():
    """The tracker calls the rules of the full-scan reference (snapshots.py,
    verify.py); none of them lives in packages.py."""
    code = "import policygym.tracker, sys; assert 'policygym.packages' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], check=True, timeout=60)


def test_the_first_handle_installs_the_log_once(travel_pkg, monkeypatch):
    """The base installs the log on the connection it scans the origin on and
    pools it, so the first handle on a package runs the log's DDL (one TEMP
    table, three TEMP triggers per user table) once, on that connection."""
    statements = []
    connect = sqlite3.connect

    def traced(*args, **kwargs):
        conn = connect(*args, **kwargs)
        conn.set_trace_callback(statements.append)
        return conn

    monkeypatch.setattr(sqlite3, "connect", traced)
    pkg = dataclasses.replace(travel_pkg)  # a package with no base yet
    with open_environment(pkg) as env:
        assert env.tracked
    installs = [s for s in statements if s.startswith("CREATE TEMP")]
    assert len(installs) == 1 + 3 * len(pkg.env.schema_info.tables)
