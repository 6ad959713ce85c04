"""The no-change rule on handles without a change log, against the full scan.

An untracked handle (``open_environment_at``, ``open_pooled_at``, and a
package whose DDL holds ``REPLACE``) reuses its last full-scan digest and
distance while the connection's ``total_changes`` has not moved. Every check
reads the reference through the handle's private connection, since
``env.connection`` would turn the rule off.
"""

from __future__ import annotations

import random

import pytest

from policygym import executor
from policygym.executor import (
    ToolCall,
    open_environment,
    open_environment_at,
    open_pooled_at,
    safe_execute_tool,
    savepoint,
)
from policygym.packages import EnvironmentBundle, RolloutLimits, TaskPackage, compile_environment
from policygym.snapshots import Snapshot, state_digest
from policygym.tracker import VerificationBase
from policygym.verify import DiffConfig, canonicalize, canonicalize_connection, diff, diff_canonical

_SCHEMA = """
CREATE TABLE parents (id INTEGER PRIMARY KEY, name TEXT NOT NULL UNIQUE ON CONFLICT REPLACE,
                      kids INTEGER NOT NULL DEFAULT 0);
CREATE TABLE children (id INTEGER PRIMARY KEY, parent_id INTEGER REFERENCES parents(id),
                       label TEXT);
"""
_TRIGGERS = """
CREATE TRIGGER no_bad_label BEFORE INSERT ON children WHEN NEW.label = 'bad'
BEGIN SELECT RAISE(ABORT, '[BAD_LABEL] no child is labelled bad'); END;
CREATE TRIGGER stop_after_first BEFORE UPDATE ON children WHEN NEW.label = 'stop' AND OLD.id > 1
BEGIN SELECT RAISE(FAIL, '[STOPPED] only the first child stops'); END;
CREATE TRIGGER no_undo_parent BEFORE INSERT ON parents WHEN NEW.name = 'undo'
BEGIN SELECT RAISE(ROLLBACK, '[UNDONE] no parent is named undo'); END;
CREATE TRIGGER count_kids AFTER INSERT ON children
BEGIN UPDATE parents SET kids = kids + 1 WHERE id = NEW.parent_id; END;
"""
_ORIGIN = """
INSERT INTO parents (id, name) VALUES (1, 'ann'), (2, 'bob'), (3, 'cy');
INSERT INTO children (parent_id, label) VALUES (1, 'a'), (2, 'b'), (3, 'c');
"""
_TARGET = _ORIGIN + "INSERT INTO children (parent_id, label) VALUES (2, 'd');"
_CFG = DiffConfig(excluded_columns={"parents": {"id"}, "children": {"id"}})


@pytest.fixture(scope="module")
def pkg() -> TaskPackage:
    """A package whose ``REPLACE`` keeps its handles untracked, with a target."""
    _, empty = compile_environment(_SCHEMA, _TRIGGERS)

    def image(rows_sql):
        with empty.connect() as conn:
            conn.executescript(rows_sql)
            return Snapshot(conn.serialize())

    permissions = {"parents": "read_write", "children": "read_write"}
    bundle = EnvironmentBundle.from_schema(_SCHEMA, _TRIGGERS, permissions)
    origin, target = image(_ORIGIN), image(_TARGET)
    return TaskPackage(name="untracked", domain="test", policy_doc="p", task_description="t",
                       env=bundle, origin_snapshot=origin, target_snapshot=target,
                       diff_config=_CFG, limits=RolloutLimits(),
                       delta0=diff(origin, target, _CFG).total)


_OPENERS = {
    "open_environment_at": lambda pkg: open_environment_at(pkg.env, pkg.origin_snapshot),
    "open_pooled_at": lambda pkg: open_pooled_at(pkg.env, pkg.origin_snapshot),
    "open_environment": open_environment,
}


def _open(kind, pkg):
    env = _OPENERS[kind](pkg)
    assert not env.tracked
    return env


class FullScan:
    """The reference digest and distance, read through the handle's private
    connection, and the handle's own full scans, counted."""

    def __init__(self, pkg, monkeypatch):
        self.cfg, self.target = pkg.diff_config, canonicalize(pkg.target_snapshot, pkg.diff_config)
        self.scans = 0
        digest, distance = executor.state_digest, VerificationBase.reference_distance

        def counted_digest(conn, schema=None):
            self.scans += 1
            return digest(conn, schema)

        def counted_distance(base, conn, schema):
            self.scans += 1
            return distance(base, conn, schema)

        monkeypatch.setattr(executor, "state_digest", counted_digest)
        monkeypatch.setattr(VerificationBase, "reference_distance", counted_distance)

    def check(self, env) -> int:
        """Check ``env`` against the full scan; the handle's full scans it took."""
        before, conn = self.scans, env._conn
        assert env.digest() == state_digest(conn)
        if env._base is None:
            with pytest.raises(RuntimeError, match="no target"):
                env.distance()
        else:
            live = canonicalize_connection(conn, self.cfg, env.schema_info)
            assert env.distance() == diff_canonical(live, self.target).total
        return self.scans - before


_STEPS = ("query", "insert", "abort", "fail", "rollback", "replace", "system_row", "system_ddl",
          "snapshot", "reset")


def _step(env, rng) -> str:
    """Run one seeded step on ``env``; its kind."""
    kind = rng.choice(_STEPS)
    parent = rng.randint(1, 3)
    if kind == "query":
        table = rng.choice(["parents", "children"])
        result = safe_execute_tool(env, ToolCall(f"query_{table}", {"filters": {"id": parent}}))
    elif kind == "insert":
        result = safe_execute_tool(env, ToolCall("insert_children", {
            "parent_id": parent, "label": rng.choice("xyz")}))
    elif kind == "abort":
        result = safe_execute_tool(env, ToolCall("insert_children", {
            "parent_id": parent, "label": "bad"}))
        assert result.error.code == "BAD_LABEL"
    elif kind == "fail":  # the first child is updated, then the trigger stops the statement
        result = safe_execute_tool(env, ToolCall("update_children", {
            "filters": {}, "set": {"label": "stop"}}))
        assert result.error.code == "STOPPED"
    elif kind == "rollback":
        result = safe_execute_tool(env, ToolCall("insert_parents", {"name": "undo"}))
        assert result.error.code == "UNDONE"
    elif kind == "replace":  # a new name is accepted; a taken one replaces its row or fails
        result = safe_execute_tool(env, ToolCall("insert_parents", {
            "name": rng.choice(["ann", "dee", "eve"])}))
    elif kind == "system_row":
        env.system_write("INSERT INTO children (parent_id, label) VALUES (?, 'sys')", (parent,))
    elif kind == "system_ddl":  # later inserts of children also rename their parent
        env.system_write("CREATE TRIGGER IF NOT EXISTS rename_parent AFTER INSERT ON children"
                         " BEGIN UPDATE parents SET name = name || '+' WHERE id = NEW.parent_id;"
                         " END")
    elif kind == "snapshot":
        assert env.snapshot().digest() == state_digest(env._conn)
    else:
        env.reset()
    if kind in ("query", "abort", "rollback"):
        assert result.state_digest == state_digest(env._conn)
    return kind


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("kind", sorted(_OPENERS))
def test_untracked_digest_and_distance_equal_the_full_scan(pkg, monkeypatch, kind, seed):
    """After every step the digest and distance equal the full scan. A query,
    a write an ABORT or a ROLLBACK refuses, and ``snapshot()`` change
    nothing, so the reads after them take no full scan; the reads after
    ``system_write`` (which may be DDL) and ``reset()`` always do."""
    full_scan, rng = FullScan(pkg, monkeypatch), random.Random(seed)
    kinds = set()
    with _open(kind, pkg) as env:
        reads = 1 if env._base is None else 2  # digest, and distance given a target
        full_scan.check(env)
        for _ in range(60):
            step = _step(env, rng)
            kinds.add(step)
            scans = full_scan.check(env)
            if step in ("query", "abort", "rollback", "snapshot"):
                assert scans == 0, step
            elif step in ("system_row", "system_ddl", "reset"):
                assert scans == reads, step
    assert kinds == set(_STEPS)


@pytest.mark.parametrize("kind", sorted(_OPENERS))
def test_reads_inside_a_callers_savepoint_equal_the_full_scan(pkg, monkeypatch, kind):
    full_scan = FullScan(pkg, monkeypatch)
    with _open(kind, pkg) as env:
        origin = env.digest()
        with savepoint(env._conn, keep=False):
            assert safe_execute_tool(env, ToolCall("insert_children", {
                "parent_id": 1, "label": "x"})).ok
            full_scan.check(env)
            assert env.digest() != origin
        full_scan.check(env)
        assert env.digest() == origin


@pytest.mark.parametrize("kind", sorted(_OPENERS))
def test_a_deserialize_through_the_handed_out_connection_is_seen(pkg, monkeypatch, kind):
    """``deserialize`` moves no ``total_changes``; a handle whose connection
    was handed out scans in full from then on."""
    full_scan = FullScan(pkg, monkeypatch)
    with _open(kind, pkg) as env:
        origin = env.digest()
        env.connection.deserialize(pkg.target_snapshot.data)
        full_scan.check(env)
        assert env.digest() == pkg.target_snapshot.digest() != origin


@pytest.mark.parametrize("kind", sorted(_OPENERS))
def test_a_closed_handle_refuses_every_read_and_write(pkg, kind):
    env = _open(kind, pkg)
    env.digest()
    env.close()
    for use in (env.digest, env.distance, env.snapshot,
                lambda: env.system_write("DELETE FROM children")):
        with pytest.raises(RuntimeError):
            use()
