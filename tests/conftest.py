"""Shared fixtures: the corporate-travel package materialized once per session."""

from __future__ import annotations

import sqlite3

import pytest

from policygym import load_package, packages, snapshots, synthesis, tracker
from policygym.fixtures import corporate_travel
from policygym.snapshots import Snapshot


@pytest.fixture(scope="session")
def fixture_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("pkg") / "corporate_travel"
    corporate_travel.build(path)
    return path


@pytest.fixture(scope="session")
def travel_pkg(fixture_dir):
    return load_package(fixture_dir)


def clear_memos() -> None:
    """Empty the per-process memos (compiled DDL, shared bundles, gate reports and
    table tags), so that what a test counts next starts from a cold process."""
    packages.compile_environment.cache_clear()
    packages._shared_bundle.cache_clear()
    synthesis.verify_environment.cache_clear()
    snapshots.table_tags.cache_clear()


@pytest.fixture
def rescans(monkeypatch):
    """The trackers that rescanned their connection in full, one entry a rescan."""
    calls, rescan = [], tracker.StateTracker._rescan
    monkeypatch.setattr(tracker.StateTracker, "_rescan",
                        lambda self: (calls.append(self), rescan(self)))
    return calls


def snapshot_from_sql(statements) -> Snapshot:
    """Build a snapshot by executing raw SQL on a fresh in-memory database."""
    conn = sqlite3.connect(":memory:")
    try:
        for stmt in statements:
            if isinstance(stmt, tuple):
                conn.execute(stmt[0], stmt[1])
            else:
                conn.executescript(stmt)
        conn.commit()
        return Snapshot(conn.serialize())
    finally:
        conn.close()
