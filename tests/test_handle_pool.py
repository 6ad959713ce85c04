"""The pool of warm handle connections that each compiled DDL keeps
(``snapshots.HandlePool``): the catalog check that keeps cached statements
right, pooled reads against fresh ones, the rules for what goes back, the
connections a stub synthesis round opens, and the fresh engines that keep
exported images byte-identical."""

from __future__ import annotations

import contextlib
import json
import sqlite3
import sys
import threading
import traceback
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from policygym import load_package, packages, save_package, snapshots, verify
from policygym.executor import execute_tool, open_environment, open_environment_at, open_pooled_at
from policygym.fixtures import corporate_travel as ct
from policygym.packages import ESCALATIONS_DDL, checked_canonical, compile_environment
from policygym.snapshots import state_digest
from policygym.synthesis import StubGenerationPort, synthesize_package
from policygym.verify import canonicalize

from conftest import clear_memos
from test_cli import _blob_package
from test_packages import _stub_round
from test_tracker import _with_extra_escalation

T_DDL = "CREATE TABLE t (a);"


def _image(ddl: str, rows_sql: str, encoding: str = "UTF-8") -> bytes:
    """An image built as ``compile_environment`` builds one (``ddl``, then the
    escalations table), holding the rows ``rows_sql`` inserts."""
    conn = sqlite3.connect(":memory:", isolation_level=None)
    try:
        conn.execute(f"PRAGMA encoding = '{encoding}'")
        conn.executescript(ddl)
        conn.execute(ESCALATIONS_DDL)
        conn.executescript(rows_sql)
        return conn.serialize()
    finally:
        conn.close()


def _warm_pool(ddl: str):
    """The pool of ``ddl``, holding one connection that ran ``SELECT * FROM t``
    on an image of ``ddl``."""
    clear_memos()
    pool = compile_environment(ddl, "")[0].pool()
    conn, hit = pool.take(_image(ddl, "INSERT INTO t VALUES ('t-row');"))
    assert hit
    assert conn.execute("SELECT * FROM t").fetchall() == [("t-row",)]
    pool.give_back(conn)
    return pool, conn


# --- the cookie rule ---------------------------------------------------------------------

def test_an_image_of_other_ddl_with_an_equal_cookie_is_a_miss():
    """A statement cached on ``t`` runs unprepared on an image whose cookie is
    the same, so without the catalog check it would read u's rows as t's."""
    pool, warm = _warm_pool(T_DDL)
    other = _image("CREATE TABLE u (b);", "INSERT INTO u VALUES ('u-row');")
    assert other[40:44] == compile_environment(T_DDL, "")[1].data[40:44]  # equal cookies
    conn, hit = pool.take(other)
    try:
        assert not hit and conn is not warm
        with pytest.raises(sqlite3.OperationalError, match="no such table: t"):
            conn.execute("SELECT * FROM t")
        assert conn.execute("SELECT * FROM u").fetchall() == [("u-row",)]
    finally:
        conn.close()


@pytest.mark.parametrize("variant", ["text encoding", "schema format"])
def test_the_same_ddl_in_another_encoding_or_format_is_a_miss(variant):
    """The catalog rows read the same; only the image header tells them apart."""
    pool, warm = _warm_pool(T_DDL)
    if variant == "text encoding":
        image = _image(T_DDL, "INSERT INTO t VALUES ('héllo');", "UTF-16le")
    else:
        image = _image(T_DDL, "INSERT INTO t VALUES ('héllo');")
        image = image[:44] + (1).to_bytes(4, "big") + image[48:]  # legacy format 1
    catalog = "SELECT type, name, tbl_name, rootpage, sql FROM sqlite_master"
    with snapshots.Snapshot(image).connect() as fresh:
        with compile_environment(T_DDL, "")[1].connect() as compiled:
            assert fresh.execute(catalog).fetchall() == compiled.execute(catalog).fetchall()
    conn, hit = pool.take(image)
    try:
        assert not hit and conn is not warm
        assert conn.execute("SELECT * FROM t").fetchall() == [("héllo",)]
    finally:
        conn.close()


# --- pooled against fresh ------------------------------------------------------------------

@pytest.fixture(scope="module")
def images(tmp_path_factory):
    """(bundle, diff config, image) of the empty image, origin and target of the
    fixture, of the BLOB package and of a stub-synthesized package; the fixture
    and the synthesized package share one DDL, so they share one pool."""
    blob_dir = tmp_path_factory.mktemp("pool") / "blobs"
    _blob_package(blob_dir)
    fixture_dir = tmp_path_factory.mktemp("pool") / "travel"
    ct.build(fixture_dir)
    synthesized, _ = synthesize_package(ct.SEED_DOMAIN_TEXT,
                                        StubGenerationPort(ct.canned_generation_outputs()),
                                        name="x", limits=ct.LIMITS)
    out = []
    for pkg in (load_package(fixture_dir), load_package(blob_dir), synthesized):
        for snap in (pkg.env.empty_snapshot, pkg.origin_snapshot, pkg.target_snapshot):
            out.append((pkg.env, pkg.diff_config, snap))
    return out


def _closed(conn: sqlite3.Connection) -> bool:
    try:
        conn.execute("SELECT 1")
    except sqlite3.ProgrammingError:
        return True
    return False


@settings(max_examples=25, deadline=None, derandomize=True)
@given(st.lists(st.tuples(st.integers(min_value=0, max_value=8),
                          st.sampled_from(["read", "transaction", "system_write"])),
                min_size=1, max_size=8))
def test_pooled_reads_equal_fresh_reads_and_only_clean_handles_go_back(images, steps):
    """In any order of images and uses, a pooled ``checked_canonical`` and
    handle digest equal ``canonicalize`` and ``Snapshot.digest`` on a fresh
    connection; every taken connection has foreign keys on; a handle closed
    inside a transaction, or that ran ``system_write``, goes back to no pool."""
    for index, use in steps:
        bundle, cfg, snap = images[index]
        assert checked_canonical(snap, bundle, cfg, "image", run=True) == canonicalize(snap, cfg)
        env = open_pooled_at(bundle, snap)
        conn = env.connection
        assert conn.execute("PRAGMA foreign_keys").fetchone() == (1,)
        assert env.digest() == snap.digest()
        if use == "transaction":
            conn.execute("BEGIN")
        elif use == "system_write":
            env.system_write("INSERT INTO escalations (summary) VALUES ('probe')")
        env.close()
        if use == "read":
            again, hit = bundle.pool.take(snap.data)
            assert hit and again is conn
            bundle.pool.give_back(again)
        else:
            assert _closed(conn)


def test_threads_never_hold_one_connection_at_once(images, travel_pkg):
    """4 threads, switching often, each take and give back 50 times and open
    25 tracked handles of two packages that share one pool of tracked
    connections (the fixture's DDL, two origins): no connection is out to two
    of them at once, and each reads its own image."""
    bundle, _, origin = images[1]
    target = images[2][2]
    pkgs = [travel_pkg, _with_extra_escalation(travel_pkg)]
    assert pkgs[0].verification_base.pool is pkgs[1].verification_base.pool
    digests = {snap.data: snap.digest()
               for snap in (origin, target, *(pkg.origin_snapshot for pkg in pkgs))}
    call = ct.oracle_tool_calls()[0]
    held, guard = set(), threading.Lock()

    def work(index: int) -> bool:
        right = True
        for i in range(75):
            env = None
            if i % 3 == 2:
                pkg = pkgs[(index + i) % 2]
                env = open_environment(pkg)
                conn, hit, data = env._conn, env.tracked, pkg.origin_snapshot.data
            else:
                data = (origin, target)[(index + i) % 2].data
                conn, hit = bundle.pool.take(data)
            with guard:
                right &= hit and conn not in held
                held.add(conn)
            right &= state_digest(conn, bundle.schema_info) == digests[data]
            if env is not None:
                right &= execute_tool(env, call).state_digest == state_digest(conn, env.schema_info)
            with guard:
                held.discard(conn)
            if env is None:
                bundle.pool.give_back(conn)
            else:
                env.close()
        return right

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(4) as workers:
            assert all(workers.map(work, range(4), timeout=60))
    finally:
        sys.setswitchinterval(interval)


# --- count guard: connections a warm stub round opens -----------------------------------------

_STAGES = ("synthesize_package", "verify_environment", "seed_initial_state",
           "probe_boundary_adjacency", "explore_episode", "assemble_package", "load_package")


def test_a_warm_stub_round_opens_one_connection(tmp_path, monkeypatch):
    """Seeding and the explorer write the images a package saves, so they run
    on a fresh engine (``open_environment_at``), one they share: the explorer
    continues on the engine that seeded its origin. Probing,
    ``assemble_package`` and ``load_package`` load their images into the
    DDL's warm connection, and the gate's report is kept from the first round."""
    _stub_round(tmp_path / "warm-up")
    opened, open_image = [], snapshots.open_image

    def counting(*args, **kwargs):
        stack = [frame.name for frame in traceback.extract_stack()]
        opened.append(next((name for name in reversed(stack) if name in _STAGES), None))
        return open_image(*args, **kwargs)

    monkeypatch.setattr(snapshots, "open_image", counting)
    pkg, loaded = _stub_round(tmp_path / "counted")
    assert loaded == pkg
    assert opened == ["synthesize_package"]  # 8 when every stage opened its own, then 2


def test_a_warm_stub_round_builds_no_scan_plan_and_serializes_no_tool_catalog(
        tmp_path, monkeypatch):
    """Scan plans are kept per compiled catalog and diff-config value, and
    ``tools.json``'s text per bundle, so a round after the first rebuilds
    neither (the scan's columns and SELECTs, and the ~31 KB catalog dump)."""
    _stub_round(tmp_path / "warm-up")
    plans, serialized = [], []
    build, to_json = verify.ScanPlan, packages.ToolSpec.to_json
    monkeypatch.setattr(verify, "ScanPlan", lambda *args: plans.append(args) or build(*args))
    monkeypatch.setattr(packages.ToolSpec, "to_json",
                        lambda self: serialized.append(self.name) or to_json(self))
    pkg, loaded = _stub_round(tmp_path / "counted")
    assert loaded == pkg
    assert (tmp_path / "counted" / "tools.json").read_bytes() == (
        tmp_path / "warm-up" / "tools.json").read_bytes()
    assert plans == [] and serialized == []


# --- exported bytes do not depend on what ran before -------------------------------------------

def _replay_oracle(bundle, origin, handles: int = 1) -> list[bytes]:
    """The images the fixture's oracle calls write from ``origin`` on
    ``handles`` handles from ``open_environment_at``, all open at once."""
    with contextlib.ExitStack() as stack:
        envs = [stack.enter_context(open_environment_at(bundle, origin)) for _ in range(handles)]
        for call in ct.oracle_tool_calls():
            assert all(execute_tool(env, call).ok for env in envs)
        return [env.snapshot().data for env in envs]


def test_replayed_oracle_calls_write_the_bytes_of_the_target_every_time(travel_pkg, fixture_dir):
    """A write statement cached on a pooled connection stores 0 and 1 in
    another serial type after the next image is loaded, so replays on a pooled
    connection wrote other bytes than the first (rows and digests equal)."""
    images = [_replay_oracle(travel_pkg.env, travel_pkg.origin_snapshot)[0] for _ in range(4)]
    assert images == [(fixture_dir / "target.db").read_bytes()] * 4


def test_a_reset_handle_writes_the_bytes_of_a_fresh_one(travel_pkg, fixture_dir):
    """``reset`` used to load the origin into the used connection, whose cached
    write statements then stored 0 and 1 in serial type 1, so the replay after
    a reset wrote other bytes than a fresh replay (rows and digests equal)."""
    with open_environment_at(travel_pkg.env, travel_pkg.origin_snapshot) as env:
        for replay in range(2):
            for call in ct.oracle_tool_calls():
                assert execute_tool(env, call).ok
            image = env.snapshot().data
            env.reset()
            assert env.digest() == travel_pkg.origin_snapshot.digest()
            assert image == (fixture_dir / "target.db").read_bytes(), replay


def test_stub_rounds_with_writes_between_them_save_the_bytes_of_the_first(tmp_path):
    """Between two in-process stub rounds the oracle calls run 4 times on the
    round's DDL; every saved file and the synthesis log stay those of round 1."""
    clear_memos()  # cold memos; the DDL's catalog and pools live while any bundle holds them
    rounds = []
    for index in range(3):
        port = StubGenerationPort(ct.canned_generation_outputs())
        pkg, log = synthesize_package(ct.SEED_DOMAIN_TEXT, port, name="x", limits=ct.LIMITS)
        save_package(pkg, tmp_path / str(index))
        rounds.append(({f.name: f.read_bytes() for f in (tmp_path / str(index)).iterdir()},
                       json.dumps(log, sort_keys=True)))
        _replay_oracle(pkg.env, pkg.origin_snapshot, handles=4)
    assert rounds[1] == rounds[0] and rounds[2] == rounds[0]
