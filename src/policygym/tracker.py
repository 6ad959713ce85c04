"""Incremental state verification: the state digest and the distance to the
target, kept current from a per-connection change log.

TEMP triggers (AFTER INSERT, UPDATE and DELETE on every user table) copy the
old and new rows of each change into a TEMP change log. The TEMP schema
belongs to the connection, so package DDL, snapshots, ``serialize()`` output
and saved images never contain them, and the log rolls back with a rejected
call. After a call the tracker folds the logged rows into

* per-table sorted row-key blocks, re-hashed into a digest bit-identical to
  ``snapshots.state_digest``;
* a signed multiset of canonical rows, live minus target, under the rules of
  ``verify.canonicalize_connection``; d_t is the sum of its absolute counts.

A call therefore costs O(changed rows) plus one hash over the row keys from
the first changed one on: the tracker keeps the hash state every ``MARK``
bytes of digest input and resumes from the last one before the change. A
call that changed nothing reuses the previous digest. The origin's blocks
and the origin-minus-target multiset form a ``VerificationBase``: built once
per package from one scan of each image, never mutated, and shared by every
handle and thread; a handle copies a table's rows on its first write there.
The base keeps the target's canonical rows from the first rescan on, after
which a rescan reads only the live database.

Installing the log costs more than a short episode's calls, so each
connection installs it once and goes back, log empty, to the tracked pool of
the origin's own catalog (``snapshots.catalog``), shared by every package.

A handle's first write opens an outer ``SAVEPOINT policygym_episode``, at
the origin, inside which each call keeps or undoes its own nested savepoint
(``executor.savepoint``). A close runs ``ROLLBACK TO policygym_episode`` and
gives the connection back at the origin, where the next take of that origin
finds it: no image is reloaded, no schema is re-read, and prepared
statements (the trigger programs inside them) survive. Opening a handle, and
handing out its connection before any write, run no SQL, so a trace
callback that a caller sets at open sees the same statements for every
handle.

Two cases close instead by reloading the origin image (``HandlePool.load``,
with no catalog check: its catalog is the one the connection has cached
statements for):

* a schema that can end a transaction or wait for a commit opens no
  episode: a ``ROLLBACK`` keyword (``RAISE(ROLLBACK)``, ``ON CONFLICT
  ROLLBACK``, ``OR ROLLBACK``) would undo the whole episode, and a
  ``DEFERRED`` key is checked only at a commit, which no call makes inside it;
* a handle that hands out its raw connection first ends its episode
  (``settle``) for as long as it keeps that connection: inside the savepoint
  ``serialize()`` returns the last committed image, not the live one.

The tracker reads the full scan's own plan: ``verify.scan_plan`` keeps one
per catalog and diff-config value (each table's columns, digest header,
full-row SELECT and canonical positions), and the log's install statements
are kept per plan, so a second package of one DDL and config rebuilds neither.

The tracker only folds its change log, and runs no full-scan function: the
handle (``executor.EnvHandle``) reads the full scan wherever the tracker
cannot answer, under one no-change rule. The full-scan functions stay the
reference, and the handle uses them

* for a schema that uses REPLACE conflict resolution, which deletes rows
  without firing delete triggers, or that has a user table named like the
  log (the TEMP table would shadow it in unqualified SQL): it gets no
  tracker at all;
* for d_t when the base is not ``counted``: under
  ``fk_mode="canonical_remap"`` a child's canonical row depends on its
  parent's content, and a target image of another catalog has other rows;
* inside a transaction other than the episode (``StateTracker.pending``),
  whose changes the log holds but may still roll back;
* after any ``system_write``, which may run DDL the log cannot follow: the
  handle drops its tracker until ``reset()``.
"""

from __future__ import annotations

import hashlib
import sqlite3
from bisect import bisect_left
from collections import Counter
from functools import cached_property, lru_cache
from itertools import islice, pairwise
from types import MappingProxyType

from .snapshots import (
    MEMO_SIZE,
    SchemaInfo,
    catalog,
    open_handle,
    quote_ident,
    row_record,
    tokenize,
)
from .verify import (
    CanonicalRelationSet,
    DiffConfig,
    ScanPlan,
    canonicalize,
    canonicalize_connection,
    diff_canonical,
    scan_plan,
)

LOG_TABLE = "policygym_changelog"
EPISODE = "policygym_episode"  # the savepoint a handle's episode runs in
MARK = 8192  # bytes of digest input between two kept hash states


@lru_cache(maxsize=MEMO_SIZE)
def _log_ddl(plan: ScanPlan) -> tuple[str, ...]:
    """The statements that install the TEMP log and its triggers for the
    tables of ``plan``; memoized per plan object, of which ``scan_plan``
    keeps one per catalog and diff config. A log row is (table index, +1 for
    a new row or -1 for an old one, its values...)."""
    tables = plan.tables
    width = max((len(t.columns) for t in tables), default=0)
    install = ["CREATE TEMP TABLE IF NOT EXISTS {} (tbl, sign{})".format(
        LOG_TABLE, "".join(f", c{i}" for i in range(width)))]
    for i, t in enumerate(tables):
        slots = "tbl, sign" + "".join(f", c{j}" for j in range(len(t.columns)))

        def log(sign, ref):
            values = "".join(f", {ref}.{quote_ident(c)}" for c in t.columns)
            return f"INSERT INTO {LOG_TABLE} ({slots}) VALUES ({i}, {sign}{values});"

        bodies = {"insert": log(1, "NEW"), "delete": log(-1, "OLD"),
                  "update": log(-1, "OLD") + " " + log(1, "NEW")}
        for event, body in bodies.items():
            name = f"{LOG_TABLE}_{i}_{event}"
            install.append(f"CREATE TEMP TRIGGER {name} AFTER {event.upper()} "
                           f"ON main.{quote_ident(t.name)} BEGIN {body} END")
    return tuple(install)


def _replaces(sql: str) -> bool:
    """``sql`` holds the keyword REPLACE (conflict resolution, or REPLACE INTO);
    a call of the function replace() does not count."""
    tokens = tokenize(sql) if "REPLACE" in sql.upper() else []
    return any(a.upper() == "REPLACE" and b != "(" for a, b in pairwise(tokens + [""]))


def _ends_transactions(sql: str) -> bool:
    """``sql`` holds the keyword ROLLBACK (``RAISE(ROLLBACK)``, ``ON CONFLICT
    ROLLBACK``, ``OR ROLLBACK``), which ends the whole transaction, or DEFERRED
    (a foreign key checked only at a commit)."""
    upper = sql.upper()
    tokens = tokenize(sql) if "ROLLBACK" in upper or "DEFERRED" in upper else []
    return any(t.upper() in ("ROLLBACK", "DEFERRED") for t in tokens)


def _install_log(conn: sqlite3.Connection, schema: SchemaInfo, ddl: list[str],
                 install_sql: tuple[str, ...]) -> bool:
    """Install the log on ``conn``; False, and no log, where it could miss a
    change or where the schema refuses its triggers (a virtual table, say)."""
    if (any(name.lower() == LOG_TABLE for name in schema.tables)
            or any(_replaces(sql) for sql in ddl)):
        return False
    try:
        for sql in install_sql:
            conn.execute(sql)
    except sqlite3.Error:
        return False
    return True


class VerificationBase:
    """What every handle opened on one package starts from.

    Built once from one scan of the origin image and one of the target,
    then only read, so any number of handles and threads share it.
    ``tracked`` is False for a schema the change log cannot follow; its
    handles use the full-scan reference for digest and distance alike.
    ``episodic`` is False for a schema whose DDL could end or outlive an
    episode savepoint (``_ends_transactions``); its handles close by
    reloading the origin image. Both follow ``schema``, the origin's own
    catalog. ``counted``: d_t counts against the target's canonical rows
    (``fk_mode="drop"``, and the target holds that catalog); else it is a
    full scan.

    ``pool`` is where handles take connections: that catalog's plain pool,
    or its tracked one, which gets the base's own connection at the origin.
    """

    def __init__(self, pkg):  # a packages.TaskPackage
        self.cfg: DiffConfig = pkg.diff_config
        self._target = pkg.target_snapshot
        origin = pkg.origin_snapshot
        conn = open_handle(origin.data)
        try:
            self.schema = catalog(conn, origin.data)
            plan = scan_plan(self.schema, self.cfg)  # raises for an unknown excluded column
            self.tables = plan.tables
            install = _log_ddl(plan)
            ddl = ([t.sql for t in self.schema.tables.values()]
                   + [t.body for t in self.schema.triggers])
            self.tracked = _install_log(conn, self.schema, ddl, install)
            self.episodic = self.tracked and not any(map(_ends_transactions, ddl))
            if self.tracked:
                # a fresh engine: a pooled one would keep the target's image
                with self._target.connect() as target:
                    self.counted = (self.cfg.fk_mode == "drop"
                                    and catalog(target, self._target.data) is self.schema)
                    rows, signed = self.scan(conn, target)
                # a handle's first write to a table copies the table's tuple
                # into a list, in time independent of what the call changed
                self.rows = MappingProxyType({name: tuple(keys) for name, keys in rows.items()})
                self.blocks = MappingProxyType(
                    {t.name: t.header + b"".join(rows[t.name]) for t in self.tables})
                del rows
                marks, self.digest = _hash(self.blocks.values(), (hashlib.sha256(),), 0, MARK)
                self.marks = tuple(marks)
                self.signed = None if signed is None else MappingProxyType(signed)
                self.distance = None if signed is None else sum(map(abs, signed.values()))
        except BaseException:
            conn.close()
            raise
        if self.tracked:
            self.pool = self.schema.pool(install, (f"DELETE FROM temp.{LOG_TABLE}",))
            self.pool.give_back(conn, origin)
        else:
            conn.close()
            self.pool = self.schema.pool()

    def scan(self, live: sqlite3.Connection, target: sqlite3.Connection | None = None):
        """(sorted digest records per table, live-minus-target canonical counts)
        of the database behind ``live``; the counts are None when d_t needs the
        full-scan reference. The target's rows come from ``target``, a
        connection onto its image, else from the kept ``target`` set."""
        rows, signed = {}, {}
        for t in self.tables:
            live_rows = live.execute(t.select).fetchall()
            rows[t.name] = sorted(map(row_record, live_rows))
            if self.counted:
                counts = Counter(map(t.canonical, live_rows))
                counts.subtract(self.target.tables[t.name] if target is None
                                else map(t.canonical, target.execute(t.select)))
                signed.update(((t.name, row), n) for row, n in counts.items() if n)
        return rows, signed if self.counted else None

    @cached_property
    def target(self) -> CanonicalRelationSet:
        """The target's canonical relation set, for full-scan distances and
        rescans, read at first use: a base that needs neither keeps no copy."""
        return canonicalize(self._target, self.cfg)

    def reference_distance(self, conn: sqlite3.Connection, schema: SchemaInfo) -> int:
        """d_t by full scan of the live database behind ``conn``, whose catalog
        is ``schema``."""
        live = canonicalize_connection(conn, self.cfg, schema)
        return diff_canonical(live, self.target).total

    def tracker(self, conn: sqlite3.Connection) -> "StateTracker":
        """A new tracker at the origin on ``conn``, taken from ``pool``."""
        return StateTracker(conn, self)


def _hash(blocks, marks, start: int, mark: int) -> tuple[list, str]:
    """(marks, hex digest) of the concatenated ``blocks``, whose first
    ``start`` bytes are the same as when ``marks`` were taken; ``marks[j]`` is
    the hash state after ``j * mark`` bytes. Marks are copied, never updated,
    so the base's marks can be shared."""
    marks = list(marks[: start // mark + 1])
    h = marks[-1].copy()
    at = (len(marks) - 1) * mark  # bytes hashed so far
    end = 0
    for block in blocks:
        begin, end = end, end + len(block)
        view = memoryview(block)
        while at < end:
            stop = min(end, (at // mark + 1) * mark)
            h.update(view[at - begin:stop - begin])
            at = stop
            if at % mark == 0:
                marks.append(h.copy())
    return marks, h.hexdigest()


class StateTracker:
    """The digest and d_t of one connection, kept current from its change log.

    ``conn`` must be a pooled connection (see ``VerificationBase``): at the
    origin, outside any transaction, the base's log installed and empty. A
    tracker serves one handle, which reads it only when it is not
    ``pending``, and reads its d_t only on a ``counted`` base.
    """

    def __init__(self, conn: sqlite3.Connection, base: VerificationBase):
        self.conn = conn
        self._base = base
        self._episodic = base.episodic  # writes run inside the episode savepoint
        self._episode = False  # the episode savepoint is open
        self._rows: dict[str, list[bytes]] = {}  # filled on a table's first write
        self._blocks = dict(base.blocks)
        self._dirty: dict[str, int] = {}  # table -> first record that may differ
        self._marks = base.marks
        self._digest = base.digest
        self._signed = None if base.signed is None else dict(base.signed)
        self._distance = base.distance
        self._seen = conn.total_changes

    @property
    def pending(self) -> bool:
        """The connection is inside a transaction other than the episode, whose
        changes may still roll back."""
        return self.conn.in_transaction and not self._episode

    # -- reads -----------------------------------------------------------------

    def digest(self) -> str:
        self._sync()
        if self._dirty:
            start = None  # digest input bytes before the first change
            offset = 0
            for t in self._base.tables:
                first = self._dirty.get(t.name)
                if first is not None:
                    keys = self._rows[t.name]
                    if start is None:
                        start = offset + len(t.header) + sum(map(len, islice(keys, first)))
                    self._blocks[t.name] = t.header + b"".join(keys)
                offset += len(self._blocks[t.name])
            self._dirty.clear()
            self._marks, self._digest = _hash(
                self._blocks.values(), self._marks, start, MARK)
        return self._digest

    def distance(self) -> int:
        self._sync()
        return self._distance

    # -- writes ------------------------------------------------------------------

    def begin(self) -> None:
        """Open the episode savepoint, if the handle runs one, before a write."""
        if self._episodic and not self._episode:
            self.conn.execute(f"SAVEPOINT {EPISODE}")
            self._episode = True

    def settle(self) -> None:
        """End the episode for good, keeping its changes: the connection is
        then autocommit, and ``serialize()`` on it returns the live state."""
        self._episodic = False
        if self._episode:
            self._episode = False
            self.conn.execute(f"RELEASE {EPISODE}")

    def rewind(self) -> bool:
        """Undo and end the episode (``ROLLBACK TO``, which also empties the
        log, then ``RELEASE``); True when that is back at the origin, as every
        write since the origin ran inside the episode."""
        at_origin = self._episodic
        if self._episode:
            self.conn.execute(f"ROLLBACK TO {EPISODE}")
        self.settle()
        return at_origin

    # -- folding the log -------------------------------------------------------------

    def _sync(self) -> None:
        conn = self.conn
        if conn.total_changes != self._seen:
            logged = conn.execute(f"SELECT * FROM temp.{LOG_TABLE}").fetchall()
            if logged:
                conn.execute(f"DELETE FROM temp.{LOG_TABLE}")
                self._fold(logged)
        self._seen = conn.total_changes

    def _fold(self, logged) -> None:
        net = Counter()
        for tbl, sign, *values in logged:
            net[tbl, tuple(values)] += sign
        tables = self._base.tables
        for (tbl, values), n in net.items():
            if not n:
                continue
            t = tables[tbl]
            row = values[: len(t.columns)]
            keys = self._rows.get(t.name)
            if keys is None:
                keys = self._rows[t.name] = list(self._base.rows[t.name])
            key = row_record(row)
            i = bisect_left(keys, key)
            if n > 0:
                keys[i:i] = [key] * n
            else:
                if keys[i:i - n] != [key] * -n:  # a change the log did not see
                    self._rescan()
                    return
                del keys[i:i - n]
            # records before i are untouched by this change
            self._dirty[t.name] = min(i, self._dirty.get(t.name, i))
            if self._signed is not None:
                entry = (t.name, t.canonical(row))
                before = self._signed.get(entry, 0)
                after = before + n
                self._distance += abs(after) - abs(before)
                if after:
                    self._signed[entry] = after
                else:
                    del self._signed[entry]

    def _rescan(self) -> None:
        self.conn.execute(f"DELETE FROM temp.{LOG_TABLE}")
        rows, signed = self._base.scan(self.conn)
        self._rows = rows
        self._dirty = dict.fromkeys(rows, 0)
        if signed is not None:
            self._signed = signed
            self._distance = sum(map(abs, signed.values()))
