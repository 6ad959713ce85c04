"""Live environment execution: transactional tool calls against a working
snapshot with triggers enforced, and engine-abort-to-payload translation.

One EnvHandle is single-writer; distinct handles are fully independent.
"""

from __future__ import annotations

import sqlite3
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import MalformedArguments, ReadOnlyTable, UnknownTool
from .packages import (
    READ_ONLY,
    EnvironmentBundle,
    TaskPackage,
    ToolSpec,
    split_error_code,
)
from .snapshots import (Snapshot, TableInfo, catalog, changes_schema, insert_sql, open_handle,
                        quote_ident, read_schema, state_digest)

if TYPE_CHECKING:
    from .tracker import VerificationBase

UNCLASSIFIED = "UNCLASSIFIED"


@dataclass(frozen=True)
class ToolCall:
    tool_name: str
    arguments: dict

    def to_json(self) -> dict:
        return {"tool_name": self.tool_name, "arguments": self.arguments}

    @classmethod
    def from_json(cls, doc: dict) -> "ToolCall":
        # arguments stay as sent, so the tool's validator judges any JSON value
        return cls(tool_name=doc["tool_name"], arguments=doc.get("arguments", {}))


@dataclass(frozen=True)
class ErrorPayload:
    code: str
    message: str
    violated_rule: str = ""
    hint: str = ""

    def to_json(self) -> dict:
        return {
            "code": self.code,
            "message": self.message,
            "violated_rule": self.violated_rule,
            "hint": self.hint,
        }

    @classmethod
    def from_json(cls, doc: dict) -> "ErrorPayload":
        return cls(
            code=doc["code"],
            message=doc.get("message", ""),
            violated_rule=doc.get("violated_rule", ""),
            hint=doc.get("hint", ""),
        )


@dataclass(frozen=True)
class ToolResult:
    status: str  # success | error
    rows: tuple = ()
    affected: int = 0
    error: ErrorPayload | None = None
    state_digest: str = ""

    @property
    def ok(self) -> bool:
        return self.status == "success"

    def to_json(self) -> dict:
        return {
            "status": self.status,
            "rows": [dict(r) for r in self.rows],
            "affected": self.affected,
            "error": self.error.to_json() if self.error else None,
            "state_digest": self.state_digest,
        }

    @classmethod
    def from_json(cls, doc: dict) -> "ToolResult":
        err = doc.get("error")
        return cls(
            status=doc["status"],
            rows=tuple(doc.get("rows", [])),
            affected=doc.get("affected", 0),
            error=ErrorPayload.from_json(err) if err else None,
            state_digest=doc.get("state_digest", ""),
        )


def parse_engine_error(raw: str, registry: dict[str, str]) -> ErrorPayload:
    """Translate a raw engine message into the structured error payload.

    Messages following the '[CODE] rule text' convention (``split_error_code``) keep their
    code and rule; everything else becomes UNCLASSIFIED with the message verbatim.
    """
    code, rule = split_error_code(raw) or (UNCLASSIFIED, "")
    return ErrorPayload(code=code, message=raw, violated_rule=rule, hint=registry.get(code, ""))


class EnvHandle:
    """An in-memory working copy of the origin snapshot with triggers installed.

    Callers must serialize execute_tool on one handle; open several handles
    for parallel rollouts. The origin snapshot bytes are never mutated.

    A handle opened on a package (``base`` given) knows its target and, unless
    the schema keeps the full scan, tracks digest and distance from a change
    log (see tracker.py) until a ``system_write``; other handles have no
    target. The handle owns every full-scan value: it reads its tracker only
    where the tracker can answer (not ``pending``, and for d_t a ``counted``
    base), and the full scan everywhere else.

    Every handle keeps one no-change rule: a digest or distance read after
    calls that changed nothing (the connection's ``total_changes`` has not
    moved) reuses the last value. A full-scan value is taken afresh instead
    inside a transaction whose changes may still roll back (on a tracked
    handle, one other than its episode), after ``reset()`` or
    ``system_write``, and for as long as the handle keeps a connection that
    ``connection`` has handed out, through which a caller may run DDL or
    ``deserialize``, neither of which moves ``total_changes``.

    A handle takes its connection onto the origin from its base's pool, or
    for ``open_pooled_at`` its bundle's (``snapshots.HandlePool``), and
    ``close()`` gives it back unless it is inside a transaction, ran
    ``system_write`` (arbitrary SQL, TEMP DDL included) or came from a pool
    miss; ``reset()`` is that close followed by that take. A handle from
    ``open_environment_at`` opens a fresh connection and closes it: the
    bytes of an image written on a pooled connection depend on what that
    connection ran before (see ``HandlePool``). A closed handle no longer
    reaches its connection.

    A tracked handle's first write opens an episode savepoint, and its close
    rolls back to it (tracker.py). Handing out ``connection`` ends that
    savepoint while the handle keeps that connection (its ``snapshot()`` and
    ``system_write`` hand it out too), so the caller gets an autocommit
    connection onto the live state; the close then reloads the origin image.

    Every write keeps or undoes its changes through ``savepoint``, so a probe
    undoes its write instead of calling ``reset()``.
    """

    def __init__(self, bundle: EnvironmentBundle, origin: Snapshot,
                 base: VerificationBase | None = None, *, _pooled: bool = False):
        self.bundle = bundle
        self.origin = origin
        self.closed = False
        self._tools = bundle.tools_by_name()
        self._base = base
        self._pool = base.pool if base is not None else bundle.pool if _pooled else None
        self._handed_out = None  # the connection ``connection`` last handed out
        self._acquire()

    # -- lifecycle ----------------------------------------------------------

    def _acquire(self) -> None:
        """Take a connection onto the origin; ``_reusable``: it may go back."""
        data, pool = self.origin.data, self._pool
        self._conn, self._reusable = pool.take(data) if pool else (open_handle(data), False)
        base = self._base
        self._tracker = base.tracker(self._conn) if base is not None and base.tracked else None
        self.schema_info = (base.schema if base is not None
                            else self.bundle.schema_info if self._reusable
                            else catalog(self._conn, data))
        self._kept = {}  # full-scan values: name -> (total_changes, value)
        if self._tracker is not None and self._conn is self._handed_out:
            self._tracker.settle()  # a caller may still hold it (``connection``)

    @property
    def _pending(self) -> bool:
        """The connection is inside a transaction whose changes may still roll
        back: for a tracked handle, one other than its episode."""
        tracker = self._tracker
        return tracker.pending if tracker is not None else self._conn.in_transaction

    def _release(self) -> None:
        """Give the connection back (a tracked one at the origin) or close it."""
        pending = self._pending
        conn, tracker, pool, at = self._conn, self._tracker, self._pool, None
        self._conn = self._tracker = None
        if pool is None or not self._reusable or pending:
            conn.close()
            return
        if tracker is not None:
            at = self.origin
            try:
                if not tracker.rewind():
                    pool.load(conn, at.data)
            except sqlite3.Error:
                conn.close()
                return
        pool.give_back(conn, at)

    def close(self) -> None:
        if not self.closed:
            self.closed = True
            self._release()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def reset(self) -> None:
        """Restore the working state to the origin snapshot: ``close()``'s
        release of the connection, then ``__init__``'s take of one."""
        if self.closed:
            raise RuntimeError("environment is closed")
        self._release()
        self._acquire()

    # -- introspection ------------------------------------------------------

    @property
    def connection(self) -> sqlite3.Connection:
        """The live connection, autocommit; on a tracked handle this ends the
        episode savepoint (see the class docstring).

        A cursor opened on it must be read to its end or closed before the
        handle resets or closes: a pooled connection then loads another image,
        and ``deserialize`` under a part-read cursor crashes the process at
        that cursor's next use (SQLite 3.40.1). ``read`` returns fetched rows
        and leaves no cursor. A reset may move the handle to another connection."""
        if self.closed:
            raise RuntimeError("environment is closed")
        if self._tracker is not None:
            self._tracker.settle()
        self._handed_out = self._conn
        return self._conn

    def _own(self) -> sqlite3.Connection:
        """The live connection for ``snapshot()`` and ``system_write``: a
        tracked handle's through ``connection``, which ends its episode; an
        untracked one's without handing it out."""
        if self.closed:
            raise RuntimeError("environment is closed")
        return self._conn if self._tracker is None else self.connection

    def read(self, sql: str, params=()) -> list[tuple]:
        """Every row of the query ``sql`` on the live state, fetched; unlike
        ``connection`` this keeps a tracked handle's episode savepoint."""
        if self.closed:
            raise RuntimeError("environment is closed")
        return self._conn.execute(sql, params).fetchall()

    @property
    def tracked(self) -> bool:
        """True when digest and distance follow the change log (tracker.py)."""
        return self._tracker is not None

    def digest(self) -> str:
        tracker = self._tracker
        if tracker is not None and not tracker.pending:
            return tracker.digest()
        return self._full_scan("digest", lambda conn: state_digest(conn, self.schema_info))

    def distance(self) -> int:
        """d_t: symmetric-difference distance from the live state to the package target."""
        base, tracker = self._base, self._tracker
        if base is None:
            raise RuntimeError("no target: open the environment with open_environment(pkg)")
        if tracker is not None and not tracker.pending and base.counted:
            return tracker.distance()
        return self._full_scan("distance",
                               lambda conn: base.reference_distance(conn, self.schema_info))

    def _full_scan(self, name: str, scan):
        """``scan`` of the live connection, or the value it gave under ``name``
        at the same ``total_changes`` (the no-change rule, class docstring).
        It reads the connection in place: a tracked handle keeps its episode."""
        if self.closed:
            raise RuntimeError("environment is closed")
        conn = self._conn
        if self._pending or conn is self._handed_out:
            return scan(conn)
        changes = conn.total_changes
        kept = self._kept.get(name)
        if kept is None or kept[0] != changes:
            kept = self._kept[name] = (changes, scan(conn))
        return kept[1]

    def snapshot(self) -> Snapshot:
        """Immutable copy of the current state; later writes do not affect it."""
        return Snapshot.from_connection(self._own())

    # -- privileged writes ----------------------------------------------------

    def system_write(self, sql: str, params=()) -> int:
        """Engine-level write with triggers active but no permission gate.

        Used by seeding and probing; agent traffic must go through
        execute_tool. Raises sqlite3.Error on rejection; fully rolled back.
        Since ``sql`` may be DDL, which the change log cannot follow and which
        moves no ``total_changes``, the next digest or distance read is a full
        scan, a tracked handle stops tracking until ``reset()``, and the
        connection is not pooled at close. DDL that changes the catalog
        (``changes_schema``) swaps it in, so later scans read the live schema.
        """
        conn = self._own()
        self._reusable, self._tracker, self._kept = False, None, {}
        with savepoint(conn):
            rowcount = conn.execute(sql, params).rowcount
        if changes_schema(sql) and (schema := read_schema(conn)) != self.schema_info:
            self.schema_info = schema
        return rowcount


class savepoint:
    """A ``with`` body inside a savepoint: ``RELEASE`` keeps its changes (and
    commits outside a transaction) when it returns and ``keep`` holds, else
    ``ROLLBACK TO`` + ``RELEASE`` undo them, as they do when the release
    fails. A class, not a generator: throwing every rejected call's error
    into a generator slows each one."""

    def __init__(self, conn: sqlite3.Connection, keep: bool = True):
        self.conn, self.keep = conn, keep

    def __enter__(self):
        self.conn.execute("SAVEPOINT policygym")

    def __exit__(self, exc_type, exc, tb):
        conn, released = self.conn, False
        try:
            if exc_type is None and self.keep:
                conn.execute("RELEASE policygym")
                released = True
        finally:
            # a trigger's RAISE(ROLLBACK) has already ended the whole transaction
            if not released and conn.in_transaction:
                conn.execute("ROLLBACK TO policygym")
                conn.execute("RELEASE policygym")


def open_environment(pkg: TaskPackage) -> EnvHandle:
    """Instantiate a live environment seeded from the package origin, scored
    against the package target."""
    return EnvHandle(pkg.env, pkg.origin_snapshot, pkg.verification_base)


def open_environment_at(bundle: EnvironmentBundle, snapshot: Snapshot) -> EnvHandle:
    """Live environment starting from an arbitrary snapshot (seeding, the
    explorer, fixture builds). It has no target and digests by full scan
    after each call that changed the state. Its connection is a fresh
    engine, so the images it writes are the same bytes in any process state.
    A synthesized task opens one at the empty image, seeds on it and runs its
    explorer on it from there: an engine that loads no image after its first
    statement writes the bytes of a fresh engine at each of its states (see
    ``snapshots.HandlePool``)."""
    return EnvHandle(bundle, snapshot)


def open_pooled_at(bundle: EnvironmentBundle, snapshot: Snapshot) -> EnvHandle:
    """``open_environment_at`` on a connection from the bundle's pool, for a
    handle whose image never leaves the process (boundary probes, whose
    writes are all undone)."""
    return EnvHandle(bundle, snapshot, _pooled=True)


# --- execution ----------------------------------------------------------------------

def _filters_to_sql(spec: ToolSpec, filters) -> tuple[str, list]:
    """WHERE clause of validated ``filters``: a list of {column, op, value},
    a {column: value} equality shorthand, or None."""
    if isinstance(filters, dict):
        triples = [(col, "=", value) for col, value in filters.items()]
    else:
        triples = [(f["column"], f.get("op", "="), f["value"]) for f in filters or ()]
    clauses, params = [], []
    for col, op, value in triples:
        if value is not None:
            clauses.append(f"{quote_ident(col)} {op} ?")
            params.append(value)
        elif op in ("=", "!="):
            clauses.append(f"{quote_ident(col)} IS {'' if op == '=' else 'NOT '}NULL")
        else:
            raise MalformedArguments(f"{spec.name}: NULL only supports = and !=")
    where = (" WHERE " + " AND ".join(clauses)) if clauses else ""
    return where, params


def _lookup_tool(env: EnvHandle, name: str) -> ToolSpec:
    if not isinstance(name, str):  # a port may send any JSON value
        raise UnknownTool(repr(name))
    spec = env._tools.get(name)
    if spec is not None:
        return spec
    # distinguish "write to a read-only table" from a plain unknown name
    kind, _, table = name.partition("_")
    if kind in ("insert", "update") and env.bundle.permissions.get(table) == READ_ONLY:
        raise ReadOnlyTable(f"table {table} is read-only; {name} is not available")
    raise UnknownTool(name)


def execute_tool(env: EnvHandle, call: ToolCall) -> ToolResult:
    """Execute one tool call in its own savepoint (see ``savepoint``). A call
    reads what the catalog fixes (spec, validator, a query's columns and
    SELECT, an INSERT's text per column set), builds its other SQL, and reads
    the post-call digest once into its one result (also in safe_execute_tool).

    Engine aborts (trigger RAISEs, constraint failures) become error results
    with the state fully rolled back; UnknownTool / MalformedArguments /
    ReadOnlyTable are raised before any engine dispatch. The arguments must
    satisfy the tool's ``parameter_schema``; past that check only NULL
    filters are limited to = and !=.
    """
    return _dispatch(env, call, env.digest)


def safe_execute_tool(env: EnvHandle, call: ToolCall) -> ToolResult:
    """execute_tool with caller-contract violations folded into error results.

    Rollout loops use this so an agent's malformed call becomes feedback
    instead of a crash; the state is untouched in every error case.
    """
    return _dispatch_folded(env, call, env.digest)


def _dispatch(env: EnvHandle, call: ToolCall, digest=str) -> ToolResult:
    """``call``'s result, built once with ``digest()`` read after it; ``str``: no digest."""
    if env.closed:
        raise RuntimeError("environment is closed")
    spec = _lookup_tool(env, call.tool_name)
    spec.validate(call.arguments)
    if spec.kind == "query":
        return _run_query(env, spec, call.arguments, digest)
    if spec.kind == "update":
        return _run_write(env, *_update_sql(spec, call.arguments), digest)
    return _run_write(env, *insert_sql(spec.table, call.arguments), digest)  # inserts, escalations


def _dispatch_undone(env: EnvHandle, call: ToolCall) -> ToolResult:
    """``call`` as ``safe_execute_tool`` runs it, inside a savepoint that
    undoes its write, and with no digest: a boundary probe."""
    with savepoint(env._conn, keep=False):
        return _dispatch_folded(env, call)


def _dispatch_folded(env: EnvHandle, call: ToolCall, digest=str) -> ToolResult:
    try:
        return _dispatch(env, call, digest)
    except UnknownTool as exc:
        payload = ErrorPayload(code="UNKNOWN_TOOL", message=f"unknown tool: {exc}",
                               hint="use a tool from the provided catalog")
    except ReadOnlyTable as exc:
        payload = ErrorPayload(code="READ_ONLY_TABLE", message=str(exc),
                               hint="this table only supports query tools")
    except MalformedArguments as exc:
        payload = ErrorPayload(code="MALFORMED_ARGUMENTS", message=str(exc),
                               hint="check the tool parameter schema")
    return ToolResult(status="error", error=payload, state_digest=digest())


def _run_query(env: EnvHandle, spec: ToolSpec, args: dict, digest=str) -> ToolResult:
    # a table the catalog lacks selects NULL, which the engine refuses
    info = env.schema_info.table(spec.table) or TableInfo(spec.table, (), (), "")
    columns = info.column_names
    where, params = _filters_to_sql(spec, args.get("filters"))
    sql = info.select + where
    order = args.get("order_by")
    if order is not None:
        direction = order.get("direction", "asc").upper()
        sql += f" ORDER BY {quote_ident(order['column'])} {direction}"
    limit = args.get("limit")
    if limit is not None:
        sql += " LIMIT ?"
        params.append(limit)
    rows = tuple(dict(zip(columns, row)) for row in env._conn.execute(sql, params))
    return ToolResult(status="success", rows=rows, state_digest=digest())


def _update_sql(spec: ToolSpec, args: dict) -> tuple[str, list]:
    """UPDATE for ``{"filters": {column: value, ...}, "set": {...}}``.

    Empty ``filters`` update every row of the table. That is intended:
    recorded trajectories may hold such calls, and rejecting them now would
    break their replays; the triggers still judge every row.
    """
    setter = args["set"]
    where, where_params = _filters_to_sql(spec, args["filters"])
    sql = "UPDATE {} SET {}{}".format(
        quote_ident(spec.table),
        ", ".join(f"{quote_ident(c)} = ?" for c in setter),
        where,
    )
    return sql, list(setter.values()) + where_params


def _run_write(env: EnvHandle, sql: str, params: list, digest=str) -> ToolResult:
    conn = env._conn  # not ``connection``, which would end the episode
    if env._tracker is not None:
        env._tracker.begin()
    try:
        with savepoint(conn):
            affected = max(conn.execute(sql, params).rowcount, 0)
    except sqlite3.Error as exc:
        payload = parse_engine_error(str(exc), env.bundle.error_registry)
        return ToolResult(status="error", error=payload, state_digest=digest())
    return ToolResult(status="success", affected=affected, state_digest=digest())
