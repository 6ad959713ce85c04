"""Live environment execution: transactional tool calls against a working
snapshot with triggers enforced, and engine-abort-to-payload translation.

One EnvHandle is single-writer; distinct handles are fully independent.
"""

from __future__ import annotations

import sqlite3
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

from .errors import MalformedArguments, ReadOnlyTable, UnknownTool
from .packages import (
    READ_ONLY,
    EnvironmentBundle,
    TaskPackage,
    ToolSpec,
    split_error_code,
)
from .snapshots import (Snapshot, catalog, insert_sql, open_handle, quote_ident, select_sql,
                        state_digest)

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
    the schema keeps the full scan, tracks digest and distance incrementally
    (see tracker.py); other handles digest by full scan and have no target.

    Every handle keeps one no-change rule: a digest or distance read after
    calls that changed nothing (the connection's ``total_changes`` has not
    moved) reuses the last value, save a tracked handle's full-scan distance
    under ``fk_mode="canonical_remap"``. An untracked handle takes a
    full-scan value afresh instead inside a transaction, after ``reset()`` or
    ``system_write``, and for as long as it keeps a connection that
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
        self.schema_info = (base.schema if base is not None
                            else bundle.schema_info if self._reusable
                            else catalog(self._conn, origin.data))

    # -- lifecycle ----------------------------------------------------------

    def _acquire(self) -> None:
        """Take a connection onto the origin; ``_reusable``: it may go back."""
        data, pool = self.origin.data, self._pool
        self._conn, self._reusable = pool.take(data) if pool else (open_handle(data), False)
        base = self._base
        self._tracker = base.tracker(self._conn) if base is not None and base.tracked else None
        self._kept = {}  # an untracked handle's full-scan values: name -> (total_changes, value)
        if self._tracker is not None and self._conn is self._handed_out:
            self._tracker.settle()  # a caller may still hold it (``connection``)

    def _release(self) -> None:
        """Give the connection back (a tracked one at the origin) or close it."""
        conn, tracker, pool, at = self._conn, self._tracker, self._pool, None
        self._conn = self._tracker = None
        pending = tracker.pending if tracker is not None else conn.in_transaction
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
        """The live connection for the handle's own reads and writes of the
        whole state: a tracked handle's through ``connection``, which ends its
        episode; an untracked one's without handing it out."""
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

    def columns(self, table: str):
        return self.schema_info.columns(table)

    def digest(self) -> str:
        if self._tracker is not None:
            return self._tracker.digest()
        return self._full_scan("digest", lambda conn: state_digest(conn, self.schema_info))

    def distance(self) -> int:
        """d_t: symmetric-difference distance from the live state to the package target."""
        if self._tracker is not None:
            return self._tracker.distance()
        if self._base is None:
            raise RuntimeError("no target: open the environment with open_environment(pkg)")
        return self._full_scan("distance", self._base.reference_distance)

    def _full_scan(self, name: str, scan):
        """``scan`` of the live connection, or the value it gave under ``name``
        at the same ``total_changes`` (the no-change rule, class docstring)."""
        conn = self._own()
        if conn.in_transaction or conn is self._handed_out:
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
        Since ``sql`` may be DDL, the next digest or distance read is a full
        scan (a tracked handle rescans), and the connection is not pooled at
        close.
        """
        conn = self._own()
        self._reusable = False
        self._kept = {}  # ``sql`` may be DDL, which moves no ``total_changes``
        with savepoint(conn):
            rowcount = conn.execute(sql, params).rowcount
        if self._tracker is not None:
            self._tracker.invalidate()
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
    """Execute one tool call in its own savepoint (see ``savepoint``). Here
    and in safe_execute_tool the result gets the post-call digest, read once.

    Engine aborts (trigger RAISEs, constraint failures) become error results
    with the state fully rolled back; UnknownTool / MalformedArguments /
    ReadOnlyTable are raised before any engine dispatch. The arguments must
    satisfy the tool's ``parameter_schema``; past that check only NULL
    filters are limited to = and !=.
    """
    return replace(_dispatch(env, call), state_digest=env.digest())


def safe_execute_tool(env: EnvHandle, call: ToolCall) -> ToolResult:
    """execute_tool with caller-contract violations folded into error results.

    Rollout loops use this so an agent's malformed call becomes feedback
    instead of a crash; the state is untouched in every error case.
    """
    return replace(_dispatch_folded(env, call), state_digest=env.digest())


def _dispatch(env: EnvHandle, call: ToolCall) -> ToolResult:
    if env.closed:
        raise RuntimeError("environment is closed")
    spec = _lookup_tool(env, call.tool_name)
    spec.validate(call.arguments)
    if spec.kind == "query":
        return _run_query(env, spec, call.arguments)
    if spec.kind == "update":
        return _run_write(env, *_update_sql(spec, call.arguments))
    return _run_write(env, *insert_sql(spec.table, call.arguments))  # inserts and escalations


def _dispatch_undone(env: EnvHandle, call: ToolCall) -> ToolResult:
    """``call`` as ``safe_execute_tool`` runs it, inside a savepoint that
    undoes its write, and with no digest: a boundary probe."""
    with savepoint(env._conn, keep=False):
        return _dispatch_folded(env, call)


def _dispatch_folded(env: EnvHandle, call: ToolCall) -> ToolResult:
    try:
        return _dispatch(env, call)
    except UnknownTool as exc:
        payload = ErrorPayload(code="UNKNOWN_TOOL", message=f"unknown tool: {exc}",
                               hint="use a tool from the provided catalog")
    except ReadOnlyTable as exc:
        payload = ErrorPayload(code="READ_ONLY_TABLE", message=str(exc),
                               hint="this table only supports query tools")
    except MalformedArguments as exc:
        payload = ErrorPayload(code="MALFORMED_ARGUMENTS", message=str(exc),
                               hint="check the tool parameter schema")
    return ToolResult(status="error", error=payload)


def _run_query(env: EnvHandle, spec: ToolSpec, args: dict) -> ToolResult:
    columns = [c.name for c in env.columns(spec.table)]
    where, params = _filters_to_sql(spec, args.get("filters"))
    sql = select_sql(spec.table, columns) + where
    order = args.get("order_by")
    if order is not None:
        direction = order.get("direction", "asc").upper()
        sql += f" ORDER BY {quote_ident(order['column'])} {direction}"
    limit = args.get("limit")
    if limit is not None:
        sql += " LIMIT ?"
        params.append(limit)
    rows = tuple(dict(zip(columns, row)) for row in env._conn.execute(sql, params))
    return ToolResult(status="success", rows=rows)


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


def _run_write(env: EnvHandle, sql: str, params: list) -> ToolResult:
    conn = env._conn  # not ``connection``, which would end the episode
    if env._tracker is not None:
        env._tracker.begin()
    try:
        with savepoint(conn):
            affected = max(conn.execute(sql, params).rowcount, 0)
    except sqlite3.Error as exc:
        payload = parse_engine_error(str(exc), env.bundle.error_registry)
        return ToolResult(status="error", error=payload)
    return ToolResult(status="success", affected=affected)
