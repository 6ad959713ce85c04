"""Task package model: loading, validation, tool derivation and round-tripping.

A package is a directory:

    manifest.json   {name, domain, permissions, diff_config, limits,
                     redaction_list[, error_registry]}
    policy.md       natural-language business rules handed to the agent
    task.md         spoiler-free task description driving the user simulator
    schema.sql      table definitions
    triggers.sql    trigger definitions (the hard-compiled rules)
    origin.db       initial snapshot (SQLite image)
    target.db       goal snapshot (SQLite image)
    tools.json      derived tool catalog (cache; regenerated on save)

Packages are immutable after load and safe to share across threads.
"""

from __future__ import annotations

import json
import re
import sqlite3
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import pairwise
from pathlib import Path
from typing import Callable

from .errors import (
    CompileFailure,
    CorruptArtifact,
    InvalidManifest,
    IoFailure,
    MalformedArguments,
    MissingArtifact,
    SchemaMismatch,
    SpoilerLeak,
    UnknownExcludedColumn,
)
from .snapshots import (
    MEMO_SIZE,
    ColumnInfo,
    HandlePool,
    SchemaInfo,
    Snapshot,
    TableInfo,
    catalog,
    quote_ident,
    read_schema,
    tokenize,
)
from .verify import (
    CanonicalRelationSet,
    DiffConfig,
    canonicalize_connection,
    diff_canonical,
    validate_excluded_columns,
)

READ_ONLY = "read_only"
READ_WRITE = "read_write"

ESCALATION_TOOL = "transfer_to_human_agents"
ESCALATIONS_TABLE = "escalations"
ESCALATIONS_DDL = (
    "CREATE TABLE IF NOT EXISTS escalations (\n"
    "    id INTEGER PRIMARY KEY AUTOINCREMENT,\n"
    "    summary TEXT NOT NULL\n"
    ")"
)

QUERY_OPERATORS = ("=", "!=", "<", "<=", ">", ">=")

DEFAULT_STOP_TOKEN = "###STOP###"
DEFAULT_MAX_TURNS = 50

REQUIRED_FILES = (
    "manifest.json",
    "policy.md",
    "task.md",
    "schema.sql",
    "triggers.sql",
    "origin.db",
    "target.db",
)

_ERROR_CODE_RE = re.compile(r"\s*\[([A-Z][A-Z0-9_]*)\]\s*(.*)", re.DOTALL)

@dataclass(frozen=True)
class RolloutLimits:
    max_turns: int = DEFAULT_MAX_TURNS
    stop_token: str = DEFAULT_STOP_TOKEN

    def __post_init__(self):
        if (isinstance(self.max_turns, bool) or not isinstance(self.max_turns, int)
                or self.max_turns < 1):
            raise ValueError("max_turns must be an integer >= 1")
        if not isinstance(self.stop_token, str) or not self.stop_token:
            raise ValueError("stop_token must be a non-empty string")

    def to_json(self) -> dict:
        return {"max_turns": self.max_turns, "stop_token": self.stop_token}

    @classmethod
    def from_json(cls, doc: dict) -> "RolloutLimits":
        return cls(
            max_turns=doc.get("max_turns", DEFAULT_MAX_TURNS),
            stop_token=doc.get("stop_token", DEFAULT_STOP_TOKEN),
        )


@dataclass(frozen=True)
class ToolSpec:
    """One agent-facing tool: an atomic insert/query/update or the escalation."""

    name: str
    kind: str  # insert | query | update | escalation
    table: str | None
    parameter_schema: dict
    description: str
    preconditions: tuple[str, ...] = ()
    side_effects: tuple[str, ...] = ()

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "kind": self.kind,
            "table": self.table,
            "parameter_schema": self.parameter_schema,
            "description": self.description,
            "preconditions": list(self.preconditions),
            "side_effects": list(self.side_effects),
        }

    @cached_property
    def validate(self) -> Callable[[object], None]:
        """Raise MalformedArguments unless the arguments satisfy
        ``parameter_schema``; compiled once (see ``compile_validator``)."""
        return compile_validator(self.parameter_schema, self.name)


@dataclass(frozen=True)
class EnvironmentBundle:
    """Hard-compiled environment: DDL, permissions, tools and the error registry."""

    schema: str
    triggers: str
    permissions: dict[str, str]
    tool_catalog: tuple[ToolSpec, ...]
    error_registry: dict[str, str] = field(default_factory=dict)

    def tools_by_name(self) -> dict[str, ToolSpec]:
        return {t.name: t for t in self.tool_catalog}

    def tables(self, mode: str) -> list[str]:
        return sorted(t for t, m in self.permissions.items() if m == mode)

    @cached_property
    def tools_json(self) -> str:
        """The text of ``tools.json``: the tool catalog, one tool per line (an
        indented dump takes the pure-Python encoder)."""
        tools = ",\n".join(json.dumps(t.to_json()) for t in self.tool_catalog)
        return f"[\n{tools}\n]\n"

    @cached_property
    def _compiled(self) -> tuple[SchemaInfo, Snapshot]:
        """``compile_environment`` of this bundle's DDL; raises CompileFailure."""
        return compile_environment(self.schema, self.triggers)

    @property
    def schema_info(self) -> SchemaInfo:
        """Catalog of this bundle's DDL."""
        return self._compiled[0]

    @property
    def empty_snapshot(self) -> Snapshot:
        """The compiled schema and triggers with no rows."""
        return self._compiled[1]

    @property
    def pool(self) -> HandlePool:
        """Idle handle connections for images of this bundle's compiled catalog,
        shared by every bundle of the same DDL (``SchemaInfo.pool``)."""
        return self.schema_info.pool()

    @classmethod
    def from_schema(cls, schema_sql: str, triggers_sql: str, permissions: dict[str, str],
                    error_registry: dict[str, str] | None = None) -> "EnvironmentBundle":
        """The bundle of this DDL, permissions and registry (None: an empty rule per
        harvested ``[CODE]``), shared by every call with the same arguments in any
        dict order; raises CompileFailure or SchemaMismatch."""
        registry = None if error_registry is None else tuple(sorted(error_registry.items()))
        return _shared_bundle(cls, schema_sql, triggers_sql, tuple(sorted(permissions.items())),
                              registry)


@lru_cache(maxsize=MEMO_SIZE)
def _shared_bundle(cls, schema_sql: str, triggers_sql: str, permissions: tuple,
                   registry: tuple | None) -> EnvironmentBundle:
    info = compile_environment(schema_sql, triggers_sql)[0]
    if registry is None:
        registry = ((code, "") for code in harvest_error_codes(info))
    return cls(schema=schema_sql, triggers=triggers_sql, permissions=dict(permissions),
               tool_catalog=derive_tools_from_schema(info, dict(permissions)),
               error_registry=dict(registry))


@dataclass(frozen=True)
class TaskPackage:
    """Self-contained task unit: policy, task text, environment and both
    snapshots; ``checked_package`` builds every one."""

    name: str
    domain: str
    policy_doc: str
    task_description: str
    env: EnvironmentBundle
    origin_snapshot: Snapshot
    target_snapshot: Snapshot
    diff_config: DiffConfig
    limits: RolloutLimits
    redaction_list: tuple[str, ...] = ()
    delta0: int = 0

    @cached_property
    def verification_base(self):
        """Origin state and origin-to-target difference shared by every handle
        that ``open_environment`` opens on this package; built on first use
        (a ``tracker.VerificationBase``)."""
        # imported here: processes that never open a package handle (ports,
        # ``policygym fixture``) skip compiling the tracker at start-up
        from .tracker import VerificationBase

        return VerificationBase(self)

    @property
    def trivial(self) -> bool:
        """True when origin already equals target (degenerate no-op task)."""
        return self.delta0 == 0


# --- compilation ------------------------------------------------------------

@lru_cache(maxsize=MEMO_SIZE)
def compile_environment(schema_sql: str, triggers_sql: str) -> tuple[SchemaInfo, Snapshot]:
    """Execute the DDL on a scratch in-memory engine: its catalog, interned
    like every image's (``snapshots.catalog``), and the serialized empty
    engine; raise CompileFailure.

    The one place package DDL runs. The escalations log table is added when
    the schema does not declare it. Trigger bodies are force-compiled with
    EXPLAIN probes because SQLite resolves trigger references lazily at
    first fire.
    Memoized over the last ``MEMO_SIZE`` pairs; a CompileFailure is never kept.
    """
    conn = sqlite3.connect(":memory:")
    try:
        try:
            conn.executescript(schema_sql)
        except (sqlite3.Error, ValueError) as exc:  # ValueError: a NUL character
            raise CompileFailure(f"schema: {exc}") from exc
        conn.execute(ESCALATIONS_DDL)
        try:
            if triggers_sql.strip():
                conn.executescript(triggers_sql)
        except (sqlite3.Error, ValueError) as exc:
            raise CompileFailure(f"triggers: {exc}") from exc
        info = read_schema(conn)
        _force_compile_triggers(conn, info)
        conn.commit()
        empty = Snapshot(conn.serialize())
        return catalog(conn, empty.data, info), empty
    finally:
        conn.close()


def _force_compile_triggers(conn: sqlite3.Connection, schema: SchemaInfo) -> None:
    for trigger in schema.triggers:
        qt = quote_ident(trigger.table)
        try:
            if trigger.event == "INSERT":
                conn.execute(f"EXPLAIN INSERT INTO {qt} DEFAULT VALUES")
            elif trigger.event == "UPDATE":
                # the engine's first column: the catalog holds no view's columns
                cols = trigger.of_columns or [conn.execute(f"SELECT * FROM {qt}").description[0][0]]
                sets = ", ".join(f"{quote_ident(c)} = {quote_ident(c)}" for c in cols)
                conn.execute(f"EXPLAIN UPDATE {qt} SET {sets}")
            else:
                conn.execute(f"EXPLAIN DELETE FROM {qt}")
        except sqlite3.Error as exc:
            raise CompileFailure(f"trigger {trigger.name}: {exc}") from exc


# --- trigger annotations -------------------------------------------------------

def trigger_annotations(schema: SchemaInfo, table: str,
                        event: str) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """The preconditions and side effects that the triggers of ``schema`` give
    an ``event`` (INSERT or UPDATE) on ``table``, extracted mechanically.

    Each RAISE message of a BEFORE trigger is a precondition line; each
    statement of an AFTER trigger is a side-effect line. No paraphrase, so
    derivation stays deterministic.
    """
    pre, post = [], []
    for trigger in schema.triggers:
        if trigger.event != event or trigger.table.lower() != table.lower():
            continue
        if trigger.timing == "BEFORE":
            pre += (message for _, message in trigger.raises)
        elif trigger.timing == "AFTER":
            effects = trigger.effects  # UPDATE lines first, then INSERT lines
            post += (f"updates {t}.{c}" for event, t, c in effects if event == "UPDATE")
            post += (f"may insert into {t}" for event, t, _ in effects if event == "INSERT")
    return tuple(pre), tuple(post)


def split_error_code(message: str) -> tuple[str, str] | None:
    """``(code, rule text)`` of an engine message that opens with ``[CODE]``,
    else None: the one code rule of the error registry and of runtime payloads."""
    m = _ERROR_CODE_RE.fullmatch(message)
    return (m.group(1), m.group(2).strip()) if m else None


def harvest_error_codes(schema: SchemaInfo) -> list[str]:
    """The distinct codes of the RAISE messages of ``schema``'s triggers, in
    order of first appearance (``split_error_code``)."""
    split = (split_error_code(message) for t in schema.triggers for _, message in t.raises)
    return list(dict.fromkeys(code for code, _ in filter(None, split)))


# --- argument validation --------------------------------------------------------

# JSON type name -> the exact Python types of its decoded values, so that a
# bool (a Python int) is never an integer or a number
_JSON_TYPES = {"null": (type(None),), "string": (str,), "integer": (int,),
               "number": (int, float), "object": (dict,), "array": (list,)}
_JSON_NAMES = {type(None): "null", bool: "boolean", int: "integer", float: "number",
               str: "string", list: "array", dict: "object"}
# the keywords a validator checks, and its two annotations
_SCHEMA_KEYWORDS = frozenset({"type", "properties", "required", "additionalProperties",
                              "minProperties", "items", "enum", "minimum", "minLength",
                              "description", "default"})
_INT64 = range(-(2**63), 2**63)
_SURROGATE_RE = re.compile("[\ud800-\udfff]")  # code points UTF-8 cannot encode


def compile_validator(schema: dict, label: str) -> Callable[[object], None]:
    """A check that raises MalformedArguments, naming the path from
    ``label``, for a value ``schema`` does not accept.

    ``schema`` keeps to a subset of JSON Schema: ``type`` (a name or a list),
    ``properties``, ``required``, ``additionalProperties`` (a boolean),
    ``minProperties``, ``items``, ``enum`` (of strings), ``minimum``,
    ``minLength``, and the annotations ``description`` and ``default``. Any
    other keyword raises ValueError, so a schema cannot promise a check that
    nothing runs. Every value also keeps the bind rule: an integer fits in
    signed 64 bits, a string holds no lone surrogate, and a boolean is
    never an integer or a number.
    """
    names = schema.get("type", list(_JSON_TYPES))
    names = [names] if isinstance(names, str) else names
    members = schema.get("enum")
    open_ended = schema.get("additionalProperties", True)
    if (set(schema) - _SCHEMA_KEYWORDS or not set(names) <= _JSON_TYPES.keys()
            or not isinstance(open_ended, bool)
            or not all(isinstance(m, str) for m in members or ())):
        raise ValueError(f"{label}: schema outside the supported subset: {schema!r}")
    accepted = frozenset(t for n in names for t in _JSON_TYPES[n])
    if members is not None:
        listed, members, accepted = ", ".join(members), frozenset(members), accepted & {str}
    minimum = schema.get("minimum")
    min_length = schema.get("minLength", 0)
    min_properties = schema.get("minProperties", 0)
    required = tuple(schema.get("required", ()))
    props = {key: compile_validator(sub, f"{label}.{key}")
             for key, sub in schema.get("properties", {}).items()}
    items = compile_validator(schema["items"], f"{label}[]") if "items" in schema else None

    def check(value) -> None:
        kind = type(value)
        if kind not in accepted:
            raise MalformedArguments(f"{label}: expected {' or '.join(names)}, "
                                     f"got {_JSON_NAMES.get(kind, kind.__name__)}")
        if kind is str:
            if not value.isascii() and _SURROGATE_RE.search(value):
                raise MalformedArguments(f"{label}: string is not valid unicode")
            if len(value) < min_length:
                raise MalformedArguments(f"{label}: must have length >= {min_length}")
            if members is not None and value not in members:
                raise MalformedArguments(f"{label}: {value!r} is not one of {listed}")
        elif kind is int or kind is float:
            if kind is int and value not in _INT64:
                raise MalformedArguments(f"{label}: integer out of the 64-bit range")
            if minimum is not None and value < minimum:
                raise MalformedArguments(f"{label}: must be >= {minimum}")
        elif kind is dict:
            for key, item in value.items():
                if key in props:
                    props[key](item)
                elif not open_ended:
                    raise MalformedArguments(f"{label}: unknown property {key!r}")
            for key in required:
                if key not in value:
                    raise MalformedArguments(f"{label}: missing required property {key!r}")
            if len(value) < min_properties:
                raise MalformedArguments(f"{label}: needs at least {min_properties} properties")
        elif kind is list and items is not None:
            for item in value:
                items(item)

    return check


# --- tool derivation ------------------------------------------------------------

def _json_type(decl: str) -> str:
    decl = (decl or "").upper()
    if "INT" in decl:
        return "integer"
    if any(tok in decl for tok in ("CHAR", "CLOB", "TEXT")):
        return "string"
    if "BLOB" in decl or decl == "":
        return "string"
    return "number"


def _auto_key(info: TableInfo) -> str | None:
    """The column that SQLite assigns when an insert omits it: the rowid alias, a
    table's one primary-key column, declared exactly INTEGER and not by
    ``INTEGER PRIMARY KEY DESC``, in a table that is not WITHOUT ROWID."""
    keys = [c for c in info.columns if c.primary_key]
    if len(keys) != 1 or keys[0].decl_type.upper() != "INTEGER":
        return None
    sql = info.sql.upper()  # the tokens are read only where the keywords may stand
    words = map(str.upper, tokenize(info.sql)) if "ROWID" in sql or "DESC" in sql else ()
    return None if {("WITHOUT", "ROWID"), ("KEY", "DESC")} & set(pairwise(words)) else keys[0].name


def _filter_value() -> dict:
    """Any bindable scalar: filters compare values, and the list form of a
    query filter cannot type its value per column."""
    return {"type": ["string", "integer", "number", "null"]}


def _insert_schema(info: TableInfo) -> dict:
    auto_key = _auto_key(info)
    properties = {}
    required = []
    for col in info.columns:
        # NULL is always allowed: NOT NULL belongs to the engine
        prop: dict = {"type": [_json_type(col.decl_type), "null"]}
        notes = []
        if col.name == auto_key:
            notes.append("auto-assigned; omit unless you must override")
        if col.default is not None:
            notes.append(f"defaults to {col.default}")
        if notes:
            prop["description"] = "; ".join(notes)
        properties[col.name] = prop
        if (col.notnull or col.primary_key) and col.default is None and col.name != auto_key:
            required.append(col.name)
    return {"type": "object", "properties": properties, "required": required,
            "additionalProperties": False}


def _query_schema(cols: list[ColumnInfo]) -> dict:
    names = [c.name for c in cols]
    return {
        "type": "object",
        "properties": {
            "filters": {
                "type": ["array", "object", "null"],
                "description": "conjunctive filters: a list of {column, op, value}, or "
                               "{column: value, ...} for equality; a null value only "
                               "takes = (IS NULL) and != (IS NOT NULL)",
                "items": {
                    "type": "object",
                    "properties": {
                        "column": {"type": "string", "enum": names},
                        "op": {"type": "string", "enum": list(QUERY_OPERATORS), "default": "="},
                        "value": _filter_value(),
                    },
                    "required": ["column", "value"],
                },
                "properties": {name: _filter_value() for name in names},
                "additionalProperties": False,
            },
            "order_by": {
                "type": ["object", "null"],
                "properties": {
                    "column": {"type": "string", "enum": names},
                    "direction": {"type": "string", "enum": ["asc", "desc"], "default": "asc"},
                },
                "required": ["column"],
            },
            "limit": {"type": ["integer", "null"], "minimum": 0},
        },
        "required": [],
        "additionalProperties": False,
    }


def _update_schema(info: TableInfo) -> dict:
    return {
        "type": "object",
        "properties": {
            "filters": {
                "type": "object",
                "properties": {c.name: _filter_value() for c in info.columns},
                "additionalProperties": False,
                "description": "equality filters; rows matching every entry are updated",
            },
            "set": {
                "type": "object",
                "properties": {c.name: {"type": [_json_type(c.decl_type), "null"]}
                               for c in info.columns},
                "additionalProperties": False,
                "minProperties": 1,
            },
        },
        "required": ["filters", "set"],
        "additionalProperties": False,
    }


def _compose_description(base: str, pre: tuple[str, ...], post: tuple[str, ...]) -> str:
    parts = [base]
    if pre:
        parts.append("Preconditions: " + " | ".join(pre))
    if post:
        parts.append("Side effects: " + " | ".join(post))
    return " ".join(parts)


def derive_tools_from_schema(
    schema: SchemaInfo, permissions: dict[str, str]
) -> tuple[ToolSpec, ...]:
    """``derive_tools`` on a compiled catalog; its triggers annotate the tools."""
    tools: list[ToolSpec] = []
    for table in sorted(permissions):
        if table not in schema.tables:
            raise SchemaMismatch(f"permission entry for unknown table: {table}")
        tools.append(ToolSpec(
            name=f"query_{table}", kind="query", table=table,
            parameter_schema=_query_schema(schema.tables[table].columns),
            description=f"Read rows from the {table} table with conjunctive filters."))
    for table in sorted(t for t, m in permissions.items() if m == READ_WRITE):
        for kind, parameters, base in (
            ("insert", _insert_schema, f"Insert one row into the {table} table."),
            ("update", _update_schema,
             f"Update rows of the {table} table matching equality filters."),
        ):
            pre, post = trigger_annotations(schema, table, kind.upper())
            tools.append(ToolSpec(name=f"{kind}_{table}", kind=kind, table=table,
                                  parameter_schema=parameters(schema.tables[table]),
                                  description=_compose_description(base, pre, post),
                                  preconditions=pre, side_effects=post))
    tools.append(
        ToolSpec(
            name=ESCALATION_TOOL,
            kind="escalation",
            table=ESCALATIONS_TABLE,
            parameter_schema={
                "type": "object",
                "properties": {"summary": {"type": "string", "minLength": 1}},
                "required": ["summary"],
                "additionalProperties": False,
            },
            description="Escalate to a human agent; records the summary in the escalations log.",
        )
    )
    return tuple(tools)


def derive_tools(
    schema: str, permissions: dict[str, str], triggers: str = ""
) -> tuple[ToolSpec, ...]:
    """Derive the atomic tool catalog from DDL text.

    One insert/query/update per read-write table, one query per read-only
    table, plus the escalation tool. Delete is never derived; lifecycle
    changes go through status updates.
    """
    return derive_tools_from_schema(compile_environment(schema, triggers)[0], permissions)


# --- spoiler check -----------------------------------------------------------------

def token_pattern(token: str) -> re.Pattern:
    """``token`` as a whole word, in any case: one rule for spoilers and redaction.

    Callers run it only where ``token_screen`` lets the token through: for an
    ASCII token, a match needs ``token.lower()`` in the folded text."""
    return re.compile(rf"(?<!\w){re.escape(token)}(?!\w)", re.IGNORECASE)


# The only non-ASCII characters IGNORECASE matches with ASCII ones (every code
# point checked on Python 3.11), and the letter each matches. lower() keeps
# three of them non-ASCII and turns U+0130 into "i" and a combining dot, so
# they are replaced first (str.replace: str.translate is ~15x slower here).
_ASCII_FOLDS = (("\u0130", "i"), ("\u0131", "i"), ("\u017f", "s"), ("\u212a", "k"))


def token_screen(text: str) -> Callable[[str], bool]:
    """A test that is False only for tokens ``token_pattern`` cannot find in
    ``text``. An ASCII token matches only text characters that are its own
    letters in either case or one of ``_ASCII_FOLDS``, so a match needs
    ``token.lower()`` inside the text with those folded, then lowered. A
    non-ASCII token always passes."""
    for char, letter in _ASCII_FOLDS:
        text = text.replace(char, letter)
    folded = text.lower()
    return lambda token: not token.isascii() or token.lower() in folded


def find_spoiler(task_text: str, tool_names, redaction_list) -> str | None:
    """First forbidden token occurring in the task text (``token_pattern``),
    or None. Pure function of its inputs. Only tokens that ``token_screen``
    lets through (an ASCII token must occur in the folded text, ignoring
    case) compile and run their pattern."""
    may_occur = token_screen(task_text)
    for token in list(tool_names) + list(redaction_list):
        if token and may_occur(token) and token_pattern(token).search(task_text):
            return token
    return None


# --- load / save -------------------------------------------------------------------

def _schema_shape(schema: SchemaInfo) -> dict[str, dict[str, str]]:
    return {
        table: {c.name: (c.decl_type or "").upper() for c in info.columns}
        for table, info in schema.tables.items()
    }


# What reading a damaged image raises: SQLite's errors, and the sqlite3 module's
# for text that is not UTF-8.
_UNREADABLE = (sqlite3.DatabaseError, UnicodeDecodeError)


def checked_canonical(snap: Snapshot, env: EnvironmentBundle, cfg: DiffConfig,
                      label: str, run: bool = False) -> CanonicalRelationSet:
    """``canonicalize(snap, cfg)`` under the catalog of ``snap``; SchemaMismatch unless
    that catalog has the tables and column types of ``env``'s. An image that handles
    ``run`` (an origin) must also carry exactly the triggers of ``env``, in order; an
    image that is only compared needs the tables alone.
    The image is read on a connection from ``env.pool``; a hit there proves all of
    this (the image holds the compiled catalog), so the checks run only on a miss,
    under the image's own catalog (``snapshots.catalog``).
    CorruptArtifact when SQLite cannot read the image."""
    schema = env.schema_info
    try:
        conn, hit = env.pool.take(snap.data)
    except _UNREADABLE as exc:
        raise CorruptArtifact(f"{label}: {exc}") from exc
    try:
        info = schema
        if not hit:
            info = catalog(conn, snap.data)
            have, want = _schema_shape(info), _schema_shape(schema)
            for table, cols in want.items():
                if table not in have:
                    raise SchemaMismatch(f"{label}: missing table {table}")
                if have[table] != cols:
                    raise SchemaMismatch(f"{label}: column mismatch in table {table}")
            extra = set(have) - set(want)
            if extra:
                raise SchemaMismatch(f"{label}: unexpected table {sorted(extra)[0]}")
            if run and info.triggers != schema.triggers:
                raise SchemaMismatch(f"{label}: its triggers are not those of triggers.sql")
        return canonicalize_connection(conn, cfg, info)
    except _UNREADABLE as exc:  # a damaged page past the catalog
        hit = False  # so the connection is closed, not pooled
        raise CorruptArtifact(f"{label}: {exc}") from exc
    finally:
        if hit:
            env.pool.give_back(conn)
        else:
            conn.close()


def checked_package(env: EnvironmentBundle, origin: Snapshot, target: Snapshot,
                    diff_config: DiffConfig, policy_doc: str, task_description: str, *,
                    name: str, domain: str, limits: RolloutLimits,
                    redaction_list: tuple[str, ...]) -> TaskPackage:
    """The one way to build a ``TaskPackage``, loaded or assembled: the policy
    text is non-empty (MissingArtifact), both images conform to ``env``
    (``checked_canonical``, the origin with ``run=True``), the task text names no tool
    and no redacted token (SpoilerLeak), and ``delta0`` is their diff total."""
    if not policy_doc.strip():
        raise MissingArtifact("policy.md is empty")
    canonical_origin = checked_canonical(origin, env, diff_config, "origin.db", run=True)
    canonical_target = checked_canonical(target, env, diff_config, "target.db")
    leak = find_spoiler(task_description, [t.name for t in env.tool_catalog], redaction_list)
    if leak is not None:
        raise SpoilerLeak(f"task description mentions {leak!r}")
    return TaskPackage(name=name, domain=domain, policy_doc=policy_doc,
                       task_description=task_description, env=env, origin_snapshot=origin,
                       target_snapshot=target, diff_config=diff_config, limits=limits,
                       redaction_list=redaction_list,
                       delta0=diff_canonical(canonical_origin, canonical_target).total)


def _manifest_field(doc: dict, key: str, kind: type, default, prefix: str = "",
                    of_strings: bool = False):
    """``doc[key]``, or ``default`` when absent; InvalidManifest unless it is a
    ``kind`` (with only string items or values when ``of_strings``)."""
    value = doc.get(key, default)
    if not isinstance(value, kind):
        raise InvalidManifest(f"manifest.json: {prefix}{key} must be a JSON {_JSON_NAMES[kind]}, "
                              f"not {type(value).__name__}")
    items = value.values() if isinstance(value, dict) else value
    if of_strings and not all(isinstance(item, str) for item in items):
        raise InvalidManifest(f"manifest.json: {prefix}{key} must hold only strings")
    return value


def _manifest_section(cls, key: str, doc: dict):
    """``cls.from_json(doc)``; InvalidManifest naming ``key`` when it refuses."""
    try:
        return cls.from_json(doc)
    except (TypeError, ValueError) as exc:  # a wrong-typed number or an unknown mode
        raise InvalidManifest(f"manifest.json: {key}: {exc}") from exc


def _read_text(path: Path) -> str:
    """The text of the package file ``path``; CorruptArtifact unless it is UTF-8."""
    try:
        return path.read_text("utf-8")
    except UnicodeDecodeError as exc:
        raise CorruptArtifact(f"{path.name}: not UTF-8 text ({exc})") from exc


def load_package(path) -> TaskPackage:
    """Load and fully validate a package directory."""
    root = Path(path)
    if not root.is_dir():
        raise MissingArtifact(f"package directory not found: {root}")
    for fname in REQUIRED_FILES:
        if not (root / fname).is_file():
            raise MissingArtifact(fname)

    try:
        manifest = json.loads((root / "manifest.json").read_text("utf-8"))
    except (OSError, ValueError) as exc:  # ValueError: not UTF-8, or not JSON
        raise InvalidManifest(f"manifest.json: {exc}") from exc
    if not isinstance(manifest, dict):
        raise InvalidManifest("manifest.json: top-level object expected")

    name = _manifest_field(manifest, "name", str, root.name)
    domain = _manifest_field(manifest, "domain", str, "")
    diff_doc = _manifest_field(manifest, "diff_config", dict, {})
    excluded = _manifest_field(diff_doc, "excluded_columns", dict, {}, "diff_config.")
    for table in excluded:
        _manifest_field(excluded, table, list, None, "diff_config.excluded_columns.",
                        of_strings=True)
    diff_config = _manifest_section(DiffConfig, "diff_config", diff_doc)
    limits = _manifest_section(RolloutLimits, "limits",
                               _manifest_field(manifest, "limits", dict, {}))
    permissions = _manifest_field(manifest, "permissions", dict, {})
    for table, mode in permissions.items():
        if mode not in (READ_ONLY, READ_WRITE):
            raise InvalidManifest(f"bad permission mode for {table}: {mode!r}")
    redaction_list = tuple(_manifest_field(manifest, "redaction_list", list, [], of_strings=True))
    registry = _manifest_field(manifest, "error_registry", dict, {}, of_strings=True)

    policy_doc, task_description, schema_sql, triggers_sql = (
        _read_text(root / name) for name in ("policy.md", "task.md", "schema.sql", "triggers.sql"))

    info = compile_environment(schema_sql, triggers_sql)[0]
    for table in info.tables:
        if table != ESCALATIONS_TABLE and table not in permissions:
            raise SchemaMismatch(f"no permission entry for table {table}")
    env = EnvironmentBundle.from_schema(schema_sql, triggers_sql, permissions, registry or None)
    try:
        validate_excluded_columns(info, diff_config)
    except UnknownExcludedColumn as exc:
        raise InvalidManifest(f"manifest.json: diff_config: {exc}") from exc

    return checked_package(env, Snapshot.from_file(root / "origin.db"),
                           Snapshot.from_file(root / "target.db"), diff_config, policy_doc,
                           task_description, name=name, domain=domain, limits=limits,
                           redaction_list=redaction_list)


def save_package(pkg: TaskPackage, path) -> None:
    """Write a package directory such that load_package round-trips it."""
    root = Path(path)
    try:
        root.mkdir(parents=True, exist_ok=True)
        manifest = {
            "name": pkg.name,
            "domain": pkg.domain,
            "permissions": dict(sorted(pkg.env.permissions.items())),
            "diff_config": pkg.diff_config.to_json(),
            "limits": pkg.limits.to_json(),
            "redaction_list": list(pkg.redaction_list),
            "error_registry": dict(sorted(pkg.env.error_registry.items())),
        }
        (root / "manifest.json").write_text(
            json.dumps(manifest, indent=2, sort_keys=True) + "\n", "utf-8"
        )
        (root / "policy.md").write_text(pkg.policy_doc, "utf-8")
        (root / "task.md").write_text(pkg.task_description, "utf-8")
        (root / "schema.sql").write_text(pkg.env.schema, "utf-8")
        (root / "triggers.sql").write_text(pkg.env.triggers, "utf-8")
        pkg.origin_snapshot.write_to(root / "origin.db")
        pkg.target_snapshot.write_to(root / "target.db")
        (root / "tools.json").write_text(pkg.env.tools_json, "utf-8")
    except OSError as exc:
        raise IoFailure(str(exc)) from exc
