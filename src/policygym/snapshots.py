"""Snapshot images, the schema catalog, value normalization and content digests.

A snapshot is an immutable single-file SQLite database image held as bytes.
Every content-level operation (digests, canonical row extraction) reads the
image through a short-lived in-memory connection (``Connection.deserialize``);
nothing touches the file system unless a caller writes the image out.
"""

from __future__ import annotations

import contextlib
import hashlib
import math
import re
import sqlite3
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping, NamedTuple


def quote_ident(name: str) -> str:
    return '"' + name.replace('"', '""') + '"'


def insert_sql(table: str, row: dict) -> tuple[str, list]:
    """The INSERT of ``row`` (column -> value) into ``table``, and its parameters."""
    return "INSERT INTO {} ({}) VALUES ({})".format(
        quote_ident(table), ", ".join(quote_ident(c) for c in row), ", ".join("?" * len(row))
    ), list(row.values())


def select_sql(table: str, columns) -> str:
    """The SELECT of ``columns``, in order, from every row of ``table``; of
    ``NULL`` when ``columns`` is empty, so that every row is still read."""
    return "SELECT {} FROM {}".format(
        ", ".join(map(quote_ident, columns)) or "NULL", quote_ident(table))


@dataclass(frozen=True)
class ColumnInfo:
    name: str
    decl_type: str
    notnull: bool
    default: object
    primary_key: bool


@dataclass(frozen=True)
class ForeignKey:
    column: str
    ref_table: str
    ref_column: str


def load_image(conn: sqlite3.Connection, data: bytes) -> None:
    """Replace the main database behind ``conn`` with an in-memory copy of an image.

    A WAL-mode header (bytes 18-19 == 2) is rewritten to rollback mode,
    because an in-memory database cannot open in WAL mode.
    """
    if data[18:20] == b"\x02\x02":
        data = data[:18] + b"\x01\x01" + data[20:]
    conn.deserialize(data)


def open_image(data: bytes, check_same_thread: bool = True) -> sqlite3.Connection:
    """Autocommit connection onto an in-memory copy of a database image."""
    conn = sqlite3.connect(":memory:", isolation_level=None, check_same_thread=check_same_thread)
    if data:  # an empty image is an empty database, which deserialize rejects
        load_image(conn, data)
    return conn


def open_handle(data: bytes) -> sqlite3.Connection:
    """An environment handle's connection onto a copy of the image ``data``: foreign
    keys on, and a pooled one serves handles on any thread, one handle at a time."""
    conn = open_image(data, check_same_thread=False)
    conn.execute("PRAGMA foreign_keys = ON")
    return conn


@dataclass(frozen=True)
class Snapshot:
    """Immutable relational database image (SQLite main-db file bytes)."""

    data: bytes = field(repr=False)

    @classmethod
    def from_file(cls, path) -> "Snapshot":
        with open(path, "rb") as fh:
            return cls(fh.read())

    @classmethod
    def from_connection(cls, conn: sqlite3.Connection) -> "Snapshot":
        return cls(conn.serialize())

    def write_to(self, path) -> None:
        with open(path, "wb") as fh:
            fh.write(self.data)

    @contextlib.contextmanager
    def connect(self):
        """Connection onto a scratch in-memory copy of the image."""
        conn = open_image(self.data)
        try:
            yield conn
        finally:
            conn.close()

    def digest(self) -> str:
        with self.connect() as conn:
            return state_digest(conn)


# --- schema catalog ------------------------------------------------------------

@dataclass(frozen=True)
class TableInfo:
    name: str
    columns: tuple[ColumnInfo, ...]
    foreign_keys: tuple[ForeignKey, ...]
    autoincrement: bool
    sql: str  # the CREATE TABLE statement as stored in sqlite_master

    @property
    def column_names(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.columns)

    @property
    def primary_key(self) -> str | None:
        """First primary-key column in schema order."""
        return next((c.name for c in self.columns if c.primary_key), None)


# The trigger grammar's tokens: one character of a bare SQLite identifier (a
# letter, digit, _ or $, or any non-ASCII character; the class lists the ASCII
# characters it leaves out, because a class with a wide range compiles slowly),
# the whitespace and comments between two tokens (possessive: no token starts
# with either), and one identifier, bare or quoted by "", ``, [] or '' (a
# doubled quote stands for itself)
_ID_CHAR = r"[^\x00-#%-/:-@\[-^`{-\x7f]"
_GAP = r"(?:\s|--[^\n]*|/\*.*?\*/)*+"
_NAME = rf"""(?:"(?:[^"]|"")*"|`(?:[^`]|``)*`|\[[^\]]*\]|'(?:[^']|'')*'|{_ID_CHAR}+)"""


def _words(*words: str) -> str:
    """Each of ``words`` as a whole keyword, followed by a gap."""
    return "".join(rf"{w}(?!{_ID_CHAR}){_GAP}" for w in words)


_QUALIFIED = rf"(?:{_NAME}{_GAP}\.{_GAP})?({_NAME})"  # a schema prefix is dropped
_TRIGGER_HEADER_RE = re.compile(
    _GAP + _words("CREATE") + rf"(?:{_words('TEMP(?:ORARY)?')})?" + _words("TRIGGER")
    + rf"(?:{_words('IF', 'NOT', 'EXISTS')})?{_QUALIFIED}{_GAP}"
    + rf"(?:(BEFORE|AFTER|INSTEAD(?!{_ID_CHAR}){_GAP}OF)(?!{_ID_CHAR}){_GAP})?"
    + _words("(INSERT|UPDATE|DELETE)")
    + rf"(?:{_words('OF')}({_NAME}(?:{_GAP},{_GAP}{_NAME})*){_GAP})?{_words('ON')}{_QUALIFIED}",
    re.IGNORECASE | re.DOTALL | re.ASCII,
)
_COLUMN_RE = re.compile(rf"{_GAP},?{_GAP}({_NAME})", re.DOTALL | re.ASCII)
_RAISE_RE = re.compile(rf"RAISE{_GAP}\({_GAP}(ABORT|FAIL|ROLLBACK){_GAP},{_GAP}({_NAME})",
                       re.IGNORECASE | re.DOTALL | re.ASCII)
_TIMINGS = {"B": "BEFORE", "A": "AFTER", "I": "INSTEAD OF"}


def _unquote(name: str) -> str:
    """The identifier that the SQL token ``name`` spells."""
    if name[0] in "\"`'":
        return name[1:-1].replace(name[0] * 2, name[0])
    return name[1:-1] if name[0] == "[" else name


class TriggerInfo(NamedTuple):
    name: str
    timing: str  # BEFORE | AFTER | INSTEAD OF
    event: str  # INSERT | UPDATE | DELETE
    of_columns: tuple[str, ...]  # the UPDATE OF column list, empty otherwise
    table: str
    body: str  # everything after the ON <table> clause

    @property
    def raises(self) -> tuple[tuple[str, str], ...]:
        """``(ABORT|FAIL|ROLLBACK, message)`` of each RAISE in the body, in order;
        the message is the one the engine reports."""
        return tuple((kind.upper(), _unquote(message))
                     for kind, message in _RAISE_RE.findall(self.body))


def parse_trigger(sql: str) -> TriggerInfo | None:
    """Header fields of a CREATE TRIGGER statement, or None for other SQL."""
    m = _TRIGGER_HEADER_RE.match(sql)
    if m is None:
        return None
    name, timing, event, of_columns, table = m.groups()
    return TriggerInfo(
        name=_unquote(name),
        timing=_TIMINGS[(timing or "B")[0].upper()],  # SQLite's default is BEFORE
        event=event.upper(),
        of_columns=tuple(map(_unquote, _COLUMN_RE.findall(of_columns or ""))),
        table=_unquote(table),
        body=sql[m.end():],
    )


_TABLES_SQL = (
    "SELECT name, coalesce(sql, '') FROM sqlite_master"
    " WHERE type = 'table' AND name NOT LIKE 'sqlite_%' ORDER BY name"
)


@dataclass(frozen=True)
class SchemaInfo:
    """Immutable catalog of one schema: user tables in name order and the
    parsed triggers in creation order."""

    tables: Mapping[str, TableInfo]
    triggers: tuple[TriggerInfo, ...]

    def table(self, name: str) -> TableInfo | None:
        """Lookup that folds case like SQLite does for identifiers."""
        if name in self.tables:
            return self.tables[name]
        return next((t for t in self.tables.values() if t.name.lower() == name.lower()), None)

    def columns(self, table: str) -> tuple[ColumnInfo, ...]:
        """Columns of ``table`` in schema order; empty for an unknown table."""
        info = self.table(table)
        return info.columns if info is not None else ()

    def describes(self, conn: sqlite3.Connection) -> bool:
        """True when ``conn`` holds exactly these tables, created by the same DDL."""
        have = conn.execute(_TABLES_SQL).fetchall()
        return have == [(t.name, t.sql) for t in self.tables.values()]


def catalog_of(conn: sqlite3.Connection, schema: SchemaInfo) -> SchemaInfo:
    """``schema`` if the same DDL made the tables of ``conn``, else their own catalog."""
    return schema if schema.describes(conn) else read_schema(conn)


def read_schema(conn: sqlite3.Connection) -> SchemaInfo:
    """Catalog of the database behind ``conn``.

    The only reader of ``PRAGMA table_info`` and ``PRAGMA foreign_key_list``;
    everything else asks a SchemaInfo.
    """
    rows = conn.execute(_TABLES_SQL).fetchall()
    columns = {
        name: tuple(
            ColumnInfo(name=r[1], decl_type=(r[2] or ""), notnull=bool(r[3]),
                       default=r[4], primary_key=bool(r[5]))
            for r in conn.execute(f"PRAGMA table_info({quote_ident(name)})")
        )
        for name, _ in rows
    }
    by_folded_name = {name.lower(): cols for name, cols in columns.items()}
    tables = {}
    for name, sql in rows:
        fks = []
        # columns: id, seq, table, from, to, on_update, on_delete, match
        for r in conn.execute(f"PRAGMA foreign_key_list({quote_ident(name)})"):
            ref_col = r[4]
            if ref_col is None:
                # implicit reference to the parent's primary key
                parent = by_folded_name.get(r[2].lower(), ())
                ref_col = next((c.name for c in parent if c.primary_key), "rowid")
            fks.append(ForeignKey(column=r[3], ref_table=r[2], ref_column=ref_col))
        tables[name] = TableInfo(name=name, columns=columns[name], foreign_keys=tuple(fks),
                                 autoincrement="AUTOINCREMENT" in sql.upper(), sql=sql)
    return SchemaInfo(tables=MappingProxyType(tables), triggers=read_triggers(conn))


def read_triggers(conn: sqlite3.Connection) -> tuple[TriggerInfo, ...]:
    """The triggers of the database behind ``conn``, parsed, in creation order."""
    return tuple(parse_trigger(sql) for (sql,) in conn.execute(
        "SELECT sql FROM sqlite_master WHERE type = 'trigger' ORDER BY rowid"))


# --- value normalization -------------------------------------------------------

def normalize_value(value, float_decimals: int | None = None):
    """Collapse storage-class artifacts: integral REALs equal INTEGERs, NaN is NULL.

    Idempotent: normalize(normalize(v)) == normalize(v).
    """
    if value is None or isinstance(value, (str, bytes)):
        return value
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, int):
        return value
    if isinstance(value, float):
        if math.isnan(value):
            return None
        if float_decimals is not None and math.isfinite(value):
            value = round(value, float_decimals)
        if math.isfinite(value) and value == int(value):
            return int(value)
        return value
    return value


def encode_value(value) -> bytes:
    """Stable byte encoding of a normalized value, used for row ordering."""
    if value is None:
        return b"n"
    if isinstance(value, int):
        return b"i" + str(value).encode()
    if isinstance(value, float):
        return b"f" + repr(value).encode()
    if isinstance(value, str):
        return b"s" + value.encode("utf-8", "surrogatepass")
    if isinstance(value, bytes):
        return b"b" + value
    return b"o" + repr(value).encode()


def row_sort_key(row: tuple) -> bytes:
    parts = []
    for v in row:
        token = encode_value(v)
        parts.append(str(len(token)).encode() + b":" + token)
    return b"|".join(parts)


# --- content digest ---------------------------------------------------------------

def table_record(table: str, columns) -> bytes:
    """A table's header in the digest input: its name and its column names."""
    return b"T" + table.encode() + b"\x00" + ",".join(columns).encode() + b"\x00"


def row_record(row) -> bytes:
    """A row's record in the digest input: its sort key, framed. Framing keeps
    the order of the keys, because every record ends in the same zero byte."""
    return b"R" + row_sort_key(tuple(normalize_value(v) for v in row)) + b"\x00"


def state_digest(conn: sqlite3.Connection, schema: SchemaInfo | None = None) -> str:
    """256-bit content hash of the full database state.

    Canonical dump: user tables sorted by name, every column in schema order,
    rows sorted by full-tuple byte order. Physical row order and file layout
    do not affect the digest. ``schema`` must describe ``conn``; it is read
    from ``conn`` when not given.
    """
    if schema is None:
        schema = read_schema(conn)
    h = hashlib.sha256()
    for table, info in schema.tables.items():
        h.update(table_record(table, info.column_names))
        for record in sorted(map(row_record, conn.execute(select_sql(table, info.column_names)))):
            h.update(record)
    return h.hexdigest()
