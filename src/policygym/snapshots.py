"""Snapshot images, the schema catalog, value normalization and content digests.

A snapshot is an immutable single-file SQLite database image held as bytes.
Every content-level operation (digests, canonical row extraction) reads the
image through an in-memory connection (``Connection.deserialize``); nothing
touches the file system unless a caller writes the image out.

Opening a connection is cheap, but the first statement prepared on an image
makes SQLite parse its whole catalog. A ``HandlePool`` keeps idle connections
for the images of one catalog and loads the next image into one of them,
where the statements it has prepared run without that parse. The rule that
keeps this correct: ``deserialize`` resets main's schema, yet a prepared
statement (the sqlite3 module caches them by SQL text) runs on the new image
without being prepared again whenever the schema cookie is unchanged, reading
the root pages it was prepared against. ``CREATE TABLE t(a)`` and ``CREATE
TABLE u(b)`` both have cookie 1: after the ``u`` image is loaded, a cached
``SELECT * FROM t`` returns u's rows, while a new statement gets "no such
table: t" (SQLite 3.40.1). So a connection serves an image only when the
image's catalog is the one its statements were prepared on.

``catalog`` interns each image's ``SchemaInfo`` by the key a pool checks
(``_catalog_key``), so images share a catalog object exactly when a cached
statement may serve them all; each catalog owns its pools.

A digest hashes one record per row (``row_record``): each value's token,
framed by its length. An ``int``, ``str``, ``None`` or ``bytes`` value, what
SQLite returns most, is encoded in the same pass; any other value goes
through ``normalize_value`` and ``encode_value``, which stay the rule. A
``TableInfo`` keeps its column names, its digest header and its full-row
SELECT, and a ``SchemaInfo`` keeps the scan plans ``verify.scan_plan``
builds on it, so a scan of a compiled catalog rebuilds none of them.
"""

from __future__ import annotations

import contextlib
import hashlib
import math
import re
import sqlite3
import threading
import weakref
from dataclasses import dataclass, field, replace
from functools import cached_property, lru_cache
from types import MappingProxyType
from typing import Mapping, NamedTuple


MEMO_SIZE = 16  # the distinct keys each per-process memo keeps: DDL pairs, bundles, texts, ...


def quote_ident(name: str) -> str:
    return '"' + name.replace('"', '""') + '"'


def insert_sql(table: str, row: dict) -> tuple[str, list]:
    """The INSERT of ``row`` (column -> value) into ``table``, and its parameters."""
    return _insert_text(table, tuple(row)), list(row.values())


@lru_cache(maxsize=MEMO_SIZE)
def _insert_text(table: str, columns: tuple) -> str:
    return "INSERT INTO {} ({}) VALUES ({})".format(
        quote_ident(table), ", ".join(map(quote_ident, columns)), ", ".join("?" * len(columns)))


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


_CATALOG_SQL = "SELECT type, name, tbl_name, rootpage, sql FROM sqlite_master"


def _header(data: bytes) -> bytes:
    """The header fields of the image ``data`` that a prepared statement
    depends on: schema cookie and schema format (bytes 40-47) and text
    encoding (bytes 56-59)."""
    return data[40:48] + data[56:60]


def _catalog_key(conn: sqlite3.Connection, data: bytes) -> tuple:
    """What a statement prepared on the image ``data``, loaded behind ``conn``,
    depends on: its ``_header`` and every ``sqlite_master`` row in order (a
    statement right on any image: ``sqlite_master`` is rooted at page 1)."""
    return _header(data), tuple(conn.execute(_CATALOG_SQL))


class HandlePool:
    """Idle handle connections (``open_handle``) for the images of one
    catalog (``SchemaInfo.pool``), whose ``_catalog_key`` is ``key``. Tracked
    handles' pools have ``install`` and ``clear``, which create and empty
    the change log (tracker.py).

    ``take`` hands out, as it is, an idle connection that went back ``at``
    the snapshot whose very image object is asked for. Else it loads the
    image into an idle connection (``load``) and checks that the image has
    the pool's ``key``, which is what keeps cached statements right (module
    docstring), not an optimisation. On a miss the connection is closed and
    a fresh one opened on the image, as if there were no pool.

    Only a connection that took a hit may go back (``give_back``), and only
    outside a transaction, having run nothing but reads and writes of rows
    (so every statement it prepared was prepared on this catalog, and
    foreign keys are still on), with no cursor left part-read: loading an
    image under a running statement crashes the process at that statement's
    next use (SQLite 3.40.1). The pool keeps at most ``MEMO_SIZE`` idle
    connections, closing the one idle longest beyond that, and holds each
    ``at`` snapshot weakly, so that it keeps no dropped package's image:
    ``give_back`` closes every idle connection whose ``at`` has died, which
    would otherwise hold that image and crowd out live packages' connections.

    A pooled connection serves reads, and writes whose image never leaves the
    process. A write statement the sqlite3 module cached before a
    ``deserialize`` and runs after it stores the integers 0 and 1 as one-byte
    integers (serial type 1), where a statement prepared on the loaded image
    uses serial types 8 and 9 (SQLite 3.40.1). Rows and digests are equal,
    but the image's bytes then depend on what the connection ran before. So
    the handles whose images are saved (seeding, the explorer and fixture
    builds: ``executor.open_environment_at``) write on fresh connections,
    while boundary probes (every write undone), ``checked_canonical`` and the
    untracked handles of a package (whose images leave the process only as
    digests) take pooled ones. A synthesized task seeds its origin and runs
    its explorer on one fresh connection, which loads no image after its
    first statement, so every statement it caches was prepared on its own
    history and its images are the bytes of a fresh connection for each.
    """

    def __init__(self, key: tuple, install: tuple[str, ...], clear: tuple[str, ...]):
        self._key = key
        self._install, self._clear = install, clear
        self._idle: list[tuple[sqlite3.Connection, weakref.ref | None]] = []  # (connection, at)
        self._lock = threading.Lock()

    def take(self, data: bytes) -> tuple[sqlite3.Connection, bool]:
        """A handle connection onto a copy of the image ``data``, and whether
        the image holds this pool's catalog (a hit). When reading the image
        raises, no connection is kept."""
        with self._lock:
            idle = self._idle
            at = next((i for i in reversed(range(len(idle)))
                       if getattr(idle[i][1] and idle[i][1](), "data", None) is data), None)
            if at is not None:
                return idle.pop(at)[0], True
            conn = idle.pop()[0] if idle and data else None  # deserialize refuses b""
        try:
            if conn is not None:
                self.load(conn, data)
                if _catalog_key(conn, data) == self._key:
                    return conn, True
                conn.close()
            conn = open_handle(data)
            for sql in self._install:
                conn.execute(sql)
            return conn, _catalog_key(conn, data) == self._key
        except BaseException:
            if conn is not None:  # closing twice is harmless
                conn.close()
            raise

    def load(self, conn: sqlite3.Connection, data: bytes) -> None:
        """Load the image ``data`` into ``conn``, a connection of this pool.

        ``deserialize`` frees main's in-memory schema object, to which SQLite
        binds each TEMP trigger; left bound to it, the triggers fire only
        while the new object happens to get its address. So a pool with TEMP
        objects bumps the TEMP schema version, which makes the next statement
        that touches the TEMP schema, before any write (the first of
        ``clear``), re-read it and bind the triggers to the new tables."""
        load_image(conn, data)
        if self._install:
            (version,) = conn.execute("PRAGMA temp.schema_version").fetchone()
            conn.execute(f"PRAGMA temp.schema_version = {version + 1}")
            for sql in self._clear:
                conn.execute(sql)

    def give_back(self, conn: sqlite3.Connection, at: Snapshot | None = None) -> None:
        """Pool ``conn``, which took a hit (see the class docstring); ``at``
        is the snapshot whose image it holds unchanged, if any."""
        with self._lock:
            idle, closing = [], []
            for entry in self._idle:
                (closing if entry[1] is not None and entry[1]() is None else idle).append(entry)
            idle.append((conn, None if at is None else weakref.ref(at)))
            if len(idle) > MEMO_SIZE:
                closing.append(idle.pop(0))
            self._idle = idle
        for old, _ in closing:
            old.close()


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
        """``state_digest`` of the image, read through its interned catalog."""
        with self.connect() as conn:
            return state_digest(conn, catalog(conn, self.data))


# --- SQL tokens ------------------------------------------------------------------

# One SQL token as SQLite's tokenizer splits it, after a gap of whitespace and
# comments (possessive: no token starts with a space or a comment). The token is
# a bare word (a letter, _, $ or any non-ASCII character, then digits too; the
# classes list the ASCII characters they leave out, as a wide-range class
# compiles slowly), a string or a quoted identifier ('', "", `` or []; a doubled
# quote stands for itself), a number, a two-character operator or any other one
# character. The group is empty only at the end of the text.
_TOKEN = re.compile(
    r"\s*+(?:(?:--[^\n]*+|/\*.*?(?:\*/|\Z))\s*+)*+"
    r"([^\x00-#%-@\[-^`{-\x7f][^\x00-#%-/:-@\[-^`{-\x7f]*+"
    r"""|'(?:[^']++|'')*+'|"(?:[^"]++|"")*+"|`(?:[^`]++|``)*+`|\[[^\]]*+\]"""
    r"|0x[\da-f]+|(?:\d+\.?\d*|\.\d+)(?:e[-+]?\d+)?|[<>!=]=|<>|\|\||.)?",
    re.IGNORECASE | re.DOTALL | re.ASCII)
_COMMENT = re.compile(r"--([^\n]*+)|/\*.*?(?:\*/|\Z)", re.DOTALL)  # group 1: a -- comment's text


def tokenize(sql: str) -> list[str]:
    """The text of each token of ``sql``, in order; whitespace and comments dropped."""
    tokens = _TOKEN.findall(sql)
    del tokens[tokens.index(""):]  # the end of the text
    return tokens


def changes_schema(sql: str) -> bool:
    """``sql`` opens with ALTER, CREATE or DROP, as every statement that can change a catalog."""
    return (_TOKEN.match(sql).group(1) or "").upper() in ("ALTER", "CREATE", "DROP")


def is_number(token: str) -> bool:
    """``token`` is a number: it opens with a digit, or with a point and a digit."""
    return "0" <= token.removeprefix(".")[:1] <= "9"


def _unquote(name: str) -> str:
    """The identifier that the SQL token ``name`` spells."""
    if name[0] in "\"`'":
        return name[1:-1].replace(name[0] * 2, name[0])
    return name[1:-1] if name[0] == "[" else name


def _number(text: str):
    """The value of the SQL number ``text``, a sign included, as SQLite reads it: a
    hex literal wraps to signed 64 bits, and an integer outside them is a REAL."""
    if "x" in text.lower():
        value = int(text.lstrip("-+"), 16)
        return (-1 if text[0] == "-" else 1) * (value - (value >> 63 << 64))
    value = float(text) if any(c in text for c in ".eE") else int(text)
    return value if -(2**63) <= value < 2**63 else float(text)


def _literals(tokens) -> tuple | None:
    """The values of the list ``literal, ...)`` read off the iterator ``tokens``, when
    one more ``)`` follows it; else None. A sign and the number after it are one literal."""
    values = []
    for token in tokens:
        text = token + next(tokens, "") if token in ("-", "+") else token
        if text[0] in "'\"":
            values.append(_unquote(text))
        elif is_number(text.lstrip("-+")):
            values.append(_number(text))
        else:
            return None
        end = next(tokens, "")
        if end != ",":
            return tuple(values) if end == next(tokens, "") == ")" else None
    return None


@lru_cache(maxsize=MEMO_SIZE)
def table_tags(sql: str) -> tuple[tuple[str, str], ...]:
    """``(tag, table)`` of each ``-- <tag> Table: <table>`` line comment in ``sql``,
    read between tokens: never inside a string, a quoted name or a block comment.
    Memoized over the last ``MEMO_SIZE`` texts."""
    tags = []
    for m in _TOKEN.finditer(sql):
        for comment in _COMMENT.findall(sql, m.start(), m.start(1) if m.group(1) else m.end()):
            words = tokenize(comment)
            if len(words) > 3 and words[1].upper() == "TABLE" and words[2] == ":":
                tags.append((words[0], _unquote(words[3])))
    return tuple(tags)


# --- schema catalog ------------------------------------------------------------

@dataclass(frozen=True)
class TableInfo:
    name: str
    columns: tuple[ColumnInfo, ...]
    foreign_keys: tuple[ForeignKey, ...]
    sql: str  # the CREATE TABLE statement as stored in sqlite_master

    @cached_property
    def column_names(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.columns)

    @cached_property
    def record(self) -> bytes:
        """This table's header in the digest input (``table_record``)."""
        return table_record(self.name, self.column_names)

    @cached_property
    def select(self) -> str:
        """The SELECT of every column, in schema order, from every row."""
        return select_sql(self.name, self.column_names)

    @property
    def primary_key(self) -> str | None:
        """First primary-key column in schema order."""
        return next((c.name for c in self.columns if c.primary_key), None)

    @cached_property
    def autoincrement(self) -> bool:
        """The DDL holds the keyword AUTOINCREMENT."""
        return "AUTOINCREMENT" in self.sql.upper() and any(
            token.upper() == "AUTOINCREMENT" for token in tokenize(self.sql))

    @cached_property
    def check_enums(self) -> dict[str, tuple]:
        """Column -> the literal values of its ``CHECK(<column> IN (...))``, in order."""
        tokens, enums = tokenize(self.sql), {}
        for i in range(len(tokens) - 4):
            column = tokens[i + 2]
            if (tokens[i].upper() == "CHECK" and tokens[i + 1] == tokens[i + 4] == "("
                    and tokens[i + 3].upper() == "IN"):
                values = _literals(iter(tokens[i + 5:]))
                if values is not None:
                    enums[_unquote(column)] = values
        return enums


_TIMINGS = {"BEFORE": "BEFORE", "AFTER": "AFTER", "INSTEAD": "INSTEAD OF"}


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
        tokens = tokenize(self.body) if "RAISE" in self.body.upper() else []
        return tuple((tokens[i + 2].upper(), _unquote(tokens[i + 4]))
                     for i in range(len(tokens) - 4)
                     if tokens[i].upper() == "RAISE" and tokens[i + 1] == "("
                     and tokens[i + 2].upper() in ("ABORT", "FAIL", "ROLLBACK")
                     and tokens[i + 3] == ",")

    @property
    def effects(self) -> tuple[tuple[str, str, str], ...]:
        """``("UPDATE", table, first SET column)`` of each UPDATE in the body and
        ``("INSERT", table, "")`` of each INSERT or REPLACE, in order."""
        tokens = tokenize(self.body) + [""] * 6  # nothing matches past the end
        words, found = [token.upper() for token in tokens], []
        for i, word in enumerate(words):
            if word == "UPDATE":  # UPDATE [OR <conflict>] [schema .] table SET [(] column
                i += 2 * (words[i + 1] == "OR")
            elif word != "INTO":  # in a trigger body, INTO follows only INSERT and REPLACE
                continue
            i += 1 + 2 * (tokens[i + 2] == ".")  # a schema prefix is dropped
            if word == "INTO":
                found.append(("INSERT", _unquote(tokens[i]), ""))
            elif words[i + 1] == "SET":
                column = tokens[i + 2 + (tokens[i + 2] == "(")]  # SET (a, b) = ...
                found.append(("UPDATE", _unquote(tokens[i]), _unquote(column)))
        return tuple(found)


def parse_trigger(sql: str) -> TriggerInfo | None:
    """Header fields of a CREATE TRIGGER statement, or None for other SQL. Tokens
    are read up to the table name; the body is the text after it."""
    tokens, ends = [], []
    for m in _TOKEN.finditer(sql):
        tokens.append(m.group(1) or "")
        ends.append(m.end())
        if len(tokens) > 3 and tokens[-4].upper() == "ON":  # ON [schema .] table
            break
    words = [token.upper() for token in tokens] + [""] * 3
    i = 1 + (words[1] in ("TEMP", "TEMPORARY"))
    if words[0] != "CREATE" or words[i] != "TRIGGER" or "ON" not in words:
        return None
    i += 1 + 3 * (words[i + 1:i + 4] == ["IF", "NOT", "EXISTS"])
    i += 2 * (words[i + 1] == ".")  # a schema prefix is dropped
    name, timing = tokens[i], _TIMINGS.get(words[i + 1], "BEFORE")  # SQLite's default
    i += 1 + (words[i + 1] in _TIMINGS) + (words[i + 1] == "INSTEAD")  # INSTEAD OF
    on = words.index("ON", i)
    table = on + 1 + 2 * (words[on + 2] == ".")
    if words[i] not in ("INSERT", "UPDATE", "DELETE"):
        return None
    return TriggerInfo(
        name=_unquote(name), timing=timing, event=words[i],
        of_columns=tuple(map(_unquote, tokens[i + 2:on:2] if words[i + 1] == "OF" else ())),
        table=_unquote(tokens[table]), body=sql[ends[table]:])


_TABLES_SQL = (
    "SELECT name, coalesce(sql, '') FROM sqlite_master"
    " WHERE type = 'table' AND name NOT LIKE 'sqlite_%' ORDER BY name"
)


@dataclass(frozen=True)
class SchemaInfo:
    """Immutable catalog of one schema: user tables in name order and the
    parsed triggers in creation order. ``key`` is the ``_catalog_key`` it
    was interned by (``catalog``); a catalog from ``read_schema`` alone has
    the empty key, which no image holds."""

    tables: Mapping[str, TableInfo]
    triggers: tuple[TriggerInfo, ...]
    key: tuple = field(default=(), repr=False, compare=False)

    def table(self, name: str) -> TableInfo | None:
        """Lookup that folds case like SQLite does for identifiers."""
        if name in self.tables:
            return self.tables[name]
        return next((t for t in self.tables.values() if t.name.lower() == name.lower()), None)

    def columns(self, table: str) -> tuple[ColumnInfo, ...]:
        """Columns of ``table`` in schema order; empty for an unknown table."""
        info = self.table(table)
        return info.columns if info is not None else ()

    @cached_property
    def scan_plans(self) -> dict:
        """``verify.scan_plan``'s memo for this catalog, by diff-config value."""
        return {}

    @cached_property
    def _pools(self) -> dict:
        return {}

    def pool(self, install: tuple[str, ...] = (), clear: tuple[str, ...] = ()) -> HandlePool:
        """This catalog's one pool whose new connections run ``install`` (which
        alone decides ``clear``); it keeps the key, not the catalog."""
        pools = self._pools
        return pools.get(install) or pools.setdefault(install, HandlePool(self.key, install, clear))


_CATALOGS: weakref.WeakValueDictionary = weakref.WeakValueDictionary()  # by ``_catalog_key``
_CATALOGS_LOCK = threading.Lock()


def catalog(conn: sqlite3.Connection, data: bytes, schema: SchemaInfo | None = None) -> SchemaInfo:
    """The catalog of the image ``data``, loaded behind ``conn``: one object per
    ``_catalog_key`` while anything holds it. On first sight it is ``schema``,
    when the caller has read it from ``conn`` already, else ``read_schema``."""
    key = _catalog_key(conn, data)
    with _CATALOGS_LOCK:
        info = _CATALOGS.get(key)
        if info is None:
            info = _CATALOGS[key] = replace(schema or read_schema(conn), key=key)
    return info


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
                                 sql=sql)
    triggers = tuple(parse_trigger(sql) for (sql,) in conn.execute(
        "SELECT sql FROM sqlite_master WHERE type = 'trigger' ORDER BY rowid"))
    return SchemaInfo(tables=MappingProxyType(tables), triggers=triggers)


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


def _encoded(row, slow) -> bytes:
    """The sort key of ``row``: each value's token, framed by its length. A
    value of exact type ``int``, ``str``, ``None`` or ``bytes`` is its own
    normalized value and is encoded here; any other (a float, a bool, an int
    subclass) goes to ``slow``, which gives its token."""
    parts = []
    for v in row:
        t = type(v)
        if t is int:
            token = b"i%d" % v
        elif t is str:
            token = b"s" + v.encode("utf-8", "surrogatepass")
        elif v is None:
            parts.append(b"1:n")
            continue
        elif t is bytes:
            token = b"b" + v
        else:
            token = slow(v)
        parts.append(b"%d:%s" % (len(token), token))
    return b"|".join(parts)


def row_sort_key(row: tuple) -> bytes:
    """The order key of a row of normalized values: ``encode_value`` of each,
    framed by its length."""
    return _encoded(row, encode_value)


def _normalized_token(value) -> bytes:
    return encode_value(normalize_value(value))


# --- content digest ---------------------------------------------------------------

def table_record(table: str, columns) -> bytes:
    """A table's header in the digest input: its name and its column names."""
    return b"T" + table.encode() + b"\x00" + ",".join(columns).encode() + b"\x00"


def row_record(row) -> bytes:
    """A row's record in the digest input: the sort key of its normalized
    values, framed. Framing keeps the order of the keys, because every record
    ends in the same zero byte."""
    return b"R" + _encoded(row, _normalized_token) + b"\x00"


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
    for info in schema.tables.values():
        h.update(info.record)
        for record in sorted(map(row_record, conn.execute(info.select))):
            h.update(record)
    return h.hexdigest()
