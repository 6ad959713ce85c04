"""Schema catalog: agreement with SQLite's own PRAGMAs, and the trigger parser."""

from __future__ import annotations

import re
import sqlite3
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from policygym.errors import CompileFailure
from policygym.executor import open_environment_at
from policygym.packages import compile_environment, derive_tools
from policygym.snapshots import TriggerInfo, catalog, parse_trigger, quote_ident, read_schema

from conftest import snapshot_from_sql
from test_savepoints import _SCHEMA as ACCOUNTS_SCHEMA, _TRIGGERS as ACCOUNTS_TRIGGERS
from test_verify import PAIR_SCHEMA


def _pragma_catalog(conn) -> dict:
    """Columns and foreign keys straight from PRAGMA, implicit references
    resolved to the parent's first primary-key column."""
    tables = [r[0] for r in conn.execute(
        "SELECT name FROM sqlite_master WHERE type = 'table'"
        " AND name NOT LIKE 'sqlite_%' ORDER BY name"
    )]
    out = {}
    for table in tables:
        cols = [(r[1], r[2] or "", bool(r[3]), r[4], bool(r[5]))
                for r in conn.execute(f'PRAGMA table_info("{table}")')]
        fks = []
        for r in conn.execute(f'PRAGMA foreign_key_list("{table}")'):
            ref = r[4]
            if ref is None:
                pks = [p[1] for p in conn.execute(f'PRAGMA table_info("{r[2]}")') if p[5]]
                ref = pks[0] if pks else "rowid"
            fks.append((r[3], r[2], ref))
        out[table] = (cols, fks)
    return out


def _catalog(schema) -> dict:
    return {
        name: (
            [(c.name, c.decl_type, c.notnull, c.default, c.primary_key) for c in info.columns],
            [(fk.column, fk.ref_table, fk.ref_column) for fk in info.foreign_keys],
        )
        for name, info in schema.tables.items()
    }


def test_fixture_catalog_matches_pragmas(travel_pkg):
    schema = travel_pkg.env.schema_info
    with travel_pkg.origin_snapshot.connect() as conn:
        assert _catalog(schema) == _pragma_catalog(conn)
        assert catalog(conn, travel_pkg.origin_snapshot.data) is schema
        assert read_schema(conn) == schema
        sql = dict(conn.execute("SELECT name, sql FROM sqlite_master WHERE type = 'table'"))
    assert list(schema.tables) == sorted(schema.tables)
    assert {t: info.sql for t, info in schema.tables.items()} == {
        t: s for t, s in sql.items() if not t.startswith("sqlite_")}
    auto = {t for t, info in schema.tables.items() if info.autoincrement}
    assert auto == {"approvals", "escalations", "flight_bookings", "hotel_bookings",
                    "travel_requests"}


def test_canonical_remap_schema_catalog_matches_pragmas():
    snap = snapshot_from_sql([
        PAIR_SCHEMA,
        # an implicit reference resolves to the parent's primary key
        "CREATE TABLE notes (id INTEGER PRIMARY KEY, tag_id INTEGER REFERENCES tags)",
    ])
    with snap.connect() as conn:
        schema = read_schema(conn)
        assert _catalog(schema) == _pragma_catalog(conn)
    assert schema.tables["notes"].foreign_keys[0].ref_column == "id"
    assert schema.tables["tags"].foreign_keys[0].ref_table == "items"
    assert [t for t, info in schema.tables.items() if info.autoincrement] == ["items", "tags"]
    assert schema.tables["items"].primary_key == "id"


def test_describes_rejects_other_ddl(travel_pkg):
    other = snapshot_from_sql([PAIR_SCHEMA])
    with other.connect() as conn:
        assert catalog(conn, other.data) is not travel_pkg.env.schema_info


def test_images_of_one_ddl_share_one_catalog(travel_pkg):
    """``catalog`` interns by what a cached statement depends on, so the
    compiled catalog is the one object of the empty image, an origin, a
    target and a fresh handle's image; other DDL text or one more trigger
    gets another, which serves each image of its own."""
    env = travel_pkg.env
    schema = env.schema_info
    for snap in (env.empty_snapshot, travel_pkg.origin_snapshot, travel_pkg.target_snapshot):
        with snap.connect() as conn:
            assert catalog(conn, snap.data) is schema
    with open_environment_at(env, travel_pkg.origin_snapshot) as handle:
        assert handle.schema_info is schema
    with travel_pkg.origin_snapshot.connect() as conn:
        conn.execute("CREATE TRIGGER one_more AFTER INSERT ON escalations BEGIN SELECT 1; END")
        one_more = conn.serialize()
        assert catalog(conn, one_more) is not schema
        assert catalog(conn, one_more) is catalog(conn, one_more)
    other_text, empty = compile_environment(env.schema.replace("(", "(\n", 1), env.triggers)
    assert other_text is not schema and other_text.tables.keys() == schema.tables.keys()
    with empty.connect() as conn:
        assert catalog(conn, empty.data) is other_text


def test_threads_reading_one_new_catalog_at_once_get_one_object():
    """20 times over, 8 threads on two cores, switching often, each read the
    catalog of one new image on a connection of their own, all at once,
    before any catalog of it exists: every thread gets the same object."""
    start = threading.Barrier(8)

    def read(snap):
        with snap.connect() as conn:
            start.wait(timeout=60)
            return catalog(conn, snap.data)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(8) as pool:
            for race in range(20):
                snap = snapshot_from_sql([f"CREATE TABLE raced_{race} (a, b);"])
                found = list(pool.map(read, [snap] * 8, timeout=60))
                assert all(info is found[0] for info in found)
                assert list(found[0].tables) == [f"raced_{race}"]
    finally:
        sys.setswitchinterval(interval)


_TRIGGER_CASES = [
    ("CREATE TRIGGER t1 BEFORE INSERT ON items BEGIN SELECT 1; END",
     TriggerInfo("t1", "BEFORE", "INSERT", (), "items", " BEGIN SELECT 1; END")),
    ("create trigger if not exists t2 after delete on items begin select 1; end",
     TriggerInfo("t2", "AFTER", "DELETE", (), "items", " begin select 1; end")),
    ('CREATE TRIGGER "t3" AFTER INSERT ON "items" BEGIN SELECT 1; END',
     TriggerInfo("t3", "AFTER", "INSERT", (), "items", " BEGIN SELECT 1; END")),
    ("CREATE TRIGGER t4 INSTEAD  OF INSERT ON v BEGIN SELECT 1; END",
     TriggerInfo("t4", "INSTEAD OF", "INSERT", (), "v", " BEGIN SELECT 1; END")),
    ("CREATE TRIGGER t5 AFTER UPDATE OF a, b ON items BEGIN SELECT 1; END",
     TriggerInfo("t5", "AFTER", "UPDATE", ("a", "b"), "items", " BEGIN SELECT 1; END")),
    ('CREATE TRIGGER t6\n  BEFORE\n  UPDATE OF\n    "a",\n    b\n  ON items\n'
     "  WHEN NEW.a >= 3\nBEGIN SELECT 1; END",
     TriggerInfo("t6", "BEFORE", "UPDATE", ("a", "b"), "items",
                 "\n  WHEN NEW.a >= 3\nBEGIN SELECT 1; END")),
    ("CREATE TRIGGER t7 AFTER UPDATE ON items BEGIN SELECT 1; END",
     TriggerInfo("t7", "AFTER", "UPDATE", (), "items", " BEGIN SELECT 1; END")),
    ("CREATE INDEX idx ON items (a)", None),
    # no timing: SQLite's default is BEFORE
    ("CREATE TRIGGER t8 INSERT ON items BEGIN SELECT 1; END",
     TriggerInfo("t8", "BEFORE", "INSERT", (), "items", " BEGIN SELECT 1; END")),
    ('CREATE TRIGGER "my t9" AFTER DELETE ON "order items" BEGIN SELECT 1; END',
     TriggerInfo("my t9", "AFTER", "DELETE", (), "order items", " BEGIN SELECT 1; END")),
    ("CREATE TRIGGER main.t10 BEFORE UPDATE ON main.items BEGIN SELECT 1; END",
     TriggerInfo("t10", "BEFORE", "UPDATE", (), "items", " BEGIN SELECT 1; END")),
    ("CREATE TRIGGER t11 AFTER UPDATE OF [unit price], [b] ON [order items] BEGIN SELECT 1; END",
     TriggerInfo("t11", "AFTER", "UPDATE", ("unit price", "b"), "order items",
                 " BEGIN SELECT 1; END")),
    ("CREATE TRIGGER 't''12' /* a note */ UPDATE OF `b` -- a line note\n ON`order items`WHEN 1\n"
     "BEGIN SELECT 1; END",
     TriggerInfo("t'12", "BEFORE", "UPDATE", ("b",), "order items", "WHEN 1\nBEGIN SELECT 1; END")),
    # a keyword only as a whole word: this name does not hold IF NOT EXISTS
    ("CREATE TRIGGER ifnotexists_t13 AFTER INSERT ON items BEGIN SELECT 1; END",
     TriggerInfo("ifnotexists_t13", "AFTER", "INSERT", (), "items", " BEGIN SELECT 1; END")),
]


@pytest.mark.parametrize("sql, expected", _TRIGGER_CASES)
def test_parse_trigger(sql, expected):
    assert parse_trigger(sql) == expected


def test_trigger_cases_compile_and_the_catalog_keeps_creation_order():
    statements = ["CREATE TABLE items (a, b)", "CREATE VIEW v AS SELECT * FROM items",
                  'CREATE TABLE "order items" ("unit price", b)']
    snap = snapshot_from_sql(statements + [sql for sql, want in _TRIGGER_CASES if want])
    with snap.connect() as conn:
        triggers = read_schema(conn).triggers
    assert [t[:5] for t in triggers] == [want[:5] for _, want in _TRIGGER_CASES if want]


def test_all_fixture_triggers_parse(travel_pkg):
    triggers = travel_pkg.env.schema_info.triggers
    assert len(triggers) == 16
    with travel_pkg.origin_snapshot.connect() as conn:
        stored = [r[0] for r in conn.execute(
            "SELECT name FROM sqlite_master WHERE type = 'trigger' ORDER BY rowid")]
    assert [t.name for t in triggers] == stored
    assert all(t.table in travel_pkg.env.schema_info.tables for t in triggers)


def test_a_trigger_that_names_no_timing_is_force_compiled_and_annotates_its_tool():
    triggers = ("CREATE TRIGGER g INSERT ON t "
                "BEGIN SELECT RAISE(ABORT, '[NO_A] a is required') WHERE NEW.a IS NULL; END;")
    tools = {tool.name: tool for tool in derive_tools("CREATE TABLE t (a);", {"t": "read_write"},
                                                      triggers)}
    assert tools["insert_t"].preconditions == ("[NO_A] a is required",)
    broken = "CREATE TRIGGER g INSERT ON t BEGIN INSERT INTO missing VALUES (1); END;"
    with pytest.raises(CompileFailure, match="trigger g: no such table"):
        compile_environment("CREATE TABLE t (a);", broken)


def test_a_trigger_on_a_quoted_table_with_a_space_compiles():
    info, _ = compile_environment(
        'CREATE TABLE "order items" (a);',
        'CREATE TRIGGER g AFTER INSERT ON "order items" BEGIN SELECT 1; END;')
    assert [t[:5] for t in info.triggers] == [("g", "AFTER", "INSERT", (), "order items")]


def test_raises_reads_each_kind_and_the_message_the_engine_reports():
    info, _ = compile_environment(ACCOUNTS_SCHEMA, ACCOUNTS_TRIGGERS)
    assert [t.raises for t in info.triggers] == [
        (("ROLLBACK", "[NO_CLOSE] accounts are never closed"),),
        (("FAIL", "[NO_FREEZE] freezing needs a review"),),
        (("ABORT", "[AUDIT_FULL] the audit holds one note"),),
    ]


@pytest.mark.parametrize("message", ["'it''s closed'", '"a ""quoted"" rule"', "[a bracketed rule]",
                                     "`a ``ticked`` rule`", "bare_rule"])
def test_raises_unquotes_the_message_as_the_engine_does(message):
    conn = sqlite3.connect(":memory:")
    try:
        conn.execute("CREATE TABLE t (a)")
        conn.execute("CREATE TRIGGER g BEFORE INSERT ON t"
                     f" BEGIN SELECT RAISE ( abort , {message} ); END")
        (trigger,) = read_schema(conn).triggers
        with pytest.raises(sqlite3.IntegrityError) as caught:
            conn.execute("INSERT INTO t VALUES (1)")
    finally:
        conn.close()
    assert trigger.raises == (("ABORT", str(caught.value)),)


def test_raises_skip_a_raise_spelled_in_a_string_or_a_comment():
    trigger = parse_trigger(
        "CREATE TRIGGER g BEFORE INSERT ON t BEGIN SELECT 'RAISE(ABORT, ''[X] no'')' WHERE 0;"
        " /* RAISE(FAIL, 'y') */ SELECT RAISE(ABORT, 'real') -- RAISE(ROLLBACK, 'z')\n; END")
    assert trigger.raises == (("ABORT", "real"),)


_EFFECT_CASES = [
    ('INSERT INTO "order items" VALUES (1, 2);', (("INSERT", "order items", ""),)),
    ('UPDATE [order items] SET "unit price" = 1;', (("UPDATE", "order items", "unit price"),)),
    # SQLite refuses a schema prefix inside a trigger body; the reader drops it
    ("UPDATE main.t SET a = 1;", (("UPDATE", "t", "a"),)),
    ("INSERT OR IGNORE INTO t VALUES (1);", (("INSERT", "t", ""),)),
    ("UPDATE OR ABORT `t` SET `a` = 1;", (("UPDATE", "t", "a"),)),
    ("REPLACE INTO t VALUES (1); update\nt set (a, b) = (1, 2);",
     (("INSERT", "t", ""), ("UPDATE", "t", "a"))),
    # a keyword only as a whole word, outside strings and comments
    ("UPDATE last_update SET insert_into = 'UPDATE x SET y'; /* INSERT INTO z */"
     " -- UPDATE x SET y\nSELECT RAISE(ABORT, 'cannot insert into x');",
     (("UPDATE", "last_update", "insert_into"),)),
]


@pytest.mark.parametrize("body, effects", _EFFECT_CASES)
def test_effects_read_each_write_of_the_body(body, effects):
    trigger = parse_trigger(f"CREATE TRIGGER g AFTER INSERT ON t BEGIN {body} END")
    assert trigger.effects == effects


def test_a_trigger_writing_to_a_quoted_table_annotates_its_tool_in_order():
    schema = 'CREATE TABLE t (a); CREATE TABLE "order items" ("unit price", b);'
    triggers = ('CREATE TRIGGER g AFTER INSERT ON t BEGIN INSERT INTO "order items" VALUES (1, 2);'
                ' UPDATE [order items] SET "unit price" = 1; END;')
    tools = {tool.name: tool for tool in derive_tools(schema, {"t": "read_write"}, triggers)}
    assert tools["insert_t"].side_effects == ("updates order items.unit price",
                                              "may insert into order items")


_ENUM_CASES = [
    ("kind TEXT CHECK(kind IN ('a', 'b, c'))", {"kind": ("a", "b, c")}),
    ("kind TEXT CHECK(kind IN ('it''s', 'a)b'))", {"kind": ("it's", "a)b")}),
    ("[kind] TEXT CHECK ( [kind] IN ( 'x' /* , 'y' */ , \"z\" ) )", {"kind": ("x", "z")}),
    ("n INTEGER CHECK(n IN (-1, 0x10, +2))", {"n": (-1, 16, 2)}),
    ("n REAL CHECK (n IN (2.5, /* half */ .5, 1E2))", {"n": (2.5, 0.5, 100.0)}),
    ("kind TEXT CHECK(kind NOT IN ('a')), note TEXT DEFAULT 'CHECK(kind IN (1))'", {}),
    # a gap between a sign and its number: SQLite reads -1
    ("n INTEGER CHECK(n IN (- 1, 2))", {"n": (-1, 2)}),
    # a hex literal wraps to signed 64 bits; a decimal integer past them is a REAL
    ("n CHECK(n IN (0xFFFFFFFFFFFFFFFF, 9223372036854775808))", {"n": (-1, 2.0**63)}),
    ("n CHECK(n IN (-9223372036854775808, +9223372036854775808, - 0xFFFFFFFFFFFFFFFF))",
     {"n": (-(2**63), 2.0**63, 1)}),
]


@pytest.mark.parametrize("column, enums", _ENUM_CASES)
def test_check_enums_read_the_literals_sqlite_reads(column, enums):
    info, _ = compile_environment(f"CREATE TABLE t (id INTEGER PRIMARY KEY, {column});", "")
    read = info.tables["t"].check_enums
    # typed: 2**63 == 2.0**63, but SQLite stores one as INTEGER and the other as REAL
    assert {c: [(type(v), v) for v in vs] for c, vs in read.items()} == {
        c: [(type(v), v) for v in vs] for c, vs in enums.items()}


@pytest.mark.parametrize("columns, autoincrement", [
    ("id INTEGER PRIMARY KEY AUTOINCREMENT", True),
    ("id integer primary key autoincrement, note TEXT", True),
    ("id INTEGER PRIMARY KEY, autoincrement_note TEXT", False),
    ('id INTEGER PRIMARY KEY, "autoincrement" TEXT DEFAULT \'AUTOINCREMENT\'', False),
    ("id INTEGER PRIMARY KEY /* AUTOINCREMENT */", False),
])
def test_autoincrement_is_read_as_a_whole_keyword(columns, autoincrement):
    info, _ = compile_environment(f"CREATE TABLE t ({columns});", "")
    assert info.tables["t"].autoincrement is autoincrement


def test_an_instead_of_update_trigger_on_a_view_compiles():
    schema = "CREATE TABLE t (a); CREATE VIEW v AS SELECT a FROM t;"
    info, _ = compile_environment(
        schema, "CREATE TRIGGER x INSTEAD OF UPDATE ON v BEGIN UPDATE t SET a = NEW.a; END")
    assert [t[:5] for t in info.triggers] == [("x", "INSTEAD OF", "UPDATE", (), "v")]
    with pytest.raises(CompileFailure, match="trigger x: no such column"):
        compile_environment(
            schema, "CREATE TRIGGER x INSTEAD OF UPDATE ON v BEGIN UPDATE t SET a = NEW.b; END")


# the pieces of a generated CREATE TRIGGER: identifier text, the ways to write
# one identifier, and the gaps and keyword spellings SQLite reads alike
_IDENT_TEXT = st.one_of(st.from_regex(r"[ab_é][ab_$é]{0,4}", fullmatch=True),  # bare-able
                        st.text(st.sampled_from("ab_$é \"'`.-"), min_size=1, max_size=5))
_STYLES = st.sampled_from(["bare", '""', "[]", "''", "``"])
_GAPS = st.sampled_from([" ", "\n", "\t ", " /* a note */ ", " -- a note\n"])
_SPELLINGS = st.sampled_from([str.upper, str.lower, str.title])
_UPDATES = st.sampled_from([("UPDATE",), ("UPDATE", "OR", "IGNORE")])
_INSERTS = st.sampled_from([("INSERT",), ("INSERT", "OR", "ABORT"), ("REPLACE",)])


def _spell(text: str, style: str) -> str:
    if style == "bare" and re.fullmatch(r"[A-Za-z_é][\w$é]*", text):
        return text
    if style == "[]" and "]" not in text:
        return f"[{text}]"
    if style in ("''", "``"):
        return style[0] + text.replace(style[0], style) + style[0]
    return quote_ident(text)


@st.composite
def _trigger_statements(draw):
    """A schema of one or two tables and CREATE TRIGGER statements on them,
    each with the header fields and the effects it should read as."""
    tables = draw(st.lists(_IDENT_TEXT, min_size=1, max_size=2, unique_by=str.lower))
    schema = [f"CREATE TABLE {quote_ident(t)} (a, {quote_ident(t + ' col')})" for t in tables]

    def words(*words: str) -> list[str]:
        return [part for word in words for part in (draw(_SPELLINGS)(word), draw(_GAPS))]

    def plain(text: str) -> list[str]:
        return [_spell(text, draw(_STYLES)), draw(_GAPS)]

    def ident(text: str) -> list[str]:
        prefix = ["main", draw(_GAPS), ".", draw(_GAPS)] if draw(st.booleans()) else []
        return prefix + plain(text)

    statements = []
    for i in range(draw(st.integers(1, 4))):
        name, table = draw(_IDENT_TEXT) + str(i), draw(st.sampled_from(tables))
        timing = draw(st.sampled_from(["", "BEFORE", "AFTER"]))
        event = draw(st.sampled_from(["INSERT", "DELETE", "UPDATE"]))
        of_columns = draw(st.lists(st.sampled_from(["a", table + " col"]), max_size=2,
                                   unique=True)) if event == "UPDATE" else []
        parts = words("CREATE", "TRIGGER") + (words("IF", "NOT", "EXISTS") if draw(st.booleans())
                                              else [])
        parts += ident(name) + (words(timing) if timing else []) + words(event)
        if of_columns:
            parts += words("OF") + [",".join(_spell(c, draw(_STYLES)) + draw(_GAPS)
                                             for c in of_columns)]
        parts += words("ON") + ident(table) + words("BEGIN") + ["SELECT RAISE(ROLLBACK, 'no');"]
        # a write to each of two tables, which effects reads back
        updated, inserted = draw(st.sampled_from(tables)), draw(st.sampled_from(tables))
        column = draw(st.sampled_from(["a", updated + " col"]))
        parts += [draw(_GAPS)] + words(*draw(_UPDATES)) + plain(updated)
        parts += words("SET") + plain(column) + ["= 1;", draw(_GAPS)]
        parts += words(*draw(_INSERTS), "INTO") + plain(inserted)
        parts += words("VALUES") + ["(1, 2);", draw(_GAPS)] + words("END")
        effects = (("UPDATE", updated, column), ("INSERT", inserted, ""))
        statements.append(("".join(parts),
                           (name, timing or "BEFORE", event, tuple(of_columns), table), effects))
    return schema, statements


@settings(max_examples=50, deadline=None, derandomize=True)
@given(_trigger_statements())
def test_every_trigger_sqlite_accepts_reads_as_sqlite_stores_it(case):
    schema, statements = case
    conn = sqlite3.connect(":memory:")
    try:
        for sql in schema:
            conn.execute(sql)
        for sql, header, effects in statements:
            conn.execute(sql)
            assert parse_trigger(sql)[:5] == header, sql
            assert parse_trigger(sql).effects == effects, sql
        stored = conn.execute("SELECT name, tbl_name FROM sqlite_master"
                              " WHERE type = 'trigger' ORDER BY rowid").fetchall()
        triggers = read_schema(conn).triggers
    finally:
        conn.close()
    assert [(t.name, t.table) for t in triggers] == stored
    assert all(t.raises == (("ROLLBACK", "no"),) for t in triggers)


def _spelled_literal(draw, value) -> str:
    """``value`` as one SQL literal: a string quoted by '', or a number with a sign
    (and a gap after it) or none, spelled in decimal, hex or with an exponent."""
    if isinstance(value, str):
        return _spell(value, "''")
    sign = "-" if value < 0 else draw(st.sampled_from(["", "+"]))
    value = abs(value)
    if isinstance(value, int):  # SQLite refuses -0x8000000000000000, whose hex is -2**63
        hex_ok = (sign, value) != ("-", 2**63)
        digits = draw(st.sampled_from([str(value)] + [f"0x{value:x}"] * hex_ok))
    else:  # a multiple of 1/8, so that any reading of its decimal digits is exact
        digits = draw(st.sampled_from([repr(value), f"{int(value * 1000)}e-3"]))
    digits = digits.lstrip("0") if digits.startswith("0.") and draw(st.booleans()) else digits
    return sign + (draw(_GAPS) if sign else "") + draw(_SPELLINGS)(digits)


@st.composite
def _enum_tables(draw):
    """A CREATE TABLE whose column c has a generated ``CHECK(c IN (...))`` list and a
    BEFORE INSERT trigger for c IS NULL whose real RAISE stands between decoys in a
    string and in comments; with each literal's text and the RAISE's kind and message."""
    values = draw(st.lists(st.one_of(st.integers(-300, 300),
                                     # the edges of signed 64 bits and of 64-bit hex
                                     st.sampled_from([2**63 - 1, 2**63, -(2**63),
                                                      -(2**63) - 1, 2**64 - 1]),
                                     st.integers(-4000, 4000).map(lambda n: n / 8),
                                     st.text(st.sampled_from("ab '\"é,)("), max_size=4)),
                           min_size=1, max_size=4))
    literals = [_spelled_literal(draw, value) for value in values]
    gap, word = (lambda: draw(_GAPS)), (lambda text: draw(_SPELLINGS)(text))
    column = _spell("c", draw(st.sampled_from(["bare", '""', "[]", "``"])))
    items = (gap() + "," + gap()).join(literals)
    table = (f"CREATE TABLE t (id INTEGER PRIMARY KEY, c {word('CHECK')}{gap()}({gap()}{column}"
             f"{gap()}{word('IN')}{gap()}({gap()}{items}{gap()}){gap()}))")
    kind = draw(st.sampled_from(["ABORT", "FAIL", "ROLLBACK"]))
    message = _spell(draw(_IDENT_TEXT), draw(_STYLES))
    trigger = (f"CREATE TRIGGER g BEFORE INSERT ON t WHEN NEW.c IS NULL BEGIN"
               f" SELECT '{word('RAISE')}(ABORT, ''decoy'')' WHERE 0;{gap()}"
               f"/* {word('RAISE')}(FAIL, 'decoy') */{gap()}SELECT {word('RAISE')}{gap()}({gap()}"
               f"{word(kind)}{gap()},{gap()}{message}{gap()}) -- RAISE(ROLLBACK, 'decoy')\n; END")
    return table, trigger, literals, kind


@settings(max_examples=50, deadline=None, derandomize=True)
@given(_enum_tables())
def test_check_enums_and_raises_read_what_the_engine_accepts_and_reports(case):
    """The engine is the oracle: check_enums holds the value of each literal of the
    list, which the column accepts while it refuses others, and raises gives the
    message the engine reports when the real RAISE fires."""
    table, trigger_sql, literals, kind = case
    conn = sqlite3.connect(":memory:", isolation_level=None)
    try:
        conn.execute(table)
        conn.execute(trigger_sql)
        info = read_schema(conn)
        read = [conn.execute(f"SELECT {literal}").fetchone()[0] for literal in literals]
        for value in read:
            conn.execute("INSERT INTO t (c) VALUES (?)", (value,))
        with pytest.raises(sqlite3.IntegrityError, match="CHECK constraint failed"):
            conn.execute("INSERT INTO t (c) VALUES ('not listed')")
        with pytest.raises(sqlite3.IntegrityError) as caught:
            conn.execute("INSERT INTO t (c) VALUES (NULL)")
    finally:
        conn.close()
    enums = info.tables["t"].check_enums
    assert [(type(v), v) for v in enums["c"]] == [(type(v), v) for v in read], table
    assert info.triggers[0].raises == ((kind, str(caught.value)),), trigger_sql
