"""Schema catalog: agreement with SQLite's own PRAGMAs, and the trigger parser."""

from __future__ import annotations

import pytest

from policygym.snapshots import TriggerInfo, parse_trigger, read_schema

from conftest import snapshot_from_sql
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
        assert schema.describes(conn)
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
        assert not travel_pkg.env.schema_info.describes(conn)


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
]


@pytest.mark.parametrize("sql, expected", _TRIGGER_CASES)
def test_parse_trigger(sql, expected):
    assert parse_trigger(sql) == expected


def test_trigger_cases_compile_and_the_catalog_keeps_creation_order():
    statements = ["CREATE TABLE items (a, b)", "CREATE VIEW v AS SELECT * FROM items"]
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
