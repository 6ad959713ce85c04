"""The fused row encoder and the scan plans against the per-value references
they replace: ``row_record`` and ``row_sort_key`` against ``normalize_value``
then ``encode_value`` of each value, and ``state_digest`` and
``canonicalize_connection`` against scans that encode each value on its own,
under ``drop``, ``canonical_remap`` and ``rounded(n)``. The images are the
fixture's, the BLOB package's of ``tests/test_cli.py``, and small drawn
schemas with REAL and BLOB columns, a ``WITHOUT ROWID`` composite key, a
stored generated column and a key into another table."""

from __future__ import annotations

import hashlib
import math
import sqlite3
from collections import Counter
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from policygym import load_package, snapshots, verify
from policygym.packages import compile_environment
from policygym.snapshots import (
    Snapshot,
    encode_value,
    normalize_value,
    quote_ident,
    read_schema,
    row_record,
    row_sort_key,
    select_sql,
    state_digest,
)
from policygym.verify import (
    CanonicalRelationSet,
    DiffConfig,
    TablePlan,
    canonicalize,
    canonicalize_connection,
    scan_plan,
)

from test_cli import _blob_package
from test_schema import _IDENT_TEXT, _STYLES, _spell

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True)


# --- the references: one Python call per value and per step ----------------------

def ref_sort_key(row) -> bytes:
    parts = []
    for v in row:
        token = encode_value(v)
        parts.append(str(len(token)).encode() + b":" + token)
    return b"|".join(parts)


def ref_row_record(row) -> bytes:
    return b"R" + ref_sort_key(tuple(normalize_value(v) for v in row)) + b"\x00"


def ref_state_digest(conn: sqlite3.Connection) -> str:
    h = hashlib.sha256()
    for table, info in read_schema(conn).tables.items():
        columns = [c.name for c in info.columns]
        h.update(b"T" + table.encode() + b"\x00" + ",".join(columns).encode() + b"\x00")
        for record in sorted(ref_row_record(row)
                             for row in conn.execute(select_sql(table, columns))):
            h.update(record)
    return h.hexdigest()


def ref_canonicalize(conn: sqlite3.Connection, cfg: DiffConfig) -> CanonicalRelationSet:
    """Every column's own rule, every value normalized on its own, every
    parent's rows hashed again per call."""
    schema = read_schema(conn)
    decimals = cfg.float_decimals

    def keys_to_excluded(info):
        return [fk for fk in info.foreign_keys
                if fk.ref_column in cfg.excluded_columns.get(fk.ref_table, frozenset())]

    remap = {}
    if cfg.fk_mode == "canonical_remap":
        for info in schema.tables.values():
            for fk in keys_to_excluded(info):
                ref = schema.table(fk.ref_table)
                own = {k.column for k in ref.foreign_keys}
                keep = [c.name for c in ref.columns
                        if c.name not in cfg.excluded_columns.get(fk.ref_table, ())
                        and c.name not in own]
                select = "SELECT {}, {} FROM {}".format(
                    quote_ident(fk.ref_column), ", ".join(map(quote_ident, keep)) or "NULL",
                    quote_ident(fk.ref_table))
                remap[fk.ref_table, fk.ref_column] = {
                    normalize_value(row[0], decimals): hashlib.sha256(ref_sort_key(
                        tuple(normalize_value(v, decimals) for v in row[1:]))).hexdigest()[:16]
                    for row in conn.execute(select)}
    tables, columns = {}, {}
    for table, info in schema.tables.items():
        excluded = set(cfg.excluded_columns.get(table, ()))
        if cfg.fk_mode == "drop":
            excluded |= {fk.column for fk in keys_to_excluded(info)}
        kept = columns[table] = tuple(c.name for c in info.columns if c.name not in excluded)
        fk_of = {fk.column: fk for fk in info.foreign_keys}
        counter = Counter()
        for raw in conn.execute(select_sql(table, kept)):
            values = []
            for name, value in zip(kept, raw):
                value = normalize_value(value, decimals)
                fk = fk_of.get(name)
                target = None if fk is None else (fk.ref_table, fk.ref_column)
                if target in remap and value is not None:
                    value = remap[target].get(value, f"unresolved:{value!r}")
                values.append(value)
            counter[tuple(values)] += 1
        tables[table] = counter
    return CanonicalRelationSet(tables=tables, columns=columns)


# --- values -------------------------------------------------------------------------

EDGES = [None, 0, 1, -1, 2**63 - 1, -(2**63), 2**63, -(2**63) - 1, 10**30,
         True, False, math.nan, math.inf, -math.inf, -0.0, 0.0, 1.0, 2.5, 1e300, -1e300,
         1e-300, 2.0**63, 0.125, "", "a", "é", "\ud800", "x\udfffy", b"", b"\x00\xff"]
_SURROGATES = st.sampled_from(["\ud800", "\udbff", "\udc00", "\udfff"])
VALUES = st.one_of(
    st.sampled_from(EDGES), st.integers(), st.booleans(), st.floats(),
    st.text(st.one_of(st.characters(), _SURROGATES), max_size=6), st.binary(max_size=6),
    st.sampled_from([Decimal("1.5"), Fraction(1, 3), (1, "a")]),  # neither int, str nor bytes
)


def _storable(value) -> bool:
    """SQLite can bind ``value``: a 64-bit integer, no lone surrogate."""
    if isinstance(value, int):
        return -(2**63) <= value < 2**63
    return not (isinstance(value, str) and any("\ud800" <= c <= "\udfff" for c in value))


CELLS = st.one_of(st.sampled_from(list(filter(_storable, EDGES))),
                  st.integers(-(2**63), 2**63 - 1), st.floats(), st.text(max_size=6),
                  st.binary(max_size=6))


@PROPERTY
@given(st.lists(VALUES, max_size=6))
def test_row_record_and_row_sort_key_equal_the_per_value_encoding(row):
    row = tuple(row)
    assert row_record(row) == ref_row_record(row)
    assert row_sort_key(row) == ref_sort_key(row)
    normalized = tuple(normalize_value(v) for v in row)
    assert row_sort_key(normalized) == ref_sort_key(normalized)


@pytest.mark.parametrize("value", EDGES, ids=repr)
def test_each_edge_value_encodes_as_the_reference_does(value):
    assert row_record((value,)) == ref_row_record((value,))
    assert row_sort_key((value,)) == ref_sort_key((value,))


@PROPERTY
@given(st.lists(VALUES, max_size=6), st.sampled_from([None, 0, 1, 3]))
def test_a_canonical_row_normalizes_each_value_as_the_reference_does(row, decimals):
    kept = tuple(range(len(row)))[::-1]
    plan = TablePlan(name="t", columns=(), header=b"", select="", kept=kept, kept_columns=(),
                     decimals=decimals, remapped=())
    canonical, reference = plan.canonical(row), tuple(normalize_value(row[i], decimals) for i in kept)
    assert canonical == reference and list(map(type, canonical)) == list(map(type, reference))


# --- images -------------------------------------------------------------------------

CONFIG_MODES = [("drop", "exact"), ("canonical_remap", "exact"), ("drop", "rounded(1)"),
                ("canonical_remap", "rounded(0)")]


def _assert_scans_equal(image: Snapshot, cfg: DiffConfig, schema=None) -> None:
    """``state_digest`` and ``canonicalize_connection`` of ``image``, given its
    catalog and not, twice (the second from the kept plan), equal the references."""
    with image.connect() as conn:
        digest, canonical = ref_state_digest(conn), ref_canonicalize(conn, cfg)
        for given_schema in (None, schema or read_schema(conn)) * 2:
            assert state_digest(conn, given_schema) == digest
            assert canonicalize_connection(conn, cfg, given_schema) == canonical


@pytest.mark.parametrize("fk_mode, float_compare", CONFIG_MODES)
def test_the_fixture_scans_as_the_references_do(travel_pkg, fk_mode, float_compare):
    cfg = DiffConfig(excluded_columns=travel_pkg.diff_config.excluded_columns,
                     fk_mode=fk_mode, float_compare=float_compare)
    for image in (travel_pkg.origin_snapshot, travel_pkg.target_snapshot):
        _assert_scans_equal(image, cfg, travel_pkg.env.schema_info)


def test_canonicalize_and_snapshot_digest_read_the_interned_catalog(travel_pkg, monkeypatch):
    """``canonicalize`` and ``Snapshot.digest`` take an image's catalog from
    ``snapshots.catalog``, which the package's bundle holds, so a second call
    on the image reads no catalog with ``read_schema`` and builds no scan
    plan; both still equal the ``read_schema`` path they replace."""
    cfg = travel_pkg.diff_config
    images = (travel_pkg.env.empty_snapshot, travel_pkg.origin_snapshot,
              travel_pkg.target_snapshot)
    first = [(canonicalize(image, cfg), image.digest()) for image in images]
    reads, plans, read, build = [], [], snapshots.read_schema, verify.ScanPlan
    monkeypatch.setattr(snapshots, "read_schema", lambda conn: reads.append(conn) or read(conn))
    monkeypatch.setattr(verify, "read_schema", snapshots.read_schema)
    monkeypatch.setattr(verify, "ScanPlan", lambda *args: plans.append(args) or build(*args))
    again = [(canonicalize(image, cfg), image.digest()) for image in images]
    assert reads == [] and plans == []
    monkeypatch.undo()
    for image, pair in zip(images, first):
        with image.connect() as conn:
            schema = read_schema(conn)
            assert pair == (canonicalize_connection(conn, cfg, schema), state_digest(conn, schema))
    assert again == first


@pytest.mark.parametrize("fk_mode, float_compare", CONFIG_MODES)
def test_the_blob_package_scans_as_the_references_do(tmp_path, fk_mode, float_compare):
    _blob_package(tmp_path / "blobs")
    pkg = load_package(tmp_path / "blobs")
    cfg = DiffConfig(excluded_columns={"files": {"id"}}, fk_mode=fk_mode,
                     float_compare=float_compare)
    for image in (pkg.origin_snapshot, pkg.target_snapshot):
        _assert_scans_equal(image, cfg, pkg.env.schema_info)


_TYPES = st.sampled_from(["INTEGER", "REAL", "TEXT", "BLOB", "NUMERIC", ""])


@st.composite
def _schemas(draw):
    """(DDL, rows per table, the columns they fill, diff config) of a parent
    table, which may be ``WITHOUT ROWID`` with a composite key, and a child
    with a stored generated column and a key into the parent."""
    names = draw(st.lists(_IDENT_TEXT, min_size=9, max_size=9,
                          unique_by=lambda n: n.casefold()))
    parent, child, pk, p1, p2, fk, c1, gen, c2 = names
    ident = {n: _spell(n, draw(_STYLES)) for n in names}
    q = ident.__getitem__
    if draw(st.booleans()):
        parent_ddl = (f"CREATE TABLE {q(parent)} ({q(pk)} INTEGER NOT NULL, {q(p1)} "
                      f"{draw(_TYPES)} NOT NULL, {q(p2)} {draw(_TYPES)}, "
                      f"PRIMARY KEY ({q(pk)}, {q(p1)})) WITHOUT ROWID;")
    else:
        parent_ddl = (f"CREATE TABLE {q(parent)} ({q(pk)} INTEGER PRIMARY KEY, "
                      f"{q(p1)} {draw(_TYPES)}, {q(p2)} {draw(_TYPES)});")
    child_ddl = (f"CREATE TABLE {q(child)} ({q(fk)} INTEGER REFERENCES {q(parent)}({q(pk)}), "
                 f"{q(c1)} {draw(_TYPES)}, {q(gen)} GENERATED ALWAYS AS "
                 f"(coalesce({q(c1)}, 0) || 'g') STORED, {q(c2)} {draw(_TYPES)});")
    keys = st.one_of(st.none(), st.integers(1, 4))
    rows = {
        parent: draw(st.lists(st.tuples(st.integers(1, 4), CELLS, CELLS), max_size=5)),
        child: draw(st.lists(st.tuples(keys, CELLS, CELLS), max_size=5)),
    }
    columns = {parent: (pk, p1, p2), child: (fk, c1, c2)}
    excluded = {table: set(draw(st.lists(st.sampled_from(cols), max_size=2)))
                for table, cols in columns.items()}
    cfg = DiffConfig(excluded_columns={t: c for t, c in excluded.items() if c},
                     fk_mode=draw(st.sampled_from(["drop", "canonical_remap"])),
                     float_compare=draw(st.sampled_from(["exact", "rounded(0)", "rounded(2)"])))
    return parent_ddl + "\n" + child_ddl + "\n", rows, columns, cfg


@PROPERTY
@given(_schemas())
def test_drawn_schemas_scan_as_the_references_do(case):
    ddl, rows, columns, cfg = case
    info, empty = compile_environment(ddl, "")
    with empty.connect() as conn:
        for table, table_rows in rows.items():
            insert = "INSERT INTO {} ({}) VALUES (?, ?, ?)".format(
                quote_ident(table), ", ".join(map(quote_ident, columns[table])))
            for row in table_rows:
                try:
                    conn.execute(insert, row)
                except sqlite3.IntegrityError:  # a repeated or NULL key
                    pass
        image = Snapshot(conn.serialize())
    _assert_scans_equal(image, cfg, info)
    assert scan_plan(info, cfg) is scan_plan(info, DiffConfig.from_json(cfg.to_json()))
