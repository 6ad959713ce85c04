"""State verifier: canonicalization, symmetric-difference distance, rewards."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from policygym.errors import SchemaMismatch, UnknownExcludedColumn
from policygym.snapshots import normalize_value
from policygym.verify import (
    DiffConfig,
    canonicalize,
    dense_reward,
    diff,
    final_reward,
    proximity,
)

from conftest import snapshot_from_sql


def brute_force_diff_total(a, b, cfg) -> int:
    """Independent oracle: remove-matching multiset symmetric difference.

    Reads rows with its own SQL and compares normalized value lists without
    Counter machinery, so it shares no diff code with the implementation.
    """
    total = 0
    with a.connect() as ca, b.connect() as cb:
        tables = [r[0] for r in ca.execute(
            "SELECT name FROM sqlite_master WHERE type='table' AND name NOT LIKE 'sqlite_%'"
        )]
        for table in tables:
            cols = [r[1] for r in ca.execute(f'PRAGMA table_info("{table}")')]
            excluded = set(cfg.excluded_columns.get(table, ()))
            # replicate fk_mode=drop: drop referencing columns of excluded parents
            for fk in ca.execute(f'PRAGMA foreign_key_list("{table}")'):
                ref_table, from_col, to_col = fk[2], fk[3], fk[4]
                if to_col is None:
                    parents = [r[1] for r in ca.execute(f'PRAGMA table_info("{ref_table}")')
                               if r[5]]
                    to_col = parents[0] if parents else None
                if cfg.fk_mode == "drop" and to_col in cfg.excluded_columns.get(ref_table, ()):
                    excluded.add(from_col)
            kept = [c for c in cols if c not in excluded]

            def rows_of(conn):
                if not kept:
                    n = conn.execute(f'SELECT COUNT(*) FROM "{table}"').fetchone()[0]
                    return [[] for _ in range(n)]
                sel = ", ".join(f'"{c}"' for c in kept)
                return [
                    [normalize_value(v, cfg.float_decimals) for v in row]
                    for row in conn.execute(f'SELECT {sel} FROM "{table}"')
                ]

            left, right = rows_of(ca), rows_of(cb)
            remaining = list(right)
            unmatched_left = 0
            for row in left:
                if row in remaining:
                    remaining.remove(row)
                else:
                    unmatched_left += 1
            total += unmatched_left + len(remaining)
    return total


PAIR_SCHEMA = """
CREATE TABLE items (
    id INTEGER PRIMARY KEY AUTOINCREMENT,
    label TEXT,
    price REAL,
    qty INTEGER
);
CREATE TABLE tags (
    id INTEGER PRIMARY KEY AUTOINCREMENT,
    item_id INTEGER REFERENCES items(id),
    name TEXT
);
"""


def _demo_pair():
    a = snapshot_from_sql([
        PAIR_SCHEMA,
        "INSERT INTO items (label, price, qty) VALUES ('apple', 1.5, 3), ('pear', 2.0, 1)",
        "INSERT INTO tags (item_id, name) VALUES (1, 'fruit')",
    ])
    b = snapshot_from_sql([
        PAIR_SCHEMA,
        "INSERT INTO items (label, price, qty) VALUES ('apple', 1.5, 3), ('pear', 2.5, 1)",
        "INSERT INTO tags (item_id, name) VALUES (1, 'fruit'), (2, 'ripe')",
    ])
    cfg = DiffConfig(excluded_columns={"items": frozenset({"id"}), "tags": frozenset({"id"})})
    return a, b, cfg


def test_rows_differing_only_in_excluded_key_collapse():
    snap = snapshot_from_sql([
        PAIR_SCHEMA,
        "INSERT INTO items (label, price, qty) VALUES ('apple', 1.5, 3), ('apple', 1.5, 3)",
    ])
    cfg = DiffConfig(excluded_columns={"items": frozenset({"id"}), "tags": frozenset({"id"})})
    cs = canonicalize(snap, cfg)
    assert cs.row_count("items") == 2
    assert len(cs.tables["items"]) == 1  # one distinct canonical tuple, multiplicity 2
    assert list(cs.tables["items"].values()) == [2]


def test_empty_snapshot_canonicalizes_to_empty_multisets():
    snap = snapshot_from_sql([PAIR_SCHEMA])
    cs = canonicalize(snap, DiffConfig())
    assert all(not counter for counter in cs.tables.values())


def test_fk_drop_removes_reference_column():
    snap = snapshot_from_sql([
        PAIR_SCHEMA,
        "INSERT INTO items (label, price, qty) VALUES ('apple', 1.5, 3)",
        "INSERT INTO tags (item_id, name) VALUES (1, 'fruit')",
    ])
    cfg = DiffConfig(excluded_columns={"items": frozenset({"id"}), "tags": frozenset({"id"})})
    cs = canonicalize(snap, cfg)
    assert "item_id" not in cs.columns["tags"]
    assert cs.columns["tags"] == ("name",)


def test_canonical_remap_preserves_linkage_where_drop_loses_it():
    # two states whose children differ only in which parent they reference
    base = [
        PAIR_SCHEMA,
        "INSERT INTO items (label, price, qty) VALUES ('apple', 1.5, 3), ('pear', 2.0, 1)",
    ]
    a = snapshot_from_sql(base + ["INSERT INTO tags (item_id, name) VALUES (1, 'x')"])
    b = snapshot_from_sql(base + ["INSERT INTO tags (item_id, name) VALUES (2, 'x')"])
    excluded = {"items": frozenset({"id"}), "tags": frozenset({"id"})}
    assert diff(a, b, DiffConfig(excluded_columns=excluded, fk_mode="drop")).total == 0
    assert diff(a, b, DiffConfig(excluded_columns=excluded, fk_mode="canonical_remap")).total == 2


def test_diff_identity_and_symmetry():
    a, b, cfg = _demo_pair()
    assert diff(a, a, cfg).total == 0
    assert diff(a, b, cfg).total == diff(b, a, cfg).total


def test_update_counts_two_insert_counts_one():
    a, b, cfg = _demo_pair()
    # pear price changed (2) plus one tag row added (1)
    d = diff(a, b, cfg)
    assert d.total == 3
    assert d.total == brute_force_diff_total(a, b, cfg)


def test_single_insert_counts_one():
    a, _, cfg = _demo_pair()
    b = snapshot_from_sql([
        PAIR_SCHEMA,
        "INSERT INTO items (label, price, qty) VALUES ('apple', 1.5, 3), ('pear', 2.0, 1)",
        "INSERT INTO tags (item_id, name) VALUES (1, 'fruit'), (1, 'crisp')",
    ])
    assert diff(a, b, cfg).total == 1


def test_key_exclusion_law_fresh_autoincrement_keys():
    a = snapshot_from_sql([
        PAIR_SCHEMA,
        "INSERT INTO items (label, price, qty) VALUES ('apple', 1.5, 3), ('pear', 2.0, 1)",
    ])
    b = snapshot_from_sql([
        PAIR_SCHEMA,
        # burn ids 1..2, re-insert the same logical rows under fresh keys
        "INSERT INTO items (label, price, qty) VALUES ('x', 0.0, 0), ('y', 0.0, 0)",
        "DELETE FROM items",
        "INSERT INTO items (label, price, qty) VALUES ('pear', 2.0, 1), ('apple', 1.5, 3)",
    ])
    cfg = DiffConfig(excluded_columns={"items": frozenset({"id"}), "tags": frozenset({"id"})})
    assert diff(a, b, cfg).total == 0


def test_null_is_first_class_and_distinct():
    a = snapshot_from_sql([PAIR_SCHEMA, "INSERT INTO items (label, price, qty) VALUES (NULL, 1.0, 1)"])
    b = snapshot_from_sql([PAIR_SCHEMA, "INSERT INTO items (label, price, qty) VALUES ('', 1.0, 1)"])
    cfg = DiffConfig(excluded_columns={"items": frozenset({"id"}), "tags": frozenset({"id"})})
    assert diff(a, a, cfg).total == 0
    assert diff(a, b, cfg).total == 2


def test_a_table_with_every_column_excluded_still_counts_its_rows():
    schema = "CREATE TABLE ticks (id INTEGER PRIMARY KEY AUTOINCREMENT, at TEXT);"
    a = snapshot_from_sql([schema, "INSERT INTO ticks (at) VALUES ('x'), ('y')"])
    b = snapshot_from_sql([schema, "INSERT INTO ticks (at) VALUES ('z'), ('z'), ('z')"])
    cfg = DiffConfig(excluded_columns={"ticks": frozenset({"id", "at"})})
    assert canonicalize(a, cfg).tables["ticks"] == {(): 2}
    assert diff(a, b, cfg).total == brute_force_diff_total(a, b, cfg) == 1


def test_unknown_excluded_column_rejected():
    a, _, _ = _demo_pair()
    with pytest.raises(UnknownExcludedColumn):
        canonicalize(a, DiffConfig(excluded_columns={"items": frozenset({"nope"})}))
    with pytest.raises(UnknownExcludedColumn):
        canonicalize(a, DiffConfig(excluded_columns={"ghost_table": frozenset({"id"})}))


def test_schema_mismatch_on_different_table_sets():
    a, _, _ = _demo_pair()
    b = snapshot_from_sql(["CREATE TABLE other (x INTEGER)"])
    with pytest.raises(SchemaMismatch):
        diff(a, b, DiffConfig())


def test_float_compare_rounded():
    a = snapshot_from_sql([PAIR_SCHEMA, "INSERT INTO items (label, price, qty) VALUES ('a', 1.001, 1)"])
    b = snapshot_from_sql([PAIR_SCHEMA, "INSERT INTO items (label, price, qty) VALUES ('a', 1.002, 1)"])
    cfg_exact = DiffConfig(excluded_columns={"items": frozenset({"id"})})
    cfg_round = DiffConfig(excluded_columns={"items": frozenset({"id"})}, float_compare="rounded(2)")
    assert diff(a, b, cfg_exact).total == 2
    assert diff(a, b, cfg_round).total == 0


def test_normalize_value_idempotent_and_storage_class_collapse():
    for v in (None, 1, 1.0, 2.5, "s", b"b", -0.0, 10.000001):
        once = normalize_value(v)
        assert normalize_value(once) == once
    assert normalize_value(1.0) == normalize_value(1)
    assert normalize_value(float("nan")) is None


def test_randomized_pairs_match_brute_force_oracle():
    rng = random.Random(7)
    for _ in range(40):
        a, b, cfg = _random_pair(rng)
        assert diff(a, b, cfg).total == brute_force_diff_total(a, b, cfg)


def _random_pair(rng: random.Random):
    n_tables = rng.randint(1, 4)
    ddl = []
    for i in range(n_tables):
        ddl.append(
            f"CREATE TABLE t{i} (id INTEGER PRIMARY KEY AUTOINCREMENT, "
            "a INTEGER, b TEXT, c REAL)"
        )
    schema = ";\n".join(ddl) + ";"

    def random_rows():
        stmts = [schema]
        for i in range(n_tables):
            for _ in range(rng.randint(0, 12)):
                a_v = rng.choice([None, rng.randint(0, 3)])
                b_v = rng.choice([None, "x", "y", "z"])
                c_v = rng.choice([None, 0.5, 1.0, 2.25])
                stmts.append((f"INSERT INTO t{i} (a, b, c) VALUES (?, ?, ?)", (a_v, b_v, c_v)))
        return stmts

    a = snapshot_from_sql(random_rows())
    b = snapshot_from_sql(random_rows())
    excluded = {}
    for i in range(n_tables):
        cols = {"id"} if rng.random() < 0.8 else set()
        if rng.random() < 0.3:
            cols.add(rng.choice(["a", "b", "c"]))
        if cols:
            excluded[f"t{i}"] = frozenset(cols)
    return a, b, DiffConfig(excluded_columns=excluded)


def test_triangle_sanity_on_randomized_snapshots():
    rng = random.Random(21)
    cfg = DiffConfig(excluded_columns={"t0": frozenset({"id"})})
    for _ in range(25):
        snaps = []
        for _ in range(3):
            stmts = ["CREATE TABLE t0 (id INTEGER PRIMARY KEY AUTOINCREMENT, a INTEGER, b TEXT)"]
            for _ in range(rng.randint(0, 8)):
                stmts.append((
                    "INSERT INTO t0 (a, b) VALUES (?, ?)",
                    (rng.randint(0, 2), rng.choice(["x", "y"])),
                ))
            snaps.append(snapshot_from_sql(stmts))
        a, b, c = snaps
        assert diff(a, c, cfg).total <= diff(a, b, cfg).total + diff(b, c, cfg).total


# --- reward surface ------------------------------------------------------------

def test_final_reward():
    a, b, cfg = _demo_pair()
    assert final_reward(diff(a, a, cfg)) == 1
    assert final_reward(diff(a, b, cfg)) == 0


def test_proximity_values_from_contract():
    assert proximity(0, 4, 1e-9) == 1.0
    assert proximity(2, 4, 1e-9) == pytest.approx(0.5, abs=1e-9)
    assert proximity(9, 4, 1e-9) == pytest.approx(0.0, abs=1e-9)  # capped at delta0
    assert 0.0 <= proximity(9, 4, 1e-9) <= 1.0


def test_proximity_degenerate_task():
    assert proximity(0, 0, 1e-9) == 1.0
    assert proximity(3, 0, 1e-9) == 0.0


def test_proximity_rejects_bad_inputs():
    with pytest.raises(ValueError):
        proximity(-1, 4, 1e-9)
    with pytest.raises(ValueError):
        proximity(0, 4, 0.0)


def test_dense_reward_branches():
    assert dense_reward(0.5, 0.0, False, 0.1) == 0.5
    assert dense_reward(0.3, 0.3, True, 0.1) == -0.1
    assert dense_reward(0.5, 0.75, False, 0.1) == -0.25


@given(
    d=st.integers(min_value=0, max_value=50),
    delta0=st.integers(min_value=1, max_value=50),
)
@settings(max_examples=200, deadline=None)
def test_proximity_always_in_unit_interval(d, delta0):
    p = proximity(d, delta0, 1e-9)
    assert 0.0 <= p <= 1.0
    if d == 0:
        assert p == 1.0


def test_diff_render_is_deterministic():
    a, b, cfg = _demo_pair()
    assert diff(a, b, cfg).render_text() == diff(a, b, cfg).render_text()
    assert "total 3" in diff(a, b, cfg).render_text()


def test_path_independence_same_state_via_different_sequences(travel_pkg):
    from policygym.executor import ToolCall, execute_tool, open_environment

    flight = ToolCall("insert_flight_bookings", {
        "travel_request_id": 2, "flight_code": "FL-PI", "cost": 150,
        "class": "ECONOMY", "departure_step": 20, "booking_step": 14,
    })
    hotel = ToolCall("insert_hotel_bookings", {
        "travel_request_id": 2, "hotel_vendor_id": "v_grand", "cost": 90,
        "booking_step": 14,
    })
    snapshots = []
    for order in ((flight, hotel), (hotel, flight)):
        with open_environment(travel_pkg) as env:
            for call in order:
                assert execute_tool(env, call).status == "success"
            snapshots.append(env.snapshot())
    cfg = travel_pkg.diff_config
    assert diff(snapshots[0], snapshots[1], cfg).total == 0
    d0 = diff(snapshots[0], travel_pkg.target_snapshot, cfg).total
    d1 = diff(snapshots[1], travel_pkg.target_snapshot, cfg).total
    assert d0 == d1
