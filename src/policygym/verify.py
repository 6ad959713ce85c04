"""State verification: canonical relation sets, symmetric-difference distance,
binary success, proximity and dense incremental rewards.

All functions are pure over immutable snapshots and safe to call from any
number of threads.
"""

from __future__ import annotations

import hashlib
import math
import re
import sqlite3
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property

from .errors import SchemaMismatch, UnknownExcludedColumn
from .snapshots import (
    ForeignKey,
    SchemaInfo,
    Snapshot,
    TableInfo,
    catalog,
    normalize_value,
    quote_ident,
    read_schema,
    row_sort_key,
)

DEFAULT_EPSILON = 1e-9
DEFAULT_LAMBDA_ERR = 0.1

_ROUNDED_RE = re.compile(r"^rounded\((\d+)\)$")


@dataclass(frozen=True)
class DiffConfig:
    """Knobs governing snapshot comparison and reward shaping.

    ``excluded_columns`` names the technical key columns (auto ids, timestamps)
    that carry no business meaning. ``fk_mode`` decides what happens to foreign
    keys pointing at excluded columns: ``drop`` removes the referencing column
    too, ``canonical_remap`` replaces its value with a content hash of the
    referenced row.
    """

    excluded_columns: dict[str, frozenset[str]] = field(default_factory=dict)
    fk_mode: str = "drop"
    epsilon: float = DEFAULT_EPSILON
    lambda_err: float = DEFAULT_LAMBDA_ERR
    float_compare: str = "exact"

    def __post_init__(self):
        for name in ("epsilon", "lambda_err"):
            value = getattr(self, name)
            # bool is an int subclass, so a JSON true would pass as 1
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise TypeError(f"{name} must be a number, not {type(value).__name__}")
            if not math.isfinite(value) or value <= 0:
                raise ValueError(f"{name} must be a finite number > 0, not {value!r}")
        if self.fk_mode not in ("drop", "canonical_remap"):
            raise ValueError(f"unknown fk_mode: {self.fk_mode!r}")
        if self.float_compare != "exact" and not _ROUNDED_RE.match(self.float_compare):
            raise ValueError(f"unknown float_compare: {self.float_compare!r}")
        # normalize plain sets coming from manifests
        object.__setattr__(
            self,
            "excluded_columns",
            {t: frozenset(cols) for t, cols in self.excluded_columns.items()},
        )

    @cached_property
    def key(self) -> tuple:
        """The value of the fields a ``ScanPlan`` depends on, hashable (the
        config itself holds a dict)."""
        excluded = tuple(sorted((t, tuple(sorted(c))) for t, c in self.excluded_columns.items()))
        return excluded, self.fk_mode, self.float_compare

    @property
    def float_decimals(self) -> int | None:
        m = _ROUNDED_RE.match(self.float_compare)
        return int(m.group(1)) if m else None

    def to_json(self) -> dict:
        return {
            "excluded_columns": {t: sorted(cols) for t, cols in sorted(self.excluded_columns.items())},
            "fk_mode": self.fk_mode,
            "epsilon": self.epsilon,
            "lambda_err": self.lambda_err,
            "float_compare": self.float_compare,
        }

    @classmethod
    def from_json(cls, doc: dict) -> "DiffConfig":
        return cls(
            excluded_columns={t: frozenset(c) for t, c in doc.get("excluded_columns", {}).items()},
            fk_mode=doc.get("fk_mode", "drop"),
            epsilon=doc.get("epsilon", DEFAULT_EPSILON),
            lambda_err=doc.get("lambda_err", DEFAULT_LAMBDA_ERR),
            float_compare=doc.get("float_compare", "exact"),
        )


@dataclass(frozen=True)
class CanonicalRelationSet:
    """Per-table multisets of canonical row tuples.

    Canonicalization removes excluded columns, normalizes values, and is
    independent of physical row order and auto-assigned key values.
    """

    tables: dict[str, Counter]
    columns: dict[str, tuple[str, ...]]

    def row_count(self, table: str) -> int:
        return sum(self.tables.get(table, Counter()).values())


@dataclass(frozen=True)
class TableDelta:
    columns: tuple[str, ...]
    added: tuple[tuple, ...]
    removed: tuple[tuple, ...]


@dataclass(frozen=True)
class SnapshotDiff:
    """Per-table added/removed canonical rows plus the symmetric-difference total."""

    per_table: dict[str, TableDelta]
    total: int

    def render_text(self) -> str:
        lines = []
        for table in sorted(self.per_table):
            delta = self.per_table[table]
            if not delta.added and not delta.removed:
                continue
            lines.append(f"table {table} ({', '.join(delta.columns)})")
            for row in delta.removed:
                lines.append(f"  - {row!r}")
            for row in delta.added:
                lines.append(f"  + {row!r}")
        lines.append(f"total {self.total}")
        return "\n".join(lines)


def validate_excluded_columns(schema: SchemaInfo, cfg: DiffConfig) -> None:
    for table, cols in cfg.excluded_columns.items():
        if table not in schema.tables:
            raise UnknownExcludedColumn(f"excluded table not in schema: {table}")
        have = schema.tables[table].column_names
        for col in cols:
            if col not in have:
                raise UnknownExcludedColumn(f"excluded column not in schema: {table}.{col}")


def _keys_to_excluded(info: TableInfo, cfg: DiffConfig) -> list[ForeignKey]:
    """Foreign keys of ``info`` that reference an excluded parent column."""
    return [fk for fk in info.foreign_keys
            if fk.ref_column in cfg.excluded_columns.get(fk.ref_table, frozenset())]


def canonical_columns(info: TableInfo, cfg: DiffConfig) -> tuple[str, ...]:
    """The columns of ``info`` that canonical rows keep, in schema order: not
    excluded and, under ``fk_mode="drop"``, no key into an excluded parent column."""
    excluded = cfg.excluded_columns.get(info.name, frozenset())
    if cfg.fk_mode == "drop":
        excluded = excluded | {fk.column for fk in _keys_to_excluded(info, cfg)}
    return tuple(c for c in info.column_names if c not in excluded)


# exact types whose values normalize_value returns unchanged (a bool is not one)
_PLAIN = frozenset({int, str, type(None), bytes})


@dataclass(frozen=True)
class TablePlan:
    """How one user table's rows become digest records and canonical rows."""

    name: str
    columns: tuple[str, ...]  # every column, in schema order
    header: bytes  # snapshots.table_record
    select: str  # every column of every row
    kept: tuple[int, ...]  # positions of the canonical columns
    kept_columns: tuple[str, ...]
    decimals: int | None
    # canonical_remap: (position in the canonical row, (parent table, parent column))
    # of each key into an excluded parent column
    remapped: tuple[tuple[int, tuple[str, str]], ...]

    def canonical(self, row) -> tuple:
        """The canonical row of a full row (or of a longer sequence that starts with one)."""
        out = []
        for i in self.kept:
            v = row[i]
            out.append(v if type(v) in _PLAIN else normalize_value(v, self.decimals))
        return tuple(out)


class ScanPlan:
    """What a full scan of one catalog under one diff config reads, per user
    table in name order (``tables``), and the parent SELECTs that
    ``canonical_remap`` hashes (``remap``: (parent table, parent column) ->
    SELECT of that column, then of the parent's content columns). Built by
    ``scan_plan``, once per catalog object and diff-config value, and only
    read after that."""

    def __init__(self, schema: SchemaInfo, cfg: DiffConfig):
        validate_excluded_columns(schema, cfg)
        decimals = cfg.float_decimals
        targets = set()
        if cfg.fk_mode == "canonical_remap":
            targets = {(fk.ref_table, fk.ref_column)
                       for info in schema.tables.values() for fk in _keys_to_excluded(info, cfg)}
        tables = []
        for name, info in schema.tables.items():
            cols = info.column_names
            kept = canonical_columns(info, cfg)
            fk_by_column = {fk.column: (fk.ref_table, fk.ref_column) for fk in info.foreign_keys}
            tables.append(TablePlan(
                name=name, columns=cols, header=info.record, select=info.select,
                kept=tuple(map(cols.index, kept)), kept_columns=kept, decimals=decimals,
                remapped=tuple((j, fk_by_column[c]) for j, c in enumerate(kept)
                               if fk_by_column.get(c) in targets)))
        self.tables: tuple[TablePlan, ...] = tuple(tables)
        self.decimals = decimals
        self.remap: dict[tuple[str, str], str] = {}
        for ref_table, ref_column in sorted(targets):
            excluded = cfg.excluded_columns.get(ref_table, frozenset())
            ref_info = schema.table(ref_table)
            own_fks = {fk.column for fk in ref_info.foreign_keys}
            keep = [c for c in ref_info.column_names if c not in excluded and c not in own_fks]
            self.remap[ref_table, ref_column] = "SELECT {}, {} FROM {}".format(
                quote_ident(ref_column),
                ", ".join(quote_ident(c) for c in keep) if keep else "NULL",
                quote_ident(ref_table),
            )


def scan_plan(schema: SchemaInfo, cfg: DiffConfig) -> ScanPlan:
    """The ``ScanPlan`` of ``schema`` under ``cfg``, kept on the catalog object
    per diff-config value (``DiffConfig.key``); UnknownExcludedColumn when
    ``cfg`` excludes a column ``schema`` lacks, and then nothing is kept."""
    plans = schema.scan_plans
    plan = plans.get(cfg.key)
    if plan is None:
        plan = plans.setdefault(cfg.key, ScanPlan(schema, cfg))
    return plan


def _remap_digest(row: tuple) -> str:
    return hashlib.sha256(row_sort_key(row)).hexdigest()[:16]


def canonicalize_connection(
    conn: sqlite3.Connection, cfg: DiffConfig, schema: SchemaInfo | None = None
) -> CanonicalRelationSet:
    """Canonical relation set of the live database behind ``conn``.

    ``schema`` must describe ``conn``; it is read from ``conn`` when not given.
    """
    if schema is None:
        schema = read_schema(conn)
    plan = scan_plan(schema, cfg)
    columns = {t.name: t.kept_columns for t in plan.tables}
    if not plan.remap:
        tables = {t.name: Counter(map(t.canonical, conn.execute(t.select))) for t in plan.tables}
        return CanonicalRelationSet(tables=tables, columns=columns)

    # canonical_remap: a key into an excluded parent column becomes a content
    # hash of the parent row it points at
    decimals = plan.decimals
    remap: dict[tuple[str, str], dict] = {}
    for target, select in plan.remap.items():
        mapping = remap[target] = {}
        for row in conn.execute(select):
            key = normalize_value(row[0], decimals)
            content = tuple(normalize_value(v, decimals) for v in row[1:])
            mapping[key] = _remap_digest(content)
    tables = {}
    for t in plan.tables:
        counter: Counter = Counter()
        for raw in conn.execute(t.select):
            values = list(t.canonical(raw))
            for j, target in t.remapped:
                if values[j] is not None:
                    values[j] = remap[target].get(values[j], f"unresolved:{values[j]!r}")
            counter[tuple(values)] += 1
        tables[t.name] = counter
    return CanonicalRelationSet(tables=tables, columns=columns)


def canonicalize(snapshot: Snapshot, cfg: DiffConfig) -> CanonicalRelationSet:
    """Canonical relation set of a snapshot (NULL equals only NULL). Its
    catalog is the image's interned one (``snapshots.catalog``), so the scan
    plan is built once per catalog, not once per call."""
    with snapshot.connect() as conn:
        return canonicalize_connection(conn, cfg, catalog(conn, snapshot.data))


def diff_canonical(a: CanonicalRelationSet, b: CanonicalRelationSet) -> SnapshotDiff:
    """Multiset symmetric difference between two canonical relation sets."""
    if set(a.tables) != set(b.tables):
        missing = set(a.tables) ^ set(b.tables)
        raise SchemaMismatch(f"table sets differ: {sorted(missing)}")
    per_table = {}
    total = 0
    for table in a.tables:
        if a.columns[table] != b.columns[table]:
            raise SchemaMismatch(f"column sets differ for table: {table}")
        removed_counter = a.tables[table] - b.tables[table]
        added_counter = b.tables[table] - a.tables[table]
        removed = tuple(sorted(removed_counter.elements(), key=row_sort_key))
        added = tuple(sorted(added_counter.elements(), key=row_sort_key))
        per_table[table] = TableDelta(columns=a.columns[table], added=added, removed=removed)
        total += len(removed) + len(added)
    return SnapshotDiff(per_table=per_table, total=total)


def diff(a: Snapshot, b: Snapshot, cfg: DiffConfig) -> SnapshotDiff:
    """Symmetric-difference distance between snapshots ``a`` and ``b``.

    ``removed`` rows are present only in ``a``, ``added`` rows only in ``b``;
    an updated row therefore counts 2 (one removed plus one added tuple).
    """
    return diff_canonical(canonicalize(a, cfg), canonicalize(b, cfg))


def final_reward(d: SnapshotDiff) -> int:
    """Binary success: 1 iff the symmetric difference is empty."""
    return 1 if d.total == 0 else 0


def proximity(d_t: int, delta0: int, eps: float) -> float:
    """Normalized closeness to the target state, in [0, 1].

    ``delta0`` is the origin-to-target distance. A degenerate task with
    delta0 = 0 scores 1 only while the state still matches the target.
    """
    if d_t < 0 or delta0 < 0:
        raise ValueError("distances must be non-negative")
    if eps <= 0:
        raise ValueError("eps must be > 0")
    if delta0 == 0:
        return 1.0 if d_t == 0 else 0.0
    return 1.0 - min(d_t, delta0) / (delta0 + eps)


def dense_reward(p_t: float, p_prev: float, violation: bool, lambda_err: float) -> float:
    """Per-turn incremental reward: proximity delta, or -lambda_err on violation."""
    if lambda_err <= 0:
        raise ValueError("lambda_err must be > 0")
    if violation:
        return -lambda_err
    return p_t - p_prev
