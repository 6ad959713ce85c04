"""Spans and exact counters recorded around policygym's public functions.

Nothing here edits the program: ``install`` rebinds each hooked function in
every policygym module that imported it, so a span carries the name its
caller uses (``policygym.rollout.safe_execute_tool``), and wraps hooked
methods on their class. A layer's self time is its span minus its child
spans. Counts (state digests, canonicalizations, SQL statements seen by
``Connection.set_trace_callback``, rows hashed and changed, tool outcomes)
are exact and repeat for a seed.

A hook whose target no longer resolves by name is listed in
``Tracer.unresolved``; the metrics that need it are left out of the result
instead of being reported as zero.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import statistics
import time
from bisect import bisect_right
from collections import Counter

import reference

MODULES = (
    "policygym",
    "policygym.advantage",
    "policygym.cli",
    "policygym.executor",
    "policygym.fixtures.corporate_travel",
    "policygym.packages",
    "policygym.ports",
    "policygym.rollout",
    "policygym.snapshots",
    "policygym.synthesis",
    "policygym.verify",
)

FUNCTION_HOOKS = (
    ("policygym.rollout", "run_episode"),
    ("policygym.rollout", "export_trajectory"),
    ("policygym.executor", "safe_execute_tool"),
    ("policygym.executor", "open_environment"),
    ("policygym.executor", "open_environment_at"),
    ("policygym.snapshots", "state_digest"),
    ("policygym.verify", "canonicalize_connection"),
    ("policygym.verify", "canonicalize"),
    ("policygym.verify", "diff_canonical"),
    ("policygym.advantage", "build_advantage_table"),
    ("policygym.packages", "compile_environment"),
    ("policygym.packages", "load_package"),
    ("policygym.packages", "save_package"),
    ("policygym.synthesis", "synthesize_package"),
    ("policygym.synthesis", "architect_compile"),
    ("policygym.synthesis", "verify_environment"),
    ("policygym.synthesis", "seed_initial_state"),
    ("policygym.synthesis", "probe_boundary_adjacency"),
    ("policygym.synthesis", "explore_episode"),
    ("policygym.synthesis", "assemble_package"),
)

METHOD_HOOKS = (
    ("policygym.executor", "EnvHandle.close"),
    ("policygym.executor", "EnvHandle.snapshot"),
    ("policygym.ports", "SubprocessTransport.__init__"),
    ("policygym.ports", "SubprocessTransport.request"),
    ("policygym.ports", "SubprocessAgentPort.next_action"),
)

CONTRACT_CODES = frozenset({"UNKNOWN_TOOL", "READ_ONLY_TABLE", "MALFORMED_ARGUMENTS"})
ENGINE_CODE = "UNCLASSIFIED"

# span record fields; a port request span also appends its request size in
# bytes and, on the port's first request, the time the port was spawned
NAME, FUNC, START, END, PARENT, OP, CHILD = range(7)


def classify(result) -> str:
    """success, contract (caller broke the tool contract), engine (SQLite
    refused without a rule code) or policy (a trigger's [CODE] rule)."""
    if result.status == "success":
        return "success"
    code = result.error.code if result.error is not None else ENGINE_CODE
    if code in CONTRACT_CODES:
        return "contract"
    if code == ENGINE_CODE:
        return "engine"
    return "policy"


class StepClock:
    """Times agent steps from outside: a step runs from the agent port
    returning a ToolCall to ``run_episode`` next calling that port.

    With ``probe`` set, the port also runs the reference kernel between
    steps, so each step gets its own host-speed factor (see reference.py);
    ``probe_s`` is the time those kernel runs added to the episode.
    """

    def __init__(self, tracer: "Tracer | None" = None, probe: bool = False):
        self.tracer = tracer
        self.probe = probe
        self.samples_ms: list[float] = []
        self.speeds: list[float] = []
        self.probe_s = 0.0
        self._issued: int | None = None
        self._kernel_ms: float | None = None

    def port_called(self) -> None:
        now = time.perf_counter_ns()
        if self._issued is not None:
            self.samples_ms.append((now - self._issued) / 1e6)
            if self.tracer is not None:
                self.tracer.step_end((self._issued, now))
            self._issued = None
        if self.probe:
            kernel = reference.KERNEL.run()
            if self._kernel_ms is not None and len(self.speeds) < len(self.samples_ms):
                self.speeds.append(reference.KERNEL.factor(self._kernel_ms, kernel))
            self._kernel_ms = kernel
            spent = time.perf_counter_ns() - now
            self.probe_s += spent / 1e9
            if self.tracer is not None:
                self.tracer.exclude(spent)

    def returned(self, action) -> None:
        if not isinstance(action, str):
            if self.tracer is not None:
                self.tracer.step_begin()
            self._issued = time.perf_counter_ns()


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.unresolved: list[str] = []
        self.windows: list[tuple[int, int]] = []
        self.op = 0
        self._stack: list[int] = []
        self._in_step = False
        self._paused = False
        self._step_clock = StepClock(self)
        self._restore: list = []

    # -- spans -------------------------------------------------------------

    def _call(self, name, func, fn, args, kwargs):
        if self._paused:
            return fn(*args, **kwargs)
        entered = time.perf_counter_ns()
        before, after = _EXTRAS.get(func, (None, None))
        ctx = before(self, args) if before is not None else None
        parent = self._stack[-1] if self._stack else -1
        record = [name, func, 0, 0, parent, self.op, 0]
        index = len(self.spans)
        self.spans.append(record)
        self._stack.append(index)
        record[START] = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        finally:
            record[END] = time.perf_counter_ns()
            self._stack.pop()
            if parent >= 0:
                self.spans[parent][CHILD] += record[END] - entered
        if after is not None:
            after(self, args, result, ctx, record)
            # the hook's own bookkeeping is charged to no layer
            if parent >= 0:
                self.spans[parent][CHILD] += time.perf_counter_ns() - record[END]
        return result

    def wrap(self, name: str, func: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._call(name, func, fn, args, kwargs)

        return traced

    @contextlib.contextmanager
    def paused(self):
        """Run benchmark checks through hooked functions off the books:
        no spans, counts or statements are recorded."""
        self._paused = True
        try:
            yield
        finally:
            self._paused = False

    def exclude(self, ns: int) -> None:
        """Charge benchmark bookkeeping inside the open span to no layer."""
        if self._stack:
            self.spans[self._stack[-1]][CHILD] += ns

    # -- step windows and statements -----------------------------------------

    def step_begin(self) -> None:
        self._in_step = True

    def step_end(self, window: tuple[int, int]) -> None:
        if self._in_step:
            self.counts["steps"] += 1
            self.windows.append(window)
        self._in_step = False

    def on_statement(self, sql: str) -> None:
        if self._paused:
            return
        self.counts["sql_statements"] += 1
        if self._in_step:
            self.counts["step_sql_statements"] += 1
            if sql.lstrip()[:6].upper() == "PRAGMA":
                self.counts["step_pragmas"] += 1

    # -- install / dump ------------------------------------------------------

    def install(self) -> None:
        modules = {}
        for name in MODULES:
            try:
                modules[name] = importlib.import_module(name)
            except ImportError:
                continue
        for home, attr in FUNCTION_HOOKS:
            original = getattr(modules.get(home), attr, None)
            if original is None or not callable(original):
                self.unresolved.append(f"{home}.{attr}")
                continue
            for mod_name, module in modules.items():
                bound = module.__dict__.get(attr)
                if bound is None or inspect.unwrap(bound) is not inspect.unwrap(original):
                    continue
                self._restore.append((module, attr, bound))
                setattr(module, attr, self.wrap(f"{mod_name}.{attr}", attr, bound))
        for home, path in METHOD_HOOKS:
            cls_name, meth = path.split(".")
            cls = getattr(modules.get(home), cls_name, None)
            bound = cls.__dict__.get(meth) if cls is not None else None
            if bound is None:
                self.unresolved.append(f"{home}.{path}")
                continue
            self._restore.append((cls, meth, bound))
            setattr(cls, meth, self.wrap(f"{home}.{path}", path, bound))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def to_json(self) -> dict:
        return {"spans": self.spans, "counts": dict(self.counts),
                "unresolved": self.unresolved, "windows": self.windows}

    def merge(self, doc: dict, op: int) -> None:
        """Fold in spans and counts recorded by a traced child process."""
        offset = len(self.spans)
        for record in doc["spans"]:
            record = list(record)
            if record[PARENT] >= 0:
                record[PARENT] += offset
            record[OP] = op
            self.spans.append(record)
        self.counts.update(doc["counts"])
        self.windows.extend(tuple(w) for w in doc["windows"])
        for hook in doc["unresolved"]:
            if hook not in self.unresolved:
                self.unresolved.append(hook)


# --- per-hook extras -------------------------------------------------------------

def count_rows(conn, tables=None) -> dict[str, int]:
    """Rows per table: of ``tables``, or of every user table (the tables a
    full-scan digest reads)."""
    if tables is None:
        tables = [r[0] for r in conn.execute(
            "SELECT name FROM sqlite_master WHERE type = 'table'"
            " AND name NOT LIKE 'sqlite_%' ORDER BY name")]
    return {t: conn.execute(f'SELECT COUNT(*) FROM "{t}"').fetchone()[0] for t in tables}


def _after_digest(tracer, args, result, ctx, record):
    tracer.counts["state_digest_calls"] += 1
    with tracer.paused():
        tracer.counts["rows_hashed"] += sum(count_rows(args[0]).values())


def _before_execute(tracer, args):
    return args[0].connection.total_changes


def _after_execute(tracer, args, result, ctx, record):
    tracer.counts["rows_changed"] += args[0].connection.total_changes - ctx
    tracer.counts["calls_" + classify(result)] += 1


def _after_open(tracer, args, result, ctx, record):
    tracer.counts["env_opens"] += 1
    result.connection.set_trace_callback(tracer.on_statement)


def _count(key):
    def after(tracer, args, result, ctx, record):
        tracer.counts[key] += 1
    return after


def _before_spawn(tracer, args):
    args[0]._perfbench_spawn_ns = time.perf_counter_ns()


def _after_request(tracer, args, result, ctx, record):
    transport, doc = args[0], args[1]
    size = len((json.dumps(doc, sort_keys=True) + "\n").encode())
    tracer.counts["port_requests"] += 1
    tracer.counts["port_request_bytes"] += size
    record.append(size)
    spawned = getattr(transport, "_perfbench_spawn_ns", None)
    if spawned is not None:
        record.append(spawned)
        transport._perfbench_spawn_ns = None


def _before_agent(tracer, args):
    tracer._step_clock.port_called()


def _after_agent(tracer, args, result, ctx, record):
    tracer._step_clock.returned(result)


_EXTRAS = {
    "state_digest": (None, _after_digest),
    "safe_execute_tool": (_before_execute, _after_execute),
    "open_environment": (None, _after_open),
    "canonicalize_connection": (None, _count("canonicalize_calls")),
    "compile_environment": (None, _count("compile_environment_calls")),
    "SubprocessTransport.__init__": (_before_spawn, None),
    "SubprocessTransport.request": (None, _after_request),
    "SubprocessAgentPort.next_action": (_before_agent, _after_agent),
}


# --- per-layer metrics -------------------------------------------------------------

def _durations(spans, func, field="total", callers=None) -> list[float]:
    out = []
    for record in spans:
        if record[FUNC] != func:
            continue
        if callers is not None and record[NAME].rsplit(".", 1)[0] not in callers:
            continue
        total = record[END] - record[START]
        value = total - record[CHILD] if field == "self" else total
        out.append(value / 1e6)
    return out


def median(values) -> float:
    """Median, or 0.0 for no samples."""
    return statistics.median(values) if values else 0.0


# (metric, unit, hooks it needs, how to compute it from spans and counts)
_LIVE_CALLERS = ("policygym.rollout", "policygym.cli")


def _ratio(num, den):
    return num / den if den else 0.0


PER_LAYER = (
    ("snapshots.state_digest_ms", "ms", ("state_digest",),
     lambda s, c: median(_durations(s, "state_digest"))),
    ("snapshots.state_digest_calls", "count", ("state_digest",),
     lambda s, c: c["state_digest_calls"]),
    ("snapshots.rows_hashed_per_row_changed", "ratio", ("state_digest", "safe_execute_tool"),
     lambda s, c: _ratio(c["rows_hashed"], c["rows_changed"])),
    ("snapshots.snapshot_ms", "ms", ("EnvHandle.snapshot",),
     lambda s, c: median(_durations(s, "EnvHandle.snapshot"))),
    ("verify.canonicalize_connection_ms", "ms", ("canonicalize_connection",),
     lambda s, c: median(_durations(s, "canonicalize_connection", callers=_LIVE_CALLERS))),
    ("verify.canonicalize_ms", "ms", ("canonicalize",),
     lambda s, c: median(_durations(s, "canonicalize"))),
    ("verify.diff_canonical_ms", "ms", ("diff_canonical",),
     lambda s, c: median(_durations(s, "diff_canonical"))),
    ("verify.canonicalize_calls", "count", ("canonicalize_connection",),
     lambda s, c: c["canonicalize_calls"]),
    ("executor.execute_self_ms", "ms", ("safe_execute_tool", "state_digest"),
     lambda s, c: median(_durations(s, "safe_execute_tool", "self"))),
    ("executor.open_ms", "ms", ("open_environment", "open_environment_at"),
     lambda s, c: median(_durations(s, "open_environment")
                          + _durations(s, "open_environment_at"))),
    ("executor.close_ms", "ms", ("EnvHandle.close",),
     lambda s, c: median(_durations(s, "EnvHandle.close"))),
    ("executor.sql_statements_per_step", "count", ("open_environment",),
     lambda s, c: _ratio(c["step_sql_statements"], c["steps"])),
    ("executor.pragma_per_step", "count", ("open_environment",),
     lambda s, c: _ratio(c["step_pragmas"], c["steps"])),
    ("executor.calls_success", "count", ("safe_execute_tool",),
     lambda s, c: c["calls_success"]),
    ("executor.calls_policy_reject", "count", ("safe_execute_tool",),
     lambda s, c: c["calls_policy"]),
    ("executor.calls_contract_reject", "count", ("safe_execute_tool",),
     lambda s, c: c["calls_contract"]),
    ("executor.calls_engine_reject", "count", ("safe_execute_tool",),
     lambda s, c: c["calls_engine"]),
    ("executor.reject_ratio", "ratio", ("safe_execute_tool",),
     lambda s, c: _ratio(c["calls_policy"] + c["calls_contract"] + c["calls_engine"],
                         c["calls_policy"] + c["calls_contract"] + c["calls_engine"]
                         + c["calls_success"])),
    ("rollout.run_episode_self_ms", "ms", ("run_episode",),
     lambda s, c: median(_durations(s, "run_episode", "self"))),
    ("rollout.export_trajectory_ms", "ms", ("export_trajectory",),
     lambda s, c: median(_durations(s, "export_trajectory"))),
    ("advantage.build_table_ms", "ms", ("build_advantage_table",),
     lambda s, c: median(_durations(s, "build_advantage_table"))),
    ("ports.spawn_to_first_reply_ms", "ms",
     ("SubprocessTransport.__init__", "SubprocessTransport.request"),
     lambda s, c: median(first_reply_ms(s))),
    ("ports.roundtrip_ms_p50", "ms", ("SubprocessTransport.request",),
     lambda s, c: median(_durations(s, "SubprocessTransport.request"))),
    ("ports.request_bytes_p50", "B", ("SubprocessTransport.request",),
     lambda s, c: median([r[7] for r in s if r[FUNC] == "SubprocessTransport.request"])),
    ("packages.load_package_ms", "ms", ("load_package",),
     lambda s, c: median(_durations(s, "load_package"))),
    ("packages.compile_environment_calls", "count", ("compile_environment",),
     lambda s, c: c["compile_environment_calls"]),
    ("packages.compile_environment_ms", "ms", ("compile_environment",),
     lambda s, c: median(_durations(s, "compile_environment"))),
) + tuple(
    (f"synthesis.{stage}_ms", "ms", (stage,),
     lambda s, c, stage=stage: median(_durations(s, stage)))
    for stage in ("architect_compile", "verify_environment", "seed_initial_state",
                  "probe_boundary_adjacency", "explore_episode", "assemble_package")
)

def first_reply_ms(spans) -> list[float]:
    """Per port process: from spawn to the end of its first request."""
    return [(end - spawned) / 1e6 for spawned, end in first_reply_intervals(spans)]


def first_reply_intervals(spans) -> list[tuple[int, int]]:
    return [(r[8], r[END]) for r in spans
            if r[FUNC] == "SubprocessTransport.request" and len(r) > 8]


def layer_metrics(spans, prefix_counts: Counter, unresolved) -> tuple[dict, list[str]]:
    """Per-layer values, plus the metrics left out for an unresolved hook.

    Times are medians over every traced call; counts and ratios are taken
    over the counting prefix, so they repeat exactly for a seed."""
    missing = set()
    for hook in unresolved:
        for home, attr in FUNCTION_HOOKS + METHOD_HOOKS:
            if hook == f"{home}.{attr}":
                missing.add(attr)
    values, dropped = {}, []
    for name, unit, needs, compute in PER_LAYER:
        if missing.intersection(needs):
            dropped.append(name)
            continue
        values[name] = (compute(spans, prefix_counts), unit)
    return values, dropped


# --- where the time goes -------------------------------------------------------------

_STEP_PARTS = ("state_digest", "canonicalize_connection", "diff_canonical",
               "safe_execute_tool")
_SYNTH_PARTS = ("architect_compile", "verify_environment", "seed_initial_state",
                "probe_boundary_adjacency", "explore_episode", "assemble_package",
                "save_package", "load_package")


def _share(part: float, whole: float) -> str:
    return f"{100 * part / whole:.1f}%" if whole else "n/a"


def _union_ns(intervals) -> int:
    total, end = 0, None
    for s, e in sorted(intervals):
        if end is None or s > end:
            total += e - s
            end = e
        elif e > end:
            total += e - end
            end = e
    return total


def breakdown(workload: str, tracer: Tracer, units) -> list[str]:
    """Shares of step, rollout or round time spent in each traced layer."""
    lines = []
    windows = sorted(tracer.windows)
    if windows:
        starts = [w[0] for w in windows]
        inside = Counter()
        for r in tracer.spans:
            if r[FUNC] not in _STEP_PARTS:
                continue
            if r[FUNC] != "state_digest" and r[NAME].rsplit(".", 1)[0] not in _LIVE_CALLERS:
                continue
            i = bisect_right(starts, r[START]) - 1
            if i < 0 or r[END] > windows[i][1]:
                continue
            own = r[END] - r[START] - (r[CHILD] if r[FUNC] == "safe_execute_tool" else 0)
            inside[r[FUNC]] += own
        total = sum(e - s for s, e in windows)
        parts = ", ".join(
            f"{'execute self' if f == 'safe_execute_tool' else f} {_share(inside[f], total)}"
            for f in _STEP_PARTS)
        lines.append(f"breakdown {workload}: {len(windows)} traced steps, "
                     f"{total / 1e6:.1f} ms: {parts}, "
                     f"other {_share(total - sum(inside.values()), total)}")
    intervals = first_reply_intervals(tracer.spans)
    if intervals:
        wall = sum(u.elapsed_s for u in units) * 1e9
        lines.append(f"breakdown {workload}: port spawn to first reply covers "
                     f"{_share(_union_ns(intervals), wall)} of traced rollout wall time "
                     f"({len(intervals)} port processes)")
    rounds = _durations(tracer.spans, "synthesize_package")
    if rounds:
        whole = sum(u.elapsed_s for u in units) * 1e3
        parts = ", ".join(f"{f} {_share(sum(_durations(tracer.spans, f)), whole)}"
                          for f in _SYNTH_PARTS)
        lines.append(f"breakdown {workload}: of traced round time: {parts}")
    return lines
