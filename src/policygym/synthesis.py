"""Deterministic skeleton of the three-stage data synthesis pipeline.

All text generation sits behind a GenerationPort; everything that can be
checked mechanically (DDL compilation, seed admission through triggers,
boundary probing, episode execution, redaction) is implemented concretely.
A bundle is accepted only when its physical checks pass; semantic checking
is delegated to a port and marked skipped when none is configured.
"""

from __future__ import annotations

import functools
import json
import sqlite3
import threading
import warnings
from dataclasses import dataclass
from itertools import pairwise
from typing import Callable

from .errors import (
    CompilationExhausted,
    CompileFailure,
    ExplorationDiverged,
    RedactionIncomplete,
    SeedRejected,
    SynthesisError,
)
from .executor import (EnvHandle, ToolCall, ToolResult, _dispatch_undone, open_environment_at,
                       open_pooled_at, safe_execute_tool, savepoint)
from .packages import (
    ESCALATIONS_TABLE,
    MEMO_SIZE,
    READ_ONLY,
    READ_WRITE,
    EnvironmentBundle,
    RolloutLimits,
    TaskPackage,
    checked_package,
    compile_environment,
    find_spoiler,
    token_pattern,
    token_screen,
)
from .snapshots import (SchemaInfo, Snapshot, insert_sql, is_number, quote_ident, table_tags,
                        tokenize)
from .verify import DiffConfig


ARCHITECT_STAGES = ("analyze", "policy", "tables", "triggers")


# --- ports ----------------------------------------------------------------------

class GenerationPort:
    """Text generator behind the pipeline. A seeded synthesis run is
    reproducible only when its port answers the same for the same stage,
    context and seed."""

    def generate(self, stage: str, context: dict, seed: int) -> str:
        raise NotImplementedError


class StubGenerationPort(GenerationPort):
    """Replays canned outputs per stage; fully deterministic."""

    def __init__(self, outputs: dict[str, list[str]]):
        self._queues = {stage: list(texts) for stage, texts in outputs.items()}

    def generate(self, stage: str, context: dict, seed: int) -> str:
        queue = self._queues.get(stage)
        if not queue:
            raise SynthesisError(f"stub port has no canned output left for stage {stage!r}")
        return queue.pop(0)


# --- report / episode types ---------------------------------------------------------

@dataclass(frozen=True)
class VerificationReport:
    stage: str  # policy | tables | triggers | seed_state | episode
    physical: str  # pass | fail
    physical_message: str = ""
    semantic: str = "skipped"  # pass | fail | skipped
    semantic_detail: str = ""
    attempts: int = 1
    warnings: tuple[str, ...] = ()

    @property
    def accepted(self) -> bool:
        return self.physical == "pass"

    def to_json(self) -> dict:
        return {
            "stage": self.stage,
            "physical": self.physical,
            "physical_message": self.physical_message,
            "semantic": self.semantic,
            "semantic_detail": self.semantic_detail,
            "attempts": self.attempts,
            "warnings": list(self.warnings),
        }


@dataclass(frozen=True)
class BoundaryProbeResult:
    probes: tuple[dict, ...]  # {"tool_call": ToolCall json, "outcome": "accepted"|"rejected", "code": str}
    adjacency_score: float

    def to_json(self) -> dict:
        return {"probes": list(self.probes), "adjacency_score": self.adjacency_score}


@dataclass(frozen=True)
class EpisodeMessage:
    speaker: str  # client | consultant
    text: str


@dataclass(frozen=True)
class RawEpisode:
    transcript: tuple[EpisodeMessage, ...]
    actions: tuple[tuple[ToolCall, ToolResult], ...]
    s_target: Snapshot
    goal: str


@dataclass(frozen=True)
class ArchitectResult:
    bundle: EnvironmentBundle
    policy_doc: str
    reports: tuple[VerificationReport, ...]
    blueprint: str = ""


# --- architect ------------------------------------------------------------------------

def parse_permission_tags(schema_sql: str) -> dict[str, str]:
    """Permissions from the schema's table tag comments.

    L0_REFERENCE and L1_ENTITY tables are read-only, L2_TRANSACTION tables
    are read-write. Untagged tables default to read-write.
    """
    modes = {"L0_REFERENCE": READ_ONLY, "L1_ENTITY": READ_ONLY, "L2_TRANSACTION": READ_WRITE}
    return {table: modes[tag.upper()] for tag, table in table_tags(schema_sql)
            if tag.upper() in modes}


def _semantic_check(port: GenerationPort | None, stage: str, artifact: str, seed: int):
    if port is None:
        return "skipped", ""
    verdict = port.generate("semantic_check", {"stage": stage, "artifact": artifact}, seed)
    verdict = verdict.strip()
    if verdict.upper().startswith("PASS"):
        return "pass", ""
    return "fail", verdict


def architect_compile(
    seed_domain: str,
    port: GenerationPort,
    max_attempts: int,
    semantic_checker: GenerationPort | None = None,
    seed: int = 0,
) -> ArchitectResult:
    """Run the four compilation stages with a check-fix-verify loop.

    The DDL stages are compiled on a scratch engine after every attempt;
    failures are fed back to the port verbatim as the corrective context.
    Only bundles whose physical check passes are returned.
    """
    if not seed_domain.strip():
        raise SynthesisError("seed_domain must be non-empty")
    if max_attempts < 1:
        raise CompilationExhausted("max_attempts must allow at least one attempt")

    reports: list[VerificationReport] = []
    blueprint = port.generate("analyze", {"seed_domain": seed_domain}, seed)

    policy_doc = port.generate("policy", {"seed_domain": seed_domain, "blueprint": blueprint}, seed)
    sem, detail = _semantic_check(semantic_checker, "policy", policy_doc, seed)
    reports.append(VerificationReport(stage="policy", physical="pass",
                                      semantic=sem, semantic_detail=detail))

    def compiled_stage(stage: str, check):
        """(text, check(text)) for the first attempt whose check passes."""
        failure = ""
        last_report = None
        for attempt in range(1, max_attempts + 1):
            context = {"seed_domain": seed_domain, "blueprint": blueprint,
                       "policy": policy_doc, "failure": failure}
            text = port.generate(stage, context, seed)
            try:
                checked = check(text)
            except CompileFailure as exc:
                failure = str(exc)
                last_report = VerificationReport(stage=stage, physical="fail",
                                                 physical_message=failure, attempts=attempt)
                reports.append(last_report)
                continue
            sem_v, det = _semantic_check(semantic_checker, stage, text, seed)
            report = VerificationReport(stage=stage, physical="pass",
                                        semantic=sem_v, semantic_detail=det, attempts=attempt)
            reports.append(report)
            return text, checked
        raise CompilationExhausted(
            f"stage {stage!r} failed physical check after {max_attempts} attempts: {failure}",
            report=last_report,
        )

    schema_sql, _ = compiled_stage("tables", lambda text: compile_environment(text, ""))
    triggers_sql, (info, _) = compiled_stage(
        "triggers", lambda text: compile_environment(schema_sql, text))

    permissions = parse_permission_tags(schema_sql)
    for table in info.tables:
        if table != ESCALATIONS_TABLE and table not in permissions:
            permissions[table] = READ_WRITE
    bundle = EnvironmentBundle.from_schema(schema_sql, triggers_sql, permissions)
    return ArchitectResult(bundle=bundle, policy_doc=policy_doc,
                           reports=tuple(reports), blueprint=blueprint)


# --- physical verification ----------------------------------------------------------

def derive_probe_row(read: Callable[[str, tuple], list], bundle: EnvironmentBundle,
                     table: str) -> dict | None:
    """Best-effort trivially-valid arguments for ``insert_<table>``: a value
    for each property its published schema requires, of the schema's type.

    Returns None when a required foreign key has no candidate parent value;
    triggers may still reject the row, which probing treats as signal, not
    failure. ``read(sql, params)`` returns every row of a query on the state
    (``EnvHandle.read``), which ``bundle`` must describe.
    """
    info = bundle.schema_info.table(table)
    contract = bundle.tools_by_name()[f"insert_{table}"].parameter_schema
    enums = info.check_enums
    fks = {fk.column: fk for fk in info.foreign_keys}
    row: dict = {}
    for name in contract["required"]:
        fk = fks.get(name)
        if fk is not None:
            # first-seeded parent row: reference data is inserted in its
            # natural priority order, so rowid order beats lexicographic
            c, t = quote_ident(fk.ref_column), quote_ident(fk.ref_table)
            try:
                parent = read(f"SELECT {c} FROM {t} ORDER BY rowid LIMIT 1", ())
            except sqlite3.OperationalError:  # a WITHOUT ROWID parent
                parent = read(f"SELECT {c} FROM {t} ORDER BY {c} LIMIT 1", ())
            if not parent:
                return None
            row[name] = parent[0][0]
        elif name in enums:
            row[name] = enums[name][0]
        else:
            json_type = contract["properties"][name]["type"][0]
            row[name] = {"integer": 1, "number": 1.0}.get(json_type, "probe")
    return row


def _probe_write(conn: sqlite3.Connection, sql: str, params) -> tuple[str, str]:
    """Run a write inside a rolled-back savepoint; classify the outcome."""
    try:
        with savepoint(conn, keep=False):
            conn.execute(sql, params)
    except sqlite3.OperationalError as exc:
        return "broken", str(exc)  # missing table/column inside a trigger body
    except sqlite3.Error as exc:
        return "rejected", str(exc)
    return "accepted", ""


def _memo_per_object(func):
    """``func`` of one argument, memoized per argument object (``is``, not
    ``==``) over the last ``MEMO_SIZE`` objects. Each entry keeps its object,
    so no other object can take its ``id`` while the entry lives.
    ``__wrapped__`` is ``func`` itself, uncached."""
    memo: dict[int, tuple] = {}
    lock = threading.Lock()

    @functools.wraps(func)
    def memoized(arg):
        with lock:
            kept = memo.pop(id(arg), None)  # put back last: the least recently used goes first
        if kept is None:
            kept = (arg, func(arg))
        with lock:
            memo[id(arg)] = kept
            if len(memo) > MEMO_SIZE:
                del memo[next(iter(memo))]
        return kept[1]

    memoized.cache_clear = memo.clear
    return memoized


@_memo_per_object
def verify_environment(bundle: EnvironmentBundle) -> VerificationReport:
    """Physical-executability check of a compiled bundle.

    Confirms every declared relation instantiated in the bundle's compiled
    engine, then attempts one trivially-valid and one trivially-invalid write
    per read-write table where derivable, on a scratch copy of its empty
    snapshot. Engine rejections are expected; only broken references or
    failed compilation flunk the check.

    The report is kept per bundle object: it depends only on what a bundle
    holds (its DDL, its permissions in order and its tool catalog), and
    ``EnvironmentBundle.from_schema`` shares one bundle among the tasks of one
    domain, so a domain runs the check once.
    """
    warns: list[str] = []
    try:
        schema, empty = bundle.schema_info, bundle.empty_snapshot
    except CompileFailure as exc:
        return VerificationReport(stage="triggers", physical="fail", physical_message=str(exc))
    with empty.connect() as conn:
        tables = list(schema.tables)
        declared = [t for t in tables if t != ESCALATIONS_TABLE]
        if not declared:
            warns.append("schema declares no tables; vacuous pass")
        for table in bundle.tables(READ_WRITE):
            if table not in tables:
                return VerificationReport(
                    stage="triggers", physical="fail",
                    physical_message=f"declared table missing: {table}",
                )
            row = derive_probe_row(lambda sql, params: conn.execute(sql, params).fetchall(),
                                   bundle, table)
            if row is None:
                warns.append(f"{table}: valid probe not derivable (empty parent tables)")
            else:
                outcome, message = _probe_write(conn, *insert_sql(table, row))
                if outcome == "broken":
                    return VerificationReport(stage="triggers", physical="fail",
                                              physical_message=f"{table}: {message}")
                if outcome == "rejected":
                    warns.append(f"{table}: valid probe rejected: {message}")
            # trivially-invalid probe: violate the first NOT NULL column
            target = next((c for c in schema.tables[table].columns
                           if c.notnull and c.default is None and not c.primary_key), None)
            if target is not None:
                sql = f"INSERT INTO {quote_ident(table)} ({quote_ident(target.name)}) VALUES (NULL)"
                outcome, message = _probe_write(conn, sql, [])
                if outcome == "broken":
                    return VerificationReport(stage="triggers", physical="fail",
                                              physical_message=f"{table}: {message}")
                if outcome == "accepted":
                    warns.append(f"{table}: invalid probe unexpectedly accepted")
    return VerificationReport(stage="triggers", physical="pass", warnings=tuple(warns))


# --- seeding ------------------------------------------------------------------------

def apply_seed_proposals(env: EnvHandle, proposals) -> tuple[dict[str, int], list[dict]]:
    """Insert proposed rows through the live engine, one transaction each.

    Returns per-table committed counts and the rejected proposals with their
    engine messages. Trigger side effects (auto flags, derived counters) land
    in the seeded state exactly as they would during an episode.
    """
    committed: dict[str, int] = {}
    rejected: list[dict] = []
    for proposal in proposals:
        table = proposal["table"]
        strategy = proposal.get("strategy", "")
        for row in proposal.get("rows", []):
            try:
                env.system_write(*insert_sql(table, row))
            except sqlite3.Error as exc:
                rejected.append({"table": table, "strategy": strategy,
                                 "row": row, "error": str(exc)})
            else:
                committed[table] = committed.get(table, 0) + 1
    return committed, rejected


def seed_initial_state(
    bundle: EnvironmentBundle,
    strategy_cfg: dict,
    port: GenerationPort,
    seed: int = 0,
) -> Snapshot:
    """Build the origin snapshot from port-proposed rows filtered by triggers,
    on a fresh engine of its own (``synthesize_package`` seeds on the engine
    its explorer then continues on)."""
    with open_environment_at(bundle, bundle.empty_snapshot) as env:
        return _seed_on(env, strategy_cfg, port, seed)


def _seed_on(env: EnvHandle, strategy_cfg: dict, port: GenerationPort, seed: int) -> Snapshot:
    """``seed_initial_state`` on ``env``, an open handle at its bundle's empty image."""
    bundle = env.bundle
    context = {
        "strategies": strategy_cfg.get("strategies",
                                       ["trade-offs", "distractors", "substitutes", "noise"]),
        "archetypes": strategy_cfg.get("archetypes",
                                       ["mismatch", "entangled", "rookie", "edge"]),
        "tables": {t: [c.name for c in bundle.schema_info.columns(t)]
                   for t in sorted(bundle.permissions)},
    }
    text = port.generate("seed_state", context, seed)
    try:
        proposals = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SynthesisError(f"seed_state port returned invalid JSON: {exc}") from exc
    if not isinstance(proposals, list):
        raise SynthesisError("seed_state proposals must be a JSON list")
    for i, proposal in enumerate(proposals):
        if not (isinstance(proposal, dict) and isinstance(proposal.get("table"), str)
                and isinstance(proposal.get("rows", []), list)
                and all(isinstance(row, dict) for row in proposal.get("rows", []))):
            raise SynthesisError(f"seed_state proposal {i} must be an object with a string "
                                 "'table' and a list of row objects under 'rows'")

    committed, rejected = apply_seed_proposals(env, proposals)
    proposed_tables = {p["table"] for p in proposals if p.get("rows")}
    for table in strategy_cfg.get("required_tables", sorted(proposed_tables)):
        if committed.get(table, 0) == 0:
            detail = next((r["error"] for r in rejected if r["table"] == table), "no proposals")
            raise SeedRejected(f"table {table}: {detail}")
    return env.snapshot()


# --- boundary probing ------------------------------------------------------------------

def quota_bearing_tables(schema: SchemaInfo) -> list[str]:
    """Tables whose BEFORE INSERT triggers compare a count against a threshold:
    a ``>=`` token followed by a number token."""
    return list(dict.fromkeys(
        t.table for t in sorted(schema.triggers, key=lambda t: t.name)
        if t.timing == "BEFORE" and t.event == "INSERT" and ">=" in t.body
        and any(a == ">=" and is_number(b) for a, b in pairwise(tokenize(t.body)))))


def probe_boundary_adjacency(
    bundle: EnvironmentBundle,
    s: Snapshot,
    probe_budget: int,
    probe_specs: list[dict] | None = None,
) -> BoundaryProbeResult:
    """Measure how close a state sits to its rule boundaries.

    Candidate single-step writes are derived mechanically: one insert per
    quota-bearing table plus status transitions on each transactional table;
    non-numeric boundaries need explicit probe specs. All probes run on one
    copy of ``s``, each inside a savepoint that undoes its write, so every
    probe starts from ``s`` and nothing persists; the copy is on a pooled
    connection (``open_pooled_at``), since no image of it leaves the probe.
    """
    candidates = [ToolCall.from_json(spec) for spec in probe_specs or []]
    schema = bundle.schema_info
    with open_pooled_at(bundle, s) as env:
        inserts = ((t, derive_probe_row(env.read, bundle, t)) for t in quota_bearing_tables(schema)
                   if bundle.permissions.get(t) == READ_WRITE)
        candidates += [ToolCall(f"insert_{t}", row) for t, row in inserts if row is not None]
        for table in bundle.tables(READ_WRITE):
            info = schema.table(table)
            if info is None or "status" not in info.column_names or info.primary_key is None:
                continue
            pk, enums = info.primary_key, info.check_enums.get("status", ())
            rows = env.read(f"SELECT {quote_ident(pk)}, status FROM {quote_ident(table)}"
                            f" ORDER BY {quote_ident(pk)} LIMIT 3")
            candidates += [ToolCall(f"update_{table}",
                                    {"filters": {pk: pk_value}, "set": {"status": value}})
                           for pk_value, current in rows for value in enums if value != current]

        records = []
        for call in candidates[: max(probe_budget, 0)]:
            error = _dispatch_undone(env, call).error
            records.append({"tool_call": call.to_json(),
                            "outcome": "rejected" if error else "accepted",
                            "code": error.code if error else ""})
    rejected = sum(r["outcome"] == "rejected" for r in records)
    score = rejected / len(records) if records else 0.0
    return BoundaryProbeResult(probes=tuple(records), adjacency_score=score)


# --- exploration --------------------------------------------------------------------------

def _parse_port_doc(raw: str, stage: str) -> dict:
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise SynthesisError(f"{stage} port returned invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise SynthesisError(f"{stage} port must return a JSON object")
    return doc


def explore_episode(
    bundle: EnvironmentBundle,
    s_origin: Snapshot,
    client_port: GenerationPort,
    consultant_port: GenerationPort,
    limits: RolloutLimits,
    seed: int = 0,
    repetition_threshold: int = 3,
) -> RawEpisode:
    """Client/consultant exploration with every action executed for real.

    Consultant writes feed their structured error payloads back into the
    next generation context; the episode diverges after
    ``repetition_threshold`` consecutive identical rejected writes or when
    the turn budget runs out before the client confirms the goal. It runs on
    a fresh engine at ``s_origin`` (``synthesize_package`` continues on the
    engine that seeded ``s_origin`` instead).
    """
    with open_environment_at(bundle, s_origin) as env:
        return _explore_on(env, client_port, consultant_port, limits, seed, repetition_threshold)


def _explore_on(env: EnvHandle, client_port: GenerationPort, consultant_port: GenerationPort,
                limits: RolloutLimits, seed: int = 0, repetition_threshold: int = 3) -> RawEpisode:
    """``explore_episode`` on ``env``, an open handle at the origin."""
    transcript: list[EpisodeMessage] = []
    actions: list[tuple[ToolCall, ToolResult]] = []
    goal = ""
    last_error = None
    repeat_key = None
    repeat_count = 0
    confirmed = False

    for _ in range(limits.max_turns):
        context = {
            "transcript": [{"speaker": m.speaker, "text": m.text} for m in transcript],
            "goal": goal,
            "last_error": last_error,
        }
        client_doc = _parse_port_doc(client_port.generate("client", context, seed), "client")
        message = str(client_doc.get("message", ""))
        if client_doc.get("goal"):
            goal = str(client_doc["goal"])
        transcript.append(EpisodeMessage(speaker="client", text=message))
        if client_doc.get("stop"):
            confirmed = True
            break

        context["transcript"] = [{"speaker": m.speaker, "text": m.text} for m in transcript]
        consultant_doc = _parse_port_doc(
            consultant_port.generate("consultant", context, seed), "consultant"
        )
        call_docs = consultant_doc.get("tool_calls", [])
        if not isinstance(call_docs, list) or not all(
            isinstance(doc, dict) and "tool_name" in doc
            and isinstance(doc.get("arguments", {}), dict) for doc in call_docs
        ):
            raise SynthesisError("consultant port: tool_calls must be a list of objects "
                                 "with a 'tool_name' and an 'arguments' object")
        for call_doc in call_docs:
            call = ToolCall.from_json(call_doc)
            result = safe_execute_tool(env, call)
            actions.append((call, result))
            if result.status == "error":
                last_error = result.error.to_json()
                key = (call.tool_name, json.dumps(call.arguments, sort_keys=True, default=str))
                repeat_count = repeat_count + 1 if key == repeat_key else 1
                repeat_key = key
                if repeat_count >= repetition_threshold:
                    raise ExplorationDiverged(
                        f"{repeat_count} consecutive identical rejected writes: {call.tool_name}"
                    )
            else:
                last_error = None
                repeat_key = None
                repeat_count = 0
        transcript.append(
            EpisodeMessage(speaker="consultant", text=str(consultant_doc.get("message", "")))
        )
    if not confirmed:
        raise ExplorationDiverged("turn limit reached without goal confirmation")
    return RawEpisode(transcript=tuple(transcript), actions=tuple(actions),
                      s_target=env.snapshot(), goal=goal)


# --- user-view projection --------------------------------------------------------------

def build_redaction_list(
    bundle: EnvironmentBundle, ep: RawEpisode | None = None, extra=()
) -> tuple[str, ...]:
    """Deterministic token list for the projection: tool names, table names,
    multi-word (snake_case) column names, string-valued technical key values
    observed in episode results, plus explicit extras."""
    tokens: dict[str, None] = {}
    for tool in bundle.tool_catalog:
        tokens.setdefault(tool.name, None)
    key_columns: dict[str, str] = {}
    for table, info in bundle.schema_info.tables.items():
        tokens.setdefault(table, None)
        for col in info.column_names:
            if "_" in col:
                tokens.setdefault(col, None)
        if info.autoincrement and info.primary_key:
            key_columns[table] = info.primary_key
    if ep is not None:
        tools = bundle.tools_by_name()
        for call, result in ep.actions:
            spec = tools.get(call.tool_name)
            key = key_columns.get(spec.table) if spec is not None else None
            if key is None:
                continue
            for row in result.rows:
                value = row.get(key)
                if isinstance(value, str):
                    tokens.setdefault(value, None)
    for token in extra:
        tokens.setdefault(token, None)
    return tuple(tokens)


def _redact(text: str, tokens: tuple[str, ...]) -> str:
    """``text`` with each token (``token_pattern``) replaced by ``[redacted]``,
    longest token first. Only tokens that ``token_screen`` lets through (an
    ASCII token must occur in the folded text, ignoring case) run their
    pattern; the screen is rebuilt after each token that replaced anything,
    since an inserted ``[redacted]`` can hold a later token."""
    may_occur = token_screen(text)
    for token in sorted(tokens, key=len, reverse=True):
        if token and may_occur(token):
            text, replaced = token_pattern(token).subn("[redacted]", text)
            if replaced:
                may_occur = token_screen(text)
    return text


def project_user_view(
    ep: RawEpisode,
    redaction_list,
    port: GenerationPort | None = None,
    seed: int = 0,
) -> str:
    """Spoiler-free task description: the goal plus client-visible utterances,
    with procedural cues stripped. An optional port pass rewrites for fluency;
    the redaction check runs again on its output."""
    tokens = tuple(redaction_list)
    lines = [f"GOAL: {_redact(ep.goal, tokens)}", "", "USER CONTEXT:"]
    for message in ep.transcript:
        if message.speaker != "client":
            continue
        lines.append(f"- {_redact(message.text, tokens)}")
    text = "\n".join(lines) + "\n"

    if port is not None:
        text = port.generate("task_rewrite", {"draft": text}, seed)

    leak = find_spoiler(text, [], tokens)
    if leak is not None:
        raise RedactionIncomplete(f"projection still contains {leak!r}")
    return text


# --- assembly -------------------------------------------------------------------------------

def default_diff_config(bundle: EnvironmentBundle) -> DiffConfig:
    """Exclude every auto-increment key column; technical keys carry no
    business meaning."""
    return DiffConfig(excluded_columns={
        table: frozenset({info.primary_key}) for table, info in bundle.schema_info.tables.items()
        if info.autoincrement and info.primary_key})


def assemble_package(
    bundle: EnvironmentBundle,
    policy_doc: str,
    s_origin: Snapshot,
    ep: RawEpisode,
    task_text: str,
    name: str = "synthesized",
    domain: str = "",
    diff_config: DiffConfig | None = None,
    limits: RolloutLimits | None = None,
    redaction_list=(),
) -> TaskPackage:
    """Final package assembly with the two-view separation kept structural:
    the task text never references target-state internals, and the target is
    exactly the episode's executed final snapshot. The package passes the
    checks of a loaded one (``packages.checked_package``)."""
    cfg = diff_config or default_diff_config(bundle)
    pkg = checked_package(bundle, s_origin, ep.s_target, cfg, policy_doc, task_text, name=name,
                          domain=domain, limits=limits or RolloutLimits(),
                          redaction_list=tuple(redaction_list))
    if pkg.trivial:
        warnings.warn(f"package {name!r} is trivial: origin already equals target")
    return pkg


# --- end-to-end orchestration -------------------------------------------------------------

def synthesize_package(
    seed_domain: str,
    port: GenerationPort,
    max_attempts: int = 3,
    strategy_cfg: dict | None = None,
    limits: RolloutLimits | None = None,
    name: str = "synthesized",
    domain: str = "",
    probe_budget: int = 32,
    seed: int = 0,
    semantic_checker: GenerationPort | None = None,
) -> tuple[TaskPackage, dict]:
    """Architect -> verify -> seed -> probe -> explore -> project -> assemble.

    Seeding and the explorer share one fresh engine (``open_environment_at``
    at the empty image), so a task pays one schema parse; the probes run in
    between on a pooled copy of ``s_origin``, never on that engine. Its
    images are the bytes that ``seed_initial_state`` and ``explore_episode``
    write, each on an engine of its own (see ``snapshots.HandlePool``).

    Returns the package plus a stage log (reports, adjacency score and the
    executed episode actions for ground-truth replay checks).
    """
    strategy_cfg = strategy_cfg or {}
    result = architect_compile(seed_domain, port, max_attempts,
                               semantic_checker=semantic_checker, seed=seed)
    gate = verify_environment(result.bundle)
    if not gate.accepted:
        raise CompilationExhausted(
            f"environment failed physical verification: {gate.physical_message}", report=gate
        )
    limits = limits or RolloutLimits()
    with open_environment_at(result.bundle, result.bundle.empty_snapshot) as env:
        s_origin = _seed_on(env, strategy_cfg, port, seed)
        probe = probe_boundary_adjacency(
            result.bundle, s_origin, probe_budget, strategy_cfg.get("probe_specs")
        )
        episode = _explore_on(env, port, port, limits, seed,
                              strategy_cfg.get("repetition_threshold", 3))
    redaction = build_redaction_list(result.bundle, episode,
                                     strategy_cfg.get("redaction_extra", ()))
    task_text = project_user_view(episode, redaction)
    pkg = assemble_package(
        result.bundle, result.policy_doc, s_origin, episode, task_text,
        name=name, domain=domain, limits=limits, redaction_list=redaction,
    )
    log = {
        "stages": [r.to_json() for r in result.reports] + [gate.to_json()],
        "adjacency_score": probe.adjacency_score,
        "probes": probe.to_json()["probes"],
        "goal": episode.goal,
        "actions": [
            {"tool_call": call.to_json(), "result": res.to_json()}
            for call, res in episode.actions
        ],
        "delta0": pkg.delta0,
    }
    return pkg, log
