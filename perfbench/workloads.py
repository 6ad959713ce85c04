"""The four workloads: what one unit of work is, how it is set up and timed,
and the untimed output checks that follow.

Every workload runs closed-loop from one process with one environment
connection at a time and no thread pool. ``run_unit(i)`` is a pure function
of the seed and ``i``, so a unit index names the same inputs in every run.
Each unit's output checks run inside ``run_unit`` after its clock stops;
a check that calls a hooked library function (a digest, a full-scan diff)
runs with the tracer paused.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import json
import shlex
import shutil
import sqlite3
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

from policygym import advantage, packages, ports, rollout, synthesis, verify
from policygym.fixtures import corporate_travel
from policygym.snapshots import Snapshot

import churn
import reference
from tracing import StepClock, classify, count_rows, median

STOP = corporate_travel.LIMITS.stop_token
TRACED_CLI = Path(__file__).resolve().parent / "traced_cli.py"


@dataclasses.dataclass
class Unit:
    """Outcome of one unit of work (a group, an episode, a rollout, a round)."""

    elapsed_s: float = 0.0
    speed: float = 1.0  # host-speed factor measured around the unit (reference.py)
    op_speeds: list = dataclasses.field(default_factory=list)  # per op, when probed finer
    op_ms: list = dataclasses.field(default_factory=list)
    step_ms: list = dataclasses.field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    errors: list = dataclasses.field(default_factory=list)  # failed output checks
    escaped: list = dataclasses.field(default_factory=list)  # exceptions out of the library
    outcomes: Counter = dataclasses.field(default_factory=Counter)  # tool results by class

    def count_outcomes(self, trajectory) -> None:
        for turn in trajectory.turns:
            if turn.role == rollout.ROLE_TOOL_RESULT:
                self.outcomes[classify(turn.content)] += 1


def image_stats(data: bytes) -> dict:
    """Rows per table of a SQLite image, and its size against the page cache."""
    conn = sqlite3.connect(":memory:")
    try:
        conn.deserialize(data)
        rows = count_rows(conn)
        page_size = conn.execute("PRAGMA page_size").fetchone()[0]
        cache = conn.execute("PRAGMA cache_size").fetchone()[0]
    finally:
        conn.close()
    cache_bytes = -cache * 1024 if cache < 0 else cache * page_size
    return {"rows": rows, "image_bytes": len(data), "cache_bytes": cache_bytes}


class _TimedScriptedAgent(ports.ScriptedAgentPort):
    def __init__(self, script, clock: StepClock):
        super().__init__(script)
        self.clock = clock

    def next_action(self, policy_doc, tool_catalog, history, seed):
        self.clock.port_called()
        action = super().next_action(policy_doc, tool_catalog, history, seed)
        self.clock.returned(action)
        return action


class _ChurnAgent(ports.AgentPort):
    """Issues a fixed call list, then hands the turn back to the user."""

    deterministic = True

    def __init__(self, calls, clock: StepClock):
        self.calls = list(calls)
        self.clock = clock
        self.next = 0

    def next_action(self, policy_doc, tool_catalog, history, seed):
        self.clock.port_called()
        if self.next < len(self.calls):
            action = self.calls[self.next]
            self.next += 1
        else:
            action = "All queued changes have been attempted."
        self.clock.returned(action)
        return action


class Workload:
    name = ""
    op_name = ""
    fail_unit = ""  # what attempted and failed count
    prefix_units = 1  # units counted, twice, in a traced run
    setup_repeats = 15  # setup_s is their median
    probe = reference.KERNEL  # host-speed probe that normalizes gated times
    # setups write fixture files and commit databases to disk: a third or more
    # of their time goes to waiting for flushes
    setup_probe = reference.KERNEL_COMMIT

    def __init__(self, seed: int, workdir: Path, env: dict):
        self.seed = seed
        self.workdir = workdir
        self.env = env
        self.tracer = None
        self.input_sizes: dict = {}

    def setup(self, n: int) -> None:
        raise NotImplementedError

    def run_unit(self, index: int) -> Unit:
        raise NotImplementedError

    def named_metrics(self, units) -> list[tuple]:
        """(name, value, unit, samples) for the metrics this workload owns."""
        raise NotImplementedError

    def known_defects(self) -> list[str]:
        """Lines on known program defects, replayed untimed after the run."""
        return []


def _step_metrics(units) -> list[tuple]:
    steps = [s for u in units for s in u.step_ms]
    elapsed = sum(u.elapsed_s for u in units)
    return [
        ("tool_calls_per_s", len(steps) / elapsed if elapsed else 0.0, "1/s", len(steps)),
        ("step_ms_p50", median(steps), "ms", len(steps)),
        ("step_ms_p95", p95(steps), "ms", len(steps)),
    ]


def p95(values) -> float:
    if len(values) < 2:
        return median(values)
    return statistics.quantiles(values, n=20, method="inclusive")[18]


# --- oracle_group ---------------------------------------------------------------------

class OracleGroup(Workload):
    """k=8 fixture oracle replays per group, then the group's advantage table."""

    name = "oracle_group"
    op_name = "episode"
    fail_unit = "episodes"
    group = 8

    def setup(self, n):
        root = self.workdir / f"fixture-{n}"
        corporate_travel.build(root)
        self.pkg = packages.load_package(root)
        self.agent_script = json.loads((root / "scripts" / "agent_script.json").read_text())
        self.user_script = json.loads((root / "scripts" / "user_script.json").read_text())
        self.input_sizes = image_stats(self.pkg.origin_snapshot.data)

    def run_unit(self, index):
        clock = StepClock(self.tracer)
        unit = Unit(attempted=self.group)
        trajectories = []
        start = time.perf_counter()
        for j in range(self.group):
            agent = _TimedScriptedAgent(self.agent_script, clock)
            user = ports.ScriptedUserPort(self.user_script)
            began = time.perf_counter()
            try:
                t = rollout.run_episode(self.pkg, agent, user,
                                        seed=self.seed * 100_000 + index * self.group + j)
            except Exception as exc:  # noqa: BLE001 - counted, the run goes on
                unit.failed += 1
                unit.escaped.append(type(exc).__name__)
                continue
            unit.op_ms.append((time.perf_counter() - began) * 1e3)
            trajectories.append(t)
            unit.count_outcomes(t)
        table = advantage.build_advantage_table(trajectories) if trajectories else None
        unit.elapsed_s = time.perf_counter() - start
        unit.step_ms = clock.samples_ms

        if trajectories:
            first = [t.state_digest for t in trajectories[0].tool_turns()]
            for t in trajectories:
                if t.r_final != 1 or t.termination != rollout.TERMINATION_STOP:
                    unit.failed += 1
                    unit.errors.append(f"oracle episode ended {t.termination} r_final={t.r_final}")
                elif [x.state_digest for x in t.tool_turns()] != first:
                    unit.failed += 1
                    unit.errors.append("oracle digest sequence differs inside a group")
            if any(a != 0 for a in table.trajectory_advantages) or any(
                    r.a_it != 0 for r in table.turn_advantages):
                unit.errors.append("oracle group advantages are not all 0")
                unit.failed = unit.attempted
        return unit

    def named_metrics(self, units):
        episodes = [e for u in units for e in u.op_ms]
        elapsed = sum(u.elapsed_s for u in units)
        return [
            ("episodes_per_s", len(episodes) / elapsed if elapsed else 0.0, "1/s", len(episodes)),
            ("episode_ms_p50", median(episodes), "ms", len(episodes)),
            ("episode_ms_p95", p95(episodes), "ms", len(episodes)),
        ] + _step_metrics(units)


# --- churn_scaled ---------------------------------------------------------------------

class ChurnScaled(Workload):
    """Seeded churn episodes from an origin scaled to ~2,000 rows per table."""

    name = "churn_scaled"
    op_name = "step"
    fail_unit = "episodes"
    prefix_units = 2
    setup_repeats = 7  # each builds the ~450 KB origin through the triggers
    setup_probe = reference.KERNEL  # the origin is built with synchronous = OFF

    def setup(self, n):
        self.pkg, rows = churn.build_scaled_origin(self.seed)
        if self.pkg.delta0 != 4:
            raise RuntimeError(f"scaled origin has delta0={self.pkg.delta0}, expected 4")
        self.generator = churn.ChurnGenerator(self.seed, rows)
        self.input_sizes = image_stats(self.pkg.origin_snapshot.data)
        self.target = verify.canonicalize(self.pkg.target_snapshot, self.pkg.diff_config)
        self._final = None
        self._capture_s = 0.0
        self._keep_final_state()

    def _keep_final_state(self):
        """Capture the episode's final image as its environment closes (the
        environment is gone once ``run_episode`` returns, and the checks need
        it). The capture is timed and taken off the unit and the open span."""
        inner = rollout.open_environment
        if getattr(inner, "perfbench_keeps_final", False):
            return

        @functools.wraps(inner)
        def opening(pkg):
            env = inner(pkg)
            close = env.close

            def close_keeping_state():
                if not env.closed:
                    began = time.perf_counter_ns()
                    self._final = env.connection.serialize()
                    spent = time.perf_counter_ns() - began
                    self._capture_s += spent / 1e9
                    if self.tracer is not None:
                        self.tracer.exclude(spent)
                close()

            env.close = close_keeping_state
            return env

        opening.perfbench_keeps_final = True
        rollout.open_environment = opening

    def run_unit(self, index):
        clock = StepClock(self.tracer, probe=True)
        agent = _ChurnAgent(self.generator.episode(index), clock)
        user = ports.ScriptedUserPort(["Please work through my queued travel changes.", STOP])
        unit = Unit(attempted=1)
        self._final = None
        self._capture_s = 0.0
        start = time.perf_counter()
        try:
            t = rollout.run_episode(self.pkg, agent, user, seed=index)
        except Exception as exc:  # noqa: BLE001 - counted, the run goes on
            t = None
            unit.failed = 1
            unit.escaped.append(type(exc).__name__)
        unit.elapsed_s = time.perf_counter() - start - clock.probe_s - self._capture_s
        unit.step_ms = clock.samples_ms
        unit.op_ms = clock.samples_ms
        unit.op_speeds = clock.speeds
        if t is not None:
            unit.count_outcomes(t)
            paused = self.tracer.paused() if self.tracer is not None else contextlib.nullcontext()
            with paused:
                unit.errors = self.check_episode(t.turns, t.final_diff, self._final)
            unit.failed = 1 if unit.errors else 0
        self._final = None  # keep no image past its episode
        return unit

    def check_episode(self, turns, final_diff, final) -> list[str]:
        """A rejected call leaves the digest where it was before the call,
        and ``final_diff`` matches a full-scan diff of the final image."""
        problems = []
        # run_episode stamps a call's post-call digest on both its agent_tool
        # turn and its tool_result turn, so "before the call" is the last
        # digest on any other turn
        before = None
        for turn in turns:
            if turn.role == rollout.ROLE_AGENT_TOOL:
                continue
            if (turn.role == rollout.ROLE_TOOL_RESULT and turn.content.status == "error"
                    and turn.state_digest != before):
                problems.append("a rejected call moved the state digest")
            before = turn.state_digest
        if final is None:
            problems.append("final state was not captured")
        else:
            image = Snapshot(final)
            cfg = self.pkg.diff_config
            total = verify.diff_canonical(verify.canonicalize(image, cfg), self.target).total
            if total != final_diff:
                problems.append(f"final_diff {final_diff} != full-scan diff {total}")
            if image.digest() != turns[-1].state_digest:
                problems.append("final state digest differs from the last recorded one")
        return problems

    def named_metrics(self, units):
        return _step_metrics(units)

    def known_defects(self):
        """Replay the list-valued query filter (ROADMAP.md item 4) as a one-call
        episode. It stays out of the measured episodes because today it
        escapes ``run_episode``; this line shows whether it still does."""
        clock = StepClock()
        agent = _ChurnAgent([churn.LIST_FILTER_CALL], clock)
        user = ports.ScriptedUserPort(["Please look up my travel request.", STOP])
        try:
            rollout.run_episode(self.pkg, agent, user, seed=0)
        except Exception as exc:  # noqa: BLE001 - the defect being shown
            outcome = f"escapes run_episode as {type(exc).__module__}.{type(exc).__name__}"
        else:
            outcome = "no longer escapes run_episode"
        self._final = None
        return [f"known defect (ROADMAP.md item 4): a list-valued query filter {outcome}"]


# --- cli_rollout ------------------------------------------------------------------------

class CliRollout(Workload):
    """``policygym rollout --k 8 --parallel 1`` with the bundled scripted ports."""

    name = "cli_rollout"
    op_name = "rollout"
    fail_unit = "rollouts"
    probe = reference.SPAWN  # the rollout's time goes to starting child interpreters
    setup_probe = reference.SPAWN  # as does its setup
    setup_repeats = 9  # each runs ``policygym fixture`` in a child interpreter
    k = 8

    def _python(self, *args) -> list[str]:
        return [sys.executable, *args]

    def setup(self, n):
        root = self.workdir / f"fixture-{n}"
        # every timed child gets a stdout pipe: with none to read,
        # subprocess.run(timeout=...) polls for the child's exit at up to
        # 50 ms intervals, and the time reads in 50 ms steps
        subprocess.run(self._python("-m", "policygym.cli", "fixture", str(root), "--json"),
                       env=self.env, check=True, stdout=subprocess.PIPE, timeout=120)
        self.root = root
        self.reference = None
        self.input_sizes = image_stats((root / "origin.db").read_bytes())

    def _port_cmd(self, role: str) -> str:
        script = self.root / "scripts" / f"{role}_script.json"
        return shlex.join(self._python("-m", "policygym.ports", "--role", role,
                                       "--script", str(script)))

    def run_unit(self, index):
        out = self.workdir / f"rollout-{index}"
        args = ["rollout", str(self.root), "--agent-cmd", self._port_cmd("agent"),
                "--user-cmd", self._port_cmd("user"), "--k", str(self.k), "--parallel", "1",
                "--seed", str(self.seed), "--out-dir", str(out), "--json"]
        spans = self.workdir / f"spans-{index}.json"
        if self.tracer is not None:
            cmd = self._python(str(TRACED_CLI), str(spans), *args)
        else:
            cmd = self._python("-m", "policygym.cli", *args)
        unit = Unit(attempted=1)
        start = time.perf_counter()
        proc = subprocess.run(cmd, env=self.env, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, timeout=150)
        unit.elapsed_s = time.perf_counter() - start
        unit.op_ms = [unit.elapsed_s * 1e3]

        problems = []
        try:
            report = json.loads(proc.stdout.decode().splitlines()[-1])
        except (IndexError, ValueError):
            report = {}
        if proc.returncode != 0 or not report:
            problems.append(f"rollout exited {proc.returncode}: {proc.stderr.decode()[-300:]}")
        else:
            if report.get("port_failure"):
                problems.append("a port failed")
            if report.get("successes") != self.k:
                problems.append(f"successes {report.get('successes')} != {self.k}")
            exports = [p.read_bytes() for p in sorted(out.glob("*.jsonl"))]
            if self.reference is None:
                self.reference = exports
            elif exports != self.reference:
                problems.append("exports differ from the first rollout with this seed")
        if problems:
            unit.failed = 1
            unit.errors = problems
        if self.tracer is not None and spans.is_file():
            self.tracer.merge(json.loads(spans.read_text()), self.tracer.op)
            spans.unlink()
        shutil.rmtree(out, ignore_errors=True)
        return unit

    def startup_ms(self, module: str) -> float:
        """Median wall time of a fresh interpreter importing ``module``."""
        samples = []
        for _ in range(5):
            start = time.perf_counter()
            subprocess.run(self._python("-c", f"import {module}"), env=self.env,
                           check=True, stdout=subprocess.PIPE, timeout=60)
            samples.append((time.perf_counter() - start) * 1e3)
        return median(samples)

    def named_metrics(self, units):
        walls = [u.elapsed_s for u in units]
        return [("rollout_wall_s", median(walls), "s", len(walls))]


# --- synth_roundtrip ----------------------------------------------------------------------

class SynthRoundtrip(Workload):
    """Stub synthesis, then ``save_package`` and ``load_package``."""

    name = "synth_roundtrip"
    op_name = "round"
    fail_unit = "rounds"
    probe = reference.KERNEL_COMMIT  # a round also waits on many small flushes to disk

    def setup(self, n):
        # the reference the synthesized package is checked against
        self.reference = corporate_travel.build_task_package()
        self.input_sizes = image_stats(self.reference.origin_snapshot.data)

    def run_unit(self, index):
        port = synthesis.StubGenerationPort(corporate_travel.canned_generation_outputs())
        out = self.workdir / f"synth-{index}"
        unit = Unit(attempted=1)
        start = time.perf_counter()
        try:
            pkg, _ = synthesis.synthesize_package(
                corporate_travel.SEED_DOMAIN_TEXT, port, name=corporate_travel.FIXTURE_NAME,
                domain=corporate_travel.FIXTURE_DOMAIN, seed=self.seed,
            )
            packages.save_package(pkg, out)
            loaded = packages.load_package(out)
        except Exception as exc:  # noqa: BLE001 - counted, the run goes on
            unit.failed = 1
            unit.escaped.append(type(exc).__name__)
            shutil.rmtree(out, ignore_errors=True)
            return unit
        unit.elapsed_s = time.perf_counter() - start
        unit.op_ms = [unit.elapsed_s * 1e3]

        if pkg.delta0 != 4 or pkg.delta0 != self.reference.delta0:
            unit.errors.append(f"synthesized delta0 {pkg.delta0}, fixture has 4")
        if loaded != pkg:
            unit.errors.append("load_package did not round-trip the synthesized package")
        unit.failed = 1 if unit.errors else 0
        shutil.rmtree(out, ignore_errors=True)
        return unit

    def named_metrics(self, units):
        rounds = [e for u in units for e in u.op_ms]
        return [("synth_ms_p50", median(rounds), "ms", len(rounds))]


WORKLOADS = {w.name: w for w in (OracleGroup, ChurnScaled, CliRollout, SynthRoundtrip)}
