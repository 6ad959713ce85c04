"""policygym benchmark: one workload per invocation, run from the repository root.

    python3 perfbench/run.py --workload oracle_group --seed 1 --seconds 20 --trace 0

Workloads (see BENCHMARK.json for why each was chosen):

    oracle_group     groups of 8 in-process fixture oracle episodes + advantage table
    churn_scaled     seeded churn episodes on an origin of ~2,000 rows per table
    cli_rollout      ``policygym rollout --k 8 --parallel 1`` with scripted subprocess ports
    synth_roundtrip  stub ``synthesize_package``, then ``save_package`` / ``load_package``

Each run sets the workload up several times (``setup_s`` is the median),
runs one untimed warm-up unit, then measures closed-loop for ``--seconds``
and runs the output checks untimed. With ``--trace 0`` the last stdout line
carries the end-to-end metrics. One "op" is an episode (oracle_group), a tool
call step (churn_scaled), a rollout invocation (cli_rollout) or a synthesis
round trip (synth_roundtrip); the lines above the result name each metric in
its workload's own terms, with its sample count.

With ``--trace 1`` the run measures half its time untraced, installs spans
(``tracing.py``), counts a fixed prefix of units twice and checks that the two
counts agree, measures the rest of its time traced, and prints the per-layer
metrics plus ``trace.overhead_ratio`` (traced / untraced mean op time).

``--workload all`` runs the four workloads one after another, each in its
own process, and ends with one JSON line whose metric names carry the
workload as a prefix.

The run exits 0 when every output check passed, 1 when one failed, and 2 with
no result when the policygym sources are not under ``src/``. Failed
operations (an exception escaping the library, a port failure, a failed
check) are counted in ``failed`` against ``attempted``; a known defect kept
out of the measured work is replayed once, untimed, and reported on its own
line (``known defect: ...``). Everything the run
writes stays under ``.perfbench/`` in the working directory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import sqlite3
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path


WORKLOAD_NAMES = ("oracle_group", "churn_scaled", "cli_rollout", "synth_roundtrip")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOAD_NAMES, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return parser.parse_args(argv)


def run_record(root: Path, tmp: Path, seed: int) -> list[str]:
    try:
        fs = subprocess.run(["stat", "-f", "-c", "%T", str(tmp)], capture_output=True,
                            text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        fs = "unknown"
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return [f"record: nproc={cpus} python={platform.python_version()} "
            f"sqlite={sqlite3.sqlite_version} tmpdir_fs={fs} seed={seed}"]


class Prober:
    """Runs actions back to back with a host-speed probe between each two:
    one probe run closes an action and opens the next, so each action gets
    a probe on both sides for the cost of one."""

    def __init__(self, probe):
        self.probe = probe
        self.last = None

    def timed(self, action):
        """Return ``action``'s result, wall time and speed factor."""
        before = self.probe.run() if self.last is None else self.last
        started = time.perf_counter()
        result = action()
        elapsed = time.perf_counter() - started
        self.last = self.probe.run()
        return result, elapsed, self.probe.factor(before, self.last)


def run_unit(wl, prober: Prober, index: int):
    if wl.tracer is not None:
        wl.tracer.op += 1
    unit, _, unit.speed = prober.timed(lambda: wl.run_unit(index))
    return unit


def measure(wl, prober: Prober, seconds: float, index: int) -> tuple[list, int]:
    """Closed loop: units back to back until ``seconds`` have passed."""
    units = []
    deadline = time.perf_counter() + seconds
    while True:
        units.append(run_unit(wl, prober, index))
        index += 1
        if time.perf_counter() >= deadline:
            return units, index


def peak_rss_mb(wl) -> float:
    # the rollout runs in child processes; every other workload in this one
    who = resource.RUSAGE_CHILDREN if wl.name == "cli_rollout" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024


def _speeds(u) -> list[float]:
    """Per-op speed factors: the op's own when probed per op, else the unit's."""
    return u.op_speeds if len(u.op_speeds) == len(u.op_ms) else [u.speed] * len(u.op_ms)


def normalized_ops(units) -> list[float]:
    return [x * f for u in units for x, f in zip(u.op_ms, _speeds(u))]


def normalized_elapsed(u) -> float:
    ops_s = sum(u.op_ms) / 1e3
    return (sum(x * f for x, f in zip(u.op_ms, _speeds(u))) / 1e3
            + (u.elapsed_s - ops_s) * u.speed)


def end_to_end(units, setup_s: float, rss: float) -> dict:
    """The gated metrics; times are normalized to nominal host speed."""
    ops = normalized_ops(units)
    elapsed = sum(normalized_elapsed(u) for u in units)
    return {
        "op_ms_p50_norm": (statistics.median(ops), "ms"),
        "ops_per_s_norm": (len(ops) / elapsed, "1/s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rss, "MB"),
    }


def describe(wl, units, setup_s, rss) -> list[str]:
    lines = []
    for name, value, unit, n in wl.named_metrics(units):
        note = f"raw, n={n}"
        if name.endswith("_p95") and n * 0.05 < 10:
            note += f"; {int(n * 0.05)} samples beyond p95, below 10"
        lines.append(f"metric {wl.name}.{name} = {value:.6g} {unit} ({note})")
    attempted = sum(u.attempted for u in units)
    failed = sum(u.failed for u in units)
    escaped = Counter(e for u in units for e in u.escaped)
    detail = ", ".join(f"{k} x{v}" for k, v in sorted(escaped.items())) or "none escaped"
    outcomes = sum((u.outcomes for u in units), Counter())
    calls = sum(outcomes.values())
    if calls:
        lines.append(
            f"outcomes {wl.name}: {calls} tool calls in completed episodes: "
            + ", ".join(f"{k} {outcomes[k]}" for k in ("success", "policy", "contract", "engine"))
            + f"; reject_ratio {1 - outcomes['success'] / calls:.3f}")
    lines.append(f"metric {wl.name}.setup_s = {setup_s:.6g} s (raw, n={wl.setup_repeats})")
    lines.append(f"metric {wl.name}.peak_rss_mb = {rss:.6g} MB (n=1)")
    lines.append(f"metric {wl.name}.fail_ratio = {failed / attempted if attempted else 0:.6g} "
                 f"({failed} of {attempted} {wl.fail_unit}; {detail})")
    return lines


def traced_phase(wl, prober: Prober, seconds: float, index: int, tracing) -> dict:
    """Install spans, count the prefix twice, then measure traced."""
    tracer = tracing.Tracer()
    tracer.install()
    wl.tracer = tracer
    started = time.perf_counter()
    units, passes = [], []
    try:
        for _ in range(2):
            before = Counter(tracer.counts)
            for k in range(wl.prefix_units):
                units.append(run_unit(wl, prober, 1 + k))
            passes.append(Counter(tracer.counts) - before)
        left = seconds - (time.perf_counter() - started)
        if left > 0:
            more, index = measure(wl, prober, left, index)
            units += more
    finally:
        tracer.uninstall()
        wl.tracer = None
    return {"tracer": tracer, "units": units, "passes": passes}


def run_all(args) -> int:
    """Every workload in its own process; one combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            print(f"error: {name} printed no result (exit {proc.returncode})", file=sys.stderr)
            return proc.returncode or 1
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    root = Path.cwd()
    src = root / "src"
    if not (src / "policygym" / "__init__.py").is_file():
        print(f"error: no policygym sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    workdir = root / ".perfbench" / f"run-{os.getpid()}"
    tmp = workdir / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = str(tmp)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    try:
        return run(args, root, workdir, tmp, env)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(args, root: Path, workdir: Path, tmp: Path, env: dict) -> int:
    import policygym
    import tracing
    import workloads

    if not Path(policygym.__file__).resolve().is_relative_to((root / "src").resolve()):
        print(f"error: imported policygym from {policygym.__file__}", file=sys.stderr)
        return 2

    wl = workloads.WORKLOADS[args.workload](args.seed, workdir, env)
    lines = [f"perfbench: workload={wl.name} op={wl.op_name} seed={args.seed} "
             f"seconds={args.seconds:g} trace={args.trace}"]
    lines += run_record(root, tmp, args.seed)

    setups, speeds = [], []
    prober = Prober(wl.setup_probe)
    for n in range(wl.setup_repeats):
        _, elapsed, speed = prober.timed(lambda: wl.setup(n))
        setups.append(elapsed)
        speeds.append(speed)
    setup_s = statistics.median(t * f for t, f in zip(setups, speeds))
    sizes = wl.input_sizes
    fits = "fits" if sizes["image_bytes"] <= sizes["cache_bytes"] else "exceeds"
    lines.append("input: " + " ".join(f"{t}={n}" for t, n in sizes["rows"].items())
                 + f" image_bytes={sizes['image_bytes']} cache_bytes={sizes['cache_bytes']}"
                 f" (image {fits} the page cache)")

    warm = wl.run_unit(0)
    units = [warm]
    prober = Prober(wl.probe)
    if args.trace:
        plain, index = measure(wl, prober, args.seconds / 2, 1)
        traced = traced_phase(wl, prober, args.seconds / 2, index, tracing)
        measured = plain + traced["units"]
    else:
        plain, _ = measure(wl, prober, args.seconds, 1)
        measured = plain
    units += measured
    errors = [e for u in units for e in u.errors]
    attempted = sum(u.attempted for u in measured)
    failed = sum(u.failed for u in measured)
    rss = peak_rss_mb(wl)

    lines += describe(wl, plain, statistics.median(setups), rss)
    lines += wl.known_defects()
    speed = statistics.median(u.speed for u in measured)
    lines.append(f"host: {wl.probe.name} at {wl.probe.nominal_ms / speed:.3g} ms "
                 f"(nominal {wl.probe.nominal_ms:g} ms) over {len(measured)} units; "
                 f"gated times are normalized to nominal speed")
    if args.trace:
        metrics = per_layer(wl, plain, traced, tracing, lines)
        if traced["passes"][0] != traced["passes"][1]:
            errors.append(f"traced counts differ between two passes: {traced['passes']}")
    else:
        metrics = end_to_end(plain, setup_s, rss)

    for problem in dict.fromkeys(errors):
        lines.append(f"check failed: {problem}")
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0 if not errors else 1


def per_layer(wl, plain, traced, tracing, lines) -> dict:
    tracer = traced["tracer"]
    values, dropped = tracing.layer_metrics(tracer.spans, traced["passes"][0], tracer.unresolved)
    for hook in tracer.unresolved:
        lines.append(f"unresolved hook: {hook}")
    for name in dropped:
        lines.append(f"not measured (unresolved hook): {name}")
    if wl.name == "cli_rollout":
        values["ports.startup_ms"] = (wl.startup_ms("policygym.ports"), "ms")
        values["cli.startup_ms"] = (wl.startup_ms("policygym.cli"), "ms")
    else:
        values["ports.startup_ms"] = (0.0, "ms")
        values["cli.startup_ms"] = (0.0, "ms")
    untraced = normalized_ops(plain)
    with_spans = normalized_ops(traced["units"])
    ratio = 0.0
    if untraced and with_spans:
        ratio = statistics.mean(with_spans) / statistics.mean(untraced)
    values["trace.overhead_ratio"] = (ratio, "ratio")
    lines.append(f"counted prefix: {wl.prefix_units} unit(s) of {wl.name}, twice")
    lines += tracing.breakdown(wl.name, tracer, traced["units"])
    for name in sorted(values):
        value, unit = values[name]
        lines.append(f"layer {name} = {value:.6g} {unit}")
    return values


if __name__ == "__main__":
    raise SystemExit(main())
