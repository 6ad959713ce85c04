"""Command-line surface: validate, rollout, verify, score, synthesize, fixture.

Exit codes: 0 success, 1 task failure, 2 usage error, 3 internal error.
With --json exactly one JSON document goes to stdout; diagnostics go to
stderr.

Each command imports the runtime it needs when it runs, so ``rollout`` can
start its first port processes before the runtime and the package load.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
import threading
from pathlib import Path
from typing import TYPE_CHECKING

from .errors import (
    CompilationExhausted,
    ExplorationDiverged,
    InsufficientTrials,
    IoFailure,
    MixedPackages,
    PolicygymError,
    PortFailure,
)

if TYPE_CHECKING:
    from .packages import TaskPackage
    from .rollout import Trajectory, Turn

EXIT_OK = 0
EXIT_TASK = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3


class _Failure(Exception):
    def __init__(self, message: str, code: int = EXIT_TASK):
        super().__init__(message)
        self.code = code


def _check_package_dir(path: str) -> None:
    if not Path(path).is_dir():
        raise _Failure(f"package directory not found: {path}", EXIT_USAGE)


def _load_package_arg(path: str, args) -> TaskPackage:
    import dataclasses

    from .packages import load_package

    _check_package_dir(path)
    pkg = load_package(path)
    overrides = {}
    if args.epsilon is not None:
        overrides["epsilon"] = args.epsilon
    if args.lambda_err is not None:
        overrides["lambda_err"] = args.lambda_err
    if overrides:
        try:
            cfg = dataclasses.replace(pkg.diff_config, **overrides)
        except ValueError as exc:
            raise _Failure(f"bad override: {exc}", EXIT_USAGE) from exc
        pkg = dataclasses.replace(pkg, diff_config=cfg)
    return pkg


# --- commands -----------------------------------------------------------------

def cmd_validate(args) -> dict:
    pkg = _load_package_arg(args.package, args)
    kinds = {}
    for tool in pkg.env.tool_catalog:
        kinds[tool.kind] = kinds.get(tool.kind, 0) + 1
    report = {
        "package": args.package,
        "name": pkg.name,
        "domain": pkg.domain,
        "tables": len(pkg.env.permissions) + 1,  # plus the escalations log
        "read_write_tables": len(pkg.env.tables("read_write")),
        "read_only_tables": len(pkg.env.tables("read_only")),
        "tools": {"total": len(pkg.env.tool_catalog), **kinds},
        "delta0": pkg.delta0,
        "trivial": pkg.trivial,
        "max_turns": pkg.limits.max_turns,
        "stop_token": pkg.limits.stop_token,
    }
    lines = [
        f"package {pkg.name!r} ({pkg.domain})",
        f"tables: {report['tables']} "
        f"({report['read_write_tables']} read-write, {report['read_only_tables']} read-only)",
        "tools: {total} ({query} query, {insert} insert, {update} update, "
        "{escalation} escalation)".format(**report["tools"]),
        f"delta0: {pkg.delta0}",
    ]
    if pkg.trivial:
        lines.append("warning: trivial task (origin already equals target)")
    report["_lines"] = lines
    return report


def cmd_verify(args) -> dict:
    from .packages import checked_canonical
    from .snapshots import Snapshot
    from .verify import diff_canonical

    pkg = _load_package_arg(args.package, args)
    for path in (args.snapshot_a, args.snapshot_b):
        if not Path(path).is_file():
            raise _Failure(f"snapshot not found: {path}", EXIT_USAGE)
    a = Snapshot.from_file(args.snapshot_a)
    b = Snapshot.from_file(args.snapshot_b)
    d = diff_canonical(
        checked_canonical(a, pkg.env, pkg.diff_config, args.snapshot_a),
        checked_canonical(b, pkg.env, pkg.diff_config, args.snapshot_b))
    per_table = {
        table: {"added": len(delta.added), "removed": len(delta.removed)}
        for table, delta in sorted(d.per_table.items())
        if delta.added or delta.removed
    }
    report = {
        "total": d.total,
        "r_final": 1 if d.total == 0 else 0,
        "per_table": per_table,
        "_lines": [d.render_text(), f"R_final: {1 if d.total == 0 else 0}"],
    }
    return report


def _close_pair(pair: tuple) -> None:
    agent, user = pair
    try:
        agent.close()
    finally:
        user.close()


def run_episode(pkg: TaskPackage, agent, user, seed: int) -> Trajectory:
    """``policygym.rollout.run_episode``, imported on first use; the rollout
    command runs each episode through this module-level name."""
    from .rollout import run_episode

    return run_episode(pkg, agent, user, seed=seed)


def cmd_rollout(args) -> dict:
    from .ports import SubprocessAgentPort, SubprocessUserPort

    if args.k < 1:
        raise _Failure("--k must be >= 1", EXIT_USAGE)
    if args.parallel < 1:
        raise _Failure("--parallel must be >= 1", EXIT_USAGE)
    _check_package_dir(args.package)

    limits: dict = {}  # shared by every port; filled in once the package loads
    # (agent, user) port pairs between episodes; each worker holds at most
    # one pair, so at most --parallel pairs are alive
    fresh: list[tuple] = []  # spawned, yet to serve an episode
    idle: list[tuple] = []  # served an episode; re-armed before the next
    idle_lock = threading.Lock()

    def spawn_pair() -> tuple:
        agent = SubprocessAgentPort(args.agent_cmd, timeout=args.port_timeout, limits=limits)
        try:
            return agent, SubprocessUserPort(args.user_cmd, timeout=args.port_timeout,
                                             limits=limits)
        except BaseException:
            agent.close()
            raise

    def pair_for(i: int) -> tuple:
        """A pair yet to serve, else an idle pair that re-armed for episode
        ``i``, else a new one."""
        with idle_lock:
            if fresh:
                return fresh.pop()
            pair = idle.pop() if idle else None
        if pair is not None:
            if all(port.transport.start_episode(i, args.seed + i) for port in pair):
                return pair
            _close_pair(pair)
        return spawn_pair()

    def one_episode(i: int) -> Trajectory:
        pair = pair_for(i)
        reusable = False
        try:
            trajectory = run_episode(pkg, *pair, seed=args.seed + i)
            reusable = "port failure" not in trajectory.note
            return trajectory
        finally:
            if reusable:
                with idle_lock:
                    idle.append(pair)
            else:
                _close_pair(pair)

    try:
        # the first episodes' ports start up on another core while this
        # process imports the runtime and loads the package
        for _ in range(min(args.parallel, args.k)):
            fresh.append(spawn_pair())
        pkg = _load_package_arg(args.package, args)
        limits.update(pkg.limits.to_json())
        out_dir = Path(args.out_dir)
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise IoFailure(str(exc)) from exc
        if args.parallel > 1:
            from concurrent.futures import ThreadPoolExecutor

            with ThreadPoolExecutor(max_workers=args.parallel) as pool:
                trajectories = list(pool.map(one_episode, range(args.k)))
        else:
            trajectories = [one_episode(i) for i in range(args.k)]
    finally:
        for pair in fresh + idle:
            _close_pair(pair)

    from .rollout import export_trajectory, pass_at_k, pass_hat_k

    episodes = []
    port_failed = False
    for i, t in enumerate(trajectories):
        path = out_dir / f"trajectory_{i:03d}.jsonl"
        export_trajectory(t, path)
        if "port failure" in t.note:
            port_failed = True
        episodes.append({
            "episode": i,
            "r_final": t.r_final,
            "final_diff": t.final_diff,
            "termination": t.termination,
            "sum_dense": round(t.sum_dense, 12),
            "export": str(path),
            "note": t.note,
        })
    successes = sum(t.r_final for t in trajectories)
    metrics = {
        "pass_at_k": {str(j): pass_at_k(args.k, successes, j) for j in range(1, args.k + 1)},
        "pass_hat_k": {str(j): pass_hat_k(args.k, successes, j) for j in range(1, args.k + 1)},
    }
    lines = [
        f"episode {e['episode']}: r_final={e['r_final']} "
        f"termination={e['termination']} export={e['export']}"
        for e in episodes
    ]
    for j in range(1, args.k + 1):
        lines.append(
            f"pass@{j}={metrics['pass_at_k'][str(j)]:.4f} "
            f"pass^{j}={metrics['pass_hat_k'][str(j)]:.4f}"
        )
    report = {"episodes": episodes, "successes": successes, "trials": args.k,
              "metrics": metrics, "_lines": lines}
    if port_failed:
        report["_lines"].append("error: one or more episodes hit a port failure")
        report["port_failure"] = True
        report["_exit_code"] = EXIT_TASK
    return report


def _rescore(pkg: TaskPackage, recorded: Trajectory) -> Trajectory:
    """Replay the recorded tool calls from the origin and recompute rewards.

    The recorded per-turn digests must match the replay exactly; any drift
    means the trajectory does not belong to this package state."""
    import dataclasses

    from .rollout import ROLE_AGENT_TOOL, EpisodeScorer, _outcome

    turns: list[Turn] = []
    with EpisodeScorer(pkg) as scorer:
        for turn in recorded.turns:
            if turn.role != ROLE_AGENT_TOOL:
                turns.append(turn)
                continue
            result, p_t, reward = scorer.step(turn.content)
            if result.state_digest != turn.state_digest:
                raise _Failure(
                    f"replay digest mismatch at turn {turn.index}; "
                    "trajectory does not replay against this package"
                )
            turns.append(dataclasses.replace(turn, proximity=p_t, reward=reward))
        return dataclasses.replace(recorded, **_outcome(turns, scorer.final_diff()))


def cmd_score(args) -> dict:
    from . import advantage as adv
    from .rollout import import_trajectory

    pkg = _load_package_arg(args.package, args)
    paths = [args.trajectory] + list(args.group)
    for path in paths:
        if not Path(path).is_file():
            raise _Failure(f"trajectory not found: {path}", EXIT_USAGE)
    recorded = [import_trajectory(p) for p in paths]
    for path, t in zip(paths, recorded):
        if t.package_id != pkg.name:
            raise MixedPackages(f"{path} belongs to package {t.package_id!r}, not {pkg.name!r}")
    rescored = [_rescore(pkg, t) for t in recorded]
    table = adv.build_advantage_table(rescored)
    if args.out:
        adv.export_advantage_table(table, args.out)
    rows = [
        {"trajectory_id": r.trajectory_id, "turn_index": r.turn_index,
         "A_i": r.a_i, "r_t": r.r_t, "A_it": r.a_it}
        for r in table.turn_advantages
    ]
    report = {
        "group_id": table.group_id,
        "r_final": [t.r_final for t in rescored],
        "sum_dense": [round(t.sum_dense, 12) for t in rescored],
        "trajectory_advantages": list(table.trajectory_advantages),
        "turn_advantages": rows,
        "export": args.out or "",
    }
    report["_lines"] = [
        f"group {table.group_id}: A = {list(table.trajectory_advantages)}",
    ] + [
        f"  {r['trajectory_id']} turn {r['turn_index']}: "
        f"A_i={r['A_i']:+.4f} r_t={r['r_t']:+.4f} A_it={r['A_it']:+.4f}"
        for r in rows
    ]
    return report


def cmd_synthesize(args) -> dict:
    from .fixtures import corporate_travel
    from .packages import save_package
    from .ports import SubprocessGenerationPort, _encode_bytes
    from .synthesis import StubGenerationPort, synthesize_package

    seed_path = Path(args.seed_domain)
    if not seed_path.is_file():
        raise _Failure(f"seed domain file not found: {seed_path}", EXIT_USAGE)
    seed_domain = seed_path.read_text("utf-8")

    if args.port == "stub":
        port = StubGenerationPort(corporate_travel.canned_generation_outputs())
        name = corporate_travel.FIXTURE_NAME
        domain = corporate_travel.FIXTURE_DOMAIN
    else:
        try:
            port = SubprocessGenerationPort(args.port, timeout=args.port_timeout)
        except PortFailure as exc:
            raise _Failure(str(exc), EXIT_USAGE) from exc
        name = seed_path.stem
        domain = ""

    try:
        pkg, log = synthesize_package(
            seed_domain, port, max_attempts=args.max_attempts,
            name=name, domain=domain, seed=args.seed,
        )
    except CompilationExhausted as exc:
        raise _Failure(f"architect stage failed: {exc}", EXIT_TASK) from exc
    except ExplorationDiverged as exc:
        raise _Failure(f"explorer stage failed: {exc}", EXIT_TASK) from exc
    finally:
        if hasattr(port, "close"):
            port.close()

    out_dir = Path(args.out_dir)
    save_package(pkg, out_dir)
    (out_dir / "synthesis_log.json").write_text(
        json.dumps(log, indent=2, sort_keys=True, default=_encode_bytes) + "\n", "utf-8"
    )
    report = {
        "package": str(out_dir),
        "name": pkg.name,
        "delta0": pkg.delta0,
        "adjacency_score": log["adjacency_score"],
        "stages": log["stages"],
        "actions": len(log["actions"]),
        "_lines": [
            f"package written to {out_dir}",
            f"delta0={pkg.delta0} adjacency_score={log['adjacency_score']:.3f} "
            f"actions={len(log['actions'])}",
        ],
    }
    return report


def cmd_fixture(args) -> dict:
    from .fixtures import corporate_travel

    pkg = corporate_travel.build(args.out_dir)
    return {
        "package": str(args.out_dir),
        "name": pkg.name,
        "delta0": pkg.delta0,
        "_lines": [f"fixture package written to {args.out_dir} (delta0={pkg.delta0})"],
    }


# --- wiring --------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="policygym",
        description="runtime, verifier and synthesis toolkit for policy-governed "
                    "stateful tool-calling environments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, overrides=True):
        """--json, and for the commands that read a package, its reward
        overrides."""
        p.add_argument("--json", action="store_true", help="emit one JSON document on stdout")
        if overrides:
            p.add_argument("--epsilon", type=float, default=None, help="override diff epsilon")
            p.add_argument("--lambda-err", dest="lambda_err", type=float, default=None,
                           help="override the violation penalty")

    p = sub.add_parser("validate", help="load and validate a package")
    p.add_argument("package")
    common(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("verify", help="diff two snapshots under a package's config")
    p.add_argument("snapshot_a")
    p.add_argument("snapshot_b")
    p.add_argument("package")
    common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("rollout", help="run k episodes with subprocess ports")
    p.add_argument("package")
    p.add_argument("--agent-cmd", required=True, help="agent port command line")
    p.add_argument("--user-cmd", required=True, help="user port command line")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--k", type=int, default=1, help="number of episodes")
    p.add_argument("--parallel", type=int, default=1)
    p.add_argument("--out-dir", default="rollouts", help="trajectory export directory")
    p.add_argument("--port-timeout", type=float, default=None)
    common(p)
    p.set_defaults(func=cmd_rollout)

    p = sub.add_parser("score", help="re-score trajectories and export advantages")
    p.add_argument("trajectory")
    p.add_argument("package")
    p.add_argument("group", nargs="*", help="additional trajectories in the same group")
    p.add_argument("--out", default="", help="advantage table export path")
    common(p)
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("synthesize", help="run the synthesis pipeline end to end")
    p.add_argument("seed_domain", help="file holding the seed domain text")
    p.add_argument("port", help="'stub' or a generation-port command line")
    p.add_argument("out_dir")
    p.add_argument("--max-attempts", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--port-timeout", type=float, default=None)
    common(p, overrides=False)
    p.set_defaults(func=cmd_synthesize)

    p = sub.add_parser("fixture", help="materialize the bundled corporate travel package")
    p.add_argument("out_dir")
    common(p, overrides=False)
    p.set_defaults(func=cmd_fixture)

    return parser


def _emit(report: dict, as_json: bool) -> None:
    if as_json:
        clean = {k: v for k, v in report.items() if not k.startswith("_")}
        print(json.dumps(clean, sort_keys=True))
    else:
        for line in report.get("_lines", []):
            print(line)


def _port_timeout(flag: float | None) -> float:
    """``--port-timeout``, else the ``POLICYGYM_PORT_TIMEOUT`` default; a
    value that is not a number > 0 is a usage error."""
    if flag is None:
        from .ports import default_port_timeout

        try:
            return default_port_timeout()
        except ValueError as exc:
            raise _Failure(str(exc), EXIT_USAGE) from None
    if not flag > 0:
        raise _Failure("--port-timeout must be > 0", EXIT_USAGE)
    return flag


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed usage to stderr
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        if hasattr(args, "port_timeout"):
            args.port_timeout = _port_timeout(args.port_timeout)
        report = args.func(args)
    except (_Failure, PolicygymError) as exc:
        if isinstance(exc, _Failure):
            message, code = str(exc), exc.code
        elif isinstance(exc, (MixedPackages, InsufficientTrials)):
            message, code = str(exc), EXIT_USAGE
        else:
            message, code = f"{type(exc).__name__}: {exc}", EXIT_TASK
        print(f"error: {message}", file=sys.stderr)
        if args.json:
            print(json.dumps({"error": message}))
        return code
    except Exception as exc:  # noqa: BLE001
        import traceback

        traceback.print_exc()
        if args.json:
            print(json.dumps({"error": f"internal: {exc}"}))
        return EXIT_INTERNAL
    _emit(report, args.json)
    return report.pop("_exit_code", EXIT_OK)


def entry() -> int:
    """The process entry of ``policygym`` and ``python -m policygym.cli``.

    It runs ``main()``, then freezes the heap: the interpreter's exit then
    skips the collector's full passes over the objects the run leaves behind,
    which find almost nothing to collect, while atexit handlers, the stdio
    flush and reference-count teardown still run. ``main`` itself leaves the
    collector as it found it, for tests and other in-process callers.
    """
    code = main()
    gc.freeze()
    return code


if __name__ == "__main__":
    raise SystemExit(entry())
