"""policygym: runtime, verifier and synthesis toolkit for policy-governed
stateful tool-calling environments backed by trigger-enforced SQLite states.

The public names below resolve on first use (PEP 562), so importing one
submodule, such as the ``python -m policygym.ports`` server, does not import
the whole runtime.
"""

import importlib

__version__ = "0.1.0"

_HOMES = {
    "advantage": ("AdvantageConfig", "AdvantageTable", "build_advantage_table",
                  "group_advantages", "surrogate_objective", "turn_refine"),
    "executor": ("EnvHandle", "ErrorPayload", "ToolCall", "ToolResult", "execute_tool",
                 "open_environment", "open_environment_at", "parse_engine_error",
                 "safe_execute_tool"),
    "packages": ("EnvironmentBundle", "RolloutLimits", "TaskPackage", "ToolSpec",
                 "derive_tools", "find_spoiler", "load_package", "save_package"),
    "rollout": ("EpisodeScorer", "Trajectory", "Turn", "compute_metrics", "detect_stop",
                "export_trajectory", "import_trajectory", "pass_at_k", "pass_hat_k",
                "run_episode"),
    "snapshots": ("Snapshot",),
    "verify": ("CanonicalRelationSet", "DiffConfig", "SnapshotDiff", "canonicalize", "diff",
               "dense_reward", "final_reward", "proximity"),
}
_HOME_OF = {name: module for module, names in _HOMES.items() for name in names}

__all__ = sorted(_HOME_OF)


def __getattr__(name):
    module = _HOME_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
