"""Group-relative advantages with turn-aware asymmetric refinement, plus the
clipped surrogate objective as a pure evaluation function. No gradients, no
optimizer: trainers consume the exported tables.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

from .errors import EmptyGroup, IoFailure, LengthMismatch, MixedPackages

DEFAULT_EPS_STD = 1e-6
DEFAULT_CLIP_EPS = 0.2
DEFAULT_BETA = 0.0


@dataclass(frozen=True)
class AdvantageConfig:
    eps_std: float = DEFAULT_EPS_STD
    clip_eps: float = DEFAULT_CLIP_EPS
    beta: float = DEFAULT_BETA

    def to_json(self) -> dict:
        return {"eps_std": self.eps_std, "clip_eps": self.clip_eps, "beta": self.beta}


@dataclass(frozen=True)
class TurnAdvantage:
    trajectory_id: str
    turn_index: int
    a_i: float
    r_t: float
    a_it: float


@dataclass(frozen=True)
class AdvantageTable:
    group_id: str
    trajectory_ids: tuple[str, ...]
    trajectory_advantages: tuple[float, ...]
    turn_advantages: tuple[TurnAdvantage, ...]
    config: AdvantageConfig = field(default_factory=AdvantageConfig)

    def rows_for(self, trajectory_id: str) -> list[TurnAdvantage]:
        return [r for r in self.turn_advantages if r.trajectory_id == trajectory_id]


def group_advantages(rewards, eps_std: float = DEFAULT_EPS_STD) -> list[float]:
    """Normalize final rewards by the group's population mean and std.

    Degenerate groups (std below eps_std, including size-1 groups) get all
    zeros rather than a division blow-up.
    """
    rewards = list(rewards)
    if not rewards:
        raise EmptyGroup("group_advantages needs at least one reward")
    n = len(rewards)
    mean = sum(rewards) / n
    std = math.sqrt(sum((r - mean) ** 2 for r in rewards) / n)
    if std < eps_std:
        return [0.0] * n
    return [(r - mean) / std for r in rewards]


def turn_refine(a_i: float, dense) -> list[float]:
    """Asymmetric refinement: negative dense rewards subtract from the
    trajectory advantage, non-negative ones leave it untouched."""
    return [a_i + (r if r < 0 else 0.0) for r in dense]


def surrogate_objective(
    ratios,
    advantages,
    clip_eps: float,
    kl_terms,
    beta: float,
    trajectory_lengths=None,
    normalization: str = "global",
) -> float:
    """Clipped surrogate value: mean over turns of
    min(ratio * A, clip(ratio, 1-eps, 1+eps) * A) - beta * KL.

    ``normalization`` is "global" (mean over all turns) or "per_trajectory"
    (mean of per-trajectory means, requires trajectory_lengths summing to the
    turn count); any other name is a ValueError.
    """
    if normalization not in ("global", "per_trajectory"):
        raise ValueError(f"unknown normalization: {normalization!r}")
    ratios = list(ratios)
    advantages = list(advantages)
    kl_terms = list(kl_terms)
    if not (len(ratios) == len(advantages) == len(kl_terms)):
        raise LengthMismatch(
            f"ratios={len(ratios)}, advantages={len(advantages)}, kl_terms={len(kl_terms)}"
        )
    if not ratios:
        raise LengthMismatch("surrogate_objective needs at least one turn")

    def clip(value: float) -> float:
        return min(max(value, 1.0 - clip_eps), 1.0 + clip_eps)

    terms = [
        min(r * a, clip(r) * a) - beta * kl
        for r, a, kl in zip(ratios, advantages, kl_terms)
    ]
    if normalization == "global":
        return sum(terms) / len(terms)
    if trajectory_lengths is None:
        raise LengthMismatch("per_trajectory normalization needs trajectory_lengths")
    lengths = list(trajectory_lengths)
    if sum(lengths) != len(terms) or any(n < 1 for n in lengths):
        raise LengthMismatch("trajectory_lengths must be positive and sum to the turn count")
    means = []
    cursor = 0
    for n in lengths:
        means.append(sum(terms[cursor:cursor + n]) / n)
        cursor += n
    return sum(means) / len(means)


def build_advantage_table(group, cfg: AdvantageConfig | None = None) -> AdvantageTable:
    """Advantages for one group of trajectories from the same package.

    A_i comes from the binary final rewards; per-turn A_it applies the
    asymmetric refinement to each trajectory's dense rewards, aligned to its
    agent tool turns.
    """
    cfg = cfg or AdvantageConfig()
    group = list(group)
    if not group:
        raise EmptyGroup("build_advantage_table needs at least one trajectory")
    package_ids = {t.package_id for t in group}
    if len(package_ids) > 1:
        raise MixedPackages(f"trajectories span packages: {sorted(package_ids)}")

    a = group_advantages([float(t.r_final) for t in group], cfg.eps_std)
    trajectory_ids = tuple(f"{t.package_id}#{i}" for i, t in enumerate(group))
    rows = []
    for traj_id, trajectory, a_i in zip(trajectory_ids, group, a):
        tool_turns = trajectory.tool_turns()
        refined = turn_refine(a_i, [t.reward for t in tool_turns])
        for turn, a_it in zip(tool_turns, refined):
            rows.append(TurnAdvantage(
                trajectory_id=traj_id,
                turn_index=turn.index,
                a_i=a_i,
                r_t=turn.reward,
                a_it=a_it,
            ))
    return AdvantageTable(
        group_id=package_ids.pop(),
        trajectory_ids=trajectory_ids,
        trajectory_advantages=tuple(a),
        turn_advantages=tuple(rows),
        config=cfg,
    )


def export_advantage_table(table: AdvantageTable, path) -> None:
    """Newline-delimited records for trainer ingestion."""
    lines = []
    for row in table.turn_advantages:
        lines.append(json.dumps({
            "trajectory_id": row.trajectory_id,
            "turn_index": row.turn_index,
            "A_i": row.a_i,
            "r_t": row.r_t,
            "A_it": row.a_it,
        }, sort_keys=True))
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + ("\n" if lines else ""))
    except OSError as exc:
        raise IoFailure(str(exc)) from exc
