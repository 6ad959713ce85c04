"""Advantage math: group normalization, turn refinement, surrogate objective."""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from policygym.advantage import (
    AdvantageConfig,
    build_advantage_table,
    export_advantage_table,
    group_advantages,
    surrogate_objective,
    turn_refine,
)
from policygym.errors import EmptyGroup, LengthMismatch, MixedPackages
from policygym.rollout import Trajectory, Turn


def test_group_advantages_exact_binary_case():
    assert group_advantages([1, 1, 0, 0]) == [1.0, 1.0, -1.0, -1.0]


def test_group_advantages_zero_std_guard():
    assert group_advantages([0.7, 0.7, 0.7]) == [0.0, 0.0, 0.0]
    assert group_advantages([5.0]) == [0.0]


def test_group_advantages_single_success_case():
    # mean 0.25, population std sqrt(3)/4
    a = group_advantages([1, 0, 0, 0])
    assert a[0] == pytest.approx(math.sqrt(3), rel=1e-12)
    assert a[1] == pytest.approx(-1 / math.sqrt(3), rel=1e-12)
    assert a[1] == a[2] == a[3]


def test_group_advantages_empty_group():
    with pytest.raises(EmptyGroup):
        group_advantages([])


@given(st.lists(st.floats(min_value=-10, max_value=10,
                          allow_nan=False, allow_infinity=False),
                min_size=1, max_size=16))
@settings(max_examples=300, deadline=None)
def test_group_advantages_mean_zero(rewards):
    a = group_advantages(rewards)
    if any(x != 0.0 for x in a):
        assert abs(sum(a) / len(a)) < 1e-12


@given(
    rewards=st.lists(st.floats(min_value=-5, max_value=5,
                               allow_nan=False, allow_infinity=False),
                     min_size=2, max_size=10),
    shift=st.floats(min_value=-100, max_value=100, allow_nan=False),
)
@settings(max_examples=200, deadline=None)
def test_group_advantages_affine_shift_invariant_and_sign_equivariant(rewards, shift):
    base = group_advantages(rewards)
    shifted = group_advantages([r + shift for r in rewards])
    flipped = group_advantages([-r for r in rewards])
    for x, y, z in zip(base, shifted, flipped):
        assert x == pytest.approx(y, abs=1e-8)
        assert z == pytest.approx(-x, abs=1e-8)


def test_turn_refine_contract_examples():
    assert turn_refine(1.0, [0.5, -0.25, 0.0]) == [1.0, 0.75, 1.0]
    assert turn_refine(0.3, [0.1, 0.0, 2.0]) == [0.3, 0.3, 0.3]
    assert turn_refine(-1.0, [-0.1]) == [-1.1]


@given(
    a_i=st.floats(min_value=-3, max_value=3, allow_nan=False),
    dense=st.lists(st.floats(min_value=-1, max_value=1, allow_nan=False), max_size=20),
)
@settings(max_examples=300, deadline=None)
def test_turn_refine_monotone(a_i, dense):
    # rewards below float granularity of a_i cannot move it; keep draws realistic
    dense = [round(r, 6) for r in dense]
    refined = turn_refine(a_i, dense)
    for r, a_it in zip(dense, refined):
        assert a_it <= a_i + 1e-15
        if r >= 0:
            assert a_it == a_i
        else:
            assert a_it < a_i


def test_surrogate_objective_contract_examples():
    # ratios all 1: clip inactive, value is mean(A) - beta * mean(kl)
    value = surrogate_objective([1.0, 1.0], [0.5, -0.5], 0.2, [0.1, 0.3], beta=2.0)
    assert value == pytest.approx((0.5 - 0.5) / 2 - 2.0 * 0.2)
    # upper clip binds
    value = surrogate_objective([2.0], [1.0], 0.2, [0.0], beta=0.0)
    assert value == pytest.approx(1.2)
    # clip binds for negative advantage
    value = surrogate_objective([0.5], [-1.0], 0.2, [0.0], beta=0.0)
    assert value == pytest.approx(-0.8)


def test_surrogate_objective_unclipped_limit():
    ratios = [0.3, 1.7, 2.4]
    advantages = [1.0, -2.0, 0.5]
    value = surrogate_objective(ratios, advantages, math.inf, [0.0] * 3, beta=0.0)
    expected = sum(r * a for r, a in zip(ratios, advantages)) / 3
    assert value == pytest.approx(expected)


def test_surrogate_objective_errors_and_normalization():
    with pytest.raises(LengthMismatch):
        surrogate_objective([1.0], [1.0, 2.0], 0.2, [0.0], beta=0.0)
    with pytest.raises(LengthMismatch):
        surrogate_objective([], [], 0.2, [], beta=0.0)
    ratios = [1.0, 1.0, 1.0]
    advantages = [3.0, 1.0, 1.0]
    kl = [0.0, 0.0, 0.0]
    global_mean = surrogate_objective(ratios, advantages, 0.2, kl, beta=0.0)
    per_traj = surrogate_objective(ratios, advantages, 0.2, kl, beta=0.0,
                                   trajectory_lengths=[1, 2], normalization="per_trajectory")
    assert global_mean == pytest.approx(5.0 / 3)
    assert per_traj == pytest.approx((3.0 + 1.0) / 2)
    with pytest.raises(LengthMismatch):
        surrogate_objective(ratios, advantages, 0.2, kl, beta=0.0,
                            trajectory_lengths=[2, 2], normalization="per_trajectory")


def test_surrogate_objective_refuses_an_unknown_normalization():
    with pytest.raises(ValueError, match="bogus"):
        surrogate_objective([1.0, 1.0], [1.0, 3.0], 0.2, [0.0, 0.0], beta=0.0,
                            normalization="bogus")


def test_per_trajectory_normalization_needs_the_trajectory_lengths():
    with pytest.raises(LengthMismatch, match="trajectory_lengths"):
        surrogate_objective([1.0, 1.0], [1.0, 3.0], 0.2, [0.0, 0.0], beta=0.0,
                            normalization="per_trajectory")


def _tool_turn(index: int, reward: float) -> Turn:
    from policygym.executor import ToolCall

    return Turn(index=index, role="agent_tool",
                content=ToolCall("query_users", {}), state_digest="d",
                proximity=0.5, reward=reward, mask_in_loss=False)


def _trajectory(package_id: str, r_final: int, rewards) -> Trajectory:
    turns = tuple(_tool_turn(i, r) for i, r in enumerate(rewards))
    return Trajectory(package_id=package_id, turns=turns, termination="stop_signal",
                      final_diff=0 if r_final else 3, r_final=r_final,
                      sum_dense=sum(rewards))


def test_build_advantage_table_group_of_four():
    group = [
        _trajectory("p", 1, [0.5, 0.5]),
        _trajectory("p", 0, [-0.1]),
        _trajectory("p", 0, [0.0, -0.1]),
        _trajectory("p", 1, [1.0]),
    ]
    table = build_advantage_table(group)
    assert list(table.trajectory_advantages) == [1.0, -1.0, -1.0, 1.0]
    rows = table.rows_for(table.trajectory_ids[2])
    assert rows[0].a_it == -1.0          # r_t = 0 keeps A_i
    assert rows[1].a_it == pytest.approx(-1.1)  # violation digs deeper
    for row in table.turn_advantages:
        assert row.a_it <= row.a_i + 1e-15
        assert (row.a_it == row.a_i) == (row.r_t >= 0)


def test_build_advantage_table_single_and_mixed():
    assert list(build_advantage_table([_trajectory("p", 1, [0.2])]).trajectory_advantages) == [0.0]
    with pytest.raises(MixedPackages):
        build_advantage_table([_trajectory("p", 1, []), _trajectory("q", 0, [])])
    with pytest.raises(EmptyGroup):
        build_advantage_table([])


def test_randomized_refinement_invariants():
    rng = random.Random(3)
    for _ in range(300):
        size = rng.randint(1, 6)
        group = [
            _trajectory("p", rng.randint(0, 1),
                        [rng.uniform(-0.3, 0.6) for _ in range(rng.randint(0, 5))])
            for _ in range(size)
        ]
        table = build_advantage_table(group)
        finals = [t.r_final for t in group]
        if len(set(finals)) > 1:
            mean = sum(table.trajectory_advantages) / size
            assert abs(mean) < 1e-12
        else:
            assert all(a == 0.0 for a in table.trajectory_advantages)
        for row in table.turn_advantages:
            assert row.a_it <= row.a_i + 1e-15
            assert (abs(row.a_it - row.a_i) < 1e-15) == (row.r_t >= 0)


def test_export_advantage_table(tmp_path):
    import json

    table = build_advantage_table([
        _trajectory("p", 1, [0.5, -0.1]),
        _trajectory("p", 0, [0.0]),
    ])
    path = tmp_path / "advantages.jsonl"
    export_advantage_table(table, path)
    lines = [json.loads(line) for line in path.read_text("utf-8").splitlines()]
    assert len(lines) == 3
    assert set(lines[0]) == {"trajectory_id", "turn_index", "A_i", "r_t", "A_it"}
    assert lines[1]["A_it"] == pytest.approx(lines[1]["A_i"] - 0.1)


def test_advantage_config_defaults():
    cfg = AdvantageConfig()
    assert cfg.eps_std == 1e-6
    assert cfg.beta == 0.0
