"""Closed-loop episode runner, trajectory recording and Pass@k metrics.

One episode drives a user port and an agent port over a live environment,
scoring every tool call against the target snapshot. Episodes never raise on
port misbehavior: a failed port yields a partial trajectory with termination
"deviation" and a failure note.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from math import comb

from .errors import InsufficientTrials, IoFailure
from .executor import ToolCall, ToolResult, open_environment, safe_execute_tool
from .packages import TaskPackage
from .ports import _decode_bytes, _encode_bytes, _escape_tags
from .verify import dense_reward, proximity

ROLE_USER = "user"
ROLE_AGENT_TEXT = "agent_text"
ROLE_AGENT_TOOL = "agent_tool"
ROLE_TOOL_RESULT = "tool_result"

TERMINATION_STOP = "stop_signal"
TERMINATION_DEVIATION = "deviation"
TERMINATION_BUDGET = "budget_exhausted"

# generous cap on agent actions inside one user turn so a text-less agent
# cannot hang the loop; counted separately from the user-turn budget
MAX_ACTIONS_PER_TURN = 50


@dataclass(frozen=True)
class Turn:
    """One role-tagged event. Proximity and reward are present exactly on
    agent_tool turns; mask_in_loss marks tokens trainers exclude (user and
    tool_result turns)."""

    index: int
    role: str
    content: object  # str | ToolCall | ToolResult
    state_digest: str
    proximity: float | None = None
    reward: float | None = None
    mask_in_loss: bool = True

    def to_json(self) -> dict:
        if isinstance(self.content, str):
            payload = self.content
        else:
            payload = self.content.to_json()
        return {
            "index": self.index,
            "role": self.role,
            "payload": payload,
            "state_digest": self.state_digest,
            "proximity": self.proximity,
            "reward": self.reward,
            "mask_in_loss": self.mask_in_loss,
        }

    @classmethod
    def from_json(cls, doc: dict) -> "Turn":
        payload = doc["payload"]
        role = doc["role"]
        if role == ROLE_AGENT_TOOL:
            content = ToolCall.from_json(payload)
        elif role == ROLE_TOOL_RESULT:
            content = ToolResult.from_json(payload)
        else:
            content = payload
        return cls(
            index=doc["index"],
            role=role,
            content=content,
            state_digest=doc["state_digest"],
            proximity=doc["proximity"],
            reward=doc["reward"],
            mask_in_loss=doc["mask_in_loss"],
        )


@dataclass(frozen=True)
class Trajectory:
    package_id: str
    turns: tuple[Turn, ...]
    termination: str
    final_diff: int
    r_final: int
    sum_dense: float
    note: str = ""

    def tool_turns(self) -> list[Turn]:
        return [t for t in self.turns if t.role == ROLE_AGENT_TOOL]

    def dense_rewards(self) -> list[float]:
        return [t.reward for t in self.tool_turns()]


def detect_stop(utterance: str, stop_token: str) -> bool:
    """True iff the trimmed utterance is exactly the stop token (standalone rule)."""
    return utterance.strip() == stop_token


def _dialogue_view(turns: list[Turn]) -> list[Turn]:
    return [t for t in turns if t.role in (ROLE_USER, ROLE_AGENT_TEXT)]


class EpisodeScorer:
    """A fresh environment on ``pkg`` that scores each tool call against the
    package target: the one per-step loop behind ``run_episode`` and
    ``policygym score``.

    ``digest`` is the state digest after the last call (the origin's before
    the first); ``final_diff()`` is the distance to the target now.
    """

    def __init__(self, pkg: TaskPackage):
        self.pkg = pkg
        self.env = open_environment(pkg)
        self.digest = self.env.digest()
        self._p_prev = self._proximity()

    def _proximity(self) -> float:
        return proximity(self.env.distance(), self.pkg.delta0, self.pkg.diff_config.epsilon)

    def step(self, call: ToolCall) -> tuple[ToolResult, float, float]:
        """Run ``call``; return its result, the proximity after it and its
        dense reward (the proximity delta, or the penalty on an error)."""
        result = safe_execute_tool(self.env, call)
        p_t = self._proximity()
        reward = dense_reward(p_t, self._p_prev, result.status == "error",
                              self.pkg.diff_config.lambda_err)
        self.digest = result.state_digest
        self._p_prev = p_t
        return result, p_t, reward

    def final_diff(self) -> int:
        return self.env.distance()

    def close(self) -> None:
        self.env.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def run_episode(pkg: TaskPackage, agent, user, seed: int = 0,
                deviation_detector=None) -> Trajectory:
    """Run the interaction loop until stop signal, deviation or turn budget.

    The agent may emit any number of tool calls within one user turn; a text
    message addressed to the user ends the turn. Each tool call is scored
    with the state-proximity delta (or the violation penalty) against the
    package target.
    """
    turns: list[Turn] = []
    with EpisodeScorer(pkg) as scorer:
        termination, note = _play(pkg, agent, user, seed, deviation_detector, scorer, turns)
        return Trajectory(package_id=pkg.name, termination=termination, note=note,
                          **_outcome(turns, scorer.final_diff()))


def _play(pkg, agent, user, seed, deviation_detector, scorer, turns) -> tuple[str, str]:
    """Append the episode's turns to ``turns``; return its termination and note."""
    for _ in range(pkg.limits.max_turns):
        try:
            utterance = user.next_utterance(pkg.task_description, _dialogue_view(turns), seed)
        except Exception as exc:  # noqa: BLE001 - port contract: never crash the episode
            return TERMINATION_DEVIATION, f"user port failure: {exc}"
        turns.append(Turn(len(turns), ROLE_USER, utterance, scorer.digest))
        if detect_stop(utterance, pkg.limits.stop_token):
            return TERMINATION_STOP, ""
        if deviation_detector is not None and deviation_detector(turns):
            return TERMINATION_DEVIATION, "deviation verdict fired"
        for _ in range(MAX_ACTIONS_PER_TURN):
            try:
                action = agent.next_action(pkg.policy_doc, pkg.env.tool_catalog, list(turns), seed)
            except Exception as exc:  # noqa: BLE001
                return TERMINATION_DEVIATION, f"agent port failure: {exc}"
            if isinstance(action, str):
                turns.append(Turn(len(turns), ROLE_AGENT_TEXT, action, scorer.digest,
                                  mask_in_loss=False))
                break
            if not isinstance(action, ToolCall):
                return (TERMINATION_DEVIATION,
                        f"agent port returned unsupported action: {type(action).__name__}")
            result, p_t, reward = scorer.step(action)
            turns.append(Turn(len(turns), ROLE_AGENT_TOOL, action, scorer.digest,
                              proximity=p_t, reward=reward, mask_in_loss=False))
            turns.append(Turn(len(turns), ROLE_TOOL_RESULT, result, scorer.digest))
        else:
            return TERMINATION_BUDGET, "agent action budget exhausted within one turn"
    return TERMINATION_BUDGET, ""


def _outcome(turns, final_diff: int) -> dict:
    """The Trajectory fields that scored ``turns`` and the final distance to
    the target settle; ``policygym score`` rebuilds a replay from it too."""
    return {
        "turns": tuple(turns),
        "final_diff": final_diff,
        "r_final": 1 if final_diff == 0 else 0,
        "sum_dense": sum(t.reward for t in turns if t.role == ROLE_AGENT_TOOL),
    }


# --- metrics -----------------------------------------------------------------------

def pass_at_k(trials: int, successes: int, k: int) -> float:
    """Probability that at least one of k sampled rollouts succeeds."""
    _check_trials(trials, successes, k)
    return 1.0 - comb(trials - successes, k) / comb(trials, k)


def pass_hat_k(trials: int, successes: int, k: int) -> float:
    """Probability that all of k sampled rollouts succeed."""
    _check_trials(trials, successes, k)
    return comb(successes, k) / comb(trials, k)


def _check_trials(trials: int, successes: int, k: int) -> None:
    if trials < 1 or k < 1 or k > trials:
        raise InsufficientTrials(f"need 1 <= k <= trials, got k={k}, trials={trials}")
    if not 0 <= successes <= trials:
        raise InsufficientTrials(f"successes {successes} out of range for {trials} trials")


def compute_metrics(outcomes, k: int) -> dict:
    """Mean pass@k and pass^k over per-task (successes, trials) records."""
    if not outcomes:
        raise InsufficientTrials("no outcomes supplied")
    at, hat = [], []
    for record in outcomes:
        n, c = record["trials"], record["successes"]
        at.append(pass_at_k(n, c, k))
        hat.append(pass_hat_k(n, c, k))
    return {"pass_at_k": sum(at) / len(at), "pass_hat_k": sum(hat) / len(hat)}


# --- lossless JSONL export -----------------------------------------------------------

def export_trajectory(t: Trajectory, path) -> None:
    """Newline-delimited records: one header line, then one line per turn.
    Bytes, such as a BLOB cell in a query result, follow the bytes rule of
    ``ports._encode_bytes``; an object that looks like encoded bytes is
    escaped (``ports._escape_tags``), so the import gives back what was sent."""
    header = {
        "record": "trajectory",
        "package_id": t.package_id,
        "termination": t.termination,
        "final_diff": t.final_diff,
        "r_final": t.r_final,
        "sum_dense": t.sum_dense,
        "note": t.note,
    }
    lines = [json.dumps(header, sort_keys=True)]
    for turn in t.turns:
        lines.append(json.dumps(_escape_tags({"record": "turn", **turn.to_json()}),
                                sort_keys=True, default=_encode_bytes))
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
    except OSError as exc:
        raise IoFailure(str(exc)) from exc


def import_trajectory(path) -> Trajectory:
    try:
        with open(path, encoding="utf-8") as fh:
            lines = [line for line in fh.read().splitlines() if line.strip()]
    except OSError as exc:
        raise IoFailure(str(exc)) from exc
    except UnicodeDecodeError as exc:
        raise IoFailure(f"malformed trajectory file {path}: {exc}") from exc
    if not lines:
        raise IoFailure(f"empty trajectory file: {path}")
    try:
        records = [json.loads(line, object_hook=_decode_bytes) for line in lines]
        header = records[0]
        if header.get("record") != "trajectory":
            raise IoFailure(f"not a trajectory export: {path}")
        return Trajectory(
            package_id=header["package_id"],
            turns=tuple(Turn.from_json(record) for record in records[1:]),
            termination=header["termination"],
            final_diff=header["final_diff"],
            r_final=header["r_final"],
            sum_dense=header["sum_dense"],
            note=header.get("note", ""),
        )
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        raise IoFailure(f"malformed trajectory file {path}: {exc!r}") from exc
