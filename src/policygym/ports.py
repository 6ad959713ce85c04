"""Agent and user simulator ports.

In-process ports implement two tiny call contracts; the subprocess transport
speaks newline-delimited JSON over standard streams so LLM-backed simulators
in any runtime can attach. This module also doubles as the scripted-port
executable used by the bundled fixture:

    python -m policygym.ports --role agent --script pkg/scripts/agent_script.json
"""

from __future__ import annotations

import argparse
import json
import os
import selectors
import shlex
import subprocess
import sys
import tempfile
import time

from .errors import PortFailure

DEFAULT_PORT_TIMEOUT = float(os.environ.get("POLICYGYM_PORT_TIMEOUT", "120"))
STDERR_TAIL = 4096  # bytes of a port's stderr that a PortFailure quotes
MAX_REPLY_BYTES = 16 << 20  # a longer reply line is a PortFailure, not a growing buffer


class AgentPort:
    """Produces the next agent action: either text for the user or a ToolCall."""

    deterministic = False

    def next_action(self, policy_doc: str, tool_catalog, history, seed: int):
        raise NotImplementedError


class UserPort:
    """Produces the next user utterance from the task text and the dialogue."""

    deterministic = False

    def next_utterance(self, task_description: str, history, seed: int) -> str:
        raise NotImplementedError


# --- scripted (fully deterministic) ----------------------------------------------

def _parse_agent_step(doc) -> "str | ToolCall":
    from .executor import ToolCall

    if isinstance(doc, str):
        return doc
    if isinstance(doc, dict):
        if "text" in doc:
            return str(doc["text"])
        if "tool_call" in doc:
            return ToolCall.from_json(doc["tool_call"])
    raise PortFailure(f"unrecognized scripted agent step: {doc!r}")


class ScriptedAgentPort(AgentPort):
    """Replays a fixed action sequence, ignoring history."""

    deterministic = True

    def __init__(self, script):
        self._steps = [_parse_agent_step(doc) for doc in script]
        self._next = 0

    @classmethod
    def from_file(cls, path) -> "ScriptedAgentPort":
        with open(path, encoding="utf-8") as fh:
            return cls(json.load(fh))

    def next_action(self, policy_doc, tool_catalog, history, seed):
        if self._next >= len(self._steps):
            raise PortFailure("agent script exhausted")
        step = self._steps[self._next]
        self._next += 1
        return step


class ScriptedUserPort(UserPort):
    deterministic = True

    def __init__(self, script):
        self._lines = [str(line) for line in script]
        self._next = 0

    @classmethod
    def from_file(cls, path) -> "ScriptedUserPort":
        with open(path, encoding="utf-8") as fh:
            return cls(json.load(fh))

    def next_utterance(self, task_description, history, seed):
        if self._next >= len(self._lines):
            raise PortFailure("user script exhausted")
        line = self._lines[self._next]
        self._next += 1
        return line


# --- subprocess transport ------------------------------------------------------------

class SubprocessTransport:
    """One long-lived worker process; one JSON line out, one JSON line back.

    The worker's stderr goes to an anonymous temporary file; a failure quotes
    its last ``STDERR_TAIL`` bytes, and nothing reads it otherwise.
    """

    def __init__(self, cmd: str, timeout: float = DEFAULT_PORT_TIMEOUT):
        self.cmd = cmd
        self.timeout = timeout
        self._stderr = tempfile.TemporaryFile()
        try:
            self._proc = subprocess.Popen(
                shlex.split(cmd),
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                stderr=self._stderr,
            )
        except OSError as exc:
            self._stderr.close()
            raise PortFailure(f"cannot spawn port command {cmd!r}: {exc}") from exc
        self._buffer = bytearray()
        self._selector = selectors.DefaultSelector()
        self._selector.register(self._proc.stdout, selectors.EVENT_READ)

    def request(self, doc: dict) -> dict:
        if self._proc.poll() is not None:
            raise self._failure(f"port process exited with {self._proc.returncode}")
        line = json.dumps(doc, sort_keys=True) + "\n"
        try:
            self._proc.stdin.write(line.encode("utf-8"))
            self._proc.stdin.flush()
        except (BrokenPipeError, OSError) as exc:
            raise self._failure(f"port stdin closed: {exc}") from exc
        raw = self._read_line()
        try:
            response = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise self._failure(f"port response is not JSON: {raw[:200]!r}") from exc
        if not isinstance(response, dict):
            raise self._failure("port response must be a JSON object")
        if response.get("type") == "error":
            raise self._failure(f"port error: {response.get('message', '')}")
        return response

    def start_episode(self, episode: int, seed: int) -> bool:
        """Re-arm a worker that served an earlier episode with the optional
        ``episode_start`` request. False unless it answers with that type; a
        worker that errs, fails or answers otherwise is to be replaced."""
        try:
            reply = self.request({"type": "episode_start", "episode": episode, "seed": seed})
        except PortFailure:
            return False
        return reply.get("type") == "episode_start"

    def _read_line(self) -> str:
        deadline = time.monotonic() + self.timeout
        scanned = 0  # the buffer before this offset holds no newline
        while (end := self._buffer.find(b"\n", scanned)) < 0:
            if len(self._buffer) > MAX_REPLY_BYTES:
                raise self._failure(f"port reply longer than {MAX_REPLY_BYTES} bytes")
            scanned = len(self._buffer)
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise self._failure(f"port timed out after {self.timeout}s")
            if not self._selector.select(timeout=min(remaining, 0.5)):
                if self._proc.poll() is not None:
                    raise self._failure("port process exited mid-request")
                continue
            chunk = self._proc.stdout.read1(65536)
            if chunk:
                self._buffer.extend(chunk)
            elif self._proc.poll() is not None:
                raise self._failure("port closed stdout")
        line = bytes(self._buffer[:end])
        del self._buffer[:end + 1]
        try:
            return line.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise self._failure(f"port reply is not UTF-8: {exc}") from exc

    def _failure(self, message: str) -> PortFailure:
        """``message`` plus the tail of what the worker wrote to stderr. The
        read does not move the file offset the worker writes at."""
        fd = self._stderr.fileno()
        size = os.fstat(fd).st_size
        start = max(0, size - STDERR_TAIL)
        tail = os.pread(fd, size - start, start).decode("utf-8", "replace").strip()
        return PortFailure(f"{message}; stderr: {tail}" if tail else message)

    def close(self) -> None:
        self._selector.close()
        # closing stdin first lets a worker that reads to end of input exit
        # by itself before it is terminated
        try:
            self._proc.stdin.close()
        except BrokenPipeError:
            pass  # the flush of an unsent request failed; the pipe is closed anyway
        if self._proc.poll() is None:
            self._proc.terminate()
            try:
                self._proc.wait(timeout=5)
            except subprocess.TimeoutExpired:
                self._proc.kill()
                self._proc.wait()
        self._proc.stdout.close()
        self._stderr.close()


def _history_json(history) -> list[dict]:
    out = []
    for turn in history:
        content = turn.content
        if isinstance(content, str):
            payload = content
        elif hasattr(content, "to_json"):
            payload = content.to_json()
        else:
            payload = str(content)
        out.append({"role": turn.role, "content": payload})
    return out


class SubprocessAgentPort(AgentPort):
    def __init__(self, cmd: str, timeout: float = DEFAULT_PORT_TIMEOUT, limits: dict | None = None):
        self.transport = SubprocessTransport(cmd, timeout)
        self.limits = limits or {}

    def next_action(self, policy_doc, tool_catalog, history, seed):
        from .executor import ToolCall

        response = self.transport.request({
            "type": "agent_turn",
            "policy": policy_doc,
            "tools": [t.to_json() for t in tool_catalog],
            "history": _history_json(history),
            "limits": self.limits,
            "seed": seed,
        })
        content = response.get("content")
        if isinstance(content, str):
            return content
        if isinstance(content, dict) and "tool_call" in content:
            return ToolCall.from_json(content["tool_call"])
        if isinstance(content, dict) and "text" in content:
            return str(content["text"])
        raise PortFailure(f"bad agent_turn content: {content!r}")

    def close(self):
        self.transport.close()


class SubprocessUserPort(UserPort):
    def __init__(self, cmd: str, timeout: float = DEFAULT_PORT_TIMEOUT, limits: dict | None = None):
        self.transport = SubprocessTransport(cmd, timeout)
        self.limits = limits or {}

    def next_utterance(self, task_description, history, seed):
        response = self.transport.request({
            "type": "user_turn",
            "task": task_description,
            "history": _history_json(history),
            "limits": self.limits,
            "seed": seed,
        })
        content = response.get("content")
        if not isinstance(content, str):
            raise PortFailure(f"bad user_turn content: {content!r}")
        return content

    def close(self):
        self.transport.close()


class SubprocessGenerationPort:
    """Generation-port shim mirroring the rollout protocol with type=generate."""

    deterministic = False

    def __init__(self, cmd: str, timeout: float = DEFAULT_PORT_TIMEOUT):
        self.transport = SubprocessTransport(cmd, timeout)

    def generate(self, stage: str, context: dict, seed: int) -> str:
        response = self.transport.request(
            {"type": "generate", "stage": stage, "context": context, "seed": seed}
        )
        content = response.get("content")
        if not isinstance(content, str):
            raise PortFailure(f"bad generate content: {content!r}")
        return content

    def close(self):
        self.transport.close()


# --- scripted port as a subprocess ------------------------------------------------------

def _serve_script(role: str, script) -> None:
    """Answer protocol requests from stdin with scripted responses.

    ``episode_start`` re-arms the script, so the next episode replays it from
    the start. Each arming copies the script's lists, which serving drains."""
    def arm():
        return (list(script) if role == "agent" else [],
                list(script) if role == "user" else [],
                {stage: list(queue) for stage, queue in script.items()}
                if role == "generate" else {})

    agent_steps, user_lines, gen_outputs = arm()
    for raw in sys.stdin:
        raw = raw.strip()
        if not raw:
            continue
        request = json.loads(raw)
        rtype = request.get("type")
        if rtype == "episode_start":
            agent_steps, user_lines, gen_outputs = arm()
            response = {"type": "episode_start"}
        elif rtype == "agent_turn":
            if not agent_steps:
                response = {"type": "error", "message": "agent script exhausted"}
            else:
                step = agent_steps.pop(0)
                content = step if isinstance(step, dict) else {"text": str(step)}
                response = {"type": "agent_turn", "content": content}
        elif rtype == "user_turn":
            if not user_lines:
                response = {"type": "error", "message": "user script exhausted"}
            else:
                response = {"type": "user_turn", "content": str(user_lines.pop(0))}
        elif rtype == "generate":
            queue = gen_outputs.get(request.get("stage"), [])
            if not queue:
                response = {"type": "error", "message": "no canned output for stage"}
            else:
                response = {"type": "generate", "content": queue.pop(0)}
        else:
            response = {"type": "error", "message": f"unknown request type {rtype!r}"}
        sys.stdout.write(json.dumps(response) + "\n")
        sys.stdout.flush()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="policygym.ports",
                                     description="serve a scripted port over stdio")
    parser.add_argument("--role", choices=["agent", "user", "generate"], required=True)
    parser.add_argument("--script", required=True, help="JSON script file")
    args = parser.parse_args(argv)
    with open(args.script, encoding="utf-8") as fh:
        script = json.load(fh)
    _serve_script(args.role, script)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
