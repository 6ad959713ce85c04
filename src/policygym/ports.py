"""Agent and user simulator ports.

In-process ports implement two tiny call contracts; the subprocess transport
speaks newline-delimited JSON over standard streams so LLM-backed simulators
in any runtime can attach. This module also doubles as the scripted-port
executable used by the bundled fixture:

    python -m policygym.ports --role agent --script pkg/scripts/agent_script.json
"""

from __future__ import annotations

import json
import os
import sys

from .errors import PortFailure

STDERR_TAIL = 4096  # bytes of a port's stderr that a PortFailure quotes
MAX_REPLY_BYTES = 16 << 20  # a longer reply line is a PortFailure, not a growing buffer


def default_port_timeout() -> float:
    """The subprocess-port timeout in seconds when none is given:
    ``POLICYGYM_PORT_TIMEOUT``, else 120. Read by the spawning side each time
    it takes the default, never by a served port; a value that is not a
    number > 0 raises ValueError."""
    text = os.environ.get("POLICYGYM_PORT_TIMEOUT", "120")
    try:
        if (timeout := float(text)) > 0:
            return timeout
    except ValueError:
        pass
    raise ValueError(f"POLICYGYM_PORT_TIMEOUT must be a number > 0, not {text!r}")


class AgentPort:
    """Produces the next agent action: either text for the user or a ToolCall."""

    def next_action(self, policy_doc: str, tool_catalog, history, seed: int):
        raise NotImplementedError


class UserPort:
    """Produces the next user utterance from the task text and the dialogue."""

    def next_utterance(self, task_description: str, history, seed: int) -> str:
        raise NotImplementedError


# --- scripted (fully deterministic) ----------------------------------------------

def _tool_call(doc) -> "ToolCall":
    """The ToolCall an agent sent as ``doc``. A ``doc`` that is not an object
    is a call named None with ``doc`` as its arguments, and a missing
    ``tool_name`` is None, so a malformed call scores as UNKNOWN_TOOL
    feedback (the executor's answer to any name that is not a string), not as
    a port failure, and its export still replays."""
    from .executor import ToolCall

    if not isinstance(doc, dict):
        return ToolCall(tool_name=None, arguments=doc)
    return ToolCall(tool_name=doc.get("tool_name"), arguments=doc.get("arguments", {}))


def _step_content(doc) -> dict:
    """The ``agent_turn`` content of a script step or of a reply's content: a
    string is its text, an object needs a ``tool_call`` or a ``text``, and any
    other step is refused."""
    if isinstance(doc, str):
        return {"text": doc}
    if isinstance(doc, dict) and ("tool_call" in doc or "text" in doc):
        return doc
    raise PortFailure(f"unrecognized agent step: {doc!r}")


def _agent_step(doc) -> "str | ToolCall":
    """The action of a script step or of an ``agent_turn`` reply's content."""
    content = _step_content(doc)
    return _tool_call(content["tool_call"]) if "tool_call" in content else str(content["text"])


class ScriptedAgentPort(AgentPort):
    """Replays a fixed action sequence, ignoring history."""

    def __init__(self, script):
        self._steps = [_agent_step(doc) for doc in script]
        self._next = 0

    def next_action(self, policy_doc, tool_catalog, history, seed):
        if self._next >= len(self._steps):
            raise PortFailure("agent script exhausted")
        step = self._steps[self._next]
        self._next += 1
        return step


class ScriptedUserPort(UserPort):
    def __init__(self, script):
        self._lines = [str(line) for line in script]
        self._next = 0

    def next_utterance(self, task_description, history, seed):
        if self._next >= len(self._lines):
            raise PortFailure("user script exhausted")
        line = self._lines[self._next]
        self._next += 1
        return line


# --- the bytes rule ---------------------------------------------------------------------

def _encode_bytes(value) -> dict:
    """``json.dumps`` ``default=`` hook of every JSON writer that may meet
    engine values (port requests, trajectory exports, ``synthesis_log.json``):
    bytes, such as a BLOB cell, become ``{"__bytes__": <base64>}``."""
    if not isinstance(value, bytes):
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
    import base64  # imported on first use: a port that sends no bytes never loads it

    return {"__bytes__": base64.b64encode(value).decode("ascii")}


def _is_tag(key) -> bool:
    """``__bytes__`` behind any number of extra underscores."""
    return isinstance(key, str) and key.endswith("__bytes__") and not key[:-9].strip("_")


def _escape_tags(value):
    """``value`` with one more underscore on the key of every one-key object
    keyed by a tag (``_is_tag``), so that an export holding such an object
    as data re-imports equal; ``_decode_bytes`` takes the underscore off.
    Values without such objects dump to the same bytes."""
    if isinstance(value, dict):
        if len(value) == 1 and _is_tag(key := next(iter(value))):
            return {"_" + key: _escape_tags(value[key])}
        return {k: _escape_tags(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_escape_tags(v) for v in value]
    return value


def _decode_bytes(doc: dict):
    """``json.loads`` ``object_hook`` that undoes ``_encode_bytes`` and
    ``_escape_tags``."""
    if len(doc) != 1 or not _is_tag(key := next(iter(doc))):
        return doc
    if key != "__bytes__":
        return {key[1:]: doc[key]}
    import base64

    return base64.b64decode(doc[key])


# --- subprocess transport ------------------------------------------------------------

class SubprocessTransport:
    """One long-lived worker process; one JSON line out, one JSON line back.

    The worker's stderr goes to an anonymous temporary file; a failure quotes
    its last ``STDERR_TAIL`` bytes, and nothing reads it otherwise. The modules
    that spawn and watch the worker are imported here, not by the served port
    (``main``), which needs none of them.
    """

    def __init__(self, cmd: str, timeout: float | None = None):
        import selectors
        import shlex
        import subprocess
        import tempfile

        self.cmd = cmd
        self.timeout = default_port_timeout() if timeout is None else timeout
        try:
            argv = shlex.split(cmd)
        except ValueError as exc:  # an unclosed quote or a trailing escape
            raise PortFailure(f"cannot spawn port command {cmd!r}: {exc}") from exc
        if not argv:
            raise PortFailure(f"cannot spawn port command {cmd!r}: empty command")
        self._stderr = tempfile.TemporaryFile()
        try:
            self._proc = subprocess.Popen(
                argv,
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                stderr=self._stderr,
            )
        except OSError as exc:
            self._stderr.close()
            raise PortFailure(f"cannot spawn port command {cmd!r}: {exc}") from exc
        self._buffer = bytearray()
        # key -> (value, encoded item) of the last str or tuple sent under it
        self._items: dict[str, tuple[object, str]] = {}
        self._selector = selectors.DefaultSelector()
        self._selector.register(self._proc.stdout, selectors.EVENT_READ)

    def request(self, doc: dict) -> dict:
        """Send ``doc`` as one line, byte-identical to ``json.dumps(doc,
        sort_keys=True)`` when it holds no bytes (see ``_encode_bytes``), and
        return the reply object."""
        if self._proc.poll() is not None:
            raise self._failure(f"port process exited with {self._proc.returncode}")
        line = self._encode(doc) + "\n"
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

    def _encode(self, doc: dict) -> str:
        """``json.dumps(doc, sort_keys=True, default=_encode_bytes)``, reusing
        the encoded item of a key whose value is the same str or tuple object
        as in an earlier request. A tuple counts as fixed down to its items; a
        dict or list is encoded every time, since its owner may change it
        between requests."""
        if not all(isinstance(key, str) for key in doc):
            return json.dumps(doc, sort_keys=True, default=_encode_bytes)
        items = []
        for key in sorted(doc):
            value = doc[key]
            cached = self._items.get(key)
            if cached is not None and cached[0] is value:
                items.append(cached[1])
                continue
            encoded = json.dumps(value, sort_keys=True, default=_encode_bytes)
            item = f"{json.dumps(key)}: {encoded}"
            if isinstance(value, (str, tuple)):
                self._items[key] = (value, item)
            items.append(item)
        return "{" + ", ".join(items) + "}"

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
        import time

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
        import subprocess

        self._selector.close()
        # the poll right after closing stdin gives the worker no time to see
        # end of input, so a worker still running is terminated, not awaited
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
    return [{"role": turn.role,
             "content": turn.content if isinstance(turn.content, str) else turn.content.to_json()}
            for turn in history]


class SubprocessAgentPort(AgentPort):
    def __init__(self, cmd: str, timeout: float | None = None, limits: dict | None = None):
        self.transport = SubprocessTransport(cmd, timeout)
        self.limits = {} if limits is None else limits
        self._catalog = self._tools = None  # the last catalog and its JSON tuple

    def next_action(self, policy_doc, tool_catalog, history, seed):
        if tool_catalog is not self._catalog:
            # one tuple per catalog, so the transport encodes it once
            self._catalog, self._tools = tool_catalog, tuple(t.to_json() for t in tool_catalog)
        response = self.transport.request({
            "type": "agent_turn",
            "policy": policy_doc,
            "tools": self._tools,
            "history": _history_json(history),
            "limits": self.limits,
            "seed": seed,
        })
        return _agent_step(response.get("content"))

    def close(self):
        self.transport.close()


class SubprocessUserPort(UserPort):
    def __init__(self, cmd: str, timeout: float | None = None, limits: dict | None = None):
        self.transport = SubprocessTransport(cmd, timeout)
        self.limits = {} if limits is None else limits

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

    def __init__(self, cmd: str, timeout: float | None = None):
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

# a request line that ends with one of these names its type by its last member
_ROUTED = tuple((f' "type": "{rtype}"}}'.encode(), rtype)
                for rtype in ("agent_turn", "user_turn", "episode_start"))


def _request_type(line: bytes) -> str | None:
    """The type of request ``line`` if it ends with ``' "type": "<t>"}'`` for
    ``t`` in ``agent_turn``, ``user_turn`` and ``episode_start``, read without
    decoding the line; else None, and the line must be decoded.

    ``json.dumps(request, sort_keys=True)`` puts ``"type"`` last, so every
    such request the transport sends ends this way (a ``generate`` request
    needs its ``stage`` and is decoded). For valid JSON the answer is exact:
    the final ``}`` closes the top-level object, and the ``"`` before
    ``type`` follows a space, so it is an unescaped string delimiter and the
    match is the object's last ``"type"`` member, the one ``json.loads``
    keeps. A line routed by its end is not validated any further."""
    for suffix, rtype in _ROUTED:
        if line.endswith(suffix):
            return rtype
    return None


def _serve_script(role: str, script) -> None:
    """Answer protocol requests from stdin with scripted responses, one reply
    line per request line; a request that fails, such as a line that is not
    a JSON object, is answered with an ``error`` reply and serving goes on.

    ``episode_start`` re-arms the script, so the next episode replays it from
    the start. Each arming copies the script's lists, which serving drains."""
    def arm():
        return (list(script) if role == "agent" else [],
                list(script) if role == "user" else [],
                {stage: list(queue) for stage, queue in script.items()}
                if role == "generate" else {})

    def respond(line: bytes) -> dict:
        nonlocal agent_steps, user_lines, gen_outputs
        request = {"type": _request_type(line)}
        if request["type"] is None:
            try:
                request = json.loads(line)
            except ValueError as exc:  # JSONDecodeError, or bytes that are not UTF-8
                raise PortFailure(f"request is not JSON: {exc}") from None
            if not isinstance(request, dict):
                raise PortFailure("request must be a JSON object")
        rtype = request.get("type")
        if rtype == "episode_start":
            agent_steps, user_lines, gen_outputs = arm()
            return {"type": "episode_start"}
        if rtype == "agent_turn":
            if not agent_steps:
                raise PortFailure("agent script exhausted")
            # raises for the step ScriptedAgentPort refuses
            return {"type": "agent_turn", "content": _step_content(agent_steps.pop(0))}
        if rtype == "user_turn":
            if not user_lines:
                raise PortFailure("user script exhausted")
            return {"type": "user_turn", "content": str(user_lines.pop(0))}
        if rtype == "generate":
            stage = request.get("stage")
            queue = gen_outputs.get(stage) if isinstance(stage, str) else None
            if not queue:
                raise PortFailure("no canned output for stage")
            return {"type": "generate", "content": queue.pop(0)}
        raise PortFailure(f"unknown request type {rtype!r}")

    agent_steps, user_lines, gen_outputs = arm()
    for raw in sys.stdin.buffer:
        raw = raw.strip()
        if not raw:
            continue
        try:
            response = respond(raw)
        except PortFailure as exc:
            response = {"type": "error", "message": str(exc)}
        sys.stdout.write(json.dumps(response) + "\n")
        sys.stdout.flush()


def main(argv=None) -> int:
    import argparse

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
