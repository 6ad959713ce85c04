"""Port transport and the scripted port server: request bytes, re-arming, reply
size cap and the cost of starting a port."""

from __future__ import annotations

import json
import shlex
import subprocess
import sys
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import policygym
from policygym.errors import PortFailure
from policygym.ports import (
    MAX_REPLY_BYTES,
    ScriptedAgentPort,
    SubprocessAgentPort,
    SubprocessGenerationPort,
    SubprocessTransport,
    SubprocessUserPort,
)


def test_importing_ports_loads_no_runtime():
    """A port server starts without sqlite3, the executor or base64 (which
    only the bytes rule needs): the package's public names resolve lazily."""
    code = ("import json, policygym.ports, sys; "
            "assert 'sqlite3' not in sys.modules; "
            "assert 'base64' not in sys.modules; "
            "assert 'policygym.executor' not in sys.modules; "
            "print(json.dumps(sorted(m for m in sys.modules if m.startswith('policygym'))))")
    out = subprocess.run([sys.executable, "-c", code], check=True, capture_output=True,
                         text=True, timeout=60).stdout
    assert json.loads(out) == ["policygym", "policygym.errors", "policygym.ports"]


def test_every_public_name_resolves():
    assert len(policygym.__all__) == 42
    for name in policygym.__all__:
        value = getattr(policygym, name)
        home = sys.modules[value.__module__]
        assert getattr(home, name) is value
    namespace: dict = {}
    exec("from policygym import *", namespace)
    assert set(policygym.__all__) <= set(namespace)
    with pytest.raises(AttributeError):
        policygym.no_such_name  # noqa: B018


def _imported(stderr: str) -> set[str]:
    """The modules a ``python -X importtime`` run listed on ``stderr``."""
    return {line.rsplit("|", 1)[1].strip() for line in stderr.splitlines()
            if line.startswith("import time:")}


def test_served_agent_script_refuses_the_step_the_scripted_port_refuses(tmp_path):
    """``python -m policygym.ports`` answers a step that is neither an object
    nor a string with the error ScriptedAgentPort raises for it, serves the
    next step, and imports neither sqlite3 nor the executor meanwhile. Nor
    does it import subprocess, selectors, tempfile or shlex, which only the
    spawning side needs, beyond what the interpreter's own start-up imports."""
    with pytest.raises(PortFailure) as refused:
        ScriptedAgentPort([5])
    assert str(refused.value) == "unrecognized agent step: 5"
    script = tmp_path / "agent.json"
    script.write_text(json.dumps([5, "hello"]), "utf-8")
    served = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "policygym.ports", "--role", "agent",
         "--script", str(script)],
        input=(json.dumps({"type": "agent_turn"}) + "\n") * 2,
        check=True, capture_output=True, text=True, timeout=60)
    assert [json.loads(line) for line in served.stdout.splitlines()] == [
        {"type": "error", "message": "unrecognized agent step: 5"},
        {"type": "agent_turn", "content": {"text": "hello"}},
    ]
    imported = _imported(served.stderr)
    assert "policygym.errors" in imported
    assert not {"sqlite3", "policygym.executor"} & imported
    bare = subprocess.run([sys.executable, "-X", "importtime", "-c", "pass"], check=True,
                          capture_output=True, text=True, timeout=60)
    assert not {"subprocess", "selectors", "tempfile", "shlex"} & (imported - _imported(bare.stderr))


def _generate_server(tmp_path, outputs: dict) -> SubprocessTransport:
    script = tmp_path / "generator.json"
    script.write_text(json.dumps(outputs), "utf-8")
    return SubprocessTransport(f"{shlex.quote(sys.executable)} -m policygym.ports "
                               f"--role generate --script {shlex.quote(str(script))}",
                               timeout=30)


def test_rearmed_generate_server_replays_its_queues_from_the_start(tmp_path):
    transport = _generate_server(tmp_path, {"tables": ["first", "second"], "seed": ["rows"]})

    def generate(stage):
        return transport.request({"type": "generate", "stage": stage, "context": {},
                                  "seed": 0})["content"]

    try:
        for episode in range(3):
            if episode:
                assert transport.start_episode(episode, seed=episode)
            assert [generate("tables"), generate("tables"), generate("seed")] == [
                "first", "second", "rows"]
            with pytest.raises(PortFailure, match="no canned output"):
                generate("tables")
    finally:
        transport.close()


def test_an_endless_reply_line_is_a_port_failure_with_the_stderr_tail():
    code = ("import sys; sys.stderr.write('flooding stdout'); sys.stderr.flush()\n"
            "chunk = b'x' * 65536\n"
            "while True: sys.stdout.buffer.write(chunk)\n")
    transport = SubprocessTransport(f"{shlex.quote(sys.executable)} -c {shlex.quote(code)}",
                                    timeout=30)
    try:
        with pytest.raises(PortFailure) as failure:
            transport.request({"type": "agent_turn"})
    finally:
        transport.close()
    message = str(failure.value)
    assert f"longer than {MAX_REPLY_BYTES} bytes" in message
    assert message.endswith("flooding stdout")


# --- request bytes --------------------------------------------------------------------

ECHO_PORT = ("import json, sys\n"
             "for raw in sys.stdin:\n"
             "    print(json.dumps({'content': raw[:-1]}), flush=True)\n")

_json = st.recursive(
    st.none() | st.booleans() | st.integers(-2**63, 2**63 - 1)
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                 max_size=3),
    max_leaves=6,
)
_objects = st.dictionaries(st.text(max_size=6), _json, max_size=4)


class _JsonItem:
    """A catalog tool or a structured history turn: anything with to_json."""

    def __init__(self, doc):
        self.doc = doc

    def to_json(self):
        return self.doc


_history = st.lists(st.builds(
    SimpleNamespace, role=st.sampled_from(["user", "agent_text", "agent_tool", "tool_result"]),
    content=st.text(max_size=12) | st.builds(_JsonItem, _objects)), max_size=3)


def test_request_lines_equal_json_dumps_of_the_request():
    """Every request line is ``json.dumps(request, sort_keys=True)``, whether a
    fixed part (policy, catalog, limits, context) is the object sent before,
    a new object, or the same dict changed in place."""
    cmd = f"{shlex.quote(sys.executable)} -c {shlex.quote(ECHO_PORT)}"
    agent = SubprocessAgentPort(cmd, timeout=30)
    user = SubprocessUserPort(cmd, timeout=30)
    generator = SubprocessGenerationPort(cmd, timeout=30)
    context: dict = {}  # one dict, changed between requests, as synthesis does

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(texts=st.lists(st.text(), min_size=2, max_size=2),
           catalogs=st.lists(st.lists(_objects, max_size=3), min_size=2, max_size=2),
           steps=st.lists(st.tuples(st.integers(0, 1), st.integers(0, 2),
                                    st.sampled_from(["keep", "new", "change"]),
                                    _history, st.integers(-2**40, 2**40), _objects),
                          min_size=1, max_size=4))
    def check(texts, catalogs, steps):
        catalogs = [tuple(_JsonItem(doc) for doc in docs) for docs in catalogs]
        for text_i, catalog_i, limits_move, history, seed, extra in steps:
            text = texts[text_i]
            catalog = (catalogs[catalog_i] if catalog_i < 2   # the same object again
                       else tuple(_JsonItem(t.doc) for t in catalogs[0]))  # a new one
            if limits_move == "new":
                agent.limits = user.limits = {"max_turns": seed, "stop_token": text}
            elif limits_move == "change":
                agent.limits["max_turns"] = seed
            turns = [{"role": t.role,
                      "content": t.content if isinstance(t.content, str) else t.content.doc}
                     for t in history]
            context.update(extra, seed=seed)

            assert agent.next_action(text, catalog, history, seed) == json.dumps({
                "type": "agent_turn", "policy": text, "tools": [t.doc for t in catalog],
                "history": turns, "limits": agent.limits, "seed": seed}, sort_keys=True)
            assert user.next_utterance(text, history, seed) == json.dumps({
                "type": "user_turn", "task": text, "history": turns, "limits": user.limits,
                "seed": seed}, sort_keys=True)
            assert generator.generate(text, context, seed) == json.dumps({
                "type": "generate", "stage": text, "context": context, "seed": seed},
                sort_keys=True)

    try:
        check()
    finally:
        agent.close()
        user.close()
        generator.close()


def test_a_request_with_keys_that_are_not_strings_is_still_json_dumps():
    cmd = f"{shlex.quote(sys.executable)} -c {shlex.quote(ECHO_PORT)}"
    transport = SubprocessTransport(cmd, timeout=30)
    try:
        for doc in ({2: "b", 10: "a"}, {}):
            assert transport.request(doc)["content"] == json.dumps(doc, sort_keys=True)
    finally:
        transport.close()
