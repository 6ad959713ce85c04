"""Port transport and the scripted port server: request bytes, re-arming, routing,
error replies, the reply size cap, the timeout default and the cost of starting a
port."""

from __future__ import annotations

import json
import os
import shlex
import subprocess
import sys
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
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
    _request_type,
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


# --- the scripted server's routing rule ---------------------------------------------------

ROUTED = ("agent_turn", "user_turn", "episode_start")
# string text that spells out, or nearly, the end of a routed line
_tricky = st.sampled_from(['"type": "agent_turn"}', ' "type": "user_turn"}', 'x"type', ' "type',
                           '\\" "type": "agent_turn"}', '\\\\", "type": "episode_start"}',
                           "\\", '"', '\\"', '"}', ", "])
_text = _tricky | st.text(max_size=6)
_key = st.sampled_from(["type", "type", "types", "typ", "u", "tools", "a"]) | _text
_value = st.recursive(
    st.sampled_from([*ROUTED, "generate", "agent_turns"]) | _text | _json,
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(_key, inner, max_size=3)
                   | st.builds(lambda doc, rtype: {**doc, "type": rtype},  # last member type
                               st.dictionaries(_key, inner, max_size=2), st.sampled_from(ROUTED))),
    max_leaves=6,
)
_members = st.lists(st.tuples(_key, st.sampled_from(ROUTED) | _value), max_size=5)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(members=_members, tail=st.sampled_from([None, *ROUTED]),
       layout=st.sampled_from(["sorted", "as drawn"]), compact=st.booleans(),
       ascii_only=st.booleans())
@example([("tools", [1]), ("history", [])], "agent_turn", "sorted", False, True)  # a request
@example([("u", 1)], "episode_start", "sorted", False, True)  # a key after type
@example([("type", "user_turn"), ("seed", 1)], "agent_turn", "as drawn", False, True)
@example([("a", 1), ("z", {"b": 2, "type": "agent_turn"})], None, "as drawn", False, True)
@example([("a", 1), ("z", 'x\\" "type": "agent_turn"}')], None, "as drawn", False, False)
@example([("a", 1), ('x"type', "agent_turn")], None, "as drawn", False, True)
@example([("a", 1)], "user_turn", "as drawn", True, True)  # compact
def test_request_type_is_the_type_json_loads_keeps(members, tail, layout, compact, ascii_only):
    """Whenever ``_request_type`` routes a line without decoding it, its answer
    is ``json.loads(line).get("type")``, for lines written by ``json.dumps(...,
    sort_keys=True)`` as the transport writes them and for members in any
    order, duplicate ``type`` keys and compact separators; and it routes every
    line whose last member is a routed ``"type"`` after a ``", "``."""
    if tail is not None:  # a last type member, maybe after another
        members = [*members, ("type", tail)]
    if layout == "sorted":
        members = sorted(dict(members).items())
    item_sep, key_sep = (",", ":") if compact else (", ", ": ")
    dump = {"ensure_ascii": ascii_only, "separators": (item_sep, key_sep)}
    line = "{" + item_sep.join(
        json.dumps(key, **dump) + key_sep + json.dumps(value, sort_keys=True, **dump)
        for key, value in members) + "}"
    if layout == "sorted":
        assert line == json.dumps(dict(members), sort_keys=True, **dump)
    routed = _request_type(line.encode())
    if routed is not None:
        assert routed == json.loads(line).get("type")
    last_key, last_value = members[-1] if members else (None, None)
    assert routed == (last_value if not compact and len(members) > 1 and last_key == "type"
                      and last_value in ROUTED else None)


def _serve(tmp_path, lines: list[bytes], **env) -> list[dict]:
    """The replies of ``python -m policygym.ports --role agent`` to ``lines``,
    serving a two-step script under the extra environment ``env``."""
    script = tmp_path / "agent.json"
    script.write_text(json.dumps(["first", "second"]), "utf-8")
    served = subprocess.run(
        [sys.executable, "-m", "policygym.ports", "--role", "agent", "--script", str(script)],
        input=b"".join(line + b"\n" for line in lines), env={**os.environ, **env},
        check=True, capture_output=True, timeout=60)
    return [json.loads(line) for line in served.stdout.splitlines()]


def test_served_port_routes_a_request_by_its_last_member(tmp_path):
    """A line that ends with its ``"type"`` member is answered without being
    decoded, so even one that is no JSON before that member is; an
    ``episode_start`` re-arms the script; a compact line takes the decode
    path. The port never reads ``POLICYGYM_PORT_TIMEOUT``."""
    tools = tuple({"name": f"tool_{i}", "parameters": {"type": "object"}} for i in range(3))
    lines = [
        json.dumps({"type": "agent_turn", "tools": tools, "history": [], "seed": 1},
                   sort_keys=True).encode(),
        b'not JSON up to here, "type": "agent_turn"}',
        json.dumps({"type": "episode_start", "episode": 1, "seed": 2}, sort_keys=True).encode(),
        b'{"type":"agent_turn"}',
    ]
    assert [_request_type(line) for line in lines] == [
        "agent_turn", "agent_turn", "episode_start", None]
    assert _serve(tmp_path, lines, POLICYGYM_PORT_TIMEOUT="abc") == [
        {"type": "agent_turn", "content": {"text": "first"}},
        {"type": "agent_turn", "content": {"text": "second"}},
        {"type": "episode_start"},
        {"type": "agent_turn", "content": {"text": "first"}},
    ]


def test_served_port_answers_a_line_it_cannot_read_and_goes_on(tmp_path):
    replies = _serve(tmp_path, [b"not json", b"[1]", b'{"seed": "\xff"}',
                                b'{"type": "generate", "stage": [1]}', b'{"type": 5}',
                                b'{"type": "agent_turn"}'])
    assert [reply["type"] for reply in replies] == ["error"] * 5 + ["agent_turn"]
    assert [reply["message"].split(":")[0] for reply in replies[:5]] == [
        "request is not JSON", "request must be a JSON object", "request is not JSON",
        "no canned output for stage", "unknown request type 5"]
    assert replies[-1]["content"] == {"text": "first"}


@pytest.mark.parametrize("cmd", ["", "   ", "python 'x", "python x\\"],
                         ids=["empty", "blank", "unclosed-quote", "trailing-escape"])
def test_a_command_that_cannot_be_split_is_a_port_failure(cmd):
    with pytest.raises(PortFailure, match="^cannot spawn port command"):
        SubprocessTransport(cmd, timeout=5)


def test_the_default_port_timeout_is_read_where_a_transport_takes_it(monkeypatch):
    cmd = f"{shlex.quote(sys.executable)} -c {shlex.quote(ECHO_PORT)}"

    def timeout_of(**kwargs) -> float:
        transport = SubprocessTransport(cmd, **kwargs)
        transport.close()
        return transport.timeout

    for value in ("abc", "0", "-2", "nan"):
        monkeypatch.setenv("POLICYGYM_PORT_TIMEOUT", value)
        with pytest.raises(ValueError, match="POLICYGYM_PORT_TIMEOUT must be a number > 0"):
            SubprocessTransport(cmd)
        assert timeout_of(timeout=3) == 3  # a given timeout never reads the variable
    monkeypatch.setenv("POLICYGYM_PORT_TIMEOUT", "7.5")
    assert timeout_of() == 7.5
    monkeypatch.delenv("POLICYGYM_PORT_TIMEOUT")
    assert timeout_of() == 120
