"""Port transport and the scripted port server: re-arming, reply size cap and
the cost of starting a port."""

from __future__ import annotations

import json
import shlex
import subprocess
import sys

import pytest

import policygym
from policygym.errors import PortFailure
from policygym.ports import MAX_REPLY_BYTES, SubprocessTransport


def test_importing_ports_loads_no_runtime():
    """A port server starts without sqlite3 or the executor: the package's
    public names resolve lazily."""
    code = ("import json, policygym.ports, sys; "
            "assert 'sqlite3' not in sys.modules; "
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
