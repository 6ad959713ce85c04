"""Host-speed references: fixed work timed next to every unit.

On a small shared host the same work can take 25 % longer for seconds to minutes
at a time (measured on a shared 2-vCPU virtual machine: one fixed loop alternated
between ~45 and ~65 ms). Such drift swamps any change worth measuring, so
gated times are normalized: a unit's wall time is multiplied by the probe's
nominal time over the mean probe time measured just before and just after
the unit. A normalized figure reads as wall time on a host where the probe
takes its nominal time; the raw figures are still printed beside it.

Three probes, one per kind of work:

- KERNEL, a pure-Python kernel that does what the program's hot paths do in
  process (build tuples, encode and sort byte keys, count rows, hash), for
  workloads that run in this process.
- KERNEL_COMMIT, the kernel plus one durable SQLite commit to a new file in
  the temp dir, for synth_roundtrip and for the setups that write fixture
  files, which write and commit many small database files: a fifth of a
  synthesis round and a third or more of a setup go to waiting for flushes
  to disk (measured as the time ``PRAGMA synchronous = OFF`` saves), and
  the commit is about a fifth of this probe, so the probe slows with the
  disk as they do. The kernel alone follows only the CPU. Over six 20-s
  synthesis runs on a host whose raw round time spread 16 % IQR/median,
  the kernel-normalized median spread 10 % and this one 5 %.
- SPAWN, a fresh interpreter that imports a few standard modules and exits,
  for cli_rollout, whose time goes to starting child interpreters. Over 8
  seeds on the host above, while the raw rollout time drifted from 1.55 to
  2.45 s (16 % IQR/median), the SPAWN-normalized time spread 6 %; the
  in-process KERNEL did not follow it.

No probe calls policygym, so no change to the program can move them.
"""

from __future__ import annotations

import hashlib
import os
import sqlite3
import subprocess
import sys
import tempfile
import time
from collections import Counter


def _kernel() -> bytes:
    rows = [(i, f"r{i % 97}", i * 7919 % 1013) for i in range(1500)]
    keys = sorted(repr(row).encode() for row in rows)
    counts = Counter(row[1:] for row in rows)
    digest = hashlib.sha256(b"".join(keys))
    digest.update(repr(sorted(counts.items())).encode())
    return digest.digest()


def kernel_ms() -> float:
    start = time.perf_counter()
    _kernel()
    return (time.perf_counter() - start) * 1e3


def kernel_commit_ms() -> float:
    """The kernel, then a table of 50 rows committed to a new database file
    with SQLite's default durability (journal and database flushed)."""
    fd, path = tempfile.mkstemp(suffix=".db", prefix="perfbench-probe-")
    os.close(fd)
    try:
        start = time.perf_counter()
        _kernel()
        conn = sqlite3.connect(path)
        try:
            conn.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)")
            conn.executemany("INSERT INTO t (v) VALUES (?)", [(str(i),) for i in range(50)])
            conn.commit()
        finally:
            conn.close()
        return (time.perf_counter() - start) * 1e3
    finally:
        os.unlink(path)


def spawn_ms() -> float:
    """Mean wall time of four fresh interpreters (no site packages)."""
    total = 0.0
    for _ in range(4):
        start = time.perf_counter()
        # a stdout pipe: without one, subprocess.run(timeout=...) polls for
        # the exit at up to 50 ms intervals
        subprocess.run([sys.executable, "-S", "-c", "import json, sqlite3, subprocess"],
                       check=True, stdout=subprocess.PIPE, timeout=60)
        total += time.perf_counter() - start
    return total / 4 * 1e3


class Probe:
    def __init__(self, name: str, nominal_ms: float, run):
        self.name = name
        self.nominal_ms = nominal_ms
        self.run = run

    def factor(self, before_ms: float, after_ms: float) -> float:
        """Multiplier taking a wall time measured between two probe runs to
        nominal host speed."""
        return self.nominal_ms / ((before_ms + after_ms) / 2)


KERNEL = Probe("reference kernel", 5.0, kernel_ms)
KERNEL_COMMIT = Probe("reference kernel + durable commit", 6.0, kernel_commit_ms)
SPAWN = Probe("reference child interpreter", 40.0, spawn_ms)
