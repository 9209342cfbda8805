"""Same seed, same bytes: three short traces pinned by digest.

A refactor that claims "trace bytes identical" has to keep these three
``python -m repro`` commands writing exactly these files — one per
harness (core sim with the flow plane, the audited nemesis, the scale
sweep).  Each runs in its own interpreter, as a user would run it, under
a different ``PYTHONHASHSEED``: nothing in a trace may depend on set or
dict-of-str iteration order.  If a change is *meant* to alter the trace,
recompute the digests at the parent commit first, to be sure they were
still these.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

#: name -> (argv after ``python -m repro``, trace file relative to the run
#: directory, PYTHONHASHSEED, sha256 of the trace).
GOLDEN = {
    "run": (
        ["run", "--system", "samya-majority", "--duration", "30", "--seed", "3",
         "--flow", "--trace", "run/trace.jsonl"],
        "run/trace.jsonl",
        "0",
        "0dd5b13d600392d601de7532726e8ee93c50a93f8e4f2947caadfd08128450c9",
    ),
    "nemesis": (
        ["nemesis", "--seed", "7", "--systems", "samya-majority", "--audit",
         "--trace-dir", "nemesis"],
        "nemesis/nemesis-samya-majority-seed7.jsonl",
        "5",
        "8cc6ffaee6abef497eb8834a0f706f2daa50329d4817345cb83533b86ca97116",
    ),
    "sweep-scale": (
        ["sweep-scale", "--entities", "1000", "--duration", "5", "--seed", "3",
         "--trace", "scale/trace.jsonl"],
        "scale/trace.jsonl",
        "2",
        "3730b449c37e5b381ca27e13f85fe328409c89bd62de3d14adcc878da21609b8",
    ),
}


@pytest.fixture(scope="module")
def digests(tmp_path_factory) -> dict[str, str]:
    """Run the three commands side by side; digest what each wrote."""
    cwd = tmp_path_factory.mktemp("golden")
    src = str(Path(repro.__file__).parent.parent)
    runs = {
        name: subprocess.Popen(
            [sys.executable, "-m", "repro", *argv],
            cwd=cwd,
            env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": hashseed},
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
        )
        for name, (argv, _, hashseed, _) in GOLDEN.items()
    }
    found = {}
    for name, process in runs.items():
        _, stderr = process.communicate(timeout=300)
        assert process.returncode == 0, (name, stderr.decode()[-2000:])
        found[name] = hashlib.sha256((cwd / GOLDEN[name][1]).read_bytes()).hexdigest()
    return found


@pytest.mark.parametrize("name", GOLDEN)
def test_trace_bytes_are_the_pinned_ones(digests, name):
    assert digests[name] == GOLDEN[name][3]
