"""Examples stay compilable, and the two quick ones run end to end.

The remaining examples take minutes and are exercised manually.
"""

import os
import pathlib
import py_compile
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))

#: Examples fast enough to run in tier-1 (about a second each); both
#: assert their own simulated results.
RUNNABLE = ("quickstart.py", "custom_application.py")


def test_examples_exist():
    names = {p.name for p in EXAMPLES}
    assert {"quickstart.py", "graph_analytics.py", "coherence_comparison.py",
            "granularity_tuning.py", "custom_application.py"} <= names


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.name)
def test_example_compiles(path):
    py_compile.compile(str(path), doraise=True)


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.name)
def test_example_has_main_guard_and_docstring(path):
    source = path.read_text()
    assert '__main__' in source
    assert source.lstrip().startswith(('#!/usr/bin/env python\n"""', '"""'))


@pytest.mark.parametrize("name", RUNNABLE)
def test_example_runs(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "examples" / name)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
