"""Golden-file guard: simulated results must not drift silently.

``tests/golden/table3_tiny.json`` pins, for the three apps of the
``table3-quick`` benchmark workload on every configuration (the parallel
runtime on all of ``CONFIG_KINDS``, plus the ``serial-io`` serial
elision), at ``tiny`` scale:

* the cycle count,
* a sha256 over the application's memory regions, and
* a sha256 over the flattened statistics tree.

The test only compares; it never writes the file.  A deliberate change in
simulated results is recorded by regenerating the file with::

    PYTHONPATH=src python tests/test_golden.py --regenerate

and committing the diff for review.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import sys

import pytest

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden" / "table3_tiny.json"

#: The apps of the ``table3-quick`` benchmark workload.
APPS = ("cilk5-lu", "cilk5-nq", "ligra-radii")
SCALE = "tiny"


def golden_points():
    """(label, app, kind, serial) for every pinned run, in file order."""
    from repro.config.system import CONFIG_KINDS

    points = []
    for app in APPS:
        points.append((f"{app} serial-io serial", app, "serial-io", True))
        points.extend((f"{app} {kind}", app, kind, False) for kind in CONFIG_KINDS)
    return points


def fingerprint(app_name: str, kind: str, serial: bool) -> dict:
    """Simulate one point and reduce it to its golden record."""
    from repro.apps import make_app
    from repro.config import make_config
    from repro.core import WorkStealingRuntime
    from repro.harness.params import app_params
    from repro.machine import Machine
    from repro.mem.address import WORD_BYTES

    app = make_app(app_name, **app_params(app_name, SCALE))
    machine = Machine(make_config(kind, SCALE))
    app.setup(machine)
    runtime = WorkStealingRuntime(machine, serial_elision=serial)
    cycles = runtime.run(app.make_root(serial=False))
    app.check()
    # Words may be floats (cilk5-lu), so memory is hashed through JSON
    # rather than Machine.memory_digest's fixed-width integer encoding.
    memory = [
        (region.name, machine.host_read_array(region.base, region.size // WORD_BYTES))
        for region in machine.address_space.regions()
    ]
    return {
        "cycles": cycles,
        "memory": _sha256(memory),
        "stats": _sha256(machine.stats.flatten()),
    }


def _sha256(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def _load_golden() -> dict:
    with open(GOLDEN) as fh:
        return json.load(fh)


def test_golden_file_covers_every_point():
    assert list(_load_golden()) == [label for label, *_ in golden_points()]


@pytest.mark.parametrize(
    "label,app_name,kind,serial", golden_points(), ids=[p[0] for p in golden_points()]
)
def test_results_match_golden_file(label, app_name, kind, serial):
    assert fingerprint(app_name, kind, serial) == _load_golden()[label], (
        f"{label}: simulated results drifted from {GOLDEN.name}; if the change "
        "is deliberate, regenerate with "
        "`PYTHONPATH=src python tests/test_golden.py --regenerate`"
    )


def regenerate() -> None:
    records = {label: fingerprint(*rest) for label, *rest in golden_points()}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(records, indent=1) + "\n")
    print(f"wrote {len(records)} records to {GOLDEN}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        sys.exit(f"usage: PYTHONPATH=src python {sys.argv[0]} --regenerate")
    regenerate()
