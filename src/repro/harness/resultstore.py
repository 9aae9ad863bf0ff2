"""Persistent experiment-result store.

Every table and figure of the paper is derived from the same app x config
grid, so the harness keeps a gem5-style results database: each completed
experiment is written to an on-disk JSON file keyed by a canonical hash of
everything that determines its outcome (resolved app parameters, the fully
resolved system configuration, runtime kwargs, and the code version).  A
warm rerun of any benchmark then performs zero simulations.

Layout (one file per result, sharded by the first two hash digits)::

    <results-dir>/
        ab/abcdef0123....json    {"key": {...}, "result": {...}}
        cd/cdef4567....json      {"key": {...}, "workspan": {...}}

The store knows nothing about :class:`ExperimentResult`; it persists plain
JSON payload dicts.  Serialization lives in ``repro.harness.export`` and
the key construction in ``repro.harness.runner``, keeping this module free
of import cycles.

Keys are canonicalized by ``json.dumps(key, sort_keys=True)`` and hashed
with SHA-256, so dict ordering never matters.  Non-JSON values (e.g.
``CacheParams`` overrides, fault plans) participate as dataclass field
dicts; anything whose fallback ``repr`` embeds an object address (``<...
object at 0x7f...>``) is rejected outright — such a repr differs in every
process, so the "same" experiment would hash to a fresh key per run and
the store would silently never hit.  Bump :data:`STORE_SCHEMA` whenever
simulation semantics change in a way that invalidates archived results.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import re
from pathlib import Path
from typing import Optional

#: Schema/version tag mixed into every key; bump to invalidate old stores.
#: 2: keys gained the "robustness" block (fault plan / sanitizer / watchdog).
#: 3: experiment keys gained "init_signature" (checkpoint warm-start
#:    identity; see repro.harness.params.init_signature) and payloads an
#:    optional "lineage" block recording warm-start/resume provenance.
#:    Lineage is payload-only by design: a warm-started or resumed run is
#:    byte-identical to a cold one, so either must satisfy the other's
#:    probes.
#: 4: experiment keys gained "mode" (exact, or sampled plus the sampling
#:    spec), so a periodic-sampling estimate of cycles/traffic could never
#:    satisfy a probe for an exact run.
#: 5: experiment keys lost "mode": sampled simulation was removed, so
#:    every result is exact.  The bump retires all schema-4 entries on
#:    purpose, so no stored sampled estimate can ever be read back as a
#:    measurement.
STORE_SCHEMA = 5

#: A default-repr containing a memory address: never stable across runs.
_ADDRESS_REPR = re.compile(r" at 0x[0-9a-fA-F]+>")


def _canonical_default(value):
    """json.dumps fallback for non-JSON key components.

    Dataclass instances (fault plans, cache-parameter overrides) reduce to
    their field dict — stable across processes, unlike the default
    ``repr`` of an arbitrary object, which embeds the object's memory
    address and would make every process compute a different key for the
    same experiment (a permanent, silent store miss).
    """
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return dataclasses.asdict(value)
    text = repr(value)
    if _ADDRESS_REPR.search(text):
        raise TypeError(
            f"store key component {type(value).__name__} has an "
            f"address-based repr ({text[:60]}...); it would hash "
            "differently in every process. Convert it to plain data "
            "(or a dataclass) before keying."
        )
    return text


def hash_key(key: dict) -> str:
    """Canonical SHA-256 digest of a JSON-able key dict."""
    text = json.dumps(key, sort_keys=True, default=_canonical_default)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class ResultStore:
    """On-disk JSON store of experiment payloads with hit/miss counters."""

    def __init__(self, root):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0

    # ------------------------------------------------------------------
    # Paths and keys
    # ------------------------------------------------------------------
    def path_for(self, key: dict) -> Path:
        digest = hash_key(key)
        return self.root / digest[:2] / f"{digest}.json"

    def contains(self, key: dict) -> bool:
        """Existence check that does not touch the hit/miss counters."""
        return self.path_for(key).is_file()

    # ------------------------------------------------------------------
    # Load / store
    # ------------------------------------------------------------------
    def load(self, key: dict) -> Optional[dict]:
        """Return the payload stored under ``key``, or None (counted)."""
        path = self.path_for(key)
        try:
            with open(path, "r", encoding="utf-8") as fh:
                payload = json.load(fh)
        except (OSError, ValueError):
            # Missing, unreadable, or truncated (e.g. a crashed writer
            # predating atomic replace): treat as a miss.
            self.misses += 1
            return None
        self.hits += 1
        return payload

    def store(self, key: dict, payload: dict) -> Path:
        """Atomically persist ``payload`` under ``key``; returns the path.

        Writes go to a per-process temporary file followed by an atomic
        rename, so concurrent grid workers racing on the same key can never
        leave a torn file; last writer wins with identical content.
        """
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=1, sort_keys=True)
        os.replace(tmp, path)
        return path

    # ------------------------------------------------------------------
    # Introspection / maintenance
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return sum(1 for _ in self.root.glob("*/*.json"))

    def reset_counters(self) -> None:
        self.hits = 0
        self.misses = 0

    def stats_line(self) -> str:
        return f"result store {self.root}: {self.hits} hits, {self.misses} misses"
