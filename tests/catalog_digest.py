"""The sha256 of a generated catalog: every table's segments and rows, in
registration order, values and column order included.

A catalog is a pure function of its generator, scale and seed, so its digest
pins every value a draw produced.  Run as a script (standard library and
``src`` only, so any supported CPython can run it), it takes a JSON object
of ``"generator/scale/seed": sha256`` pins as its one argument, prints each
mismatch and ``N catalogs hold`` when none differ, and exits 1 on a
mismatch::

    PYTHONPATH=src python tests/catalog_digest.py '{"tpch/tiny/1": "…"}'
"""

from __future__ import annotations

import hashlib
import json
import sys
from typing import Dict

from repro.engine.catalog import Catalog
from repro.workloads import mrbench, nref, ssb, tpch

#: Each generator module by the name a pin uses.
GENERATORS = {"tpch": tpch, "ssb": ssb, "nref": nref, "mrbench": mrbench}


def catalog_sha256(generator: str, scale: str, seed: int) -> str:
    """The digest of ``GENERATORS[generator].build_catalog(scale, seed)``."""
    module = GENERATORS[generator]
    catalog = module.build_catalog(scale, seed, catalog=Catalog())
    tables = [
        (table, [segment.rows for segment in catalog.relation(table).segments])
        for table in module.SCALES[scale].tables
    ]
    return hashlib.sha256(repr(tables).encode()).hexdigest()


def mismatches(pins: Dict[str, str]) -> Dict[str, str]:
    """Each pinned key whose catalog hashes to another digest, with that digest."""
    found = {}
    for key, expected in pins.items():
        generator, scale, seed = key.split("/")
        digest = catalog_sha256(generator, scale, int(seed))
        if digest != expected:
            found[key] = digest
    return found


if __name__ == "__main__":
    pins = json.loads(sys.argv[1])
    wrong = mismatches(pins)
    for key, digest in wrong.items():
        print(f"{key}: {digest}, pinned {pins[key]}")
    if wrong:
        sys.exit(1)
    print(f"{len(pins)} catalogs hold")
