"""Pin the stats digests every benchmark run is checked against.

Run from the root of a checkout::

    python3 perfbench/pin.py

For seed 0 and the held-out seed 7919 at ``full`` scale, this runs one
pass of each workload (the fill, for ``frontier-warm``) and records the
sorted per-cell stats digests and the stdout digest in
``perfbench/digests.json``.  The fig7 pair must agree before anything is
written.  Re-pin only when the simulator's output is meant to change.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile
from typing import Any, Dict, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import suite  # noqa: E402

#: Seed 0 (the calibrated profiles) and one held-out seed.
PINNED_SEEDS = (0, 7919)
SCALE = "full"


def reference(root: str, work: str, workload: str, seed: int,
              scale: str) -> Tuple[Dict[str, Any], str]:
    """One pass's outputs and the disk-cache directory it filled."""
    work = os.path.join(work, f"{workload}-{seed}")
    os.makedirs(work)
    runner = run.Runner(root, work, workload, seed, scale,
                        seconds=0.0)
    cache_dir = os.path.join(work, "cache")
    mode = "fill" if suite.WORKLOADS[workload].cache == "filled" else "pass"
    result = runner.child(mode, cache_dir)
    if result["rc"] != 0 or result["counts"].get("quarantined"):
        raise RuntimeError(f"{workload} seed {seed} failed: "
                           f"{result.get('error')}")
    return run.outputs_of(result), cache_dir


def main() -> int:
    root = os.getcwd()
    pinned: Dict[str, Any] = {}
    if os.path.exists(run.DIGESTS_PATH):
        with open(run.DIGESTS_PATH, encoding="utf-8") as handle:
            pinned = json.load(handle)
    scratch = os.path.join(root, ".perfbench")
    os.makedirs(scratch, exist_ok=True)
    work = tempfile.mkdtemp(prefix="pin-", dir=scratch)
    try:
        for seed in PINNED_SEEDS:
            entry = {}
            for workload in suite.WORKLOADS:
                entry[workload], _ = reference(root, work, workload, seed,
                                               SCALE)
                print(f"pinned {workload} seed {seed}: "
                      f"{len(entry[workload]['cells'])} cells",
                      file=sys.stderr)
            if entry["fig7-cold"] != entry["fig7-cold-par2"]:
                raise RuntimeError(f"seed {seed}: serial and process "
                                   "backends disagree")
            scale = pinned.setdefault(SCALE, {})
            if scale.get("sizes") != suite.SCALES[SCALE]:
                scale.clear()
            scale["sizes"] = suite.SCALES[SCALE]
            scale[str(seed)] = entry
    finally:
        shutil.rmtree(work, ignore_errors=True)
    with open(run.DIGESTS_PATH, "w", encoding="utf-8") as handle:
        json.dump(pinned, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
