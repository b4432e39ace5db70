"""Self-test of the benchmark at toy sizes (about four minutes on 2 CPUs).

Run from the root of a checkout::

    python3 perfbench/selftest.py

Runs every workload untraced and traced at the ``toy`` scale, then
asserts that:

* every metric ``BENCHMARK.json`` names is emitted, with its unit;
* on ``fig7-cold`` the layers' self times plus ``trace.unattributed_s``
  sum to the traced wall, and the unattributed part stays small;
* worker spans appear in the trace of ``fig7-cold-par2``, and its
  outputs are checked against ``fig7-cold``'s;
* the digest check fires, and the command exits 1, when one cell's
  stats payload is altered before it is pinned;
* a fig7 run that fails its checks exits 1 and records nothing for
  the other backend to be checked against;
* without ``src/repro`` the command exits nonzero and prints no result.

Exits 0 when every assertion holds.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import child  # noqa: E402
import pin  # noqa: E402
import run  # noqa: E402
import suite  # noqa: E402

ROOT = os.getcwd()

#: Largest share of the traced wall of ``fig7-cold`` that may lie outside
#: every wrapped layer.
MAX_UNATTRIBUTED = 0.05

#: An unpinned seed the self-test plants a wrong ledger record for.
LEDGER_SEED = 424242


def bench(*args, cwd=ROOT, bench_dir=HERE):
    proc = subprocess.run(
        [sys.executable, os.path.join(bench_dir, "run.py"),
         "--scale", "toy",
         "--seconds", "1", *args],
        cwd=cwd, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1]) if lines else None
    record = json.loads(lines[-2])["record"] if len(lines) > 1 else None
    return proc.returncode, result, record, proc.stderr


def check_metrics(result, published, label):
    assert result is not None, f"{label}: no result line"
    emitted = result["metrics"]
    for entry in published:
        name = entry["name"]
        assert name in emitted, f"{label}: {name} missing"
        assert emitted[name]["unit"] == entry["unit"], \
            f"{label}: {name} unit {emitted[name]['unit']}"
        assert isinstance(emitted[name]["value"], (int, float)), name
    assert set(emitted) == {e["name"] for e in published}, \
        f"{label}: unexpected metrics {set(emitted)}"


def copy_bench(destination):
    shutil.copytree(HERE, destination,
                    ignore=shutil.ignore_patterns("__pycache__"))
    return destination


def altered_digests(work):
    """Copies of the benchmark whose pinned toy digests are right, and
    wrong in one cell's stats payload."""
    outputs, cache_dir = pin.reference(ROOT, work, "explore-frontend", 0,
                                       "toy")
    bucket = next(d for d in sorted(os.listdir(cache_dir)) if len(d) == 2)
    entry = os.path.join(cache_dir, bucket, os.listdir(
        os.path.join(cache_dir, bucket))[0])
    with open(entry, encoding="utf-8") as handle:
        payload = json.load(handle)
    original = child.cell_digest(payload["scheme"], payload["stats"])
    payload["stats"]["cycles"] += 1.0
    altered = child.cell_digest(payload["scheme"], payload["stats"])
    assert original != altered and original in outputs["cells"]
    cells = list(outputs["cells"])
    cells[cells.index(original)] = altered
    good = {"toy": {"0": {"explore-frontend": outputs}}}
    bad = {"toy": {"0": {"explore-frontend": dict(outputs,
                                                  cells=sorted(cells))}}}
    copies = []
    for name, content in (("good", good), ("bad", bad)):
        copy = copy_bench(os.path.join(work, f"{name}-perfbench"))
        with open(os.path.join(copy, "digests.json"), "w",
                  encoding="utf-8") as handle:
            json.dump(content, handle)
        copies.append(copy)
    return copies


def check_failed_pass_not_recorded():
    """A fig7 run whose outputs fail a check leaves no ledger record."""
    src_digest = run.machine_context(ROOT)["src_digest"]
    path = run.ledger_path(ROOT, "toy", LEDGER_SEED, src_digest)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"fig7-cold-par2": {"cells": ["0" * 64],
                                      "stdout_sha": "0" * 64}}, handle)
    try:
        code, result, record, _ = bench("--workload", "fig7-cold",
                                        "--seed", str(LEDGER_SEED))
        assert code == 1 and not result["correct"], (code, result)
        assert record["cross_backend_checked"], record
        with open(path, encoding="utf-8") as handle:
            assert "fig7-cold" not in json.load(handle)
    finally:
        os.remove(path)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    assert [w["name"] for w in spec["workloads"]] == list(suite.WORKLOADS)

    for workload in suite.WORKLOADS:
        code, result, record, err = bench("--workload", workload,
                                          "--trace", "0")
        assert code == 0 and result["correct"], f"{workload}: {err}"
        assert result["attempted"] >= 1 and result["failed"] == 0
        assert record["failed_frac"] == 0.0
        check_metrics(result, spec["end_to_end"], workload)
        for key in ("nproc", "python", "numpy", "numba", "git_sha",
                    "git_dirty", "load1_start", "load1_end", "high_load"):
            assert key in record["context"], key
        if workload == "fig7-cold-par2":
            assert record["cross_backend_checked"], record
        print(f"ok  {workload} untraced", file=sys.stderr)

        code, result, record, err = bench("--workload", workload,
                                          "--trace", "1")
        assert code == 0 and result["correct"], f"{workload}: {err}"
        check_metrics(result, spec["per_layer"], workload + " traced")
        values = {k: v["value"] for k, v in result["metrics"].items()}
        if workload == "fig7-cold":
            layered = sum(v for k, v in values.items()
                          if k.startswith("layer."))
            total = layered + values["trace.unattributed_s"]
            assert abs(total - values["trace.wall_s"]) < 1e-6, \
                (total, values["trace.wall_s"])
            assert values["trace.unattributed_s"] \
                < MAX_UNATTRIBUTED * values["trace.wall_s"], values
        if workload == "fig7-cold-par2":
            assert record["traced_pass"]["span_pids"] >= 2, record
            assert values["exec.worker_busy_s"] > 0
        if workload == "frontier-warm":
            assert values["engine.demand.calls"] == 0
            assert values["diskcache.hit_ratio"] == 1.0
        print(f"ok  {workload} traced", file=sys.stderr)

    scratch = os.path.join(ROOT, ".perfbench")
    os.makedirs(scratch, exist_ok=True)
    work = tempfile.mkdtemp(prefix="selftest-", dir=scratch)
    try:
        good, bad = altered_digests(work)
        code, result, _, err = bench("--workload", "explore-frontend",
                                     bench_dir=good)
        assert code == 0 and result["correct"], err
        code, result, record, _ = bench("--workload", "explore-frontend",
                                        bench_dir=bad)
        assert code == 1 and not result["correct"], (code, result)
        assert result["failed"] >= 1 and record["problems"], record
        print("ok  digest check fires on an altered stats payload",
              file=sys.stderr)

        check_failed_pass_not_recorded()
        print("ok  a failed fig7 pass is not recorded in the ledger",
              file=sys.stderr)

        bare = os.path.join(work, "bare")
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        copy = copy_bench(os.path.join(bare, "perfbench"))
        code, result, _, _ = bench("--workload", "fig7-cold", cwd=bare,
                                   bench_dir=copy)
        assert code != 0 and result is None, code
        print("ok  no result without src/repro", file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("selftest passed", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
