"""Benchmark runner: time one workload through the ``repro`` CLI.

Run from the root of a checkout::

    python3 perfbench/run.py --workload fig7-cold --seed 0 --seconds 30 \\
        --trace 0

Every pass runs in a fresh interpreter (``child.py``).  This script
repeats passes until ``--seconds`` would be exceeded (at least one;
``frontier-warm``'s fill precedes the window), checks every pass's
outputs, and prints as its last stdout line one JSON object:
``correct``, ``attempted`` and ``failed`` (cells) and ``metrics``, the
end-to-end metrics with ``--trace 0`` or the per-layer metrics of one
extra traced pass with ``--trace 1``.  The line before it
is the run record (machine context, every sample, failure fraction).

Exit status: 0 when every output checks out, 1 on a mismatch or a
failed pass, 2 when the checkout holds no ``src/repro`` to measure.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import importlib.util
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from typing import Any, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import layers  # noqa: E402
import spans  # noqa: E402
import suite  # noqa: E402

#: (name, unit) of the end-to-end metrics, in report order.
END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("setup_s", "s"),
              ("peak_rss_mb", "MiB"))

#: Set-up samples a run takes at least (extra set-up-only children when
#: the passes alone give fewer).
MIN_SETUPS = 3

#: Seconds beyond ``--seconds`` after which a run abandons its children
#: (killing their whole process group, pool workers included) and exits
#: without a result.  The slack covers ``frontier-warm``'s fill, the pass
#: that overruns the window, the traced pass and the output checks.
DEADLINE_SLACK = 140

DIGESTS_PATH = os.path.join(HERE, "digests.json")


class PassFailed(RuntimeError):
    """A child interpreter did not produce a result."""


def machine_context(root: str) -> Dict[str, Any]:
    """Where and on what the run executed (recorded, never compared)."""
    context: Dict[str, Any] = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numba": importlib.util.find_spec("numba") is not None,
        "load1_start": os.getloadavg()[0],
    }
    try:
        context["numpy"] = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        context["numpy"] = None
    context["git_sha"] = None
    context["git_dirty"] = None
    if os.path.isdir(os.path.join(root, ".git")):
        def git(*args):
            return subprocess.run(
                ["git", "-C", root, *args], capture_output=True,
                text=True, timeout=30, check=True).stdout.strip()
        try:
            context["git_sha"] = git("rev-parse", "HEAD")
            context["git_dirty"] = bool(git("status", "--porcelain",
                                            "--untracked-files=no"))
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    src = os.path.join(root, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    context["src_digest"] = digest.hexdigest()[:16]
    context["high_load"] = context["load1_start"] > (context["nproc"] or 1)
    return context


class Runner:
    """Launches child interpreters for one workload run."""

    def __init__(self, root: str, work: str, workload: str, seed: int,
                 scale: str, seconds: float) -> None:
        self.root = root
        self.work = work
        self.workload = workload
        self.seed = seed
        self.scale = scale
        self.count = 0
        self.deadline = time.monotonic() + seconds + DEADLINE_SLACK
        self.env = {name: value for name, value in os.environ.items()
                    if not name.startswith("REPRO_")}
        pythonpath = os.path.join(root, "src")
        self.env["PYTHONPATH"] = pythonpath

    def child(self, mode: str, cache_dir: str,
              trace: bool = False) -> Dict[str, Any]:
        self.count += 1
        tag = f"{mode}{self.count}"
        config = {
            "mode": mode,
            "workload": self.workload,
            "seed": self.seed,
            "scale": self.scale,
            "trace": trace,
            "cache_dir": cache_dir,
            "run_id": f"{self.workload}-{self.seed}-{tag}",
            "span_dir": os.path.join(self.work, f"spans-{tag}"),
            "stdout": os.path.join(self.work, f"{tag}.stdout"),
            "stderr": os.path.join(self.work, f"{tag}.stderr"),
            "result": os.path.join(self.work, f"{tag}.result.json"),
        }
        os.makedirs(config["span_dir"])
        config_path = os.path.join(self.work, f"{tag}.config.json")
        with open(config_path, "w", encoding="utf-8") as handle:
            json.dump(config, handle)
        env = dict(self.env, REPRO_CACHE_DIR=cache_dir)
        launched = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "child.py"), config_path,
             repr(launched)],
            cwd=self.root, env=env, stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            start_new_session=True)
        try:
            output, _ = proc.communicate(
                timeout=max(1.0, self.deadline - launched))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise PassFailed(f"{mode} child overran the run deadline")
        if proc.returncode != 0 or not os.path.exists(config["result"]):
            raise PassFailed(
                f"{mode} child exited {proc.returncode}: "
                f"{output.decode(errors='replace')[-2000:]}")
        with open(config["result"], encoding="utf-8") as handle:
            result = json.load(handle)
        result["span_dir"] = config["span_dir"]
        result["total_s"] = time.monotonic() - launched
        return result


def load_pinned(path: str, scale: str, seed: int,
                workload: str) -> Optional[Dict]:
    """The pinned outputs of *workload* at *seed*, if any.

    A pin made at other sizes than the current ones cannot be compared
    against; that is a configuration error, not a mismatch.
    """
    if not os.path.exists(path):
        return None
    with open(path, encoding="utf-8") as handle:
        pinned = json.load(handle).get(scale, {})
    if pinned.get("sizes", suite.SCALES[scale]) != suite.SCALES[scale]:
        raise PassFailed(f"{path}: {scale} digests were pinned at other "
                         "sizes; re-pin with perfbench/pin.py")
    return pinned.get(str(seed), {}).get(workload)


def mismatched_cells(reference: List[str], got: List[str]) -> int:
    """Cells whose stats digest has no partner in *reference*."""
    ref, seen = Counter(reference), Counter(got)
    return max(sum((ref - seen).values()), sum((seen - ref).values()))


class Checker:
    """Output checks; accumulates attempted and failed cells."""

    def __init__(self, workload: str, reference: Optional[Dict]) -> None:
        self.workload = workload
        self.reference = reference
        self.source = "pinned" if reference else None
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def adopt(self, outputs: Dict[str, Any], source: str) -> None:
        """Make *outputs* the reference when nothing is pinned."""
        if self.reference is None:
            self.reference = outputs
            self.source = source

    def check(self, result: Dict[str, Any], label: str,
              warm: bool = True) -> None:
        counts = result.get("counts", {})
        cells = counts.get("cells") or len(result.get("cells", [])) or 1
        self.attempted += cells
        if result.get("rc") != 0:
            self.failed += cells
            self.problems.append(f"{label}: exit {result.get('rc')} "
                                 f"{(result.get('error') or '')[-300:]}")
            return
        failed = counts.get("quarantined", 0)
        if failed:
            self.problems.append(f"{label}: {failed} quarantined")
        if warm and self.workload == "frontier-warm" \
                and counts.get("simulated"):
            failed += counts["simulated"]
            self.problems.append(
                f"{label}: {counts['simulated']} simulated on a warm cache")
        if self.reference is not None:
            wrong = mismatched_cells(self.reference["cells"], result["cells"])
            if not wrong and self.reference["stdout_sha"] \
                    != result["stdout_sha"]:
                wrong = 1
            if wrong:
                self.problems.append(
                    f"{label}: {wrong} cell(s) differ from the "
                    f"{self.source} reference")
            failed += wrong
        self.failed += min(failed, cells)


def outputs_of(result: Dict[str, Any]) -> Dict[str, Any]:
    return {"cells": result["cells"], "stdout_sha": result["stdout_sha"]}


def ledger_path(root: str, scale: str, seed: int, src_digest: str) -> str:
    """Where the fig7 pair records its outputs for one seed.

    The key holds the sizes and the digest of ``src/``, so outputs of
    other code or other sizes are never compared against.
    """
    sizes = hashlib.sha256(json.dumps(suite.SCALES[scale],
                                      sort_keys=True).encode()).hexdigest()
    return os.path.join(root, ".perfbench", "ledger",
                        f"fig7-{scale}-{sizes[:12]}-{src_digest}-{seed}.json")


def cross_backend_check(path: str, workload: str, result: Dict[str, Any],
                        checker: Checker) -> bool:
    """Cross-backend check for seeds without pinned digests.

    The fig7 pair runs the same cells serially and on two workers, so
    their outputs must agree bit for bit.  *result* is checked against
    the other backend's record in the ledger at *path*, when there is
    one.  Only then, and only when every check of the run so far has
    passed, are *result*'s outputs recorded for the other backend to
    meet: a failed pass never becomes a reference.  Returns whether a
    record of the other backend was compared against.
    """
    ledger: Dict[str, Any] = {}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as handle:
            ledger = json.load(handle)
    other = "fig7-cold-par2" if workload == "fig7-cold" else "fig7-cold"
    if other in ledger:
        cross = Checker(workload, ledger[other])
        cross.source = "other backend's"
        cross.check(result, "cross-backend")
        checker.failed += cross.failed
        checker.problems.extend(cross.problems)
    if checker.failed == 0 and workload not in ledger:
        ledger[workload] = outputs_of(result)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(ledger, handle)
    return other in ledger


def measure(args, root: str, work: str, src_digest: str) -> Dict[str, Any]:
    workload = suite.WORKLOADS[args.workload]
    runner = Runner(root, work, workload.name, args.seed, args.scale,
                    args.seconds)
    pinned = load_pinned(DIGESTS_PATH, args.scale, args.seed, workload.name)
    checker = Checker(workload.name, pinned)
    record: Dict[str, Any] = {"reference": "pinned" if pinned else None}

    fill_dir = None
    if workload.cache == "filled":
        fill_dir = os.path.join(work, "cache-fill")
        fill = runner.child("fill", fill_dir)
        record["fill_s"] = fill["total_s"]
        checker.check(fill, "fill", warm=False)
        checker.adopt(outputs_of(fill), "fill")

    # The fill precedes the measured window: the passes of a short warm
    # workload must span all of --seconds, so that the box's speed
    # swings, which last seconds, average out within one run.
    started = time.monotonic()

    passes: List[Dict[str, Any]] = []
    setups: List[float] = []
    while True:
        cache_dir = fill_dir or os.path.join(work, f"cache-{len(passes)}")
        result = runner.child("pass", cache_dir)
        if fill_dir is None:
            shutil.rmtree(cache_dir, ignore_errors=True)
        label = f"pass {len(passes) + 1}"
        checker.adopt(outputs_of(result), "first pass")
        checker.check(result, label)
        passes.append(result)
        setups.append(result["setup_s"])
        elapsed = time.monotonic() - started
        estimate = statistics.median(p["total_s"] for p in passes)
        if elapsed + estimate > args.seconds:
            break
    while len(setups) < MIN_SETUPS:
        setups.append(runner.child(
            "setup", os.path.join(work, "cache-setup"))["setup_s"])

    if workload.name in ("fig7-cold", "fig7-cold-par2") and not pinned:
        record["cross_backend_checked"] = cross_backend_check(
            ledger_path(root, args.scale, args.seed, src_digest),
            workload.name, passes[0], checker)

    walls = [p["wall_s"] for p in passes]
    metrics = {
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(p["cpu_s"] for p in passes),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": max(p["peak_rss_mb"] for p in passes),
    }
    units = dict(END_TO_END)
    if args.trace:
        cache_dir = fill_dir or os.path.join(work, "cache-traced")
        traced = runner.child("pass", cache_dir, trace=True)
        checker.check(traced, "traced pass")
        records = spans.load_spans(traced["span_dir"])
        metrics = layers.compute(
            records, main_pid=traced["main_pid"], wall_s=traced["wall_s"],
            untraced_wall_s=metrics["wall_s"], import_s=traced["import_s"],
            manifest_counts=traced.get("counts", {}))
        units = layers.UNITS
        record["traced_pass"] = {key: traced[key] for key in (
            "wall_s", "cpu_s", "setup_s", "import_s", "counts")}
        record["traced_pass"]["span_pids"] = len({s["pid"] for s in records})

    record.update({
        "workload": workload.name,
        "seed": args.seed,
        "scale": args.scale,
        "argv": passes[0]["argv"],
        "passes": len(passes),
        "samples": {
            "wall_s": walls,
            "cpu_s": [p["cpu_s"] for p in passes],
            "setup_s": setups,
            "peak_rss_mb": [p["peak_rss_mb"] for p in passes],
            "import_s": [p["import_s"] for p in passes],
            "interp_s": [p["interp_s"] for p in passes],
            "fixture_s": [p["fixture_s"] for p in passes],
        },
        "counts": passes[0].get("counts", {}),
        "failed_frac": checker.failed / max(1, checker.attempted),
        "problems": checker.problems,
    })
    return {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
        "record": record,
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(suite.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=sorted(suite.SCALES),
                        default="full",
                        help="workload sizes (toy: the self-test's)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "cli.py")):
        print("error: run from the root of a checkout holding "
              "src/repro (nothing to measure here)", file=sys.stderr)
        return 2
    context = machine_context(root)
    work = os.path.join(root, ".perfbench",
                        f"run-{args.workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        result = measure(args, root, work, context["src_digest"])
    except PassFailed as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    context["load1_end"] = os.getloadavg()[0]
    record = result.pop("record")
    record["context"] = context
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps(result))
    for problem in record["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
