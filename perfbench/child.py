"""One benchmark pass in a fresh interpreter.

Usage (``run.py``'s, not a user's): ``child.py CONFIG.json T_LAUNCH``
where ``T_LAUNCH`` is ``run.py``'s ``time.monotonic()`` just before it
started this interpreter (CLOCK_MONOTONIC is system-wide on Linux, so
the difference is the interpreter start-up).

Modes:

* ``setup`` — interpreter start, ``import repro.cli`` and the fixture,
  then exit (an extra set-up sample).
* ``fill`` — set-up, then the CLI invocation that fills a disk cache.
* ``pass`` — set-up, then the timed CLI invocation; with ``trace`` the
  layer wrappers of :mod:`spans` are installed first.

The result (timings, resources, output digests, manifest counts) is
written as JSON to ``config["result"]``.
"""

import time

T_ENTER = time.monotonic()

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402


def stats_digests(cache_dir):
    """Sorted per-cell digests of every result entry in *cache_dir*.

    An entry is ``<2 hex>/<key>.json`` holding the cell's scheme and its
    full engine statistics; the digest covers both as stable JSON.
    """
    digests = []
    for bucket in sorted(os.listdir(cache_dir)):
        path = os.path.join(cache_dir, bucket)
        if len(bucket) != 2 or not os.path.isdir(path):
            continue
        for name in os.listdir(path):
            if not name.endswith(".json"):
                continue
            with open(os.path.join(path, name), encoding="utf-8") as handle:
                payload = json.load(handle)
            digests.append(cell_digest(payload["scheme"], payload["stats"]))
    return sorted(digests)


def cell_digest(scheme, stats):
    material = json.dumps({"scheme": scheme, "stats": stats},
                          sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(material.encode("utf-8")).hexdigest()[:24]


def manifest_counts(cache_dir):
    """Counts from the newest run manifest under *cache_dir*."""
    from repro.obs import export
    paths = export.list_manifests(os.path.join(cache_dir, "journals"))
    if not paths:
        return {}
    manifest = export.load_manifest(paths[0])
    counts = dict(manifest.get("counts", {}))
    counts["cache_misses"] = manifest.get("cache", {}).get("misses", 0)
    return counts


def rusage_totals():
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return (own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime,
            max(own.ru_maxrss, kids.ru_maxrss))


def main():
    with open(sys.argv[1], encoding="utf-8") as handle:
        config = json.load(handle)
    t_launch = float(sys.argv[2])
    out = {"interp_s": T_ENTER - t_launch}

    started = time.monotonic()
    import repro.cli
    out["import_s"] = time.monotonic() - started

    started = time.monotonic()
    import suite
    cache_dir = config["cache_dir"]
    os.makedirs(cache_dir, exist_ok=True)
    suite.reseed_profiles(config["seed"])
    workload = suite.WORKLOADS[config["workload"]]
    if workload.fixture_programs:
        from repro.workloads.profiles import build_program, build_trace
        blocks = suite.fixture_blocks(workload.name, config["scale"])
        for name in workload.fixture_programs:
            build_program(name)
            build_trace(name, blocks)
    out["fixture_s"] = time.monotonic() - started
    out["setup_s"] = time.monotonic() - t_launch
    if config["mode"] == "setup":
        return out, config["result"]

    recorder = None
    if config.get("trace"):
        import spans
        recorder = spans.install(config["run_id"], config["span_dir"])
    argv = suite.cli_argv(workload.name, config["seed"], config["scale"])
    stdout_path = config["stdout"]
    error = None
    cpu_before, _ = rusage_totals()
    with open(stdout_path, "w", encoding="utf-8") as stdout, \
            open(config["stderr"], "w", encoding="utf-8") as stderr, \
            contextlib.redirect_stdout(stdout), \
            contextlib.redirect_stderr(stderr):
        started = time.monotonic()
        try:
            rc = repro.cli.main(argv)
        except SystemExit as stop:
            rc = stop.code
        except Exception:  # a raising pass is a failed pass
            rc = -1
            error = traceback.format_exc(limit=20)
        wall = time.monotonic() - started
    cpu_after, peak_kib = rusage_totals()
    if recorder is not None:
        recorder.flush()
        out["main_pid"] = os.getpid()

    out.update({
        "argv": argv,
        "rc": rc,
        "error": error,
        "wall_s": wall,
        "cpu_s": cpu_after - cpu_before,
        "peak_rss_mb": peak_kib / 1024.0,
    })
    with open(stdout_path, "rb") as handle:
        payload = handle.read()
    out["stdout_sha"] = hashlib.sha256(payload).hexdigest()[:24]
    out["cells"] = stats_digests(cache_dir)
    out["counts"] = manifest_counts(cache_dir)
    return out, config["result"]


if __name__ == "__main__":
    result, path = main()
    with open(path, "w", encoding="utf-8") as sink:
        json.dump(result, sink)
