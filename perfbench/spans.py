"""Span recording around the public functions at each layer boundary.

The traced pass installs wrappers from here, after its fixture and just
before the CLI call; nothing under ``src/`` changes.  A wrapper records
one span per call: name, start, end, parent span, pid and run id, plus a
few attributes (engine mode, cache hit, unit count).  Spans stay in
memory.  Pool workers are forked after installation, so they inherit
the wrappers; each worker drops the spans it inherited, parents its own
top-level spans on the span that was open when it forked, and appends
its records to ``spans-<pid>.jsonl`` in the run's span directory at the
end of every work unit.  ``run.py`` merges those files with the main
process's records.

Functions are replaced wherever a ``repro`` module binds them (so
``generate_program`` is timed as called from ``workloads.profiles``);
methods are replaced on their class.  ``_run_unit`` keeps its module and
qualified name, so the process pool still pickles it by reference.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from typing import Any, Callable, Dict, List, Optional


class Recorder:
    """In-memory span buffer of one process (re-armed after a fork)."""

    def __init__(self, run_id: str, span_dir: str) -> None:
        self.run_id = run_id
        self.span_dir = span_dir
        self.main_pid = os.getpid()
        self.pid = self.main_pid
        self.spans: List[Dict[str, Any]] = []
        self.stack: List[Dict[str, Any]] = []
        self.remote_parent: Optional[str] = None
        self.seq = 0

    def _claim(self) -> None:
        pid = os.getpid()
        if pid != self.pid:
            # A forked worker: the parent's records are the parent's.
            self.remote_parent = self.stack[-1]["id"] if self.stack \
                else self.remote_parent
            self.pid = pid
            self.spans = []
            self.stack = []
            self.seq = 0

    def begin(self, name: str) -> Dict[str, Any]:
        self._claim()
        self.seq += 1
        span = {
            "id": f"{self.pid}:{self.seq}",
            "name": name,
            "parent": self.stack[-1]["id"] if self.stack
            else self.remote_parent,
            "pid": self.pid,
            "run": self.run_id,
            "start": time.monotonic(),
            "end": None,
            "attrs": {},
        }
        self.stack.append(span)
        return span

    def end(self, span: Dict[str, Any]) -> None:
        span["end"] = time.monotonic()
        if self.stack and self.stack[-1] is span:
            self.stack.pop()
        elif span in self.stack:
            self.stack.remove(span)
        self.spans.append(span)

    def in_worker(self) -> bool:
        return os.getpid() != self.main_pid

    def flush(self) -> None:
        """Append this process's finished spans to its span file."""
        if not self.spans:
            return
        path = os.path.join(self.span_dir, f"spans-{os.getpid()}.jsonl")
        with open(path, "a", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")
        self.spans = []


Describe = Callable[[tuple, dict, Any], Dict[str, Any]]


def _wrap_call(recorder: Recorder, fn: Callable, name: str,
               describe: Optional[Describe] = None,
               after: Optional[Callable[[], None]] = None) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = recorder.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.end(span)
            if after is not None:
                after()
        if describe is not None:
            span["attrs"] = describe(args, kwargs, result)
        return result
    return wrapper


def _wrap_iter(recorder: Recorder, fn: Callable, name: str,
               describe: Callable[[tuple], Dict[str, Any]]) -> Callable:
    """Wrap a method returning an iterator: the span covers the drain."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = recorder.begin(name)
        span["attrs"] = describe(args)
        try:
            yield from fn(*args, **kwargs)
        finally:
            recorder.end(span)
    return wrapper


def _rebind(target: Callable, wrapper: Callable) -> int:
    """Replace *target* wherever a loaded ``repro`` module binds it."""
    count = 0
    for module_name, module in list(sys.modules.items()):
        if module is None or not (module_name == "repro"
                                  or module_name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is target:
                setattr(module, attr, wrapper)
                count += 1
    return count


#: Modules imported before wrapping, so every binding of a wrapped
#: function already exists (the CLI imports most of them lazily).
LAYER_MODULES = (
    "repro.cfg.generator",
    "repro.workloads.tracegen",
    "repro.workloads.profiles",
    "repro.uarch.tage",
    "repro.core.frontend",
    "repro.prefetch.factory",
    "repro.core.engine_columnar",
    "repro.core.engine_select",
    "repro.core.diskcache",
    "repro.core.exec",
    "repro.core.exec.backends",
    "repro.core.exec.chunking",
    "repro.core.exec.journal",
    "repro.core.sweep",
    "repro.experiments.spec",
    "repro.experiments.registry",
    "repro.explore.report",
    "repro.obs.export",
)


def _engine_mode(scheme) -> str:
    if getattr(scheme, "ideal", False):
        return "ideal"
    if getattr(scheme, "runahead", False):
        return "runahead"
    return "demand"


def install(run_id: str, span_dir: str) -> Recorder:
    """Wrap every layer boundary; returns the process's recorder."""
    import importlib
    for module_name in LAYER_MODULES:
        importlib.import_module(module_name)
    from repro.cfg import generator
    from repro.core import diskcache, engine_columnar, engine_select, sweep
    from repro.core.exec import backends, chunking, journal
    from repro.experiments import spec as experiments_spec
    from repro.explore import report as explore_report
    from repro.obs import export
    from repro.prefetch import factory
    from repro.uarch import tage
    from repro.workloads import profiles, tracegen

    recorder = Recorder(run_id, span_dir)
    supports = engine_columnar.supports

    def engine_attrs(args, kwargs, _result):
        trace = args[0] if args else kwargs.get("trace")
        scheme = args[1] if len(args) > 1 else kwargs.get("scheme")
        predictor = kwargs.get("predictor")
        return {"mode": _engine_mode(scheme),
                "scheme": str(getattr(scheme, "name", "?")).lower(),
                "blocks": len(trace),
                "eligible": bool(supports(scheme, predictor))}

    def first_arg(key):
        return lambda args, kwargs, _result: {
            key: args[0] if args else next(iter(kwargs.values()), None)}

    def program_attrs(args, kwargs, _result):
        params = args[0] if args else kwargs.get("params")
        return {"params": repr(params)}

    def trace_key(args, kwargs, _result):
        name = args[0] if args else kwargs["name"]
        n_blocks = args[1] if len(args) > 1 else kwargs["n_blocks"]
        seed = args[2] if len(args) > 2 else kwargs.get("seed", 0)
        return {"key": f"{str(name).lower()}/{n_blocks}/{seed}"}

    def load_attrs(args, kwargs, result):
        key = args[0] if args else kwargs.get("key")
        return {"hit": result is not None, "key": key}

    def flush_in_worker():
        if recorder.in_worker():
            recorder.flush()

    functions = (
        (generator.generate_program, "cfg.generate_program", program_attrs,
         None),
        (profiles.build_program, "workloads.build_program",
         first_arg("workload"), None),
        (profiles.build_trace, "workloads.build_trace", trace_key, None),
        (tracegen.generate_trace, "workloads.generate_trace", None, None),
        (tage.precompute_fold_sequences, "tage.folds", None, None),
        (factory.build_scheme, "prefetch.build_scheme", None, None),
        (engine_select.simulate, "engine.simulate", engine_attrs, None),
        (engine_columnar.simulate_columnar, "engine.columnar", engine_attrs,
         None),
        (diskcache.spec_key, "diskcache.spec_key", None, None),
        (diskcache.load, "diskcache.load", load_attrs, None),
        (diskcache.store, "diskcache.store", None, None),
        (diskcache.verify_entry, "diskcache.verify_entry", None, None),
        (chunking.chunk_specs, "exec.chunk_specs",
         lambda args, kwargs, result: {"units": len(result)}, None),
        (backends._run_unit, "exec.unit", None, flush_in_worker),
        (sweep.run_spec, "sweep.run_spec", None, None),
        (sweep.run_specs, "sweep.run_specs",
         lambda args, kwargs, result: {"cells": len(result)}, None),
        (experiments_spec.run_grid_spec, "experiments.run_grid_spec", None,
         None),
        (explore_report.explore, "explore.explore", None, None),
        (export.build_report, "obs.build_report", None, None),
        (export.write_manifest, "obs.write_manifest", None, None),
    )
    for target, name, describe, after in functions:
        wrapper = _wrap_call(recorder, target, name, describe, after)
        if _rebind(target, wrapper) == 0:
            raise RuntimeError(f"no binding of {name} to wrap")

    journal.RunJournal.record = _wrap_call(
        recorder, journal.RunJournal.record, "exec.journal_record")
    def execute_attrs(args):
        backend = args[0]
        # A serial backend keeps the requested pool size but runs on one.
        pooled = backend.name != "serial"
        return {"backend": backend.name,
                "workers": backend.max_workers if pooled else 1}

    for backend in backends.BACKENDS.values():
        if "execute" in vars(backend):
            backend.execute = _wrap_iter(
                recorder, vars(backend)["execute"], "exec.execute",
                execute_attrs)
    return recorder


def load_spans(span_dir: str) -> List[Dict[str, Any]]:
    """Every span record flushed into *span_dir* (all processes)."""
    spans: List[Dict[str, Any]] = []
    for name in sorted(os.listdir(span_dir)):
        if not (name.startswith("spans-") and name.endswith(".jsonl")):
            continue
        with open(os.path.join(span_dir, name), encoding="utf-8") as handle:
            spans.extend(json.loads(line) for line in handle if line.strip())
    return spans
