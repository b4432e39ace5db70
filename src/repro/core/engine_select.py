"""Engine dispatch: the columnar batched core where it applies.

One dispatch point (:func:`simulate`) sits between the sweep layer and
the engines, so every call site — experiments, the sweep grid, CLI runs,
library callers — takes the same path: a cell that
:func:`repro.core.engine_columnar.supports` accepts (the ideal and
baseline schemes on the trace-derived TAGE predictor) replays on the
columnar core, every other cell runs on the interpreter.  Nothing but
the cell itself decides.

Dispatch is **output-neutral** by contract: the columnar engine is
bit-identical where it applies, so neither the engine fingerprint's key
material nor ``ENGINE_VERSION`` depends on which core ran a cell.  The
differential test suite and the golden snapshots (pinned once through
this dispatch and once on the interpreter alone) enforce the contract.
"""

from __future__ import annotations

from typing import Optional

from repro.config import MicroarchParams
from repro.core import engine_columnar
from repro.core import frontend as _interpreter
from repro.core.metrics import SimulationResult
from repro.prefetch.base import Scheme
from repro.workloads.trace import Trace


def simulate(trace: Trace, scheme: Scheme,
             params: Optional[MicroarchParams] = None,
             predictor=None, l1d_misses_per_kinstr: float = 10.0,
             warmup_fraction: float = 0.1) -> SimulationResult:
    """Simulate one cell on the core that can replay it.

    Drop-in replacement for :func:`repro.core.frontend.simulate`: the
    columnar engine runs every cell it supports, the interpreter the
    rest, and the result is identical either way.
    """
    run = engine_columnar.simulate_columnar \
        if engine_columnar.supports(scheme, predictor) \
        else _interpreter.simulate
    return run(trace, scheme, params=params, predictor=predictor,
               l1d_misses_per_kinstr=l1d_misses_per_kinstr,
               warmup_fraction=warmup_fraction)
