"""Engine phase timing and a cheap sampling profiler.

Two cooperating views of "where did engine time go", both off by
default and both feeding the :mod:`repro.obs.metrics` registry:

* :func:`engine_phase` — the single guarded hook in the engine hot
  path (``FrontEnd.run``).  When telemetry is off it is two attribute
  probes and a no-op context; when on it costs two ``perf_counter``
  calls per engine run and records an ``engine.phase.<mode>``
  histogram observation plus a span.  It also *declares* the phase the
  calling thread is in, which is what the sampler attributes to.
* :func:`sampling_profiler` — a daemon thread that wakes every
  *interval* seconds and increments ``profile.samples.<phase>`` for
  each thread's currently-declared phase (``idle`` threads are not
  sampled).  Statistical, engine-agnostic, and safe: it never touches
  engine state, it only reads the phase table.

``REPRO_PROFILE=<interval>`` turns the sampler on for a CLI
invocation; the histograms work whenever telemetry is enabled.
"""

from __future__ import annotations

import contextlib
import threading
import time
from typing import Dict, Iterator, Optional

from repro.obs import metrics, tracing

#: Environment switch for the sampling profiler: a float interval in
#: seconds (e.g. ``REPRO_PROFILE=0.005``); unset/empty means off.
PROFILE_ENV = "REPRO_PROFILE"

_PHASE_LOCK = threading.Lock()

#: thread ident -> declared phase name, maintained by *engine_phase*.
_PHASES: Dict[int, str] = {}


def current_phases() -> Dict[int, str]:
    """Copy of the per-thread declared-phase table (sampler input)."""
    with _PHASE_LOCK:
        return dict(_PHASES)


@contextlib.contextmanager
def engine_phase(mode: str, **attrs) -> Iterator[None]:
    """Declare and time one engine run in phase *mode*.

    The one sanctioned observability hook inside the engine hot path:
    everything else observes from the scheduler layer.  No-op unless
    tracing/telemetry is enabled, so the disabled cost is a single
    :func:`repro.obs.tracing.enabled` probe.

    *mode* is the interpreter's run mode (``ideal`` / ``demand`` /
    ``runahead``) or the columnar core's ``columnar.ideal`` /
    ``columnar.demand``, so ``repro trace`` attributes wall-clock to
    the engine that actually executed each cell — a mixed sweep shows
    ``engine.columnar.*`` spans for its ideal/baseline cells and plain
    ``engine.demand`` / ``engine.runahead`` spans for the rest.
    """
    if not tracing.enabled():
        yield
        return
    ident = threading.get_ident()
    with _PHASE_LOCK:
        previous = _PHASES.get(ident)
        _PHASES[ident] = mode
    begun = time.perf_counter()
    try:
        with tracing.span(f"engine.{mode}", **attrs):
            yield
    finally:
        metrics.histogram(f"engine.phase.{mode}").observe(
            time.perf_counter() - begun)
        with _PHASE_LOCK:
            if previous is None:
                _PHASES.pop(ident, None)
            else:
                _PHASES[ident] = previous


@contextlib.contextmanager
def sampling_profiler(interval: float = 0.005) -> Iterator[None]:
    """Run the phase sampler for the duration of the ``with`` block.

    Wakes every *interval* seconds and bumps ``profile.samples.<phase>``
    once per thread currently inside an :func:`engine_phase` region.
    Runs as a daemon thread so a crashed block can never hang exit.
    """
    stop = threading.Event()

    def _sample() -> None:
        while not stop.wait(interval):
            for phase in current_phases().values():
                metrics.counter(f"profile.samples.{phase}").inc()

    thread = threading.Thread(
        target=_sample, name="repro-obs-sampler", daemon=True)
    thread.start()
    try:
        yield
    finally:
        stop.set()
        thread.join(timeout=1.0)


def profiler_interval(raw: Optional[str]) -> Optional[float]:
    """Parse a ``REPRO_PROFILE`` value; None when unset/invalid/≤0."""
    if not raw:
        return None
    try:
        interval = float(raw)
    except ValueError:
        return None
    return interval if interval > 0 else None


__all__ = [
    "PROFILE_ENV",
    "engine_phase",
    "sampling_profiler",
    "current_phases",
    "profiler_interval",
]
