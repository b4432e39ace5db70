"""The four benchmark workloads, their sizes and the seed derivation.

Shared by ``run.py`` and the per-pass child (``child.py``).
Everything here is plain data or a small function of the seed, so both
sides agree on what one pass runs without passing more than a name, a
seed and a scale.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

#: The six Table 2 workloads (figure 7 rows, explore's space excepted).
TABLE2 = ("nutch", "streaming", "apache", "zeus", "oracle", "db2")

#: Figure 7's four columns.
FIG7_SCHEMES = ("baseline", "confluence", "boomerang", "shotgun")

#: Workloads the ``frontend`` explore space evaluates (its fixture).
EXPLORE_WORKLOADS = ("nutch", "db2")

#: Sizes per scale.  ``full`` is what ``BENCHMARK.json`` measures;
#: ``toy`` is the self-test's (a few hundred blocks, a budget of a few
#: cells, one window).
SCALES: Dict[str, Dict[str, int]] = {
    "full": {
        "fig7_blocks": 12000,
        "explore_blocks": 2000,
        "explore_budget": 144,
        "frontier_windows": 4,
        "frontier_blocks": 400,
    },
    "toy": {
        "fig7_blocks": 300,
        "explore_blocks": 300,
        "explore_budget": 4,
        "frontier_windows": 1,
        "frontier_blocks": 200,
    },
}


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    Attributes:
        name: the ``--workload`` name.
        why: one line on what the workload isolates.
        cache: ``fresh`` (every pass starts from an empty disk cache)
            or ``filled`` (a one-off fill invocation populates the cache
            and every pass reads it).
        fixture_programs: workloads whose programs and traces the
            per-pass fixture builds in-process before the timed pass.
    """

    name: str
    why: str
    cache: str = "fresh"
    fixture_programs: Tuple[str, ...] = field(default_factory=tuple)


WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (
        Workload(
            "fig7-cold",
            "figure 7's 24 cells, serial, empty cache: the headline figure "
            "as first run; more than half is program generation"),
        Workload(
            "fig7-cold-par2",
            "the same cells on 2 process workers: the only workload where "
            "chunking, pool start-up, IPC and per-worker caches run"),
        Workload(
            "explore-frontend",
            "random search over the whole frontend space, programs prebuilt "
            "in set-up: the engine is most of the timed pass",
            fixture_programs=EXPLORE_WORKLOADS),
        Workload(
            "frontier-warm",
            "frontier against a filled disk cache: cache reads, key "
            "hashing, journal, manifest and CI aggregation, no simulation",
            cache="filled"),
    )
}


def cli_argv(workload: str, seed: int, scale: str) -> List[str]:
    """The ``repro`` command line of one timed pass."""
    size = SCALES[scale]
    if workload in ("fig7-cold", "fig7-cold-par2"):
        argv = ["sweep", "--workloads", ",".join(TABLE2),
                "--schemes", ",".join(FIG7_SCHEMES),
                "--blocks", str(size["fig7_blocks"])]
        if workload == "fig7-cold":
            return argv + ["--backend", "serial"]
        return argv + ["--backend", "process", "--max-workers", "2"]
    if workload == "explore-frontend":
        return ["explore", "--space", "frontend", "--strategy", "random",
                "--budget", str(size["explore_budget"]),
                "--seed", str(seed), "--blocks", str(size["explore_blocks"]),
                "--backend", "serial", "--json"]
    if workload == "frontier-warm":
        return ["run", "frontier", "--windows", str(size["frontier_windows"]),
                "--blocks", str(size["frontier_blocks"]), "--json"]
    raise KeyError(workload)


def fixture_blocks(workload: str, scale: str) -> Optional[int]:
    """Trace length the fixture prebuilds (None: no trace fixture)."""
    if workload == "explore-frontend":
        return SCALES[scale]["explore_blocks"]
    return None


def derived_seed(seed: int, profile: str, role: str) -> int:
    """A generator or trace seed for *profile*, derived from *seed*.

    Stable across processes and Python versions (no ``hash()``), never
    0 (trace seed 0 means "the reference seed" to ``build_trace``).
    """
    digest = hashlib.sha256(f"{seed}:{profile}:{role}".encode()).digest()
    return 1 + int.from_bytes(digest[:4], "big") % (2 ** 31 - 2)


def reseed_profiles(seed: int) -> int:
    """Re-register every profile with seeds derived from *seed*.

    Seed 0 keeps the calibrated profiles and their reference traces.
    Returns the number of profiles re-registered.
    """
    if seed == 0:
        return 0
    from dataclasses import replace
    from repro.workloads.profiles import iter_profiles, register_profile
    profiles = iter_profiles()
    for profile in profiles:
        gen = replace(profile.gen_params,
                      seed=derived_seed(seed, profile.name, "gen"))
        register_profile(
            replace(profile, gen_params=gen,
                    trace_seed=derived_seed(seed, profile.name, "trace")),
            replace=True)
    return len(profiles)
