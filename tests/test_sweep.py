"""Tests for the sweep/result-cache layer and the parallel grid runner."""

import pytest

from repro.config import SchemeConfig
from repro.core import diskcache
from repro.core.sweep import clear_result_cache, run_grid, run_scheme, \
    run_schemes, run_specs, simulation_meter
from repro.experiments.spec import RunSpec


class TestSimulationMeter:
    def test_counts_misses_not_cache_hits(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        monkeypatch.setenv("REPRO_BACKEND", "serial")
        clear_result_cache()
        spec = RunSpec(workload="nutch", scheme="baseline", n_blocks=2000)
        with simulation_meter() as meter:
            run_specs([spec])
            assert meter.count == 1
            run_specs([spec])  # memo hit
            assert meter.count == 1
        clear_result_cache()
        with simulation_meter() as meter:
            run_specs([spec])  # disk-cache hit
            assert meter.count == 0

    def test_parallel_dispatch_counts_in_the_parent(self, tmp_path,
                                                    monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        clear_result_cache()
        specs = [RunSpec(workload="nutch", scheme=scheme, n_blocks=2000)
                 for scheme in ("baseline", "ideal")]
        with simulation_meter() as meter:
            run_specs(specs, backend="process", max_workers=2)
        assert meter.count == 2
        clear_result_cache()


class TestRunScheme:
    def test_cache_hit_returns_same_result(self):
        clear_result_cache()
        first = run_scheme("nutch", "baseline", n_blocks=3000)
        second = run_scheme("nutch", "baseline", n_blocks=3000)
        assert first is second

    def test_cache_respects_config(self):
        clear_result_cache()
        small = run_scheme("nutch", "boomerang", n_blocks=3000,
                           config=SchemeConfig(name="boomerang",
                                               btb_entries=512))
        large = run_scheme("nutch", "boomerang", n_blocks=3000,
                           config=SchemeConfig(name="boomerang",
                                               btb_entries=4096))
        assert small is not large

    def test_cache_bypass(self):
        clear_result_cache()
        first = run_scheme("nutch", "baseline", n_blocks=3000)
        fresh = run_scheme("nutch", "baseline", n_blocks=3000,
                           use_cache=False)
        assert fresh is not first
        assert fresh.cycles == first.cycles  # still deterministic


class TestRunSchemes:
    def test_returns_all_requested(self):
        clear_result_cache()
        results = run_schemes("nutch", ("baseline", "ideal"),
                              n_blocks=3000)
        assert set(results) == {"baseline", "ideal"}
        assert results["ideal"].cycles < results["baseline"].cycles

    def test_parallel_matches_serial(self):
        clear_result_cache()
        serial = run_schemes("nutch", ("baseline", "ideal"), n_blocks=3000)
        clear_result_cache()
        diskcache.clear()
        parallel = run_schemes("nutch", ("baseline", "ideal"),
                               n_blocks=3000, backend="process", max_workers=2)
        for name in ("baseline", "ideal"):
            assert serial[name].stats == parallel[name].stats

    def test_parallel_builds_scheme_named_by_key(self):
        # A configs entry whose .name disagrees with its key must not
        # change which scheme the parallel path builds: the key wins,
        # exactly as on the serial path.
        clear_result_cache()
        odd = {"ideal": SchemeConfig(name="baseline")}
        serial = run_schemes("nutch", ("ideal",), n_blocks=3000,
                             configs=odd)
        clear_result_cache()
        diskcache.clear()
        parallel = run_schemes("nutch", ("ideal",), n_blocks=3000,
                               configs=odd, backend="process")
        assert serial["ideal"].scheme == "ideal"
        assert parallel["ideal"].stats == serial["ideal"].stats


class TestRunGrid:
    WORKLOADS = ("nutch", "streaming")
    SCHEMES = ("baseline", "shotgun")

    def test_parallel_bit_identical_to_serial(self):
        clear_result_cache()
        diskcache.clear()
        serial = run_grid(self.WORKLOADS, self.SCHEMES, n_blocks=3000,
                          backend="serial")
        clear_result_cache()
        diskcache.clear()
        parallel = run_grid(self.WORKLOADS, self.SCHEMES, n_blocks=3000,
                            backend="process", max_workers=2)
        for workload in self.WORKLOADS:
            for scheme in self.SCHEMES:
                assert serial[workload][scheme].stats \
                    == parallel[workload][scheme].stats

    def test_grid_shape(self):
        clear_result_cache()
        grid = run_grid(self.WORKLOADS, self.SCHEMES, n_blocks=3000,
                        backend="serial")
        assert set(grid) == set(self.WORKLOADS)
        for workload in self.WORKLOADS:
            assert set(grid[workload]) == set(self.SCHEMES)

    def test_variant_labels_resolve_through_configs(self):
        clear_result_cache()
        configs = {
            "shotgun_32": SchemeConfig(name="shotgun", footprint_bits=32),
        }
        grid = run_grid(("nutch",), ("baseline", "shotgun_32"),
                        n_blocks=3000, configs=configs, backend="serial")
        assert set(grid["nutch"]) == {"baseline", "shotgun_32"}
        # The variant config really took effect: it differs from the
        # default-config shotgun run.
        default = run_scheme("nutch", "shotgun", n_blocks=3000)
        assert grid["nutch"]["shotgun_32"].stats != default.stats

    def test_unknown_non_string_label_rejected(self):
        with pytest.raises(TypeError):
            run_grid(("nutch",), (128,), n_blocks=3000, backend="serial")

    def test_grid_populates_memo_for_run_scheme(self):
        clear_result_cache()
        grid = run_grid(("nutch",), ("baseline",), n_blocks=3000,
                        backend="serial")
        assert run_scheme("nutch", "baseline", n_blocks=3000) \
            is grid["nutch"]["baseline"]
