"""Tests for ASCII chart rendering."""

import pytest

from repro.errors import ExperimentError
from repro.experiments.charts import render_bar_chart
from repro.experiments.reporting import ExperimentResult


def _result():
    result = ExperimentResult("x", "Speedup demo", columns=["A", "B"])
    result.add_row("w1", [1.2, 1.5])
    result.add_row("w2", [1.1, 1.3])
    result.set_summary("Gmean", [1.15, 1.4])
    return result


class TestRenderBarChart:
    def test_contains_all_groups_and_columns(self):
        chart = render_bar_chart(_result())
        for token in ("w1", "w2", "Gmean", "A |", "B |"):
            assert token in chart

    def test_bar_lengths_monotone_in_value(self):
        chart = render_bar_chart(_result())
        lines = {line.strip().split(" |")[0]: line
                 for line in chart.splitlines() if "|" in line}
        # Within w1, B (1.5) must have a longer bar than A (1.2).
        w1_lines = [line for line in chart.splitlines() if "|" in line][:2]
        bar_a = w1_lines[0].count("#")
        bar_b = w1_lines[1].count("#")
        assert bar_b > bar_a

    def test_baseline_shifts_origin(self):
        absolute = render_bar_chart(_result())
        relative = render_bar_chart(_result(), baseline=1.0)
        assert "(bars start at 1)" in relative
        # Relative bars amplify the differences: the smallest value has
        # a much shorter bar relative to the largest.
        assert relative.count("#") < absolute.count("#")

    def test_empty_result_rejected(self):
        empty = ExperimentResult("x", "T", columns=["A"])
        with pytest.raises(ExperimentError):
            render_bar_chart(empty)

    def test_flat_values_rejected_with_baseline_above(self):
        result = ExperimentResult("x", "T", columns=["A"])
        result.add_row("w", [1.0])
        with pytest.raises(ExperimentError):
            render_bar_chart(result, baseline=1.0)


class TestCli:
    def test_experiments_cli_single(self, capsys):
        from repro.cli import main
        assert main(["run", "table1", "--blocks", "3000"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out and "regenerated" in out

    def test_experiments_cli_chart_flag(self, capsys):
        from repro.cli import main
        assert main(["run", "figure3", "--blocks", "3000", "--chart"]) == 0
        out = capsys.readouterr().out
        assert "#" in out

    def test_workloads_cli_list(self, capsys):
        from repro.workloads.__main__ import main
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "oracle" in out and "functions" in out

    def test_workloads_cli_characterize(self, capsys):
        from repro.workloads.__main__ import main
        assert main(["characterize", "nutch", "--blocks", "3000"]) == 0
        out = capsys.readouterr().out
        assert "BTB MPKI" in out

    def test_workloads_cli_export(self, tmp_path, capsys):
        from repro.workloads.__main__ import main
        path = str(tmp_path / "t.npz")
        assert main(["export", "nutch", path, "--blocks", "2000"]) == 0
        from repro.workloads.trace import Trace
        assert len(Trace.load(path)) == 2000
