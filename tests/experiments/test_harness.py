"""Experiment harness tests."""

import numpy as np
import pytest

from repro.baselines import dijkstra
from repro.experiments.harness import (
    render_table,
    run_single_query,
    timed,
)
from repro.experiments.suite import build_graph


# run_single_query must accept every method name the tables use.
ALL = ("sssp", "et", "bids", "astar", "bidastar", "gi-et", "gi-astar", "mbq-et", "mbq-astar")


class TestRunSingleQuery:
    @pytest.mark.parametrize("method", ALL)
    def test_all_methods_answer_exactly(self, method, small_road):
        s, t = 0, 90
        ref = dijkstra(small_road, s)[t]
        timing = run_single_query(small_road, method, s, t, delta=40.0)
        assert timing.answer == pytest.approx(ref)
        assert timing.seconds >= 0
        assert timing.meter is not None and timing.meter.work > 0

    def test_unknown_method(self, small_road):
        with pytest.raises(ValueError):
            run_single_query(small_road, "quantum", 0, 1)

    def test_repeats_average(self, small_road):
        t1 = run_single_query(small_road, "bids", 0, 50, delta=40.0, repeats=2)
        assert t1.seconds > 0


class TestTimed:
    def test_returns_mean_and_value(self):
        calls = []

        def fn():
            calls.append(1)
            return 42

        secs, out = timed(fn, repeats=3, warmup=2)
        assert out == 42
        assert len(calls) == 5
        assert secs >= 0


class TestRenderTable:
    def test_contains_all_cells(self):
        text = render_table(
            "T", ["r1", "r2"], ["c1", "c2"], {("r1", "c1"): 1.5, ("r2", "c2"): "x"}
        )
        assert "T" in text and "r1" in text and "c2" in text
        assert "1.5000" in text and "x" in text

    def test_missing_cells_dash(self):
        text = render_table("T", ["r"], ["c"], {})
        assert "-" in text


class TestResultsIO:
    def test_results_dir_env_override(self, tmp_path, monkeypatch):
        from repro.experiments.harness import results_dir, save_results

        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path / "sub"))
        d = results_dir()
        assert d == str(tmp_path / "sub")
        import os

        assert os.path.isdir(d)
        path = save_results("unit", {"a": 1.5})
        import json

        assert json.load(open(path)) == {"a": 1.5}

    def test_save_results_serializes_numpy(self, tmp_path, monkeypatch):
        import json

        import numpy as np

        from repro.experiments.harness import save_results

        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
        path = save_results("np", {"x": np.float64(2.5), "y": np.int64(3)})
        data = json.load(open(path))
        assert data["x"] == 2.5 and data["y"] == 3.0


class TestGeomeanOrNone:
    def test_filters_nonpositive(self):
        from repro.experiments.harness import geomean_or_none

        assert geomean_or_none([1.0, 4.0]) == pytest.approx(2.0)
        assert geomean_or_none([]) is None
        assert geomean_or_none([0.0, -1.0]) is None
