"""Regression harness: snapshot schema, baseline gate, file numbering."""

import copy
import json

import pytest

from repro.perf import regression
from repro.perf.regression import (
    bench_command,
    compare,
    find_baseline,
    next_bench_path,
    run_benchmark,
)


@pytest.fixture(scope="module")
def snapshot():
    """One tiny benchmark run shared by the whole module (seconds)."""
    return run_benchmark("tiny")


class TestRunBenchmark:
    def test_schema(self, snapshot):
        assert snapshot["kind"] == "repro-bench"
        assert snapshot["scale"] == "tiny"
        assert set(snapshot["single"]) == {"knn", "road"}
        for rows in snapshot["single"].values():
            assert set(rows) == set(regression.METHODS)
            for row in rows.values():
                assert row["cold_s"] > 0
                assert row["work"] > 0 and row["relaxations"] > 0

    def test_batch_section(self, snapshot):
        for rows in snapshot["batch"].values():
            assert set(rows) == set(regression.BATCH_METHODS)
            for row in rows.values():
                assert row["num_searches"] >= 1

    def test_verify_overhead_section(self, snapshot):
        """Acceptance: serve-time certificate verification costs < 25%
        on a clean workload (sub-millisecond baselines stay ungated)."""
        v = snapshot["verify"]
        cfg = regression.SCALES["tiny"]
        assert v["workload"] == {
            "road_side": cfg["verify_road_side"],
            "num_pairs": cfg["verify_pairs"],
            "method": "multi",
        }
        assert v["plain_s"] > 0 and v["verified_s"] > 0
        assert v["max_allowed_overhead"] == regression.VERIFY_MAX_OVERHEAD
        assert v["pass"] is True
        assert snapshot["gates"]["max_verify_overhead"] == regression.VERIFY_MAX_OVERHEAD

    def test_deterministic_counters_are_stable(self, snapshot):
        """work/steps/relaxations must be reproducible run to run —
        that is what makes the tolerance gate trustworthy."""
        again = run_benchmark("tiny")
        for graph, rows in snapshot["single"].items():
            for method, row in rows.items():
                for metric in ("work", "steps", "relaxations"):
                    assert again["single"][graph][method][metric] == row[metric], (
                        graph, method, metric,
                    )


class TestCompare:
    def test_identical_is_ok(self, snapshot):
        res = compare(snapshot, copy.deepcopy(snapshot))
        assert res["status"] == "ok" and res["checked"] > 0

    def test_work_regression_detected(self, snapshot):
        worse = copy.deepcopy(snapshot)
        worse["single"]["road"]["bids"]["work"] *= 1.5
        res = compare(worse, snapshot)
        assert res["status"] == "regression"
        assert any("road.bids.work" in r["where"] for r in res["regressions"])

    def test_improvement_never_fails(self, snapshot):
        better = copy.deepcopy(snapshot)
        for rows in better["single"].values():
            for row in rows.values():
                row["work"] *= 0.5
                row["cold_s"] *= 0.5
        assert compare(better, snapshot)["status"] == "ok"

    def test_wall_noise_within_loose_tolerance(self, snapshot):
        noisy = copy.deepcopy(snapshot)
        noisy["single"]["road"]["bids"]["cold_s"] *= 1.5  # < 100% tolerance
        assert compare(noisy, snapshot)["status"] == "ok"

    def test_workload_mismatch_is_incomparable(self, snapshot):
        other = copy.deepcopy(snapshot)
        other["workload_key"] = "schema1-scale:small-seed:1729"
        assert compare(snapshot, other)["status"] == "incomparable"


class TestBenchFiles:
    def test_next_path_starts_at_2(self, tmp_path):
        assert next_bench_path(tmp_path).name == "BENCH_2.json"

    def test_next_path_increments(self, tmp_path):
        (tmp_path / "BENCH_2.json").write_text("{}")
        (tmp_path / "BENCH_7.json").write_text("{}")
        assert next_bench_path(tmp_path).name == "BENCH_8.json"

    def test_find_baseline_excludes_output(self, tmp_path):
        (tmp_path / "BENCH_2.json").write_text("{}")
        out = tmp_path / "BENCH_3.json"
        out.write_text("{}")
        assert find_baseline(tmp_path, exclude=out).name == "BENCH_2.json"
        assert find_baseline(tmp_path, exclude=None).name == "BENCH_3.json"
        assert find_baseline(tmp_path / "missing", exclude=None) is None


class TestBenchCommand:
    def test_emits_snapshot_and_compares(self, tmp_path):
        payload1, rc1 = bench_command(scale="tiny", directory=tmp_path)
        assert rc1 == 0
        first = tmp_path / "BENCH_2.json"
        assert first.exists()
        assert payload1["comparison"]["status"] == "no-baseline"

        payload2, rc2 = bench_command(scale="tiny", directory=tmp_path, check=True)
        assert (tmp_path / "BENCH_3.json").exists()
        assert payload2["comparison"]["baseline_file"] == "BENCH_2.json"
        assert payload2["comparison"]["status"] == "ok"
        assert rc2 == 0
        on_disk = json.loads((tmp_path / "BENCH_3.json").read_text())
        assert on_disk["comparison"]["status"] == "ok"

    def test_check_fails_on_injected_regression(self, tmp_path):
        payload, _ = bench_command(scale="tiny", directory=tmp_path)
        base = json.loads((tmp_path / "BENCH_2.json").read_text())
        for rows in base["single"].values():
            for row in rows.values():
                row["work"] *= 0.1  # pretend the past was 10x cheaper
        (tmp_path / "BENCH_2.json").write_text(json.dumps(base))
        _, rc = bench_command(scale="tiny", directory=tmp_path, check=True)
        assert rc == 1
