"""Command-line interface tests."""

import json

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.graphs.io import load_npz, save_npz


@pytest.fixture
def road_file(small_road, tmp_path):
    p = tmp_path / "road.npz"
    save_npz(p, small_road)
    return str(p)


class TestGenerate:
    @pytest.mark.parametrize(
        "kind", ["social", "web", "road", "knn-uniform", "knn-clustered", "knn-skewed"]
    )
    def test_all_kinds(self, kind, tmp_path, capsys):
        out = tmp_path / f"{kind}.npz"
        rc = main(["generate", "--kind", kind, "--n", "300", "--output", str(out)])
        assert rc == 0
        g = load_npz(out)
        assert g.num_vertices >= 289  # road rounds to a square
        assert g.name == kind


class TestQuery:
    def test_json_output(self, road_file, capsys):
        rc = main(["query", "--graph", road_file, "--source", "0", "--target", "77"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["method"] == "bids"
        assert payload["reachable"] is True
        assert payload["distance"] > 0

    def test_method_and_path(self, road_file, capsys):
        rc = main([
            "query", "--graph", road_file, "--source", "0", "--target", "50",
            "--method", "bidastar", "--path",
        ])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["path"][0] == 0 and payload["path"][-1] == 50

    def test_matches_library(self, road_file, small_road, capsys):
        from repro.baselines import dijkstra

        main(["query", "--graph", road_file, "--source", "3", "--target", "99"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["distance"] == pytest.approx(dijkstra(small_road, 3)[99])

    def test_removed_backend_flag_rejected(self, road_file, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args([
                "query", "--graph", road_file, "--source", "0", "--target", "1",
                "--backend", "process",
            ])
        assert "--backend" in capsys.readouterr().err


class TestBatch:
    def test_inline_pairs(self, road_file, capsys):
        rc = main(["batch", "--graph", road_file, "0", "50", "50", "100"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload["distances"]) == {"0->50", "50->100"}

    def test_pairs_file(self, road_file, tmp_path, capsys):
        pf = tmp_path / "pairs.txt"
        pf.write_text("0 10\n20 30\n")
        rc = main(["batch", "--graph", road_file, "--pairs-file", str(pf),
                   "--method", "sssp-vc"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["method"] == "sssp-vc"
        assert len(payload["distances"]) == 2

    def test_odd_pairs_rejected(self, road_file):
        with pytest.raises(SystemExit):
            main(["batch", "--graph", road_file, "0", "1", "2"])


class TestInfo:
    def test_statistics(self, road_file, capsys):
        rc = main(["info", "--graph", road_file])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["n"] == 144
        assert payload["coord_system"] == "spherical"
        assert payload["lcc_percent"] > 50


class TestFormats:
    def test_query_on_dimacs(self, small_road, tmp_path, capsys):
        from repro.graphs.io import write_dimacs

        p = tmp_path / "g.gr"
        write_dimacs(p, small_road)
        rc = main(["query", "--graph", str(p), "--source", "0", "--target", "10"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["reachable"]


class TestInfoValidation:
    def test_clean_graph_reports_no_problems(self, road_file, capsys):
        rc = main(["info", "--graph", road_file])
        payload = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert payload["problems"] == []

    def test_corrupt_graph_flagged(self, small_road, tmp_path, capsys):
        import numpy as np

        bad = small_road.with_weights(small_road.weights.copy())
        bad.weights[0] = np.nan  # corrupt after construction
        p = tmp_path / "bad.npz"
        save_npz(p, bad)
        rc = main(["info", "--graph", str(p)])
        payload = json.loads(capsys.readouterr().out)
        assert rc == 1
        assert any("non-finite" in prob for prob in payload["problems"])


class TestQueryTrace:
    def test_trace_summary_in_json(self, road_file, capsys):
        rc = main(["query", "--graph", road_file, "--source", "0",
                   "--target", "70", "--method", "bids", "--trace"])
        assert rc == 0
        captured = capsys.readouterr()
        payload = json.loads(captured.out)
        assert payload["trace_summary"]["steps"] > 0
        # The step table goes to stderr, keeping stdout valid JSON.
        assert "theta" in captured.err


class TestTraceCommand:
    def test_json_export_parses_and_matches_steps(self, road_file, capsys):
        rc = main(["trace", "--graph", road_file, "--source", "0",
                   "--target", "70", "--method", "bids", "--json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["query"]["distance"] > 0
        assert payload["summary"]["steps"] == len(payload["records"])
        first = payload["records"][0]
        assert {"step", "theta", "frontier_size", "mu"} <= set(first)

    def test_json_roundtrips_through_steptrace(self, road_file, capsys):
        from repro.core.tracing import StepTrace

        main(["trace", "--graph", road_file, "--source", "0",
              "--target", "70", "--method", "sssp", "--json"])
        out = capsys.readouterr().out
        trace = StepTrace.from_json(out)
        assert len(trace) == json.loads(out)["summary"]["steps"]

    def test_table_output(self, road_file, capsys):
        rc = main(["trace", "--graph", road_file, "--source", "0",
                   "--target", "70", "--method", "et", "--max-rows", "5"])
        assert rc == 0
        captured = capsys.readouterr()
        assert "theta" in captured.out
        assert json.loads(captured.err)["steps"] > 0


class TestQueryVerbose:
    def test_verbose_reports_run_counters(self, road_file, capsys):
        rc = main(["query", "--graph", road_file, "--source", "0",
                   "--target", "70", "--method", "bids", "--verbose"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["work"] > 0
        assert payload["depth"] > 0
        assert payload["mu_settled_step"] is not None

    def test_verbose_counters_come_from_this_run(self, road_file, small_road, capsys):
        from repro import ppsp
        from repro.core.tracing import StepTrace

        main(["query", "--graph", road_file, "--source", "0",
              "--target", "70", "--method", "et", "--verbose"])
        payload = json.loads(capsys.readouterr().out)
        trace = StepTrace()
        ans = ppsp(small_road, 0, 70, method="et", trace=trace)
        assert payload["work"] == float(ans.run.meter.work)
        assert payload["depth"] == float(ans.run.meter.depth)
        assert payload["mu_settled_step"] == trace.mu_settled_step()

    def test_default_query_stays_lean(self, road_file, capsys):
        main(["query", "--graph", road_file, "--source", "0", "--target", "70"])
        payload = json.loads(capsys.readouterr().out)
        assert "work" not in payload and "trace_summary" not in payload


class TestInfoProbe:
    def test_probe_reports_executed_run(self, road_file, capsys):
        rc = main(["info", "--graph", road_file])
        assert rc == 0
        probe = json.loads(capsys.readouterr().out)["probe"]
        assert probe["method"] == "bids"
        assert probe["distance"] > 0
        assert probe["work"] > 0 and probe["depth"] > 0
        assert probe["steps"] > 0
        assert probe["mu_settled_step"] is not None


class TestStatsCommand:
    def test_text_exposition(self, road_file, capsys):
        rc = main(["stats", "--graph", road_file, "--pairs", "2"])
        assert rc == 0
        text = capsys.readouterr().out
        assert "# TYPE repro_runs_total counter" in text
        assert 'repro_runs_total{policy="bids"}' in text

    def test_json_snapshot_validates(self, road_file, capsys):
        from repro.obs import validate_snapshot

        rc = main(["stats", "--graph", road_file, "--pairs", "2",
                   "--format", "json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        validate_snapshot(payload)  # already validated in-command; re-check
        assert payload["kind"] == "repro-obs-snapshot"
        assert len(payload["spans"]) > 0

    def test_builtin_graph_and_output_file(self, tmp_path, capsys):
        out = tmp_path / "stats.json"
        rc = main(["stats", "--format", "json", "--no-spans",
                   "--output", str(out)])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert "spans" not in payload  # --no-spans drops the per-query records


class TestBenchCommand:
    def test_tiny_workload_emits_snapshot(self, tmp_path, capsys):
        rc = main(["bench", "--scale", "tiny", "--dir", str(tmp_path)])
        assert rc == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["gates"]["pass"] is True
        assert summary["comparison"]["status"] == "no-baseline"
        emitted = tmp_path / "BENCH_2.json"
        assert emitted.exists()
        payload = json.loads(emitted.read_text())
        assert payload["kind"] == "repro-bench"
        assert set(payload["single"]) == {"knn", "road"}

    def test_check_gates_against_previous_snapshot(self, tmp_path, capsys):
        assert main(["bench", "--scale", "tiny", "--dir", str(tmp_path)]) == 0
        capsys.readouterr()
        rc = main(["bench", "--scale", "tiny", "--dir", str(tmp_path), "--check"])
        summary = json.loads(capsys.readouterr().out)
        assert summary["comparison"]["baseline_file"] == "BENCH_2.json"
        assert summary["comparison"]["status"] == "ok"
        assert rc == 0

    def test_removed_backend_flag_rejected(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bench", "--backend", "process"])
        assert "--backend" in capsys.readouterr().err


@pytest.mark.pool
class TestProcessBackend:
    """``--backend process`` builds a pool around one command: the same
    distances as serial, and no shared-memory segment left behind."""

    @pytest.mark.parametrize("cmd", ["batch", "serve-batch"])
    def test_matches_serial_and_leaves_no_segment(self, cmd, road_file, capsys):
        from tests.graphs.test_shm import _shm_segments

        pairs = ["0", "50", "10", "99", "20", "80", "3", "77"]
        before = _shm_segments()
        assert main([cmd, "--graph", road_file, *pairs]) == 0
        serial = json.loads(capsys.readouterr().out)
        argv = [cmd, "--graph", road_file, "--backend", "process", "--workers", "2"]
        assert main(argv + pairs) == 0
        proc = json.loads(capsys.readouterr().out)
        assert _shm_segments() == before
        field = "distances" if cmd == "batch" else "results"
        assert len(proc[field]) == 4
        assert proc[field] == serial[field]


class TestServeBatch:
    def test_inline_pairs_json_payload(self, road_file, capsys):
        rc = main(["serve-batch", "--graph", road_file, "0", "50", "10", "99"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["method"] == "multi"
        assert payload["counts"] == {"ok": 2}
        assert set(payload["results"]) == {"0->50", "10->99"}
        for entry in payload["results"].values():
            assert entry["exact"] is True and entry["outcome"] == "ok"

    def test_pairs_file_with_priorities_and_shedding(self, road_file, tmp_path, capsys):
        pf = tmp_path / "pairs.txt"
        pf.write_text("0 50 0\n10 99 5\n20 80 1\n")
        rc = main(["serve-batch", "--graph", road_file, "--pairs-file", str(pf),
                   "--max-queue", "2"])
        assert rc == 0  # shedding is explicit degradation, not failure
        payload = json.loads(capsys.readouterr().out)
        assert payload["counts"] == {"ok": 2, "shed": 1}
        assert payload["shed"] == ["0->50"]  # the lowest-priority submission

    def test_checkpoint_and_resume(self, road_file, tmp_path, capsys):
        ckpt = str(tmp_path / "job.json")
        argv = ["serve-batch", "--graph", road_file, "--checkpoint", ckpt,
                "--checkpoint-every", "1", "0", "50", "10", "99"]
        assert main(argv) == 0
        first = json.loads(capsys.readouterr().out)
        assert first["checkpoints_written"] == 2
        assert first["checkpoint"] == ckpt
        assert main(argv + ["--resume"]) == 0
        second = json.loads(capsys.readouterr().out)
        assert second["resumed_queries"] == 2
        assert second["results"] == first["results"]  # bit-identical off disk

    def test_resilient_method_reports_breakers(self, road_file, capsys):
        rc = main(["serve-batch", "--graph", road_file, "--method", "resilient",
                   "0", "50"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["counts"] == {"ok": 1}
        assert payload["breakers"].get("bidastar") == "closed"

    def test_odd_inline_pairs_rejected(self, road_file):
        with pytest.raises(SystemExit):
            main(["serve-batch", "--graph", road_file, "0", "1", "2"])

    def test_empty_input_rejected(self, road_file):
        with pytest.raises(SystemExit, match="no queries"):
            main(["serve-batch", "--graph", road_file])


class TestServe:
    def test_pairs_file_streams_one_answer_per_submission(
        self, road_file, small_road, tmp_path, capsys
    ):
        from repro import ppsp

        pf = tmp_path / "pairs.txt"
        pf.write_text("0 50\n10 99 3\n\n0 50\n20 80\n")
        stats = tmp_path / "stats.prom"
        # A long max-wait keeps every query queued until shutdown, so
        # the duplicate coalesces whatever the dispatcher's timing.
        rc = main(["serve", "--graph", road_file, "--pairs-file", str(pf),
                   "--max-wait-ms", "60000", "--stats-out", str(stats)])
        assert rc == 0
        out, err = capsys.readouterr()
        lines = [json.loads(line) for line in out.splitlines()]
        asked = [(0, 50), (10, 99), (0, 50), (20, 80)]
        assert [(r["source"], r["target"]) for r in lines] == asked
        for r, (s, t) in zip(lines, asked):
            assert (r["outcome"], r["exact"]) == ("ok", True)
            assert r["distance"] == pytest.approx(ppsp(small_road, s, t).distance, rel=1e-9)
        summary = json.loads(err)
        assert {"stats", "batches"} <= set(summary)
        assert summary["stats"]["deduped"] == 1
        assert "repro_service_batches_total" in stats.read_text()

    def test_removed_overload_flag_rejected(self, road_file, capsys):
        with pytest.raises(SystemExit):
            main(["serve", "--graph", road_file, "--shed-multiple", "8"])
        assert "--shed-multiple" in capsys.readouterr().err
