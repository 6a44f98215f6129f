"""Tests for the command-line interface."""

import pytest

from repro.cli import main


class TestAreaCommand:
    def test_default(self, capsys):
        assert main(["area"]) == 0
        out = capsys.readouterr().out
        assert "Area breakdown" in out
        assert "TOTAL" in out
        assert "60" in out  # LT-B ~60.3 mm^2

    def test_lt_large(self, capsys):
        assert main(["area", "--config", "lt-l"]) == 0
        assert "lt-l" in capsys.readouterr().out


class TestPowerCommand:
    def test_4bit(self, capsys):
        assert main(["power", "--bits", "4"]) == 0
        out = capsys.readouterr().out
        assert "laser" in out and "dac" in out

    def test_8bit_has_higher_total(self, capsys):
        main(["power", "--bits", "4"])
        out4 = capsys.readouterr().out
        main(["power", "--bits", "8"])
        out8 = capsys.readouterr().out

        def total(text):
            for line in text.splitlines():
                if line.startswith("TOTAL"):
                    return float(line.split()[1])
            raise AssertionError("no TOTAL line")

        assert total(out8) > 3 * total(out4)


class TestRunCommand:
    def test_deit_t(self, capsys):
        assert main(["run", "--model", "deit-t"]) == 0
        out = capsys.readouterr().out
        assert "deit-tiny" in out
        assert "energy_mJ" in out

    def test_bert(self, capsys):
        assert main(["run", "--model", "bert-base"]) == 0
        assert "bert-base" in capsys.readouterr().out


class TestCompareCommand:
    def test_contains_all_designs(self, capsys):
        assert main(["compare", "--model", "deit-t"]) == 0
        out = capsys.readouterr().out
        for design in ("LT-B", "MRR bank", "MZI array", "CPU", "GPU"):
            assert design in out


class TestReportCommand:
    def test_writes_file(self, tmp_path, capsys):
        output = tmp_path / "EXP.md"
        assert main(["report", "--skip-accuracy", "--output", str(output)]) == 0
        text = output.read_text()
        assert "Table IV" in text
        assert "Fig. 13" in text


class TestParsing:
    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_bad_bits_rejected(self):
        with pytest.raises(SystemExit):
            main(["area", "--bits", "5"])

    def test_bad_model_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "--model", "gpt-17"])


class TestServeBenchCommand:
    def test_tiny_vit_load(self, capsys):
        assert main([
            "serve-bench", "--model", "tiny-vit", "--requests", "6",
            "--max-batch-size", "4", "--users", "2", "--rounds", "1",
        ]) == 0
        out = capsys.readouterr().out
        assert "open-loop-poisson" in out
        assert "closed-loop" in out
        assert "batch occupancy" in out

    def test_tiny_bert_ragged_prompts(self, capsys):
        assert main([
            "serve-bench", "--model", "tiny-bert", "--requests", "5",
            "--max-batch-size", "8", "--users", "2", "--rounds", "1",
        ]) == 0
        assert "serve-bench tiny-bert" in capsys.readouterr().out

    def test_bad_model_rejected(self):
        with pytest.raises(SystemExit):
            main(["serve-bench", "--model", "gpt-17"])


class TestClusterBenchCommand:
    def test_vision_fleet(self, capsys):
        assert main([
            "cluster-bench", "--model", "tiny-vit", "--replicas", "2",
            "--requests", "8", "--max-batch-size", "4",
        ]) == 0
        out = capsys.readouterr().out
        assert "virtual-open-loop" in out
        assert "replica-0" in out and "replica-1" in out

    def test_decode_affinity_stats(self, capsys):
        assert main([
            "cluster-bench", "--model", "decode", "--replicas", "3",
            "--policy", "session_affinity", "--requests", "12",
        ]) == 0
        out = capsys.readouterr().out
        assert "affinity: hit rate" in out
        assert "KV migrations" in out

    def test_autoscale_emits_events(self, capsys):
        assert main([
            "cluster-bench", "--autoscale", "--replicas", "3",
            "--requests", "24", "--rate", "20000", "--max-batch-size", "2",
        ]) == 0
        out = capsys.readouterr().out
        assert "(autoscaled)" in out
        assert "scale_up" in out

    def test_bad_policy_rejected(self):
        with pytest.raises(SystemExit):
            main(["cluster-bench", "--policy", "random"])

    def test_bad_replicas_rejected(self):
        with pytest.raises(SystemExit):
            main(["cluster-bench", "--replicas", "0"])


class TestSchedulerFlag:
    def test_serve_bench_continuous(self, capsys):
        assert main([
            "serve-bench", "--model", "tiny-vit", "--requests", "6",
            "--max-batch-size", "4", "--users", "2", "--rounds", "1",
            "--scheduler", "continuous",
        ]) == 0
        out = capsys.readouterr().out
        assert "scheduler=continuous" in out
        assert "iteration occupancy" in out

    def test_serve_bench_request_is_default(self, capsys):
        assert main([
            "serve-bench", "--model", "tiny-vit", "--requests", "4",
            "--max-batch-size", "4", "--users", "2", "--rounds", "1",
        ]) == 0
        out = capsys.readouterr().out
        assert "scheduler=request" in out
        assert "iteration occupancy" not in out

    def test_cluster_bench_continuous_decode(self, capsys):
        assert main([
            "cluster-bench", "--model", "decode", "--replicas", "3",
            "--policy", "session_affinity", "--requests", "12",
            "--scheduler", "continuous",
        ]) == 0
        out = capsys.readouterr().out
        assert "scheduler=continuous" in out
        assert "KV migrations" in out

    def test_bad_scheduler_rejected(self):
        with pytest.raises(SystemExit):
            main(["serve-bench", "--scheduler", "sorcery"])
        with pytest.raises(SystemExit):
            main(["cluster-bench", "--scheduler", "sorcery"])


class TestHotpathBenchCommand:
    def test_stage_table_and_summary(self, capsys):
        assert main([
            "hotpath-bench", "--batch", "8", "--m", "4", "--d", "12",
            "--n", "4", "--repeats", "1",
        ]) == 0
        out = capsys.readouterr().out
        for stage in ("sample", "encode", "compute", "detect"):
            assert stage in out
        assert "bit-identical" in out
        assert "GFLOP/s" in out

    def test_writes_json_artifact(self, tmp_path, capsys):
        artifact = tmp_path / "BENCH_hotpath.json"
        assert main([
            "hotpath-bench", "--batch", "8", "--m", "4", "--d", "12",
            "--n", "4", "--repeats", "1", "--chunk-size", "2",
            "--out", str(artifact),
        ]) == 0
        import json

        report = json.loads(artifact.read_text())
        assert report["bit_identical"] is True
        assert report["chunk_size"] == 2
        assert report["grouped_speedup"] > 0.0
        assert set(report["stage_seconds"]) >= {
            "sample", "encode", "compute", "detect", "total"
        }

    def test_bad_shape_rejected(self):
        with pytest.raises(SystemExit):
            main(["hotpath-bench", "--batch", "0"])

    def test_noise_off_profiles_compute_and_detect_only(self, capsys):
        assert main([
            "hotpath-bench", "--batch", "8", "--m", "4", "--d", "12",
            "--n", "4", "--repeats", "1", "--noise", "off",
        ]) == 0
        out = capsys.readouterr().out
        assert "noise=off" in out
        assert "compute" in out and "detect" in out
        assert "sample" not in out and "encode" not in out

    def test_trace_flag_writes_spans(self, tmp_path, capsys):
        trace = tmp_path / "hotpath.jsonl"
        assert main([
            "hotpath-bench", "--batch", "8", "--m", "4", "--d", "12",
            "--n", "4", "--repeats", "1", "--trace", str(trace),
        ]) == 0
        import json

        lines = trace.read_text().splitlines()
        names = {json.loads(line)["name"] for line in lines}
        assert "hotpath.matmul" in names
        assert "stage.compute" in names
        assert "wrote" in capsys.readouterr().out


class TestTraceCommand:
    def test_stdout_jsonl_is_deterministic(self, capsys):
        assert main(["trace", "--seed", "1", "--requests", "8"]) == 0
        first = capsys.readouterr().out
        assert main(["trace", "--seed", "1", "--requests", "8"]) == 0
        second = capsys.readouterr().out
        assert first == second
        import json

        names = {json.loads(line)["name"] for line in first.splitlines()}
        assert "request" in names
        assert "stage.detect" in names

    def test_out_extension_selects_format(self, tmp_path, capsys):
        import json

        jsonl = tmp_path / "trace.jsonl"
        chrome = tmp_path / "trace.json"
        assert main(["trace", "--requests", "4", "--out", str(jsonl)]) == 0
        assert main(["trace", "--requests", "4", "--out", str(chrome)]) == 0
        assert json.loads(jsonl.read_text().splitlines()[0])["span_id"] == 0
        assert "traceEvents" in json.loads(chrome.read_text())
        assert "wrote" in capsys.readouterr().out

    def test_bad_requests_rejected(self):
        with pytest.raises(SystemExit):
            main(["trace", "--requests", "0"])

    def test_serve_bench_trace_flag(self, tmp_path, capsys):
        import json

        trace = tmp_path / "serve.jsonl"
        assert main([
            "serve-bench", "--requests", "6", "--trace", str(trace),
        ]) == 0
        names = {
            json.loads(line)["name"]
            for line in trace.read_text().splitlines()
        }
        assert "request" in names

    def test_cluster_bench_trace_flag(self, tmp_path, capsys):
        import json

        trace = tmp_path / "cluster.jsonl"
        assert main([
            "cluster-bench", "--requests", "8", "--trace", str(trace),
        ]) == 0
        names = {
            json.loads(line)["name"]
            for line in trace.read_text().splitlines()
        }
        assert "cluster" in names
        assert "cluster.request" in names


class TestHotpathKnobFlags:
    def test_serve_bench_accepts_hotpath_knobs(self, capsys):
        assert main([
            "serve-bench", "--model", "tiny-vit", "--requests", "4",
            "--max-batch-size", "4", "--users", "2", "--rounds", "1",
            "--chunk-size", "2",
        ]) == 0
        assert "requests" in capsys.readouterr().out


class TestTraceSamplingFlags:
    def run_trace(self, capsys, *extra):
        assert main(["trace", "--seed", "1", "--requests", "8", *extra]) == 0
        return capsys.readouterr().out

    def test_sampled_stdout_is_deterministic_subset(self, capsys):
        full = self.run_trace(capsys)
        sampled = self.run_trace(capsys, "--sample", "2")
        again = self.run_trace(capsys, "--sample", "2")
        assert sampled == again
        assert 0 < len(sampled.splitlines()) < len(full.splitlines())
        assert set(sampled.splitlines()) < set(full.splitlines())

    def test_sampled_out_writes_jsonl(self, tmp_path, capsys):
        out = tmp_path / "sampled.jsonl"
        assert main([
            "trace", "--seed", "1", "--requests", "8",
            "--sample", "2", "--out", str(out),
        ]) == 0
        assert "sampled spans" in capsys.readouterr().out
        stdout_lines = self.run_trace(capsys, "--sample", "2").splitlines()
        assert out.read_text().splitlines() == stdout_lines

    def test_sample_validation(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["trace", "--sample", "0"])
        with pytest.raises(SystemExit):
            main([
                "trace", "--sample", "2",
                "--out", str(tmp_path / "trace.json"),
            ])

    def test_stream_round_trips_the_batch_dump(self, tmp_path, capsys):
        out = tmp_path / "stream.jsonl"
        assert main([
            "trace", "--seed", "1", "--requests", "8",
            "--stream", "--out", str(out),
        ]) == 0
        message = capsys.readouterr().out
        assert "streamed" in message and "peak" in message
        batch = self.run_trace(capsys)
        assert sorted(out.read_text().splitlines()) == sorted(
            batch.splitlines()
        )

    def test_stream_with_sampler_matches_batch_sampling(self, tmp_path, capsys):
        out = tmp_path / "stream.jsonl"
        assert main([
            "trace", "--seed", "1", "--requests", "8",
            "--stream", "--sample", "2", "--out", str(out),
        ]) == 0
        capsys.readouterr()
        sampled = self.run_trace(capsys, "--sample", "2")
        assert sorted(out.read_text().splitlines()) == sorted(
            sampled.splitlines()
        )

    def test_stream_validation(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["trace", "--stream"])  # no --out
        with pytest.raises(SystemExit):
            main([
                "trace", "--stream", "--out", str(tmp_path / "trace.json"),
            ])


class TestTopCommand:
    def test_renders_frames_without_color(self, capsys):
        assert main([
            "top", "--no-color", "--replicas", "2",
            "--requests", "12", "--frames", "2",
        ]) == 0
        out = capsys.readouterr().out
        assert "fleet of 2" in out
        assert "frames rendered" in out
        assert "\x1b[" not in out

    def test_color_frames_home_the_cursor(self, capsys):
        assert main([
            "top", "--replicas", "2", "--requests", "8", "--frames", "1",
        ]) == 0
        out = capsys.readouterr().out
        assert "\x1b[H\x1b[2J" in out

    def test_fail_replica_prints_postmortem(self, capsys):
        assert main([
            "top", "--no-color", "--replicas", "2",
            "--requests", "12", "--frames", "2", "--fail-replica", "1",
        ]) == 0
        out = capsys.readouterr().out
        assert "postmortem: replica_failed" in out
        assert "spans" in out

    def test_unknown_replica_rejected(self):
        with pytest.raises(SystemExit):
            main([
                "top", "--no-color", "--replicas", "2",
                "--requests", "8", "--fail-replica", "9",
            ])

    def test_bad_args_rejected(self):
        with pytest.raises(SystemExit):
            main(["top", "--replicas", "0"])
        with pytest.raises(SystemExit):
            main(["top", "--requests", "0"])
        with pytest.raises(SystemExit):
            main(["top", "--rate", "0"])


class TestMetricsCommand:
    def test_prometheus_dump(self, capsys):
        assert main(["metrics", "--requests", "8"]) == 0
        out = capsys.readouterr().out
        assert "# TYPE" in out
        assert "_total" in out
        assert out.endswith("\n")

    def test_dump_is_deterministic(self, capsys):
        assert main(["metrics", "--requests", "8"]) == 0
        first = capsys.readouterr().out
        assert main(["metrics", "--requests", "8"]) == 0
        assert capsys.readouterr().out == first

    def test_one_shot_http_self_scrape(self, capsys):
        assert main([
            "metrics", "--requests", "6", "--port", "0", "--self-scrape",
        ]) == 0
        out = capsys.readouterr().out
        assert "serving one scrape at http://127.0.0.1:" in out
        assert "served 1 scrape" in out

    def test_bad_requests_rejected(self):
        with pytest.raises(SystemExit):
            main(["metrics", "--requests", "0"])
