"""Tests for the CLI and the report assembler."""

import pytest

from repro.analysis.report import build_report
from repro.cli import EXPERIMENTS, build_parser, main


class TestParser:
    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for eid in EXPERIMENTS:
            assert eid in out

    def test_run_requires_known_experiment(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "zzz"])

    def test_missing_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestAlgorithms:
    def test_lists_registry(self, capsys):
        from repro.engine import REGISTRY

        assert main(["algorithms"]) == 0
        out = capsys.readouterr().out
        for name in REGISTRY.names():
            assert name in out

    def test_lists_exactly_the_eight_registered_algorithms(self, capsys):
        # The full roster, pinned: a silently dropped (or renamed)
        # registration must fail loudly here.
        from repro.engine import REGISTRY

        expected = [
            "acs22", "cgs22", "deterministic", "list_coloring", "naive",
            "palette_sparsification", "robust", "robust_lowrandom",
        ]
        assert REGISTRY.names() == expected
        assert main(["algorithms"]) == 0
        out = capsys.readouterr().out
        for name in expected:
            assert name in out


class TestErrorHandling:
    def test_bad_int_list_exits_2_without_traceback(self, capsys):
        assert main(["run", "t1", "--deltas", "2,x"]) == 2
        captured = capsys.readouterr()
        assert "error" in captured.err
        assert "Traceback" not in captured.err

    def test_bad_float_list_exits_2(self, capsys):
        assert main(["run", "t5", "--betas", "0,zz"]) == 2
        assert "comma-separated" in capsys.readouterr().err

    def test_bad_workers_exits_2(self, capsys):
        assert main(["run", "t1", "--n", "16", "--deltas", "2",
                     "--workers", "0"]) == 2
        assert "workers" in capsys.readouterr().err

    def test_bad_stream_backend_exits_2(self, capsys):
        assert main(["run", "t1", "--n", "16", "--deltas", "2",
                     "--stream-backend", "carrier-pigeon"]) == 2
        err = capsys.readouterr().err
        assert "stream backend" in err
        assert "Traceback" not in err

    def test_bad_chunk_size_exits_2(self, capsys):
        assert main(["run", "t1", "--n", "16", "--deltas", "2",
                     "--chunk-size", "0"]) == 2
        assert "chunk size" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["run", "t1", "--n", "16", "--deltas", "2"],
        ["profile", "--algorithms", "naive"],
    ], ids=["run", "profile"])
    def test_removed_kernel_tier_option_rejected_by_parser(self, argv):
        with pytest.raises(SystemExit) as excinfo:
            main([*argv, "--kernel-tier", "numpy"])
        assert excinfo.value.code == 2

    def test_unknown_experiment_rejected_by_parser(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "zzz"])
        assert excinfo.value.code == 2

    def test_verify_bad_family_exits_2(self, capsys):
        assert main(["verify", "--family", "petersen"]) == 2
        err = capsys.readouterr().err
        assert "unknown family" in err
        assert "Traceback" not in err

    def test_verify_bad_order_exits_2(self, capsys):
        assert main(["verify", "--order", "sideways"]) == 2
        assert "unknown order" in capsys.readouterr().err

    def test_verify_bad_algorithm_exits_2(self, capsys):
        assert main(["verify", "--algorithms", "quantum"]) == 2
        assert "unknown algorithm" in capsys.readouterr().err

    def test_verify_bad_chunk_sizes_exit_2(self, capsys):
        assert main(["verify", "--chunk-sizes", "0"]) == 2
        assert "chunk sizes" in capsys.readouterr().err
        assert main(["verify", "--chunk-sizes", "x,y"]) == 2
        assert "comma-separated" in capsys.readouterr().err

    def test_verify_bad_n_exits_2(self, capsys):
        assert main(["verify", "--n", "0"]) == 2
        assert "--n" in capsys.readouterr().err

    def test_verify_all_conflicts_with_algorithms(self, capsys):
        assert main(["verify", "--all", "--algorithms", "naive"]) == 2
        assert "mutually exclusive" in capsys.readouterr().err


class TestVerify:
    def test_small_verify_run_is_clean(self, capsys):
        assert main([
            "verify", "--algorithms", "naive,cgs22", "--family",
            "power_law,empty", "--order", "random", "--chunk-sizes", "16",
            "--n", "20",
        ]) == 0
        out = capsys.readouterr().out
        assert "guarantee verification" in out
        assert "all guarantees hold" in out

    def test_injected_violation_exits_2(self, capsys, monkeypatch):
        # A deliberately shrunk palette claim must be caught and turned
        # into exit code 2 (the ISSUE 4 acceptance path).
        from test_verify import registry_with_shrunk_palette

        monkeypatch.setattr(
            "repro.cli.REGISTRY", registry_with_shrunk_palette("naive")
        )
        assert main([
            "verify", "--algorithms", "naive", "--family", "power_law",
            "--order", "random", "--chunk-sizes", "16", "--n", "20",
        ]) == 2
        err = capsys.readouterr().err
        assert "violation" in err
        assert "colors" in err


class TestRun:
    def test_run_t1_small(self, capsys):
        assert main(["run", "t1", "--n", "20", "--deltas", "2,3"]) == 0
        out = capsys.readouterr().out
        assert "passes" in out
        assert "t1:" in out

    def test_run_t10(self, capsys):
        assert main(["run", "t10", "--n", "24"]) == 0
        assert "bound" in capsys.readouterr().out

    def test_run_t1_on_block_backend(self, capsys):
        assert main(["run", "t1", "--n", "20", "--deltas", "2,3",
                     "--stream-backend", "materialized",
                     "--chunk-size", "64"]) == 0
        assert "t1:" in capsys.readouterr().out

    def test_stream_backend_default_restored_after_run(self):
        from repro.engine import set_default_stream
        from repro.engine.runner import get_default_stream

        before = get_default_stream()
        assert main(["run", "t1", "--n", "20", "--deltas", "2",
                     "--stream-backend", "tokens", "--chunk-size", "7"]) == 0
        assert get_default_stream() == before
        # A default set by the caller survives the run too.
        set_default_stream(backend="generator", chunk_size=5)
        try:
            assert main(["run", "t1", "--n", "20", "--deltas", "2",
                         "--stream-backend", "tokens"]) == 0
            assert get_default_stream() == ("generator", 5)
        finally:
            set_default_stream(*before)

    def test_workers_default_restored_after_run(self):
        from repro.engine import set_default_workers
        from repro.engine.grid import get_default_workers

        before = get_default_workers()
        set_default_workers(3)
        try:
            assert main(["run", "t1", "--n", "20", "--deltas", "2",
                         "--workers", "1"]) == 0
            assert get_default_workers() == 3
        finally:
            set_default_workers(before)

    def test_run_t6_small(self, capsys):
        assert main([
            "run", "t6", "--n", "30", "--delta", "5", "--rounds", "40",
            "--trials", "1",
        ]) == 0
        assert "adversary" in capsys.readouterr().out

    def test_run_a4_small(self, capsys):
        assert main(["run", "a4", "--n", "20", "--delta", "4"]) == 0
        assert "prime" in capsys.readouterr().out

    def test_run_f3_small(self, capsys):
        assert main([
            "run", "f3", "--n", "16", "--delta", "3", "--universe", "12",
        ]) == 0
        assert "mass" in capsys.readouterr().out


class TestResume:
    def test_resume_completes_a_checkpointed_run(self, tmp_path, capsys):
        from repro.engine import RunSpec
        from repro.persist import ResumableRun

        path = str(tmp_path / "run.ck")
        spec = RunSpec(algorithm="deterministic", n=32, delta=4, seed=2,
                       graph_seed=2, stream_backend="materialized",
                       chunk_size=8, verify=True)
        driver = ResumableRun(spec)
        driver.step()
        driver.save(path)
        driver.close()
        assert main(["run", "--resume", path]) == 0
        out = capsys.readouterr().out
        assert "deterministic" in out and "resumed from" in out

    def test_resume_missing_file_exits_2(self, tmp_path, capsys):
        assert main(["run", "--resume", str(tmp_path / "nope.ck")]) == 2
        err = capsys.readouterr().err
        assert "error" in err and "Traceback" not in err

    def test_resume_wrong_magic_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.ck"
        bad.write_bytes(b"NOTMAGIC" + b"\x00" * 64)
        assert main(["run", "--resume", str(bad)]) == 2
        assert "not a repro checkpoint" in capsys.readouterr().err

    def test_resume_corrupt_header_exits_2(self, tmp_path, capsys):
        from repro.persist import write_checkpoint

        path = tmp_path / "corrupt.ck"
        write_checkpoint(path, {"kind": "run"}, {})
        blob = bytearray(path.read_bytes())
        blob[-4] ^= 0xFF
        path.write_bytes(bytes(blob))
        assert main(["run", "--resume", str(path)]) == 2
        assert "Traceback" not in capsys.readouterr().err

    def test_resume_conflicts_with_experiment(self, tmp_path, capsys):
        assert main(["run", "t1", "--resume", str(tmp_path / "x.ck")]) == 2
        assert "resume" in capsys.readouterr().err

    def test_run_without_experiment_or_resume_exits_2(self, capsys):
        assert main(["run"]) == 2
        assert "repro list" in capsys.readouterr().err


class TestServeSubmitValidation:
    def test_serve_needs_port_or_stdio(self, capsys):
        assert main(["serve"]) == 2
        assert "--port" in capsys.readouterr().err

    def test_serve_port_and_stdio_conflict(self, capsys):
        assert main(["serve", "--port", "1", "--stdio"]) == 2
        assert "mutually exclusive" in capsys.readouterr().err

    def test_serve_bad_port_exits_2(self, capsys):
        assert main(["serve", "--port", "70000"]) == 2
        assert "--port" in capsys.readouterr().err

    def test_serve_bad_session_limits_exit_2(self, capsys):
        assert main(["serve", "--port", "0", "--max-sessions", "0"]) == 2
        assert "max_sessions" in capsys.readouterr().err
        assert main(["serve", "--port", "0", "--max-resident", "0"]) == 2
        assert "max_resident" in capsys.readouterr().err

    def test_submit_unknown_algorithm_exits_2(self, capsys):
        assert main(["submit", "--port", "1", "--algorithm", "quantum"]) == 2
        assert "unknown algorithm" in capsys.readouterr().err

    def test_submit_unknown_family_exits_2(self, capsys):
        assert main(["submit", "--port", "1", "--family", "petersen"]) == 2
        assert "unknown family" in capsys.readouterr().err

    def test_submit_unknown_order_exits_2(self, capsys):
        assert main(["submit", "--port", "1", "--order", "sideways"]) == 2
        assert "unknown order" in capsys.readouterr().err

    def test_submit_bad_sizes_exit_2(self, capsys):
        assert main(["submit", "--port", "1", "--n", "0"]) == 2
        assert "--n" in capsys.readouterr().err
        assert main(["submit", "--port", "1", "--chunk-size", "0"]) == 2
        assert "chunk size" in capsys.readouterr().err
        assert main(["submit", "--port", "1", "--feed-edges", "0"]) == 2
        assert "feed-edges" in capsys.readouterr().err

    def test_submit_unreachable_server_exits_2(self, capsys):
        # Port 1 is never listening in test environments.
        assert main(["submit", "--port", "1", "--n", "8"]) == 2
        assert "cannot connect" in capsys.readouterr().err


class TestServeSubmitEndToEnd:
    def test_submit_against_live_server(self, capsys):
        import asyncio
        import threading

        from repro.service import ColoringService

        service = ColoringService(max_sessions=8)
        started = threading.Event()
        state = {}

        def serve():
            async def go():
                server = await service.serve_tcp("127.0.0.1", 0)
                state["port"] = server.sockets[0].getsockname()[1]
                started.set()
                async with server:
                    await service.shutdown_event.wait()

            asyncio.run(go())

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        assert started.wait(timeout=10)
        try:
            assert main([
                "submit", "--port", str(state["port"]), "--algorithm",
                "robust", "--family", "power_law", "--n", "48",
                "--order", "random",
            ]) == 0
            out = capsys.readouterr().out
            assert "robust" in out and "True" in out
        finally:
            from repro.service import ServiceClient

            async def stop():
                async with await ServiceClient.connect(
                    "127.0.0.1", state["port"]
                ) as client:
                    await client.shutdown()

            asyncio.run(stop())
            thread.join(timeout=10)
            service.manager.close()


class TestReport:
    def test_report_from_dir(self, tmp_path, capsys):
        (tmp_path / "t1_passes_vs_delta.txt").write_text("T1 table\nrow\n")
        (tmp_path / "zz_custom.txt").write_text("custom\n")
        assert main(["report", "--results", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "t1_passes_vs_delta" in out
        assert "zz_custom" in out
        assert out.index("t1_passes_vs_delta") < out.index("zz_custom")

    def test_report_to_file(self, tmp_path, capsys):
        (tmp_path / "t2_space_vs_n.txt").write_text("table\n")
        out_file = tmp_path / "report.md"
        assert main(["report", "--results", str(tmp_path),
                     "-o", str(out_file)]) == 0
        assert "table" in out_file.read_text()

    def test_report_empty_dir(self, tmp_path):
        text = build_report(tmp_path)
        assert "no archived tables" in text

    def test_build_report_orders_known_first(self, tmp_path):
        (tmp_path / "a1_selection_ablation.txt").write_text("a1\n")
        (tmp_path / "t4_robust_colors.txt").write_text("t4\n")
        text = build_report(tmp_path)
        assert text.index("t4_robust_colors") < text.index("a1_selection_ablation")


class TestShardCommand:
    @staticmethod
    def _flat_file(tmp_path):
        from repro.streaming import write_edge_file

        path = tmp_path / "edges.bin"
        write_edge_file(path, 5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
        return path

    def test_convert_then_inspect_then_verify(self, tmp_path, capsys):
        flat = self._flat_file(tmp_path)
        out = tmp_path / "edges.shards"
        assert main(["shard", "convert", str(flat), "--out", str(out),
                     "--shard-rows", "2"]) == 0
        text = capsys.readouterr().out
        assert "n=5 m=5 in 3 shard(s)" in text

        assert main(["shard", "inspect", str(out)]) == 0
        table = capsys.readouterr().out
        assert "shard-00000" in table and "row_start" in table

        assert main(["shard", "verify", str(out)]) == 0
        assert "all payload checksums match" in capsys.readouterr().out

    def test_inspect_json_is_the_manifest(self, tmp_path, capsys):
        import json

        flat = self._flat_file(tmp_path)
        out = tmp_path / "edges.shards"
        assert main(["shard", "convert", str(flat), "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["shard", "inspect", str(out), "--json"]) == 0
        manifest = json.loads(capsys.readouterr().out)
        assert manifest["magic"] == "REPROED2"
        assert manifest["m"] == 5

    def test_convert_without_out_exits_2(self, tmp_path, capsys):
        flat = self._flat_file(tmp_path)
        assert main(["shard", "convert", str(flat)]) == 2
        assert "needs --out" in capsys.readouterr().err

    def test_bad_shard_rows_exits_2(self, tmp_path, capsys):
        flat = self._flat_file(tmp_path)
        assert main(["shard", "convert", str(flat),
                     "--out", str(tmp_path / "o"), "--shard-rows", "0"]) == 2
        assert "--shard-rows" in capsys.readouterr().err

    def test_missing_source_exits_2(self, tmp_path, capsys):
        assert main(["shard", "convert", str(tmp_path / "nope.bin"),
                     "--out", str(tmp_path / "o")]) == 2
        assert "error" in capsys.readouterr().err

    def test_inspect_non_container_exits_2(self, tmp_path, capsys):
        assert main(["shard", "inspect", str(tmp_path)]) == 2
        assert "not a sharded edge container" in capsys.readouterr().err

    def test_verify_corrupted_container_exits_2(self, tmp_path, capsys):
        from repro.streaming import read_shard_manifest

        flat = self._flat_file(tmp_path)
        out = tmp_path / "edges.shards"
        assert main(["shard", "convert", str(flat), "--out", str(out)]) == 0
        capsys.readouterr()
        manifest = read_shard_manifest(out)
        shard = out / manifest["shards"][0]["name"]
        data = bytearray(shard.read_bytes())
        data[-1] ^= 0x01
        shard.write_bytes(bytes(data))
        assert main(["shard", "verify", str(out)]) == 2
        assert "checksum mismatch" in capsys.readouterr().err

    def test_run_accepts_sharded_backend(self, capsys):
        assert main(["run", "t1", "--n", "16", "--deltas", "3",
                     "--stream-backend", "sharded_file"]) == 0
        assert "passes vs Delta" in capsys.readouterr().out
