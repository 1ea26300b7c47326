"""Smoke tests: the cheap examples must run end-to-end as scripts."""

import pathlib
import runpy

import pytest

EXAMPLES = pathlib.Path(__file__).parent.parent / "examples"


def run_example(name):
    path = EXAMPLES / name
    assert path.exists(), f"example {name} missing"
    runpy.run_path(str(path), run_name="__main__")


class TestExamples:
    def test_quickstart(self, capsys):
        run_example("quickstart.py")
        out = capsys.readouterr().out
        assert "Theorem 1" in out
        assert "Theorem 3" in out
        assert "Theorem 4" in out

    def test_parallel_query_scheduling(self, capsys):
        run_example("parallel_query_scheduling.py")
        out = capsys.readouterr().out
        assert "identical schedule" in out

    def test_multipass_progress(self, capsys):
        run_example("multipass_progress.py")
        out = capsys.readouterr().out
        assert "potential Phi per stage" in out

    @pytest.mark.slow
    def test_adversarial_robustness_demo(self, capsys):
        run_example("adversarial_robustness_demo.py")
        out = capsys.readouterr().out
        assert "BROKEN" in out
        assert "SURVIVED" in out
