"""Unit tests for the command-line interface (repro.cli)."""

import pytest

from repro.cli import main

PARAMS = ["--capacity", "10e9", "--flows", "50", "--q0", "2.5e6",
          "--buffer", "20e6"]


class TestAnalyze:
    def test_stable_config_exits_zero(self, capsys):
        code = main(["analyze", *PARAMS])
        out = capsys.readouterr().out
        assert code == 0
        assert "strongly stable: True" in out
        assert "case1" in out

    def test_unstable_config_exits_nonzero(self, capsys):
        code = main(["analyze", "--capacity", "10e9", "--flows", "50",
                     "--q0", "2.5e6", "--buffer", "5e6"])
        out = capsys.readouterr().out
        assert code == 1
        assert "strongly stable: False" in out

    def test_plot_flag_renders_ascii(self, capsys):
        main(["analyze", *PARAMS, "--plot"])
        out = capsys.readouterr().out
        assert "phase plane" in out
        assert "+---" in out


class TestDesign:
    def test_admitted_config(self, capsys):
        code = main(["design", *PARAMS])
        out = capsys.readouterr().out
        assert code == 0
        assert "ADMITTED" in out
        assert "max flows" in out

    def test_rejected_config(self, capsys):
        code = main(["design", "--capacity", "10e9", "--flows", "50",
                     "--q0", "2.5e6", "--buffer", "5e6"])
        assert code == 1
        assert "REJECTED" in capsys.readouterr().out


class TestSimulate:
    def test_simulate_reports_metrics(self, capsys):
        code = main(["simulate", "--capacity", "1e8", "--flows", "4",
                     "--q0", "1e5", "--buffer", "1e6", "--pm", "0.1",
                     "--ru", "1e5", "--duration", "0.02"])
        out = capsys.readouterr().out
        assert code == 0
        assert "utilization" in out
        assert "Jain fairness" in out


class TestParser:
    def test_missing_command_rejected(self):
        with pytest.raises(SystemExit):
            main([])

    def test_missing_required_arg_rejected(self):
        with pytest.raises(SystemExit):
            main(["analyze", "--capacity", "1e9"])


class TestSubmitHelp:
    @staticmethod
    def _job_example() -> dict:
        import argparse
        import json
        import re

        from repro.cli import build_parser

        sub = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        job = next(a for a in sub.choices["submit"]._actions
                   if a.dest == "job")
        match = re.search(r"'(\{.*\})'", job.help)
        assert match, job.help
        return json.loads(match.group(1))

    def test_example_job_names_a_registered_preset(self):
        from repro.scenarios import preset_names

        assert self._job_example()["preset"] in preset_names()

    def test_example_job_canonicalises(self):
        from repro.serve.jobs import job_key, normalize_request

        request = normalize_request(self._job_example())
        assert request.job_kind == "scenario"
        assert job_key(request)


def test_compiled_fallback_warning_names_the_missing_toolchain(
        monkeypatch, capsys):
    from repro import cli
    from repro.kernels import reset_backend

    monkeypatch.setenv("REPRO_KERNEL_BACKEND", "numpy")
    reset_backend()
    try:
        assert cli._resolve_packet_engine("compiled") == "batched"
    finally:
        monkeypatch.undo()
        reset_backend()
    err = capsys.readouterr().err
    assert "no C compiler or cffi was found" in err
