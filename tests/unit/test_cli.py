"""Unit tests for the command-line interface (repro.cli)."""

import re
import shlex
from pathlib import Path

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


REPO = Path(__file__).resolve().parents[2]
_SHELL_OPERATORS = {"|", "||", "&&", ";", "&", ">", ">>", "2>", "2>&1"}


def _shell_lines(text):
    """Token lists of the shell commands in ``text`` (backslash
    continuations joined, quoted arguments allowed to span lines)."""
    pending = ""
    for line in text.replace("\\\n", " ").splitlines():
        pending = f"{pending}\n{line}" if pending else line
        try:
            tokens = shlex.split(pending, comments=True)
        except ValueError:  # a quoted argument continues on the next line
            continue
        pending = ""
        yield tokens


def _repro_argv(tokens):
    """The argv after ``python -m repro`` in one command, or None."""
    for i, token in enumerate(tokens):
        if token in ("python", "python3") and tokens[i + 1:i + 3] == [
                "-m", "repro"]:
            argv = []
            for arg in tokens[i + 3:]:
                if arg in _SHELL_OPERATORS:
                    break
                argv.append(arg)
            return argv
    return None


def _documented_commands():
    from repro import cli

    sources = {"repro.cli": [cli.__doc__]}
    for name in ("EXPERIMENTS.md", "README.md"):
        text = (REPO / name).read_text()
        sources[name] = re.findall(r"^```[^\n]*\n(.*?)^```", text,
                                   flags=re.M | re.S)
    found = {}
    for origin, texts in sources.items():
        commands = [argv for text in texts for tokens in _shell_lines(text)
                    if (argv := _repro_argv(tokens)) is not None]
        found[origin] = commands
    return found


DOCUMENTED = _documented_commands()


def test_every_doc_source_names_cli_commands():
    assert all(DOCUMENTED.values()), {k: len(v) for k, v in
                                      DOCUMENTED.items()}


@pytest.mark.parametrize("argv", [
    pytest.param(argv, id=f"{origin}:{i}:{argv[0] if argv else ''}")
    for origin, commands in DOCUMENTED.items()
    for i, argv in enumerate(commands)
])
def test_documented_command_parses(argv):
    """Every ``python -m repro ...`` command in the CLI docstring and
    the fenced blocks of the docs is accepted by the parser (not run)."""
    from repro.cli import build_parser

    args = build_parser().parse_args(argv)
    assert callable(args.func)
