"""Smoke test of tools/report_digests.py: the same run prints the same digest."""

import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "report_digests.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("report_digests", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def small_config(tool):
    """The acceptance fixture shrunk to a run of about a second."""
    small = {"synth": {"kind": "blobs", "classes": 3, "per_class": 30, "noise": 1.0}}
    split = {"labelled_per_class": 3, "validation_count": 20}
    return tool._fixture(data=small, split=split, loop={"max_iterations": 3})


def test_report_digests_repeat_exactly(capsys, monkeypatch):
    tool = load_tool()
    monkeypatch.setitem(tool.CONFIGS, "small", small_config(tool))
    cwd = os.getcwd()
    outputs = []
    for _ in range(2):
        assert tool.main(["--configs", "small", "--seeds", "3"]) == 0
        outputs.append(capsys.readouterr().out)
    assert os.getcwd() == cwd
    assert re.fullmatch(r"small 3 [0-9a-f]{64}\n", outputs[0])
    assert outputs[1] == outputs[0]


def run_tool_on_the_small_config(tmp_path, **env):
    """The tool's stdout and stderr in a fresh process, with ``env`` added."""
    code = (
        "import sys, test_report_digests as t; tool = t.load_tool(); "
        "tool.CONFIGS['small'] = t.small_config(tool); "
        "sys.exit(tool.main(['--configs', 'small', '--seeds', '3']))"
    )
    environ = {k: v for k, v in os.environ.items() if k != "ILE_LOG"}
    path = [str(ROOT / "src"), str(ROOT / "tests"), environ.get("PYTHONPATH", "")]
    environ.update(env, PYTHONPATH=os.pathsep.join(filter(None, path)))
    done = subprocess.run(
        [sys.executable, "-c", code],
        cwd=tmp_path, env=environ, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert re.fullmatch(r"small 3 [0-9a-f]{64}\n", done.stdout)
    return done.stderr


def test_report_digests_runs_log_only_errors_unless_asked(tmp_path):
    assert run_tool_on_the_small_config(tmp_path) == ""
    assert "INFO ile:" in run_tool_on_the_small_config(tmp_path, ILE_LOG="info")
