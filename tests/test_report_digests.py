"""Smoke test of tools/report_digests.py: the same run prints the same digest."""

import importlib.util
import os
import re
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "report_digests.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("report_digests", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_report_digests_repeat_exactly(capsys, monkeypatch):
    tool = load_tool()
    small = {"synth": {"kind": "blobs", "classes": 3, "per_class": 30, "noise": 1.0}}
    split = {"labelled_per_class": 3, "validation_count": 20}
    config = tool._fixture(data=small, split=split, loop={"max_iterations": 3})
    monkeypatch.setitem(tool.CONFIGS, "small", config)
    cwd = os.getcwd()
    outputs = []
    for _ in range(2):
        assert tool.main(["--configs", "small", "--seeds", "3"]) == 0
        outputs.append(capsys.readouterr().out)
    assert os.getcwd() == cwd
    assert re.fullmatch(r"small 3 [0-9a-f]{64}\n", outputs[0])
    assert outputs[1] == outputs[0]
