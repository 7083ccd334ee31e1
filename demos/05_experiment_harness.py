"""
Experiment harness end to end
=============================

The same loop, driven the way a batch job would do it: a JSON config on
disk, the ``ile`` command, and artifacts in an output directory. It works
in a temporary directory with relative paths, so what it prints is the
same on every run.
"""

import json
import os
import tempfile
from pathlib import Path

from ile.cli import main as ile


def harness():
    data_path = Path("pool.csv")
    out_a = Path("run")

    # ile synth: write a labelled table we can point the config at
    ile(["synth", "blobs", "--classes", "3", "--per-class", "400",
         "--noise", "1.6", "--seed", "55", "--out", str(data_path)])

    config = {
        "data": {"path": str(data_path), "format": "csv"},
        "split": {"labelled_per_class": 5, "validation_count": 300},
        "classifier": {"train": {"epochs": 60}},
        "augment": [
            {"kind": "identity"},
            {"kind": "gaussian_jitter", "sigma": 0.4},
            {"kind": "gaussian_jitter", "sigma": 0.4},
        ],
        "threshold": {"target_accuracy": 0.97},
        "loop": {"max_iterations": 8},
        "seed": 55,
    }
    cfg_path = Path("config.json")
    cfg_path.write_text(json.dumps(config, indent=2))

    # a dry run validates the whole invocation but trains nothing and
    # creates no files
    code = ile(["run", "--config", str(cfg_path), "--out", str(out_a), "--dry-run"])
    print(f"dry run exit code {code}, output dir exists: {out_a.exists()}\n")

    ile(["run", "--config", str(cfg_path), "--out", str(out_a)])
    print(f"\nrun artifacts: {sorted(p.name for p in out_a.iterdir())}\n")

    # ile report: human-readable summary straight from report.json,
    # plus tab-separated curve files for plotting
    ile(["report", str(out_a)])
    print(f"\nafter report: {sorted(p.name for p in out_a.iterdir())}")

    print("first lines of the error curve:")
    for line in (out_a / "curve_error.tsv").read_text().splitlines()[:4]:
        print(f"  {line}")


def demo():
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            harness()
        finally:
            os.chdir(cwd)


if __name__ == "__main__":
    demo()
