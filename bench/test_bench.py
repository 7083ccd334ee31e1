"""Tests of the benchmark itself, on tiny inputs.

Run from the repository root with `python3 -m pytest -q bench`. Each test
works in a temporary copy of the checkout, so nothing is written into the
source tree.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from tracing import PER_LAYER, Spans  # noqa: E402
from workloads import SMOKE_WORKLOADS, Workload  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _copy_checkout(dest, with_src=True):
    dest.mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    shutil.copytree(BENCH, dest / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    if with_src:
        shutil.copytree(ROOT / "src", dest / "src", ignore=shutil.ignore_patterns("__pycache__"))
    return dest


def _bench(checkout, *args):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=checkout, capture_output=True, text=True, timeout=170,
    )


@pytest.fixture(scope="module")
def checkout(tmp_path_factory):
    return _copy_checkout(tmp_path_factory.mktemp("bench") / "checkout")


@pytest.fixture(scope="module")
def smoke_results(checkout):
    """Last stdout line of every smoke run, keyed by (workload, trace)."""
    results = {}
    for workload in SMOKE_WORKLOADS:
        for trace in ("0", "1"):
            proc = _bench(checkout, "--workload", workload, "--seed", "0",
                          "--seconds", "1", "--trace", trace, "--smoke")
            assert proc.returncode == 0, proc.stderr
            results[workload, trace] = json.loads(proc.stdout.strip().splitlines()[-1])
    return results


def test_benchmark_json_matches_the_metric_tables():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(run.WORKLOADS)
    for section, table in (("end_to_end", run.END_TO_END), ("per_layer", PER_LAYER)):
        assert {m["name"]: (m["unit"], m["better"]) for m in SPEC[section]} == table
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", sorted(SMOKE_WORKLOADS))
def test_smoke_run_emits_every_metric_with_its_unit(smoke_results, workload, trace):
    result = smoke_results[workload, trace]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    section = "per_layer" if trace == "1" else "end_to_end"
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float)) and np.isfinite(metric["value"])


def test_self_time_plus_child_time_is_each_span_duration(smoke_results, checkout):
    (spans_file,) = (checkout / ".bench_work" / "digits_pool-seed0-trace1").glob("spans-*.npz")
    spans = Spans(spans_file)
    assert len(spans) > 0
    children = {}
    for i, parent in enumerate(spans.parent.tolist()):
        if parent >= 0:
            children.setdefault(parent, []).append(i)
            assert spans.start[parent] <= spans.start[i] <= spans.end[i] <= spans.end[parent]
    for i in range(len(spans)):
        child_time = sum(spans.duration[c] for c in children.get(i, []))
        assert spans.self_time[i] + child_time == pytest.approx(spans.duration[i], abs=1e-12)
        assert spans.self_time[i] >= -1e-9
    roots = spans.parent < 0
    assert spans.self_time.sum() == pytest.approx(spans.duration[roots].sum(), rel=1e-9)
    runs = set(spans.run.tolist())
    assert runs == {-1, 0}  # one repeat; load and artifacts lie outside it


def test_broken_run_is_counted_as_failed(tmp_path):
    checkout = _copy_checkout(tmp_path / "checkout")
    good = SMOKE_WORKLOADS["rings_fit"]
    config = dict(good.config, split={"labelled_per_class": good.per_class + 1,
                                      "validation_count": 0})
    broken = Workload(good.name, good.kind, good.classes, good.per_class, good.noise, config)
    result, record = run.measure(broken, seed=0, seconds=1, trace=False, root=checkout)
    assert result["correct"] is False and result["metrics"] == {}
    # set-up probes stop before the split, so only full executions fail
    assert result["failed"] == result["attempted"] - run.SETUP_PROBES >= 1
    assert "exited with 2" in record["errors"][0]


def test_changed_report_is_counted_as_failed(tmp_path, monkeypatch):
    reports = iter([b'{"x": 1}', b'{"x": 2}'])

    def fake_spawn(src, config_path, out_dir, deadline, trace_path=None, setup_only=False):
        out_dir.mkdir(parents=True)
        (out_dir / "report.json").write_bytes(next(reports))
        return {"setup_s": 0.1, "run_s": 0.2, "peak_rss_kb": 1}

    monkeypatch.setattr(run, "spawn", fake_spawn)
    monkeypatch.setattr(run, "conservation_errors", lambda payload, labelled, total: [])
    monkeypatch.setattr(run, "quality", lambda payload: {})
    harness = run.Harness(SMOKE_WORKLOADS["rings_fit"], None, None, tmp_path, deadline=1e18)
    assert harness.execute() is not None
    assert harness.execute() is None
    assert (harness.attempted, harness.failed) == (2, 1)
    assert "differs" in harness.errors[0]


def test_conservation_check_catches_leaks():
    def report(dl_sizes, du_sizes, added):
        return {"iterations": [
            {"iteration": i + 1, "dl_size": dl, "du_size": du, "added_count": a}
            for i, (dl, du, a) in enumerate(zip(dl_sizes, du_sizes, added))
        ]}

    assert run.conservation_errors(report([10, 15], [90, 85], [5, 0]), 10, 100) == []
    assert run.conservation_errors(report([10, 16], [90, 84], [5, 0]), 10, 100)
    assert run.conservation_errors(report([10, 15], [90, 86], [5, 0]), 10, 100)
    assert run.conservation_errors(report([11, 16], [89, 84], [5, 0]), 10, 100)
    assert run.conservation_errors({"repeats": [report([10], [90], [0]),
                                                report([], [], [])]}, 10, 100)


def test_bare_directory_fails_without_a_result(tmp_path):
    bare = _copy_checkout(tmp_path / "bare", with_src=False)
    proc = _bench(bare, "--workload", "rings_fit", "--seed", "0", "--seconds", "1",
                  "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
