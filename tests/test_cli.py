import json

import numpy as np
import pytest

from ile import TrainingError
from ile.cli import main


def run_cli(*argv):
    return main(list(argv))


def config_file(tmp_path, **over):
    raw = {
        "data": {"synth": {"kind": "blobs", "classes": 3, "per_class": 40, "noise": 0.8}},
        "split": {"labelled_per_class": 5, "validation_count": 20},
        "classifier": {"train": {"epochs": 30}},
        "threshold": {"target_accuracy": 0.95},
        "loop": {"max_iterations": 2},
        "seed": 13,
    }
    raw.update(over)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    return str(path)


# ---------------------------------------------------------------------------
# synth
# ---------------------------------------------------------------------------

def test_synth_writes_a_csv(tmp_path, capsys):
    out = tmp_path / "data.csv"
    code = run_cli(
        "synth", "blobs", "--classes", "3", "--per-class", "4", "--out", str(out)
    )
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "id,label,f0,f1"
    assert len(lines) == 1 + 12
    assert "wrote 12 samples" in capsys.readouterr().out


def test_synth_same_args_are_byte_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["synth", "moons", "--per-class", "9", "--noise", "0.4", "--seed", "3"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    c = tmp_path / "c.csv"
    assert main(["synth", "moons", "--per-class", "9", "--noise", "0.4", "--seed", "4", "--out", str(c)]) == 0
    assert a.read_bytes() != c.read_bytes()


def test_synth_usage_errors(tmp_path):
    out = str(tmp_path / "x.csv")
    assert run_cli("synth", "blobs", "--per-class", "0", "--out", out) == 1
    assert run_cli("synth", "mandelbrot", "--per-class", "5", "--out", out) == 1
    assert run_cli("synth", "blobs", "--per-class", "5") == 1  # --out required
    assert run_cli("frobnicate") == 1


def test_synth_rejects_non_finite_noise_and_writes_nothing(tmp_path, capsys):
    out = tmp_path / "x.csv"
    for noise in ("nan", "inf"):
        assert run_cli("synth", "blobs", "--per-class", "5", "--noise", noise, "--out", str(out)) == 1
        assert "noise must be a finite number" in capsys.readouterr().err
    assert not out.exists()


def test_run_rejects_infinite_synth_noise_as_a_usage_error(tmp_path, capsys):
    data = {"synth": {"kind": "blobs", "classes": 3, "per_class": 40, "noise": float("inf")}}
    cfg = config_file(tmp_path, data=data)
    assert '"noise": Infinity' in open(cfg).read()
    assert run_cli("run", "--config", cfg, "--out", str(tmp_path / "o")) == 1
    assert "noise must be a finite number" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_synth_into_a_missing_directory_is_a_data_error(tmp_path, capsys):
    out = tmp_path / "missing" / "x.csv"
    assert run_cli("synth", "blobs", "--per-class", "5", "--out", str(out)) == 2
    assert f"data error: cannot write {out}:" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------

def test_run_produces_artifacts(tmp_path, capsys):
    cfg = config_file(tmp_path)
    out = tmp_path / "out"
    assert run_cli("run", "--config", cfg, "--out", str(out)) == 0
    payload = json.loads((out / "report.json").read_text())
    lines = (out / "metrics.csv").read_text().strip().split("\n")
    assert len(lines) == 1 + len(payload["repeats"][0]["iterations"])
    assert "final validation error" in capsys.readouterr().out


def test_run_exit_codes(tmp_path):
    missing_cfg = str(tmp_path / "none.json")
    assert run_cli("run", "--config", missing_cfg, "--out", str(tmp_path / "o")) == 1

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"nope": 1}))
    assert run_cli("run", "--config", str(bad), "--out", str(tmp_path / "o")) == 1

    cfg = config_file(tmp_path)
    assert run_cli("run", "--config", cfg) == 1  # no output dir anywhere
    # runs are serial; there is no worker-count flag
    assert run_cli("run", "--config", cfg, "--out", str(tmp_path / "o"), "--workers", "2") == 1

    wrong_type = config_file(tmp_path, loop={"rescore_admitted": "false"})
    assert run_cli("run", "--config", wrong_type, "--out", str(tmp_path / "o")) == 1


def test_infinite_metric_weights_are_a_config_error(tmp_path, capsys):
    # every confidence would be inf and pass the inf cut that admits nothing
    cfg = config_file(tmp_path, confidence={"weights": [float("inf"), 0, 0]})
    out = tmp_path / "o"
    assert run_cli("run", "--config", cfg, "--out", str(out)) == 1
    assert "metric weights must be finite" in capsys.readouterr().err
    assert not out.exists()


def test_run_missing_data_file_names_the_path(tmp_path, capsys):
    cfg = config_file(tmp_path, data={"path": str(tmp_path / "ghost.csv")})
    code = run_cli("run", "--config", cfg, "--out", str(tmp_path / "o"))
    assert code == 2
    err = capsys.readouterr().err
    assert "ghost.csv" in err


def test_run_rejects_non_finite_features_with_exit_two(tmp_path, capsys):
    data = tmp_path / "data.csv"
    data.write_text("id,label,f0\n0,0,1.0\n1,1,nan\n2,1,2.0\n")
    cfg = config_file(tmp_path, data={"path": str(data)})
    assert run_cli("run", "--config", cfg, "--out", str(tmp_path / "o")) == 2
    assert "sample 1 has a non-finite feature" in capsys.readouterr().err


def test_run_on_a_header_only_table_exits_two(tmp_path, capsys):
    data = tmp_path / "data.csv"
    data.write_text("id,label,f0,f1\n")
    cfg = config_file(tmp_path, data={"path": str(data)})
    assert run_cli("run", "--config", cfg, "--out", str(tmp_path / "o")) == 2
    assert "ground-truth" in capsys.readouterr().err


def test_run_with_an_unlabelled_pool_reports_no_addition_accuracy(tmp_path):
    # 15 labelled rows per class fill D_l (5 each) and validation (30);
    # every pool row has an empty label
    from ile import generate, save_table
    from dataclasses import replace

    samples = generate("blobs", 3, 40, 0.8, seed=5)
    unknown = np.where(samples.ids % 40 < 15, samples.true_label, -1)
    rows = replace(samples, true_label=unknown, label=unknown)
    data = tmp_path / "data.csv"
    save_table(rows, str(data))
    cfg = config_file(
        tmp_path,
        data={"path": str(data)},
        split={"labelled_per_class": 5, "validation_count": 30},
    )
    out = tmp_path / "o"
    assert run_cli("run", "--config", cfg, "--out", str(out)) == 0
    records = json.loads((out / "report.json").read_text())["repeats"][0]["iterations"]
    assert records[0]["du_size"] == 3 * 25
    assert sum(r["added_count"] for r in records) > 0
    for r in records:
        assert r["addition_accuracy"] is None
        assert r["cumulative_addition_accuracy"] is None
    assert run_cli("report", str(out)) == 0


def test_diverging_training_exits_with_three(tmp_path, capsys):
    cfg = config_file(
        tmp_path,
        classifier={
            "architecture": "mlp",
            "hidden_units": 8,
            "train": {"epochs": 200, "learning_rate": 1e6},
        },
    )
    with np.errstate(over="ignore", invalid="ignore"):
        assert run_cli("run", "--config", cfg, "--out", str(tmp_path / "o")) == 3
    assert "training diverged" in capsys.readouterr().err


def test_dry_run_touches_nothing(tmp_path, capsys):
    cfg = config_file(tmp_path)
    out = tmp_path / "never"
    assert run_cli("run", "--config", cfg, "--out", str(out), "--dry-run") == 0
    assert not out.exists()
    assert "OK" in capsys.readouterr().out


@pytest.mark.parametrize("dry_run", [False, True])
def test_a_directory_as_data_path_is_a_data_error(tmp_path, capsys, dry_run):
    # a dry run must reject what the run itself would reject
    data = tmp_path / "data"
    data.mkdir()
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "data": {"path": str(data)},
        "split": {"labelled_per_class": 2, "validation_count": 5},
        "output_dir": str(tmp_path / "o"),
    }))
    flags = ["--dry-run"] if dry_run else []
    assert run_cli("run", "--config", str(cfg), *flags) == 2
    captured = capsys.readouterr()
    assert str(data) in captured.err
    assert captured.out == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "data"]
    assert not any(data.iterdir())


def test_run_into_a_file_fails_before_any_work(tmp_path, capsys, monkeypatch):
    import ile.cli as cli

    def must_not_load(cfg):
        raise AssertionError("data loaded before the output directory was made")

    monkeypatch.setattr(cli.loop, "_load_samples", must_not_load)
    cfg = config_file(tmp_path)
    out = tmp_path / "taken"
    out.write_text("a file, not a directory")
    assert run_cli("run", "--config", cfg, "--out", str(out)) == 2
    assert f"data error: cannot write {out}:" in capsys.readouterr().err
    assert out.read_text() == "a file, not a directory"


def test_runtime_errors_map_to_exit_three(tmp_path, monkeypatch):
    import ile.cli as cli

    def explode(*args, **kwargs):
        raise TrainingError("boom")

    monkeypatch.setattr(cli.loop, "run", explode)
    cfg = config_file(tmp_path)
    assert run_cli("run", "--config", cfg, "--out", str(tmp_path / "o")) == 3


def test_seed_flag_overrides_config(tmp_path):
    cfg = config_file(tmp_path)
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    assert run_cli("run", "--config", cfg, "--seed", "5", "--out", str(out1)) == 0
    assert run_cli("run", "--config", cfg, "--seed", "5", "--out", str(out2)) == 0
    a = json.loads((out1 / "report.json").read_text())
    b = json.loads((out2 / "report.json").read_text())
    assert a == b
    assert a["config"]["seed"] == 5


def test_bad_log_level_is_a_usage_error(tmp_path, monkeypatch):
    monkeypatch.setenv("ILE_LOG", "chatty")
    assert run_cli("report", str(tmp_path)) == 1
    monkeypatch.setenv("ILE_LOG", "debug")
    assert run_cli("report", str(tmp_path)) == 2  # valid level, missing report


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

def write_report(tmp_path, payload):
    run_dir = tmp_path / "run"
    run_dir.mkdir(exist_ok=True)
    (run_dir / "report.json").write_text(json.dumps(payload))
    return str(run_dir)


def repeat(bench, final, iterations):
    """One entry of a report's ``repeats``."""
    return {
        "benchmark_val_error": bench,
        "final_val_error": final,
        "improvement": None if bench is None else bench - final,
        "iterations": iterations,
    }


def single_payload(bench, final, iterations):
    """The report of a one-repeat run, summary included."""
    acc = iterations[-1]["cumulative_addition_accuracy"] if iterations else None
    return {
        "config": {},
        "repeats": [repeat(bench, final, iterations)],
        "summary": {
            "repeat_count": 1,
            "benchmark_val_error_mean": bench,
            "benchmark_val_error_std": 0.0,
            "final_val_error_mean": final,
            "final_val_error_std": 0.0,
            "improvement_mean": None if bench is None else bench - final,
            "added_count_mean": float(sum(r["added_count"] for r in iterations)),
            "cumulative_addition_accuracy_mean": acc,
        },
    }


def record(i, dl, du, added, acc, err):
    return {
        "iteration": i,
        "dl_size": dl,
        "du_size": du,
        "added_count": added,
        "addition_accuracy": acc,
        "cumulative_addition_accuracy": acc,
        "val_error": err,
        "threshold": 0.9,
    }


def test_report_prints_improvement_in_points(tmp_path, capsys):
    run_dir = write_report(
        tmp_path,
        single_payload(0.20, 0.05, [record(1, 40, 2000, 500, 0.99, 0.05)]),
    )
    assert run_cli("report", run_dir) == 0
    out = capsys.readouterr().out
    assert "20.00%" in out
    assert "5.00%" in out
    assert "+15.00" in out  # positive: the error fell
    assert "500" in out
    assert "99.00%" in out


def test_report_zero_iterations_shows_final_equal_to_benchmark(tmp_path, capsys):
    run_dir = write_report(tmp_path, single_payload(0.20, 0.20, []))
    assert run_cli("report", run_dir) == 0
    out = capsys.readouterr().out
    assert "benchmark error : 20.00% (±0.00)" in out
    assert "final error     : 20.00% (±0.00)  (improvement +0.00 points)" in out
    assert "added samples   : 0.0 mean\n" in out


def test_report_emits_curve_files(tmp_path):
    records = [
        record(1, 40, 2000, 500, 0.99, 0.10),
        record(2, 540, 1500, 100, 0.98, 0.07),
    ]
    run_dir = write_report(tmp_path, single_payload(0.2, 0.07, records))
    assert run_cli("report", run_dir) == 0
    error_lines = (tmp_path / "run" / "curve_error.tsv").read_text().strip().split("\n")
    assert error_lines[0] == "iteration\tval_error_r0"
    assert error_lines[1].split("\t") == ["1", "0.1"]
    growth_lines = (tmp_path / "run" / "curve_growth.tsv").read_text().strip().split("\n")
    assert growth_lines[0] == "iteration\tdl_size_r0"
    assert growth_lines[2].split("\t") == ["2", "540"]


def test_report_summarizes_repeats(tmp_path, capsys):
    payload = {
        "config": {},
        "repeats": [
            repeat(0.2, 0.1, [record(1, 40, 100, 10, 1.0, 0.1)]),
            repeat(0.3, 0.1, [record(1, 40, 100, 20, 0.9, 0.1)]),
        ],
        "summary": {
            "repeat_count": 2,
            "benchmark_val_error_mean": 0.25,
            "benchmark_val_error_std": 0.05,
            "final_val_error_mean": 0.1,
            "final_val_error_std": 0.0,
            "improvement_mean": 0.15,
            "added_count_mean": 15.0,
            "cumulative_addition_accuracy_mean": 0.95,
        },
    }
    run_dir = write_report(tmp_path, payload)
    assert run_cli("report", run_dir) == 0
    out = capsys.readouterr().out
    assert "25.00% (±5.00)" in out
    assert "(improvement +15.00 points)" in out
    assert "repeats         : 2" in out
    error_lines = (tmp_path / "run" / "curve_error.tsv").read_text().strip().split("\n")
    assert error_lines[0] == "iteration\tval_error_r0\tval_error_r1"


def test_report_data_errors(tmp_path, capsys):
    assert run_cli("report", str(tmp_path / "nowhere")) == 2
    bad_dir = tmp_path / "bad"
    bad_dir.mkdir()
    (bad_dir / "report.json").write_text("{broken")
    assert run_cli("report", str(bad_dir)) == 2
    no_iterations = single_payload(0.2, 0.1, [])
    del no_iterations["repeats"][0]["iterations"]
    # the single-run format of older versions: one repeat's fields at the top
    records = [record(1, 40, 100, 10, 1.0, 0.1)]
    old_single_run = {"config": {}, **repeat(0.2, 0.1, records)}
    for payload in ({}, [1], no_iterations, old_single_run):
        (bad_dir / "report.json").write_text(json.dumps(payload))
        capsys.readouterr()
        assert run_cli("report", str(bad_dir)) == 2
        captured = capsys.readouterr()
        assert "is not an ile report" in captured.err
        assert captured.out == ""


def test_report_that_cannot_write_its_curves_is_a_data_error(tmp_path, capsys):
    records = [record(1, 40, 2000, 500, 0.99, 0.10)]
    run_dir = write_report(tmp_path, single_payload(0.2, 0.07, records))
    curve = tmp_path / "run" / "curve_error.tsv"
    curve.mkdir()  # a directory where the curve file goes
    assert run_cli("report", run_dir) == 2
    assert f"data error: cannot write {curve}:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "patch",
    [
        {"augment": [{"kind": "identity"}, {"kind": "gaussian_jitter", "sigma": "0.5"}]},
        {"augment": [{"kind": "identity"}, {"kind": "gaussian_jitter", "sigma": -0.5}]},
        {"augment": [{"kind": "identity"}, {"kind": "grid_shift", "rows": 1, "cols": 2, "dx": 0.5, "dy": 0}]},
        {"confidence": {"epsilon": float("nan")}},
        {"threshold": {"manual": float("nan")}},
    ],
)
@pytest.mark.parametrize("dry_run", [False, True])
def test_bad_parameter_values_are_usage_errors(tmp_path, capsys, patch, dry_run):
    cfg = config_file(tmp_path, **patch)
    flags = ["--dry-run"] if dry_run else []
    assert run_cli("run", "--config", cfg, "--out", str(tmp_path / "o"), *flags) == 1
    assert "usage error:" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()
