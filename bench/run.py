"""Benchmark driver for ile: time, memory and quality of `ile run` workloads.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload digits_pool --seed 1 --seconds 30 --trace 0

Set-up writes the workload's CSV table and run config from the seed, then
starts a few processes that stop once the table is loaded, to time set-up.
For `--seconds` it then runs the whole workload again and again, each time
in a fresh process through `ile run`, and checks every report. With
`--trace 1` the first execution runs under the span tracer and the metrics
are the per-layer ones. The last line of standard output is the result
JSON; the line before it holds the machine context, report hash and the
raw samples, which are also saved under `.bench_work/results/`. README.md
in this directory lists every metric.
"""

import argparse
import ctypes
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

from tracing import PER_LAYER, Spans, layer_metrics  # noqa: E402
from workloads import SMOKE_WORKLOADS, WORKLOADS  # noqa: E402

SETUP_PROBES = 3  # set-up-only processes started before the timed window
DEADLINE_S = 170  # hard limit on one invocation, below the 180 s allowed

# end-to-end metric name -> (unit, better); bounds live in BENCHMARK.json
END_TO_END = {
    "setup_s": ("s", "lower"),
    "run_s": ("s", "lower"),
    "score_rate": ("1/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
    "val_accuracy_ratio": ("ratio", "higher"),
    "addition_accuracy": ("ratio", "higher"),
}


class BenchError(Exception):
    """The benchmark cannot run here at all (not a checkout, bad input)."""


# ---------------------------------------------------------------------------
# Machine context
# ---------------------------------------------------------------------------

def _git_sha(root):
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[len("ref: "):]
    loose = root / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def _blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, if any."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libs = sorted({line.split()[-1] for line in maps.splitlines() if "openblas" in line})
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return getter()
    return None


def machine_context(root):
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "git_sha": _git_sha(root),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
    }


def calibrate():
    """Seconds for a fixed small matmul+tanh loop; drift shows next to runs."""
    w = np.linspace(-0.05, 0.05, 128 * 128).reshape(128, 128)
    x = np.ones((64, 128))
    started = time.perf_counter()
    for _ in range(400):
        x = np.tanh(x @ w + 0.1)
    return time.perf_counter() - started


def steal_seconds():
    """CPU time the hypervisor has taken from this machine, where it says so."""
    try:
        fields = Path("/proc/stat").read_text().split("\n", 1)[0].split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------

def write_inputs(workload, seed, directory):
    """The workload's CSV table and `ile run` config, from the seed alone."""
    from ile.datasets import save_table
    from ile.synth import generate

    csv_path = directory / "data.csv"
    samples = generate(workload.kind, workload.classes, workload.per_class,
                       workload.noise, seed=seed)
    save_table(samples, csv_path, format="csv")
    config_path = directory / "config.json"
    config_path.write_text(
        json.dumps(workload.run_config(str(csv_path), seed), indent=2, sort_keys=True)
    )
    return config_path, hashlib.sha256(csv_path.read_bytes()).hexdigest()


# ---------------------------------------------------------------------------
# Executions and their checks
# ---------------------------------------------------------------------------

def spawn(src, config_path, out_dir, deadline, trace_path=None, setup_only=False):
    """Start worker.py once and return its timing.json, or raise on failure."""
    out_dir.mkdir(parents=True)
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RuntimeError("no time left before the deadline")
    t0 = time.monotonic()
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), "--src", str(src),
           "--config", str(config_path), "--out", str(out_dir), "--t0", repr(t0)]
    if trace_path is not None:
        cmd += ["--trace", str(trace_path)]
    if setup_only:
        cmd.append("--setup-only")
    with open(out_dir / "stdout.txt", "wb") as out, open(out_dir / "stderr.txt", "wb") as err:
        proc = subprocess.run(cmd, stdout=out, stderr=err, timeout=timeout)
    timing_file = out_dir / "timing.json"
    if proc.returncode != 0 or not timing_file.is_file():
        tail = (out_dir / "stderr.txt").read_text(errors="replace").strip()[-300:]
        raise RuntimeError(f"worker exited with {proc.returncode}: {tail}")
    return json.loads(timing_file.read_text())


def repeats_of(payload):
    return payload["repeats"] if "repeats" in payload else [payload]


def conservation_errors(payload, labelled, total):
    """Bookkeeping violations in a report: the pool never leaks or grows.

    ``labelled`` is |D_l| at the start of every repeat and ``total`` the
    constant |D_l| + |D_u|.
    """
    errors = []
    for k, rep in enumerate(repeats_of(payload)):
        its = rep["iterations"]
        if not its:
            errors.append(f"repeat {k}: no iterations")
            continue
        if its[0]["dl_size"] != labelled:
            errors.append(f"repeat {k}: starts with {its[0]['dl_size']} labelled, not {labelled}")
        for prev, cur in zip([None] + its[:-1], its):
            i = cur["iteration"]
            if cur["dl_size"] + cur["du_size"] != total:
                errors.append(f"repeat {k} iteration {i}: dl_size + du_size != {total}")
            if prev is not None and cur["dl_size"] != prev["dl_size"] + prev["added_count"]:
                errors.append(f"repeat {k} iteration {i}: dl_size did not grow by added_count")
    return errors


def quality(payload):
    """Deterministic quality of a report, as means over repeats."""
    reps = repeats_of(payload)
    bench = [r["benchmark_val_error"] for r in reps]
    final = [r["final_val_error"] for r in reps]
    accs = [r["iterations"][-1]["cumulative_addition_accuracy"] for r in reps]
    values = bench + final + accs
    if any(v is None or not 0.0 <= v <= 1.0 for v in values):
        raise ValueError(f"quality values missing or outside [0, 1]: {values}")
    return {
        "val_accuracy_ratio": statistics.fmean(
            (1.0 - f) / (1.0 - b) for b, f in zip(bench, final)
        ),
        "addition_accuracy": statistics.fmean(accs),
        "val_error_gain": statistics.fmean(b - f for b, f in zip(bench, final)),
        "benchmark_val_error": statistics.fmean(bench),
        "final_val_error": statistics.fmean(final),
    }


def samples_scored(payload):
    """Ensemble scorings in a run: every iteration scores D_l and D_u."""
    return sum(it["dl_size"] + it["du_size"] for r in repeats_of(payload) for it in r["iterations"])


def pool_scored(payload):
    return sum(it["du_size"] for r in repeats_of(payload) for it in r["iterations"])


class Harness:
    """Runs one workload's executions and checks each one's report."""

    def __init__(self, workload, src, config_path, work_dir, deadline):
        self.workload = workload
        self.src = src
        self.config_path = config_path
        self.work_dir = work_dir
        self.deadline = deadline
        self.attempted = 0
        self.errors = []
        self.reference = None  # (sha256, payload) of the first good report
        self.executions = []  # timing dicts of good full executions
        self.setups = []  # setup_s of good set-up probes

    def _attempt(self, label, **kwargs):
        self.attempted += 1
        out_dir = self.work_dir / f"{self.attempted:03d}-{label}"
        try:
            return out_dir, spawn(self.src, self.config_path, out_dir, self.deadline, **kwargs)
        except (RuntimeError, OSError, subprocess.TimeoutExpired, ValueError) as exc:
            self.errors.append(f"{label} {self.attempted}: {exc}")
            return out_dir, None

    def probe_setup(self):
        _, timing = self._attempt("setup", setup_only=True)
        if timing is not None:
            self.setups.append(timing["setup_s"])

    def execute(self, traced=False):
        """One full execution; returns its timing if every check passed."""
        calib = calibrate()
        steal = steal_seconds()
        spans_path = self.work_dir / f"spans-{self.attempted + 1:03d}.npz" if traced else None
        out_dir, timing = self._attempt("traced" if traced else "run", trace_path=spans_path)
        if timing is None:
            return None
        if steal is not None:
            steal = steal_seconds() - steal
        cfg = self.workload.config
        labelled = cfg["split"]["labelled_per_class"] * self.workload.classes
        total = self.workload.rows - cfg["split"]["validation_count"]
        sha = None
        try:
            report = (out_dir / "report.json").read_bytes()
            sha = hashlib.sha256(report).hexdigest()
            payload = json.loads(report)
            problems = conservation_errors(payload, labelled, total)
            quality(payload)
        except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
            problems = [f"bad report: {exc!r}"]
        if self.reference is None and not problems:
            self.reference = (sha, payload)
        elif self.reference is not None and sha != self.reference[0]:
            problems.append("report.json differs from the first execution's")
        if problems:
            self.errors.append(f"execution {self.attempted}: " + "; ".join(problems))
            return None
        timing.update(calib_s=calib, steal_s=steal, traced=traced, spans=spans_path)
        self.executions.append(timing)
        return timing

    @property
    def failed(self):
        return len(self.errors)


def run_executions(harness, seconds, trace):
    """Full executions until `seconds` would be exceeded; at least one untraced."""
    started = time.monotonic()
    if trace:
        harness.execute(traced=True)
    durations = []
    while True:
        if any(not t["traced"] for t in harness.executions):
            now, expected = time.monotonic(), statistics.median(durations)
            if now - started + expected > seconds or now + expected > harness.deadline:
                return
        elif len(durations) >= 3:
            return  # three attempts and none passed: nothing left to measure
        attempt_started = time.monotonic()
        harness.execute()
        durations.append(time.monotonic() - attempt_started)


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def end_to_end_metrics(harness):
    untraced = [t for t in harness.executions if not t["traced"]]
    payload = harness.reference[1]
    run_s = statistics.median(t["run_s"] for t in untraced)
    q = quality(payload)
    return {
        "setup_s": statistics.median(harness.setups + [t["setup_s"] for t in untraced]),
        "run_s": run_s,
        "score_rate": samples_scored(payload) / run_s,
        "peak_rss_mb": statistics.median(t["peak_rss_kb"] for t in untraced) / 1024.0,
        "val_accuracy_ratio": q["val_accuracy_ratio"],
        "addition_accuracy": q["addition_accuracy"],
    }


def per_layer_metrics(harness):
    traced = [t for t in harness.executions if t["traced"]]
    untraced = [t for t in harness.executions if not t["traced"]]
    values = layer_metrics(Spans(traced[0]["spans"]), pool_scored(harness.reference[1]))
    values["trace.overhead_s"] = traced[0]["run_s"] - statistics.median(
        t["run_s"] for t in untraced
    )
    return values


def measure(workload, seed, seconds, trace, root):
    """Set up, execute and check one workload; returns (result, record)."""
    deadline = time.monotonic() + DEADLINE_S
    src = root / "src"
    if not (src / "ile" / "__init__.py").is_file():
        raise BenchError(f"no ile package under {src}; run from a source checkout")
    sys.path.insert(0, str(src))
    work_dir = root / ".bench_work" / f"{workload.name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    config_path, input_sha = write_inputs(workload, seed, work_dir)

    harness = Harness(workload, src, config_path, work_dir, deadline)
    for _ in range(SETUP_PROBES):
        harness.probe_setup()
    run_executions(harness, seconds, trace)
    (work_dir / "data.csv").unlink()  # the largest file; the seed recreates it

    untraced = [t for t in harness.executions if not t["traced"]]
    traced = [t for t in harness.executions if t["traced"]]
    metrics = {}
    if untraced and (traced or not trace):
        values = per_layer_metrics(harness) if trace else end_to_end_metrics(harness)
        units = PER_LAYER if trace else END_TO_END
        metrics = {name: {"value": values[name], "unit": units[name][0]} for name in units}
    result = {
        "correct": harness.failed == 0 and bool(metrics),
        "attempted": harness.attempted,
        "failed": harness.failed,
        "metrics": metrics,
    }
    payload = harness.reference[1] if harness.reference else None
    record = {
        "workload": workload.name,
        "seed": seed,
        "trace": int(trace),
        "context": machine_context(root),
        "input_sha256": input_sha,
        "report_sha256": harness.reference[0] if harness.reference else None,
        "quality": quality(payload) if payload else None,
        "samples": {
            "setup_s": harness.setups + [t["setup_s"] for t in untraced],
            "run_s": [t["run_s"] for t in harness.executions],
            "traced": [t["traced"] for t in harness.executions],
            "calib_s": [t["calib_s"] for t in harness.executions],
            "steal_s": [t["steal_s"] for t in harness.executions],
            "peak_rss_kb": [t["peak_rss_kb"] for t in harness.executions],
        },
        "errors": harness.errors,
        "result": result,
    }
    return result, record


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)
    table = SMOKE_WORKLOADS if args.smoke else WORKLOADS
    root = Path.cwd()
    try:
        result, record = measure(table[args.workload], args.seed, args.seconds,
                                 bool(args.trace), root)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    results_dir = root / ".bench_work" / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results_dir / name).write_text(json.dumps(record, indent=2, default=str))
    print(json.dumps({k: record[k] for k in record if k != "result"}, default=str))
    print(json.dumps(result))
    return 0 if result["metrics"] else 1


if __name__ == "__main__":
    sys.exit(main())
