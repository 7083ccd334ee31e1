"""One workload execution in a fresh process, timed the way a user sees it.

Runs `ile run --config CONFIG --out OUT` through `ile.cli.main` and writes
`timing.json` into OUT:

- `setup_s`: from `--t0` (the parent's monotonic clock just before it
  started this process) until `load_table` has returned, which is after
  `import ile` and config parsing and before the first training step;
- `run_s`: from there until `ile.cli.main` returned, after report.json;
- `peak_rss_kb`: this process's peak resident set size;
- `exit_code`: what `ile run` returned.

With `--setup-only` the process stops as soon as the table is loaded. With
`--trace SPANS` the tracer in tracing.py is installed first and its spans
are written to SPANS at the end.
"""

import argparse
import json
import resource
import sys
import time
from pathlib import Path


class _SetupDone(BaseException):
    """Raised out of the program once the table is loaded (setup-only mode)."""


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--src", required=True)
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--trace")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, args.src)
    import ile.cli
    import ile.datasets
    from tracing import Tracer, replace_everywhere

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()

    loaded_at = []
    load_table = ile.datasets.load_table

    def timed_load_table(*a, **kw):
        samples = load_table(*a, **kw)
        loaded_at.append(time.monotonic())
        if args.setup_only:
            raise _SetupDone
        return samples

    replace_everywhere(load_table, timed_load_table)
    try:
        exit_code = ile.cli.main(["run", "--config", args.config, "--out", args.out])
    except _SetupDone:
        exit_code = 0
    finished = time.monotonic()
    if exit_code == 0 and not loaded_at:
        print("worker: the run never called load_table", file=sys.stderr)
        exit_code = 4
    if tracer is not None:
        tracer.write(args.trace)
    timing = {
        "exit_code": exit_code,
        "setup_s": loaded_at[0] - args.t0 if loaded_at else None,
        "run_s": finished - loaded_at[0] if loaded_at and not args.setup_only else None,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    Path(args.out, "timing.json").write_text(json.dumps(timing))
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
