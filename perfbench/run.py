"""hiermor benchmark entry point.

    python3 perfbench/run.py --workload desk [--seed 42] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --workload all [--seed 42] [--seconds S] [--trace 0|1]

Runs from a source checkout: the package is imported from `src/` next to
this directory, never from an installed copy, and the run fails when it is
missing.  One workload per process prints a human-readable table, a JSON
report line (all metrics, fingerprints, truth pass and run metadata) and,
as the last line, the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
The exit code is nonzero when a query raised, an answer broke its bound or
a sweep did not reproduce the first one.  `--workload all` runs every
workload in its own process and prints their tables.  `--seconds` is part
of the calling convention of BENCHMARK.json's command; it defaults to that
file's `run_seconds`.
"""

import os
import sys

# BLAS threads are pinned before numpy loads: the reduced blocks are at most
# ~50 x 50, extra threads buy nothing, widen the run-to-run spread and change
# the answer bytes.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import logging
import subprocess
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("desk", "certified", "tight", "large")


def _import_checkout() -> None:
    """Put the checkout's package and this directory first on the path."""
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import hiermor

    origin = Path(hiermor.__file__).resolve()
    if not origin.is_relative_to(ROOT / "src"):
        raise SystemExit(f"error: hiermor imported from {origin}, not from {ROOT / 'src'}")


def _run_all(args) -> int:
    from harness import format_table

    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        lines = proc.stdout.splitlines()
        report = next((json.loads(line)["report"] for line in lines
                       if line.startswith('{"report"')), None)
        if report is None:
            print(f"{name}: failed with exit code {proc.returncode}")
        else:
            print(format_table(report))
        sys.stderr.write(proc.stderr)
        status = status or proc.returncode
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=42, help="sweep seed (desk.ini uses 42)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="time budget of the timed sweeps (default: run_seconds "
                             "of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from traced sweeps")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]

    _import_checkout()
    if args.workload == "all":
        return _run_all(args)

    import harness

    logging.getLogger("hiermor").setLevel(logging.ERROR)
    result, report = harness.run_workload(args.workload, args.seed, args.seconds,
                                          bool(args.trace))
    print(harness.format_table(report))
    print(json.dumps({"report": report}))
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
