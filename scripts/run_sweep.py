#!/usr/bin/env python3
"""Run the desk-scale adaptive sweep and print the phase summary.

Usage: python3 scripts/run_sweep.py [config] [out_dir]
Defaults to configs/desk.ini and the config's out_dir.  Runs
`hiermor run config [--out-dir out_dir]`, with its messages and exit codes,
and after a successful run prints a console recap.
"""

import sys
from pathlib import Path

import hiermor.cli as cli
from hiermor.config import load_config

config_path = sys.argv[1] if len(sys.argv) > 1 else "configs/desk.ini"
out = sys.argv[2] if len(sys.argv) > 2 else None
code = cli.main(["run", config_path, *(["--out-dir", out] if out else [])])
if code == cli.EXIT_OK:
    out_dir = Path(out) if out else load_config(config_path).out_dir
    print((out_dir / "summary.txt").read_text())
    print(f"outputs written to {out_dir}/ (queries.csv, summary.txt, timings.svg)")
sys.exit(code)
