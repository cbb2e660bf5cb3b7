"""Answers, bounds and decisions do not depend on the BLAS thread count.

Each sweep runs in its own process, since OpenBLAS reads its thread count
once at load.  The property is measured on the shipped OpenBLAS at desk
size (n_dofs = 256); it is no proof for every BLAS or every size.
"""

import csv
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

SWEEP = """
import hashlib, sys
from hiermor.cli import build_hierarchy
from hiermor.config import load_config, sample_parameters
from hiermor.hierarchy import write_query_log

config = load_config(sys.argv[1])
state = build_hierarchy(config)
records, decisions, answers = [], hashlib.sha256(), hashlib.sha256()
for mu in sample_parameters(config.sweep, config.box):
    answer, record = state.query(mu)
    records.append(record)
    decisions.update(f"{record.model_used} {record.rb_dim_after} {record.train_size_after}\\n".encode())
    answers.update(answer.values.tobytes())
write_query_log(records, sys.argv[2])
print(decisions.hexdigest(), answers.hexdigest())
"""

# Shortened copies of the desk config: 20 queries, and for `tight` the
# FOM-heavy route (trust_mode = never, rom_tol = 1e-9).
EDITS = {
    "desk": [],
    "tight": [("trust_mode = size_threshold", "trust_mode = never"),
              ("rom_tol = 1e-2 ", "rom_tol = 1e-9 ")],
}


def _rows(path):
    """The query log's rows without the wall_time column."""
    with open(path, newline="") as fh:
        table = list(csv.reader(fh))
    drop = table[0].index("wall_time")
    return [[c for j, c in enumerate(row) if j != drop] for row in table]


def _sweep(config, out, threads):
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads), OMP_NUM_THREADS=str(threads),
               PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                        os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", SWEEP, str(config), str(out)], env=env,
                          capture_output=True, text=True, check=True)
    return done.stdout.split(), _rows(out)


@pytest.mark.parametrize("name", EDITS)
def test_sweep_is_identical_at_one_and_two_blas_threads(tmp_path, name):
    text = (ROOT / "configs" / "desk.ini").read_text()
    for old, new in EDITS[name] + [("n_queries = 200", "n_queries = 20")]:
        assert old in text
        text = text.replace(old, new)
    config = tmp_path / f"{name}.ini"
    config.write_text(text)
    one = _sweep(config, tmp_path / "one.csv", 1)
    two = _sweep(config, tmp_path / "two.csv", 2)
    assert len(one[1]) == 21
    assert one == two
