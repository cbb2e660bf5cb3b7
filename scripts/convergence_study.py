#!/usr/bin/env python3
"""Manufactured-solution convergence study for the full-order model.

Runs the study of tests/mms.py (exact solution c(x, t) = exp(-t) sin(pi x))
and prints the discrete L2(0,T; L2) errors and the fitted orders.  Exits 1
when the spatial order is below 1.9 or the temporal order below 0.9, the
bounds of acceptance criterion 1.

    PYTHONPATH=src python scripts/convergence_study.py
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

import mms  # noqa: E402
from hiermor import ParameterPoint  # noqa: E402

MU = ParameterPoint(da=1.0, pe=5.0)
MIN_SPATIAL_ORDER = 1.9
MIN_TEMPORAL_ORDER = 0.9

print("spatial refinement (dt tied to h^2):")
spatial, hs, errors = mms.spatial_study(MU)
for h, err in zip(hs, errors):
    print(f"  n_cells = {round(1 / h):4d}   error = {err:.4e}")
print(f"  observed spatial order: {spatial:.3f} (>= {MIN_SPATIAL_ORDER})\n")

print("temporal refinement (n_cells = 256):")
temporal, dts, errors = mms.temporal_study(MU)
for dt, err in zip(dts, errors):
    print(f"  n_steps = {round(1 / dt):4d}   error = {err:.4e}")
print(f"  observed temporal order: {temporal:.3f} (>= {MIN_TEMPORAL_ORDER})")

if not (spatial >= MIN_SPATIAL_ORDER and temporal >= MIN_TEMPORAL_ORDER):
    print("FAIL: observed order below its bound", file=sys.stderr)
    sys.exit(1)
