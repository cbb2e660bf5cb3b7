#!/usr/bin/env python3
"""Sharpness study for the RB error bound and the surrogate certificate.

Builds a basis from one trajectory, then samples the parameter box and
reports true errors against the bounds.  Effectivity = bound / true error;
rigor requires every ratio >= 1.  Exits 1 when any ratio is below 1 or NaN.
"""

import sys

import numpy as np

from hiermor import (
    MeshSpec,
    ParameterBox,
    ParameterPoint,
    QoiVector,
    TimeGrid,
    assemble,
    enrich,
    estimate,
    project,
    qoi_norm,
    solve_fom,
    solve_rb,
)

N_SAMPLES = 30
SEED = 2718

ops = assemble(MeshSpec(256))
grid = TimeGrid(1.0, 256)
c0 = np.zeros(ops.n_dofs)
box = ParameterBox()

traj, _ = solve_fom(ops, ParameterPoint(1.0, 10.0), grid, c0)
rm, added = enrich(project(ops, np.zeros((ops.n_dofs, 0)), c0), traj, ops)
print(f"basis dimension after one enrichment: {rm.dim}\n")
print(f"{'Da':>8} {'Pe':>8} {'true error':>12} {'bound':>12} {'effectivity':>12}")

effectivities = []
for mu in box.points(np.random.default_rng(SEED).random((N_SAMPLES, 2))):
    _, f_h = solve_fom(ops, mu, grid, c0)
    rtraj, f_rb = solve_rb(rm, mu, grid)
    err = qoi_norm(QoiVector(f_h.values - f_rb.values, grid.dt))
    delta = estimate(rm, mu, rtraj, grid).delta_rb
    eff = delta / err if err != 0 else float("inf")
    effectivities.append(eff)
    print(f"{mu.da:8.3f} {mu.pe:8.2f} {err:12.3e} {delta:12.3e} {eff:12.1f}")

finite = [e for e in effectivities if np.isfinite(e)]
print(f"\nmin/median/max effectivity: {min(finite):.1f} / "
      f"{np.median(finite):.1f} / {max(finite):.1f}")
violations = sum(not e >= 1.0 for e in effectivities)
print("rigor violations:", violations)
sys.exit(1 if violations else 0)
