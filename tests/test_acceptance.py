"""Acceptance suite: every criterion at its stated tolerance, one line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS/FAIL lines.
"""

import csv
import time

import numpy as np
import pytest

from hiermor import (
    MeshSpec,
    ParameterBox,
    ParameterPoint,
    QoiVector,
    TimeGrid,
    assemble,
    enrich,
    estimate,
    hapod,
    pod,
    project,
    qoi_norm,
    solve_fom,
    solve_rb,
)
from hiermor.cli import _execute_sweep
from hiermor.config import parse_config
from hiermor.hierarchy import write_query_log
from hiermor.kernel import fit, power_function, predict

import synthetic

DESK_MESH, DESK_STEPS = 256, 256


def _report(criterion, ok, detail):
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, detail


def desk_config(pe_max):
    return parse_config(
        f"""
[mesh]
n_cells = {DESK_MESH}
[time]
n_steps = {DESK_STEPS}
[parameters]
pe_max = {pe_max}
[hierarchy]
rom_tol = 1e-2
retrain_every = 10
trust_threshold = 50
[sweep]
n_queries = 200
seed = 42
"""
    )


@pytest.fixture(scope="module")
def desk_fom():
    ops = assemble(MeshSpec(DESK_MESH))
    grid = TimeGrid(1.0, DESK_STEPS)
    return ops, grid


@pytest.fixture(scope="module")
def subbox_sweep():
    return _execute_sweep(desk_config(pe_max=10.0))


def test_criterion_1_fem_convergence_orders():
    import mms

    start = time.perf_counter()
    mu = ParameterPoint(1.0, 5.0)
    spatial, _, _ = mms.spatial_study(mu, cells=(32, 64, 128))
    temporal, _, _ = mms.temporal_study(mu, steps=(64, 128, 256), n_cells=256)
    elapsed = time.perf_counter() - start
    ok = spatial >= 1.9 and temporal >= 0.9 and elapsed < 30.0
    _report(
        1, ok,
        f"FEM convergence: spatial order {spatial:.3f} (>=1.9), "
        f"temporal order {temporal:.3f} (>=0.9), {elapsed:.1f}s (<30s)",
    )


def test_criterion_2_estimator_rigor(desk_fom):
    ops, grid = desk_fom
    c0 = np.zeros(ops.n_dofs)
    traj, _ = solve_fom(ops, ParameterPoint(1.0, 10.0), grid, c0)
    rm, _ = enrich(project(ops, np.zeros((ops.n_dofs, 0)), c0), traj, ops)

    box = ParameterBox()
    rng = np.random.default_rng(2024)
    violations = 0
    effectivities = []
    for _ in range(20):
        mu = ParameterPoint(
            rng.uniform(box.da_min, box.da_max), rng.uniform(box.pe_min, box.pe_max)
        )
        _, f_h = solve_fom(ops, mu, grid, c0)
        rtraj, f_rb = solve_rb(rm, mu, grid)
        err = qoi_norm(QoiVector(f_h.values - f_rb.values, grid.dt))
        delta = estimate(rm, mu, rtraj, grid).delta_rb
        if delta < err - 1e-10:
            violations += 1
        if err > 0:
            effectivities.append(delta / err)
    _report(
        2, violations == 0,
        f"estimator rigor: {violations} violations over 20 parameters, "
        f"median effectivity {np.median(effectivities):.1f} (informational)",
    )


def test_criterion_3_pod_identity_and_hapod_bound(desk_fom):
    rng = np.random.default_rng(31)
    snapshots = rng.standard_normal((8, 5))
    _, svals, _ = np.linalg.svd(snapshots, full_matrices=False)
    worst = 0.0
    for r in range(1, 6):
        basis = pod(snapshots, rank=r)
        q = basis.modes
        err = np.linalg.norm(snapshots - q @ (q.T @ snapshots), "fro") ** 2
        worst = max(worst, abs(err - float((svals[r:] ** 2).sum())))
    identity_ok = worst < 1e-10

    ops, grid = desk_fom
    traj, _ = solve_fom(ops, ParameterPoint(1.0, 10.0), grid, np.zeros(ops.n_dofs))
    snaps = traj.T
    m = snaps.shape[1]
    eps = 1e-6
    hier = hapod(np.array_split(snaps, 8, axis=1), ops.ip, eps_star=eps, omega=0.5)
    residual = snaps - hier.modes @ (hier.modes.T @ (ops.ip @ snaps))
    mean_err = float(np.einsum("ij,ij->", residual, ops.ip @ residual)) / m
    bound_ok = mean_err <= eps**2

    direct = pod(snaps, ops.ip)
    sq = direct.singular_values**2
    tails = np.concatenate([[sq.sum()], sq.sum() - np.cumsum(sq)])
    direct_rank = int(np.argmax(tails <= eps**2 * m))
    rank_ok = hier.dim <= direct_rank + 2

    _report(
        3, identity_ok and bound_ok and rank_ok,
        f"POD identity max dev {worst:.2e} (<1e-10); hapod mean-square error "
        f"{mean_err:.2e} (<= {eps**2:.0e}); rank {hier.dim} vs direct {direct_rank} (+2)",
    )


def test_criterion_4_kernel_interpolation_power_monotone():
    import dataclasses

    train, data, config = synthetic.monotone_training_set()
    model = fit(train, config, synthetic.BOX)
    lookup = {mu: values for mu, values in data}
    worst_rel = max(
        np.linalg.norm(predict(model, c).values - lookup[c])
        / np.linalg.norm(lookup[c])
        for c in model.centers
    )
    worst_power = max(power_function(model, c) for c in model.centers)

    maxima = []
    for k in range(1, len(data) + 1):
        part = fit(train, dataclasses.replace(config, max_centers=k), synthetic.BOX)
        residuals = [
            qoi_norm(QoiVector(v - predict(part, mu).values, synthetic.DT))
            for mu, v in data
        ]
        maxima.append(max(residuals))
        if part.n_centers < k:
            break
    monotone = all(b <= a + 1e-10 for a, b in zip(maxima, maxima[1:]))

    ok = worst_rel < 1e-6 and worst_power < 1e-8 and monotone
    _report(
        4, ok,
        f"kernel: center interpolation {worst_rel:.2e} (<1e-6), power at centers "
        f"{worst_power:.2e} (<1e-8), residual monotone over {len(maxima)} steps: {monotone}",
    )


def test_criterion_5_certificate_rigor_after_sweep(desk_fom):
    state, records = _execute_sweep(desk_config(pe_max=100.0))
    assert state.model is not None
    ops, grid = state.ops, state.grid
    box = state.box
    rng = np.random.default_rng(5150)
    violations = 0
    worst_ratio = 0.0
    for _ in range(20):
        mu = ParameterPoint(
            rng.uniform(box.da_min, box.da_max), rng.uniform(box.pe_min, box.pe_max)
        )
        cert = state.certify(mu)
        _, f_h = solve_fom(ops, mu, grid, state.c0)
        f_ml = predict(state.model, mu)
        true_err = qoi_norm(QoiVector(f_h.values - f_ml.values, grid.dt))
        if true_err > cert.value + 1e-10:
            violations += 1
        if cert.value > 0:
            worst_ratio = max(worst_ratio, true_err / cert.value)
    _report(
        5, violations == 0,
        f"certificate rigor: {violations} violations over 20 validation points "
        f"after a 200-query sweep; worst error/bound {worst_ratio:.3f}",
    )


def test_criterion_6_phase_behavior(subbox_sweep):
    start = time.perf_counter()
    state, records = subbox_sweep
    used = [r.model_used for r in records]

    first_is_fom = used[0] == "FOM"

    trust_index = next(r.index for r in records if r.train_size_after >= 50)
    all_ml_after = all(r.model_used == "ML" for r in records if r.index > trust_index)

    medians = {}
    for branch in ("FOM", "RB", "ML"):
        times = [r.wall_time for r in records if r.model_used == branch]
        medians[branch] = float(np.median(times)) if times else float("nan")
    ordering = medians["ML"] < medians["RB"] < medians["FOM"]

    fom_count = used.count("FOM")
    few_fom = fom_count <= 5

    elapsed = time.perf_counter() - start
    ok = first_is_fom and all_ml_after and ordering and few_fom and elapsed < 120.0
    _report(
        6, ok,
        f"phase behavior: first={used[0]}, all-ML after index {trust_index}: "
        f"{all_ml_after}, medians ML {medians['ML']*1e3:.2f}ms < RB "
        f"{medians['RB']*1e3:.2f}ms < FOM {medians['FOM']*1e3:.1f}ms: {ordering}, "
        f"FOM count {fom_count} (<=5 on Pe in [1,10])",
    )


def test_criterion_7_online_complexity_independent_of_dofs():
    import gc

    mu = ParameterPoint(1.0, 10.0)
    grid = TimeGrid(1.0, DESK_STEPS)
    models = {}
    for n_cells in (256, 2048):
        ops = assemble(MeshSpec(n_cells))
        c0 = np.zeros(ops.n_dofs)
        traj, _ = solve_fom(ops, mu, grid, c0)
        basis = pod(traj.T, ops.ip, rank=10)
        assert basis.dim == 10
        models[n_cells] = project(ops, basis.modes, c0)

    def one_run(rm):
        t0 = time.perf_counter()
        rtraj, _ = solve_rb(rm, mu, grid)
        estimate(rm, mu, rtraj, grid)
        return time.perf_counter() - t0

    # interleave the two sizes so system load affects both alike
    runs = {256: [], 2048: []}
    gc.collect()
    gc.disable()
    try:
        for n_cells in (256, 2048):
            one_run(models[n_cells])  # warm-up
        for _ in range(20):
            for n_cells in (256, 2048):
                runs[n_cells].append(one_run(models[n_cells]))
    finally:
        gc.enable()
    timings = {n: float(np.median(r)) for n, r in runs.items()}
    ratio = timings[2048] / timings[256]
    _report(
        7, ratio <= 1.5,
        f"online independence: median solve+estimate {timings[256]*1e3:.2f}ms at "
        f"n=256 vs {timings[2048]*1e3:.2f}ms at n=2048, ratio {ratio:.2f} (<=1.5)",
    )


def test_criterion_8_determinism(tmp_path, subbox_sweep):
    state1, records1 = subbox_sweep
    state2, records2 = _execute_sweep(desk_config(pe_max=10.0))

    decisions_equal = [r.model_used for r in records1] == [r.model_used for r in records2]
    train_equal = [
        (e.mu, e.source, tuple(e.qoi.values)) for e in state1.train
    ] == [(e.mu, e.source, tuple(e.qoi.values)) for e in state2.train]

    paths = []
    for i, records in enumerate((records1, records2)):
        path = tmp_path / f"run{i}.csv"
        write_query_log(records, path)
        paths.append(path)

    def strip_times(path):
        with open(path) as fh:
            rows = list(csv.reader(fh))
        drop = rows[0].index("wall_time")
        return [[c for j, c in enumerate(row) if j != drop] for row in rows]

    csv_equal = strip_times(paths[0]) == strip_times(paths[1])
    ok = decisions_equal and train_equal and csv_equal
    _report(
        8, ok,
        f"determinism: branch decisions {decisions_equal}, training sets "
        f"{train_equal}, CSV modulo timing {csv_equal}",
    )
