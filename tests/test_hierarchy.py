import logging

import numpy as np
import pytest

from hiermor import (
    AdaptiveHierarchy,
    HierarchyConfig,
    KernelConfig,
    MeshSpec,
    ParameterBox,
    ParameterPoint,
    QoiVector,
    TimeGrid,
    assemble,
    qoi_norm,
    solve_fom,
)
from hiermor.hierarchy import write_query_log, CSV_COLUMNS


def make_state(n_cells=32, n_steps=32, box=None, **hier_kwargs):
    box = box or ParameterBox()
    ops = assemble(MeshSpec(n_cells))
    grid = TimeGrid(1.0, n_steps)
    config = HierarchyConfig(**hier_kwargs)
    return AdaptiveHierarchy(ops, grid, box, config, KernelConfig(box=box))


def sweep_mus(box, n, seed):
    rng = np.random.default_rng(seed)
    return [
        ParameterPoint(rng.uniform(box.da_min, box.da_max),
                       rng.uniform(box.pe_min, box.pe_max))
        for _ in range(n)
    ]


# -- query routing --------------------------------------------------------------


def test_first_query_takes_fom_branch():
    state = make_state()
    _, record = state.query(ParameterPoint(1.0, 10.0))
    assert record.model_used == "FOM"
    assert record.rb_dim_after > 0
    assert record.train_size_after == 1
    assert record.delta_rb is not None and record.delta_rb > state.config.rom_tol


def test_second_query_same_mu_uses_rb():
    state = make_state()
    mu = ParameterPoint(1.0, 10.0)
    state.query(mu)
    _, record = state.query(mu)
    assert record.model_used == "RB"
    assert record.delta_rb <= state.config.rom_tol


def test_returned_answers_match_highest_fidelity_on_branch():
    state = make_state()
    mu = ParameterPoint(2.0, 5.0)
    answer, record = state.query(mu)
    assert record.model_used == "FOM"
    _, f_h = solve_fom(state.ops, mu, state.grid, state.c0)
    assert np.array_equal(answer.values, f_h.values)


def test_query_rejects_out_of_box_parameter():
    state = make_state()
    with pytest.raises(ValueError):
        state.query(ParameterPoint(100.0, 10.0))
    # failed query leaves state untouched
    assert len(state.train) == 0
    assert state.rm.dim == 0


def test_ml_branch_after_trust_threshold_runs_no_solves():
    box = ParameterBox(pe_max=10.0)
    state = make_state(box=box, trust_threshold=6, retrain_every=3)
    for mu in sweep_mus(box, 12, seed=1):
        state.query(mu)
    assert len(state.train) >= 6
    before = dict(state.counters)
    _, record = state.query(ParameterPoint(5.0, 5.0))
    assert record.model_used == "ML"
    assert state.counters["rb_solves"] == before["rb_solves"]
    assert state.counters["fom_solves"] == before["fom_solves"]
    assert state.counters["ml_predicts"] == before["ml_predicts"] + 1


def test_monotone_infrastructure_growth():
    box = ParameterBox(pe_max=10.0)
    state = make_state(box=box)
    dims, sizes = [], []
    for mu in sweep_mus(box, 15, seed=2):
        _, rec = state.query(mu)
        dims.append(rec.rb_dim_after)
        sizes.append(rec.train_size_after)
    assert all(b >= a for a, b in zip(dims, dims[1:]))
    assert all(b >= a for a, b in zip(sizes, sizes[1:]))


def test_branch_decisions_deterministic():
    box = ParameterBox(pe_max=10.0)
    mus = sweep_mus(box, 25, seed=3)

    def run():
        state = make_state(box=box, trust_threshold=8, retrain_every=4)
        out = []
        for mu in mus:
            _, rec = state.query(mu)
            out.append((rec.model_used, rec.delta_rb, rec.rb_dim_after,
                        rec.train_size_after))
        return out, [e.mu for e in state.train]

    first, train_first = run()
    second, train_second = run()
    assert first == second
    assert train_first == train_second


# -- trust ------------------------------------------------------------------------


def test_trust_size_threshold_boundary():
    box = ParameterBox(pe_max=10.0)
    state = make_state(box=box, trust_threshold=5, retrain_every=1)
    mus = sweep_mus(box, 10, seed=4)
    i = 0
    while len(state.train) < 4:
        state.query(mus[i])
        i += 1
    assert not state.trust(ParameterPoint(1.0, 5.0))
    while len(state.train) < 5:
        state.query(mus[i])
        i += 1
    assert state.model is not None
    assert state.trust(ParameterPoint(1.0, 5.0))


def test_trust_never_mode():
    state = make_state(trust_mode="never", trust_threshold=1, retrain_every=1)
    state.query(ParameterPoint(1.0, 5.0))
    assert not state.trust(ParameterPoint(1.0, 5.0))
    _, rec = state.query(ParameterPoint(1.0, 5.0))
    assert rec.model_used in ("RB", "FOM")


def test_always_validate_mode_end_to_end():
    box = ParameterBox(pe_max=10.0)
    state = make_state(box=box, trust_mode="always_validate", retrain_every=2,
                       validation_slack=1.0)
    used = []
    for mu in sweep_mus(box, 20, seed=5):
        _, rec = state.query(mu)
        used.append(rec.model_used)
        if rec.model_used == "ML":
            assert rec.ml_certificate is not None
            assert rec.ml_certificate <= state.config.rom_tol
    assert "ML" in used  # the surrogate eventually passes validation


def test_returned_accuracy_under_validated_trust():
    # with certificate-based trust, every answer is within max(tol, certificate)
    # of the full-order truth
    box = ParameterBox(pe_max=10.0)
    state = make_state(box=box, trust_mode="always_validate", retrain_every=2)
    for mu in sweep_mus(box, 15, seed=10):
        answer, rec = state.query(mu)
        _, f_h = solve_fom(state.ops, mu, state.grid, state.c0)
        true_err = qoi_norm(QoiVector(f_h.values - answer.values, f_h.dt))
        allowed = max(state.config.rom_tol, rec.ml_certificate or 0.0)
        assert true_err <= allowed + 1e-10


# -- certificates --------------------------------------------------------------------


def test_certificate_of_zero_model_is_delta_plus_rb_norm():
    state = make_state()
    mu = ParameterPoint(1.0, 10.0)
    state.query(mu)  # build a basis so f_rb is nonzero
    assert state.model is None
    cert = state.certify(mu)
    f_rb, delta = state.rb_answer(mu)
    assert cert.value == pytest.approx(delta + qoi_norm(f_rb), rel=1e-12)


def test_certificate_equals_delta_at_interpolated_rb_center():
    box = ParameterBox(pe_max=10.0)
    state = make_state(box=box, retrain_every=1)
    state.query(ParameterPoint(2.0, 5.0))  # FOM branch, basis built
    mu = ParameterPoint(2.1, 5.2)
    _, rec = state.query(mu)               # RB branch, collected and fitted
    assert rec.model_used == "RB"
    assert state.train.entries[-1].source == "RB"
    assert state.model is not None and any(c == mu for c in state.model.centers)
    cert = state.certify(mu)
    # the surrogate interpolates f_rb(mu) at its center, so the gap vanishes
    assert cert.value == pytest.approx(cert.delta_rb, abs=1e-8)


def test_certificate_bounds_true_ml_error():
    box = ParameterBox(pe_max=10.0)
    state = make_state(box=box, trust_threshold=10, retrain_every=5)
    for mu in sweep_mus(box, 14, seed=6):
        state.query(mu)
    assert state.model is not None
    for mu in sweep_mus(box, 20, seed=7):
        cert = state.certify(mu)
        _, f_h = solve_fom(state.ops, mu, state.grid, state.c0)
        f_ml = state.ml_answer(mu)
        true_err = qoi_norm(QoiVector(f_h.values - f_ml.values, f_h.dt))
        assert true_err <= cert.value + 1e-10


def test_certify_runs_no_fom_solve():
    state = make_state()
    state.query(ParameterPoint(1.0, 10.0))
    before = state.counters["fom_solves"]
    state.certify(ParameterPoint(2.0, 8.0))
    assert state.counters["fom_solves"] == before


# -- retraining ------------------------------------------------------------------------


def test_retrain_schedule():
    box = ParameterBox(pe_max=10.0)
    state = make_state(box=box, retrain_every=10, trust_threshold=50)
    mus = sweep_mus(box, 30, seed=8)
    i = 0
    while len(state.train) < 9:
        state.query(mus[i])
        i += 1
    assert state.model is None and state.counters["fits"] == 0
    while len(state.train) < 10:
        state.query(mus[i])
        i += 1
    assert state.model is not None
    assert state.counters["fits"] == 1
    assert state.model.n_centers >= 1


def test_duplicate_training_point_does_not_count_as_growth():
    box = ParameterBox(pe_max=10.0)
    state = make_state(box=box, retrain_every=2, trust_threshold=50)
    mu = ParameterPoint(1.0, 5.0)
    state.query(mu)   # FOM, size 1
    fits_before = state.counters["fits"]
    state.query(mu)   # RB at same mu: replace (FOM kept), size stays 1
    assert len(state.train) == 1
    assert state.train.entries[0].source == "FOM"
    assert state.counters["fits"] == fits_before


def test_maybe_retrain_noop_below_threshold():
    state = make_state(retrain_every=10)
    assert not state.maybe_retrain()
    assert state.model is None


def test_fit_failure_keeps_previous_model(monkeypatch):
    box = ParameterBox(pe_max=10.0)
    state = make_state(box=box, retrain_every=1, trust_threshold=50)
    state.query(ParameterPoint(1.0, 5.0))
    previous = state.model
    assert previous is not None

    import hiermor.hierarchy as hierarchy_mod

    def broken_fit(train, config):
        raise RuntimeError("synthetic fit failure")

    monkeypatch.setattr(hierarchy_mod, "fit", broken_fit)
    state.train.add(ParameterPoint(2.0, 6.0),
                    state.ml_answer(ParameterPoint(2.0, 6.0)), "RB")
    with pytest.raises(RuntimeError, match="synthetic"):
        state.maybe_retrain()
    assert state.model is previous


def test_failing_fom_branch_leaves_state_unchanged(monkeypatch):
    import hiermor.hierarchy as hierarchy_mod

    def broken(*args, **kwargs):
        raise RuntimeError("synthetic failure")

    state = make_state()
    mu = ParameterPoint(1.0, 10.0)  # empty basis: the first query takes the FOM branch
    for target in ("solve_fom", "enrich"):
        counters, rm = dict(state.counters), state.rm
        train_size, index = len(state.train), state._next_index
        with monkeypatch.context() as patch:
            patch.setattr(hierarchy_mod, target, broken)
            with pytest.raises(RuntimeError, match="synthetic"):
                state.query(mu)
        # only the RB solve that ran to completion is counted
        assert state.counters == {**counters, "rb_solves": counters["rb_solves"] + 1}
        assert state.rm is rm
        assert len(state.train) == train_size
        assert state._next_index == index
    _, record = state.query(mu)
    assert record.index == 1 and record.model_used == "FOM"
    assert state.counters["fom_solves"] == 1


# -- stagnation ---------------------------------------------------------------------


def test_enrichment_stagnation_warns_and_returns_fom(caplog):
    # tolerance far below the estimator's numerical floor forces repeated FOM
    # branches until the basis saturates, then stagnation must be signaled
    state = make_state(n_cells=8, n_steps=8, rom_tol=1e-13)
    mu = ParameterPoint(1.0, 10.0)
    stagnated = False
    with caplog.at_level(logging.WARNING, logger="hiermor.hierarchy"):
        for _ in range(10):
            answer, rec = state.query(mu)
            assert rec.model_used == "FOM"
            if any("stagnated" in r.message for r in caplog.records):
                stagnated = True
                break
    assert stagnated
    _, f_h = solve_fom(state.ops, mu, state.grid, state.c0)
    assert np.array_equal(answer.values, f_h.values)


# -- warm start ---------------------------------------------------------------------


def test_corner_warm_start_seeds_basis_and_training():
    box = ParameterBox(pe_max=10.0)
    ops = assemble(MeshSpec(24))
    grid = TimeGrid(1.0, 24)
    config = HierarchyConfig(warm_start_corners=True, retrain_every=2)
    state = AdaptiveHierarchy(ops, grid, box, config, KernelConfig(box=box))
    assert len(state.train) == 4
    assert all(e.source == "FOM" for e in state.train)
    assert state.rm.dim > 0
    assert state.model is not None  # 4 points, retrain_every=2


# -- csv export ---------------------------------------------------------------------


def test_query_log_roundtrip(tmp_path):
    box = ParameterBox(pe_max=10.0)
    state = make_state(box=box, trust_threshold=4, retrain_every=2)
    records = [state.query(mu)[1] for mu in sweep_mus(box, 8, seed=9)]
    path = tmp_path / "queries.csv"
    write_query_log(records, path)
    lines = path.read_text().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 9
    import csv

    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    for rec, row in zip(records, rows):
        assert int(row["index"]) == rec.index
        assert row["model_used"] == rec.model_used
        assert float(row["da"]) == rec.mu.da  # 17 digits round-trip exactly
        assert float(row["wall_time"]) == rec.wall_time
        if rec.delta_rb is None:
            assert row["delta_rb"] == ""
        else:
            assert float(row["delta_rb"]) == rec.delta_rb
