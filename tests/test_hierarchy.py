import logging
from unittest import mock

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

import hiermor.hierarchy as hierarchy_mod
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
    estimate,
    predict,
    qoi_norm,
    solve_fom,
    solve_rb,
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


@pytest.mark.parametrize("c0", [np.full(32, np.nan), np.zeros(31), np.zeros((32, 1))],
                         ids=["nan", "short", "column"])
def test_invalid_initial_state_is_rejected_at_construction(c0):
    box = ParameterBox()
    with pytest.raises(ValueError, match="^c0 "):
        AdaptiveHierarchy(assemble(MeshSpec(32)), TimeGrid(1.0, 32), box, HierarchyConfig(),
                          KernelConfig(box=box), c0=c0)


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
    # ML answers start exactly when a fitted model exists and the training set
    # has reached the threshold; (2, 4) reaches the size before the first fit
    box = ParameterBox(pe_max=10.0)
    for trust_threshold, retrain_every in ((5, 1), (2, 4)):
        state = make_state(box=box, trust_threshold=trust_threshold, retrain_every=retrain_every)
        trusted, used = [], []
        for mu in sweep_mus(box, 10, seed=4):
            trusted.append(state.model is not None and len(state.train) >= trust_threshold)
            used.append(state.query(mu)[1].model_used == "ML")
        assert used == trusted
        assert not trusted[0] and trusted[-1]


def test_trust_never_mode():
    state = make_state(trust_mode="never", trust_threshold=1, retrain_every=1)
    mu = ParameterPoint(1.0, 5.0)
    state.query(mu)
    assert state.model is not None and len(state.train) >= 1
    _, rec = state.query(mu)
    assert rec.model_used in ("RB", "FOM")
    assert state.counters["ml_predicts"] == 0


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
    traj, f_rb = solve_rb(state.rm, mu, state.grid)
    delta = estimate(state.rm, mu, traj, state.grid).delta_rb
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
        f_ml = predict(state.model, mu)
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


def test_fits_count_only_the_refits_read(monkeypatch):
    # the desk schedule: a refit falls due at 10, 20, 30, 40 and 50 points, and
    # only the last one is ever read, by the ML answers that trust starts at 50
    box = ParameterBox(pe_max=10.0)
    state = make_state(box=box, retrain_every=10, trust_threshold=50)
    fit, fitted = hierarchy_mod.fit, []

    def counting_fit(train, config):
        fitted.append(len(train))
        return fit(train, config)

    monkeypatch.setattr(hierarchy_mod, "fit", counting_fit)
    records = [state.query(mu)[1] for mu in sweep_mus(box, 60, seed=11)]
    sizes = {rec.train_size_after for rec in records}
    assert [size for size in sorted(sizes) if size % 10 == 0] == [10, 20, 30, 40, 50]
    assert [rec.model_used for rec in records].count("ML") == 10
    assert fitted == [50] and state.counters["fits"] == 1
    assert state.model.n_centers >= 1 and state.counters["fits"] == 1


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


def test_replacement_makes_no_refit_due_at_retrain_every_one():
    # every new point makes a refit due, and 1 is a multiple of 1: only the
    # growth test keeps the replacing harvest from making one due again
    state = make_state(retrain_every=1, trust_threshold=50)
    mu = ParameterPoint(1.0, 5.0)
    assert state.query(mu)[1].model_used == "FOM"
    model = state.model
    assert model is not None and state.counters["fits"] == 1
    assert state.query(mu)[1].model_used == "RB"
    assert len(state.train) == 1
    assert state.model is model and state.counters["fits"] == 1


def test_fit_failure_keeps_previous_model(monkeypatch):
    # every new point makes a refit due (retrain_every = 1); the first query
    # that reads it is an ML answer, trusted from two points on
    box = ParameterBox(pe_max=10.0)
    state = make_state(box=box, retrain_every=1, trust_threshold=2)
    state.query(ParameterPoint(1.0, 5.0))
    previous = state.model
    assert previous is not None
    state.query(ParameterPoint(2.0, 6.0))  # not yet trusted: learned, a refit is due
    rm, train, counters = state.rm, state.train, dict(state.counters)
    assert len(train) == 2 and counters["fits"] == 1

    def broken_fit(train, config):
        raise RuntimeError("synthetic fit failure")

    mu = ParameterPoint(3.0, 7.0)
    with monkeypatch.context() as patch:
        patch.setattr(hierarchy_mod, "fit", broken_fit)
        with pytest.raises(RuntimeError, match="synthetic"):
            state.query(mu)
        with pytest.raises(RuntimeError, match="synthetic"):
            state.model
    assert state.rm is rm and state.train is train and len(state.train) == 2
    assert state.counters == counters and state._next_index == 3
    _, record = state.query(mu)
    assert record.index == 3 and record.model_used == "ML"
    model = state.model
    assert model is not previous and state.model is model
    assert state.counters["fits"] == counters["fits"] + 1


@pytest.mark.parametrize("target", ["solve_fom", "enrich", "fit"])
def test_failing_fom_branch_leaves_state_unchanged(monkeypatch, target):
    def broken(*args, **kwargs):
        raise RuntimeError("synthetic failure")

    # always_validate reads the surrogate first: the first query leaves a
    # refit due (retrain_every = 1), and the second, far from the first, fits
    # it, fails both certificates and takes the FOM branch, so every one of
    # the three layers runs inside that query
    state = make_state(retrain_every=1, trust_mode="always_validate", rom_tol=1e-4)
    state.query(ParameterPoint(1.0, 10.0))
    mu = ParameterPoint(5.0, 2.0)
    rm, train, counters = state.rm, state.train, dict(state.counters)
    assert counters["fits"] == 0
    with monkeypatch.context() as patch:
        patch.setattr(hierarchy_mod, target, broken)
        with pytest.raises(RuntimeError, match="synthetic"):
            state.query(mu)
    # nothing is committed, not even the RB solve that preceded the failure; a
    # fit that succeeded before it stays cached on the due surrogate, and the
    # retry reads it instead of fitting again
    assert state.counters == {**counters, "fits": int(target != "fit")}
    assert state.rm is rm and state.rm.dim == rm.dim
    assert state.train is train and len(state.train) == 1
    assert state._next_index == 2
    _, record = state.query(mu)
    assert record.index == 2 and record.model_used == "FOM"
    assert state.counters["fom_solves"] == 2 and state.counters["fits"] == 1


# -- stagnation ---------------------------------------------------------------------


def test_enrichment_stagnation_warns_and_returns_fom(caplog):
    # tolerance far below the estimator's numerical floor forces repeated FOM
    # branches until the basis saturates, then stagnation must be signaled
    state = make_state(n_cells=8, n_steps=8, rom_tol=1e-13)
    mu = ParameterPoint(1.0, 10.0)
    stagnated = False
    dim_before = state.rm.dim
    with caplog.at_level(logging.WARNING, logger="hiermor.hierarchy"):
        for _ in range(10):
            assert state.counters["stagnated"] == 0
            answer, rec = state.query(mu)
            assert rec.model_used == "FOM"
            if any("stagnated" in r.message for r in caplog.records):
                stagnated = True
                break
            dim_before = rec.rb_dim_after
    assert stagnated
    assert state.counters["stagnated"] == 1
    assert rec.rb_dim_after == dim_before  # the stagnated solve added no mode
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


# -- all or nothing, as a state machine -----------------------------------------------

STATEFUL_BOX = ParameterBox(pe_max=10.0)
# a few fixed points make repeats, and so RB answers, frequent
STATEFUL_POINTS = st.sampled_from(
    [ParameterPoint(da, pe) for da in (0.5, 5.0) for pe in (2.0, 8.0)]
) | st.builds(ParameterPoint, st.floats(0.1, 10.0), st.floats(1.0, 10.0))


def _snapshot(state):
    """The stored fields, and every counter but `fits`: a read may fit a due refit."""
    counters = {key: n for key, n in state.counters.items() if key != "fits"}
    return (counters, state.rm, state.train, [id(e) for e in state.train],
            state._surrogate, state._next_index)


def _refit_due(state):
    """A refit fell due and no read has fitted it yet."""
    return state._surrogate is not None and "model" not in vars(state._surrogate)


class QueryLadderMachine(RuleBasedStateMachine):
    """In-box queries mixed with reads and with queries failing inside a layer
    or outside the box; `fit` is counted for the machine's lifetime."""

    mode = "size_threshold"

    def __init__(self):
        super().__init__()
        self.state = make_state(n_cells=16, n_steps=16, box=STATEFUL_BOX, trust_mode=self.mode,
                                trust_threshold=6, retrain_every=1)
        self.next_index = 1
        self.fits_made = 0
        fit = hierarchy_mod.fit

        def counting_fit(*args):
            model = fit(*args)
            self.fits_made += 1
            return model

        self.fit_patch = mock.patch.object(hierarchy_mod, "fit", counting_fit)
        self.fit_patch.start()

    def teardown(self):
        self.fit_patch.stop()

    @invariant()
    def each_fit_counted_once(self):
        assert self.state.counters["fits"] == self.fits_made

    def _check(self, record):
        cfg = self.state.config
        assert record.index == self.next_index
        self.next_index += 1
        if record.model_used == "RB":
            assert record.delta_rb <= cfg.rom_tol
        if record.model_used == "ML" and cfg.trust_mode == "always_validate":
            assert record.ml_certificate <= cfg.validation_slack * cfg.rom_tol

    @rule(mu=STATEFUL_POINTS)
    def query(self, mu):
        self._check(self.state.query(mu)[1])

    @rule(mu=STATEFUL_POINTS, layer=st.sampled_from(["solve_fom", "enrich", "fit"]))
    def failing_query(self, mu, layer):
        before = _snapshot(self.state)
        with mock.patch.object(hierarchy_mod, layer, side_effect=RuntimeError("synthetic")):
            try:
                record = self.state.query(mu)[1]
            except RuntimeError:
                assert _snapshot(self.state) == before
                return
        self._check(record)  # the answering tier never reached the broken layer

    @precondition(lambda self: _refit_due(self.state))
    @rule(mu=STATEFUL_POINTS)
    def failing_fit_read(self, mu):
        """A due refit that fails changes nothing: in the query that reads
        it, or in a `model` read where the next query would not read it."""
        cfg = self.state.config
        reads = cfg.trust_mode == "always_validate" or (
            cfg.trust_mode == "size_threshold" and len(self.state.train) >= cfg.trust_threshold)
        before = _snapshot(self.state)
        with mock.patch.object(hierarchy_mod, "fit", side_effect=RuntimeError("synthetic")):
            with pytest.raises(RuntimeError, match="synthetic"):
                self.state.query(mu) if reads else self.state.model
        assert _snapshot(self.state) == before

    @rule(mu=STATEFUL_POINTS)
    def read(self, mu):
        """`model` and `certify` write nothing; a due refit is fitted once."""
        before = _snapshot(self.state)
        model = self.state.model
        self.state.certify(mu)
        assert self.state.model is model
        assert _snapshot(self.state) == before

    @rule()
    def outside_query(self):
        before = _snapshot(self.state)
        with pytest.raises(ValueError):
            self.state.query(ParameterPoint(100.0, 5.0))
        assert _snapshot(self.state) == before


class ValidatedLadderMachine(QueryLadderMachine):
    mode = "always_validate"


class NeverTrustLadderMachine(QueryLadderMachine):
    mode = "never"


def _bounded(machine):
    case = machine.TestCase
    case.settings = settings(max_examples=8, stateful_step_count=16, derandomize=True,
                             deadline=None)
    return case


TestQueryLadder = _bounded(QueryLadderMachine)
TestValidatedLadder = _bounded(ValidatedLadderMachine)
TestNeverTrustLadder = _bounded(NeverTrustLadderMachine)
