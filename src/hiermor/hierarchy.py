"""Adaptive three-tier controller routing parameter queries across ML, RB, FOM.

Every query walks the same decision ladder:

1. If the kernel surrogate is currently trusted, return its prediction.
2. Otherwise solve the reduced model and evaluate its error bound; when the
   bound meets the tolerance, the RB answer is returned and harvested as a
   training pair.
3. Otherwise fall back to the full-order solve, enrich the reduced basis
   with the new trajectory, harvest the FOM answer as a training pair, and
   return it.

A refit of the kernel model from scratch falls due whenever a harvest
grows the training set to a multiple of `retrain_every` points.  Its
`Surrogate` fits that set on the first read of its model and keeps the fit,
so a refit that a later one replaces unread costs nothing; the fit is
deterministic, so every answer is the one an eager fit would give.  Trust
is either the blunt training-set size threshold or a per-query validation
against the triangle-inequality certificate

    ||f_fom(mu) - f_ml(mu)|| <= delta_rb(mu) + ||f_rb(mu) - f_ml(mu)||,

which is computable without any full-order solve.

Under `always_validate` and `never` the RB pair (`solve_rb` + `estimate`)
starts from a leading sub-basis, so that most pairs run on fewer modes than
the basis has.  The reduced model carries a ladder of levels, one
every `LEVEL_STEP` modes (`ReducedModel.level`), and the controller keeps a
start level, a mode count that carries across bases.  A query runs the pair
on the start level first, when the basis has more modes, and answers from it
when its bound meets rom_tol; otherwise it runs one pair on the full basis,
which alone decides RB against FOM, and moves the start up one level.  So a
query pays at most one extra pair, and the start settles where the levels
stop failing.  `query` and `certify` share that path.  Under
`size_threshold` the RB answers train a surrogate whose answers carry no
bound, and training it on the levels' looser answers raised the misses of
rom_tol (the summed `desk` answers over rom_tol rose from 13 / 18 / 13 to
21 / 19 / 14 at seeds 42 / 7 / 123), so that mode keeps the full basis.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .fem import (
    FomOperators,
    ParameterBox,
    ParameterPoint,
    QoiVector,
    TimeGrid,
    solve_fom,
)
from .kernel import KernelConfig, KernelModel, TrainingSet, fit, predict
from .rb import LEVEL_STEP, ReducedModel, enrich, estimate, project, solve_rb

__all__ = [
    "HierarchyConfig",
    "MlCertificate",
    "QueryRecord",
    "AdaptiveHierarchy",
    "write_query_log",
    "CSV_COLUMNS",
]

logger = logging.getLogger(__name__)

TRUST_MODES = ("size_threshold", "always_validate", "never")
# The counter increment of a trusted size_threshold answer; `_commit` only reads it.
_ML_ANSWER = {"ml_predicts": 1}


@dataclass(frozen=True)
class HierarchyConfig:
    """Controller knobs: ROM tolerance, retrain schedule and trust criterion.

    `size_threshold` ML answers carry no bound (their `ml_certificate` is
    empty) and can miss `rom_tol`; `always_validate` ones carry a certificate.
    """

    rom_tol: float = 1e-2
    retrain_every: int = 10
    trust_threshold: int = 50
    trust_mode: str = "size_threshold"
    validation_slack: float = 1.0
    enrich_energy_tol: float = 1e-6
    enrich_max_modes: int = 25
    warm_start_corners: bool = False

    def __post_init__(self):
        if not 0.0 < self.rom_tol < math.inf:
            raise ValueError("rom_tol must be positive and finite")
        if self.retrain_every < 1:
            raise ValueError("retrain_every must be >= 1")
        if self.trust_threshold < 1:
            raise ValueError("trust_threshold must be >= 1")
        if self.trust_mode not in TRUST_MODES:
            raise ValueError(f"trust_mode must be one of {', '.join(TRUST_MODES)}; "
                             f"got {self.trust_mode!r}")
        if not 0.0 < self.validation_slack < math.inf:
            raise ValueError("validation_slack must be positive and finite")
        if not 0.0 <= self.enrich_energy_tol < 1.0:
            raise ValueError("enrich_energy_tol must lie in [0, 1)")
        if self.enrich_max_modes < 1:
            raise ValueError("enrich_max_modes must be >= 1")


@dataclass
class MlCertificate:
    """Upper bound on the surrogate's output error, and the outputs it compared."""

    value: float
    delta_rb: float
    f_rb: QoiVector
    f_ml: QoiVector


@dataclass
class QueryRecord:
    # `query` passes the fields by position, which costs less than by keyword.
    index: int
    mu: ParameterPoint
    model_used: str  # "ML" | "RB" | "FOM"
    wall_time: float
    delta_rb: float | None
    ml_certificate: float | None
    rb_dim_after: int
    train_size_after: int
    # Mode count of the basis whose pair gave delta_rb; None when no pair ran.
    # Record-only: queries.csv has no column for it.
    rb_level: int | None = None


@dataclass(frozen=True, eq=False)
class Surrogate:
    """A training set a refit fell due on, and its kernel model in `box`,
    fitted on first read and cached as `FomOperators.ip_factor` is; a fit
    that raises caches nothing.  `earlier_fits` counts the fits made before."""

    train: TrainingSet
    kernel_config: KernelConfig
    box: ParameterBox
    earlier_fits: int = 0

    @cached_property
    def model(self) -> KernelModel:
        return fit(self.train, self.kernel_config, self.box)

    @property
    def fits(self) -> int:
        return self.earlier_fits + ("model" in self.__dict__)


class AdaptiveHierarchy:
    """Sequential controller owning the reduced model, surrogate and training set.

    A query changes controller state all at once or not at all.  `query()`
    walks the ladder once, computing in locals the answer, the candidate
    basis, training set and surrogate, the start level and the counter
    increments; `_commit` writes them in one step, and only then does the
    record index advance.  A query that raises (a parameter outside the box,
    a failing `solve_fom`, `enrich` or `fit`) changes no controller field.
    Queries run one at a time, each from the state the previous one left.

    Reads (`model`, `certify`, `counters`) write no controller field.  A
    refit that falls due (the schedule is read off the training-set size)
    installs an unfitted `Surrogate`.  The first read of its model, by an ML
    answer, a certificate or `model`, fits it once and caches the fit, which
    stays when that query fails later; so a failing fit surfaces in the
    first query that reads it, and `counters["fits"]` counts the fits made.
    """

    def __init__(
        self,
        ops: FomOperators,
        grid: TimeGrid,
        box: ParameterBox,
        config: HierarchyConfig,
        kernel_config: KernelConfig,
        c0: np.ndarray | None = None,
    ):
        self.ops = ops
        self.grid = grid
        self.box = box
        self.config = config
        self.kernel_config = kernel_config
        self.c0 = np.zeros(ops.n_dofs) if c0 is None else np.asarray(c0, dtype=float)
        if self.c0.shape != (ops.n_dofs,) or not np.isfinite(self.c0).all():
            raise ValueError(f"c0 must be a finite vector of shape ({ops.n_dofs},)")
        self.rm: ReducedModel = project(ops, np.zeros((ops.n_dofs, 0)), self.c0)
        self.train = TrainingSet()
        # The surrogate of the last refit that fell due; None before the first.
        self._surrogate: Surrogate | None = None
        # Mode count of the level an RB pair starts from; it carries across bases.
        # `_level` is `rm.level(_start_level)` once a committed query sliced it
        # (a slice costs about a quarter of its pair), None until then.  A new
        # basis comes only from a FOM answer, which leaves None: its level
        # pair, if one ran, missed rom_tol.
        self._start_level = LEVEL_STEP
        self._level: ReducedModel | None = None
        self._counts = dict.fromkeys(("fom_solves", "rb_solves", "ml_predicts", "stagnated"), 0)
        self._next_index = 1
        if config.warm_start_corners:
            for corner in box.corners():
                _, learned, stagnated = self._harvest(corner, None)
                self._commit({"fom_solves": 1, "stagnated": stagnated}, learned)

    @property
    def model(self) -> KernelModel | None:
        """The kernel surrogate, fitted on first read; None before the first due refit."""
        return None if self._surrogate is None else self._surrogate.model

    @property
    def counters(self) -> dict[str, int]:
        """What the committed queries ran, and `fits`, the kernel fits made."""
        fits = 0 if self._surrogate is None else self._surrogate.fits
        return {**self._counts, "fits": fits}

    def certify(self, mu: ParameterPoint) -> MlCertificate:
        """Triangle-inequality bound on the surrogate error; no FOM solve involved.

        f_rb and delta_rb come from the RB path a query at mu would take.
        Before the first due refit the surrogate counts as the zero model,
        so the certificate degenerates to delta_rb + ||f_rb||.  A mu outside
        the box raises the ValueError `query` raises.
        """
        if not self.box.contains(mu):
            raise ValueError(f"{mu} lies outside the parameter box {self.box}")
        return self._certificate(mu, *self._rb_answer(mu)[:2])

    def _certificate(self, mu: ParameterPoint, f_rb: QoiVector, delta: float) -> MlCertificate:
        model = self.model
        f_ml = (QoiVector(np.zeros(self.grid.n_steps), self.grid.dt) if model is None
                else predict(model, mu))
        diff = f_rb.values - f_ml.values  # qoi_norm's arithmetic, without a QoiVector
        gap = math.sqrt(f_rb.dt * float(np.dot(diff, diff)))
        return MlCertificate(delta + gap, delta, f_rb, f_ml)

    def _rb_answer(self, mu: ParameterPoint) -> tuple[QoiVector, float, int, tuple]:
        """Reduced output and its error bound, the mode count of the basis
        whose pair gave them, and the start level the query leaves with its
        sliced model (None when not sliced).

        Under always_validate and never the pair runs first on the level of
        `_start_level` modes, when the basis has more, and answers when its
        bound meets rom_tol; otherwise one pair on the full basis answers and
        the start moves up one level.  size_threshold reads the full basis only.
        """
        rm, start, level = self.rm, self._start_level, self._level
        if self.config.trust_mode != "size_threshold" and start < rm.dim:
            level = rm.level(start) if level is None else level
            f_rb, delta = self._rb_pair(level, mu)
            if delta <= self.config.rom_tol:
                return f_rb, delta, start, (start, level)
            start, level = start + LEVEL_STEP, None
        return *self._rb_pair(rm, mu), rm.dim, (start, level)

    def _rb_pair(self, rm: ReducedModel, mu: ParameterPoint) -> tuple[QoiVector, float]:
        traj, qoi = solve_rb(rm, mu, self.grid)
        return qoi, estimate(rm, mu, traj, self.grid).delta_rb

    # -- the query ladder ------------------------------------------------------

    def query(self, mu: ParameterPoint) -> tuple[QoiVector, QueryRecord]:
        """Answer one parameter query through the adaptive ladder.  A trusted
        `size_threshold` answer only predicts, counts itself and records; only
        the RB/FOM branch hands `_commit` a learned state and a start level."""
        if not self.box.contains(mu):
            raise ValueError(f"{mu} lies outside the parameter box {self.box}")
        start = time.perf_counter()
        cfg = self.config
        n_train = len(self.train)
        # Size-threshold trust needs a fitted or due surrogate; the check fits nothing.
        if (cfg.trust_mode == "size_threshold" and self._surrogate is not None
                and n_train >= cfg.trust_threshold):
            answer = predict(self._surrogate.model, mu)
            self._commit(_ML_ANSWER)
            self._next_index += 1
            return answer, QueryRecord(self._next_index - 1, mu, "ML",
                                       time.perf_counter() - start, None, None, self.rm.dim,
                                       n_train)

        f_rb, delta, level, ladder = self._rb_answer(mu)
        cert = self._certificate(mu, f_rb, delta) if cfg.trust_mode == "always_validate" else None
        counts = {"rb_solves": 1, "ml_predicts": int(cert is not None)}
        learned = None
        if cert is not None and cert.value <= cfg.validation_slack * cfg.rom_tol:
            answer, used = cert.f_ml, "ML"
        else:
            used = "RB" if delta <= cfg.rom_tol else "FOM"
            answer, learned, stagnated = self._harvest(mu, f_rb if used == "RB" else None)
            counts.update(fom_solves=int(used == "FOM"), stagnated=stagnated)
        self._commit(counts, learned, ladder)
        self._next_index += 1
        return answer, QueryRecord(self._next_index - 1, mu, used, time.perf_counter() - start,
                                   delta, None if cert is None else cert.value, self.rm.dim,
                                   len(self.train), level)

    def _harvest(self, mu: ParameterPoint, f_rb: QoiVector | None):
        """Answer, (basis, training set, surrogate) after learning mu, and
        whether the enrichment stagnated (0 or 1).

        `f_rb` None takes the FOM branch.  A refit falls due when the
        harvest grows the training set to a multiple of `retrain_every` (a
        repeated mu replaces its entry and grows nothing); an unfitted
        surrogate of the new training set then takes the current one's
        place.  `_harvest` copies the set before adding, so nothing mutates
        it later.  Writes nothing.
        """
        cfg = self.config
        rm, train, surrogate, answer = self.rm, self.train.copy(), self._surrogate, f_rb
        stagnated = 0
        if f_rb is None:
            traj, answer = solve_fom(self.ops, mu, self.grid, self.c0)
            rm, added = enrich(rm, traj, self.ops, energy_tol=cfg.enrich_energy_tol,
                               max_modes=cfg.enrich_max_modes)
            if added == 0:
                logger.warning("enrichment stagnated at mu=%s (trajectory already in span); "
                               "returning the FOM answer anyway", mu)
                stagnated = 1
        train.add(mu, answer, "RB" if f_rb is not None else "FOM")
        if len(train) > len(self.train) and len(train) % cfg.retrain_every == 0:
            surrogate = Surrogate(train, self.kernel_config, self.box, self.counters["fits"])
        return answer, (rm, train, surrogate), stagnated

    def _commit(self, counts: dict[str, int], learned: tuple | None = None,
                ladder: tuple | None = None) -> None:
        """The one place controller state is written: counters, then what was
        learned and the start level with its sliced model, each when given."""
        for key, n in counts.items():
            self._counts[key] += n
        if learned is not None:
            self.rm, self.train, self._surrogate = learned
        if ladder is not None:
            self._start_level, self._level = ladder


# -- query log export ---------------------------------------------------------

CSV_COLUMNS = (
    "index",
    "da",
    "pe",
    "model_used",
    "wall_time",
    "delta_rb",
    "ml_certificate",
    "rb_dim_after",
    "train_size_after",
)


def _fmt(x: float | None) -> str:
    return "" if x is None else format(x, ".17g")


def write_query_log(records: list[QueryRecord], path) -> None:
    """CSV export, one row per query; floats carry 17 significant digits."""
    import csv

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for rec in records:
            writer.writerow(
                [
                    rec.index,
                    _fmt(rec.mu.da),
                    _fmt(rec.mu.pe),
                    rec.model_used,
                    _fmt(rec.wall_time),
                    _fmt(rec.delta_rb),
                    _fmt(rec.ml_certificate),
                    rec.rb_dim_after,
                    rec.train_size_after,
                ]
            )
