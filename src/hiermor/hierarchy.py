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
    qoi_norm,
    solve_fom,
)
from .kernel import KernelConfig, KernelModel, TrainingSet, fit, predict
from .rb import ReducedModel, enrich, estimate, project, solve_rb

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
    index: int
    mu: ParameterPoint
    model_used: str  # "ML" | "RB" | "FOM"
    wall_time: float
    delta_rb: float | None
    ml_certificate: float | None
    rb_dim_after: int
    train_size_after: int


@dataclass(frozen=True, eq=False)
class Surrogate:
    """A training set a refit fell due on, and its kernel model, fitted on
    first read and cached as `FomOperators.ip_factor` is; a fit that raises
    caches nothing.  `earlier_fits` counts the fits made before this value."""

    train: TrainingSet
    kernel_config: KernelConfig
    earlier_fits: int = 0

    @cached_property
    def model(self) -> KernelModel:
        return fit(self.train, self.kernel_config)

    @property
    def fits(self) -> int:
        return self.earlier_fits + ("model" in self.__dict__)


class AdaptiveHierarchy:
    """Sequential controller owning the reduced model, surrogate and training set.

    A query changes controller state all at once or not at all.  `query()`
    walks the ladder once, computing in locals the answer, the candidate
    basis, training set and surrogate, and the counter increments; `_commit`
    writes them in one step, and only then does the record index advance.
    A query that raises (a parameter outside the box, a failing `solve_fom`,
    `enrich` or `fit`) changes no controller field.  Queries run one at a
    time, each from the state the previous one left.

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

        Before the first due refit the surrogate counts as the zero model,
        so the certificate degenerates to delta_rb + ||f_rb||.
        """
        model = self.model
        f_rb, delta = self._rb_answer(mu)
        f_ml = (QoiVector(np.zeros(self.grid.n_steps), self.grid.dt) if model is None
                else predict(model, mu))
        gap = qoi_norm(QoiVector(f_rb.values - f_ml.values, f_rb.dt))
        return MlCertificate(delta + gap, delta, f_rb, f_ml)

    def _rb_answer(self, mu: ParameterPoint) -> tuple[QoiVector, float]:
        """Reduced output and its error bound against the current basis."""
        traj, qoi = solve_rb(self.rm, mu, self.grid)
        return qoi, estimate(self.rm, mu, traj, self.grid).delta_rb

    # -- the query ladder ------------------------------------------------------

    def query(self, mu: ParameterPoint) -> tuple[QoiVector, QueryRecord]:
        """Answer one parameter query through the adaptive ladder."""
        if not self.box.contains(mu):
            raise ValueError(f"{mu} lies outside the parameter box {self.box}")
        start = time.perf_counter()
        cfg = self.config
        delta = cert = None
        learned = (self.rm, self.train, self._surrogate)
        # Size-threshold trust needs a fitted or due surrogate; the check fits nothing.
        if (cfg.trust_mode == "size_threshold" and self._surrogate is not None
                and len(self.train) >= cfg.trust_threshold):
            answer, used = predict(self._surrogate.model, mu), "ML"
            counts = {"ml_predicts": 1}
        else:
            cert = self.certify(mu) if cfg.trust_mode == "always_validate" else None
            f_rb, delta = (cert.f_rb, cert.delta_rb) if cert else self._rb_answer(mu)
            counts = {"rb_solves": 1, "ml_predicts": int(cert is not None)}
            if cert is not None and cert.value <= cfg.validation_slack * cfg.rom_tol:
                answer, used = cert.f_ml, "ML"
            else:
                used = "RB" if delta <= cfg.rom_tol else "FOM"
                answer, learned, stagnated = self._harvest(mu, f_rb if used == "RB" else None)
                counts.update(fom_solves=int(used == "FOM"), stagnated=stagnated)

        self._commit(counts, learned)
        self._next_index += 1
        record = QueryRecord(
            index=self._next_index - 1,
            mu=mu,
            model_used=used,
            wall_time=time.perf_counter() - start,
            delta_rb=delta,
            ml_certificate=None if cert is None else cert.value,
            rb_dim_after=self.rm.dim,
            train_size_after=len(self.train),
        )
        return answer, record

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
            surrogate = Surrogate(train, self.kernel_config, self.counters["fits"])
        return answer, (rm, train, surrogate), stagnated

    def _commit(self, counts: dict[str, int], learned: tuple) -> None:
        """The one place controller state is written: counters, then what was learned."""
        for key, n in counts.items():
            self._counts[key] += n
        self.rm, self.train, self._surrogate = learned


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
