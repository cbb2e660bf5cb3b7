"""Vectorial greedy orthogonal kernel surrogate for whole QoI time series.

A Gaussian kernel acts on box-normalized parameters (Da linear, Pe on a log
scale since the admissible range spans decades).  Centers are picked by
f-greedy selection on the L2-in-time norm of the vectorial residual; the
interpolant is maintained in the Newton basis, whose triangular factor also
yields the power function.  Prediction maps a parameter straight to all
n_steps output values without time integration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.lapack import dtrtrs

from .fem import ParameterBox, ParameterPoint, QoiVector

__all__ = [
    "KernelConfig",
    "TrainingEntry",
    "TrainingSet",
    "KernelModel",
    "kernel",
    "fit",
    "predict",
    "power_function",
    "save_model",
    "load_model",
]

# Squared power function below which a greedy candidate is numerically
# dependent on the selected centers and selection stops.
DEGENERACY_GUARD = 1e-12


@dataclass(frozen=True)
class KernelConfig:
    """Gaussian kernel and greedy-selection hyperparameters, all with defaults.

    `shape` is the kernel width in coordinates normalized by `fit`'s box.
    `greedy_tol` is the absolute stopping tolerance on the max residual norm;
    None resolves to 1e-5 times the largest training norm at fit time.
    `criterion` picks the next center by residual norm ("f") or power function ("p").
    """

    shape: float = 0.5
    max_centers: int = 200
    greedy_tol: float | None = None
    nugget: float = 0.0
    criterion: str = "f"

    def __post_init__(self):
        # the kernel divides by 2 shape^2, which must neither underflow nor overflow
        if not (self.shape > 0.0 and 0.0 < 2.0 * (self.shape * self.shape) < math.inf):
            raise ValueError("shape must be positive with 2 shape^2 positive and finite "
                             "(about 1.5e-162 to 9.5e153)")
        if self.max_centers < 1:
            raise ValueError("max_centers must be >= 1")
        if self.greedy_tol is not None and not 0.0 <= self.greedy_tol < math.inf:
            raise ValueError("greedy_tol must be nonnegative and finite")
        if not 0.0 <= self.nugget < math.inf:
            raise ValueError("nugget must be nonnegative and finite")
        if self.criterion not in ("f", "p"):
            raise ValueError(f"criterion must be one of f, p; got {self.criterion!r}")


def _box_scales(box: ParameterBox) -> tuple[float, float, float, float]:
    """Offsets and spans of the normalizing map: (da_min, da_max - da_min,
    log pe_min, log pe_max - log pe_min)."""
    log_min = math.log(box.pe_min)
    return box.da_min, box.da_max - box.da_min, log_min, math.log(box.pe_max) - log_min


def _normalize(box: ParameterBox, mus: np.ndarray) -> np.ndarray:
    """Map (da, pe) rows to the unit square; pe is rescaled logarithmically."""
    da_min, da_span, log_min, log_span = _box_scales(box)
    z = np.empty_like(mus, dtype=float)
    z[:, 0] = (mus[:, 0] - da_min) / da_span
    z[:, 1] = (np.log(mus[:, 1]) - log_min) / log_span
    return z


def _kernel_matrix(z1: np.ndarray, z2: np.ndarray, shape: float) -> np.ndarray:
    sq = ((z1[:, None, :] - z2[None, :, :]) ** 2).sum(axis=2)
    return np.exp(-sq / (2.0 * shape**2))


def kernel(mu1: ParameterPoint, mu2: ParameterPoint, config: KernelConfig,
           box: ParameterBox) -> float:
    """Gaussian kernel k(mu1, mu2) on parameters normalized by `box`."""
    z = _normalize(box, np.array([[mu1.da, mu1.pe], [mu2.da, mu2.pe]]))
    return float(_kernel_matrix(z[:1], z[1:], config.shape)[0, 0])


@dataclass(frozen=True)
class TrainingEntry:
    mu: ParameterPoint
    qoi: QoiVector
    source: str  # "FOM" or "RB"


class TrainingSet:
    """Ordered (mu, QoI, source) collection with unique parameter points, held
    in one insertion-ordered dict keyed by mu.

    Inserting at an existing mu replaces the stored pair unless that would
    downgrade a FOM-sourced target to an RB-sourced one; the entry keeps its
    original position either way, as assigning to a dict key does.
    """

    def __init__(self):
        self._entries: dict[ParameterPoint, TrainingEntry] = {}

    def add(self, mu: ParameterPoint, qoi: QoiVector, source: str) -> None:
        if source not in ("FOM", "RB"):
            raise ValueError("source must be 'FOM' or 'RB'")
        old = self._entries.get(mu)
        if old is None or not (old.source == "FOM" and source == "RB"):
            self._entries[mu] = TrainingEntry(mu, qoi, source)

    def copy(self) -> TrainingSet:
        """Independent set holding the same entries (which are immutable)."""
        out = TrainingSet()
        out._entries = dict(self._entries)
        return out

    @property
    def entries(self) -> list[TrainingEntry]:
        return list(self._entries.values())

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self):
        return iter(self._entries.values())


@dataclass
class KernelModel:
    """Greedy-selected centers with Newton-basis factor and coefficient block.

    `newton_cholesky` is the lower-triangular factor of the kernel matrix
    restricted to the centers (plus nugget), in selection order;
    `coeff_block` holds one row of Newton coefficients per center; `box` is
    the parameter box the model was fitted in.

    Derived on every construction (`fit`, `load_model`, `dataclasses.replace`),
    so that a prediction normalizes only its mu and does no other set-up:
    `center_da` and `center_pe`, the two columns of the box-normalized
    centers (`_normalize`) as contiguous arrays of length k; `box_scales`,
    the constants of `_box_scales`; and `neg_two_shape_sq`, the divisor
    -(2 shape^2) of the kernel's exponent.
    Immutable after fit; concurrent predictions are safe.
    """

    centers: list[ParameterPoint]
    newton_cholesky: np.ndarray
    coeff_block: np.ndarray
    config: KernelConfig
    box: ParameterBox
    dt: float
    center_da: np.ndarray = field(init=False, repr=False, compare=False)
    center_pe: np.ndarray = field(init=False, repr=False, compare=False)
    box_scales: tuple[float, float, float, float] = field(init=False, repr=False, compare=False)
    neg_two_shape_sq: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        mus = np.array([[c.da, c.pe] for c in self.centers]).reshape(-1, 2)
        self.center_da, self.center_pe = np.ascontiguousarray(_normalize(self.box, mus).T)
        self.box_scales = _box_scales(self.box)
        self.neg_two_shape_sq = -(2.0 * self.config.shape**2)

    @property
    def n_centers(self) -> int:
        return len(self.centers)


def fit(data: TrainingSet, config: KernelConfig, box: ParameterBox) -> KernelModel:
    """Vectorial greedy orthogonal fit on the full training set, normalized by `box`.

    Selection loop: pick the candidate maximizing the residual norm (or the
    power function for criterion "p"), extend the Newton basis by one column,
    deflate the residuals, and stop on the residual tolerance, the center
    budget, or numerical degeneracy of the best candidate.  Ties break toward
    the lowest entry index, so refits are reproducible bit for bit.
    """
    entries = data.entries
    if not entries:
        raise ValueError("cannot fit a kernel model on an empty training set")
    m = len(entries)
    dts = {e.qoi.dt for e in entries}
    if len(dts) != 1:
        raise ValueError("training targets disagree on dt")
    dt = dts.pop()

    mus = np.array([[e.mu.da, e.mu.pe] for e in entries])
    targets = np.stack([e.qoi.values for e in entries])
    z = _normalize(box, mus)
    kmat = _kernel_matrix(z, z, config.shape)
    if config.nugget:
        kmat = kmat + config.nugget * np.eye(m)

    tol = config.greedy_tol
    if tol is None:
        tol = 1e-5 * math.sqrt(dt * float((targets**2).sum(axis=1).max()))

    budget = min(config.max_centers, m)
    newton = np.zeros((m, budget))
    power_sq = kmat.diagonal().copy()
    residual = targets.copy()
    selected: list[int] = []
    coeff_rows: list[np.ndarray] = []

    while len(selected) < budget:
        res_norms = np.sqrt(dt * (residual**2).sum(axis=1))
        res_norms[selected] = -np.inf
        if res_norms.max() <= tol:
            break
        if config.criterion == "f":
            scores = res_norms
        else:
            scores = power_sq.copy()
            scores[selected] = -np.inf
        best = int(np.argmax(scores))
        if power_sq[best] < DEGENERACY_GUARD:
            break
        k = len(selected)
        column = kmat[:, best] - newton[:, :k] @ newton[best, :k]
        beta = math.sqrt(power_sq[best])
        column /= beta
        coeff_rows.append(residual[best] / beta)
        residual -= np.outer(column, coeff_rows[-1])
        newton[:, k] = column
        power_sq -= column**2
        selected.append(best)

    k = len(selected)
    chol = np.tril(newton[selected, :k]) if k else np.zeros((0, 0))
    coeffs = np.vstack(coeff_rows) if k else np.zeros((0, targets.shape[1]))
    return KernelModel(
        centers=[entries[i].mu for i in selected],
        newton_cholesky=chol,
        coeff_block=coeffs,
        config=config,
        box=box,
        dt=dt,
    )


def _newton_values(model: KernelModel, mu: ParameterPoint) -> np.ndarray:
    """Newton basis functions evaluated at mu (length n_centers).

    The kernel row k(centers, mu) takes the operations of `_normalize` and
    `_kernel_matrix` in their order, on scalars for mu and on the cached
    center columns, so it has the same bits: (c - z)^2 = (z - c)^2, the sum
    of two squares is the length-2 reduction, and s / -w = -s / w.  Then
    L nu = k is solved as the transposed upper system on L.T, the LAPACK
    call `solve_triangular` makes for the C-ordered factor, in place on the
    row, which nothing else holds.
    """
    da_min, da_span, log_min, log_span = model.box_scales
    row = model.center_da - (mu.da - da_min) / da_span
    row *= row
    d_pe = model.center_pe - (np.log(mu.pe) - log_min) / log_span
    d_pe *= d_pe
    row += d_pe
    row /= model.neg_two_shape_sq
    np.exp(row, out=row)
    nu, info = dtrtrs(model.newton_cholesky.T, row, lower=0, trans=1, overwrite_b=1)
    if info != 0:
        raise np.linalg.LinAlgError(f"Newton factor is singular or malformed (trtrs info {info})")
    return nu


def predict(model: KernelModel, mu: ParameterPoint) -> QoiVector:
    """Evaluate the surrogate at mu; cost O(n_centers * n_steps).  `np.dot`
    makes the BLAS call of `nu @ C`, with the same bytes and less dispatch."""
    if not model.centers:
        return QoiVector(np.zeros(model.coeff_block.shape[1]), model.dt)
    return QoiVector(np.dot(_newton_values(model, mu), model.coeff_block), model.dt)


def power_function(model: KernelModel, mu: ParameterPoint) -> float:
    """Worst-case interpolation error factor at mu; zero at every center.

    P(mu)^2 = k(mu, mu) - |nu(mu)|^2, and k(mu, mu) = exp(-0) = 1.
    """
    if model.n_centers == 0:
        return 1.0
    nu = _newton_values(model, mu)
    p_sq = 1.0 - float(nu @ nu)
    # the subtraction bottoms out at roundoff: below that the value is zero
    if p_sq < 16.0 * np.finfo(float).eps:
        return 0.0
    return math.sqrt(p_sq)


FORMAT_VERSION = 1


def save_model(model: KernelModel, path) -> None:
    """Persist a model as an uncompressed NPZ archive (see README for layout)."""
    cfg, box = model.config, model.box
    with open(path, "wb") as fh:
        np.savez(
            fh,
            format_version=np.int64(FORMAT_VERSION),
            box=np.array([box.da_min, box.da_max, box.pe_min, box.pe_max]),
            shape=np.float64(cfg.shape),
            max_centers=np.int64(cfg.max_centers),
            greedy_tol=np.float64(np.nan if cfg.greedy_tol is None else cfg.greedy_tol),
            nugget=np.float64(cfg.nugget),
            criterion=np.str_(cfg.criterion),
            centers=np.array([[c.da, c.pe] for c in model.centers]).reshape(-1, 2),
            newton_cholesky=model.newton_cholesky,
            coeff_block=model.coeff_block,
            dt=np.float64(model.dt),
        )


def _finite(array: np.ndarray) -> bool:
    return array.dtype == np.float64 and bool(np.isfinite(array).all())


# The members `save_model` writes (README, "Model file format").
MODEL_MEMBERS = frozenset({"format_version", "box", "shape", "max_centers", "greedy_tol", "nugget",
                           "criterion", "centers", "newton_cholesky", "coeff_block", "dt"})
_KIND_NAMES = {"i": "integer", "f": "float", "U": "unicode"}


def _scalar(data, name: str, kind: str):
    """Member `name` as a Python scalar; ValueError unless it is a 0-d array
    of dtype kind `kind` ("i", "f" or "U")."""
    value = data[name]
    if value.ndim != 0 or value.dtype.kind != kind:
        raise ValueError(f"{name} must be a 0-d {_KIND_NAMES[kind]} array; "
                         f"got {value.dtype} of shape {value.shape}")
    return value.item()


def load_model(path) -> KernelModel:
    """Read a `save_model` archive; ValueError for a file that is not an NPZ
    archive, for another format version and for members that do not make a
    model `predict` can evaluate (see README)."""
    try:
        data = np.load(path)
    except (EOFError, ValueError):  # an empty file; a file that is no NPY or NPZ
        data = None
    if not isinstance(data, np.lib.npyio.NpzFile):  # a lone .npy loads as an array
        raise ValueError(f"{path} is not an NPZ archive")
    with data:
        missing, unknown = MODEL_MEMBERS - set(data.files), set(data.files) - MODEL_MEMBERS
        if missing or unknown:
            raise ValueError(f"model archive members: missing {sorted(missing)}, "
                             f"unknown {sorted(unknown)}")
        version = _scalar(data, "format_version", "i")
        if version != FORMAT_VERSION:
            raise ValueError(f"unsupported model format version {version}")
        tol = _scalar(data, "greedy_tol", "f")
        config = KernelConfig(
            shape=_scalar(data, "shape", "f"),
            max_centers=_scalar(data, "max_centers", "i"),
            greedy_tol=None if math.isnan(tol) else tol,
            nugget=_scalar(data, "nugget", "f"),
            criterion=_scalar(data, "criterion", "U"),
        )
        centers, chol, coeffs = data["centers"], data["newton_cholesky"], data["coeff_block"]
        box, dt = data["box"], _scalar(data, "dt", "f")
        if box.shape != (4,):
            raise ValueError(f"box must hold da_min, da_max, pe_min, pe_max; got {box.shape}")
        k = centers.shape[0] if centers.ndim else 0
        if centers.shape != (k, 2) or not _finite(centers):
            raise ValueError(f"centers must be a finite float64 (k, 2) array; got {centers.shape}")
        if (chol.shape != (k, k) or not _finite(chol) or np.triu(chol, 1).any()
                or not (chol.diagonal() > 0.0).all()):
            raise ValueError(f"newton_cholesky must be a finite lower-triangular ({k}, {k}) "
                             f"float64 array with a positive diagonal; got {chol.shape}")
        if coeffs.ndim != 2 or len(coeffs) != k or not _finite(coeffs):
            raise ValueError(f"coeff_block must be a finite float64 ({k}, n) array; "
                             f"got {coeffs.shape}")
        if not 0.0 < dt < math.inf:
            raise ValueError(f"dt must be positive and finite; got {dt}")
        return KernelModel(
            centers=[ParameterPoint(da, pe) for da, pe in centers],
            newton_cholesky=chol,
            coeff_block=coeffs,
            config=config,
            box=ParameterBox(*box.tolist()),
            dt=dt,
        )
