"""Full-order model: 1D advection-diffusion-reaction, P1 elements, implicit Euler.

Reference problem (dimensionless breakthrough setup):

    d_t c - (1/Pe) d_xx c + d_x c + Da c = 0      on (0, 1),
    c(0, t) = inflow value,  d_x c(1, t) = 0,     c(., 0) = c0.

The quantity of interest is the breakthrough curve f(mu; t) = c(1, t),
recorded at the implicit Euler time points t_1 .. t_N.

The inflow node is constrained and eliminated from the algebraic system;
its couplings are folded into the load.  Since those couplings multiply the
parameter-dependent operator terms, the load splits into one component per
affine term and is assembled per parameter by :func:`load_vector`, so that
all stored matrices and vectors stay parameter independent:

    A(mu) = sum_q theta_q(mu) A_q,  b(mu) = sum_q theta_q(mu) b_q,  theta(mu) = (1/pe, 1, da).

Every operator is tridiagonal and is stored once, as its DIA bands
(`FomOperators.bands`); the time stepping, the H inner product solves and the
coercivity constants call the LAPACK tridiagonal routines on those bands.
This module alone knows that format.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np
import scipy.sparse as sp
from scipy.linalg.lapack import dgttrf, dgttrs, dpttrf, dtbtrs

__all__ = [
    "ParameterBox",
    "ParameterPoint",
    "MeshSpec",
    "TimeGrid",
    "FomOperators",
    "IpFactor",
    "Trajectory",
    "QoiVector",
    "assemble",
    "solve_fom",
    "qoi_norm",
    "system_matrix",
    "load_vector",
    "theta",
    "affine",
    "tridiagonal",
    "coercivity_constants",
]


@dataclass(frozen=True)
class ParameterPoint:
    """A point mu = (Da, Pe) in parameter space."""

    da: float
    pe: float


@dataclass(frozen=True)
class ParameterBox:
    """Admissible rectangle for (Da, Pe).

    Pe enters the operator as 1/Pe and must be strictly positive; Da may
    start at exactly zero (no reaction) but not below.
    """

    da_min: float = 0.1
    da_max: float = 10.0
    pe_min: float = 1.0
    pe_max: float = 100.0

    def __post_init__(self):
        for name in ("da_min", "da_max", "pe_min", "pe_max"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if not self.da_min < self.da_max:
            raise ValueError("da_min must be < da_max")
        if not self.pe_min < self.pe_max:
            raise ValueError("pe_min must be < pe_max")
        if self.da_min < 0.0:
            raise ValueError("da_min must be >= 0")
        if self.pe_min <= 0.0:
            raise ValueError("pe_min must be > 0")

    def contains(self, mu: ParameterPoint) -> bool:
        return (self.da_min <= mu.da <= self.da_max
                and self.pe_min <= mu.pe <= self.pe_max)

    def points(self, unit: np.ndarray) -> list[ParameterPoint]:
        """Map the rows (u_da, u_pe) of an (n, 2) array of draws from the unit
        square to the points low + (high - low) * u, as `Generator.uniform`
        maps its draws."""
        low = np.array([self.da_min, self.pe_min])
        high = np.array([self.da_max, self.pe_max])
        return [ParameterPoint(da, pe) for da, pe in (low + (high - low) * unit).tolist()]

    def corners(self) -> list[ParameterPoint]:
        """The four outermost points of the box."""
        return [
            ParameterPoint(da, pe)
            for da in (self.da_min, self.da_max)
            for pe in (self.pe_min, self.pe_max)
        ]


@dataclass(frozen=True)
class MeshSpec:
    """Uniform mesh of [0, 1] with nodes x_i = i * h, h = 1 / n_cells."""

    n_cells: int

    def __post_init__(self):
        if self.n_cells < 2:
            raise ValueError("n_cells must be >= 2")

    @property
    def h(self) -> float:
        return 1.0 / self.n_cells


@dataclass(frozen=True)
class TimeGrid:
    """Implicit Euler grid: t_n = n * dt, n = 0 .. n_steps, dt = t_end / n_steps."""

    t_end: float
    n_steps: int

    def __post_init__(self):
        if not 0.0 < self.t_end < math.inf:
            raise ValueError("t_end must be positive and finite")
        if self.n_steps < 1:
            raise ValueError("n_steps must be >= 1")
        if abs(self.dt * self.n_steps - self.t_end) > 1e-12 * self.t_end:
            raise ValueError("dt * n_steps must equal t_end to machine precision")

    @property
    def dt(self) -> float:
        return self.t_end / self.n_steps

    def times(self) -> np.ndarray:
        """The QoI time points t_1 .. t_{n_steps} (t = 0 excluded)."""
        return self.dt * np.arange(1, self.n_steps + 1)


@dataclass
class QoiVector:
    """Output time series (f(t_1), .., f(t_N)) with its quadrature weight dt."""

    values: np.ndarray
    dt: float


def qoi_norm(q: QoiVector) -> float:
    """Discrete L2([0, T]) norm, rectangle rule on the implicit Euler grid."""
    return math.sqrt(q.dt * float(np.dot(q.values, q.values)))


@dataclass
class Trajectory:
    """Nodal coefficients per time step; row n is the solution at t_n (row 0 = c0)."""

    coeffs: np.ndarray


@dataclass
class FomOperators:
    """Assembled, parameter-independent FEM blocks on the free nodes 1 .. n_cells.

    Each operator is stored once, in the read-only (5, 3, n_dofs) `bands`: mass,
    the affine terms A_q in theta order (diffusion, advection, and reaction,
    equal to mass) and ip, the discrete H1 inner product mass + diffusion used
    for all orthogonality and dual norms.  Each block is DIA data at offsets
    (-1, 0, 1): the subdiagonal with its trailing entry unused, the diagonal,
    and the superdiagonal with its leading entry unused.  `mass`, `blocks`
    and `ip` are `sp.dia_matrix` views of that memory.  Row q of `loads`
    (Q x n_dofs) is b_q.

    Treated as immutable after assembly (solvers for distinct parameters may
    share one instance).  `ip_factor`, `coercivity` and `term_sources` are
    computed on first use and cached on the instance; a `dataclasses.replace`d
    set computes its own, and its own views.
    """

    bands: np.ndarray
    loads: np.ndarray
    output: np.ndarray

    def __post_init__(self):
        self.bands.flags.writeable = False
        n = self.n_dofs
        self.mass, *blocks, self.ip = (sp.dia_matrix((band, (-1, 0, 1)), shape=(n, n))
                                       for band in self.bands)
        self.blocks = tuple(blocks)

    @property
    def n_dofs(self) -> int:
        return self.bands.shape[-1]

    @cached_property
    def ip_factor(self) -> IpFactor:
        """ip's factor, factored once per operator set."""
        return IpFactor.of_bands(*_symmetric(self.bands[4]))

    @cached_property
    def term_sources(self) -> tuple[int, ...]:
        """For each affine term [mass, A_1 .. A_Q], the index of the first term
        whose bands are bitwise equal to its own (its own index if no earlier
        one is): (0, 1, 2, 0) for `assemble`'s operators, whose reaction block
        is the mass.  A term's products with a basis have the bits of its
        source's, so callers compute them once per source.  Found once per
        operator set, by comparing the terms' bytes."""
        terms = [term.tobytes() for term in self.bands[:-1]]
        return tuple(terms.index(term) for term in terms)

    @cached_property
    def coercivity(self) -> tuple[float, float]:
        """The pair `coercivity_constants` returns, computed once per operator set
        (29 PTTRF calls at 256 cells, 36 at 2048)."""
        ip = _symmetric(self.bands[4])
        return (_pencil_min_eig(_symmetric(self.bands[1]), ip),
                _pencil_min_eig(_symmetric(self.bands[3]), ip))


def _symmetric(band: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Main and off-diagonal of one operator's bands; ValueError unless the
    sub- and superdiagonal agree."""
    if not np.array_equal(band[0, :-1], band[2, 1:]):
        raise ValueError("matrix is not symmetric tridiagonal")
    return band[1], band[0, :-1]


def tridiagonal(mat) -> tuple[np.ndarray, np.ndarray]:
    """Main and first off-diagonal of a symmetric tridiagonal matrix, sparse or
    dense; ValueError for any other matrix."""
    csr = sp.csr_matrix(mat)
    rows = np.repeat(np.arange(csr.shape[0]), np.diff(csr.indptr))
    off = csr.diagonal(1)
    if (csr.shape[0] != csr.shape[1] or np.any((abs(csr.indices - rows) > 1) & (csr.data != 0))
            or np.any(off != csr.diagonal(-1))):
        raise ValueError("matrix is not symmetric tridiagonal")
    return csr.diagonal(), off


@dataclass(frozen=True)
class IpFactor:
    """ip = L D L^T by LAPACK PTTRF, the only factorization of an inner product matrix.

    L is unit lower bidiagonal with subdiagonal `sub`; `root_d` is D^1/2.  In
    the coordinates Y = D^1/2 L^T X, H inner products are Euclidean ones
    (Y^T Y = X^T ip X); each map is one bidiagonal product or solve.
    """

    root_d: np.ndarray
    sub: np.ndarray

    @classmethod
    def of(cls, ip) -> IpFactor:
        """ValueError unless ip is symmetric tridiagonal and positive definite."""
        return cls.of_bands(*tridiagonal(ip))

    @classmethod
    def of_bands(cls, main: np.ndarray, off: np.ndarray) -> IpFactor:
        """The factor of the symmetric tridiagonal matrix with these bands;
        ValueError unless it is positive definite."""
        d, e, info = dpttrf(main, off)
        if info != 0:
            raise ValueError("inner product matrix is not positive definite")
        return cls(np.sqrt(d), e)

    def coords(self, x: np.ndarray) -> np.ndarray:
        """Y = D^1/2 L^T X for an (n, m) X, new and Fortran-ordered like a
        trajectory's snapshots `coeffs.T`; its bits do not depend on X's layout."""
        xt = x.T
        yt = np.empty(xt.shape)
        np.multiply(xt[:, 1:], self.sub, out=yt[:, :-1])
        yt[:, :-1] += xt[:, :-1]
        yt[:, -1] = xt[:, -1]
        yt *= self.root_d
        return yt.T

    def from_coords(self, y: np.ndarray) -> np.ndarray:
        """X = L^-T D^-1/2 Y, the inverse of `coords`, C-ordered."""
        return np.ascontiguousarray(self._solve(y / self.root_d[:, None], "U"))

    def half_solve(self, rhs: np.ndarray) -> np.ndarray:
        """Y = D^-1/2 L^-1 rhs for an (n, m) rhs.

        Y^T Y = rhs^T ip^-1 rhs, so each column's Euclidean norm is its dual
        norm and Gramians of Riesz representers are Gramians of Y, with no
        full solve and no squared Gram matrix."""
        return self._solve(rhs, "L") / self.root_d[:, None]

    @cached_property
    def _tbtrs_bands(self) -> dict[str, np.ndarray]:
        """L's band storage for TBTRS by `uplo`, L itself ("L") and L^T ("U"),
        Fortran-ordered as the wrapper reads it."""
        ones, sub = np.ones(self.root_d.size), np.append(self.sub, 0.0)
        return {"L": np.asfortranarray([ones, sub]),
                "U": np.asfortranarray([np.roll(sub, 1), ones])}

    def _solve(self, rhs: np.ndarray, uplo: str) -> np.ndarray:
        """L^-1 rhs ("L") or L^-T rhs ("U") by one banded LAPACK TBTRS."""
        if rhs.shape[1] == 0:  # scipy's TBTRS wrapper corrupts the heap given no columns
            return np.zeros(rhs.shape)
        return dtbtrs(self._tbtrs_bands[uplo], rhs, uplo=uplo, diag="U")[0]


# Relative width at which the coercivity bracket search stops: its bracket
# [lo, hi] satisfies hi - lo <= COERCIVITY_RTOL * lo.
COERCIVITY_RTOL = 1e-12


def _secant_root(s0: float, f0: float, s1: float, f1: float) -> float:
    """Zero of the line through (s0, f0) and (s1, f1); NaN if it is flat."""
    return s1 - f1 * (s1 - s0) / (f1 - f0) if f1 != f0 else math.nan


def _pencil_min_eig(a, b) -> float:
    """The lower end of a bracket, relatively COERCIVITY_RTOL wide, on the
    shifts s at which a - s b (b SPD) factors by Cholesky; a and b are (main,
    off) band pairs.

    The bracket is searched by a safeguarded secant on f(s) = D(n), the last
    pivot PTTRF returns: positive below the minimal eigenvalue, and still
    whole (and <= 0) when only that pivot fails (info == n); an earlier
    failure leaves no value.  A step proposes the regula falsi point of the
    bracket ends while f(hi) is known, else the secant through the last two
    successes; an end kept twice in a row has its f halved (Illinois).  A
    proposal is kept COERCIVITY_RTOL / 2 inside the bracket, so the last step
    straddles the root.  The midpoint is taken when there is no proposal in
    the bracket or the search is behind one halving per two factorizations,
    so no search takes more than twice bisection's calls.
    """
    (ad, ae), (bd, be) = a, b
    d, _, info = dpttrf(ad, ae)  # the positive-definiteness check is f(0)
    if info != 0:
        raise ValueError("operator is not positive definite; 0 is no coercivity bound")
    lo, hi, f_lo, f_hi = 0.0, float(np.min(ad / bd)), float(d[-1]), None
    prev, kept, calls, width0 = None, None, 0, hi  # prev: (shift, f) of the success before lo
    d, e = np.empty_like(ad), np.empty_like(ae)  # shifted bands, overwritten by PTTRF
    while hi - lo > COERCIVITY_RTOL * lo and (mid := 0.5 * (lo + hi)) not in (lo, hi):
        s = mid
        if calls < 2 * math.log2(width0 / (hi - lo)) + 1:
            p = (_secant_root(lo, f_lo, hi, f_hi) if f_hi is not None
                 else _secant_root(*prev, lo, f_lo) if prev else math.nan)
            if lo < p < hi:
                margin = 0.5 * COERCIVITY_RTOL * lo
                s = min(max(p, lo + margin), hi - margin)
        np.subtract(ad, np.multiply(s, bd, out=d), out=d)
        np.subtract(ae, np.multiply(s, be, out=e), out=e)
        info = dpttrf(d, e, overwrite_d=1, overwrite_e=1)[2]
        calls += 1
        if info == 0:
            prev, lo, f_lo = (lo, f_lo), s, float(d[-1])
            if kept == "hi" and f_hi is not None:
                f_hi *= 0.5
            kept = "hi"
        else:
            hi, f_hi = s, float(d[-1]) if info == ad.size else None
            if kept == "lo":
                f_lo *= 0.5
            kept = "lo"
    return lo


def coercivity_constants(ops: FomOperators) -> tuple[float, float]:
    """Minimal generalized eigenvalues of the diffusion and reaction blocks against ip.

    Computed once per operator set and cached on it (`FomOperators.coercivity`).
    By Sylvester's law of inertia, a - s ip is positive definite exactly
    below the pencil's minimal eigenvalue.  A search (`_pencil_min_eig`)
    brackets it in [0, min_i a_ii / ip_ii] (0 once a itself factors; a unit
    vector's Rayleigh quotient is at or above the minimum) and tests each
    shift with one O(n_dofs) tridiagonal Cholesky factorization (LAPACK
    PTTRF) of the shifted bands.  It stops once hi - lo <= COERCIVITY_RTOL *
    lo, after 10 and 19 PTTRF calls at 256 cells and 14 and 22 at 2048, the
    first check included (42 and 43 by bisection).  The value is lo, at which
    the factorization succeeded, so it stays a lower bound; at hi, a relative
    COERCIVITY_RTOL above it at most, the factorization failed.  It reads the
    blocks' and ip's stored bands.  Raises ValueError for an operator whose
    sub- and superdiagonal differ or that is not positive definite.
    """
    return ops.coercivity


def theta(mu: ParameterPoint) -> tuple[float, float, float]:
    """Affine coefficients (diffusion, advection, reaction) at mu."""
    return (1.0 / mu.pe, 1.0, mu.da)


def affine(th, terms):
    """sum_q th[q] terms[q] in theta order, written out, for terms of any type.

    Its callers are `system_matrix`, `solve_fom` and `load_vector` (sparse
    blocks, their bands and load rows) and `rb.coercivity_lb` (scalars).
    The RB online tier contracts its stacked per-basis operands by one
    product instead.
    """
    return th[0] * terms[0] + th[1] * terms[1] + th[2] * terms[2]


def assemble(mesh: MeshSpec, inflow_value: float = 1.0) -> FomOperators:
    """Assemble mass, stiffness, advection and load blocks on the free nodes.

    The inflow node x = 0 carries the Dirichlet value and is eliminated;
    node n_cells (the outflow, x = 1) stays free so the output functional is
    the coordinate selector of the last DOF.
    """
    n = mesh.n_cells
    h = mesh.h
    g = inflow_value

    # bands[k] = (sub, main, super) of mass, diffusion, advection, reaction, ip
    bands = np.zeros((5, 3, n))
    mass, diffusion, advection, reaction, ip = bands
    mass[1], mass[1, -1] = 2.0 * h / 3.0, h / 3.0
    mass[0, :-1] = mass[2, 1:] = h / 6.0
    diffusion[1], diffusion[1, -1] = 2.0 / h, 1.0 / h
    diffusion[0, :-1] = diffusion[2, 1:] = -1.0 / h
    advection[1, -1] = 0.5
    advection[0, :-1], advection[2, 1:] = -0.5, 0.5
    reaction[:] = mass
    np.add(mass, diffusion, out=ip)

    # Couplings of the free nodes to the eliminated inflow node, moved to the
    # right-hand side: b_q = -A_q[free, 0] * g.  Only node 1 is affected.
    loads = np.zeros((3, n))
    loads[:, 0] = g / h, g / 2.0, -g * h / 6.0

    output = np.zeros(n)
    output[-1] = 1.0

    return FomOperators(bands, loads, output)


def system_matrix(ops: FomOperators, mu: ParameterPoint) -> sp.csr_matrix:
    """A(mu) = sum_q theta_q(mu) A_q."""
    return affine(theta(mu), ops.blocks).tocsr()


def load_vector(ops: FomOperators, mu: ParameterPoint) -> np.ndarray:
    """b(mu), the eliminated inflow couplings weighted by the affine coefficients."""
    return affine(theta(mu), ops.loads)


def solve_fom(
    ops: FomOperators,
    mu: ParameterPoint,
    grid: TimeGrid,
    c0: np.ndarray,
    source: Callable[[float], np.ndarray] | None = None,
) -> tuple[Trajectory, QoiVector]:
    """March (mass + dt A(mu)) c^n = mass c^{n-1} + dt (b(mu) + source(t_n)).

    The step matrix's bands, mass + dt A(mu) formed on `FomOperators.bands`
    with the operations of the sparse sum, are factorized once by LAPACK
    GTTRF.  Each step forms its right-hand side from the mass bands in the
    trajectory's next row and solves there with GTTRS: six ufunc calls
    writing through `out=` (the diagonal product, the sub- and
    superdiagonal products into one preallocated buffer, each added to its
    shifted row view, then the load added), one positional GTTRS call, and
    nothing else per step; the row views and `source`'s time points are
    made once before the loop.  Raises RuntimeError when the step matrix is
    exactly singular.  `source`, when given, must return an already
    assembled load vector; it is a hook for manufactured-solution studies
    and is None in production runs.
    """
    if c0.shape != (ops.n_dofs,):
        raise ValueError("c0 has wrong length")
    dt = grid.dt
    step = ops.bands[0] + dt * affine(theta(mu), ops.bands[1:4])
    dl, d, du, du2, ipiv, info = dgttrf(step[0, :-1], step[1], step[2, 1:])
    if info > 0:
        raise RuntimeError("full-order step matrix is singular")
    dt_b = dt * load_vector(ops, mu)
    m_sub, m_diag, m_sup = ops.bands[0, 0, :-1], ops.bands[0, 1], ops.bands[0, 2, 1:]

    coeffs = np.empty((grid.n_steps + 1, ops.n_dofs))
    coeffs[0] = c0
    rows, heads, tails = list(coeffs), list(coeffs[:, :-1]), list(coeffs[:, 1:])
    times = grid.times().tolist()
    off = np.empty(ops.n_dofs - 1)
    multiply, add = np.multiply, np.add  # local names: called 6 n_steps times
    for k in range(grid.n_steps):
        rhs, head, tail = rows[k + 1], heads[k + 1], tails[k + 1]
        multiply(m_diag, rows[k], out=rhs)
        add(tail, multiply(m_sub, heads[k], out=off), out=tail)
        add(head, multiply(m_sup, tails[k], out=off), out=head)
        add(rhs, dt_b, out=rhs)
        if source is not None:
            add(rhs, dt * source(times[k]), out=rhs)
        dgttrs(dl, d, du, du2, ipiv, rhs, "N", 1)
    return Trajectory(coeffs), QoiVector(coeffs[1:] @ ops.output, dt)
