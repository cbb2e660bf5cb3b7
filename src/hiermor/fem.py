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

Every operator is tridiagonal, so the time stepping, the H inner product
solves and the coercivity constants call the LAPACK tridiagonal routines on
the matrices' diagonals; this module alone knows that format.
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
        if self.t_end <= 0.0:
            raise ValueError("t_end must be positive")
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

    All matrices are tridiagonal CSR of size n_dofs = n_cells.  `blocks` are the
    affine terms A_q in theta order (diffusion, advection, and reaction, a copy
    of mass); row q of `loads` (Q x n_dofs) is b_q.  `ip` is the discrete H1
    inner product mass + diffusion used for all orthogonality and dual norms.

    Treated as immutable after assembly (solvers for distinct parameters may
    share one instance).  `ip_factor` and `coercivity` are computed on first
    use and cached on the instance; a `dataclasses.replace`d set computes
    its own.
    """

    mass: sp.csr_matrix
    blocks: tuple[sp.csr_matrix, sp.csr_matrix, sp.csr_matrix]
    loads: np.ndarray
    output: np.ndarray
    ip: sp.csr_matrix
    n_dofs: int
    inflow_value: float

    @cached_property
    def ip_factor(self) -> IpFactor:
        """`IpFactor.of(ip)`, factored once per operator set."""
        return IpFactor.of(self.ip)

    @cached_property
    def coercivity(self) -> tuple[float, float]:
        """The pair `coercivity_constants` returns, computed once per operator set."""
        diffusion, _, reaction = self.blocks
        return _pencil_min_eig(diffusion, self.ip), _pencil_min_eig(reaction, self.ip)


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
        d, e, info = dpttrf(*tridiagonal(ip))
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

    def _solve(self, rhs: np.ndarray, uplo: str) -> np.ndarray:
        """L^-1 rhs ("L") or L^-T rhs ("U") by one banded LAPACK TBTRS."""
        if rhs.shape[1] == 0:  # scipy's TBTRS wrapper corrupts the heap given no columns
            return np.zeros(rhs.shape)
        ones, sub = np.ones(self.root_d.size), np.append(self.sub, 0.0)
        band = np.vstack([ones, sub] if uplo == "L" else [np.roll(sub, 1), ones])
        return dtbtrs(band, rhs, uplo=uplo, diag="U")[0]


def _pencil_min_eig(a, b) -> float:
    """Largest s found by bisection at which a - s b (b SPD) factors by Cholesky."""
    ad, ae = tridiagonal(a)
    bd, be = tridiagonal(b)
    if dpttrf(ad, ae)[2] != 0:
        raise ValueError("operator is not positive definite; 0 is no coercivity bound")
    lo, hi = 0.0, float(np.min(ad / bd))
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        if dpttrf(ad - mid * bd, ae - mid * be)[2] == 0:
            lo = mid
        else:
            hi = mid
    return lo


def coercivity_constants(ops: FomOperators) -> tuple[float, float]:
    """Minimal generalized eigenvalues of the diffusion and reaction blocks against ip.

    Computed once per operator set and cached on it (`FomOperators.coercivity`).
    By Sylvester's law of inertia, a - s ip is positive definite exactly
    below the pencil's minimal eigenvalue.  Bisection brackets it in
    [0, min_i a_ii / ip_ii] (0 once a itself factors; a unit vector's
    Rayleigh quotient is at or above the minimum) and tests each midpoint
    with one O(n_dofs) tridiagonal Cholesky factorization (LAPACK PTTRF),
    O(n_dofs log(1/eps)) in all.  The value is the bracket's lower end, at
    which the factorization succeeded.  Raises ValueError for an operator
    that is not symmetric tridiagonal or not positive definite.
    """
    return ops.coercivity


def theta(mu: ParameterPoint) -> tuple[float, float, float]:
    """Affine coefficients (diffusion, advection, reaction) at mu."""
    return (1.0 / mu.pe, 1.0, mu.da)


def affine(th, terms):
    """sum_q th[q] terms[q] in theta order, written out, for terms of any type.

    Its callers are `system_matrix` and `load_vector` (sparse blocks and load
    rows) and `rb.coercivity_lb` (scalars).  The RB online tier contracts its
    stacked per-basis operands by one product instead.
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

    main_m = np.full(n, 2.0 * h / 3.0)
    main_m[-1] = h / 3.0
    off_m = np.full(n - 1, h / 6.0)
    mass = sp.diags([off_m, main_m, off_m], [-1, 0, 1], format="csr")

    main_k = np.full(n, 2.0 / h)
    main_k[-1] = 1.0 / h
    off_k = np.full(n - 1, -1.0 / h)
    diff = sp.diags([off_k, main_k, off_k], [-1, 0, 1], format="csr")

    main_b = np.zeros(n)
    main_b[-1] = 0.5
    adv = sp.diags(
        [np.full(n - 1, -0.5), main_b, np.full(n - 1, 0.5)], [-1, 0, 1], format="csr"
    )

    # Couplings of the free nodes to the eliminated inflow node, moved to the
    # right-hand side: b_q = -A_q[free, 0] * g.  Only node 1 is affected.
    loads = np.zeros((3, n))
    loads[:, 0] = g / h, g / 2.0, -g * h / 6.0

    output = np.zeros(n)
    output[-1] = 1.0

    return FomOperators(
        mass=mass,
        blocks=(diff, adv, mass.copy()),
        loads=loads,
        output=output,
        ip=(mass + diff).tocsr(),
        n_dofs=n,
        inflow_value=g,
    )


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

    The tridiagonal step matrix is factorized once by LAPACK GTTRF; each step
    forms its right-hand side from the mass matrix's diagonals in place, in
    the trajectory's next row, and solves there with GTTRS.  Raises
    RuntimeError when the step matrix is exactly singular.  `source`, when
    given, must return an already assembled load vector; it is a hook for
    manufactured-solution studies and is None in production runs.
    """
    if c0.shape != (ops.n_dofs,):
        raise ValueError("c0 has wrong length")
    dt = grid.dt
    step_matrix = ops.mass + dt * system_matrix(ops, mu)
    dl, d, du, du2, ipiv, info = dgttrf(
        step_matrix.diagonal(-1), step_matrix.diagonal(), step_matrix.diagonal(1))
    if info > 0:
        raise RuntimeError("full-order step matrix is singular")
    dt_b = dt * load_vector(ops, mu)
    m_diag, m_off = ops.mass.diagonal(), ops.mass.diagonal(1)  # mass is symmetric

    coeffs = np.empty((grid.n_steps + 1, ops.n_dofs))
    coeffs[0] = c0
    for k, t in enumerate(grid.times()):
        c, rhs = coeffs[k], coeffs[k + 1]
        np.multiply(m_diag, c, out=rhs)
        rhs[1:] += m_off * c[:-1]
        rhs[:-1] += m_off * c[1:]
        rhs += dt_b
        if source is not None:
            rhs += dt * source(t)
        dgttrs(dl, d, du, du2, ipiv, rhs, overwrite_b=1)
    return Trajectory(coeffs), QoiVector(coeffs[1:] @ ops.output, dt)
