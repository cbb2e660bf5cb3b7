"""POD by a QR or a randomized range finder, plus an incremental hierarchical variant.

All decompositions are taken in the inner product of a supplied symmetric
positive definite tridiagonal matrix H, in the coordinates of its factor:
with H = L D L^T, Y = D^1/2 L^T S has Y^T Y = S^T H S, so the H geometry of
the snapshots S is the Euclidean geometry of Y, which is decomposed without
squaring it.  Each call maps into them once and out once, by one bidiagonal
solve (HAPOD's stages stay inside); `ip=None` maps nothing, so `rb.enrich`
passes coordinates it holds.  No object of size n_dofs x n_dofs is ever
formed.  Returned modes are H-orthonormal and deterministically signed
(first significant entry of each mode is positive).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from types import SimpleNamespace

import numpy as np
import scipy.linalg as la

from .fem import IpFactor, tridiagonal

__all__ = ["PodBasis", "pod", "hapod", "h_orthonormalize", "project_out"]

# Relative singular value below which modes are treated as numerically zero.
RANK_CUTOFF = 1e-12
# Relative H-norm at or below which `h_orthonormalize` drops a column.
DROP_TOL = 1e-10
# Sketch columns beyond the requested rank, and the seed of the Gaussian
# sketch (Halko, Martinsson & Tropp 2011, SIAM Rev. 53(2), sec. 4).  Each
# sketch is drawn from its own generator, so no other random state moves its bits.
OVERSAMPLING = 10
SKETCH_SEED = 20110531
# Block size of the blocked LAPACK QRs.  QR_BLOCK per column is the workspace
# `la.qr` queries on the pinned wheels; passing it keeps the bits, skips the query.
QR_BLOCK = 32


@dataclass
class PodBasis:
    """H-orthonormal modes (columns) with their nonincreasing singular values."""

    modes: np.ndarray
    singular_values: np.ndarray

    @property
    def dim(self) -> int:
        return self.modes.shape[1]


# The map of ip=None: coordinates are the vectors themselves, in the Fortran
# order `IpFactor.coords` gives, so bits do not depend on the input's layout.
_EUCLIDEAN = SimpleNamespace(coords=np.asfortranarray, from_coords=lambda y: y)


def _factor(ip):
    """The factor of the inner product matrix; for None, the identity map."""
    return _EUCLIDEAN if ip is None else IpFactor.of_bands(*tridiagonal(ip))


def _fix_signs(modes: np.ndarray) -> np.ndarray:
    """Flip, in place, each column whose first entry above RANK_CUTOFF times
    its peak magnitude is negative; an all-zero column is left as it is."""
    mags = np.abs(modes)
    above = mags > RANK_CUTOFF * mags.max(axis=0)
    first, cols = np.argmax(above, axis=0), np.arange(modes.shape[1])
    modes[:, above[first, cols] & (modes[first, cols] < 0.0)] *= -1.0
    return modes


@lru_cache(maxsize=8)
def _sketch(m: int, width: int) -> np.ndarray:
    """The read-only (m, width) Gaussian sketch from a generator seeded
    SKETCH_SEED; only rank-capped POD draws one, of width rank + OVERSAMPLING."""
    sketch = np.random.default_rng(SKETCH_SEED).standard_normal((m, width))
    sketch.flags.writeable = False
    return sketch


def _mapped_out(factor, u: np.ndarray, sigma: np.ndarray) -> PodBasis:
    """The basis of coordinate modes u, mapped out and signed."""
    return PodBasis(_fix_signs(factor.from_coords(u)), sigma)


def h_orthonormalize(vectors: np.ndarray, ip) -> tuple[np.ndarray, list[int]]:
    """H-orthonormal basis of the columns' span from Householder QRs of Y = D^1/2 L^T V.

    |R_jj| of the QR of Y is the H-norm of column j's part H-orthogonal to
    the columns before it; the column is dropped when that is at most
    DROP_TOL * max(||v_j||_H, 1).  The QR of the kept columns, signed so
    that diag R > 0, gives the basis: its leading columns span the leading
    kept columns, and leading H-orthonormal columns return unchanged to roundoff.
    Returns the basis and the indices of the kept columns; `ip` is as for `pod`.
    """
    factor = _factor(ip)
    y = factor.coords(vectors)
    q, r = la.qr(y, mode="economic", lwork=QR_BLOCK * y.shape[1])
    reach = np.abs(np.diag(r))
    refs = np.linalg.norm(y[:, : reach.size], axis=0)
    kept = np.flatnonzero(reach > DROP_TOL * np.maximum(refs, 1.0)).tolist()
    if len(kept) < y.shape[1]:
        q, r = la.qr(y[:, kept], mode="economic", lwork=QR_BLOCK * len(kept))
    q[:, np.diag(r) < 0.0] *= -1.0
    return factor.from_coords(q), kept


def _left_svd(b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Left singular vectors and singular values of a (w, m) B, w <= m.

    With the QR B^T = Q_B R, B = R^T Q_B^T has the singular values and left
    vectors of the w x w R^T, so one DGEQRF of B^T (Fortran-ordered for a
    C-ordered B) and a square SVD replace a wide one, and nothing is
    squared.  `la.qr`'s mode "raw" returns R as `np.triu` of the factor's
    leading w rows; mode "r" would triangle all m rows first, for the same
    bytes."""
    _, r = la.qr(b.T, mode="raw", lwork=QR_BLOCK * len(b))
    u, sigma, _ = la.svd(r.T)
    return u, sigma


def _truncation_rank(sigma: np.ndarray, resid_sq: float, rank: int | None,
                     energy_tol: float | None, abs_tail: float | None) -> int:
    """Number of modes to keep given the (descending) singular values of B
    and the energy ||Y - Q B||_F^2 the range Q left out."""
    # tails[i]: squared projection error onto the leading i modes, summed from
    # the smallest term so that nothing cancels.
    tails = np.append(np.cumsum(sigma[::-1] ** 2)[::-1], 0.0) + resid_sq
    r = int(np.count_nonzero(sigma > RANK_CUTOFF * sigma[0]))
    for budget in (abs_tail, None if energy_tol is None else energy_tol**2 * tails[0]):
        # The smallest i with tails[i] <= budget; all modes when none is.
        if budget is not None and tails[-1] <= budget:
            r = min(r, int(np.argmax(tails <= budget)))
    return r if rank is None else min(r, rank)


def project_out(y: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """B = Q^T Y and (Y - Q B)^T, in Y's order (a mixed-order difference is a slow
    transpose) and in the product's buffer (a fresh n x m one costs more in pages)."""
    b = (y.T @ q).T  # OpenBLAS gives Q^T Y, not Y^T Q, bits that follow its thread count
    resid = b.T @ q.T
    np.subtract(y.T, resid, out=resid)
    return b, resid


def _pod_impl(y: np.ndarray, rank: int | None, energy_tol: float | None,
              abs_tail: float | None) -> tuple[np.ndarray, np.ndarray]:
    """Left singular vectors and singular values of the Fortran-ordered
    coordinates Y, truncated: Q from Y's QR, or from a randomized range finder
    (Halko, Martinsson & Tropp, Alg. 4.4, one power iteration) when its sketch
    is narrower than Y, then the SVD of B = Q^T Y by `_left_svd`.  The truncation
    reads the exact tail ||Y - Q B||_F^2 + sum_{i>r} sigma_i^2, a posteriori."""
    n, m = y.shape
    if m == 0:
        return np.zeros((n, 0)), np.zeros(0)
    if rank is not None and rank + OVERSAMPLING < min(n, m):
        w = rank + OVERSAMPLING
        q = la.qr(y @ _sketch(m, w), mode="economic", lwork=QR_BLOCK * w)[0]
        q = la.qr(y.T @ q, mode="economic", lwork=QR_BLOCK * w)[0]
        q = la.qr(y @ q, mode="economic", lwork=QR_BLOCK * w)[0]
    else:
        q = la.qr(y, mode="economic", lwork=QR_BLOCK * m)[0]
    b, resid = project_out(y, q)
    u, sigma = _left_svd(b)
    r = _truncation_rank(sigma, float(np.einsum("ij,ij->", resid, resid)),
                         rank, energy_tol, abs_tail)
    return q @ u[:, :r], sigma[:r]


def pod(
    snapshots: np.ndarray,
    ip=None,
    rank: int | None = None,
    energy_tol: float | None = None,
) -> PodBasis:
    """POD of the snapshot columns in the H = `ip` inner product.

    Truncation: `rank` >= 0 keeps at most that many modes; `energy_tol` = tau
    in [0, 1) keeps the smallest r with sum_{i>r} sigma_i^2 <= tau^2 *
    sum_i sigma_i^2, the tail including what the range finder left out.
    Both may be combined (the stricter wins); modes with sigma below the
    numerical rank cutoff are always discarded.  A zero snapshot matrix
    yields an empty basis.  The snapshots are mapped into the coordinates of
    ip's factor once and the modes back once.  The result depends only on
    the snapshots' values, not on their memory layout or any random state.

    Parameters
    ----------
    snapshots : (n_dofs, m) ndarray, one snapshot per column.
    ip : symmetric positive definite tridiagonal inner product matrix
        (sparse or dense); None means identity, and nothing is mapped.  Any
        other matrix raises ValueError.
    """
    if rank is not None and rank < 0:
        raise ValueError("rank must be nonnegative")
    if energy_tol is not None and not 0.0 <= energy_tol < 1.0:
        raise ValueError("energy_tol must lie in [0, 1)")
    factor = _factor(ip)
    y = factor.coords(np.asarray(snapshots, dtype=float))
    return _mapped_out(factor, *_pod_impl(y, rank, energy_tol, None))


def hapod(
    chunks,
    ip=None,
    eps_star: float = 1e-6,
    omega: float = 0.5,
) -> PodBasis:
    """Incremental hierarchical approximate POD over a sequence of snapshot chunks.

    Chunks are processed in order; at each stage the previous modes, scaled by
    their singular values, are concatenated with the next chunk and compressed
    again by its QR, all in the coordinates of ip's factor: each chunk is
    mapped in once, and only the last stage's modes are mapped out.  Stage i < last
    truncates with absolute squared-error allowance (omega * eps_star)^2 * m_i
    (m_i the chunk size); the last stage acts as the final compression with
    allowance (1 - omega^2) * eps_star^2 * m_total.  Summing the allowances bounds the
    mean squared H-projection error of the full snapshot set onto the returned
    basis by eps_star^2 per snapshot (Himpe, Leibner & Rave 2018).

    The bound is meaningful down to the rank cutoff: eps_star^2 below
    roughly RANK_CUTOFF^2 times the mean snapshot energy asks for directions
    whose singular values are discarded as roundoff.

    The returned singular values approximate those of the concatenated
    snapshot matrix.  `ip` is as for `pod`; omega lies in (0, 1), eps_star in (0, inf).
    """
    if not 0.0 < omega < 1.0:
        raise ValueError("omega must lie in (0, 1)")
    if not 0.0 < eps_star < np.inf:
        raise ValueError("eps_star must lie in (0, inf)")
    chunks = [np.asarray(c, dtype=float) for c in chunks]
    if not chunks:
        return PodBasis(np.zeros((0, 0)), np.zeros(0))
    factor = _factor(ip)
    m_total = sum(c.shape[1] for c in chunks)
    u, sigma = np.zeros((chunks[0].shape[0], 0)), np.zeros(0)
    for i, chunk in enumerate(chunks):
        if i == len(chunks) - 1:
            allow = (1.0 - omega**2) * eps_star**2 * m_total
        else:
            allow = (omega * eps_star) ** 2 * chunk.shape[1]
        stacked = np.asfortranarray(np.hstack([u * sigma, factor.coords(chunk)]))
        u, sigma = _pod_impl(stacked, None, None, allow)
    return _mapped_out(factor, u, sigma)
