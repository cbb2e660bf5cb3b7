"""POD by the method of snapshots, plus an incremental hierarchical variant.

All decompositions are taken with respect to a supplied SPD inner product
matrix H: the Gramian S^T H S of the snapshot matrix S is eigendecomposed,
so no object of size n_dofs x n_dofs is ever formed.  Returned modes are
H-orthonormal and deterministically signed (first significant entry of each
mode is positive).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as la

__all__ = ["PodBasis", "pod", "hapod", "h_orthonormalize"]

# Relative singular value below which modes are treated as numerically zero.
RANK_CUTOFF = 1e-12


@dataclass
class PodBasis:
    """H-orthonormal modes (columns) with their nonincreasing singular values."""

    modes: np.ndarray
    singular_values: np.ndarray

    @property
    def dim(self) -> int:
        return self.modes.shape[1]


def _as_operator(ip, n):
    """Normalize the inner product argument; None means the identity."""
    if ip is None:
        import scipy.sparse as sp

        return sp.identity(n, format="csr")
    return ip


def _empty_basis(n: int) -> PodBasis:
    return PodBasis(np.zeros((n, 0)), np.zeros(0))


def _fix_signs(modes: np.ndarray) -> np.ndarray:
    for j in range(modes.shape[1]):
        col = modes[:, j]
        peak = np.abs(col).max()
        if peak == 0.0:
            continue
        nz = np.flatnonzero(np.abs(col) > RANK_CUTOFF * peak)
        if nz.size and col[nz[0]] < 0.0:
            modes[:, j] = -col
    return modes


def h_orthonormalize(
    vectors: np.ndarray, ip, drop_tol: float = 1e-10
) -> tuple[np.ndarray, list[int]]:
    """Gram-Schmidt in the H inner product, two classical passes per column.

    Two passes against the accepted block Q are as accurate as reorthogonalized
    modified Gram-Schmidt (Giraud, Langou, Rozloznik 2005); with H @ Q kept,
    a pass is two dense products.  Columns whose post-projection H-norm falls
    below `drop_tol` (relative to max(initial norm, 1)) are dropped.  Returns
    the orthonormal columns and the indices of the surviving input columns.
    """
    n, m = vectors.shape
    H = _as_operator(ip, n)
    refs = np.sqrt(np.maximum(np.einsum("ij,ij->j", vectors, H @ vectors), 0.0))
    # Accepted columns are stored as rows so the active block is contiguous.
    q = np.empty((m, n))
    hq = np.empty((m, n))
    kept: list[int] = []
    for j in range(m):
        k = len(kept)
        v = vectors[:, j].copy()
        for _ in range(2):
            v -= (hq[:k] @ v) @ q[:k]
        hv = H @ v
        nrm = np.sqrt(max(float(v @ hv), 0.0))
        if nrm <= drop_tol * max(refs[j], 1.0):
            continue
        q[k] = v / nrm
        hq[k] = hv / nrm
        kept.append(j)
    return np.ascontiguousarray(q[: len(kept)].T), kept


def _smallest_rank_with_tail(sigma_sq: np.ndarray, budget: float) -> int:
    """Smallest r such that sum_{i>r} sigma_sq_i <= budget."""
    total = float(sigma_sq.sum())
    tails = total - np.cumsum(sigma_sq)
    for i, tail in enumerate(np.concatenate([[total], tails])):
        if tail <= budget:
            return i
    return sigma_sq.size


def _truncation_rank(
    sigma_sq: np.ndarray,
    rank: int | None,
    energy_tol: float | None,
    abs_tail: float | None,
) -> int:
    """Number of modes to keep given the (descending) squared singular values."""
    total = float(sigma_sq.sum())
    if total <= 0.0:
        return 0
    # Numerical rank: the Gramian route cannot resolve eigenvalues below
    # ~eps * lambda_max (those are roundoff, not data), which also subsumes
    # the hard cutoff sigma_i > RANK_CUTOFF * sigma_max.
    lam_max = float(sigma_sq[0])
    noise = max((RANK_CUTOFF**2) * lam_max, 16.0 * np.finfo(float).eps * lam_max)
    r = int(np.count_nonzero(sigma_sq > noise))
    if energy_tol is not None:
        r = min(r, _smallest_rank_with_tail(sigma_sq, energy_tol**2 * total))
    if abs_tail is not None:
        r = min(r, _smallest_rank_with_tail(sigma_sq, abs_tail))
    if rank is not None:
        r = min(r, rank)
    return r


def _pod_impl(
    snapshots: np.ndarray,
    ip,
    rank: int | None,
    energy_tol: float | None,
    abs_tail: float | None,
) -> PodBasis:
    n, m = snapshots.shape
    if m == 0:
        return _empty_basis(n)
    H = _as_operator(ip, n)
    gram = snapshots.T @ (H @ snapshots)
    gram = 0.5 * (gram + gram.T)
    eigvals, eigvecs = la.eigh(gram)
    order = np.argsort(eigvals)[::-1]
    eigvals = np.maximum(eigvals[order], 0.0)
    eigvecs = eigvecs[:, order]
    r = _truncation_rank(eigvals, rank, energy_tol, abs_tail)
    if r == 0:
        return _empty_basis(n)
    sigma = np.sqrt(eigvals[:r])
    modes = snapshots @ (eigvecs[:, :r] / sigma)
    # The Gramian route loses orthogonality for small singular values;
    # H-orthonormalizing the modes restores it without leaving the span.
    modes, kept = h_orthonormalize(modes, H, drop_tol=1e-13)
    sigma = sigma[kept]
    return PodBasis(_fix_signs(modes), sigma)


def pod(
    snapshots: np.ndarray,
    ip=None,
    rank: int | None = None,
    energy_tol: float | None = None,
) -> PodBasis:
    """POD of the snapshot columns in the H = `ip` inner product.

    Truncation: `rank` keeps at most that many modes; `energy_tol` = tau keeps
    the smallest r with sum_{i>r} sigma_i^2 <= tau^2 * sum_i sigma_i^2.  Both
    may be combined (the stricter wins); modes with sigma below the numerical
    rank cutoff are always discarded.  A zero snapshot matrix yields an empty
    basis.

    Parameters
    ----------
    snapshots : (n_dofs, m) ndarray, one snapshot per column.
    ip : SPD inner product matrix (sparse or dense); None means identity.
    """
    return _pod_impl(np.asarray(snapshots, dtype=float), ip, rank, energy_tol, None)


def hapod(
    chunks,
    ip=None,
    eps_star: float = 1e-6,
    omega: float = 0.5,
) -> PodBasis:
    """Incremental hierarchical approximate POD over a sequence of snapshot chunks.

    Chunks are processed in order; at each stage the previous modes, scaled by
    their singular values, are concatenated with the next chunk and compressed
    again.  Stage i < last truncates with absolute squared-error allowance
    (omega * eps_star)^2 * m_i (where m_i is the chunk size); the last stage
    acts as the final compression with allowance
    (1 - omega^2) * eps_star^2 * m_total.  Summing the allowances bounds the
    mean squared H-projection error of the full snapshot set onto the returned
    basis by eps_star^2 per snapshot.

    The bound is meaningful down to machine precision: eps_star^2 below
    roughly eps_mach times the mean snapshot energy asks for directions the
    snapshot Gramian cannot represent in double precision, and even an exact
    full-rank POD leaves that residual.

    The returned singular values approximate those of the concatenated
    snapshot matrix.
    """
    if not 0.0 < omega < 1.0:
        raise ValueError("omega must lie in (0, 1)")
    if eps_star <= 0.0:
        raise ValueError("eps_star must be positive")
    chunks = [np.asarray(c, dtype=float) for c in chunks]
    if not chunks:
        return _empty_basis(0)
    n = chunks[0].shape[0]
    m_total = sum(c.shape[1] for c in chunks)
    if m_total == 0:
        return _empty_basis(n)

    basis = _empty_basis(n)
    for i, chunk in enumerate(chunks):
        last = i == len(chunks) - 1
        if basis.dim:
            stacked = np.hstack([basis.modes * basis.singular_values, chunk])
        else:
            stacked = chunk
        if last:
            allow = (1.0 - omega**2) * eps_star**2 * m_total
        else:
            allow = (omega * eps_star) ** 2 * chunk.shape[1]
        basis = _pod_impl(stacked, ip, None, None, allow)
    return basis
