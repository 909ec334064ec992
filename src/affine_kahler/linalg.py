"""Real linear algebra over flattened tensor spaces.

Thin, deterministic wrappers around numpy's SVD/least-squares with explicit
rank tolerances.  Vectors are plain 1-D float arrays; a Subspace stores an
orthonormal basis as rows of a 2-D array.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainViolation

#: Pairwise orthonormality tolerance a Subspace must satisfy.
ORTHONORMALITY_TOL = 1e-12


def _rank_threshold(singular_values: np.ndarray, shape: tuple[int, int], tol: float | None) -> float:
    """Rank cutoff: max(M, K) * eps * s_max by default, overridable via tol."""
    if singular_values.size == 0:
        return 0.0
    smax = float(singular_values[0])
    default = max(shape) * np.finfo(float).eps * smax
    if tol is None:
        return default
    return max(float(tol), default)


@dataclass(frozen=True)
class Subspace:
    """Span of pairwise-orthonormal row vectors inside R^ambient_dim."""

    ambient_dim: int
    basis: np.ndarray  # shape (dim, ambient_dim)

    def __post_init__(self) -> None:
        basis = np.atleast_2d(np.asarray(self.basis, dtype=float))
        if basis.size == 0:
            basis = basis.reshape(0, self.ambient_dim)
        if basis.shape[1] != self.ambient_dim:
            raise ValueError(
                f"basis vectors have length {basis.shape[1]}, ambient is {self.ambient_dim}"
            )
        gram = basis @ basis.T
        if gram.size and np.max(np.abs(gram - np.eye(basis.shape[0]))) > ORTHONORMALITY_TOL:
            raise ValueError("basis rows are not orthonormal to tolerance")
        basis = basis.copy()
        basis.setflags(write=False)
        object.__setattr__(self, "basis", basis)

    @classmethod
    def zero(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, np.zeros((0, ambient_dim)))

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    def project(self, vec: np.ndarray) -> np.ndarray:
        """Orthogonal projection of vec onto the subspace."""
        return self.basis.T @ (self.basis @ vec)

    def coordinates(self, vec: np.ndarray) -> np.ndarray:
        return self.basis @ vec

    def residual(self, vec: np.ndarray) -> float:
        """Norm of the component of vec orthogonal to the subspace."""
        return float(np.linalg.norm(vec - self.project(vec)))


def orthonormalize(vectors, tol: float | None = None, ambient_dim: int | None = None) -> Subspace:
    """Orthonormal basis of the span of the given vectors.

    Rank is decided by singular-value thresholding, so near-dependent vectors
    are dropped.  Empty input yields the zero subspace (ambient_dim required).
    """
    mat = np.atleast_2d(np.asarray(vectors, dtype=float))
    if mat.size == 0:
        if ambient_dim is None:
            raise ValueError("ambient_dim is required for empty input")
        return Subspace.zero(ambient_dim)
    # The left factor of the transpose is the right factor of mat; the thin
    # SVD of the tall transpose is the cheaper one for wide inputs.
    u, svals, _ = np.linalg.svd(mat.T, full_matrices=False)
    cutoff = _rank_threshold(svals, mat.shape, tol)
    rank = int(np.sum(svals > cutoff))
    return Subspace(mat.shape[1], u[:, :rank].T)


def kernel_and_rest(mat: np.ndarray, tol: float | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal rows spanning the kernel of a dense matrix and its row
    space, from one SVD: the right singular vectors at or below the rank
    cutoff, and the others."""
    mat = np.atleast_2d(np.asarray(mat, dtype=float))
    rows, cols = mat.shape
    if rows == 0 or not mat.any():
        return np.eye(cols), np.zeros((0, cols))
    # A tall matrix already yields a square V^T from the thin SVD; only a wide
    # one needs the full factor.  The rows x rows U factor is never used.
    _, svals, vt = np.linalg.svd(mat, full_matrices=rows < cols)
    rank = int(np.sum(svals > _rank_threshold(svals, mat.shape, tol)))
    return vt[rank:], vt[:rank]


def nullspace(mat: np.ndarray, tol: float | None = None) -> Subspace:
    """Orthonormal basis of the kernel of a dense matrix."""
    kernel, _ = kernel_and_rest(mat, tol)
    return Subspace(kernel.shape[1], kernel)


def complement_within(sub: Subspace, ambient: Subspace, tol: float = 1e-9) -> Subspace:
    """Orthogonal complement of sub inside ambient.

    Rejects inputs where sub is not contained in ambient; the result is
    orthogonal to sub and the dimensions add up to dim(ambient).  The basis
    rows of ambient are unit vectors, so deflated directions of norm below
    ``tol`` are dropped as zero (an absolute cutoff: after deflation a pure
    noise matrix must yield the zero complement).
    """
    if sub.ambient_dim != ambient.ambient_dim:
        raise ValueError("subspaces live in different ambient spaces")
    outside = sub.basis - (sub.basis @ ambient.basis.T) @ ambient.basis
    if np.any(np.linalg.norm(outside, axis=1) > tol):
        raise DomainViolation("complement_within: first space is not contained in the second")
    if sub.dim == 0:
        return ambient
    deflated = ambient.basis - (ambient.basis @ sub.basis.T) @ sub.basis
    comp = orthonormalize(deflated, tol=tol, ambient_dim=ambient.ambient_dim)
    if comp.dim != ambient.dim - sub.dim:
        raise DomainViolation(
            f"complement dimension {comp.dim} != {ambient.dim} - {sub.dim}; "
            "the first space may not be contained in the second"
        )
    return comp


def least_squares_solve(mat: np.ndarray, target: np.ndarray) -> tuple[np.ndarray, float]:
    """Minimum-norm least-squares solution of mat @ coeffs ~ target.

    Deterministic for fixed input; the returned residual is the achieved
    Euclidean misfit, recomputed explicitly.  A solution that overflows
    (possible when the matrix is subnormal) raises DomainViolation.
    """
    mat = np.atleast_2d(np.asarray(mat, dtype=float))
    target = np.asarray(target, dtype=float)
    coeffs, _, _, _ = np.linalg.lstsq(mat, target, rcond=None)
    require_finite_solution(coeffs)
    residual = float(np.linalg.norm(mat @ coeffs - target))
    return coeffs, residual


def require_finite_solution(coeffs: np.ndarray) -> None:
    """Reject a least-squares solution that overflowed floating point."""
    if not np.all(np.isfinite(coeffs)):
        raise DomainViolation(
            "the minimum-norm solution is not representable in floating point"
        )


def kernel_within(space: Subspace, map_on_basis: np.ndarray, tol: float | None = None) -> Subspace:
    """Kernel of a linear map restricted to a subspace.

    ``map_on_basis`` has one column per basis vector of ``space`` (the image
    of that basis vector).  The kernel coefficients are pulled back through
    the orthonormal basis, so the result is again orthonormal.
    """
    if space.dim == 0:
        return space
    coeff_kernel = nullspace(map_on_basis, tol=tol)
    if coeff_kernel.dim == 0:
        return Subspace.zero(space.ambient_dim)
    return Subspace(space.ambient_dim, coeff_kernel.basis @ space.basis)

