from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from affine_kahler.errors import DomainViolation
from affine_kahler.linalg import (
    Subspace,
    complement_within,
    kernel_within,
    least_squares_solve,
    nullspace,
    orthonormalize,
)


def svd_rank_oracle(mat: np.ndarray) -> int:
    svals = np.linalg.svd(mat, compute_uv=False)
    return int(np.sum(svals > max(mat.shape) * np.finfo(float).eps * svals[0]))


def test_orthonormalize_collapses_dependent_vectors():
    space = orthonormalize([[1.0, 0.0], [2.0, 0.0]])
    assert space.dim == 1
    assert abs(abs(space.basis[0, 0]) - 1.0) < 1e-14


def test_orthonormalize_keeps_independent_vectors():
    space = orthonormalize([[1.0, 1.0], [1.0, -1.0]])
    assert space.dim == 2


def test_orthonormalize_empty_input_needs_ambient():
    space = orthonormalize([], ambient_dim=5)
    assert space.dim == 0 and space.ambient_dim == 5
    with pytest.raises(ValueError):
        orthonormalize([])


def test_orthonormalize_random_full_rank(rng):
    vectors = rng.standard_normal((100, 16))
    space = orthonormalize(vectors)
    assert space.dim == 16 == svd_rank_oracle(vectors)


def test_nullspace_identity_and_zero():
    assert nullspace(np.eye(4)).dim == 0
    assert nullspace(np.zeros((3, 5))).dim == 5


def test_nullspace_vectors_annihilate_map(rng):
    mat = rng.standard_normal((6, 10))
    space = nullspace(mat)
    assert space.dim == 10 - svd_rank_oracle(mat)
    for row in space.basis:
        assert np.linalg.norm(mat @ row) <= 1e-12 * np.linalg.norm(mat)


def test_complement_within_edges(rng):
    ambient = orthonormalize(rng.standard_normal((8, 12)))
    assert complement_within(ambient, ambient).dim == 0
    zero = Subspace.zero(12)
    assert complement_within(zero, ambient).dim == ambient.dim


def test_complement_within_rejects_outsiders(rng):
    ambient = orthonormalize(np.eye(6)[:3])
    stranger = orthonormalize(np.eye(6)[3:5])
    with pytest.raises(DomainViolation):
        complement_within(stranger, ambient)


def test_complement_is_orthogonal_and_involutive(rng):
    ambient = orthonormalize(rng.standard_normal((9, 15)))
    sub = orthonormalize(ambient.basis[:4], ambient_dim=15)
    comp = complement_within(sub, ambient)
    assert comp.dim == ambient.dim - sub.dim
    assert np.max(np.abs(comp.basis @ sub.basis.T)) < 1e-10
    back = complement_within(comp, ambient)
    assert back.dim == sub.dim
    # same span: mutual projections are lossless
    for row in back.basis:
        assert sub.residual(row) < 1e-10
    for row in sub.basis:
        assert back.residual(row) < 1e-10


def test_projection_leaves_orthogonal_remainder(rng):
    space = orthonormalize(rng.standard_normal((5, 11)))
    vec = rng.standard_normal(11)
    remainder = vec - space.project(vec)
    assert np.max(np.abs(space.basis @ remainder)) < 1e-10


def test_least_squares_identity_and_zero_map():
    target = np.array([1.0, -2.0, 3.0])
    coeffs, residual = least_squares_solve(np.eye(3), target)
    assert np.allclose(coeffs, target) and residual < 1e-14
    coeffs, residual = least_squares_solve(np.zeros((3, 4)), target)
    assert np.allclose(coeffs, 0.0)
    assert residual == pytest.approx(np.linalg.norm(target))


def test_least_squares_rejects_unrepresentable_solution():
    mat = np.diag([1e-310, 0.0, 0.0, 0.0, 0.0])
    with pytest.raises(DomainViolation, match="not representable"):
        least_squares_solve(mat, np.ones(5))


def test_least_squares_consistent_system(rng):
    mat = rng.standard_normal((20, 7))
    truth = rng.standard_normal(7)
    target = mat @ truth
    coeffs, residual = least_squares_solve(mat, target)
    assert residual <= 1e-10 * np.linalg.norm(target)
    assert np.allclose(mat @ coeffs, target, atol=1e-10)


def test_least_squares_minimum_norm_deterministic(rng):
    mat = rng.standard_normal((4, 9))  # underdetermined
    target = rng.standard_normal(4)
    c1, _ = least_squares_solve(mat, target)
    c2, _ = least_squares_solve(mat, target)
    assert np.array_equal(c1, c2)
    # minimum-norm solution is orthogonal to the kernel
    kern = nullspace(mat)
    assert np.max(np.abs(kern.basis @ c1)) < 1e-10


def test_kernel_within_pulls_back_coefficients(rng):
    space = orthonormalize(rng.standard_normal((6, 10)))
    # map: first coordinate of the basis expansion
    mat = space.basis[:, :1].T
    kern = kernel_within(space, mat)
    assert kern.dim in (5, 6)
    for row in kern.basis:
        assert abs(row[0]) < 1e-10
        assert space.residual(row) < 1e-10


def test_subspace_rejects_non_orthonormal_basis():
    with pytest.raises(ValueError, match="orthonormal"):
        Subspace(3, np.array([[1.0, 1.0, 0.0]]))


@given(
    mat=arrays(
        np.float64,
        st.sampled_from([(6, 4), (4, 6)]),  # tall (thin SVD) and wide (full SVD)
        elements=st.floats(min_value=-5, max_value=5, allow_nan=False),
    )
)
@settings(max_examples=100, deadline=None)
def test_nullspace_plus_rank_fills_columns(mat):
    assert nullspace(mat).dim + svd_rank_oracle(mat) == mat.shape[1]


@given(
    mat=arrays(
        np.float64,
        (5, 5),
        elements=st.floats(min_value=-5, max_value=5, allow_nan=False),
    ),
    target=arrays(
        np.float64,
        (5,),
        elements=st.floats(min_value=-5, max_value=5, allow_nan=False),
    ),
)
# Near rank 1: singular values just above lstsq's cutoff give coefficients of
# norm ~3e13, and the two residuals then differ by ~1.4 from rounding alone.
@example(
    mat=np.array(
        [
            [-0.0, 2.25, 3.0, -0.75, 2.25],
            [-0.0, 3.0, 4.0, -1.0, 3.0],
            [-1.1285676491769064e-16, -0.75, -1.0, 0.25, -0.75],
            [0.0, -3.0, -4.0, 1.000000000000093, -3.0],
            [0.0, -2.25, -3.0, 0.75, -2.25],
        ]
    ),
    target=np.array([3.51, 4.48, -1.28, -1.61, -3.22]),
)
# Subnormal largest singular value: the minimum-norm solution overflows.
@example(
    mat=np.diag([1e-310, 0.0, 0.0, 0.0, 0.0]),
    target=np.array([1.0, -2.0, 0.5, 3.0, -1.5]),
)
@settings(max_examples=100, deadline=None)
def test_least_squares_never_beats_residual(mat, target):
    try:
        coeffs, residual = least_squares_solve(mat, target)
    except DomainViolation:
        # refused only when the plain solve is not finite either
        plain, *_ = np.linalg.lstsq(mat, target, rcond=None)
        assert not np.all(np.isfinite(plain))
        return
    # any perturbation of the solution does not reduce the misfit beyond
    # rounding: the solve is backward stable (exact for some mat + E with
    # |E| ~ eps |mat|), so each residual can be off by a small multiple of
    # eps * |mat|_2 * |coefficients|
    eps_mat = np.finfo(float).eps * np.linalg.norm(mat, 2)
    for _ in range(3):
        other = coeffs + np.ones_like(coeffs) * 0.1
        # scaled first: |coeffs| alone can overflow when mat is subnormal
        rounding = mat.size * (np.linalg.norm(eps_mat * coeffs) + np.linalg.norm(eps_mat * other))
        assert np.linalg.norm(mat @ other - target) >= residual - 1e-9 - rounding
