"""Construction of the admissible tensor space K and its twelve-module split.

K is realized concretely from the image of the degree-1 coefficient map: the
origin curvatures of the unit degree-1, origin-vanishing coefficient
directions, assembled once per size in integers; each column must satisfy
the three defining identities (antisymmetry in the first pair, the first
Bianchi identity, J-invariance of the last pair).  The map C has a diagonal
pseudo-inverse W C^T, proven in exact arithmetic together with the rank of
each column kind, which must be the closed-form dimension, and with the
J-parity of every column: the holomorphic columns are exactly J-odd and the
antiholomorphic ones exactly J-even, so they span the parity eigenspaces
K- / K+.  Their orthonormal bases come from the columns by exact
Gram-Schmidt on the integer Gram matrix, with no singular-value cutoff, and K
is their stack, K = K+ (+) K-.  The kernel of the integer constraint matrix of
the three identities is an independent oracle for K kept in the tests.
The twelve mutually orthogonal submodules W1..W12 are carved out of K+ and
K- in coordinates on their bases, by kernel and symmetry conditions on the
trace images of the bases (W9, W10, W11 by one eigendecomposition of the
last-pair swap), checked against the closed-form dimensions and by one
orthonormal-basis certificate per parity part, and lifted to R^(m^4) once.

Bilinear forms decompose in parallel into six pieces: symmetric/antisymmetric
crossed with J-parity, with the metric and Kahler-form lines split off the
J-even symmetric and antisymmetric parts respectively.
"""
from __future__ import annotations

import functools
import math
import threading
from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping, NamedTuple

import numpy as np

from .connections import ThetaField, degree_one_gradients, linear_curvature_from_gradients
from .errors import DomainViolation, InternalCheckFailure, SchemaViolation
from .linalg import Subspace, kernel_and_rest, orthonormalize
from .tensors import (
    DEFAULT_TOL,
    Bilinear2,
    SpaceConfig,
    Tensor4,
    apply_j_slots,
    j_conjugate_flat,
    k_identity_violations,
    kahler_form,
    require_bounded_entries,
    require_in_k,
    rho13_of,
    rho14_of,
    scalar_traces,
)

W_LABELS = tuple(f"W{i}" for i in range(1, 13))

BILINEAR_LABELS = ("S2-", "S2_0+", "R<.,.>", "L2-", "L2_0+", "R.Omega")

#: Labels reported by the dimension table, in print order.
DIMENSION_LABELS = ("K", "K+", "K-") + W_LABELS + ("S2-", "S2_0+", "L2-", "L2_0+")

_MIN_M_BAR = 2

#: Largest m_bar any per-size structure is built for.  The dense coefficient
#: map grows like m_bar^7: a cold map build peaks near 190 MiB and a cold
#: `dims` near 410 MiB at m_bar = 5, and at m_bar = 8 the map's float copy
#: alone would take 4.8 GB.
MAX_M_BAR = 5

#: Absolute singular-value floor for rank decisions during module
#: construction; the trace/symmetry maps have O(1) content on unit tensors.
_RANK_TOL = 1e-8


def _require_decomposable(m_bar: int) -> None:
    if m_bar < _MIN_M_BAR:
        raise DomainViolation(
            f"the module decomposition requires m_bar >= {_MIN_M_BAR}, got {m_bar}"
        )


# ---------------------------------------------------------------------------
# closed-form dimensions
# ---------------------------------------------------------------------------

def _exact_div(num: int, den: int) -> int:
    if num % den:
        raise InternalCheckFailure(f"dimension formula {num}/{den} is not integral")
    return num // den


def w_dimension_formulas(m_bar: int) -> dict[str, int]:
    """Closed-form dimensions of the twelve modules."""
    n = m_bar
    dims = {
        "W1": n * n - 1,
        "W2": n * (n + 1),
        "W3": n * n - 1,
        "W4": n * (n - 1),
        "W5": 1,
        "W6": 1,
        "W7": n * n - 1,
        "W8": n * n - 1,
        "W9": _exact_div(n * n * (n - 1) * (n + 3), 4),
        "W10": _exact_div(n * n * (n - 1) * (n + 3), 4),
        "W11": _exact_div((n - 1) * (n + 1) * (n - 2) * (n + 2), 2),
        "W12": _exact_div(2 * n * n * (n - 2) * (n + 2), 3),
    }
    return dims


@dataclass(frozen=True)
class DimensionTable:
    """Closed-form dimensions for every labelled space at a given m_bar."""

    m_bar: int
    dims: dict[str, int]


def module_dimension_table(m_bar: int) -> DimensionTable:
    """Closed-form dimension of K, its parity parts, W1..W12 and the bilinear pieces."""
    _require_decomposable(m_bar)
    n = m_bar
    dims = dict(w_dimension_formulas(n))
    dims["K"] = _exact_div(n * n * (n + 1) * (5 * n - 2), 3)
    dims["K-"] = dims["W2"] + dims["W4"] + dims["W12"]
    dims["K+"] = dims["K"] - dims["K-"]
    dims["S2-"] = n * (n + 1)
    dims["S2_0+"] = n * n - 1
    dims["L2-"] = n * (n - 1)
    dims["L2_0+"] = n * n - 1
    if sum(dims[label] for label in W_LABELS) != dims["K"]:
        raise InternalCheckFailure("module dimensions do not sum to dim K")
    return DimensionTable(m_bar=n, dims=dims)


# ---------------------------------------------------------------------------
# the space K as the image of the degree-1 coefficient map
# ---------------------------------------------------------------------------

HOLOMORPHIC = "hol"
ANTIHOLOMORPHIC = "anti"


class ColumnKey(NamedTuple):
    """One real parameter of a degree-1 coefficient field.

    ``kind`` selects the holomorphic (c * z_a) or antiholomorphic
    (c * conj(z_a)) direction and ``part`` the real or imaginary unit
    coefficient.  Columns are ordered by entry (i, j, k), then line a,
    then kind (hol before anti), then part (re before im).
    """

    i: int
    j: int
    k: int
    a: int
    kind: str
    part: str


@functools.lru_cache(maxsize=8)
def _column_keys(m_bar: int) -> tuple[ColumnKey, ...]:
    keys = []
    for i in range(1, m_bar + 1):
        for j in range(i, m_bar + 1):
            for k in range(1, m_bar + 1):
                for a in range(1, m_bar + 1):
                    for kind in (HOLOMORPHIC, ANTIHOLOMORPHIC):
                        for part in ("re", "im"):
                            keys.append(ColumnKey(i, j, k, a, kind, part))
    return tuple(keys)


#: Origin gradient of each unit parameter direction on its coordinate line a,
#: ((du/dx_a, du/dy_a), (dv/dx_a, dv/dy_a)) for the entry u + i v: z_a, i z_a,
#: conj(z_a) and i conj(z_a).  The four patterns are mutually orthogonal with
#: squared norm 2.  This table is the only statement of the parametrization.
_UNIT_GRADIENTS = {
    (HOLOMORPHIC, "re"): ((1, 0), (0, 1)),
    (HOLOMORPHIC, "im"): ((0, -1), (1, 0)),
    (ANTIHOLOMORPHIC, "re"): ((1, 0), (0, -1)),
    (ANTIHOLOMORPHIC, "im"): ((0, 1), (1, 0)),
}


@functools.lru_cache(maxsize=8)
def _parameter_layout(m_bar: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Where each parameter's unit gradient pattern sits: (parameter, flat
    position, sign) of every nonzero pattern entry, two per key.

    Positions index the flattened (2, m_bar, m_bar, m_bar, m) gradient array
    on the entry i <= j.
    """
    keys = _column_keys(m_bar)
    lo, hi, k, a = (np.array([key[field] for key in keys], dtype=np.int64) - 1 for field in range(4))
    lo, hi = np.minimum(lo, hi), np.maximum(lo, hi)
    pattern = np.array([_UNIT_GRADIENTS[key.kind, key.part] for key in keys], dtype=np.int8)
    param, uv, xy = np.nonzero(pattern)
    flat = np.ravel_multi_index(
        (uv, lo[param], hi[param], k[param], a[param] + m_bar * xy), (2, m_bar, m_bar, m_bar, 2 * m_bar)
    )
    return param, flat, pattern[param, uv, xy]


def _mirror_upper(grads: np.ndarray) -> np.ndarray:
    """Gradient arrays (..., 2, m_bar, m_bar, m_bar, m) with each entry i <= j copied to (j, i)."""
    m_bar = grads.shape[-3]
    upper = np.triu(np.ones((m_bar, m_bar), dtype=bool))[:, :, None, None]
    return np.where(upper, grads, grads.swapaxes(-4, -3))


def theta_from_coefficients(config: SpaceConfig, coeffs: np.ndarray) -> ThetaField:
    """Rebuild the degree-1, origin-vanishing field a parameter vector describes.

    The parameters follow the column order of the coefficient map.  Its
    coefficient arrays are the origin gradients over the 2 m_bar
    coordinate monomials: each gradient entry the signed sum of the
    parameters whose patterns reach it, each entry i <= j mirrored to (j, i).
    """
    m_bar = config.m_bar
    param, flat, sign = _parameter_layout(m_bar)
    shape = (2, m_bar, m_bar, m_bar, 2 * m_bar)
    grads = np.bincount(flat, weights=sign * np.asarray(coeffs, dtype=float)[param], minlength=np.prod(shape))
    grads = _mirror_upper(grads.reshape(shape))
    return ThetaField.from_arrays(m_bar, grads[0], grads[1], np.eye(2 * m_bar, dtype=np.int64))


def _coefficients_of(theta: ThetaField) -> np.ndarray:
    """The parameter vector of a degree-1, origin-vanishing field.

    A projection, read as the signed gather matching theta_from_coefficients:
    on the entries i <= j the unit gradient patterns are mutually orthogonal
    with squared norm 2.
    """
    param, flat, sign = _parameter_layout(theta.m_bar)
    grads = degree_one_gradients(theta).reshape(-1)
    return np.bincount(param, weights=sign * grads[flat], minlength=len(_column_keys(theta.m_bar))) / 2.0


@dataclass(frozen=True)
class CurvatureCoefficientMap:
    """Linear map from degree-1 coefficient parameters to curvature at the
    origin, with its Gram matrix, the diagonal W of its pseudo-inverse
    (matrix^+ = W matrix^T) and the rank of each column kind, all exact."""

    config: SpaceConfig
    matrix: np.ndarray  # shape (m^4, n_columns), integer-valued
    gram: np.ndarray  # matrix^T matrix, int8
    columns: tuple[ColumnKey, ...]
    kinds: np.ndarray  # the kind of each column
    weights: np.ndarray  # shape (n_columns,)
    ranks: Mapping[str, int]

    def column_mask(self, kind: str) -> np.ndarray:
        return self.kinds == kind


def _exact_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b of integer-valued float arrays, free of rounding in any summation
    order: every partial sum is an integer of at most inner * max|a| * max|b|,
    which must stay below 2^53."""
    top_a, top_b = (max(x.max(initial=0.0), -x.min(initial=0.0)) for x in (a, b))  # no |x| copies
    if a.shape[-1] * top_a * top_b >= 2.0**53:
        raise InternalCheckFailure("an integer product leaves the exact range of float64")
    return a @ b


def _diagonal_pseudo_inverse(gram: np.ndarray) -> tuple[np.ndarray, int]:
    """The diagonal W with C^+ = W C^T, and the rank of C, from G = C^T C.

    With d, s the diagonals of G and G^2, w = d / s (0 on zero columns).  For
    X = W C^T, C X is symmetric, G W G = G gives C X C = C and X C X = X, and
    X C = W G must be symmetric: the Moore-Penrose conditions.  W G is then
    the projector onto the row space of C, of rank trace(W G).  Both checks
    run on L W G, L = lcm(s), integer-valued like G (an L G beyond 2^53
    rounds and fails the first).
    """
    d = np.diag(gram).astype(np.int64)
    s = np.diag(_exact_product(gram, gram)).astype(np.int64)
    scale = math.lcm(*s[s > 0].tolist())
    scaled_w = (scale // np.maximum(s, 1) * d).astype(float)  # zero columns have d = s = 0
    scaled_wg = scaled_w[:, None] * gram
    if not np.array_equal(_exact_product(gram, scaled_wg), scale * gram):
        raise InternalCheckFailure("the diagonal pseudo-inverse fails G W G = G")
    if not np.array_equal(scaled_wg, scaled_wg.T):
        raise InternalCheckFailure("the diagonal pseudo-inverse fails W G = (W G)^T")
    return scaled_w / scale, sum(int(v) for v in np.diag(scaled_wg)) // scale


# The one lock for every per-size memo.  Re-entrant: builders call each other
# while holding it, which keeps construction at-most-once per size under
# concurrency.
_cache_lock = threading.RLock()
_memos: list[dict] = []


def _per_size(build):
    """Memoize a builder of one SpaceConfig argument per m_bar, under the lock."""
    memo: dict[int, object] = {}
    _memos.append(memo)

    @functools.wraps(build)
    def cached(config: SpaceConfig):
        with _cache_lock:
            if config.m_bar not in memo:
                memo[config.m_bar] = build(config)
            return memo[config.m_bar]

    return cached


def clear_caches() -> None:
    """Drop every _per_size memo (used to time cold construction).

    The lru_cache tables stay: _column_keys, _parameter_layout,
    tensors.gather_table, tensors._j_action, standard_complex_structure,
    realization._sample_points and sampling._unit_terms.
    """
    with _cache_lock:
        for memo in _memos:
            memo.clear()


@_per_size
def coefficient_map(config: SpaceConfig) -> CurvatureCoefficientMap:
    """The parameter-to-curvature matrix K is built from, assembled once per size.

    Each column is the origin curvature of a unit degree-1 coefficient
    direction, an int16 stack with entries in {-2, ..., 2} whose one float
    copy is the matrix.  In exact integer arithmetic, every column must
    satisfy the defining identities, the holomorphic columns must be J-odd
    and the antiholomorphic ones J-even (so the two kinds are orthogonal:
    J-conjugation is a signed permutation), each kind must have a diagonal
    pseudo-inverse of the closed-form rank (dim K+ for the antiholomorphic
    columns, dim K- for the holomorphic ones) and the Gram must fit in int8.
    So the two kinds span the parity eigenspaces K+ and K- of K.  A failure
    is an internal error.  Every per-size build starts here, so an m_bar
    above MAX_M_BAR is refused (SchemaViolation) before anything is
    allocated.
    """
    _require_decomposable(config.m_bar)
    if config.m_bar > MAX_M_BAR:
        raise SchemaViolation(
            f"per-size structures are built for m_bar <= MAX_M_BAR = {MAX_M_BAR}, got {config.m_bar}"
        )
    m_bar = config.m_bar
    keys = _column_keys(m_bar)
    param, flat, unit = _parameter_layout(m_bar)
    grads = np.zeros((len(keys), 4 * m_bar**4), dtype=np.int16)
    grads[param, flat] = unit  # the origin gradients of each unit parameter field
    grads = _mirror_upper(grads.reshape(len(keys), 2, m_bar, m_bar, m_bar, 2 * m_bar))
    # Entries in {-2, ..., 2}: the identity sums of three and the negations cannot wrap in int16.
    stack = linear_curvature_from_gradients(grads[:, 0], grads[:, 1])
    worst = max(k_identity_violations(stack, config).values())
    if worst:
        raise InternalCheckFailure(f"a coefficient-map column violates the identities by {worst:.0f}")
    kinds = np.array([key.kind for key in keys])
    hol = kinds == HOLOMORPHIC
    stack = stack.reshape(len(keys), -1)
    if not np.array_equal(j_conjugate_flat(stack, m_bar), np.where(hol[:, None], -stack, stack)):
        raise InternalCheckFailure("a coefficient-map column has the wrong J-parity")
    cols = np.ascontiguousarray(stack.T, dtype=float)
    del stack, grads
    cols.setflags(write=False)
    gram = _exact_product(cols.T, cols)
    weights, ranks = np.zeros(len(keys)), {}
    dims = module_dimension_table(m_bar).dims
    for kind, columns, label in ((ANTIHOLOMORPHIC, ~hol, "K+"), (HOLOMORPHIC, hol, "K-")):
        weights[columns], ranks[kind] = _diagonal_pseudo_inverse(gram[np.ix_(columns, columns)])
        if ranks[kind] != dims[label]:
            raise InternalCheckFailure(f"{kind} columns of rank {ranks[kind]}, not dim {label} = {dims[label]}")
    small_gram = gram.astype(np.int8)  # kept for the K+ / K- bases
    if not np.array_equal(small_gram, gram):
        raise InternalCheckFailure("the Gram matrix of the coefficient map leaves the int8 range")
    for arr in (small_gram, kinds, weights):
        arr.setflags(write=False)
    return CurvatureCoefficientMap(config, cols, small_gram, keys, kinds, weights, MappingProxyType(ranks))


def _gram_inner(gram: list[list[int]], x: list[int], y: list[int]) -> int:
    """x^T G y in exact integers."""
    return sum(xr * gr * ys for xr, row in zip(x, gram) for gr, ys in zip(row, y))


def _column_basis(matrix: np.ndarray, gram: np.ndarray, columns: np.ndarray) -> np.ndarray:
    """Orthonormal rows spanning the given integer columns of ``matrix``,
    from its Gram matrix G = C^T C.

    Columns in different connected components of the nonzero pattern of G
    are orthogonal, so each component (1, 2 or 3 columns at m_bar <= 5) is
    orthogonalized on its own, by Gram-Schmidt in exact integer arithmetic
    on its Gram entries (each residual scaled to integer coefficients).  A
    vector is kept only when its exact residual norm^2 is nonzero, so no
    cutoff decides the rank; each kept row is normalized once, in float.
    """
    n = len(columns)
    linked = (gram[np.ix_(columns, columns)] != 0) | np.eye(n, dtype=bool)
    label = np.arange(n)
    while True:  # each column takes the smallest label in its component
        spread = np.where(linked, label, n).min(axis=1)
        if np.array_equal(spread, label):
            break
        label = spread
    order = np.argsort(label, kind="stable")
    components = [columns[comp].tolist() for comp in np.split(order, np.flatnonzero(np.diff(label[order])) + 1)]
    width = max(len(comp) for comp in components)
    picks, weights = [], []
    for comp in components:
        g = gram[np.ix_(comp, comp)].astype(np.int64).tolist()
        kept: list[tuple[list[int], int]] = []
        for t in range(len(comp)):
            # v_t minus its projections on the kept vectors, scaled by their
            # norms^2 so that the coefficients on the columns stay integers
            coef = [int(s == t) for s in range(len(comp))]
            for prev, norm2 in kept:
                overlap = _gram_inner(g, coef, prev)
                coef = [norm2 * c - overlap * p for c, p in zip(coef, prev)]
            norm2 = _gram_inner(g, coef, coef)
            if norm2:
                kept.append((coef, norm2))
        for coef, norm2 in kept:
            picks.append(comp + comp[:1] * (width - len(comp)))
            weights.append([float(c) / math.sqrt(norm2) for c in coef] + [0.0] * (width - len(comp)))
    picks, weights = np.array(picks), np.array(weights)
    # gather whole columns (fast on the row-major matrix), transpose once
    return sum(np.take(matrix, picks[:, t], axis=1) * weights[:, t] for t in range(width)).T


@_per_size
def kahler_parity_subspaces(config: SpaceConfig) -> tuple[Subspace, Subspace]:
    """(K+, K-): eigenspaces of full J-conjugation inside K.

    K+ is the span of the antiholomorphic columns of the coefficient map and
    K- that of the holomorphic ones: coefficient_map proves each column's
    J-parity exactly and each kind's rank to be the closed-form dimension.
    The orthonormal bases come from the columns (_column_basis) with no
    singular-value decision; each must have exactly its kind's rank, and
    Subspace re-checks orthonormality.  The rows are combinations of
    columns of one exact parity, and J is a signed permutation, so the rows
    have that parity too.
    """
    cmap = coefficient_map(config)
    parts = []
    for kind, label in ((ANTIHOLOMORPHIC, "K+"), (HOLOMORPHIC, "K-")):
        rows = _column_basis(cmap.matrix, cmap.gram, np.flatnonzero(cmap.column_mask(kind)))
        if len(rows) != cmap.ranks[kind]:
            raise InternalCheckFailure(f"dim {label} = {len(rows)} from the columns, {cmap.ranks[kind]} exactly")
        parts.append(Subspace(cmap.matrix.shape[0], rows))
    return parts[0], parts[1]


@_per_size
def kahler_space_basis(config: SpaceConfig) -> Subspace:
    """Orthonormal basis of K inside R^(m^4): the K+ rows stacked over the K- rows.

    The columns of the coefficient map span K and split into the
    antiholomorphic and holomorphic ones, so K = K+ + K-; the two are
    eigenspaces of an orthogonal involution, and Subspace re-checks that the
    stacked rows are orthonormal.
    """
    plus, minus = kahler_parity_subspaces(config)
    return Subspace(plus.ambient_dim, np.vstack([plus.basis, minus.basis]))


# ---------------------------------------------------------------------------
# the twelve modules
# ---------------------------------------------------------------------------

_MINUS_LABELS = ("W2", "W4", "W12")


def _sym(arr: np.ndarray) -> np.ndarray:
    """Symmetrization in the last two axes (up to the factor 1/2)."""
    return arr + np.swapaxes(arr, -1, -2)


def _antisym(arr: np.ndarray) -> np.ndarray:
    """Antisymmetrization in the last two axes (up to the factor 1/2)."""
    return arr - np.swapaxes(arr, -1, -2)


def _carve(images: np.ndarray, space: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """The kernel of a linear condition within the coordinate rows ``space``
    (None: the whole parent) and its complement there, from one SVD, as
    orthonormal rows in parent coordinates.  ``images`` holds the condition's
    image of each parent basis vector, so those of ``space`` are
    ``space @ images``."""
    own = images if space is None else np.tensordot(space, images, axes=1)
    kernel, rest = kernel_and_rest(own.reshape(len(own), -1).T, tol=_RANK_TOL)
    return (kernel, rest) if space is None else (kernel @ space, rest @ space)


def _swap_eigenspaces(n_plus: np.ndarray, plus: Subspace, plus_stack: np.ndarray) -> dict[str, np.ndarray]:
    """W9, W10 and W11 in K+ coordinates: the eigenspaces of the swap S of
    the last two slots, compressed to N+.

    M = N (B S B^T) N^T on the N+ coordinate rows N, with B S B^T one product
    of the swapped K+ stack with the K+ basis B.  A unit eigenvector x of M
    with eigenvalue -1 or +1 has S x = -x or +x exactly (|<x, S x>| = 1 with
    S orthogonal): it lies in W9 (S T = -T) or W10 (S T = T).  The other
    eigenvectors span their complement in N+, W11, where the eigenvalue must
    be 0.  Each eigenvector is labelled by its rounded eigenvalue, a margin
    of 0.5; an eigenvalue further than 1e-10 from -1, 0 or 1 is an internal
    error.
    """
    swapped = np.swapaxes(plus_stack, -1, -2).reshape(plus.dim, -1) @ plus.basis.T
    values, vectors = np.linalg.eigh(n_plus @ swapped @ n_plus.T)
    labels = np.clip(np.rint(values), -1.0, 1.0)
    worst = float(np.max(np.abs(values - labels), initial=0.0))
    if worst > 1e-10:
        raise InternalCheckFailure(f"the last-pair swap on N+ has an eigenvalue {worst:.3e} off -1, 0 and 1")
    return {
        label: vectors[:, labels == value].T @ n_plus
        for label, value in (("W9", -1.0), ("W10", 1.0), ("W11", 0.0))
    }


def _certify_parity(label: str, modules: list[np.ndarray]) -> None:
    """The coordinate rows of the modules of one parity part, stacked into Q,
    must satisfy max |Q Q^T - I| <= 1e-10 with Q square: then each module is
    orthonormal, the modules are mutually orthogonal and together they fill
    the part."""
    q = np.vstack(modules)
    worst = float(np.max(np.abs(q @ q.T - np.eye(len(q))), initial=0.0))
    if q.shape[0] != q.shape[1] or worst > 1e-10:
        raise InternalCheckFailure(
            f"the modules of {label} are no orthonormal basis of it: Q is {q.shape}, max |Q Q^T - I| = {worst:.3e}"
        )


@_per_size
def w_subspaces(config: SpaceConfig) -> dict[str, Subspace]:
    """The twelve mutually orthogonal submodules of K, as concrete subspaces.

    Construction: split K into the parity eigenspaces; inside K- take the
    rho14 kernel (W12) and split its complement by the symmetry type of rho14
    (W2 symmetric, W4 antisymmetric).  Inside K+ the joint rho13/rho14 kernel
    N+ splits by last-two-slot symmetry into W9 (antisymmetric), W10
    (symmetric) and the leftover W11, the eigenspaces of the last-pair swap
    compressed to N+ (_swap_eigenspaces); the complement of N+ carries the two
    scalar traces, whose kernel M0 splits into the rho13 kernel (W1 + W3,
    separated by the symmetry type of rho14) and its complement (W7 + W8,
    separated by the symmetry type of rho13), while the trace part itself
    splits into W5 (tau_tilde = 0) and W6 (tau = 0).

    Each module but W9, W10, W11 is the kernel of its own defining condition
    (_carve); only the four intermediate spaces are complements.  Dimensions
    must match the closed forms and each parity part must pass
    _certify_parity, or InternalCheckFailure is raised.
    """
    # Every module is carved in coordinates on the K- or K+ basis from the
    # m^2-long trace images of the basis, computed once, and lifted to
    # R^(m^4) once, at the end.
    m = config.m
    plus, minus = kahler_parity_subspaces(config)
    plus_stack = plus.basis.reshape(-1, m, m, m, m)
    rho13, rho14 = rho13_of(plus_stack), rho14_of(plus_stack)
    tau, tau_tilde = scalar_traces(rho14, config)
    minus_rho14 = rho14_of(minus.basis.reshape(-1, m, m, m, m))
    coords: dict[str, np.ndarray] = {}

    # K- side: W12, then W2 / W4.
    coords["W12"], w2w4 = _carve(minus_rho14)
    coords["W2"], _ = _carve(_antisym(minus_rho14), w2w4)
    coords["W4"], _ = _carve(_sym(minus_rho14), w2w4)

    # K+ side: the joint trace kernel N+ and its complement M+.
    n_plus, m_plus = _carve(np.stack([rho13, rho14], axis=1))
    coords.update(_swap_eigenspaces(n_plus, plus, plus_stack))

    m0, w5w6 = _carve(np.stack([tau, tau_tilde], axis=1), m_plus)
    coords["W5"], _ = _carve(tau_tilde, w5w6)
    coords["W6"], _ = _carve(tau, w5w6)

    w1w3, w7w8 = _carve(rho13, m0)
    coords["W1"], _ = _carve(_antisym(rho14), w1w3)
    coords["W3"], _ = _carve(_sym(rho14), w1w3)
    coords["W7"], _ = _carve(_antisym(rho13), w7w8)
    coords["W8"], _ = _carve(_sym(rho13), w7w8)

    expected = w_dimension_formulas(config.m_bar)
    for label in W_LABELS:
        if len(coords[label]) != expected[label]:
            raise InternalCheckFailure(
                f"{label} has dimension {len(coords[label])}, expected {expected[label]}"
            )
    _certify_parity("K+", [coords[label] for label in W_LABELS if label not in _MINUS_LABELS])
    _certify_parity("K-", [coords[label] for label in _MINUS_LABELS])
    return {
        label: Subspace(plus.ambient_dim, coords[label] @ (minus if label in _MINUS_LABELS else plus).basis)
        for label in W_LABELS
    }


@dataclass(frozen=True)
class WDecomposition:
    """Projections of a tensor onto W1..W12 plus the leftover residual."""

    components: dict[str, Tensor4]
    norms: dict[str, float]
    residual: float


def w_project(tensor: Tensor4, tol: float = DEFAULT_TOL) -> WDecomposition:
    """Orthogonal projection of a tensor in K onto each of the twelve modules;
    an entry beyond MAX_ENTRY in absolute value is rejected up front."""
    require_bounded_entries(tensor, "decompose")
    require_in_k(tensor, tol=tol)
    spaces = w_subspaces(tensor.config)
    flat = tensor.flatten()
    components: dict[str, Tensor4] = {}
    norms: dict[str, float] = {}
    total = np.zeros_like(flat)
    for label, space in spaces.items():
        coords = space.coordinates(flat)
        comp = coords @ space.basis
        total += comp
        components[label] = Tensor4.from_flat(tensor.config, comp)
        norms[label] = float(np.linalg.norm(coords))
    residual = float(np.linalg.norm(flat - total))
    return WDecomposition(components=components, norms=norms, residual=residual)


# ---------------------------------------------------------------------------
# bilinear decomposition
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BilinearDecomposition:
    """Six-way split of a bilinear form.

    The scalar parts are stored as the matching multiple of the metric and of
    the Kahler 2-form, so the six entries sum back to the input.
    """

    s2_minus: Bilinear2
    s2_zero_plus: Bilinear2
    scalar_metric_part: Bilinear2
    lambda2_minus: Bilinear2
    lambda2_zero_plus: Bilinear2
    scalar_omega_part: Bilinear2

    def parts(self) -> dict[str, Bilinear2]:
        return {
            "S2-": self.s2_minus,
            "S2_0+": self.s2_zero_plus,
            "R<.,.>": self.scalar_metric_part,
            "L2-": self.lambda2_minus,
            "L2_0+": self.lambda2_zero_plus,
            "R.Omega": self.scalar_omega_part,
        }

    def total(self) -> Bilinear2:
        parts = list(self.parts().values())
        out = parts[0]
        for part in parts[1:]:
            out = out + part
        return out


def bilinear_decompose(theta: Bilinear2) -> BilinearDecomposition:
    """Split into symmetric/antisymmetric crossed with J-parity, minus scalars."""
    cfg = theta.config
    m = cfg.m
    arr = theta.entries

    sym = (arr + arr.T) / 2.0
    alt = (arr - arr.T) / 2.0

    sym_j, alt_j = apply_j_slots(np.stack([sym, alt]), cfg, (1, 2))
    sym_plus = (sym + sym_j) / 2.0
    sym_minus = (sym - sym_j) / 2.0
    alt_plus = (alt + alt_j) / 2.0
    alt_minus = (alt - alt_j) / 2.0

    metric_coeff = np.trace(sym_plus) / m
    omega = kahler_form(cfg).entries
    omega_coeff = float(np.sum(alt_plus * omega)) / m

    return BilinearDecomposition(
        s2_minus=Bilinear2(cfg, sym_minus),
        s2_zero_plus=Bilinear2(cfg, sym_plus - metric_coeff * np.eye(m)),
        scalar_metric_part=Bilinear2(cfg, metric_coeff * np.eye(m)),
        lambda2_minus=Bilinear2(cfg, alt_minus),
        lambda2_zero_plus=Bilinear2(cfg, alt_plus - omega_coeff * omega),
        scalar_omega_part=Bilinear2(cfg, omega_coeff * omega),
    )


@_per_size
def bilinear_subspaces(config: SpaceConfig) -> dict[str, Subspace]:
    """The six pieces of the bilinear space as concrete subspaces of R^(m^2)."""
    m = config.m
    collected: dict[str, list[np.ndarray]] = {label: [] for label in BILINEAR_LABELS}
    for a in range(m):
        for b in range(m):
            elem = np.zeros((m, m))
            elem[a, b] = 1.0
            split = bilinear_decompose(Bilinear2(config, elem))
            for label, part in split.parts().items():
                collected[label].append(part.entries.reshape(-1))
    out = {
        label: orthonormalize(np.stack(rows), tol=_RANK_TOL, ambient_dim=m * m)
        for label, rows in collected.items()
    }
    total = sum(space.dim for space in out.values())
    if total != m * m:
        raise InternalCheckFailure(f"bilinear pieces sum to {total}, expected {m * m}")
    return out


def computed_dimension_table(config: SpaceConfig) -> DimensionTable:
    """Dimensions measured on the constructed subspaces (independent of the
    formulas); dim K+ + dim K- is dim K, the parts being exactly orthogonal."""
    plus, minus = kahler_parity_subspaces(config)
    dims: dict[str, int] = {
        "K": plus.dim + minus.dim,
        "K+": plus.dim,
        "K-": minus.dim,
    }
    for label, space in w_subspaces(config).items():
        dims[label] = space.dim
    bil = bilinear_subspaces(config)
    for label in ("S2-", "S2_0+", "L2-", "L2_0+"):
        dims[label] = bil[label].dim
    return DimensionTable(m_bar=config.m_bar, dims=dims)
