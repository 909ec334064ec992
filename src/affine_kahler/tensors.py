"""Dense curvature tensors on R^m, m = 2*m_bar, with the standard complex structure.

The basis order is fixed package-wide as (e_1, ..., e_mbar, f_1, ..., f_mbar)
with f_i = J e_i, and this basis is orthonormal, so raising or lowering an
index is the identity on components.  J acts on basis indices as a signed
permutation: index a < m_bar maps to a + m_bar with sign +1, index
a >= m_bar maps to a - m_bar with sign -1.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainViolation

#: Default absolute tolerance for symmetry predicates on O(1)-scale entries.
DEFAULT_TOL = 1e-9

#: Largest absolute tensor entry realize and w_project accept, with a wide
#: margin: the norms of realize's off-origin samples, quadratic in the input,
#: first overflow near 2^251.5 (m_bar = 2, 3, 4), those w_project reports
#: between 2^508 and 2^510 (fixtures/tensor_w9.json).
MAX_ENTRY = 2.0**200

#: Names of the checked tensor identities, in report order.
IDENTITY_NAMES = (
    "antisym12",
    "bianchi1",
    "weyl_1d",
    "riemann_pair_1e",
    "antisym34",
    "gray_1g",
    "kahler_last2_1h",
    "kahler_operator_1i",
)

#: The three identities that together define membership in the constraint
#: space K of admissible Kahler curvature tensors.
K_IDENTITIES = ("antisym12", "bianchi1", "kahler_last2_1h")


@dataclass(frozen=True)
class SpaceConfig:
    """The model space R^m with m = 2*m_bar and the standard complex structure."""

    m_bar: int

    def __post_init__(self) -> None:
        if not isinstance(self.m_bar, int) or self.m_bar < 1:
            raise ValueError(f"m_bar must be a positive integer, got {self.m_bar!r}")

    @property
    def m(self) -> int:
        return 2 * self.m_bar

    def j_action(self) -> tuple[np.ndarray, np.ndarray]:
        """Index permutation and signs of J on the standard basis.

        Returns (perm, signs) such that J v_a = signs[a] * v_perm[a], both
        read-only and built once per m_bar.
        """
        return _j_action(self.m_bar)


@functools.lru_cache(maxsize=8)
def _j_action(m_bar: int) -> tuple[np.ndarray, np.ndarray]:
    idx = np.arange(2 * m_bar)
    perm = np.where(idx < m_bar, idx + m_bar, idx - m_bar)
    signs = np.where(idx < m_bar, 1.0, -1.0)
    for arr in (perm, signs):
        arr.setflags(write=False)
    return perm, signs


def _frozen_array(values, shape: tuple[int, ...], what: str) -> np.ndarray:
    arr = np.array(values, dtype=float)
    if arr.shape != shape:
        raise ValueError(f"{what} must have shape {shape}, got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{what} entries must all be finite")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class Tensor4:
    """Dense rank-4 tensor A(x, y, z, w); entry [a, b, c, d] = A(v_a, v_b, v_c, v_d)."""

    config: SpaceConfig
    entries: np.ndarray

    def __post_init__(self) -> None:
        m = self.config.m
        object.__setattr__(
            self, "entries", _frozen_array(self.entries, (m, m, m, m), "Tensor4")
        )

    @classmethod
    def zero(cls, config: SpaceConfig) -> "Tensor4":
        m = config.m
        return cls(config, np.zeros((m, m, m, m)))

    @classmethod
    def from_flat(cls, config: SpaceConfig, flat: np.ndarray) -> "Tensor4":
        m = config.m
        return cls(config, np.asarray(flat, dtype=float).reshape(m, m, m, m))

    def flatten(self) -> np.ndarray:
        """Row-major flattening, index formula ((a*m + b)*m + c)*m + d."""
        return self.entries.reshape(-1)

    def norm(self) -> float:
        return float(np.linalg.norm(self.entries))

    def inner(self, other: "Tensor4") -> float:
        """Frobenius inner product in the standard basis."""
        return float(np.tensordot(self.entries, other.entries, axes=4))

    def __add__(self, other: "Tensor4") -> "Tensor4":
        return Tensor4(self.config, self.entries + other.entries)

    def __sub__(self, other: "Tensor4") -> "Tensor4":
        return Tensor4(self.config, self.entries - other.entries)

    def __mul__(self, scalar: float) -> "Tensor4":
        return Tensor4(self.config, self.entries * float(scalar))

    __rmul__ = __mul__


@dataclass(frozen=True)
class Bilinear2:
    """Dense rank-2 tensor; entry [a, b] = theta(v_a, v_b)."""

    config: SpaceConfig
    entries: np.ndarray

    def __post_init__(self) -> None:
        m = self.config.m
        object.__setattr__(
            self, "entries", _frozen_array(self.entries, (m, m), "Bilinear2")
        )

    def norm(self) -> float:
        return float(np.linalg.norm(self.entries))

    def __add__(self, other: "Bilinear2") -> "Bilinear2":
        return Bilinear2(self.config, self.entries + other.entries)

    def __sub__(self, other: "Bilinear2") -> "Bilinear2":
        return Bilinear2(self.config, self.entries - other.entries)


@functools.lru_cache(maxsize=8)
def standard_complex_structure(config: SpaceConfig) -> Bilinear2:
    """Matrix of J in the standard basis: column a holds the components of J v_a.

    Built once per m_bar; the entries are read-only like every Bilinear2's.
    """
    m = config.m
    perm, signs = config.j_action()
    mat = np.zeros((m, m))
    mat[perm, np.arange(m)] = signs
    return Bilinear2(config, mat)


def metric(config: SpaceConfig) -> Bilinear2:
    """The fixed inner product <.,.>: the identity matrix in the standard basis."""
    return Bilinear2(config, np.eye(config.m))


def kahler_form(config: SpaceConfig) -> Bilinear2:
    """Omega(x, y) = <x, J y>; coincides with the matrix of J in this basis."""
    return standard_complex_structure(config)


def apply_j_slots(entries: np.ndarray, config: SpaceConfig, slots: tuple[int, ...]) -> np.ndarray:
    """Substitute J v into the given argument slots of a dense tensor.

    For a slot s, the result T satisfies T(..., x_s, ...) = A(..., J x_s, ...).
    Exact in floating point since J is a signed index permutation; integer
    entries stay in their integer type.
    """
    perm, signs = config.j_action()
    signs = signs.astype(np.result_type(entries, np.int8))
    out = entries
    for ax in slots:
        out = np.take(out, perm, axis=ax)
        shape = [1] * out.ndim
        shape[ax] = len(signs)
        out = out * signs.reshape(shape)
    return out


#: Rows of gather_table.  A slot order names, as an einsum input, where each
#: slot of A is read: row "bacd" holds A(y, x, z, w).  Row "j" + digits holds
#: A with J substituted into those slots (apply_j_slots).  Rows "rj" and "jr"
#: hold the w-components of R(x, y) J z and J R(x, y) z.
GATHER_ROWS = (
    "abcd", "bacd", "bcad", "cabd", "abdc", "cdab",
    "j0123", "j01", "j23", "j02", "j13", "j03", "j12",
    "rj", "jr",
)

_J0123 = GATHER_ROWS.index("j0123")


@functools.lru_cache(maxsize=8)
def gather_table(m_bar: int) -> np.ndarray:
    """Every row of GATHER_ROWS as a signed permutation of flat indices.

    Read-only, of shape (len(GATHER_ROWS), m^4), built once per m_bar.  The
    entries index the concatenation (flat, -flat) of a flattened tensor, so
    f < m^4 reads +flat[f] and m^4 + f reads -flat[f] (see signed_gather).
    Read off the rows applied to the flat indices counted from 1.
    """
    config = SpaceConfig(m_bar)
    m = config.m
    ids = np.arange(1, m**4 + 1).reshape(m, m, m, m)

    def row(name: str) -> np.ndarray:
        if name == "rj":  # sum_s A(x, y, v_s, w) J[s, z]
            return apply_j_slots(ids, config, (2,))
        if name == "jr":  # sum_s J[w, s] A(x, y, z, v_s), and J[w, Jw] = -signs[w]
            return -apply_j_slots(ids, config, (3,))
        if name.startswith("j"):
            return apply_j_slots(ids, config, tuple(map(int, name[1:])))
        return np.einsum(f"{name}->abcd", ids)

    signed = np.stack([row(name).reshape(-1) for name in GATHER_ROWS])
    table = (np.abs(signed) - 1 + np.where(signed < 0, m**4, 0)).astype(np.intp)
    table.setflags(write=False)
    return table


def signed_gather(flat: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Rows of gather_table applied to a flattened tensor, exactly: negation
    is exact, so each entry is +-flat[f] as J's signs dictate."""
    # Indexing, not np.take: np.take copies a read-only index array every call.
    return np.concatenate((flat, -flat))[rows]


def j_conjugate_flat(flat: np.ndarray, m_bar: int) -> np.ndarray:
    """apply_j_slots(A, (0, 1, 2, 3)) of flattened tensors stacked along
    leading axes, as the table's signed gather; exact in any signed dtype."""
    # np.take, not [..., rows]: on large stacks that indexing is 2-5x slower.
    return np.take(np.concatenate((flat, -flat), axis=-1), gather_table(m_bar)[_J0123], axis=-1)


def _j_conjugate(tensor: Tensor4) -> np.ndarray:
    """apply_j_slots(A, (0, 1, 2, 3)) as the table's one signed gather."""
    conj = signed_gather(tensor.flatten(), gather_table(tensor.config.m_bar)[_J0123])
    return conj.reshape(tensor.entries.shape)


@dataclass(frozen=True)
class SymmetryReport:
    """Max-residual and pass flag per checked identity.

    ``in_K`` is the conjunction of the antisym12, bianchi1 and kahler_last2_1h
    flags; the remaining identities are reported but do not gate membership.
    """

    tol: float
    violations: dict[str, float]
    flags: dict[str, bool] = field(init=False)
    in_K: bool = field(init=False)

    def __post_init__(self) -> None:
        flags = {name: viol <= self.tol for name, viol in self.violations.items()}
        object.__setattr__(self, "flags", flags)
        object.__setattr__(self, "in_K", all(flags[name] for name in K_IDENTITIES))

    def first_violated_k_identity(self) -> str | None:
        for name in K_IDENTITIES:
            if not self.flags[name]:
                return name
        return None


@dataclass(frozen=True)
class TraceSet:
    """The two Ricci-type contractions plus the two scalar invariants."""

    rho13: Bilinear2
    rho14: Bilinear2
    tau: float
    tau_tilde_j: float


# The trace maps below take one dense tensor (or bilinear form) or a stack of
# them along leading axes, and return one value per stacked element.

def rho13_of(entries: np.ndarray) -> np.ndarray:
    """rho13(x, y) = sum_a A(v_a, x, v_a, y)."""
    return np.einsum("...abad->...bd", entries)


def rho14_of(entries: np.ndarray) -> np.ndarray:
    """rho14(x, y) = sum_a A(v_a, x, y, v_a)."""
    return np.einsum("...abca->...bc", entries)


def scalar_traces(rho14: np.ndarray, config: SpaceConfig) -> tuple[np.ndarray, np.ndarray]:
    """(tau, tau_tilde_j) of rho14: its metric trace and its trace against
    the 2-form Omega, i.e. sum_b rho14(J v_b, v_b)."""
    jmat = standard_complex_structure(config).entries
    return np.trace(rho14, axis1=-2, axis2=-1), np.sum(jmat * rho14, axis=(-2, -1))


def ricci_traces(tensor: Tensor4) -> TraceSet:
    """The trace maps rho13_of, rho14_of and scalar_traces of one tensor."""
    rho14 = rho14_of(tensor.entries)
    tau, tau_tilde = scalar_traces(rho14, tensor.config)
    return TraceSet(
        rho13=Bilinear2(tensor.config, rho13_of(tensor.entries)),
        rho14=Bilinear2(tensor.config, rho14),
        tau=float(tau),
        tau_tilde_j=float(tau_tilde),
    )


def _max_abs(arr: np.ndarray) -> float:
    return float(np.max(np.abs(arr))) if arr.size else 0.0


def k_identity_violations(entries: np.ndarray, config: SpaceConfig) -> dict[str, float]:
    """Max residual of each defining identity of K (K_IDENTITIES).

    ``entries`` is one dense tensor or a stack of them along leading axes;
    the maximum is taken over the whole stack.
    """
    return {
        "antisym12": _max_abs(entries + np.einsum("...bacd->...abcd", entries)),
        # A(x, y, z, w) + A(y, z, x, w) + A(z, x, y, w)
        "bianchi1": _max_abs(
            entries
            + np.einsum("...bcad->...abcd", entries)
            + np.einsum("...cabd->...abcd", entries)
        ),
        "kahler_last2_1h": _max_abs(entries - apply_j_slots(entries, config, (-2, -1))),
    }


def classify_symmetries(tensor: Tensor4, tol: float = DEFAULT_TOL) -> SymmetryReport:
    """Evaluate every supported curvature identity and report max residuals.

    Every identity is a signed sum of slot permutations and J-substitutions
    of A, so one gather through gather_table yields all of them; weyl_1d adds
    its rho14 trace term.  The lowered two-slot identity (kahler_last2_1h)
    and the operator commutation identity (kahler_operator_1i) are computed
    independently, from different rows, even though they coincide in an
    orthonormal basis; agreement of the two is a self-consistency guard.
    """
    m = tensor.config.m
    table = gather_table(tensor.config.m_bar)
    a, bacd, bcad, cabd, abdc, cdab, j0123, j01, j23, j02, j13, j03, j12, rj, jr = (
        signed_gather(tensor.flatten(), table)
    )
    rho14 = rho14_of(tensor.entries)
    skew = rho14.T - rho14
    antisym34 = a + abdc
    residuals = np.stack([
        a + bacd,
        a + bcad + cabd,
        antisym34 - ((2.0 / m) * np.einsum("ab,cd->abcd", skew, np.eye(m))).reshape(-1),
        a - cdab,
        antisym34,
        a + j0123 - j01 - j23 - j02 - j13 - j03 - j12,
        a - j23,
        rj - jr,
    ])
    # In place: with a third m^4-row temporary, glibc's malloc returned the
    # heap to the system on every call at m_bar >= 4 (hundreds of page faults).
    worst = np.abs(residuals, out=residuals).max(axis=1).tolist()
    return SymmetryReport(tol=tol, violations=dict(zip(IDENTITY_NAMES, worst)))


def require_bounded_entries(tensor: Tensor4, operation: str) -> None:
    """Raise DomainViolation, naming the bound, if |entry| > MAX_ENTRY."""
    largest = _max_abs(tensor.entries)
    if largest > MAX_ENTRY:
        raise DomainViolation(
            f"{operation} accepts tensor entries up to 2^{math.log2(MAX_ENTRY):g} = {MAX_ENTRY:.3e} "
            f"in absolute value, got {largest:.3e}"
        )


def require_in_k(tensor: Tensor4, tol: float = DEFAULT_TOL) -> SymmetryReport:
    """Raise DomainViolation naming the first violated defining identity."""
    report = classify_symmetries(tensor, tol=tol)
    if not report.in_K:
        name = report.first_violated_k_identity()
        raise DomainViolation(
            f"tensor is not an admissible Kahler curvature tensor: identity "
            f"{name} violated by {report.violations[name]:.3e} (tol {tol:.1e})"
        )
    return report


def j_parity_split(tensor: Tensor4, tol: float = DEFAULT_TOL) -> tuple[Tensor4, Tensor4]:
    """Split A in K into its J-parity eigenparts (A_plus, A_minus).

    Full four-slot J conjugation fixes A_plus and negates A_minus with no
    rounding error at all (the conjugation is a signed permutation and IEEE
    rounding is sign-symmetric).  A_plus + A_minus reproduces A exactly on
    dyadic data and to one ulp per entry otherwise.  Both parts again satisfy
    the defining identities.
    """
    require_in_k(tensor, tol=tol)
    return _parity_parts(tensor)


def _parity_parts(tensor: Tensor4) -> tuple[Tensor4, Tensor4]:
    """(A_plus, A_minus) by full J conjugation, for a tensor already known to be in K."""
    conj = _j_conjugate(tensor)
    plus = Tensor4(tensor.config, (tensor.entries + conj) / 2.0)
    minus = Tensor4(tensor.config, (tensor.entries - conj) / 2.0)
    return plus, minus


def j_parity_residuals(tensor: Tensor4) -> tuple[float, float]:
    """Distance of A from each parity eigenspace: (norm of odd part, norm of even part).

    The first number vanishes iff A is parity-even (in K+ when A is in K),
    the second iff A is parity-odd.
    """
    conj = _j_conjugate(tensor)
    odd = float(np.linalg.norm((tensor.entries - conj) / 2.0))
    even = float(np.linalg.norm((tensor.entries + conj) / 2.0))
    return odd, even


def apply_as_operator(tensor: Tensor4, a: int, b: int, c: int) -> np.ndarray:
    """Components of the operator value A(v_a, v_b) v_c in the standard basis."""
    m = tensor.config.m
    for name, idx in (("a", a), ("b", b), ("c", c)):
        if not 0 <= idx < m:
            raise ValueError(f"index {name}={idx} out of range for m={m}")
    return tensor.entries[a, b, c, :].copy()
