from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affine_kahler.errors import DomainViolation
from affine_kahler.sampling import random_kahler_tensor, random_parity_tensor
from affine_kahler.serialization import read_tensor_file
from affine_kahler.tensors import (
    GATHER_ROWS,
    K_IDENTITIES,
    SpaceConfig,
    Tensor4,
    _parity_parts,
    apply_as_operator,
    apply_j_slots,
    classify_symmetries,
    gather_table,
    j_parity_residuals,
    j_parity_split,
    k_identity_violations,
    kahler_form,
    metric,
    rho13_of,
    rho14_of,
    ricci_traces,
    scalar_traces,
    signed_gather,
    standard_complex_structure,
)
from constraint_oracle import nullspace_route_spaces
from symmetry_oracle import symmetry_violations

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"


# -- independent summation oracles (loops over the definitions) --------------

def oracle_rho13(entries: np.ndarray) -> np.ndarray:
    m = entries.shape[0]
    out = np.zeros((m, m))
    for b in range(m):
        for d in range(m):
            out[b, d] = sum(entries[a, b, a, d] for a in range(m))
    return out


def oracle_rho14(entries: np.ndarray) -> np.ndarray:
    m = entries.shape[0]
    out = np.zeros((m, m))
    for b in range(m):
        for c in range(m):
            out[b, c] = sum(entries[a, b, c, a] for a in range(m))
    return out


def oracle_antisym12_violation(entries: np.ndarray) -> float:
    m = entries.shape[0]
    worst = 0.0
    for a in range(m):
        for b in range(m):
            for c in range(m):
                for d in range(m):
                    worst = max(worst, abs(entries[a, b, c, d] + entries[b, a, c, d]))
    return worst


def j_matrix_oracle(m_bar: int) -> np.ndarray:
    m = 2 * m_bar
    jmat = np.zeros((m, m))
    for i in range(m_bar):
        jmat[m_bar + i, i] = 1.0   # J e_i = f_i
        jmat[i, m_bar + i] = -1.0  # J f_i = -e_i
    return jmat


# -- standard structure -------------------------------------------------------

@pytest.mark.parametrize("m_bar", [1, 2, 3, 4])
def test_standard_complex_structure_squares_to_minus_identity(m_bar):
    jmat = standard_complex_structure(SpaceConfig(m_bar)).entries
    assert np.array_equal(jmat @ jmat, -np.eye(2 * m_bar))
    assert np.array_equal(jmat, j_matrix_oracle(m_bar))


def test_j_maps_e1_to_f1_and_back(cfg2):
    jmat = standard_complex_structure(cfg2).entries
    e1 = np.zeros(4)
    e1[0] = 1.0
    assert (jmat @ e1).tolist() == [0.0, 0.0, 1.0, 0.0]
    f1 = np.zeros(4)
    f1[2] = 1.0
    assert (jmat @ f1).tolist() == [-1.0, 0.0, 0.0, 0.0]


def test_kahler_form_matches_metric_contraction(cfg2):
    jmat = standard_complex_structure(cfg2).entries
    omega = kahler_form(cfg2).entries
    g = metric(cfg2).entries
    assert np.array_equal(omega, g @ jmat)


# -- construction and validation ----------------------------------------------

def test_tensor4_rejects_nonfinite(cfg2):
    bad = np.zeros((4, 4, 4, 4))
    bad[0, 0, 0, 0] = np.nan
    with pytest.raises(ValueError, match="finite"):
        Tensor4(cfg2, bad)


def test_tensor4_entries_are_read_only(cfg2):
    tensor = Tensor4.zero(cfg2)
    with pytest.raises(ValueError):
        tensor.entries[0, 0, 0, 0] = 1.0


def test_space_config_requires_positive_m_bar():
    with pytest.raises(ValueError):
        SpaceConfig(0)


# -- classify_symmetries -------------------------------------------------------

def test_zero_tensor_satisfies_everything(cfg2):
    report = classify_symmetries(Tensor4.zero(cfg2))
    assert report.in_K
    assert all(v == 0.0 for v in report.violations.values())
    assert all(report.flags.values())


def test_single_entry_breaks_antisymmetry(cfg2):
    entries = np.zeros((4, 4, 4, 4))
    entries[0, 0, 0, 0] = 1.0
    tensor = Tensor4(cfg2, entries)
    report = classify_symmetries(tensor)
    assert not report.flags["antisym12"]
    assert report.violations["antisym12"] == 2.0
    assert report.violations["antisym12"] == oracle_antisym12_violation(entries)
    assert not report.in_K
    assert report.first_violated_k_identity() == "antisym12"


def test_random_kahler_tensor_is_in_k(cfg2, rng):
    tensor = random_kahler_tensor(cfg2, rng)
    report = classify_symmetries(tensor, tol=1e-12)
    assert report.in_K


def test_operator_identity_consistent_with_lowered(cfg2, rng):
    # The two independent computations of the J-commutation residual agree
    # (up to the exact factor structure) on random input.
    tensor = Tensor4(cfg2, rng.standard_normal((4, 4, 4, 4)))
    report = classify_symmetries(tensor)
    flag_gap = report.flags["kahler_last2_1h"] == report.flags["kahler_operator_1i"]
    assert flag_gap


# -- traces ---------------------------------------------------------------------

def test_traces_match_loop_oracle(cfg2, rng):
    tensor = Tensor4(cfg2, rng.standard_normal((4, 4, 4, 4)))
    traces = ricci_traces(tensor)
    assert np.allclose(traces.rho13.entries, oracle_rho13(tensor.entries), atol=1e-13)
    assert np.allclose(traces.rho14.entries, oracle_rho14(tensor.entries), atol=1e-13)
    assert traces.tau == pytest.approx(np.trace(oracle_rho14(tensor.entries)), abs=1e-12)
    jmat = standard_complex_structure(cfg2).entries
    tilde = sum(
        (jmat @ np.eye(4)[:, b]) @ oracle_rho14(tensor.entries) @ np.eye(4)[:, b]
        for b in range(4)
    )
    assert traces.tau_tilde_j == pytest.approx(tilde, abs=1e-12)


def test_zero_tensor_traces_vanish(cfg3):
    traces = ricci_traces(Tensor4.zero(cfg3))
    assert traces.tau == 0.0 and traces.tau_tilde_j == 0.0
    assert traces.rho13.norm() == 0.0 and traces.rho14.norm() == 0.0


@pytest.mark.parametrize("m_bar", [2, 3, 4])
def test_stacked_trace_maps_equal_ricci_traces_exactly(m_bar, rng):
    config = SpaceConfig(m_bar)
    m = config.m
    scales = 10.0 ** rng.integers(-6, 7, size=(2, 3, 1, 1, 1, 1))
    stack = rng.standard_normal((2, 3, m, m, m, m)) * scales
    rho13, rho14 = rho13_of(stack), rho14_of(stack)
    tau, tau_tilde = scalar_traces(rho14, config)
    for idx in np.ndindex(2, 3):
        traces = ricci_traces(Tensor4(config, stack[idx]))
        assert np.array_equal(rho13[idx], traces.rho13.entries)
        assert np.array_equal(rho14[idx], traces.rho14.entries)
        assert tau[idx] == traces.tau
        assert tau_tilde[idx] == traces.tau_tilde_j


def test_trace_maps_of_empty_stack_are_empty(cfg3):
    m = cfg3.m
    rho14 = rho14_of(np.zeros((0, m, m, m, m)))
    tau, tau_tilde = scalar_traces(rho14, cfg3)
    assert rho13_of(np.zeros((0, m, m, m, m))).shape == (0, m, m)
    assert rho14.shape == (0, m, m)
    assert tau.shape == (0,) and tau_tilde.shape == (0,)


def test_rho13_j_invariance_on_k(cfg2, rng):
    jmat = standard_complex_structure(cfg2).entries
    for _ in range(10):
        tensor = random_kahler_tensor(cfg2, rng)
        rho13 = ricci_traces(tensor).rho13.entries
        assert np.allclose(jmat.T @ rho13 @ jmat, rho13, atol=1e-12)


def test_tau_equals_minus_rho13_trace_on_k(cfg2, rng):
    for _ in range(10):
        tensor = random_kahler_tensor(cfg2, rng)
        traces = ricci_traces(tensor)
        assert traces.tau == pytest.approx(-np.trace(traces.rho13.entries), abs=1e-12)


# -- parity split ----------------------------------------------------------------

def test_parity_split_reconstructs_and_is_idempotent(cfg2, rng):
    tensor = random_kahler_tensor(cfg2, rng)
    plus, minus = j_parity_split(tensor)
    # reconstruction is one-ulp exact for generic floats (each half rounds once)
    gap = plus.entries + minus.entries - tensor.entries
    assert np.max(np.abs(gap)) <= 4 * np.finfo(float).eps * max(1.0, tensor.norm())
    # the eigen-properties hold with no error at all
    conj_plus = apply_j_slots(plus.entries, cfg2, (0, 1, 2, 3))
    conj_minus = apply_j_slots(minus.entries, cfg2, (0, 1, 2, 3))
    assert np.array_equal(conj_plus, plus.entries)
    assert np.array_equal(conj_minus, -minus.entries)
    replus, reminus = j_parity_split(plus)
    assert np.array_equal(replus.entries, plus.entries)
    assert reminus.norm() == 0.0
    # Pythagoras under the Frobenius norm
    assert tensor.norm() ** 2 == pytest.approx(plus.norm() ** 2 + minus.norm() ** 2, rel=1e-12)
    # both parts stay admissible
    assert classify_symmetries(plus, tol=1e-12).in_K
    assert classify_symmetries(minus, tol=1e-12).in_K


def test_parity_split_rejects_non_k(cfg2):
    entries = np.zeros((4, 4, 4, 4))
    entries[0, 0, 0, 0] = 1.0
    with pytest.raises(DomainViolation, match="antisym12"):
        j_parity_split(Tensor4(cfg2, entries))


def test_zero_tensor_splits_to_zero(cfg2):
    plus, minus = j_parity_split(Tensor4.zero(cfg2))
    assert plus.norm() == 0.0 and minus.norm() == 0.0


# -- operator view -----------------------------------------------------------------

def test_apply_as_operator_reads_a_row(cfg2, rng):
    tensor = Tensor4(cfg2, rng.standard_normal((4, 4, 4, 4)))
    vec = apply_as_operator(tensor, 1, 2, 3)
    for d in range(4):
        assert vec[d] == tensor.entries[1, 2, 3, d]


def test_apply_as_operator_zero_tensor(cfg2):
    assert apply_as_operator(Tensor4.zero(cfg2), 0, 1, 2).tolist() == [0.0] * 4


def test_apply_as_operator_rejects_bad_index(cfg2):
    with pytest.raises(ValueError, match="out of range"):
        apply_as_operator(Tensor4.zero(cfg2), 0, 4, 0)


# -- the signed gather table against the einsum oracle ----------------------------

def k_samples(config: SpaceConfig, rng: np.random.Generator) -> list[Tensor4]:
    """Random elements of K, K+ and K-; below the decomposition's smallest size
    (m_bar = 1) they come from the nullspace route."""
    if config.m_bar == 1:
        return [
            Tensor4.from_flat(config, rng.standard_normal(space.dim) @ space.basis)
            for space in nullspace_route_spaces(1)
        ]
    return [
        random_kahler_tensor(config, rng),
        random_parity_tensor(config, rng, "plus"),
        random_parity_tensor(config, rng, "minus"),
    ]


def assert_matches_oracle(tensor: Tensor4) -> None:
    violations = classify_symmetries(tensor).violations
    assert violations == symmetry_violations(tensor.entries, tensor.config)
    k_violations = k_identity_violations(tensor.entries, tensor.config)
    assert {name: violations[name] for name in K_IDENTITIES} == k_violations


@pytest.mark.parametrize("m_bar", [1, 2, 3, 4])
def test_gather_table_rows_are_signed_permutations(m_bar):
    table = gather_table(m_bar)
    n = (2 * m_bar) ** 4
    assert table.shape == (len(GATHER_ROWS), n)
    assert table.min() >= 0 and table.max() < 2 * n  # the sign is which half is read
    for row in table:
        assert np.array_equal(np.sort(row % n), np.arange(n))


@pytest.mark.parametrize("m_bar", [1, 2, 3])
def test_each_gather_row_is_its_definition(m_bar, rng):
    config = SpaceConfig(m_bar)
    m = config.m
    entries = rng.standard_normal((m, m, m, m))
    jmat = standard_complex_structure(config).entries
    rows = dict(zip(GATHER_ROWS, signed_gather(entries.reshape(-1), gather_table(m_bar))))
    for name, row in rows.items():
        if name == "rj":
            want = np.einsum("absd,sc->abcd", entries, jmat)
        elif name == "jr":
            want = np.einsum("ds,abcs->abcd", jmat, entries)
        elif name.startswith("j"):
            want = apply_j_slots(entries, config, tuple(map(int, name[1:])))
        else:
            want = np.einsum(f"{name}->abcd", entries)
        assert np.array_equal(row, want.reshape(-1)), name


@pytest.mark.parametrize("m_bar", [1, 2, 3, 4])
def test_classify_symmetries_equals_the_einsum_oracle(m_bar, rng):
    config = SpaceConfig(m_bar)
    m = config.m
    tensors = [Tensor4.zero(config), Tensor4(config, rng.standard_normal((m, m, m, m)))]
    for position in ((0, 0, 0, 0), (0, m - 1, 1, m // 2), tuple(rng.integers(0, m, size=4))):
        single = np.zeros((m, m, m, m))
        single[position] = 1.0
        tensors.append(Tensor4(config, single))
    tensors += k_samples(config, rng)
    for tensor in tensors:
        assert_matches_oracle(tensor)


@pytest.mark.parametrize("path", sorted(FIXTURES.glob("tensor_*.json")), ids=lambda path: path.name)
def test_classify_symmetries_equals_the_einsum_oracle_on_fixtures(path):
    assert_matches_oracle(read_tensor_file(path))


@given(
    m_bar=st.integers(min_value=1, max_value=4),
    exponent=st.floats(min_value=-12.0, max_value=12.0),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_classify_symmetries_equals_the_einsum_oracle_at_every_scale(m_bar, exponent, seed):
    config = SpaceConfig(m_bar)
    m = config.m
    rng = np.random.default_rng(seed)
    scale = 10.0**exponent
    for tensor in [Tensor4(config, rng.standard_normal((m, m, m, m)))] + k_samples(config, rng):
        assert_matches_oracle(tensor * scale)


@pytest.mark.parametrize("m_bar", [1, 2, 3])
def test_per_size_j_data_is_built_once_and_read_only(m_bar):
    config = SpaceConfig(m_bar)
    perm, signs = config.j_action()
    assert SpaceConfig(m_bar).j_action()[0] is perm
    jmat = standard_complex_structure(config)
    assert standard_complex_structure(SpaceConfig(m_bar)) is jmat
    assert kahler_form(SpaceConfig(m_bar)) is jmat
    for arr in (perm, signs, jmat.entries, gather_table(m_bar)):
        with pytest.raises(ValueError):
            arr[(0,) * arr.ndim] = 0


@pytest.mark.parametrize("m_bar", [2, 3, 4])
def test_parity_parts_equal_the_slot_by_slot_conjugation(m_bar, rng):
    config = SpaceConfig(m_bar)
    m = config.m
    gaussian = Tensor4(config, rng.standard_normal((m, m, m, m)))
    for tensor in k_samples(config, rng) + [gaussian * 1e-9, Tensor4.zero(config)]:
        conj = apply_j_slots(tensor.entries, config, (0, 1, 2, 3))
        plus, minus = _parity_parts(tensor)
        assert plus.entries.tobytes() == ((tensor.entries + conj) / 2.0).tobytes()
        assert minus.entries.tobytes() == ((tensor.entries - conj) / 2.0).tobytes()
        odd = float(np.linalg.norm((tensor.entries - conj) / 2.0))
        even = float(np.linalg.norm((tensor.entries + conj) / 2.0))
        assert j_parity_residuals(tensor) == (odd, even)
