import re

import numpy as np
import pytest

from qdissonance import qla
from qdissonance import (
    DensityMatrix,
    DomainError,
    PureState,
    partial_trace,
    projector,
    tensor,
    trace_distance,
    werner,
    witness_report,
)

from _zoo import build_zoo

SEED = 7001


def test_density_matrix_validation():
    rho = DensityMatrix(np.eye(2) / 2)
    assert rho.legs == (2,)
    assert rho.dim == 2
    with pytest.raises(DomainError):
        DensityMatrix(np.array([[0.5, 0.3], [0.1, 0.5]]))  # not Hermitian
    with pytest.raises(DomainError):
        DensityMatrix(np.eye(2))  # trace 2
    with pytest.raises(DomainError):
        DensityMatrix(np.diag([1.5, -0.5]))  # negative eigenvalue
    with pytest.raises(DomainError):
        DensityMatrix(np.eye(4) / 4, legs=(2, 3))  # legs do not multiply out
    with pytest.raises(DomainError):
        DensityMatrix(np.eye(1), legs=(2**63 - 1, 2**63 - 1))  # product exceeds int64
    with pytest.raises(DomainError):
        DensityMatrix(np.full((2, 2), np.nan))
    # fractional legs are refused, not truncated to (2, 2); numpy integers pass
    with pytest.raises(DomainError, match="leg must be an integer"):
        DensityMatrix(np.eye(4) / 4, (2.9, 2.2))
    assert DensityMatrix(np.eye(4) / 4, (np.int64(2), np.int32(2))).legs == (2, 2)


def test_density_matrix_keeps_its_spectrum():
    for name, rho, _ in build_zoo():
        assert np.array_equal(rho.eigenvalues, np.linalg.eigvalsh(rho.matrix)), name
        with pytest.raises(ValueError):
            rho.eigenvalues[0] = 0.0
    assert "eigenvalues" not in repr(DensityMatrix(np.eye(2) / 2))


def test_from_factor_is_the_gram_product():
    """rho = weight * sum_t F_t F_t^dagger, with the spectrum of weight * F^dagger F."""
    rng = np.random.default_rng(SEED + 3)
    for terms, d, r in ((1, 4, 2), (3, 4, 1), (2, 4, 3), (1, 6, 6)):
        f = rng.standard_normal((terms, d, r)) + 1j * rng.standard_normal((terms, d, r))
        weight = 1.0 / float((np.abs(f) ** 2).sum())
        rho = DensityMatrix.from_factor(f, (2, d // 2), weight)
        expect = weight * sum(t @ t.conj().T for t in f)
        assert np.abs(rho.matrix - expect).max() <= 1e-15
        assert np.array_equal(rho.matrix, rho.matrix.conj().T)
        assert np.abs(rho.eigenvalues - np.linalg.eigvalsh(rho.matrix)).max() <= 1e-15
        assert rho.eigenvalues.shape == (d,) and rho.legs == (2, d // 2)
        assert not rho.matrix.flags.writeable and not rho.eigenvalues.flags.writeable
    for f, weight in ((np.ones((1, 2, 1)), 1.0), (np.ones((1, 2, 1)) / np.sqrt(2), np.nan)):
        with pytest.raises(DomainError, match="trace"):
            DensityMatrix.from_factor(f, (2,), weight)
    with pytest.raises(DomainError, match="shape"):
        DensityMatrix.from_factor(np.ones((2, 1)) / np.sqrt(2), (2,))
    with pytest.raises(DomainError):
        DensityMatrix.from_factor(np.ones((1, 4, 1)) / 2, (2, 3))
    with pytest.raises(DomainError):
        DensityMatrix.from_factor(np.full((1, 2, 1), np.nan), (2,))


def test_density_matrix_is_frozen():
    rho = DensityMatrix(np.eye(2) / 2)
    assert not rho.matrix.flags.writeable
    assert rho.purity() == pytest.approx(0.5)


def test_array_records_compare_by_identity():
    # records holding arrays answer ==, in and hash instead of raising
    for make in (lambda: werner(0.2), lambda: witness_report(werner(0.2))):
        a, b = make(), make()
        assert a == a and a != b
        assert a in [b, a] and a not in [b]
        assert len({a, b, a}) == 2


def test_pure_state_validation():
    v = PureState(np.array([1.0, 0.0]))
    assert v.legs == (2,)
    with pytest.raises(DomainError):
        PureState(np.array([1.0, 1.0]))  # norm sqrt(2)
    half = PureState(np.array([0.5, 0.0]), normalized=False)
    assert half.norm() == pytest.approx(0.5)
    with pytest.raises(DomainError):
        PureState(np.eye(2))  # not 1-D


def test_projector():
    p = projector(PureState(np.array([1.0, 0.0])))
    assert np.allclose(p.matrix, np.diag([1.0, 0.0]))
    with pytest.raises(DomainError):
        projector(PureState(np.array([0.5, 0.0]), normalized=False))


def test_tensor_types_and_legs():
    a = DensityMatrix(np.diag([1.0, 0.0]))
    b = DensityMatrix(np.diag([0.0, 1.0]))
    ab = tensor(a, b)
    assert ab.legs == (2, 2)
    assert np.allclose(ab.matrix, np.diag([0.0, 1.0, 0.0, 0.0]))
    # only two DensityMatrix: pure states, plain arrays and mixed pairs are refused
    u = PureState(np.array([1.0, 0.0]))
    for x, y in ((a, u), (u, u), (np.eye(2), np.eye(2)), (a, a.matrix)):
        with pytest.raises(DomainError, match="tensor requires two DensityMatrix"):
            tensor(x, y)


def test_derived_states_are_not_rechecked():
    """Inputs accepted at trace or norm 1 + 0.9e-12 give products at 1 + 1.8e-12:
    the inputs' residual, which is not a new fault."""
    a = DensityMatrix(np.diag([0.5, 0.5 + 0.9e-12]))
    ab = tensor(a, a)
    assert ab.legs == (2, 2)
    assert np.array_equal(ab.matrix, np.kron(a.matrix, a.matrix))
    assert np.array_equal(ab.eigenvalues, np.linalg.eigvalsh(ab.matrix))
    s = PureState(np.array([0.6, 0.8]) * (1.0 + 0.9e-12))
    p = projector(s)
    assert np.array_equal(p.matrix, np.outer(s.vector, s.vector))
    assert abs(np.trace(p.matrix) - (1.0 + 1.8e-12)) < 1e-15


def test_partial_trace():
    rng = np.random.default_rng(SEED + 1)
    ga = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    gb = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    a = ga @ ga.conj().T
    b = gb @ gb.conj().T
    a /= np.trace(a).real
    b /= np.trace(b).real
    ab = DensityMatrix(np.kron(a, b), (2, 3))
    assert np.abs(partial_trace(ab, (1,)).matrix - a).max() < 1e-14
    assert np.abs(partial_trace(ab, (0,)).matrix - b).max() < 1e-14
    with pytest.raises(DomainError):
        partial_trace(ab, (0, 1))
    with pytest.raises(DomainError):
        partial_trace(ab, (5,))
    # a fractional index is refused, not truncated to leg 0
    with pytest.raises(DomainError, match="discard index must be an integer"):
        partial_trace(werner(0.2), (0.7,))
    assert partial_trace(ab, (np.int64(1),)).legs == (2,)


def test_partial_trace_multi_leg():
    # tracing legs one at a time agrees with tracing them together
    rng = np.random.default_rng(SEED + 2)
    g = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    m = g @ g.conj().T
    rho = DensityMatrix(m / np.trace(m).real, (2, 2, 2))
    both = partial_trace(rho, (0, 2))
    stepwise = partial_trace(partial_trace(rho, (2,)), (0,))
    assert np.abs(both.matrix - stepwise.matrix).max() < 1e-14
    assert both.legs == (2,)


def test_trace_distance():
    w0 = werner(0.0)
    w1 = werner(1.0)
    assert trace_distance(w0, w0) == 0.0
    assert trace_distance(w0, w1) == pytest.approx(0.75, abs=1e-12)
    assert trace_distance(w1, w0) == pytest.approx(trace_distance(w0, w1))
    with pytest.raises(DomainError):
        trace_distance(w0, DensityMatrix(np.eye(2) / 2))


# Every threshold of the package, pinned by name and value.
PINNED_TOLERANCES = {
    "HERMITICITY_TOL": 1e-12,
    "TRACE_TOL": 1e-12,
    "PSD_TOL": -1e-10,
    "NORM_TOL": 1e-12,
    "ISOMETRY_TOL": 1e-10,
    "PHASE_EQ_TOL": 1e-10,
    "PRODUCT_RECONSTRUCTION_TOL": 1e-10,
    "PHASE_REF_CUTOFF": 1e-8,
    "ORTHOGONALITY_TOL": 1e-8,
    "TARGET_DISTANCE_TOL": 1e-10,
    "PROB_CUTOFF": 1e-14,
    "CORRELATION_SIGN_TOL": 1e-8,
    "TOTAL_SIGN_TOL": 1e-10,
    "NEWTON_TOL": 1e-8,
    "CURVATURE_CUTOFF": 1e-6,
    "NEWTON_ITER_CAP": 30.0,
    "DIFFERENCE_STEP": 1e-4,
    "FLAT_SPREAD_TOL": 64 * 2.0**-52,
    "SPHERE_TOL": 16 * 2.0**-52,
    "SCAN_SCREEN_TOL": 1e-4,
    "ZERO_DISCORD_TOL": 16 * 2.0**-52,
    "POLE_CUTOFF": 1e-15,
    "RANK_TOL": 1e-10,
    "COMMUTATOR_TOL": 1e-9,
    "SCHMIDT_RECONSTRUCTION_TOL": 1e-9,
    "ENTANGLEMENT_FLOOR": 16 * 2.0**-52,
}


def test_tolerance_table_pinned():
    table = {
        name: value
        for name, value in vars(qla).items()
        if re.fullmatch(r"[A-Z][A-Z_]*_(TOL|CUTOFF|FLOOR|CAP|STEP)", name)
    }
    assert table.keys() == PINNED_TOLERANCES.keys()
    for name, value in table.items():
        assert float(value).hex() == PINNED_TOLERANCES[name].hex(), name
