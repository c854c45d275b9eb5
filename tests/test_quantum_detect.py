import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import keysec
from helpers import random_distribution, trace_product_batch
from keysec import (DensityMatrix, Povm, helstrom_min_error,
                    measured_distance, overlap, statistical_distance,
                    trace_distance_q)


def random_density(rng, dim):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    return DensityMatrix(rho / np.trace(rho).real)


def random_two_outcome_povm(rng, dim):
    h = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    h = 0.5 * (h + h.conj().T)
    eigs, vecs = np.linalg.eigh(h)
    span = eigs.max() - eigs.min()
    scaled = (eigs - eigs.min()) / (span if span > 0 else 1.0)
    effect = (vecs * scaled) @ vecs.conj().T
    return Povm([effect, np.eye(dim) - effect])


def bloch_vector(rho):
    m = rho.mat
    return np.array([2 * m[0, 1].real, -2 * m[0, 1].imag,
                     (m[0, 0] - m[1, 1]).real])


def fibonacci_directions(count):
    idx = np.arange(count) + 0.5
    phi = np.pi * (1 + 5 ** 0.5) * idx
    z = 1 - 2 * idx / count
    r = np.sqrt(np.maximum(0.0, 1 - z * z))
    return np.stack([r * np.cos(phi), r * np.sin(phi), z], axis=1)


def cap_directions(center, radius, count):
    idx = np.arange(count) + 0.5
    phi = np.pi * (1 + 5 ** 0.5) * idx
    z = 1 - (1 - np.cos(radius)) * idx / count
    r = np.sqrt(np.maximum(0.0, 1 - z * z))
    local = np.stack([r * np.cos(phi), r * np.sin(phi), z], axis=1)
    # orthonormal frame with third axis = center
    axis = np.array([1.0, 0.0, 0.0])
    if abs(center @ axis) > 0.9:
        axis = np.array([0.0, 1.0, 0.0])
    u = np.cross(center, axis)
    u /= np.linalg.norm(u)
    v = np.cross(center, u)
    return local @ np.stack([u, v, center])


def helstrom_sweep_oracle(rho1, rho2, directions=10**4):
    """Minimum error over a 10^4-direction sweep of projective measurements.

    For each Bloch direction the two outcome probabilities are
    Tr(rho P+-) = (1 +- n.r)/2; the error takes the better labeling.
    Equal priors only.  A coarse global pass is followed by a fine pass
    in a small cap around the best coarse direction.
    """
    w = 0.5 * (bloch_vector(rho1) - bloch_vector(rho2))

    def sweep_error(dirs):
        return 0.5 * (1.0 - np.abs(dirs @ w))

    coarse = fibonacci_directions(directions // 2)
    errors = sweep_error(coarse)
    best = coarse[np.argmin(errors)]
    norm = np.linalg.norm(best)
    if norm == 0.0:
        return float(errors.min())
    fine = cap_directions(best / norm, 0.08, directions - directions // 2)
    return float(min(errors.min(), sweep_error(fine).min()))


class TestDensityMatrix:
    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            DensityMatrix([[0.5, 0.4], [0.1, 0.5]])

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(ValueError, match="eigenvalue"):
            DensityMatrix([[1.2, 0.0], [0.0, -0.2]])

    def test_rejects_bad_trace(self):
        with pytest.raises(ValueError, match="trace"):
            DensityMatrix(np.eye(2))

    def test_rejects_large_dimension(self):
        with pytest.raises(ValueError, match="capped"):
            DensityMatrix(np.eye(32) / 32)

    def test_rejects_zero_dimension(self):
        with pytest.raises(ValueError, match="matrix dimension must be >= 1"):
            DensityMatrix(np.zeros((0, 0)))

    def test_pure_state_normalizes(self):
        rho = DensityMatrix.pure([3.0, 4.0])
        assert np.trace(rho.mat).real == pytest.approx(1.0, abs=1e-12)
        assert rho.mat[0, 0].real == pytest.approx(0.36, abs=1e-12)

    @pytest.mark.parametrize("vector, like", [
        ([1e-200, 1e-200], [1, 1]), ([1e154, 1e154], [1, 1]),
        ([1e200, 1e200], [1, 1]), ([5e-324, 0], [1, 0]), ([3e-162, 0], [1, 0])])
    def test_pure_state_of_extreme_moduli(self, vector, like):
        # squared norms below or above the float range
        got = DensityMatrix.pure(vector).mat
        assert got.tobytes() == DensityMatrix.pure(like).mat.tobytes()

    def test_bad_trace_prints_a_plain_float(self):
        with pytest.raises(ValueError, match=r"^trace 2\.0 differs from 1$"):
            DensityMatrix(np.eye(2))

    @pytest.mark.parametrize("vector", [np.eye(2), 1.0], ids=["2-D", "0-D"])
    def test_pure_state_vector_must_be_1d(self, vector):
        with pytest.raises(ValueError, match="state vector must be 1-D"):
            DensityMatrix.pure(vector)

    def test_pure_rejects_zero_vector(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="state vector must be nonzero"):
                DensityMatrix.pure([0, 0])

    @pytest.mark.parametrize("vector", [[float("inf"), 0.0], [float("nan"), 1.0]])
    def test_pure_rejects_non_finite_vector(self, vector):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="non-finite"):
                DensityMatrix.pure(vector)

    @pytest.mark.parametrize("entries", [[[1.0, 0.0, 0.0]], [1.0]])
    def test_rejects_non_square(self, entries):
        with pytest.raises(ValueError, match="density matrix must be square"):
            DensityMatrix(entries)

    def test_stores_the_exact_hermitian_part(self):
        m = np.array([[0.6, 0.2 + 1e-12], [0.2, 0.4]], dtype=complex)
        rho = DensityMatrix(m)
        assert np.array_equal(rho.mat, 0.5 * (m + m.conj().T))
        assert not rho.mat.flags.writeable

    def test_bloch_norm_checked(self):
        with pytest.raises(ValueError, match="Bloch vector must have norm"):
            DensityMatrix.from_bloch(1.0, 1.0, 0.0)

    def test_bloch_construction(self):
        rho = DensityMatrix.from_bloch(0.0, 0.0, 1.0)
        assert rho.mat[0, 0].real == pytest.approx(1.0)
        with pytest.raises(ValueError):
            DensityMatrix.from_bloch(1.0, 1.0, 1.0)


class TestPovm:
    def test_must_sum_to_identity(self):
        with pytest.raises(ValueError, match="identity"):
            Povm([np.eye(2) * 0.5])

    def test_elements_must_be_psd(self):
        bad = np.array([[1.5, 0.0], [0.0, -0.5]])
        with pytest.raises(ValueError, match="positive"):
            Povm([bad, np.eye(2) - bad])

    def test_non_psd_message_names_element(self):
        bad = np.array([[1.5, 0.0], [0.0, -0.5]])
        with pytest.raises(ValueError, match="POVM element is not positive"):
            Povm([bad, np.eye(2) - bad])

    def test_every_element_of_the_stack_checked(self):
        skew = np.array([[0.0, 1e-6], [0.0, 0.0]])
        with pytest.raises(ValueError, match="POVM element is not Hermitian"):
            Povm([np.diag([1.0, 0.0]), np.diag([0.0, 1.0]) + skew, -skew])

    def test_elements_stored_as_given_in_private_copies(self):
        # an anti-Hermitian part within tolerance is kept, not symmetrized
        e = np.array([[0.5, 1e-12j], [0.0, 0.5]])
        povm = Povm([e, np.eye(2) - e])
        e[0, 0] = 9.0
        assert povm.elements[0].tolist() == [[0.5, 1e-12j], [0.0, 0.5]]
        assert povm.elements[1].tolist() == [[0.5, -1e-12j], [0.0, 0.5]]

    def test_elements_are_read_only(self):
        povm = Povm([np.diag(r) for r in np.eye(2)])
        with pytest.raises(ValueError, match="read-only"):
            povm.elements[0][0, 0] = 5.0
        assert measured_distance(DensityMatrix(np.eye(2) / 2),
                                 DensityMatrix([[1, 0], [0, 0]]), povm) == 0.5

    def test_rejects_large_dimension(self):
        with pytest.raises(ValueError, match="capped"):
            Povm([np.eye(17)])

    def test_elements_share_one_dimension(self):
        with pytest.raises(ValueError, match="share one dimension"):
            Povm([np.eye(2), np.eye(3)])

    def test_outcome_probabilities_check_the_state_dimension(self):
        with pytest.raises(ValueError, match="state dim 3 vs POVM dim 2"):
            Povm([np.diag(r) for r in np.eye(2)]).outcome_probabilities(
                DensityMatrix(np.eye(3) / 3))

    def test_rejects_empty_element(self):
        with pytest.raises(ValueError, match="element dimension must be >= 1"):
            Povm([np.zeros((0, 0))])

    @pytest.mark.parametrize("elements", [[], np.zeros((0, 2, 2))],
                             ids=["list", "stack"])
    def test_needs_an_element(self, elements):
        with pytest.raises(ValueError,
                           match="a measurement needs at least one element"):
            Povm(elements)

    def test_stack_of_elements_same_as_list(self):
        e = np.array([[0.75, 0.25j], [-0.25j, 0.25]])
        elements = [e, np.eye(2) - e]
        listed, stacked = Povm(elements), Povm(np.stack(elements))
        rho = DensityMatrix.from_bloch(0.3, -0.2, 0.5)
        assert np.array_equal(stacked.outcome_probabilities(rho),
                              listed.outcome_probabilities(rho))

    def test_outcome_probabilities_sum_to_one(self):
        rng = np.random.default_rng(8)
        rho = random_density(rng, 3)
        povm = random_two_outcome_povm(rng, 3)
        probs = povm.outcome_probabilities(rho)
        assert probs.sum() == pytest.approx(1.0, abs=1e-10)
        assert np.all(probs >= -1e-10)


@pytest.mark.parametrize("value", [
    DensityMatrix(np.eye(2) / 2), Povm([np.diag(r) for r in np.eye(2)])],
    ids=["state", "povm"])
def test_no_attributes_beyond_slots(value):
    with pytest.raises(AttributeError):
        value.extra = 1


@pytest.mark.parametrize("fn", [
    lambda r, s: helstrom_min_error(r, s, 0.5),
    lambda r, s: measured_distance(
        r, s, Povm([np.diag(row) for row in np.eye(2)])),
    overlap], ids=["helstrom_min_error", "measured_distance", "overlap"])
def test_dimensions_must_agree(fn):
    with pytest.raises(ValueError, match="dimension mismatch: 2 vs 3"):
        fn(DensityMatrix(np.eye(2) / 2), DensityMatrix(np.eye(3) / 3))


class TestTraceDistance:
    def test_identical_states(self):
        rho = DensityMatrix(np.eye(4) / 4)
        assert trace_distance_q(rho, rho) == 0.0

    def test_orthogonal_pure_states(self):
        zero = DensityMatrix.pure([1.0, 0.0])
        one = DensityMatrix.pure([0.0, 1.0])
        assert trace_distance_q(zero, one) == pytest.approx(1.0, abs=1e-12)

    def test_classical_embedding(self):
        rng = np.random.default_rng(12)
        for bits in (1, 2):
            p = random_distribution(rng, bits)
            q = random_distribution(rng, bits)
            assert trace_distance_q(DensityMatrix.diagonal(p),
                                    DensityMatrix.diagonal(q)) == pytest.approx(
                statistical_distance(p, q), abs=1e-10)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            trace_distance_q(DensityMatrix(np.eye(2) / 2),
                             DensityMatrix(np.eye(4) / 4))

    def test_metric_properties(self):
        rng = np.random.default_rng(44)
        for _ in range(100):
            a, b, c = (random_density(rng, 3) for _ in range(3))
            dab = trace_distance_q(a, b)
            assert 0.0 <= dab <= 1.0
            assert dab == pytest.approx(trace_distance_q(b, a), abs=1e-12)
            assert trace_distance_q(a, c) <= dab + trace_distance_q(b, c) + 1e-9
            assert trace_distance_q(a, a) <= 1e-9


class TestHelstrom:
    def test_identical_states_coin_flip(self):
        rho = DensityMatrix(np.eye(2) / 2)
        assert helstrom_min_error(rho, rho, 0.5) == pytest.approx(0.5, abs=1e-12)

    def test_orthogonal_states_no_error(self):
        zero = DensityMatrix.pure([1.0, 0.0])
        one = DensityMatrix.pure([0.0, 1.0])
        assert helstrom_min_error(zero, one, 0.5) == pytest.approx(0.0, abs=1e-12)

    def test_equal_prior_relation_to_trace_distance(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            a, b = random_density(rng, 2), random_density(rng, 2)
            assert helstrom_min_error(a, b, 0.5) == pytest.approx(
                0.5 * (1 - trace_distance_q(a, b)), abs=1e-12)

    def test_prior_validation(self):
        rho = DensityMatrix(np.eye(2) / 2)
        with pytest.raises(ValueError, match="prior"):
            helstrom_min_error(rho, rho, 1.2)

    def test_matches_measurement_sweep(self):
        rng = np.random.default_rng(202)
        worst = 0.0
        for _ in range(40):
            a, b = random_density(rng, 2), random_density(rng, 2)
            formula = helstrom_min_error(a, b, 0.5)
            swept = helstrom_sweep_oracle(a, b)
            assert swept >= formula - 1e-12  # no measurement beats the bound
            worst = max(worst, abs(swept - formula))
        assert worst <= 1e-4

    def test_range_for_equal_priors(self):
        rng = np.random.default_rng(66)
        for _ in range(100):
            a, b = random_density(rng, 3), random_density(rng, 3)
            e = helstrom_min_error(a, b, 0.5)
            assert 0.0 <= e <= 0.5 + 1e-12

    @given(st.integers(2, 8), st.integers(0, 2 ** 32 - 1),
           st.sampled_from([0.5, 0.3]) | st.floats(0, 1))
    def test_orthogonal_pure_states_stay_in_range(self, dim, seed, prior):
        # the trace norm of orthogonal states rounds to either side of 2
        rng = np.random.default_rng(seed)
        v, w = rng.normal(size=(2, dim)) + 1j * rng.normal(size=(2, dim))
        w -= (v.conj() @ w) / (v.conj() @ v) * v
        rho, sigma = DensityMatrix.pure(v), DensityMatrix.pure(w)
        assert 0.0 <= trace_distance_q(rho, sigma) <= 1.0
        assert 0.0 <= helstrom_min_error(rho, sigma, prior) <= 0.5

    def test_classical_embedding(self):
        rng = np.random.default_rng(14)
        p = random_distribution(rng, 2)
        q = random_distribution(rng, 2)
        quantum = helstrom_min_error(DensityMatrix.diagonal(p),
                                     DensityMatrix.diagonal(q), 0.5)
        assert quantum == pytest.approx(
            0.5 * (1 - statistical_distance(p, q)), abs=1e-10)


class TestMeasuredDistance:
    def test_trivial_povm_sees_nothing(self):
        rng = np.random.default_rng(1)
        a, b = random_density(rng, 3), random_density(rng, 3)
        assert measured_distance(a, b, Povm([np.eye(3)])) == 0.0

    def test_computational_basis_on_diagonal_states(self):
        rng = np.random.default_rng(2)
        p = random_distribution(rng, 2)
        q = random_distribution(rng, 2)
        m = Povm([np.diag(r) for r in np.eye(4)])
        assert measured_distance(DensityMatrix.diagonal(p),
                                 DensityMatrix.diagonal(q), m) == pytest.approx(
            statistical_distance(p, q), abs=1e-12)

    def test_never_exceeds_trace_distance(self):
        rng = np.random.default_rng(303)
        for _ in range(300):
            dim = int(rng.integers(2, 5))
            a, b = random_density(rng, dim), random_density(rng, dim)
            m = random_two_outcome_povm(rng, dim)
            assert measured_distance(a, b, m) <= \
                trace_distance_q(a, b) + 1e-10


class TestOverlap:
    def test_identical_pure_states(self):
        psi = DensityMatrix.pure([1.0, 1.0])
        assert overlap(psi, psi) == pytest.approx(1.0, abs=1e-12)

    def test_maximally_mixed_pair(self):
        # the same state twice, yet the overlap is 1/2: this number is not
        # a sameness probability
        mixed = DensityMatrix(np.eye(2) / 2)
        assert overlap(mixed, mixed) == pytest.approx(0.5, abs=1e-12)

    def test_orthogonal_states(self):
        zero = DensityMatrix.pure([1.0, 0.0])
        one = DensityMatrix.pure([0.0, 1.0])
        assert overlap(zero, one) == pytest.approx(0.0, abs=1e-12)

    def test_classical_embedding_is_collision_probability(self):
        rng = np.random.default_rng(4)
        p = random_distribution(rng, 2)
        q = random_distribution(rng, 2)
        assert overlap(DensityMatrix.diagonal(p),
                       DensityMatrix.diagonal(q)) == pytest.approx(
            float((p.masses * q.masses).sum()), abs=1e-12)


def test_trace_products_do_not_depend_on_the_blas_kernel():
    # OpenBLAS picks a kernel for the CPU when numpy loads, and
    # OPENBLAS_CORETYPE overrides that pick for one process; Tr(AB) is
    # summed by numpy, so another kernel must print the same digits
    src = str(Path(keysec.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_CORETYPE="Prescott",
               PYTHONPATH=os.pathsep.join(filter(None, [
                   src, str(Path(__file__).parent),
                   os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c",
         "from helpers import trace_product_batch as b; print(*b())"],
        capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == trace_product_batch()


class TestFileFormat:
    def test_matrix_round_trip(self, tmp_path):
        from keysec import load_matrix, save_matrix
        rng = np.random.default_rng(88)
        rho = random_density(rng, 3)
        path = tmp_path / "rho.mat"
        save_matrix(rho, path)
        assert np.array_equal(load_matrix(path).mat, rho.mat)

    def test_povm_parsing(self):
        from keysec.quantum_detect import loads_povm
        text = ('{"dim": 2, "elements": ['
                '[[0.5, 0], [0, 0], [0, 0], [0.5, 0]],'
                '[[0.5, 0], [0, 0], [0, 0], [0.5, 0]]]}')
        povm = loads_povm(text)
        assert len(povm.elements) == 2

    def test_zero_dimension_matrix(self):
        from keysec.quantum_detect import loads_matrix
        with pytest.raises(ValueError, match="matrix dimension must be >= 1"):
            loads_matrix('{"dim": 0, "entries": []}')

    def test_dimension_17_povm_file(self):
        from keysec.quantum_detect import loads_povm
        pairs = ", ".join("[1, 0]" if i % 18 == 0 else "[0, 0]"
                          for i in range(17 * 17))
        with pytest.raises(ValueError, match="capped"):
            loads_povm('{"dim": 17, "elements": [[%s]]}' % pairs)

    def test_malformed_matrix(self):
        from keysec.quantum_detect import loads_matrix
        with pytest.raises(ValueError):
            loads_matrix('{"dim": 2, "entries": [[1, 0]]}')

    def test_matrix_entry_count(self):
        from keysec.quantum_detect import loads_matrix
        with pytest.raises(ValueError,
                           match="expected 4 complex pairs, got 1"):
            loads_matrix('{"dim": 2, "entries": [[1, 0]]}')

    @pytest.mark.parametrize("entries", ["5", '"0110"', "{}", "null"])
    def test_matrix_entries_not_a_list(self, entries):
        from keysec.quantum_detect import loads_matrix
        with pytest.raises(ValueError, match="entries"):
            loads_matrix('{"dim": 2, "entries": %s}' % entries)

    @pytest.mark.parametrize("elements", ["5", "{}", "[5]"])
    def test_povm_elements_not_a_list(self, elements):
        from keysec.quantum_detect import loads_povm
        with pytest.raises(ValueError):
            loads_povm('{"dim": 2, "elements": %s}' % elements)


class TestNonFiniteInput:
    def test_density_matrix_rejects_nan(self):
        with pytest.raises(ValueError, match="non-finite"):
            DensityMatrix([[float("nan"), 0.0], [0.0, 1.0]])

    def test_povm_rejects_infinity(self):
        with pytest.raises(ValueError, match="non-finite"):
            Povm([[[float("inf"), 0.0], [0.0, 0.0]], np.eye(2)])

    def test_matrix_file_rejects_nan_literal(self):
        from keysec.quantum_detect import loads_matrix
        with pytest.raises(ValueError, match="non-finite"):
            loads_matrix('{"dim": 1, "entries": [[NaN, 0]]}')
