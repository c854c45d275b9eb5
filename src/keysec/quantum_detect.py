"""Small-dimension quantum state discrimination.

Density matrices up to dimension 16, trace distance via the Hermitian
eigenvalue spectrum, the minimum-error discrimination bound, statistical
distance of measured outcome distributions, and the plain operator
overlap Tr(rho sigma).  Classical distributions embed as diagonal states
and every quantity then collapses to its probdist counterpart.
"""

from __future__ import annotations

import os

import numpy as np

from .bits import _integral, _within
from .probdist import (Distribution, _fmt, _json_numbers, _json_size,
                       _numbers, _read_document, _total_variation)

DIM_CAP = 16
HERMITIAN_TOL = 1e-10


def _as_square_complex(entries, what: str) -> np.ndarray:
    mat = _numbers(entries, f"{what} entries", complex)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"{what} must be square, got shape {mat.shape}")
    _integral(mat.shape[0], f"{what} dimension", 1)
    if mat.shape[0] > DIM_CAP:
        raise ValueError(f"dimension capped at {DIM_CAP}, got {mat.shape[0]}")
    # valid entries have modulus <= 1; far larger ones would overflow below
    if not np.all(np.abs(mat) <= 2.0):
        raise ValueError(f"{what} has non-finite entries or |entry| > 2")
    return mat


def _hermitian_psd(mat: np.ndarray, what: str) -> np.ndarray:
    # Rejects non-Hermitian or non-PSD input, one matrix or a stack of them
    # over the last two axes; returns the Hermitian part.
    adjoint = mat.conj().swapaxes(-1, -2)
    if np.abs(mat - adjoint).max() > HERMITIAN_TOL:
        raise ValueError(f"{what} is not Hermitian within {HERMITIAN_TOL:g}")
    mat = 0.5 * (mat + adjoint)
    smallest = np.linalg.eigvalsh(mat).min()
    if smallest < -HERMITIAN_TOL:
        raise ValueError(f"{what} is not positive semidefinite: "
                         f"negative eigenvalue {smallest:.3e}")
    return mat


class DensityMatrix:
    """Hermitian, positive semidefinite, trace-one matrix of dim <= 16."""

    __slots__ = ("dim", "mat")

    def __init__(self, entries):
        mat = _as_square_complex(entries, "density matrix")
        mat = _hermitian_psd(mat, "density matrix")
        if abs(mat.trace().real - 1.0) > HERMITIAN_TOL:
            raise ValueError(f"trace {mat.trace().real} differs from 1")
        self.dim = mat.shape[0]
        self.mat = mat
        self.mat.flags.writeable = False

    @classmethod
    def pure(cls, statevector) -> DensityMatrix:
        v = _numbers(statevector, "state vector", complex)
        if v.ndim != 1:
            raise ValueError(f"state vector must be 1-D, got shape {v.shape}")
        parts = v.view(float)
        if not np.all(np.isfinite(parts)):
            raise ValueError("state vector has non-finite entries")
        top = np.abs(parts).max(initial=0.0)
        if top == 0.0:
            raise ValueError("state vector must be nonzero")
        # an exact power of two brings the largest part into [0.5, 1), so
        # the squared norm can neither underflow nor overflow; it is summed
        # by numpy, not by a BLAS dot kernel that differs per CPU
        parts = np.ldexp(parts, -np.frexp(top)[1])
        v = parts.view(complex) / np.sqrt((parts * parts).sum())
        return cls(np.outer(v, v.conj()))

    @classmethod
    def diagonal(cls, p: Distribution | np.ndarray) -> DensityMatrix:
        """Classical distribution embedded on the diagonal."""
        weights = (p.masses if isinstance(p, Distribution)
                   else _numbers(p, "diagonal weights"))
        return cls(np.diag(weights.astype(complex)))

    @classmethod
    def from_bloch(cls, x: float, y: float, z: float) -> DensityMatrix:
        x, y, z = _numbers([x, y, z], "Bloch vector").tolist()
        if x * x + y * y + z * z > 1.0 + 1e-12:
            raise ValueError("Bloch vector must have norm <= 1")
        return cls(0.5 * np.array([[1 + z, x - 1j * y],
                                   [x + 1j * y, 1 - z]]))


class Povm:
    """Measurement: PSD elements of dim <= 16 summing to the identity."""

    __slots__ = ("dim", "elements")

    def __init__(self, elements):
        mats = [_as_square_complex(e, "POVM element") for e in elements]
        if not mats:  # checked here, as a numpy stack has no truth value
            raise ValueError("a measurement needs at least one element")
        if len({m.shape for m in mats}) > 1:
            raise ValueError("POVM elements must share one dimension")
        stack = np.stack(mats)  # a private copy
        _hermitian_psd(stack, "POVM element")  # elements are stored as given
        dim = len(mats[0])
        if np.abs(stack.sum(axis=0) - np.eye(dim)).max() > HERMITIAN_TOL:
            raise ValueError("POVM elements do not sum to the identity")
        stack.flags.writeable = False
        self.dim, self.elements = dim, stack

    def outcome_probabilities(self, rho: DensityMatrix) -> np.ndarray:
        if rho.dim != self.dim:
            raise ValueError(f"state dim {rho.dim} vs POVM dim {self.dim}")
        return np.array([_trace_product(rho.mat, e) for e in self.elements])


def _trace_product(a: np.ndarray, b: np.ndarray) -> float:
    # Tr(AB) = sum a_ij b_ji, summed by numpy, not by a BLAS kernel per CPU
    return float((a * b.T).sum().real)


def _check_dims(rho: DensityMatrix, sigma: DensityMatrix) -> None:
    if rho.dim != sigma.dim:
        raise ValueError(f"dimension mismatch: {rho.dim} vs {sigma.dim}")


def _trace_norm(mat: np.ndarray) -> float:
    # sum |eigenvalues|; mat is a real combination of stored Hermitian
    # parts, so exactly Hermitian, and eigvalsh reads its lower triangle
    return np.abs(np.linalg.eigvalsh(mat)).sum()


def trace_distance_q(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """(1/2) sum |eigenvalues of (rho - sigma)|, capped at 1."""
    _check_dims(rho, sigma)
    return min(1.0, float(0.5 * _trace_norm(rho.mat - sigma.mat)))


def helstrom_min_error(rho1: DensityMatrix, rho2: DensityMatrix,
                       prior1: float) -> float:
    """Minimum error probability discriminating rho1 (prior1) vs rho2.

    (1/2)(1 - ||prior1 rho1 - (1 - prior1) rho2||_1); at equal priors
    this is (1/2)(1 - trace_distance_q).  Rounding can carry the norm of
    orthogonal states past 1, so the error is floored at 0.
    """
    _check_dims(rho1, rho2)
    _within(prior1, "prior", 0, 1)
    weighted = prior1 * rho1.mat - (1.0 - prior1) * rho2.mat
    return max(0.0, float(0.5 * (1.0 - _trace_norm(weighted))))


def measured_distance(rho: DensityMatrix, sigma: DensityMatrix,
                      m: Povm) -> float:
    """Statistical distance of the outcome laws Tr(rho E_i), Tr(sigma E_i).

    Measuring can only blur: this never exceeds trace_distance_q.
    """
    _check_dims(rho, sigma)
    return _total_variation(m.outcome_probabilities(rho),
                            m.outcome_probabilities(sigma))


def overlap(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Tr(rho sigma): operator inner product, not an event probability.

    Two copies of the maximally mixed qubit overlap at 0.5 even though
    they are the same state, which is the point of exposing this number
    next to the distance measures.
    """
    _check_dims(rho, sigma)
    return min(1.0, max(0.0, _trace_product(rho.mat, sigma.mat)))


# -- file format -------------------------------------------------------------
#
# A matrix file is a JSON document {"dim": d, "entries": [[re, im], ...]}
# with d^2 row-major complex pairs written to 17 significant digits.
# A POVM file is {"dim": d, "elements": [<entries>, <entries>, ...]}.


def _entries_json(mat: np.ndarray) -> str:
    pairs = ", ".join(f"[{_fmt(v.real)}, {_fmt(v.imag)}]" for v in mat.ravel())
    return f"[{pairs}]"


def dumps_matrix(rho: DensityMatrix) -> str:
    return '{\n  "dim": %d,\n  "entries": %s\n}\n' % (
        rho.dim, _entries_json(rho.mat))


def _parse_entries(dim: int, entries) -> np.ndarray:
    if not isinstance(entries, list):
        raise ValueError("matrix entries must be an array of [re, im] pairs")
    flat = []
    for pair in entries:
        re, im = _json_numbers(pair, "matrix entry")  # ValueError unless a pair
        flat.append(complex(re, im))
    if len(flat) != dim * dim:
        raise ValueError(f"expected {dim * dim} complex pairs, got {len(flat)}")
    return np.array(flat, dtype=complex).reshape(dim, dim)


def loads_matrix(text: str) -> DensityMatrix:
    doc = _read_document(text, "matrix", "dim", "entries")
    return DensityMatrix(_parse_entries(_json_size(doc, "dim"), doc["entries"]))


def save_matrix(rho: DensityMatrix, path: str | os.PathLike) -> None:
    with open(path, "w") as fh:
        fh.write(dumps_matrix(rho))


def load_matrix(path: str | os.PathLike) -> DensityMatrix:
    with open(path) as fh:
        return loads_matrix(fh.read())


def loads_povm(text: str) -> Povm:
    doc = _read_document(text, "POVM", "dim", "elements")
    dim = _json_size(doc, "dim")
    elements = doc["elements"]
    if not isinstance(elements, list):
        raise ValueError("POVM elements must be an array of matrices")
    return Povm([_parse_entries(dim, e) for e in elements])


def load_povm(path: str | os.PathLike) -> Povm:
    with open(path) as fh:
        return loads_povm(fh.read())
