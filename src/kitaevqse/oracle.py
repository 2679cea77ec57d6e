"""Exact-diagonalization reference: spectra, ground spaces, resolvent GFs.

Everything else in the package is validated against this module, so it
stays deliberately naive: dense matrices, full Hermitian eigensolve,
Lehmann sums. Real-symmetric inputs are factorized in real arithmetic,
which covers every shipped Kitaev instance.

:func:`diagonalize` factorizes each Hamiltonian once: ``PauliSum`` is a
frozen value, and the result is kept for as long as the first equal sum is
alive, so the ED side and exact-mode ``V(t)`` of a stage share it.

:func:`lanczos` is the package's one Hermitian Lanczos recursion: the VQE
sector ranking runs it on statevectors, and the Green's functions run it
on the orthonormalized QSE subspace.
"""

from __future__ import annotations

import weakref
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .pauli import DEFAULT_DENSE_CAP, PauliSum, PauliTerm, apply_term, to_matrix

DEGENERACY_GAP = 1e-9


class OracleError(ValueError):
    pass


@dataclass(frozen=True)
class SpectralDecomposition:
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    ground_degeneracy: int

    @property
    def ground_energy(self) -> float:
        return float(self.eigenvalues[0])

    def ground_space(self) -> np.ndarray:
        """Orthonormal columns spanning the (near-)degenerate ground space."""
        return self.eigenvectors[:, : self.ground_degeneracy]

    def ground_vector(self) -> np.ndarray:
        return self.eigenvectors[:, 0]


_DECOMPOSITIONS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def diagonalize(h: PauliSum, cap: int = DEFAULT_DENSE_CAP) -> SpectralDecomposition:
    """Full dense Hermitian eigensolution with degeneracy detection, computed
    once and returned, read-only, for every ``PauliSum`` equal to ``h``."""
    if h.num_sites > cap:
        raise OracleError(f"{h.num_sites} sites exceeds the dense diagonalization cap {cap}")
    if not h.is_hermitian():
        raise OracleError("diagonalize requires a Hermitian sum")
    decomp = _DECOMPOSITIONS.get(h)
    if decomp is None:
        mat = to_matrix(h, cap=cap)
        if np.max(np.abs(mat.imag)) <= 1e-14 * max(1.0, np.max(np.abs(mat.real))):
            evals, evecs = np.linalg.eigh(mat.real)
            evecs = evecs.astype(complex)
        else:
            evals, evecs = np.linalg.eigh(mat)
        evals.flags.writeable = False
        evecs.flags.writeable = False
        degeneracy = int(np.sum(evals <= evals[0] + DEGENERACY_GAP))
        decomp = _DECOMPOSITIONS[h] = SpectralDecomposition(evals, evecs, degeneracy)
    return decomp


def lanczos(
    matvec: Callable[[np.ndarray], np.ndarray], start: np.ndarray, max_steps: int, b2_tol: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, str]:
    """Hermitian Lanczos recursion with full reorthogonalization.

    Normalizes ``start`` and builds Krylov vectors q_n with
    a_n = <q_n|H q_n> and b_{n+1} q_{n+1} = H q_n - a_n q_n - b_n q_{n-1}.
    The residual is Gram-Schmidt-orthogonalized twice against every Krylov
    vector so far, and b_{n+1} is its norm. Stops after ``max_steps`` a_n
    ("rank") or when b_{n+1}^2 <= ``b2_tol`` ("b2_tol"). Raises when a_n
    has an imaginary residue, i.e. ``matvec`` is not Hermitian.

    Returns (a, b, krylov_rows, stop_reason) with b[0] = 0, len(a) == len(b)
    and q_n in row n of ``krylov_rows``.
    """
    q = np.asarray(start, dtype=complex)
    norm = float(np.linalg.norm(q))
    if norm == 0.0:
        raise OracleError("Lanczos start vector is zero")
    krylov = np.empty((max_steps, q.size), dtype=complex)
    krylov[0] = q / norm
    a: list[float] = []
    b: list[float] = [0.0]
    for n in range(max_steps):
        w = np.array(matvec(krylov[n]), dtype=complex)  # own copy: reduced in place below
        a_n = complex(np.vdot(krylov[n], w))
        if abs(a_n.imag) > 1e-8 * max(1.0, abs(a_n.real)):
            raise OracleError(f"a_{n} has imaginary residue {a_n.imag:g}: operator is not Hermitian")
        a.append(a_n.real)
        if n + 1 == max_steps:
            stop_reason = "rank"
            break
        basis = krylov[: n + 1]
        for _ in range(2):  # full reorthogonalization, twice is enough
            w -= (basis @ w.conj()).conj() @ basis
        b_next = float(np.linalg.norm(w))
        if b_next**2 <= b2_tol:
            stop_reason = "b2_tol"
            break
        b.append(b_next)
        krylov[n + 1] = w / b_next
    return np.array(a), np.array(b), krylov[: len(a)], stop_reason


def ground_space_fidelity(amplitudes: np.ndarray, decomp: SpectralDecomposition) -> float:
    """Squared norm of the projection onto the degenerate ground space."""
    coords = decomp.ground_space().conj().T @ amplitudes
    val = float(np.real(np.vdot(coords, coords)))
    return min(max(val, 0.0), 1.0)


def exact_resolvent_gf(
    decomp: SpectralDecomposition,
    c_a: PauliTerm,
    c_b: PauliTerm,
    z_grid: np.ndarray,
    ground_vector: np.ndarray | None = None,
    kind: str = "retarded",
) -> np.ndarray:
    """Lehmann-sum Green's function on an energy grid.

    greater:  <GS| c_a (z - H)^-1 c_b^dag |GS>
    lesser:   <GS| c_a^dag (z + H)^-1 c_b |GS>
    retarded: greater + lesser

    ``ground_vector`` selects the member of a degenerate ground space
    (defaults to the first eigenvector); pass the same vector used on
    the subspace-expansion side when comparing.
    """
    z = np.asarray(z_grid, dtype=complex)
    if np.any(z.imag == 0.0):
        raise OracleError("resolvent evaluation requires Im z != 0")
    gs = decomp.ground_vector() if ground_vector is None else ground_vector
    evecs = decomp.eigenvectors
    evals = decomp.eigenvalues

    def _project(term: PauliTerm) -> np.ndarray:
        return evecs.conj().T @ apply_term(term, gs)  # <n|term|GS>

    def _greater() -> np.ndarray:
        weights = np.conj(_project(_dagger(c_a))) * _project(_dagger(c_b))
        return (weights[None, :] / (z[:, None] - evals[None, :])).sum(axis=1)

    def _lesser() -> np.ndarray:
        weights = np.conj(_project(c_a)) * _project(c_b)
        return (weights[None, :] / (z[:, None] + evals[None, :])).sum(axis=1)

    if kind == "greater":
        return _greater()
    if kind == "lesser":
        return _lesser()
    if kind == "retarded":
        return _greater() + _lesser()
    raise OracleError(f"unknown GF kind {kind!r}")


def _dagger(term: PauliTerm) -> PauliTerm:
    return term.with_coefficient(np.conj(term.coefficient))


def fixture_entry(label: str, h: PauliSum, decomp: SpectralDecomposition) -> dict:
    return {
        "label": label,
        "num_sites": h.num_sites,
        "num_terms": len(h),
        "ground_energy": decomp.ground_energy,
        "ground_degeneracy": decomp.ground_degeneracy,
    }
