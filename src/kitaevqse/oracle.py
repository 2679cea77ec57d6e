"""Exact-diagonalization reference: spectra, ground spaces, resolvent GFs.

Everything else in the package is validated against this module, so it
stays deliberately naive: dense matrices, a Hermitian eigensolve per
symmetry block, Lehmann sums. The blocks are the sectors of the Z-strings
that commute with every term (:func:`symmetry_blocks`); real blocks are
factorized in real arithmetic, which covers every shipped Kitaev instance.

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


def symmetry_blocks(h: PauliSum) -> list[np.ndarray]:
    """Basis indices of each block of ``h``'s Z-type symmetry sectors.

    A Z-string commutes with a term iff it shares an even number of sites
    with the term's X/Y flip mask, so the Z-strings commuting with all of
    ``h`` are the GF(2) null space of the flip masks (the qubit-tapering
    construction of Bravyi, Gambetta, Mezzacapo & Temme, arXiv:1701.08213).
    A basis state's parities under a basis of that space, its syndrome, are
    conserved by every term and label its block. Blocks come in ascending
    syndrome, indices ascending within each; with no symmetry there is one.
    """
    n = h.num_sites
    rows = np.array([[ch in "XY" for ch in t.axes] for t in h.terms], dtype=bool).reshape(-1, n)
    pivots: list[int] = []
    for col in range(n):  # reduced row echelon form over GF(2)
        rank = len(pivots)
        hits = np.flatnonzero(rows[rank:, col])
        if hits.size == 0:
            continue
        rows[[rank, rank + hits[0]]] = rows[[rank + hits[0], rank]]
        clear = rows[:, col].copy()
        clear[rank] = False
        rows[clear] ^= rows[rank]
        pivots.append(col)
    index = np.arange(1 << n, dtype=np.int64)
    labels = np.zeros(1 << n, dtype=np.int64)
    bit_of_site = 1 << np.arange(n - 1, -1, -1, dtype=np.int64)  # site 0 on the top bit
    for j, free in enumerate(c for c in range(n) if c not in pivots):
        sites = [free] + [p for i, p in enumerate(pivots) if rows[i, free]]
        z_mask = int(bit_of_site[sites].sum())
        labels |= (np.bitwise_count(index & z_mask) & 1).astype(np.int64) << j
    order = np.argsort(labels, kind="stable")
    return np.split(order, np.flatnonzero(np.diff(labels[order])) + 1)


def diagonalize(h: PauliSum, cap: int = DEFAULT_DENSE_CAP) -> SpectralDecomposition:
    """Dense Hermitian eigensolution with degeneracy detection, computed once
    and returned, read-only, for every ``PauliSum`` equal to ``h``.

    Each :func:`symmetry_blocks` block is factorized on its own, in real
    arithmetic where its entries are real, and its eigenvectors are
    scattered into the full 2^N x 2^N matrix; columns are in ascending
    eigenvalue order, ties kept in block order by a stable sort.
    """
    if h.num_sites > cap:
        raise OracleError(f"{h.num_sites} sites exceeds the dense diagonalization cap {cap}")
    if not h.is_hermitian():
        raise OracleError("diagonalize requires a Hermitian sum")
    decomp = _DECOMPOSITIONS.get(h)
    if decomp is None:
        blocks = symmetry_blocks(h)
        mat = to_matrix(h, cap=cap)
        pieces = [np.linalg.eigh(_real_if_real(mat[np.ix_(idx, idx)])) for idx in blocks]
        del mat
        evals = np.concatenate([block_evals for block_evals, _ in pieces])
        order = np.argsort(evals, kind="stable")
        column = np.empty_like(order)
        column[order] = np.arange(order.size)
        evecs = np.zeros((order.size, order.size), dtype=complex)
        start = 0
        for idx, (_, block_evecs) in zip(blocks, pieces):
            evecs[np.ix_(idx, column[start : start + idx.size])] = block_evecs
            start += idx.size
        evals = evals[order]
        evals.flags.writeable = False
        evecs.flags.writeable = False
        degeneracy = int(np.sum(evals <= evals[0] + DEGENERACY_GAP))
        decomp = _DECOMPOSITIONS[h] = SpectralDecomposition(evals, evecs, degeneracy)
    return decomp


def _real_if_real(block: np.ndarray) -> np.ndarray:
    if np.max(np.abs(block.imag)) <= 1e-14 * max(1.0, np.max(np.abs(block.real))):
        return block.real
    return block


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

    ``ground_vector`` is the ground state to use; pass the same vector
    used on the subspace-expansion side when comparing. It defaults to the
    ground eigenvector, and must be given when the ground space is
    degenerate, since no member of it is preferred.
    """
    z = np.asarray(z_grid, dtype=complex)
    if np.any(z.imag == 0.0):
        raise OracleError("resolvent evaluation requires Im z != 0")
    gs = resolve_ground_vector(decomp, ground_vector)
    evecs = decomp.eigenvectors
    evals = decomp.eigenvalues

    def _project(term: PauliTerm) -> np.ndarray:
        return (apply_term(term, gs).conj() @ evecs).conj()  # <n|term|GS>

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


def resolve_ground_vector(decomp: SpectralDecomposition, ground_vector: np.ndarray | None) -> np.ndarray:
    """``ground_vector``, or the ground eigenvector when it is the only one.

    Which member of a degenerate ground space the eigensolver returns is
    arbitrary (symmetry blocking changes it), so a degenerate ground space
    without an explicit vector raises instead of picking one silently.
    """
    if ground_vector is not None:
        return ground_vector
    if decomp.ground_degeneracy > 1:
        raise OracleError(
            f"ground space is {decomp.ground_degeneracy}-fold degenerate: pass the ground vector to use"
        )
    return decomp.ground_vector()


def _dagger(term: PauliTerm) -> PauliTerm:
    return term.with_coefficient(np.conj(term.coefficient))
