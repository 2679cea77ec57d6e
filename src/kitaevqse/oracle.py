"""Exact-diagonalization reference: spectra, ground spaces, resolvent GFs.

Everything else in the package is validated against this module, so it
stays deliberately naive: a Hermitian eigensolve per symmetry block, Lehmann
sums. The blocks are the sectors of the Z-strings that commute with every
term (:func:`symmetry_blocks`), stacked and factorized by one ``eigh``, in
real arithmetic where real, which covers every shipped Kitaev instance.

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
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .pauli import DEFAULT_DENSE_CAP, PauliSum, PauliTerm, apply_term

DEGENERACY_GAP = 1e-9


class OracleError(ValueError):
    pass


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenpairs kept as equal-size symmetry blocks: no 2^N x 2^N matrix.

    Row i of block b is basis state ``permutation[b * size + i]``; ``order``
    lists the flat block columns by ascending ``eigenvalues`` (ties in block
    order), the eigenvector order of :meth:`project` and :meth:`expand`.
    """

    permutation: np.ndarray
    block_vectors: np.ndarray  # (blocks, size, size), real when every block is
    order: np.ndarray
    eigenvalues: np.ndarray
    ground_degeneracy: int
    _phase_tables: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def ground_energy(self) -> float:
        return float(self.eigenvalues[0])

    def project(self, v: np.ndarray) -> np.ndarray:
        """<n|v> for every eigenvector n; ``v`` may stack vectors along leading axes."""
        return self._through_blocks(v[..., self.permutation], self.block_vectors.conj())[..., self.order]

    def expand(self, coords: np.ndarray) -> np.ndarray:
        """sum_n coords_n |n>, the inverse of :meth:`project`."""
        flat = np.empty_like(coords)
        flat[..., self.order] = coords
        blocked = self._through_blocks(flat, self.block_vectors.transpose(0, 2, 1))
        out = np.empty_like(blocked)
        out[..., self.permutation] = blocked
        return out

    def _through_blocks(self, rows: np.ndarray, mats: np.ndarray) -> np.ndarray:
        """Rows in block layout times their blocks' matrices; real and imaginary parts in one matmul."""
        blocks, size, _ = mats.shape
        stacked = rows.reshape(-1, blocks, size).transpose(1, 0, 2)
        count = stacked.shape[1]
        parts = np.concatenate([stacked.real, stacked.imag], axis=1) @ mats
        out = parts[:, :count] + 1j * parts[:, count:]
        return out.transpose(1, 0, 2).reshape(*rows.shape[:-1], blocks * size)

    def phases(self, delta_t: float, count: int) -> np.ndarray:
        """Read-only table exp(-i E_n m dt), m = 0 .. count-1, built once per (dt, count)."""
        key = (delta_t, count)
        if key not in self._phase_tables:
            table = np.exp(-1j * delta_t * np.outer(np.arange(count), self.eigenvalues))
            self._phase_tables[key] = _read_only(table)
        return self._phase_tables[key]

    def ground_space(self) -> np.ndarray:
        """Orthonormal columns spanning the (near-)degenerate ground space."""
        return _read_only(self.expand(np.eye(self.ground_degeneracy, self.eigenvalues.size)).T)

    def ground_vector(self) -> np.ndarray:
        return self.ground_space()[:, 0]

    @property
    def eigenvectors(self) -> np.ndarray:
        """Dense read-only view, columns ascending, built on each read: for tests and probes."""
        blocks, size, _ = self.block_vectors.shape
        column = np.argsort(self.order)
        dense = np.zeros((self.order.size,) * 2, dtype=self.block_vectors.dtype)
        dense[self.permutation.reshape(blocks, size, 1), column.reshape(blocks, 1, size)] = self.block_vectors
        return _read_only(dense)


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


_DECOMPOSITIONS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def symmetry_blocks(h: PauliSum) -> tuple[np.ndarray, ...]:
    """Basis indices of each block of ``h``'s Z-type symmetry sectors.

    A Z-string commutes with a term iff it shares an even number of sites
    with the term's X/Y flip mask, so the Z-strings commuting with all of
    ``h`` are the GF(2) null space of the flip masks (the qubit-tapering
    construction of Bravyi, Gambetta, Mezzacapo & Temme, arXiv:1701.08213).
    A basis state's parities under a basis of that space, its syndrome, are
    conserved by every term and label its block. Blocks come in ascending
    syndrome, indices ascending within each; with no symmetry there is one.
    Memoized on the Pauli strings, which every field of a model shares.
    """
    return _syndrome_blocks(h.num_sites, tuple(t.axes for t in h.terms))


@lru_cache(maxsize=16)
def _syndrome_blocks(n: int, strings: tuple[str, ...]) -> tuple[np.ndarray, ...]:
    rows = np.array([[ch in "XY" for ch in axes] for axes in strings], dtype=bool).reshape(-1, n)
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
    return tuple(map(_read_only, np.split(order, np.flatnonzero(np.diff(labels[order])) + 1)))


def diagonalize(h: PauliSum, cap: int = DEFAULT_DENSE_CAP) -> SpectralDecomposition:
    """Dense Hermitian eigensolution with degeneracy detection, computed once
    and returned, read-only, for every ``PauliSum`` equal to ``h``."""
    if h.num_sites > cap:
        raise OracleError(f"{h.num_sites} sites exceeds the dense diagonalization cap {cap}")
    if not h.is_hermitian():
        raise OracleError("diagonalize requires a Hermitian sum")
    decomp = _DECOMPOSITIONS.get(h)
    if decomp is None:
        decomp = _DECOMPOSITIONS[h] = _factorize_blocks(h)
    return decomp


def _factorize_blocks(h: PauliSum) -> SpectralDecomposition:
    """One batched ``eigh`` of the :func:`symmetry_blocks` of ``h``, which are
    syndrome cosets of one size, each filled from the terms' basis actions."""
    blocks = symmetry_blocks(h)
    permutation = np.concatenate(blocks)
    size = blocks[0].size
    position = np.argsort(permutation)
    block, row = np.divmod(np.arange(permutation.size), size)
    stack = np.zeros((len(blocks), size, size), dtype=complex)
    for term in h.terms:
        src, phase = term.action
        stack[block, row, position[src[permutation]] % size] += term.coefficient * phase[permutation]
    if np.max(np.abs(stack.imag)) <= 1e-14 * max(1.0, np.max(np.abs(stack.real))):
        stack = np.ascontiguousarray(stack.real)  # frees the complex stack before eigh
    block_evals, block_vectors = np.linalg.eigh(stack)
    order = np.argsort(block_evals.ravel(), kind="stable")
    evals = block_evals.ravel()[order]
    degeneracy = int(np.sum(evals <= evals[0] + DEGENERACY_GAP))
    return SpectralDecomposition(*map(_read_only, (permutation, block_vectors, order, evals)), degeneracy)


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
    coords = decomp.project(amplitudes)[: decomp.ground_degeneracy]
    val = float(np.real(np.vdot(coords, coords)))
    return min(max(val, 0.0), 1.0)


def lehmann_sum(weights: np.ndarray, poles: np.ndarray, z: np.ndarray) -> np.ndarray:
    """sum_n weights_n / (z - poles_n) on a grid of z in real arithmetic, 1/(x + iy) =
    (x - iy)/(x^2 + y^2) with x = Re z - pole_n, y = Im z; exact zero weights are skipped."""
    weights, poles = weights[weights != 0], poles[weights != 0]
    x, y = z.real[:, None] - poles, z.imag[:, None]
    inverse = 1.0 / (x * x + y * y)
    parts = np.stack([np.real(weights), np.imag(weights)], axis=1)
    along_x, plain = (x * inverse) @ parts, y * (inverse @ parts)
    return along_x[:, 0] + plain[:, 1] + 1j * (along_x[:, 1] - plain[:, 0])


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

    def _sum(left: PauliTerm, right: PauliTerm, poles: np.ndarray) -> np.ndarray:
        # weights <GS|left^dag|n><n|right|GS>
        bra, ket = decomp.project(np.stack([apply_term(left, gs), apply_term(right, gs)]))
        return lehmann_sum(np.conj(bra) * ket, poles, z)

    parts = {"greater": (_dagger(c_a), _dagger(c_b), decomp.eigenvalues),
             "lesser": (c_a, c_b, -decomp.eigenvalues)}
    if kind == "retarded":
        return _sum(*parts["greater"]) + _sum(*parts["lesser"])
    if kind not in parts:
        raise OracleError(f"unknown GF kind {kind!r}")
    return _sum(*parts[kind])


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
