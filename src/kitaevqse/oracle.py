"""Exact-diagonalization reference: spectra, ground spaces, resolvent GFs.

Everything else in the package is validated against this module, so it
stays deliberately naive: a Hermitian eigensolve per symmetry block, Lehmann
sums. The symmetries of a Pauli sum are the Pauli strings that commute with
every term, the symplectic GF(2) null space of the terms. When that group is
abelian and not Z-type only (every zero-field Kitaev Hamiltonian: the
plaquettes and loops), :func:`taper` maps its k generators onto single-qubit
Zs with the Clifford frame of Bravyi, Gambetta, Mezzacapo & Temme
(arXiv:1701.08213), built sequentially and verified term by term, and the
sum splits into 2^k sector sums on N - k qubits. Otherwise the frame is the
identity. The frame conjugates the terms in their symplectic (coefficient,
x, z) form, with the product and commutation rules of :mod:`pauli`. The
blocks are the sectors crossed with the Z-syndromes of their sums
(:func:`symmetry_blocks`, the Z-type part of a sum's group), stacked and
factorized by one ``eigh``, in real arithmetic where real, which covers every
shipped Kitaev instance. Every dense eigensolve of a Hamiltonian in the
package runs here, the VQE sector ranking's too, under one bound counted
before anything is allocated (:meth:`TaperedSum.block_stack`).

:func:`diagonalize` factorizes each Hamiltonian once and :func:`taper` builds
each frame once: ``PauliSum`` is a frozen value, and both results are kept for
as long as the first equal sum is alive, so the ED side, exact-mode ``V(t)``
and the VQE sector ranking of a stage share them.

:func:`lanczos` is the package's one Hermitian Lanczos recursion; the
Green's functions run it on the orthonormalized QSE subspace.
"""

from __future__ import annotations

import weakref
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import combinations

import numpy as np

from .pauli import PauliSum, PauliTerm, Symplectic, anticommutes, apply_term, from_symplectic, single_site, times

DEGENERACY_GAP = 1e-9
# relative deviation of tr H and tr H^2 that completeness_certificate allows
CERTIFICATE_TOLERANCE = 1e-10
DENSE_STACK_CAP = 1 << 28  # stacked entries: one dense 2^14-state matrix, so any sum of <= 14 sites passes


class OracleError(ValueError):
    pass


def _conjugated(t: Symplectic, p: Symplectic, q: Symplectic) -> Symplectic:
    """R T R for R = (P + Q)/sqrt(2), P and Q anticommuting Hermitian strings: T, T Q P, T P Q
    or -T as T anticommutes with neither of them, with P only, with Q only or with both."""
    off_p, off_q = anticommutes(t, p), anticommutes(t, q)
    if off_p and off_q:
        return -t[0], t[1], t[2]
    if off_p:
        return times(times(t, q), p)
    if off_q:
        return times(times(t, p), q)
    return t


def _null_space(rows: Iterable[int], width: int) -> list[int]:
    """Basis of {v : popcount(row & v) even for every row} over GF(2), bit width-1-c holding
    column c: one vector per free column of the reduced row echelon form, in column order."""
    echelon: dict[int, int] = {}  # pivot bit -> its row, with no other pivot bit set
    for row in rows:
        for bit, pivot_row in echelon.items():
            if row & bit:
                row ^= pivot_row
        if row:
            lead = 1 << (row.bit_length() - 1)
            for bit, pivot_row in echelon.items():
                if pivot_row & lead:
                    echelon[bit] = pivot_row ^ row
            echelon[lead] = row
    free = (1 << (width - 1 - c) for c in range(width))
    return [bit | sum(p for p, r in echelon.items() if r & bit) for bit in free if bit not in echelon]


@dataclass(frozen=True)
class TaperingFrame:
    """A Clifford F = R_m ... R_1 that takes each generator to +Z on its site.

    R_j = (P_j + Q_j)/sqrt(2) for the pair ``rotations[j]`` of anticommuting
    Hermitian strings, and F maps the commuting symmetry ``generators[i]`` to
    +Z on site ``sites[i]``. :func:`tapering_frame` builds one rotation
    (sigma_i + tau_i)/sqrt(2) per generator, then a Hadamard (X + Z)/sqrt(2)
    on each site whose sigma_i is X; :meth:`TaperedSum.build` verifies it.
    The default is the identity frame, with no generators.
    """

    generators: tuple[PauliTerm, ...] = ()
    sites: tuple[int, ...] = ()
    rotations: tuple[tuple[PauliTerm, PauliTerm], ...] = ()

    def to_frame(self, v: np.ndarray) -> np.ndarray:
        """F v along the last axis of ``v``; ``v`` itself for the identity frame."""
        for pair in self.rotations:
            v = _rotated(v, *pair)
        return v

    def from_frame(self, v: np.ndarray) -> np.ndarray:
        """F^dagger v, the inverse of :meth:`to_frame` (each R_j is its own inverse)."""
        for pair in reversed(self.rotations):
            v = _rotated(v, *pair)
        return v

    @cached_property
    def _rotation_strings(self) -> list[tuple[Symplectic, Symplectic]]:
        return [(p.symplectic, q.symplectic) for p, q in self.rotations]

    def reduce(self, term: PauliTerm) -> tuple[PauliTerm, int]:
        """(F T F^dagger off the frame's sites, mask): the mask has bit k-1-i set where the
        transformed term holds Z on ``sites[i]``. Raises :class:`OracleError` when it holds X or Y
        on one of them, so that T does not commute with that generator."""
        string = term.symplectic
        for p, q in self._rotation_strings:
            string = _conjugated(string, p, q)
        coefficient, x, z = string
        n, k = term.num_sites, len(self.sites)
        site_bits = [1 << (n - 1 - q) for q in self.sites]
        if any(x & bit for bit in site_bits):
            raise OracleError(f"the frame leaves {term} with X or Y on a tapered site")
        mask = sum(1 << (k - 1 - i) for i, bit in enumerate(site_bits) if z & bit)
        axes = from_symplectic(string, n).axes
        return PauliTerm(coefficient, "".join(ch for q, ch in enumerate(axes) if q not in self.sites)), mask


def _rotated(v: np.ndarray, p: PauliTerm, q: PauliTerm) -> np.ndarray:
    (src_p, phase_p), (src_q, phase_q) = p.action, q.action
    return (p.coefficient * phase_p * v[..., src_p] + q.coefficient * phase_q * v[..., src_q]) * np.sqrt(0.5)


def tapering_frame(h: PauliSum) -> TaperingFrame:
    """The frame of the Pauli strings that commute with every term of ``h``, built sequentially.

    The strings are the symplectic GF(2) null space of the terms. When they
    are Z-type only, some two of them anticommute, or they would taper every
    site, the frame is the identity. Otherwise generator tau_i in turn gets a
    site q_i where it acts and that no earlier generator took, preferring one
    where it has X or Y, and sigma_i = Z there (X where it has Z), which
    anticommutes with it; every later generator that anticommutes with
    sigma_i is multiplied by tau_i, so it commutes with sigma_i and tau_i and
    the rotation (sigma_i + tau_i)/sqrt(2) leaves it as it is.
    """
    n = h.num_sites
    rows = [(z << n) | x for x, z in (t.masks for t in h.terms)]
    taus = [(1.0, v >> n, v & ((1 << n) - 1)) for v in _null_space(rows, 2 * n)]
    if (not any(x for _, x, _ in taus) or len(taus) >= n
            or any(anticommutes(a, b) for a, b in combinations(taus, 2))):
        return TaperingFrame()
    sites, sigmas = [], []
    for i, (_, x, z) in enumerate(taus):
        acting = [q for q in range(n) if (x | z) >> (n - 1 - q) & 1 and q not in sites]
        if not acting:
            raise OracleError("a symmetry generator acts only on sites earlier generators took")
        site = next((q for q in acting if x >> (n - 1 - q) & 1), acting[0])
        sigma = single_site("Z" if x >> (n - 1 - site) & 1 else "X", site, n)
        for j in range(i + 1, len(taus)):
            if anticommutes(taus[j], sigma.symplectic):
                taus[j] = times(taus[j], taus[i])
        sites.append(site)
        sigmas.append(sigma)
    generators = tuple(from_symplectic(t, n) for t in taus)
    hadamards = [(sigma, single_site("Z", q, n)) for q, sigma in zip(sites, sigmas) if sigma.axes[q] == "X"]
    return TaperingFrame(generators, tuple(sites), (*zip(sigmas, generators), *hadamards))


def _spread(sites: Iterable[int], n: int) -> np.ndarray:
    """Basis index on n sites of each number, its bit j (from the top) moved onto site ``sites[j]``."""
    sites = tuple(sites)
    local = np.arange(1 << len(sites), dtype=np.int64)
    out = np.zeros_like(local)
    for j, q in enumerate(sites):
        out |= ((local >> (len(sites) - 1 - j)) & 1) << (n - 1 - q)
    return out


@dataclass(frozen=True)
class TaperedSum:
    """A Pauli sum in its verified frame: F h F^dagger = sum_s |s><s| (x) h_s.

    Sector s (0 .. 2^k - 1) is where generator i has eigenvalue
    (-1)^(bit k-1-i of s). ``terms[j]`` is term j on the N - k untapered
    sites with its frame coefficient, and carries the sign
    (-1)^popcount(s & masks[j]) in sector s; terms are not merged.
    """

    frame: TaperingFrame
    num_sites: int
    terms: tuple[PauliTerm, ...]
    masks: tuple[int, ...]

    @classmethod
    def build(cls, h: PauliSum, frame: TaperingFrame) -> "TaperedSum":
        """Reduce every term of ``h`` through ``frame``. Raises :class:`OracleError` unless the
        frame takes every generator to +Z on its site and every term to I or Z on each of them."""
        n, k = h.num_sites, len(frame.sites)
        if frame == TaperingFrame():
            return cls(frame, n, h.terms, (0,) * len(h))
        for i, generator in enumerate(frame.generators):
            image, mask = frame.reduce(generator)
            if (image.coefficient, set(image.axes), mask) != (1, {"I"}, 1 << (k - 1 - i)):
                raise OracleError(f"the frame takes generator {generator} to {image} with mask {mask:b}, "
                                  f"not to +Z on site {frame.sites[i] + 1}")
        reduced = [frame.reduce(term) for term in h.terms]
        return cls(frame, n, tuple(term for term, _ in reduced), tuple(mask for _, mask in reduced))

    @property
    def num_sectors(self) -> int:
        return 1 << len(self.frame.sites)

    @cached_property
    def sector_signs(self) -> np.ndarray:
        """(sectors, terms) table of each term's sign in each sector."""
        return _read_only(self._signs(self.masks))

    def _signs(self, masks: Sequence[int]) -> np.ndarray:
        sectors = np.arange(self.num_sectors, dtype=np.int64)
        return 1 - 2 * (np.bitwise_count(sectors[:, None] & np.array(masks, dtype=np.int64)) & 1).astype(np.int64)

    def sector_eigenvalues(self, symmetries: Sequence[PauliTerm]) -> np.ndarray:
        """(sectors, symmetries) table of each symmetry's eigenvalue in each sector.

        A string of the frame's group reduces to c I with a mask, so its
        eigenvalue in sector s is c (-1)^popcount(s & mask). Raises
        :class:`OracleError` for a string outside the group.
        """
        images = [self.frame.reduce(term) for term in symmetries]
        for term, (image, _) in zip(symmetries, images):
            if set(image.axes) != {"I"}:
                raise OracleError(f"{term} is not in the symmetry group of the frame")
        coefficients = np.array([image.coefficient.real for image, _ in images])
        return coefficients * self._signs([mask for _, mask in images])

    @cached_property
    def frame_index(self) -> np.ndarray:
        """(sectors, 2^(N-k)) frame basis index of each sector's reduced basis states."""
        kept = [q for q in range(self.num_sites) if q not in self.frame.sites]
        return _read_only(_spread(self.frame.sites, self.num_sites)[:, None] | _spread(kept, self.num_sites))

    def sector_matrix(self, term: PauliTerm, sector: int) -> np.ndarray:
        """The 2^(N-k)-square matrix of ``term`` in ``sector``: its :meth:`TaperingFrame.reduce`
        (which raises unless it commutes with every generator) times its sign there."""
        reduced, mask = self.frame.reduce(term)
        src, phase = reduced.action
        matrix = np.zeros((src.size, src.size), dtype=complex)
        matrix[np.arange(src.size), src] = self._signs([mask])[sector, 0] * reduced.coefficient * phase
        return matrix

    def block_stack(self) -> tuple[np.ndarray, np.ndarray]:
        """(permutation, stack): every sector sum's :func:`symmetry_blocks`, sector by sector, as
        one (blocks, size, size) stack, real when every term's c i^popcount(x & z) is, its entries
        being that times +-1; row i of block b is frame basis state ``permutation[b * size + i]``.
        The sector sums share their strings, so their blocks. The terms sharing a flip mask are
        summed in term order, as :func:`pauli.group_by_flip` does, and scattered once per distinct
        flip: distinct flips fill distinct entries. 2^k sectors of 2^z Z-syndrome blocks
        of 2^(N-k-z) states hold 2^(2N-k-z) entries; above ``DENSE_STACK_CAP`` raises
        :class:`OracleError` before building anything 2^N wide."""
        n = self.num_sites - len(self.frame.sites)
        entries = 1 << (self.num_sites + n - len(_null_space([t.masks[0] for t in self.terms], n)))
        if entries > DENSE_STACK_CAP:
            raise OracleError(f"{self.num_sites} sites: {entries} stacked entries exceed the dense cap "
                              f"{DENSE_STACK_CAP}")
        blocks = symmetry_blocks(PauliSum(self.terms, n))
        local = np.concatenate(blocks)
        size = blocks[0].size
        position = np.argsort(local)
        row_start = np.arange(local.size) * size  # entry (b, r, c) of a sector's blocks is (b*size + r)*size + c
        real = all((t.coefficient * 1j ** (t.masks[0] & t.masks[1]).bit_count()).imag == 0 for t in self.terms)
        flat = np.zeros((self.num_sectors, local.size * size), dtype=float if real else complex)
        flips: dict[int, list] = {}  # flip mask -> [src, summed entries]
        for signs, term in zip(self.sector_signs.T, self.terms):
            src, phase = term.action
            entries = term.coefficient * phase[local]
            entries = signs[:, None] * (entries.real if real else entries)
            if term.masks[0] in flips:
                flips[term.masks[0]][1] += entries
            else:
                flips[term.masks[0]] = [src, entries]
        for src, entries in flips.values():  # distinct flips fill distinct entries: one scatter each
            flat[:, row_start + position[src[local]] % size] += entries
        return self.frame_index[:, local].ravel(), flat.reshape(-1, size, size)


_TAPERINGS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def taper(h: PauliSum) -> TaperedSum:
    """``h`` reduced through its :func:`tapering_frame`, verified, built once and returned for
    every ``PauliSum`` equal to ``h``."""
    tapered = _TAPERINGS.get(h)
    if tapered is None:
        tapered = _TAPERINGS[h] = TaperedSum.build(h, tapering_frame(h))
    return tapered


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenpairs kept as equal-size symmetry blocks: no 2^N x 2^N matrix.

    Row i of block b is basis state ``permutation[b * size + i]`` of the
    ``frame`` (the computational basis when the frame is the identity);
    ``order`` lists the flat block columns by ascending ``eigenvalues`` (ties
    in block order), the eigenvector order of :meth:`project` and
    :meth:`expand`.
    """

    permutation: np.ndarray
    block_vectors: np.ndarray  # (blocks, size, size), real when every block is
    order: np.ndarray
    eigenvalues: np.ndarray
    ground_degeneracy: int
    frame: TaperingFrame = TaperingFrame()
    _phase_tables: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def ground_energy(self) -> float:
        return float(self.eigenvalues[0])

    def project(self, v: np.ndarray) -> np.ndarray:
        """<n|v> for every eigenvector n; ``v`` may stack vectors along leading axes."""
        rows = self.frame.to_frame(v)[..., self.permutation]
        return self._through_blocks(rows, self.block_vectors.conj())[..., self.order]

    def expand(self, coords: np.ndarray) -> np.ndarray:
        """sum_n coords_n |n>, the inverse of :meth:`project`."""
        flat = np.empty_like(coords)
        flat[..., self.order] = coords
        blocked = self._through_blocks(flat, self.block_vectors.transpose(0, 2, 1))
        out = np.empty_like(blocked)
        out[..., self.permutation] = blocked
        return self.frame.from_frame(out)

    def _through_blocks(self, rows: np.ndarray, mats: np.ndarray) -> np.ndarray:
        """Rows in block layout times their blocks' matrices; real and imaginary parts in one matmul."""
        blocks, size, _ = mats.shape
        stacked = rows.reshape(-1, blocks, size).transpose(1, 0, 2)
        count = stacked.shape[1]
        parts = np.concatenate([stacked.real, stacked.imag], axis=1) @ mats
        out = parts[:, :count] + 1j * parts[:, count:]
        return out.transpose(1, 0, 2).reshape(*rows.shape[:-1], blocks * size)

    def phases(self, delta_t: float, count: int) -> np.ndarray:
        """Read-only table exp(-i E_n m dt), m = 0 .. count-1: the leading rows of one table per dt,
        rebuilt to ``count`` rows when a longer one is asked. Row m is the same whatever the count."""
        table = self._phase_tables.get(delta_t)
        if table is None or len(table) < count:
            table = np.exp(-1j * delta_t * np.outer(np.arange(count), self.eigenvalues))
            self._phase_tables[delta_t] = _read_only(table)
        return table[:count]

    def sector_ground_energies(self) -> np.ndarray:
        """The lowest eigenvalue of each of the frame's 2^k sector sums: :meth:`TaperedSum.block_stack`
        stacks the blocks sector by sector, so flat column j is in sector j // (2^N >> k)."""
        k = len(self.frame.sites)
        minima = np.full(1 << k, np.inf)
        np.minimum.at(minima, self.order // (self.order.size >> k), self.eigenvalues)
        return minima

    def ground_space(self) -> np.ndarray:
        """Orthonormal columns spanning the (near-)degenerate ground space."""
        return _read_only(self.expand(np.eye(self.ground_degeneracy, self.eigenvalues.size)).T)

    def ground_vector(self, near: np.ndarray | None = None) -> np.ndarray:
        """The ground state a comparison with ED uses: the ground eigenvector when it is unique,
        else the normalized projection of the state ``near`` onto the degenerate ground space, the
        member in its sector. Which member the eigensolver returns first is arbitrary (symmetry
        blocking changes it), so a degenerate ground space raises :class:`OracleError` without
        ``near``, and when the projection keeps less than 1 - 1e-8 of the weight of ``near``:
        that state lies outside the space."""
        space = self.ground_space()
        if self.ground_degeneracy == 1:
            return space[:, 0]
        if near is None:
            raise OracleError(
                f"ground space is {self.ground_degeneracy}-fold degenerate: pass the state to project onto it"
            )
        coords = space.conj().T @ near
        norm = np.linalg.norm(coords)
        weight = float((norm / np.linalg.norm(near)) ** 2)
        if weight < 1.0 - 1e-8:
            raise OracleError(
                f"the compared state keeps {weight:.10f} of its weight in the {self.ground_degeneracy}-fold "
                f"degenerate ED ground space at E0 = {self.ground_energy}, below 1 - 1e-8"
            )
        return space @ (coords / norm)

    @property
    def eigenvectors(self) -> np.ndarray:
        """Dense read-only view, columns ascending, built on each read: for tests and probes."""
        blocks, size, _ = self.block_vectors.shape
        column = np.argsort(self.order)
        dense = np.zeros((self.order.size,) * 2, dtype=self.block_vectors.dtype)
        dense[self.permutation.reshape(blocks, size, 1), column.reshape(blocks, 1, size)] = self.block_vectors
        return _read_only(self.frame.from_frame(dense.T).T)


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


_DECOMPOSITIONS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def symmetry_blocks(h: PauliSum) -> tuple[np.ndarray, ...]:
    """Basis indices of each block of ``h``'s Z-type symmetry sectors, the Z-type part of its group.

    A Z-string commutes with a term iff it shares an even number of sites
    with the term's X/Y flip mask, so the Z-strings commuting with all of
    ``h`` are the GF(2) null space of the flip masks. A basis state's
    parities under a basis of that space, its syndrome, are conserved by
    every term and label its block. Blocks come in ascending syndrome,
    indices ascending within each; with no symmetry there is one. Memoized
    on the terms' flip masks, which every field of a model shares.
    """
    return _syndrome_blocks(h.num_sites, tuple(t.masks[0] for t in h.terms))


@lru_cache(maxsize=16)
def _syndrome_blocks(n: int, flips: tuple[int, ...]) -> tuple[np.ndarray, ...]:
    index = np.arange(1 << n, dtype=np.int64)
    labels = np.zeros(1 << n, dtype=np.int64)
    for j, z_mask in enumerate(_null_space(flips, n)):
        labels |= (np.bitwise_count(index & z_mask) & 1).astype(np.int64) << j
    order = np.argsort(labels, kind="stable")
    return tuple(map(_read_only, np.split(order, np.flatnonzero(np.diff(labels[order])) + 1)))


def diagonalize(h: PauliSum) -> SpectralDecomposition:
    """Dense Hermitian eigensolution with degeneracy detection, computed once
    and returned, read-only, for every ``PauliSum`` equal to ``h``. Raises
    :class:`OracleError` above ``DENSE_STACK_CAP`` (:meth:`TaperedSum.block_stack`)."""
    if not h.is_hermitian():
        raise OracleError("diagonalize requires a Hermitian sum")
    decomp = _DECOMPOSITIONS.get(h)
    if decomp is None:
        decomp = _DECOMPOSITIONS[h] = _factorize_blocks(h)
    return decomp


def _factorize_blocks(h: PauliSum) -> SpectralDecomposition:
    """One batched ``eigh`` of the blocks of every sector sum of ``h`` (:meth:`TaperedSum.block_stack`)."""
    tapered = taper(h)
    permutation, stack = tapered.block_stack()
    block_evals, block_vectors = np.linalg.eigh(stack)
    order = np.argsort(block_evals.ravel(), kind="stable")
    evals = block_evals.ravel()[order]
    degeneracy = int(np.sum(evals <= evals[0] + DEGENERACY_GAP))
    arrays = map(_read_only, (permutation, block_vectors, order, evals))
    return SpectralDecomposition(*arrays, degeneracy, tapered.frame)


def completeness_certificate(h: PauliSum, decomp: SpectralDecomposition) -> dict:
    """Whether ``decomp`` holds the whole spectrum of ``h``, from the Pauli algebra alone.

    The blocks must fill all 2^N states, and the eigenvalues must give
    tr H = 2^N c_I and tr H^2 = 2^N sum_j |c_j|^2 (only the identity string
    has a trace, and distinct strings are trace-orthogonal), each to
    ``CERTIFICATE_TOLERANCE`` relative to 2^N sqrt(sum_j |c_j|^2) and
    2^N sum_j |c_j|^2 respectively. Every value is a plain Python number or bool.
    """
    dim = 1 << h.num_sites
    blocks, size, _ = decomp.block_vectors.shape
    identity = sum(t.coefficient.real for t in h.terms if set(t.axes) == {"I"})
    square = dim * sum(abs(t.coefficient) ** 2 for t in h.terms) or 1.0
    trace_deviation = abs(float(np.sum(decomp.eigenvalues)) - dim * identity) / float(np.sqrt(dim * square))
    square_deviation = abs(float(np.sum(decomp.eigenvalues**2)) - square) / square
    return {
        "dimension": dim,
        "block_dimension_sum": blocks * size,
        "trace_deviation": trace_deviation,
        "trace_square_deviation": square_deviation,
        "holds": blocks * size == dim and max(trace_deviation, square_deviation) <= CERTIFICATE_TOLERANCE,
    }


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
    (x - iy)/(x^2 + y^2) with x = Re z - pole_n, y = Im z.

    Weights of size at most eps^2 times their total are skipped: they are the
    roundoff of exact zeros, such as symmetry-forbidden Lehmann weights
    projected through the eigenvectors, and all of them together move the
    sum by far less than its own roundoff.
    """
    size = np.abs(weights)
    keep = size > np.finfo(float).eps ** 2 * np.sum(size)
    weights, poles = weights[keep], poles[keep]
    x, y = z.real[:, None] - poles, z.imag[:, None]
    inverse = x * x  # the (grid, poles) temporaries are reused in place
    inverse += y * y
    np.divide(1.0, inverse, out=inverse)
    parts = np.stack([np.real(weights), np.imag(weights)], axis=1)
    plain = y * (inverse @ parts)
    x *= inverse
    along_x = x @ parts
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

    ``ground_vector`` is the ground state to use, by default
    :meth:`SpectralDecomposition.ground_vector`, which refuses a degenerate
    ground space: a comparison passes ``decomp.ground_vector(near=...)`` of
    the state on the subspace-expansion side.
    """
    z = np.asarray(z_grid, dtype=complex)
    if np.any(z.imag == 0.0):
        raise OracleError("resolvent evaluation requires Im z != 0")
    gs = decomp.ground_vector() if ground_vector is None else ground_vector

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


def _dagger(term: PauliTerm) -> PauliTerm:
    return term.with_coefficient(np.conj(term.coefficient))
