"""Dense and unfused reference constructions shared by the tests."""

from itertools import groupby

import numpy as np

from kitaevqse.oracle import taper
from kitaevqse.simulator import EvolutionOperator, _rotation_inplace, evolve_times, trotter_schedule

_SINGLE_MATRICES = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def term_to_matrix(term) -> np.ndarray:
    """Dense matrix of one Pauli term as a Kronecker product, site 0 leftmost,
    independent of the package's basis-action kernel."""
    mat = np.ones((1, 1), dtype=complex)
    for ch in term.axes:
        mat = np.kron(mat, _SINGLE_MATRICES[ch])
    return term.coefficient * mat


def dense_matrix(h) -> np.ndarray:
    """Dense matrix of a Pauli sum from :func:`term_to_matrix`."""
    return sum(term_to_matrix(term) for term in h.terms)


def z_blocked_factorization(h) -> tuple[np.ndarray, ...]:
    """(permutation, block_vectors, order, eigenvalues) of the factorization on Z-syndrome
    blocks alone, written out independently of the package: the numpy reduced row echelon
    form of the flip masks, blocks filled from the basis actions and one batched eigh."""
    n = h.num_sites
    rows = np.array([[ch in "XY" for ch in t.axes] for t in h.terms], dtype=bool).reshape(-1, n)
    pivots = []
    for col in range(n):
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
    bit_of_site = 1 << np.arange(n - 1, -1, -1, dtype=np.int64)
    for j, free in enumerate(c for c in range(n) if c not in pivots):
        sites = [free] + [p for i, p in enumerate(pivots) if rows[i, free]]
        labels |= (np.bitwise_count(index & int(bit_of_site[sites].sum())) & 1).astype(np.int64) << j
    permutation = np.argsort(labels, kind="stable")
    count = len(np.unique(labels))
    size = permutation.size // count
    position = np.argsort(permutation)
    block, row = np.divmod(np.arange(permutation.size), size)
    stack = np.zeros((count, size, size), dtype=complex)
    for term in h.terms:
        src, phase = term.action
        stack[block, row, position[src[permutation]] % size] += term.coefficient * phase[permutation]
    if np.max(np.abs(stack.imag)) <= 1e-14 * max(1.0, np.max(np.abs(stack.real))):
        stack = np.ascontiguousarray(stack.real)
    block_evals, block_vectors = np.linalg.eigh(stack)
    order = np.argsort(block_evals.ravel(), kind="stable")
    return permutation, block_vectors, order, block_evals.ravel()[order]


def batched_sector_minima(h0) -> np.ndarray:
    """The lowest eigenvalue of each sector sum of ``h0``'s tapered frame from one batched
    ``eigvalsh`` of its block stack, apart from any eigenvector solve: the sector ranking's
    reference."""
    tapered = taper(h0)
    _, stack = tapered.block_stack()
    return np.linalg.eigvalsh(stack)[:, 0].reshape(tapered.num_sectors, -1).min(axis=1)


def trotter_rotation_by_rotation(op, amplitudes: np.ndarray, t: float) -> np.ndarray:
    """trotter2 V(t)|amplitudes> from :func:`simulator.trotter_schedule` at time t, one
    rotation per scheduled gate: the unfused reference for the compiled schedule."""
    out = np.array(amplitudes, dtype=complex)
    for term, angle in trotter_schedule(op, t):
        _rotation_inplace(out, term, angle)
    return out


def full_register_trotter2(op, amplitudes: np.ndarray, times) -> np.ndarray:
    """trotter2 V(times[j]) on row j of a (k, 2^N) stack under ``op``, or under op[j] when it holds
    one operator per row: the bit-for-bit reference for the block-local kernel, read off
    :func:`simulator.trotter_schedule` alone. One step at tau = 1 is the one-step schedule at t = 1,
    whose angles are the unit angles a; a row runs it r times at tau = t/r, r the length of its
    operator's schedule over the step's, on the full register. Its steps are one gate list, so a
    step's trailing Z singles fuse with the next step's leading ones: every maximal run of
    consecutive Z-only rotations is one phase exp(-i tau d) with d = sum_k (a_k c_k / 2) phase_k,
    and every other rotation one gather through its term's action, theta = 0.5 * (a * tau) * c.
    Steps with no off-diagonal rotation are one diagonal run, taken once at tau = t."""
    operators = [op] * len(amplitudes) if isinstance(op, EvolutionOperator) else op
    out = np.array(amplitudes, dtype=complex)
    for row, operator, t in zip(out[:, None], operators, times):
        step = trotter_schedule(EvolutionOperator(operator.hamiltonian, "trotter2"), 1.0)
        steps = len(trotter_schedule(operator, 1.0)) // len(step)
        if not any(term.masks[0] for term, _ in step):
            steps = 1
        tau = np.array([[t / steps]], dtype=float)
        for diagonal, run in groupby(step * steps, key=lambda gate: gate[0].masks[0] == 0):
            run = list(run)
            if diagonal:
                row *= np.exp(-1j * tau * sum(0.5 * a * term.coefficient.real * term.action[1].real for term, a in run))
                continue
            angles, coefficients = (np.array(column, dtype=float) for column in zip(*((a, term.coefficient.real)
                                                                                        for term, a in run)))
            theta = 0.5 * (angles * tau) * coefficients
            for (term, _), c, minus_i_s in zip(run, np.cos(theta).ravel().tolist(), (-1j * np.sin(theta)).ravel().tolist()):
                src, phase = term.action
                rotated = row[:, src] * phase
                row *= c
                rotated *= minus_i_s
                row += rotated
    return out


def basis_size(n_k: int, n_l: int) -> int:
    """The multigrid's state count, 2(n_l+1)(n_k+1) - 1: n_k + 1 per l != 0, 2 n_k + 1 at l = 0."""
    return 2 * (n_l + 1) * (n_k + 1) - 1


def basis_states(basis) -> np.ndarray:
    """(n_phi, 2^N) basis states V(t_b)|ref> in index order: a trotter2 basis's own stack, or,
    for an exact basis, which holds none, one batched exact evolution at the grid times."""
    if basis.amplitudes is not None:
        return basis.amplitudes
    return evolve_times(basis.evolution, basis.reference, basis.delta_t * basis.steps)
