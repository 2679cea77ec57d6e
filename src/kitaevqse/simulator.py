"""Statevector engine: rotations, expectations, time evolution.

Rotation convention: ``_rotation_inplace(amplitudes, term, angle)`` applies
``exp(-i * angle/2 * c * P)`` where ``P`` is the term's Pauli string and
``c`` its (real) coefficient. The full exponent prefactor is therefore
``angle * c / 2``; Trotter code folds coupling constants through ``c``.

Exact evolution uses the one eigendecomposition per Hamiltonian that
``oracle.diagonalize`` keeps (the ED side shares it), so repeated ``V(t)``
applications with many different ``t`` cost one projection onto its
symmetry blocks and one expansion back each, :func:`autocorrelations`
reads whole overlap sequences off the spectral weights of one state with
the decomposition's shared phase table, and :func:`evolved_superposition`
sums evolutions of one state at many times in one pass. Rotations use
each term's cached basis action (``PauliTerm.action``), and ``H|psi>`` the
sum's diagonal and flip-mask groups compiled from those actions
(``PauliSum.grouped_action``).

Trotter evolution runs :func:`trotter_schedule`, the logical gate list that
:func:`cnot_depth` counts, in a compiled form. Each operator compiles it in
one step, on its first trotter2 evolve (:func:`compile_trotter2`), straight
onto the Hamiltonian's Z-syndrome blocks (``oracle.symmetry_blocks``; one
block when it has no Z symmetry): every maximal run of consecutive Z-only
rotations (the Z singles and the ZZ bonds, diagonal in the computational
basis) becomes one real exponent per unit time, applied as one elementwise
phase, and every other rotation a block-local gather. Every term maps each
block onto itself, and every flip permutes the local positions of all
blocks alike (:class:`BlockSchedule`), and the compile step reads the
phases and exponents into one row per block. The kernel, :func:`_evolve_trotter2`,
evolves a stack of states, each at its own time, only on the blocks where
each has weight: a state is one block-local row per block it occupies, and
every gate makes one pass over a chunk of block-local rows, an off-diagonal
rotation one gather on the flattened chunk through its term's local action
padded with the row bits. A chunk holds ``STACK_AMPLITUDES`` = 4096
amplitudes' worth of rows, at least one: 64 rows of 64 at N=8 (4 blocks), 2
of 2048 at N=12 (2 blocks), 1 of 16384 at N=16 (4 blocks). A state in one
block, as every QSE ground-state basis state is, so costs a quarter of the
register's gate work at N=8 and N=16. Each amplitude gets exactly the
arithmetic of rotating that state alone on the full register, and
amplitudes off its blocks stay +0.0, so a stacked row equals
:func:`evolve` of it bit for bit. Callers stack every state that shares a
V(t): ``qse.build_bases`` grows the subspaces of several references, such
as the Krylov seeds of one field, through shared stacks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import groupby
from typing import Callable, Literal, NamedTuple, Sequence

import numpy as np

from .oracle import SpectralDecomposition, _read_only, diagonalize, symmetry_blocks
from .pauli import PauliSum, PauliTerm, apply_sum

EXPECTATION_IMAG_TOL = 1e-12  # relative imaginary residue <psi|H|psi> may carry
STACK_AMPLITUDES = 1 << 12  # amplitudes per trotter2 gate pass, in whole block-local rows (chunk_rows)


class SimulationError(ValueError):
    """Raised on contract violations in the statevector engine."""


@dataclass
class StateVector:
    """2^N complex amplitudes over an N-site register."""

    amplitudes: np.ndarray
    num_sites: int

    def __post_init__(self):
        self.amplitudes = np.asarray(self.amplitudes, dtype=complex)
        if self.amplitudes.shape != (1 << self.num_sites,):
            raise SimulationError(
                f"amplitude vector of length {self.amplitudes.size} does not match {self.num_sites} sites"
            )

    @classmethod
    def computational_basis(cls, num_sites: int, index: int = 0) -> "StateVector":
        amps = np.zeros(1 << num_sites, dtype=complex)
        amps[index] = 1.0
        return cls(amps, num_sites)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


def expectation(state: StateVector, h: PauliSum) -> float:
    """<state|H|state> for Hermitian H."""
    if not h.is_hermitian():
        raise SimulationError("expectation requires a Hermitian sum")
    value = complex(np.vdot(state.amplitudes, apply_sum(h, state.amplitudes)))
    if abs(value.imag) > EXPECTATION_IMAG_TOL * max(1.0, abs(value.real)):
        raise SimulationError(f"expectation has imaginary residue {value.imag:g}")
    return float(value.real)


def _rotation_inplace(
    amplitudes: np.ndarray, term: PauliTerm, angle: float, rotated: np.ndarray | None = None
) -> None:
    """``rotated``, when given, is the caller's coefficient-free P|amplitudes>."""
    theta = 0.5 * angle * term.coefficient.real
    if theta == 0.0:
        return
    if rotated is None:
        src, phase = term.action
        rotated = phase * amplitudes[src]
    amplitudes *= np.cos(theta)
    amplitudes -= 1j * np.sin(theta) * rotated


def grouped_by_axis(h: PauliSum) -> list[list[PauliTerm]]:
    """Trotter grouping: [X, Y and Z single-site terms, XX, YY and ZZ bonds], empty groups dropped.

    Every term of a group holds the same Pauli letter on each site it acts
    on, so the group's terms commute and it exponentiates exactly as a
    product of rotations. Falls back to one group per term for strings
    outside this shape.
    """
    groups: dict[tuple[int, str], list[PauliTerm]] = {(w, ch): [] for w in (1, 2) for ch in "XYZ"}
    leftovers: list[PauliTerm] = []
    for t in h.terms:
        kinds = {ch for ch in t.axes if ch != "I"}
        if t.weight in (1, 2) and len(kinds) == 1:
            groups[t.weight, kinds.pop()].append(t)
        else:
            leftovers.append(t)
    return [group for group in groups.values() if group] + [[t] for t in leftovers]


@dataclass
class EvolutionOperator:
    """Time evolution V(t) = exp(-i t H), exact or second-order Trotterized.

    Exact mode reads the Hamiltonian's eigendecomposition, trotter2 mode its
    :class:`BlockSchedule`; each is built on first use and kept.
    """

    hamiltonian: PauliSum
    mode: Literal["exact", "trotter2"] = "exact"
    trotter_steps: int = 1
    _eigenvalues: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)
    _spectrum: SpectralDecomposition | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.mode not in ("exact", "trotter2"):
            raise SimulationError(f"unknown evolution mode {self.mode!r}")
        if self.mode == "trotter2" and self.trotter_steps < 1:
            raise SimulationError("trotter2 requires at least one step")
        if not self.hamiltonian.is_hermitian():
            raise SimulationError("evolution requires a Hermitian Hamiltonian")
        if len(self.hamiltonian) == 0:
            raise SimulationError("evolution requires a non-empty Hamiltonian")

    def _eigendecomposition(self) -> SpectralDecomposition:
        if self._spectrum is None:
            self._spectrum = diagonalize(self.hamiltonian)
            self._eigenvalues = self._spectrum.eigenvalues
        return self._spectrum

    @cached_property
    def _block_schedule(self) -> BlockSchedule:
        """The unit-time schedule compiled onto the Hamiltonian's symmetry blocks, on first use."""
        return compile_trotter2(trotter_schedule(self, 1.0), symmetry_blocks(self.hamiltonian))


def _evolve_exact(op: EvolutionOperator, amplitudes: np.ndarray, t: float) -> np.ndarray:
    spectrum = op._eigendecomposition()
    return spectrum.expand(spectrum.project(amplitudes) * np.exp(-1j * t * spectrum.eigenvalues))


def trotter_schedule(op: EvolutionOperator, t: float) -> list[tuple[PauliTerm, float]]:
    """(term, angle) rotations of one trotter2 V(t), in the order they run.

    The groups are :func:`grouped_by_axis` of the Hamiltonian. Per step:
    head groups, the last group at a doubled angle (the merged symmetrized
    middle pair), head groups reversed. One commuting group is exact at any
    r and runs once.

    The schedule is a palindrome of rotations, and the terms within a group
    commute, so reversing it equals negating every angle:
    V_r(-t) = V_r(t)^dag, hence <a|V(-t)|b> = conj(<b|V(t)|a>). HOA assembly
    (``qse.assemble_matrices``) evolves in one direction on that identity.

    Every angle is a fixed multiple of t (of tau = t/r), so the schedule at
    t is the schedule at t = 1 with its angles scaled by t; the
    :class:`BlockSchedule` that :func:`_evolve_trotter2` runs is compiled
    once at t = 1 on that rule.
    """
    groups = grouped_by_axis(op.hamiltonian)
    if len(groups) == 1:
        return [(term, 2.0 * t) for term in groups[0]]
    tau = t / op.trotter_steps
    head, middle = groups[:-1], groups[-1]
    step = [(term, tau) for group in head for term in group]
    step += [(term, 2.0 * tau) for term in middle]
    step += [(term, tau) for group in reversed(head) for term in group]
    return step * op.trotter_steps


class BlockSchedule(NamedTuple):
    """A unit-time trotter2 schedule compiled onto the Z-syndrome blocks of its Hamiltonian.

    Row b of ``members`` lists block b's states in ascending order. Block b
    is the coset m_b ^ K of the syndrome-0 block K, m_b its smallest state,
    and XOR with m_b keeps K's order (the top bit of any k ^ k' in K is clear
    in m_b), so local position i holds m_b ^ K[i]. Every term's flip lies in
    K and so permutes the local positions of every block alike, and rows of
    different blocks share a gate pass. ``gates`` holds, in order, an int per
    diagonal run (its index in ``exponents``) and, per off-diagonal
    rotation, (src, phase): src the local gather padded to a chunk of
    :func:`chunk_rows` rows, row j of the flattened chunk reading row j, and
    phase the index in ``phases`` of the term's phase, None for a string
    without Z or Y sites (sign mask 0), where it is +1 everywhere. The
    phases and ``exponents`` are ``(blocks, size)`` tables laid out as
    ``members``, row b holding block b's values in local order, so a chunk
    reads them as whole rows by block label. ``angles`` and ``coefficients``
    hold each off-diagonal rotation's unit-time angle and real coefficient,
    in gate order.
    """

    members: np.ndarray
    gates: list[int | tuple[np.ndarray, int | None]]
    phases: list[np.ndarray]
    exponents: list[np.ndarray]
    angles: np.ndarray
    coefficients: np.ndarray


def chunk_rows(block_size: int) -> int:
    """Block-local rows per gate pass: rows * block_size <= STACK_AMPLITUDES, at least one."""
    return max(1, STACK_AMPLITUDES // block_size)


def compile_trotter2(schedule: list[tuple[PauliTerm, float]], blocks: Sequence[np.ndarray]) -> BlockSchedule:
    """The :class:`BlockSchedule` of a unit-time rotation schedule on ``blocks``,
    :func:`oracle.symmetry_blocks` of its Hamiltonian.

    Each maximal run of consecutive Z-only rotations, which are diagonal and
    commute, becomes an int gate: the index of its real exponent
    d = sum_k (a_k c_k / 2) phase_k in ``exponents``, so the run at time t
    is exp(-i t d) elementwise. Runs of the same rotations share one exponent.
    A rotation whose flip mask is nonzero stays a gate of its own, whose local
    gather is its flip read on K through K's inverse position map, built once
    per distinct Pauli string. Exponents and phases are read at the blocks'
    states once, here, into per-block tables.
    """
    kernel = blocks[0]
    size = kernel.size
    members = _read_only(np.stack(blocks))
    position = np.empty(kernel[-1] + 1, dtype=np.int64)
    position[kernel] = np.arange(size)
    padding = np.arange(chunk_rows(size), dtype=np.int64)[:, None] * size
    gates: list[int | tuple[np.ndarray, int | None]] = []
    runs: dict[tuple[tuple[PauliTerm, float], ...], int] = {}
    actions: dict[str, tuple[np.ndarray, int | None]] = {}
    phases: list[np.ndarray] = []
    angles, coefficients = [], []
    for diagonal, run in groupby(schedule, key=lambda gate: gate[0].masks[0] == 0):
        if diagonal:
            gates.append(runs.setdefault(tuple(run), len(runs)))
            continue
        for term, angle in run:
            if term.axes not in actions:
                src, phase = term.action
                local = _read_only(padding + position[src[kernel]])
                if term.masks[1] == 0:
                    actions[term.axes] = local, None
                else:
                    actions[term.axes] = local, len(phases)
                    phases.append(_read_only(phase[members]))
            gates.append(actions[term.axes])
            angles.append(angle)
            coefficients.append(term.coefficient.real)
    exponents = [
        _read_only(sum(0.5 * angle * term.coefficient.real * term.action[1].real for term, angle in run)[members])
        for run in runs
    ]
    return BlockSchedule(
        members, gates, phases, exponents, np.array(angles, dtype=float), np.array(coefficients, dtype=float)
    )


def _evolve_trotter2(op: EvolutionOperator, amplitudes: np.ndarray, times: Sequence[float]) -> np.ndarray:
    """V(times[j]) applied to row j of a (k, 2^N) stack, as a new stack.

    Each row is split into block-local rows, one per symmetry block where it
    has a nonzero amplitude; it stays zero on every other block. Every gate
    of the operator's :class:`BlockSchedule` makes one pass over a chunk of
    :func:`chunk_rows` block-local rows. Per amplitude this is the
    arithmetic of :func:`_rotation_inplace`, theta = (0.5 * angle * t) * c
    and psi <- cos(theta) psi - i sin(theta) phase * psi[src], with the
    fused diagonal runs as exp(-i t d).
    """
    schedule = op._block_schedule
    amplitudes, times = np.asarray(amplitudes, dtype=complex), np.asarray(times, dtype=float)
    rows, labels = np.nonzero((amplitudes != 0).take(schedule.members, axis=1).any(axis=2))
    index = schedule.members[labels]
    local = amplitudes[rows[:, None], index]  # C-ordered (m, size): each chunk below is a run of whole rows
    step = chunk_rows(schedule.members.shape[1])
    for start in range(0, len(local), step):
        part = slice(start, start + step)
        t = times[rows[part], None]  # one row's blocks share its time
        _run_chunk(schedule, local[part], t[:1] if rows[part][-1] == rows[start] else t, labels[part])
    out = np.zeros(amplitudes.shape, dtype=complex)
    out[rows[:, None], index] = local
    return out


def _run_chunk(schedule: BlockSchedule, chunk: np.ndarray, t: np.ndarray, labels: np.ndarray) -> None:
    """Every gate of ``schedule`` on a C-ordered chunk of block-local rows, in place: row j holds
    block labels[j] at time t[j, 0], or all rows are at t[0, 0] when t has one row. Each row reads
    its block's row of the phase and exponent tables."""
    flat = chunk.reshape(-1)  # a view: the chunk is a run of C-ordered rows
    diagonals = [np.exp(-1j * t * d[labels]) for d in schedule.exponents]
    phases = [phase[labels] for phase in schedule.phases]
    theta = 0.5 * (schedule.angles[:, None, None] * t) * schedule.coefficients[:, None, None]
    cos, minus_i_sin = np.cos(theta), -1j * np.sin(theta)
    if len(t) == 1:  # one time takes plain scalars, cheaper than a (k, 1) column per gate
        cos, minus_i_sin = cos.ravel().tolist(), minus_i_sin.ravel().tolist()
    rotations = zip(cos, minus_i_sin)  # one (cos, -i sin) per off-diagonal gate, in order
    for gate in schedule.gates:
        if isinstance(gate, int):
            chunk *= diagonals[gate]
        else:
            src, phase = gate
            _rotate_rows(chunk, flat, src, None if phase is None else phases[phase], *next(rotations))


def _rotate_rows(
    chunk: np.ndarray,
    flat: np.ndarray,
    src: np.ndarray,
    phase: np.ndarray | None,
    cos: np.ndarray,
    minus_i_sin: np.ndarray,
) -> None:
    """One off-diagonal rotation of every row of a (k, size) chunk of block-local rows, in place.

    ``flat`` is the chunk's flattened view, which the padded local gather
    (:class:`BlockSchedule`, at least k rows) reads from; ``phase`` is
    (k, size); ``cos`` and ``minus_i_sin`` are (k, 1) columns, or scalars
    when the rows share one time.
    """
    k = len(chunk)
    rotated = flat[src[:k]]
    if phase is not None:
        rotated *= phase
    chunk *= cos
    rotated *= minus_i_sin
    chunk += rotated


def evolve(state: StateVector, op: EvolutionOperator, t: float) -> StateVector:
    """Apply V(t) to the state with the operator's configured backend."""
    if state.num_sites != op.hamiltonian.num_sites:
        raise SimulationError("state and Hamiltonian register sizes differ")
    if op.mode == "exact":
        out = _evolve_exact(op, state.amplitudes, t)
    else:
        out = _evolve_trotter2(op, state.amplitudes[None, :], [t])[0]
    return StateVector(out, state.num_sites)


def evolve_stack(op: EvolutionOperator, amplitudes: np.ndarray, times: Sequence[float]) -> np.ndarray:
    """V(times[j]) applied to row j of a (k, 2^N) stack of states; trotter2 mode only.

    Row j equals ``evolve`` of that row at times[j] bit for bit; rows that
    share the circuit share each gate pass.
    """
    if op.mode != "trotter2":
        raise SimulationError("stacked evolution runs the trotter2 circuit")
    amplitudes, n = np.asarray(amplitudes), op.hamiltonian.num_sites
    if amplitudes.ndim != 2 or amplitudes.shape[1] != 1 << n:
        raise SimulationError(f"a stack of {n}-site states has shape (k, {1 << n}), not {amplitudes.shape}")
    if len(times) != len(amplitudes):
        raise SimulationError(f"{len(times)} times for {len(amplitudes)} states")
    return _evolve_trotter2(op, amplitudes, times)


def evolve_times(op: EvolutionOperator, state: StateVector, times: Sequence[float]) -> np.ndarray:
    """V(t_j)|state> for many times at once; exact mode only.

    Returns a (len(times), 2^N) array: one projection and one batched
    expansion, however many times are requested.
    """
    if op.mode != "exact":
        raise SimulationError("batched evolution is an exact-mode shortcut")
    spectrum = op._eigendecomposition()
    phases = np.exp(-1j * np.outer(np.asarray(times, dtype=float), spectrum.eigenvalues))
    return spectrum.expand(phases * spectrum.project(state.amplitudes))


def evolved_superposition(
    op: EvolutionOperator, state: StateVector, delta_t: float, steps: np.ndarray, coefficients: np.ndarray
) -> StateVector:
    """sum_j coefficients_j V(m_j dt)|state> in one spectral pass; exact mode only.

    U ((U^dag state) * sum_j coefficients_j exp(-i E m_j dt)): one projection and
    one expansion however many times are summed, and no evolved state is formed.
    Its phases are rows of the Toeplitz assembly's table, conjugated for m_j < 0.
    """
    if op.mode != "exact":
        raise SimulationError("a one-pass superposition of evolutions needs exact evolution")
    spectrum = op._eigendecomposition()
    table = spectrum.phases(delta_t, 2 * int(np.max(np.abs(steps))) + 1)[np.abs(steps)]
    phases = np.where(np.asarray(steps)[:, None] < 0, table.conj(), table)
    coords = spectrum.project(state.amplitudes) * (np.asarray(coefficients) @ phases)
    return StateVector(spectrum.expand(coords), state.num_sites)


def autocorrelations(
    op: EvolutionOperator,
    state: StateVector,
    delta_t: float,
    count: int,
    spectral_filter: Callable[[np.ndarray], np.ndarray],
) -> tuple[np.ndarray, np.ndarray]:
    """(c, h) with c_m = <state|V(m dt)|state> and h_m = <state|f(H) V(m dt)|state>
    for m = 0 .. count-1; exact mode only.

    Both come from the spectral weights w_n = |<n|state>|^2 in the
    operator's eigenbasis: c_m = sum_n w_n exp(-i E_n m dt) and h_m the
    same sum with w_n f(E_n), so no state is evolved and H is never applied.
    """
    if op.mode != "exact":
        raise SimulationError("autocorrelations from spectral weights need exact evolution")
    spectrum = op._eigendecomposition()
    weights = np.abs(spectrum.project(state.amplitudes)) ** 2
    phases = spectrum.phases(delta_t, count)
    return phases @ weights, phases @ (weights * spectral_filter(spectrum.eigenvalues))


def cnot_depth(op: EvolutionOperator, n_l: int) -> tuple[int, int]:
    """(CNOT layer count, CNOT gate count) for the Trotterized circuit.

    Counted on :func:`trotter_schedule`: a weight-w rotation is a ladder of
    2(w - 1) CNOTs starting on the first layer where all its sites are free;
    10r layers and 5Nr CNOTs per V(t) on the honeycomb Hamiltonian. Layers
    scale with the deepest multigrid chain, n_l + 1 applications.
    """
    if op.mode != "trotter2":
        raise SimulationError("gate counts are defined for trotter2 mode only")
    if n_l < 0:
        raise SimulationError("n_l must be non-negative")
    free = np.zeros(op.hamiltonian.num_sites, dtype=int)  # first free CNOT layer per site
    cnots = 0
    for term, _ in trotter_schedule(op, 1.0):
        sites = list(term.support())
        ladder = 2 * (len(sites) - 1)
        if ladder > 0:
            free[sites] = free[sites].max() + ladder
            cnots += ladder
    return int(free.max()) * (n_l + 1), cnots
