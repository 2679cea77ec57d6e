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
:func:`cnot_depth` counts, in a compiled form. V_r(t) runs one step r times,
so the step is compiled once per Hamiltonian for every r
(:func:`compile_trotter2`, on the first trotter2 evolve of any operator of
an equal Hamiltonian), straight onto the Hamiltonian's Z-syndrome blocks
(``oracle.symmetry_blocks``; one block when it has no Z symmetry): every
maximal run of consecutive Z-only rotations (the Z singles and the ZZ
bonds, diagonal in the computational basis) becomes one elementwise phase,
and every other rotation a block-local gather. Every term maps each block
onto itself, and every flip permutes the local positions of all blocks
alike (:class:`BlockSchedule`), and the compile step reads the phases into
one row per block. Each step count adds only its angles and its runs'
exponents (:class:`StepTables`); the Z singles that end one step and begin
the next fuse into one run. The kernel, :func:`_evolve_trotter2`, evolves a
stack of states, each at its own time and under its own step count, only on
the blocks where each has weight: a state is one block-local row per block
it occupies. Rows are ordered by step count, most first, and cut into
chunks; step s makes one pass per gate over the rows of a chunk that still
run it, an off-diagonal rotation one gather on the flattened chunk through
its term's local action padded with the row bits. A chunk holds
``STACK_AMPLITUDES`` = 4096 amplitudes' worth of rows, at least one: 64 rows
of 64 at N=8 (4 blocks), 2 of 2048 at N=12 (2 blocks), 1 of 16384 at N=16
(4 blocks). A state in one block, as every QSE ground-state basis state is,
so costs a quarter of the register's gate work at N=8 and N=16. Each
amplitude gets exactly the arithmetic of rotating that state alone on the
full register under its own schedule, with its maximal diagonal runs fused,
and amplitudes off its blocks stay +0.0, so a stacked row equals
:func:`evolve` of it bit for bit, whichever rows share its passes. Callers
stack every state under one Hamiltonian: ``qse.build_bases`` grows the
subspaces of several references and step counts, such as the QSE Trotter
sweep or the Krylov seeds of one field, through shared stacks.
"""

from __future__ import annotations

import weakref
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
    step count's :class:`StepTables` on the Hamiltonian's compiled step (one
    :class:`BlockSchedule` for every operator of an equal Hamiltonian); each
    is built on first use and kept.
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
    def _step_tables(self) -> StepTables:
        """This step count's tables on the Hamiltonian's compiled step (:func:`step_tables`), on first use."""
        step, steps = _one_step(trotter_schedule(self, 1.0), self.trotter_steps)
        return step_tables(_compiled_step(self.hamiltonian, step), step, steps)


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
    t is the schedule at t = 1 with its angles scaled by t; the kernel,
    :func:`_evolve_trotter2`, runs the t = 1 schedule on that rule, one
    step of it at a time (:func:`_one_step`).
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


def _one_step(schedule: list[tuple[PauliTerm, float]], steps: int) -> tuple[list[tuple[PauliTerm, float]], int]:
    """(first step, step count) of a schedule that runs one step ``steps`` times. A schedule that
    does not (one commuting group runs once at any r), or whose step holds no off-diagonal
    rotation (the whole schedule is one diagonal run), is one step."""
    size = len(schedule) // steps
    step = schedule[:size]
    if size * steps == len(schedule) and schedule[size:] == schedule[:-size] and any(t.masks[0] for t, _ in step):
        return step, steps
    return schedule, 1


class BlockSchedule(NamedTuple):
    """One trotter2 step compiled onto the Z-syndrome blocks of its Hamiltonian, for every step count.

    Row b of ``members`` lists block b's states in ascending order. Block b
    is the coset m_b ^ K of the syndrome-0 block K, m_b its smallest state,
    and XOR with m_b keeps K's order (the top bit of any k ^ k' in K is clear
    in m_b), so local position i holds m_b ^ K[i]. Every term's flip lies in
    K and so permutes the local positions of every block alike, and rows of
    different blocks share a gate pass. ``gates`` holds the step's gates in
    order: an int per maximal run of diagonal rotations (its index in
    ``runs``) and, per off-diagonal rotation, (src, phase): src the local
    gather padded to a chunk of :func:`chunk_rows` rows, row j of the
    flattened chunk reading row j, and phase the index in ``phases`` of the
    term's phase, None for a string without Z or Y sites (sign mask 0), where
    it is +1 everywhere. The phases are ``(blocks, size)`` tables laid out as
    ``members``, row b holding block b's values in local order, so a chunk
    reads them as whole rows by block label. ``runs`` holds each diagonal
    run's step positions, and ``rotations`` and ``coefficients`` each
    off-diagonal rotation's step position and real coefficient, in gate
    order: a step count's angles and exponents are read at those positions
    (:class:`StepTables`). With a ``boundary`` the step begins and ends with
    a diagonal run, and the last entry of ``runs`` is the trailing run
    followed by the leading one: the run that fuses two adjacent steps.
    """

    members: np.ndarray
    gates: list[int | tuple[np.ndarray, int | None]]
    phases: list[np.ndarray]
    runs: list[tuple[int, ...]]
    rotations: list[int]
    coefficients: np.ndarray
    boundary: bool


class StepTables(NamedTuple):
    """What one or more step counts run a :class:`BlockSchedule` with, stacked along a first axis
    of step counts: ``steps``, each count's number of steps; ``angles`` (counts, rotations), each
    off-diagonal rotation's unit-time angle; ``exponents``, distinct tables of the diagonal runs'
    exponents, each count's (blocks, size) table laid out as ``members`` and the counts' tables
    stacked, so count c reads block b at row c * blocks + b; schedule run i reads table
    ``runs[i]``."""

    schedule: BlockSchedule
    steps: np.ndarray
    angles: np.ndarray
    exponents: list[np.ndarray]
    runs: list[int]


def chunk_rows(block_size: int) -> int:
    """Block-local rows per gate pass: rows * block_size <= STACK_AMPLITUDES, at least one."""
    return max(1, STACK_AMPLITUDES // block_size)


_COMPILED: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _compiled_step(h: PauliSum, step: list[tuple[PauliTerm, float]]) -> BlockSchedule:
    """:func:`compile_trotter2` of one step's rotations on ``h``'s symmetry blocks, compiled once
    and returned for every ``PauliSum`` equal to ``h`` whose step runs the same Pauli strings,
    at any step count."""
    compiled = _COMPILED.setdefault(h, {})
    strings = tuple(term.axes for term, _ in step)
    if strings not in compiled:
        compiled[strings] = compile_trotter2([term for term, _ in step], symmetry_blocks(h))
    return compiled[strings]


def compile_trotter2(step: Sequence[PauliTerm], blocks: Sequence[np.ndarray]) -> BlockSchedule:
    """The :class:`BlockSchedule` of one step's rotations, in order, on ``blocks``,
    :func:`oracle.symmetry_blocks` of its Hamiltonian.

    Each maximal run of consecutive Z-only rotations, which are diagonal and
    commute, becomes an int gate; its exponent, the one number of the run that
    depends on the step count, is a :class:`StepTables` entry. A rotation whose
    flip mask is nonzero stays a gate of its own, whose local gather is its flip
    read on K through K's inverse position map, built once per distinct Pauli
    string, with its phase read at the blocks' states into a per-block table.
    """
    kernel = blocks[0]
    size = kernel.size
    members = _read_only(np.stack(blocks))
    position = np.empty(kernel[-1] + 1, dtype=np.int64)
    position[kernel] = np.arange(size)
    padding = np.arange(chunk_rows(size), dtype=np.int64)[:, None] * size
    gates: list[int | tuple[np.ndarray, int | None]] = []
    runs: list[tuple[int, ...]] = []
    actions: dict[str, tuple[np.ndarray, int | None]] = {}
    phases: list[np.ndarray] = []
    rotations, coefficients = [], []
    for diagonal, run in groupby(enumerate(step), key=lambda gate: gate[1].masks[0] == 0):
        if diagonal:
            gates.append(len(runs))
            runs.append(tuple(p for p, _ in run))
            continue
        for p, term in run:
            if term.axes not in actions:
                src, phase = term.action
                local = _read_only(padding + position[src[kernel]])
                if term.masks[1] == 0:
                    actions[term.axes] = local, None
                else:
                    actions[term.axes] = local, len(phases)
                    phases.append(_read_only(phase[members]))
            gates.append(actions[term.axes])
            rotations.append(p)
            coefficients.append(term.coefficient.real)
    boundary = len(gates) > 1 and isinstance(gates[0], int) and isinstance(gates[-1], int)
    if boundary:
        runs.append(runs[gates[-1]] + runs[gates[0]])
    return BlockSchedule(members, gates, phases, runs, rotations, np.array(coefficients, dtype=float), boundary)


def step_tables(schedule: BlockSchedule, step: list[tuple[PauliTerm, float]], steps: int) -> StepTables:
    """One step count's :class:`StepTables`: ``step`` the (term, unit-time angle) rotations that
    ``schedule`` compiles, run ``steps`` times. A run's exponent per unit time is
    d = sum_k (a_k c_k / 2) phase_k over its rotations in order, read at the blocks' states, so
    the run at time t is exp(-i t d) elementwise; runs of the same rotations at the same angles
    share one table."""
    exponents: list[np.ndarray] = []
    runs: list[int] = []
    tables: dict[tuple[tuple[PauliTerm, float], ...], int] = {}
    for run in schedule.runs:
        gates = tuple(step[p] for p in run)
        if gates not in tables:
            tables[gates] = len(exponents)
            d = sum(0.5 * angle * term.coefficient.real * term.action[1].real for term, angle in gates)
            exponents.append(_read_only(d[schedule.members]))
        runs.append(tables[gates])
    angles = np.array([[step[p][1] for p in schedule.rotations]], dtype=float)
    return StepTables(schedule, np.array([steps]), angles, exponents, runs)


def _stacked(tables: list[StepTables]) -> StepTables:
    """The tables of several step counts of one schedule as one, in order: each schedule run reads
    one stacked table per distinct combination of the counts' own."""
    if len(tables) == 1:
        return tables[0]
    if any(table.schedule is not tables[0].schedule for table in tables):
        raise SimulationError("the rows of one stack evolve under one Hamiltonian")
    combinations = list(zip(*(table.runs for table in tables)))
    distinct = list(dict.fromkeys(combinations))
    return StepTables(
        tables[0].schedule,
        np.concatenate([table.steps for table in tables]),
        np.concatenate([table.angles for table in tables]),
        [np.concatenate([table.exponents[i] for table, i in zip(tables, combination)]) for combination in distinct],
        [distinct.index(combination) for combination in combinations],
    )


def _evolve_trotter2(
    op: EvolutionOperator | Sequence[EvolutionOperator], amplitudes: np.ndarray, times: Sequence[float]
) -> np.ndarray:
    """V(times[j]) applied to row j of a (k, 2^N) stack, as a new stack, under ``op``, or under
    op[j] when ``op`` holds one operator per row.

    Each row is split into block-local rows, one per symmetry block where it
    has a nonzero amplitude; it stays zero on every other block. Block-local
    rows are ordered by step count, most first, and cut into chunks of
    :func:`chunk_rows` rows; step s of the compiled step makes one pass per
    gate over the rows of a chunk that still run it. Per amplitude this is
    the arithmetic of :func:`_rotation_inplace` under the row's own schedule,
    theta = (0.5 * angle * t) * c and psi <- cos(theta) psi - i sin(theta)
    phase * psi[src], with its maximal diagonal runs fused as exp(-i t d).
    """
    operators = [op] * len(amplitudes) if isinstance(op, EvolutionOperator) else op
    distinct: dict[int, tuple[int, EvolutionOperator]] = {}
    which = np.array([distinct.setdefault(id(o), (len(distinct), o))[0] for o in operators], dtype=np.intp)
    tables = _stacked([o._step_tables for _, o in distinct.values()])
    members = tables.schedule.members
    amplitudes, times = np.asarray(amplitudes, dtype=complex), np.asarray(times, dtype=float)
    rows, labels = np.nonzero((amplitudes != 0).take(members, axis=1).any(axis=2))
    order = np.argsort(-tables.steps[which[rows]], kind="stable")  # most steps first
    rows, labels = rows[order], labels[order]
    index = members[labels]
    local = amplitudes[rows[:, None], index]  # C-ordered (m, size): each chunk below is a run of whole rows
    per_chunk = chunk_rows(members.shape[1])
    for start in range(0, len(local), per_chunk):
        part = slice(start, start + per_chunk)
        t = times[rows[part], None]  # one row's blocks share its time
        one = rows[part][-1] == rows[start]  # a row's blocks are adjacent, so the chunk holds one row
        _run_chunk(tables, local[part], t[:1] if one else t, labels[part], which[rows[part]])
    out = np.zeros(amplitudes.shape, dtype=complex)
    out[rows[:, None], index] = local
    return out


def _run_chunk(tables: StepTables, chunk: np.ndarray, t: np.ndarray, labels: np.ndarray, which: np.ndarray) -> None:
    """Every step of every row's schedule on a C-ordered chunk of block-local rows, in place: row j
    holds block labels[j] at time t[j, 0], or all rows are at t[0, 0] when t has one row, and runs
    the step count of ``tables`` row which[j]. Rows come in descending step count, so the rows
    still running step s lead the chunk. Each row reads its block's row of the phase tables and
    its step count's angles and exponents. With a step boundary the leading run runs before step
    0 alone, and each row ends a step with the fused run, or with the trailing run after its last.
    """
    schedule = tables.schedule
    steps = tables.steps[which].tolist()
    flat = chunk.reshape(-1)  # a view: the chunk is a run of C-ordered rows
    exponent_rows = which * len(schedule.members) + labels
    diagonals = [np.exp(-1j * t * d[exponent_rows]) for d in tables.exponents]
    runs = [diagonals[i] for i in tables.runs]
    phases = [phase[labels] for phase in schedule.phases]
    theta = 0.5 * (tables.angles[which[: len(t)]].T[:, :, None] * t) * schedule.coefficients[:, None, None]
    cos, minus_i_sin = np.cos(theta), -1j * np.sin(theta)
    if len(t) == 1:  # one time takes plain scalars, cheaper than a (k, 1) column per gate
        cos, minus_i_sin = cos.ravel().tolist(), minus_i_sin.ravel().tolist()
    gates = schedule.gates[1:-1] if schedule.boundary else schedule.gates
    if schedule.boundary:
        chunk *= runs[schedule.gates[0]]
    active = len(chunk)
    for s in range(steps[0]):
        if steps[active - 1] <= s:  # rows past their last step leave the chunk's end (one row's blocks never do)
            active = sum(count > s for count in steps)
            chunk, cos, minus_i_sin = chunk[:active], cos[:, :active], minus_i_sin[:, :active]
            runs, phases = [d[:active] for d in runs], [phase[:active] for phase in phases]
        rotations = zip(cos, minus_i_sin)  # one (cos, -i sin) per off-diagonal gate, in order
        for gate in gates:
            if isinstance(gate, int):
                chunk *= runs[gate]
            else:
                src, phase = gate
                _rotate_rows(chunk, flat, src, None if phase is None else phases[phase], *next(rotations))
        if schedule.boundary:  # rows with another step fuse into it, the others end
            going = active if steps[active - 1] > s + 1 else sum(count > s + 1 for count in steps)
            if going == active:
                chunk *= runs[-1]
            else:
                chunk[:going] *= runs[-1][:going]
                chunk[going:] *= runs[schedule.gates[-1]][going:]


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


def evolve_stack(
    op: EvolutionOperator | Sequence[EvolutionOperator], amplitudes: np.ndarray, times: Sequence[float]
) -> np.ndarray:
    """V(times[j]) applied to row j of a (k, 2^N) stack of states; trotter2 mode only.

    ``op`` is the operator of every row, or a sequence of one operator per
    row: operators under one Hamiltonian, at any step counts. Row j equals
    ``evolve`` of that row at times[j] under its operator bit for bit; rows
    share each gate pass while both still have steps to run.
    """
    ops = [op] if isinstance(op, EvolutionOperator) else op
    if any(o.mode != "trotter2" for o in ops):
        raise SimulationError("stacked evolution runs the trotter2 circuit")
    amplitudes, n = np.asarray(amplitudes), ops[0].hamiltonian.num_sites
    if amplitudes.ndim != 2 or amplitudes.shape[1] != 1 << n:
        raise SimulationError(f"a stack of {n}-site states has shape (k, {1 << n}), not {amplitudes.shape}")
    if len(times) != len(amplitudes):
        raise SimulationError(f"{len(times)} times for {len(amplitudes)} states")
    if ops is op and len(ops) != len(amplitudes):
        raise SimulationError(f"{len(ops)} operators for {len(amplitudes)} states")
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
