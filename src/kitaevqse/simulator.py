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
:func:`cnot_depth` counts: V_r(t) is one step (:func:`trotter_step`) run r
times at tau = t/r. The step is compiled once per Hamiltonian at unit tau
(:func:`compile_trotter2`, on the first trotter2 evolve of any operator of
an equal Hamiltonian), straight onto the Hamiltonian's Z-syndrome blocks
(``oracle.symmetry_blocks``; one block when it has no Z symmetry): every
maximal run of consecutive Z-only rotations (the Z singles and the ZZ bonds,
diagonal in the computational basis) becomes one elementwise phase, and
every other rotation a block-local gather. Every term maps each block onto
itself, and every flip permutes the local positions of all blocks alike
(:class:`BlockSchedule`). A row of the kernel, :func:`_evolve_trotter2`, is
two numbers on that one step: its step count r and tau = t/r, so a stack
evolves each state at its own time and step count, only on the blocks where
it has weight, as one block-local row per block it occupies. Rows are
ordered by step count, most first, and cut into chunks; step s makes one
pass per gate over the rows of a chunk that still run it. A rotation's
factors are fixed across a row's steps, so a chunk builds them once, one
table per distinct rotation, and every step reads them. Steps are closed:
V_r(t) is r runs of the compiled step, so it equals r one-step evolutions
at tau bit for bit. A chunk holds ``STACK_AMPLITUDES`` = 4096 amplitudes'
worth of rows, at least one: 64 rows of 64 at N=8 (4 blocks), 2 of 2048 at
N=12 (2 blocks), 1 of 16384 at N=16 (4 blocks). Each amplitude gets exactly
the arithmetic of rotating that state alone on the full register at its own
tau, with each step's maximal diagonal runs fused, and amplitudes off its
blocks stay +0.0, so a stacked row equals :func:`evolve` of it bit for bit,
whichever rows share its passes. Callers stack every state under one
Hamiltonian: ``qse.build_bases`` grows the subspaces of several references
and step counts, such as the QSE Trotter sweep or the Krylov seeds of one
field, through shared stacks.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from functools import partial
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

    Exact mode reads the Hamiltonian's eigendecomposition, built on first use
    and kept. Trotter2 mode keeps no state of its own: it runs the one step
    compiled for its Hamiltonian (:func:`compile_trotter2`), which every
    operator of an equal Hamiltonian shares at any step count.
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


def _evolve_exact(op: EvolutionOperator, amplitudes: np.ndarray, t: float) -> np.ndarray:
    spectrum = op._eigendecomposition()
    return spectrum.expand(spectrum.project(amplitudes) * np.exp(-1j * t * spectrum.eigenvalues))


def trotter_step(h: PauliSum) -> tuple[list[tuple[PauliTerm, float]], bool]:
    """(term, a) rotations of one trotter2 step of ``h`` at unit tau, in the order they run, and
    whether V_r(t) repeats the step r times at tau = t/r.

    The groups are :func:`grouped_by_axis` of ``h``: head groups at a = 1,
    the last group at a = 2 (the merged symmetrized middle pair), head groups
    reversed. One commuting group is exact at any r: its terms run at a = 2,
    once, at tau = t.
    """
    groups = grouped_by_axis(h)
    if len(groups) == 1:
        return [(term, 2.0) for term in groups[0]], False
    head, middle = groups[:-1], groups[-1]
    step = [(term, 1.0) for group in head for term in group]
    step += [(term, 2.0) for term in middle]
    step += [(term, 1.0) for group in reversed(head) for term in group]
    return step, True


def trotter_schedule(op: EvolutionOperator, t: float) -> list[tuple[PauliTerm, float]]:
    """(term, angle) rotations of one trotter2 V(t), in the order they run: :func:`trotter_step`
    r times at angles a * tau, tau = t/r, or once at tau = t when the step does not repeat.

    The schedule is a palindrome of rotations, and the terms within a group
    commute, so reversing it equals negating every angle:
    V_r(-t) = V_r(t)^dag, hence <a|V(-t)|b> = conj(<b|V(t)|a>). HOA assembly
    (``qse.assemble_matrices``) evolves in one direction on that identity.

    Every angle is a fixed multiple of tau, so the kernel,
    :func:`_evolve_trotter2`, runs the one compiled step at each row's tau.
    """
    step, repeats = trotter_step(op.hamiltonian)
    steps = op.trotter_steps if repeats else 1
    tau = t / steps
    return [(term, a * tau) for term, a in step] * steps


class BlockSchedule(NamedTuple):
    """One trotter2 step at unit tau, compiled onto the Z-syndrome blocks of its Hamiltonian.

    Row b of ``members`` lists block b's states in ascending order. Block b
    is the coset m_b ^ K of the syndrome-0 block K, m_b its smallest state,
    and XOR with m_b keeps K's order (the top bit of any k ^ k' in K is clear
    in m_b), so local position i holds m_b ^ K[i]. Every term's flip lies in
    K and so permutes the local positions of every block alike, and rows of
    different blocks share a gate pass. ``gates`` holds the step's gates in
    order: per maximal run of diagonal rotations, the index in ``exponents``
    of its exponent d per unit tau, and, per off-diagonal rotation, its local
    gather padded to a chunk of :func:`chunk_rows` rows, row j of the
    flattened chunk reading row j. The phases and exponents are
    ``(blocks, size)`` tables laid out as ``members``, row b
    holding block b's values in local order, so a chunk reads them as whole
    rows by block label; runs of the same rotations share one table.
    ``angles`` and ``coefficients`` hold each off-diagonal rotation's unit
    angle a (1, or 2 in the middle group) and real coefficient c, in gate
    order: a row at tau rotates by theta = 0.5 * (a * tau) * c and takes a
    run as exp(-i tau d). The next three fields dedup the rotations once, at
    compile time, so that a chunk builds each of its factor tables once
    (:func:`_run_chunk`): ``turns`` holds, per distinct (a, c), the position
    of its first off-diagonal gate, whose theta every gate of that turn
    shares; ``rotations`` lists each distinct (phase, turn), the pairs whose
    -i sin(theta) * phase tables are equal, phase the index in ``phases`` of
    the term's phase, None for a string without Z or Y sites (sign mask 0),
    where it is +1 everywhere (X strings of one turn share one);
    and ``slots`` gives each off-diagonal gate, in order, its (rotation,
    turn). ``repeats`` is false when V(t) runs the step once, at tau = t:
    for one commuting group, and for a step with no off-diagonal rotation,
    whose r steps are one diagonal run.
    """

    members: np.ndarray
    gates: list[int | np.ndarray]
    phases: list[np.ndarray]
    exponents: list[np.ndarray]
    angles: np.ndarray
    coefficients: np.ndarray
    turns: np.ndarray
    rotations: list[tuple[int | None, int]]
    slots: list[tuple[int, int]]
    repeats: bool


def chunk_rows(block_size: int) -> int:
    """Block-local rows per gate pass: rows * block_size <= STACK_AMPLITUDES, at least one."""
    return max(1, STACK_AMPLITUDES // block_size)


_COMPILED: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _compiled_step(h: PauliSum) -> BlockSchedule:
    """:func:`compile_trotter2` of ``h``, compiled once and returned for every ``PauliSum`` equal to ``h``."""
    schedule = _COMPILED.get(h)
    if schedule is None:
        schedule = _COMPILED[h] = compile_trotter2(h)
    return schedule


def compile_trotter2(h: PauliSum) -> BlockSchedule:
    """The :class:`BlockSchedule` of ``h``'s :func:`trotter_step` on its
    :func:`oracle.symmetry_blocks`.

    Each maximal run of consecutive Z-only rotations, which are diagonal and
    commute, becomes an int gate whose exponent per unit tau is
    d = sum_k (a_k c_k / 2) phase_k over its rotations in order, read at the
    blocks' states. A rotation whose flip mask is nonzero stays a gate of its
    own, whose local gather is its flip read on K through K's inverse position
    map, built once per distinct Pauli string, with its phase read at the
    blocks' states into a per-block table. Off-diagonal rotations of equal
    (a, c) share a turn, and those of equal phase and turn a rotation.
    """
    step, repeats = trotter_step(h)
    blocks = symmetry_blocks(h)
    kernel = blocks[0]
    size = kernel.size
    members = _read_only(np.stack(blocks))
    position = np.empty(kernel[-1] + 1, dtype=np.int64)
    position[kernel] = np.arange(size)
    padding = np.arange(chunk_rows(size), dtype=np.int64)[:, None] * size

    gates: list[int | np.ndarray] = []
    runs: dict[tuple[tuple[PauliTerm, float], ...], int] = {}
    actions: dict[str, tuple[np.ndarray, int | None]] = {}
    phases: list[np.ndarray] = []
    exponents: list[np.ndarray] = []
    angles, coefficients = [], []
    turns: dict[tuple[float, float], tuple[int, int]] = {}  # (a, c) -> (turn, its first off-diagonal gate)
    rotations: dict[tuple[int | None, int], int] = {}  # (phase, turn) -> rotation
    slots: list[tuple[int, int]] = []
    for diagonal, run in groupby(step, key=lambda gate: gate[0].masks[0] == 0):
        if diagonal:
            run = tuple(run)
            if run not in runs:
                runs[run] = len(exponents)
                d = sum(0.5 * a * term.coefficient.real * term.action[1].real for term, a in run)
                exponents.append(_read_only(d[members]))
            gates.append(runs[run])
            continue
        for term, a in run:
            if term.axes not in actions:
                src, phase = term.action
                local = _read_only(padding + position[src[kernel]])
                if term.masks[1] == 0:
                    actions[term.axes] = local, None
                else:
                    actions[term.axes] = local, len(phases)
                    phases.append(_read_only(phase[members]))
            gather, phase_index = actions[term.axes]
            gates.append(gather)
            c = term.coefficient.real
            turn = turns.setdefault((a, c), (len(turns), len(angles)))[0]
            slots.append((rotations.setdefault((phase_index, turn), len(rotations)), turn))
            angles.append(a)
            coefficients.append(c)
    return BlockSchedule(
        members, gates, phases, exponents, np.array(angles, dtype=float), np.array(coefficients, dtype=float),
        np.array([first for _, first in turns.values()], dtype=np.int64), list(rotations), slots,
        repeats and bool(angles),
    )


def _evolve_trotter2(
    op: EvolutionOperator | Sequence[EvolutionOperator], amplitudes: np.ndarray, times: Sequence[float]
) -> np.ndarray:
    """V(times[j]) applied to row j of a (k, 2^N) stack, as a new stack, under ``op``, or under
    op[j] when ``op`` holds one operator per row.

    Row j runs its Hamiltonian's one compiled step r_j times at
    tau_j = times[j] / r_j, r_j its operator's step count (or once at
    tau_j = times[j] when the step does not repeat). Each row is split into
    block-local rows, one per symmetry block where it has a nonzero
    amplitude; it stays zero on every other block. Block-local rows are
    ordered by step count, most first, and cut into chunks of
    :func:`chunk_rows` rows; step s makes one pass per gate over the rows of
    a chunk that still run it. Per amplitude this is the arithmetic of
    :func:`_rotation_inplace` under the row's own schedule,
    theta = 0.5 * (a * tau) * c and psi <- cos(theta) psi - i sin(theta)
    phase * psi[src], with each step's maximal diagonal runs fused as exp(-i tau d).
    """
    ops = [op] if isinstance(op, EvolutionOperator) else op
    hamiltonians = list({id(o.hamiltonian): o.hamiltonian for o in ops}.values())
    schedule = _compiled_step(hamiltonians[0])
    if any(_compiled_step(h) is not schedule for h in hamiltonians[1:]):
        raise SimulationError("the rows of one stack evolve under one Hamiltonian")
    steps = np.broadcast_to([o.trotter_steps if schedule.repeats else 1 for o in ops], len(amplitudes))
    members = schedule.members
    amplitudes = np.asarray(amplitudes, dtype=complex)
    tau = np.asarray(times, dtype=float) / steps
    rows, labels = np.nonzero((amplitudes != 0).take(members, axis=1).any(axis=2))
    order = np.argsort(-steps[rows], kind="stable")  # most steps first
    rows, labels = rows[order], labels[order]
    index = members[labels]
    local = amplitudes[rows[:, None], index]  # C-ordered (m, size): each chunk below is a run of whole rows
    per_chunk = chunk_rows(members.shape[1])
    for start in range(0, len(local), per_chunk):
        part = slice(start, start + per_chunk)
        t = tau[rows[part], None]  # one row's blocks share its tau
        one = rows[part][-1] == rows[start]  # a row's blocks are adjacent, so the chunk holds one row
        _run_chunk(schedule, local[part], t[:1] if one else t, labels[part], steps[rows[part]].tolist())
    out = np.zeros(amplitudes.shape, dtype=complex)
    out[rows[:, None], index] = local
    return out


def _run_chunk(
    schedule: BlockSchedule, chunk: np.ndarray, tau: np.ndarray, labels: np.ndarray, steps: list[int]
) -> None:
    """Every step of every row's schedule on a C-ordered chunk of block-local rows, in place: row j
    holds block labels[j] and runs steps[j] steps at tau[j, 0], or all rows are at tau[0, 0] when
    tau has one row. Rows come in descending step count, so the rows still running step s lead
    the chunk. Each step runs every gate of the compiled step.

    Nothing a rotation multiplies by changes across a row's steps, so the chunk builds its tables
    once, before step 0: exp(-i tau d) per exponent, cos(theta) per turn and
    -i sin(theta) * phase per rotation of :class:`BlockSchedule`, each row at its block's phases.
    Rows that leave the chunk leave these tables too, as slices. The tables are full-shape; a
    factor constant along the rows, cos(theta) and the phase-free -i sin(theta), is a plain scalar
    when the chunk is one row's blocks at one tau. -i sin(theta) * phase equals the two products
    in turn bit for bit, since the phase is exactly +-1 or +-i and -i sin(theta) is imaginary.
    """
    flat = chunk.reshape(-1)  # a view: the chunk is a run of C-ordered rows
    exponents = [np.exp(-1j * tau * d[labels]) for d in schedule.exponents]
    first = schedule.turns
    theta = 0.5 * (schedule.angles[first, None, None] * tau) * schedule.coefficients[first, None, None]
    # numpy would run a (k, 1) column as one inner loop per row on every pass
    constant = np.ndarray.item if len(tau) == 1 else partial(np.full, chunk.shape, dtype=complex)
    cos = [constant(c) for c in np.cos(theta)]
    minus_i_sin = -1j * np.sin(theta)
    tables = [
        constant(minus_i_sin[turn]) if phase is None else schedule.phases[phase][labels] * minus_i_sin[turn]
        for phase, turn in schedule.rotations
    ]
    factors = [(tables[rotation], cos[turn]) for rotation, turn in schedule.slots]  # one pair per off-diagonal gate
    active = len(chunk)
    for s in range(steps[0]):
        if steps[active - 1] <= s:  # rows past their last step leave the chunk's end (one row's blocks never do)
            active = sum(count > s for count in steps)
            chunk, exponents = chunk[:active], [d[:active] for d in exponents]
            factors = [(coefficient[:active], c[:active]) for coefficient, c in factors]
        rotations = iter(factors)
        for gate in schedule.gates:
            if isinstance(gate, int):
                chunk *= exponents[gate]
            else:
                _rotate_rows(chunk, flat, gate, *next(rotations))


def _rotate_rows(
    chunk: np.ndarray, flat: np.ndarray, src: np.ndarray, coefficient: np.ndarray | complex, cos: np.ndarray | float
) -> None:
    """One off-diagonal rotation of every row of a (k, size) chunk of block-local rows, in place:
    chunk <- cos * chunk + coefficient * P chunk.

    ``flat`` is the chunk's flattened view, which the padded local gather
    (:class:`BlockSchedule`, at least k rows) reads from; ``coefficient`` is
    the (k, size) table -i sin(theta) * phase and ``cos`` the table
    cos(theta), each a scalar when it is constant over the chunk; the chunk
    builds them once for all its steps (:func:`_run_chunk`).
    """
    rotated = flat[src[: len(chunk)]]
    rotated *= coefficient
    chunk *= cos
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
    if len(ops) == 0:
        raise SimulationError("a stack evolves under at least one operator")
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
