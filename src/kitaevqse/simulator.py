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
:func:`cnot_depth` counts, in a compiled form: each operator compiles it
once, on its first trotter2 evolve, and fuses every maximal run of
consecutive Z-only rotations (the Z singles and the ZZ bonds, diagonal in
the computational basis) into one real exponent per unit time, applied as
one elementwise phase. The kernel, :func:`_evolve_trotter2`, evolves a stack
of states, each at its own time: every gate makes one pass over a chunk of
rows, an off-diagonal rotation one gather on the flattened chunk through its
term's action padded with the row bits. A chunk holds the largest power of
two of rows within ``STACK_AMPLITUDES`` = 4096 amplitudes: 16 rows at N=8,
where per-gate numpy overhead dominates, and one row from N=12 on, where a
gather over a two-row chunk already ran slower than two one-row passes
(0.8x at N=12). Each row gets exactly the arithmetic of rotating that state
alone, so a stacked row equals :func:`evolve` of it bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import groupby
from typing import Callable, Literal, NamedTuple, Sequence

import numpy as np

from .oracle import SpectralDecomposition, diagonalize
from .pauli import PauliSum, PauliTerm, apply_sum

EXPECTATION_IMAG_TOL = 1e-12  # relative imaginary residue <psi|H|psi> may carry
STACK_AMPLITUDES = 1 << 12  # amplitudes per stacked trotter2 gate pass; N >= 12 runs one row at a time


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

    ``term_ordering`` is the fixed group list used by the symmetrized
    product, :func:`grouped_by_axis` of the Hamiltonian, built on first read.
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

    @cached_property
    def term_ordering(self) -> list[list[PauliTerm]]:
        return grouped_by_axis(self.hamiltonian)

    def _eigendecomposition(self) -> SpectralDecomposition:
        if self._spectrum is None:
            self._spectrum = diagonalize(self.hamiltonian)
            self._eigenvalues = self._spectrum.eigenvalues
        return self._spectrum

    @cached_property
    def _fused_schedule(self) -> FusedSchedule:
        """:func:`fuse_diagonal_runs` of the unit-time schedule, compiled on first use."""
        return fuse_diagonal_runs(trotter_schedule(self, 1.0), self.hamiltonian.num_sites)


def _evolve_exact(op: EvolutionOperator, amplitudes: np.ndarray, t: float) -> np.ndarray:
    spectrum = op._eigendecomposition()
    return spectrum.expand(spectrum.project(amplitudes) * np.exp(-1j * t * spectrum.eigenvalues))


def trotter_schedule(op: EvolutionOperator, t: float) -> list[tuple[PauliTerm, float]]:
    """(term, angle) rotations of one trotter2 V(t), in the order they run.

    Per step: head groups, the last group at a doubled angle (the merged
    symmetrized middle pair), head groups reversed. One commuting group is
    exact at any r and runs once.

    The schedule is a palindrome of rotations, and the terms within a group
    commute, so reversing it equals negating every angle:
    V_r(-t) = V_r(t)^dag, hence <a|V(-t)|b> = conj(<b|V(t)|a>). HOA assembly
    (``qse.assemble_matrices``) evolves in one direction on that identity.

    Every angle is a fixed multiple of t (of tau = t/r), so the schedule at
    t is the schedule at t = 1 with its angles scaled by t; the fused form
    that :func:`_evolve_trotter2` runs is compiled once at t = 1 on that rule.
    """
    groups = op.term_ordering
    if len(groups) == 1:
        return [(term, 2.0 * t) for term in groups[0]]
    tau = t / op.trotter_steps
    head, middle = groups[:-1], groups[-1]
    step = [(term, tau) for group in head for term in group]
    step += [(term, 2.0 * tau) for term in middle]
    step += [(term, tau) for group in reversed(head) for term in group]
    return step * op.trotter_steps


class FusedSchedule(NamedTuple):
    """A unit-time rotation schedule in the form :func:`_evolve_trotter2` runs.

    ``gates`` holds, in order, an int per diagonal run (its index in
    ``exponents``) and, per off-diagonal rotation, its term's action padded
    to one chunk of rows (:func:`padded_action`). ``angles`` and
    ``coefficients`` hold each off-diagonal rotation's unit-time angle and
    real coefficient, in gate order.
    """

    gates: list[int | tuple[np.ndarray, np.ndarray | None]]
    exponents: list[np.ndarray]
    angles: np.ndarray
    coefficients: np.ndarray


def fuse_diagonal_runs(schedule: list[tuple[PauliTerm, float]], num_sites: int) -> FusedSchedule:
    """The :class:`FusedSchedule` of a unit-time rotation schedule.

    Each maximal run of consecutive Z-only rotations, which are diagonal and
    commute, becomes an int gate: the index of its real exponent
    d = sum_k (a_k c_k / 2) phase_k in ``exponents``, so the run at time t
    is exp(-i t d) elementwise. Runs of the same rotations share one exponent.
    A rotation whose flip mask is nonzero stays a gate of its own, and each
    distinct Pauli string is padded once.
    """
    rows = stack_rows(num_sites)
    gates: list[int | tuple[np.ndarray, np.ndarray | None]] = []
    runs: dict[tuple[tuple[PauliTerm, float], ...], int] = {}
    actions: dict[str, tuple[np.ndarray, np.ndarray | None]] = {}
    angles, coefficients = [], []
    for diagonal, run in groupby(schedule, key=lambda gate: gate[0].masks[0] == 0):
        if diagonal:
            gates.append(runs.setdefault(tuple(run), len(runs)))
            continue
        for term, angle in run:
            if term.axes not in actions:
                actions[term.axes] = padded_action(term, rows)
            gates.append(actions[term.axes])
            angles.append(angle)
            coefficients.append(term.coefficient.real)
    exponents = [sum(0.5 * angle * term.coefficient.real * term.action[1].real for term, angle in run) for run in runs]
    return FusedSchedule(gates, exponents, np.array(angles, dtype=float), np.array(coefficients, dtype=float))


def stack_rows(num_sites: int) -> int:
    """Rows per stacked gate pass: the largest power of two with rows * 2^N <= STACK_AMPLITUDES, at least one."""
    return max(1, STACK_AMPLITUDES >> num_sites)


def padded_action(term: PauliTerm, rows: int) -> tuple[np.ndarray, np.ndarray | None]:
    """``term.action`` as (rows, 2^N) arrays over a flattened chunk of rows.

    Row j reads row j of the chunk: src_pad[j] = (j << N) | src, and the
    phase is tiled per row. The phase is None for a string without Z or Y
    sites (sign mask 0), where it is +1 everywhere.
    """
    src, phase = term.action
    phase = None if term.masks[1] == 0 else phase[None, :]
    if rows == 1:
        return src[None, :], phase
    src = (np.arange(rows, dtype=np.int64)[:, None] << term.num_sites) | src
    src.flags.writeable = False
    if phase is not None:
        phase = np.tile(phase, (rows, 1))
        phase.flags.writeable = False
    return src, phase


def _evolve_trotter2(op: EvolutionOperator, amplitudes: np.ndarray, times: Sequence[float]) -> np.ndarray:
    """V(times[j]) applied to row j of a (k, 2^N) stack, as a new stack.

    Each gate of the compiled schedule makes one pass over a chunk of
    :func:`stack_rows` rows. Per row this is the arithmetic of
    :func:`_rotation_inplace`, theta = (0.5 * angle * t) * c and
    psi <- cos(theta) psi - i sin(theta) phase * psi[src], with the fused
    diagonal runs as exp(-i t d).
    """
    out = np.array(amplitudes, dtype=complex, order="C")
    times = np.asarray(times, dtype=float)
    schedule = op._fused_schedule
    rows = stack_rows(op.hamiltonian.num_sites)
    for start in range(0, len(out), rows):
        block, t = out[start:start + rows], times[start:start + rows, None]
        flat = block.reshape(-1)  # a view: the block is a run of C-ordered rows
        diagonals = [np.exp(-1j * t * d) for d in schedule.exponents]
        theta = 0.5 * (schedule.angles[:, None, None] * t) * schedule.coefficients[:, None, None]
        cos, minus_i_sin = np.cos(theta), -1j * np.sin(theta)
        if len(block) == 1:  # one row takes plain scalars, cheaper than a (1, 1) view per gate
            cos, minus_i_sin = cos.ravel().tolist(), minus_i_sin.ravel().tolist()
        rotations = zip(cos, minus_i_sin)  # one (cos, -i sin) per off-diagonal gate, in order
        for gate in schedule.gates:
            if isinstance(gate, int):
                block *= diagonals[gate]
            else:
                _rotate_rows(block, flat, *gate, *next(rotations))
    return out


def _rotate_rows(
    block: np.ndarray,
    flat: np.ndarray,
    src: np.ndarray,
    phase: np.ndarray | None,
    cos: np.ndarray,
    minus_i_sin: np.ndarray,
) -> None:
    """One off-diagonal rotation of every row of a (k, 2^N) block, in place.

    ``flat`` is the block's flattened view, which the padded action
    (:func:`padded_action`, at least k rows) gathers from; ``cos`` and
    ``minus_i_sin`` are (k, 1) columns, or scalars when k = 1.
    """
    k = len(block)
    rotated = flat[src[:k]]
    if phase is not None:
        rotated *= phase[:k]
    block *= cos
    rotated *= minus_i_sin
    block += rotated


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
