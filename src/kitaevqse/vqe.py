"""Symmetry-guided variational ground-state preparation at zero field.

The circuit is built from two-site bond operators, which centralize the
plaquette/loop stabilizer group, so training never leaves the prepared
symmetry sector. One independent angle per bond per layer; within a
layer the sweep order is X-bonds, Y-bonds, Z-bonds in lattice bond
order.

Training runs in one symmetry sector of H0's tapered frame
(:func:`oracle.taper`): the Clifford that takes each plaquette/loop
generator to a single-qubit Z. Every bond string commutes with those
generators, so in the frame it is a signed Pauli string on the N - k
untapered qubits, and the sector of the initial state is a
2^(N-k) = 2^(N/2-1)-dimensional space that the bond strings keep.
:class:`SectorSpan` takes each string and H0 there as d x d matrices and runs
the adjoint sweep on them one run of commuting strings at a time, in each
run's joint eigenbasis; BFGS (:func:`_bfgs_minimize`) trains on that sweep
with no step size to tune. Only mapping the initial state into the frame
touches 2^N amplitudes. A depth-d circuit is one layer repeated d times, so
every depth of a sweep trains on one :class:`SectorProblem`: the winning
sector, its state and its span are built once, and each depth's span is
tiled from them. :meth:`AnsatzCircuit.apply` and
:meth:`AnsatzCircuit.energy_and_gradient` stay full-space; the trained state
and its infidelity come from ``apply``.

Choosing the sector is a spectral question, not an optimization one. H0
commutes with every plaquette and loop (Kitaev, Ann. Phys. 321, 2 (2006)),
so every sector of the frame has an exact ground energy, read off the
oracle's factorization of H0 (:meth:`oracle.SpectralDecomposition.sector_ground_energies`).
Each candidate sector (both uniform plaquette signs crossed with the four
loop-sign pairs) is mapped to its frame sector, the lowest-energy candidate
is the only one trained, and the ranking raises when no candidate reaches
the lowest energy of all sectors, which would leave the ground state out of
reach. Lieb's theorem fixes the flux sector only in the thermodynamic limit;
on the shipped tori the winner is size-dependent and has to be computed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from . import oracle, pauli
from .lattice import HoneycombLattice, StabilizerGroup, stabilizer_group
from .oracle import SpectralDecomposition, ground_space_fidelity
from .pauli import PauliSum, PauliTerm, commutes
from .simulator import StateVector, _rotation_inplace, expectation


# Training stops at the first energy-and-gradient evaluation whose running
# best is at most this fraction of max(1, |target|) above the target.
TARGET_TOLERANCE = 1e-12

# Each restricted string must be this close to a diagonal of +-1 in its
# commuting run's joint eigenbasis, and the initial state may have at most
# this weight (relative squared norm) outside its sector of the frame.
INVARIANCE_TOLERANCE = 1e-12

# A scored reference is converged when its energy is this close to the exact ground energy.
CONVERGENCE_TOLERANCE = 1e-8

# numpy's SeedSequence (a pool of four 32-bit words) and PCG64 (128-bit LCG, XSL-RR output)
_MASK32, _MASK64, _MASK128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
_PCG64_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645


class VqeError(RuntimeError):
    pass


@dataclass(frozen=True)
class AnsatzCircuit:
    """Layered bond-rotation circuit with one angle per bond per layer."""

    num_sites: int
    layers: int
    generators: tuple[PauliTerm, ...]

    @classmethod
    def for_lattice(cls, lat: HoneycombLattice, layers: int) -> "AnsatzCircuit":
        n = lat.num_sites
        layer = tuple(pauli.two_site(kind.upper(), u, v, n) for kind in "xyz" for u, v in lat.bonds(kind))
        for gen in layer:
            for s in lat.stabilizer_strings:
                if not commutes(gen, s):
                    raise VqeError(f"generator {gen} does not centralize the stabilizer group")
        return cls(num_sites=n, layers=1, generators=layer).repeated(layers)

    def repeated(self, times: int) -> "AnsatzCircuit":
        """This circuit run ``times`` times over; of a one-layer circuit, the ``times``-layer one."""
        if times < 0:
            raise VqeError("layer count must be non-negative")
        return AnsatzCircuit(self.num_sites, self.layers * times, self.generators * times)

    @property
    def num_parameters(self) -> int:
        return len(self.generators)

    @property
    def distinct_generators(self) -> list[PauliTerm]:
        """The first generator with each Pauli string, in circuit order."""
        return list({gen.axes: gen for gen in self.generators}.values())

    def apply(self, parameters: np.ndarray, state: StateVector) -> StateVector:
        parameters = np.asarray(parameters, dtype=float)
        if parameters.shape != (self.num_parameters,):
            raise VqeError(f"expected {self.num_parameters} parameters, got {parameters.shape}")
        amps = state.amplitudes.copy()
        for gen, theta in zip(self.generators, parameters):
            _rotation_inplace(amps, gen, theta)
        return StateVector(amps, state.num_sites)

    def energy_and_gradient(
        self, parameters: np.ndarray, h: PauliSum, state: StateVector
    ) -> tuple[float, np.ndarray]:
        """Adjoint-mode energy gradient in the full space: one forward pass, one reverse sweep.

        The reference for the sweep that training runs,
        :meth:`SectorSpan.energy_and_gradient`, which takes the rotations a
        commuting run at a time on the d x d sector of the frame; tests and the
        benchmark's tracer and layer probe call this one.
        """
        parameters = np.asarray(parameters, dtype=float)
        psi = self.apply(parameters, state).amplitudes
        lam = pauli.apply_sum(h, psi)
        energy = float(np.real(np.vdot(psi, lam)))
        grads = np.zeros(self.num_parameters)
        for k in range(self.num_parameters - 1, -1, -1):
            gen, theta = self.generators[k], parameters[k]
            # one gather of G|psi> (coefficient excluded) serves the gradient
            # and the un-rotation of psi
            src, phase = gen.action
            rotated = phase * psi[src]
            grads[k] = 2.0 * np.real(np.vdot(lam, -0.5j * (gen.coefficient * rotated)))
            _rotation_inplace(psi, gen, -theta, rotated)
            _rotation_inplace(lam, gen, -theta)
        return energy, grads


def commuting_runs(terms: Sequence[PauliTerm]) -> list[int]:
    """Start index of each maximal run of consecutive, pairwise commuting strings, left to right."""
    starts = [0]
    for k in range(1, len(terms)):
        if not all(commutes(terms[k], t) for t in terms[starts[-1]:k]):
            starts.append(k)
    return starts


def joint_eigenbasis(strings: Sequence[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """(W, signs) with W^† g_j W = diag(signs[j]) for commuting restricted strings g_j.

    W comes from ``eigh`` of sum_j 2^j g_j: each sign pattern of the g_j gives
    that sum its own eigenvalue, so every eigenspace is a joint one. Raises
    :class:`VqeError` when some W^† g_j W misses a diagonal of +-1 by more than
    ``INVARIANCE_TOLERANCE``, which would mean the strings do not commute in
    the sector or do not square to I.
    """
    stack = np.stack(strings)
    _, w = np.linalg.eigh(np.tensordot(2.0 ** np.arange(len(stack)), stack, axes=1))
    rotated = w.conj().T @ stack @ w
    signs = np.sign(np.real(np.diagonal(rotated, axis1=1, axis2=2)))
    miss = float(np.max(np.abs(rotated - signs[:, :, None] * np.eye(len(w)))))
    if miss > INVARIANCE_TOLERANCE:
        raise VqeError(f"a commuting run of bond strings has no joint +-1 eigenbasis: miss {miss:.3e}")
    return w, signs


@dataclass(frozen=True)
class SectorSpan:
    """The training problem in the sector of H0's tapered frame that holds psi0.

    The circuit splits into runs of consecutive, pairwise commuting strings
    (:func:`commuting_runs`; the honeycomb ansatz has an x, a y and a z run per
    layer). Run r is written in its strings' joint eigenbasis W_r, where the
    restricted string of parameter k is ``diag(signs[k])`` and rotates by
    half-angle ``half_angles[k] * theta_k``. ``run_starts[r]`` is run r's
    first parameter and ``runs[k]`` is parameter k's run; ``links[r]`` is
    W_{r+1}^† W_r, ``start`` is psi0 in W_0 and ``hamiltonian`` is H0 in the
    last run's basis.
    """

    start: np.ndarray
    signs: np.ndarray
    half_angles: np.ndarray
    run_starts: np.ndarray
    runs: np.ndarray
    links: np.ndarray
    hamiltonian: np.ndarray

    @classmethod
    def build(cls, ansatz: AnsatzCircuit, h: PauliSum, state: StateVector) -> "SectorSpan":
        """Raises :class:`VqeError` unless every term of ``h`` is one of the ansatz's strings,
        ``state`` lies in one sector of ``h``'s frame (:func:`oracle.taper`) and every run has
        a joint eigenbasis (:func:`joint_eigenbasis`)."""
        terms = ansatz.distinct_generators
        strings = {t.axes for t in terms}
        for term in h.terms:
            if term.axes not in strings:
                raise VqeError(f"term {term} of the Hamiltonian is not one of the ansatz's bond strings")
        tapered = oracle.taper(h)
        coords = tapered.frame.to_frame(state.amplitudes)[tapered.frame_index]
        weights = np.sum(np.abs(coords) ** 2, axis=1)
        sector = int(np.argmax(weights))
        if np.sum(weights) - weights[sector] > INVARIANCE_TOLERANCE * np.sum(weights):
            raise VqeError("the initial state is not in one symmetry sector of the Hamiltonian's frame")
        g = {term.axes: tapered.sector_matrix(term, sector) for term in terms}
        gens = ansatz.generators
        starts = commuting_runs(gens)
        runs = [tuple(gen.axes for gen in gens[lo:hi]) for lo, hi in zip(starts, [*starts[1:], len(gens)])]
        eigenbases = {run: joint_eigenbasis([g[axes] for axes in run]) for run in dict.fromkeys(runs)}
        frames = [eigenbases[run][0] for run in runs]
        dim = coords.shape[1]
        hamiltonian = sum(t.coefficient * g[t.axes] for t in h.terms)
        return cls(
            start=frames[0].conj().T @ coords[sector],
            signs=np.concatenate([eigenbases[run][1] for run in runs]),
            half_angles=np.array([0.5 * gen.coefficient.real for gen in gens]),
            run_starts=np.array(starts),
            runs=np.repeat(np.arange(len(starts)), np.diff([*starts, len(gens)])),
            links=np.array([b.conj().T @ a for a, b in zip(frames, frames[1:])],
                           dtype=complex).reshape(len(frames) - 1, dim, dim),
            hamiltonian=frames[-1].conj().T @ hamiltonian @ frames[-1],
        )

    @property
    def dimension(self) -> int:
        return len(self.start)

    def energy_and_gradient(self, parameters: np.ndarray) -> tuple[float, np.ndarray]:
        """:meth:`AnsatzCircuit.energy_and_gradient` of the restricted problem, one run at a time.

        Inside run r every rotation is diagonal, so the run is the phase vector
        phi_r = prod_k (cos a_k - i sin a_k signs[k]). The forward loop keeps
        each run's end state psi_r = phi_r * (links[r-1] @ psi_r-1), the backward
        loop carries mu_r-1 = (mu_r * phi_r) @ links[r-1] from mu = psi^† H0, and
        dE/dtheta_k = 2 (a_k/theta_k) Im sum(signs[k] * mu_r * psi_r) for k in run r.
        """
        angles = self.half_angles * parameters
        factors = np.cos(angles)[:, None] - 1j * np.sin(angles)[:, None] * self.signs
        phases = np.multiply.reduceat(factors, self.run_starts, axis=0)
        psi = np.empty_like(phases)
        psi[0] = phases[0] * self.start
        for r in range(1, len(phases)):
            psi[r] = phases[r] * (self.links[r - 1] @ psi[r - 1])
        mu = np.empty_like(psi)
        mu[-1] = psi[-1].conj() @ self.hamiltonian
        for r in range(len(phases) - 1, 0, -1):
            mu[r - 1] = (mu[r] * phases[r]) @ self.links[r - 1]
        energy = float(np.real(mu[-1] @ psi[-1]))
        overlaps = np.einsum("kb,kb->k", self.signs, (mu * psi)[self.runs])
        return energy, 2.0 * self.half_angles * np.imag(overlaps)


@dataclass
class VqeResult:
    optimal_parameters: np.ndarray
    final_energy: float
    training_history: dict
    # energy-and-gradient evaluations (the length of training_history) and why training
    # ended: "target" once the running best reached the target, "epochs" otherwise
    stop_epoch: int
    stop_reason: str
    # against oracle.diagonalize(h0), filled in by prepare_reference_state (_score)
    infidelity: float | None = None
    energy_distance: float | None = None
    converged: bool | None = None
    sector_targets: tuple[int, ...] | None = None
    # (targets, exact in-sector ground energy) per consistent candidate sector
    sector_energies: list[tuple[tuple[int, ...], float]] | None = None
    # d of the sector training ran in; None when there was nothing to train
    sector_dimension: int | None = None
    # lowest ground energy over every sector of H0's tapered frame
    global_sector_minimum: float | None = None

    def to_json_dict(self) -> dict:
        return {
            "optimal_parameters": [float(x) for x in self.optimal_parameters],
            "final_energy": self.final_energy,
            "infidelity": self.infidelity,
            "energy_distance": self.energy_distance,
            "converged": self.converged,
            "stop_epoch": self.stop_epoch,
            "stop_reason": self.stop_reason,
            "sector_dimension": self.sector_dimension,
            "global_sector_minimum": self.global_sector_minimum,
            "sector_targets": list(self.sector_targets) if self.sector_targets else None,
            "sector_energies": None if self.sector_energies is None else [
                {"targets": list(targets), "energy": energy} for targets, energy in self.sector_energies
            ],
            "training_history": {
                k: [float(x) for x in v] for k, v in self.training_history.items()
            },
        }


def prepare_sector_state(group: StabilizerGroup, lat: HoneycombLattice) -> StateVector:
    """Projector-cascade eigenstate of the stabilizer group.

    Projects a computational basis state through (1 + t*g)/2 for every
    generator, renormalizing after each, and restarts from the next basis
    state whenever the cascade annihilates. Raises when no basis state
    survives, i.e. the requested eigenvalue pattern violates a product
    relation among the generators.
    """
    dim = 1 << lat.num_sites
    for start in range(dim):
        amps = np.zeros(dim, dtype=complex)
        amps[start] = 1.0
        for gen, target in zip(group.generators, group.target_eigenvalues):
            amps = 0.5 * (amps + target * pauli.apply_term(gen, amps))
            nrm = np.linalg.norm(amps)
            if nrm < 1e-8:
                break
            amps /= nrm
        else:
            return StateVector(amps, lat.num_sites)
    raise VqeError("inconsistent sector: projector cascade annihilates every basis state")


def _hashmix(value: int, hash_const: list[int]) -> int:
    value = (value ^ hash_const[0]) & _MASK32
    hash_const[0] = (hash_const[0] * 0x931E8875) & _MASK32
    value = (value * hash_const[0]) & _MASK32
    return value ^ (value >> 16)


def _mix(x: int, y: int) -> int:
    result = (0xCA01F9DD * x - 0x4973F715 * y) & _MASK32
    return result ^ (result >> 16)


def _seed_words(seed: int, count: int) -> list[int]:
    """The first ``count`` 64-bit words of ``numpy.random.SeedSequence(seed).generate_state``."""
    entropy = [seed & _MASK32]  # little-endian 32-bit words, at least one
    while seed >> 32 * len(entropy):
        entropy.append((seed >> 32 * len(entropy)) & _MASK32)
    hash_const = [0x43B0D7E5]
    pool = [_hashmix(entropy[i] if i < len(entropy) else 0, hash_const) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], hash_const))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = _mix(pool[dst], _hashmix(word, hash_const))
    words, hash_const = [], 0x8B51F9DD
    for i in range(2 * count):
        value = pool[i % 4] ^ hash_const
        hash_const = (hash_const * 0x58F38DED) & _MASK32
        value = (value * hash_const) & _MASK32
        words.append(value ^ (value >> 16))
    return [low | high << 32 for low, high in zip(words[::2], words[1::2])]


def _uniform_angles(seed: int, count: int) -> np.ndarray:
    """``np.random.default_rng(seed).uniform(-pi, pi, count)`` bit for bit, without ``numpy.random``.

    numpy 2 imports ``numpy.random`` on its first use, a fixed cost that has
    nothing to do with training. Here ``seed`` goes through numpy's
    SeedSequence mixing into PCG64's 128-bit state and increment, and each
    draw is PCG64's XSL-RR output x (O'Neill, HMC-CS-2014-0905) as the double
    (x >> 11) 2^-53 in [0, 1), scaled as ``Generator.uniform`` scales it.
    """
    state_high, state_low, inc_high, inc_low = _seed_words(seed, 4)
    inc = (((inc_high << 64) | inc_low) << 1 | 1) & _MASK128
    # pcg64_set_seed: one step from state 0 (which lands on inc), add the seed, step again
    state = ((inc + ((state_high << 64) | state_low)) * _PCG64_MULTIPLIER + inc) & _MASK128
    draws = []
    for _ in range(count):
        state = (state * _PCG64_MULTIPLIER + inc) & _MASK128
        folded, rotation = ((state >> 64) ^ state) & _MASK64, state >> 122
        draws.append((((folded >> rotation) | (folded << (64 - rotation))) & _MASK64) >> 11)
    return -np.pi + 2 * np.pi * (np.array(draws, dtype=float) * 2.0 ** -53)


def _reached(energy: float, target: float | None) -> bool:
    return target is not None and energy - target <= TARGET_TOLERANCE * max(1.0, abs(target))


def _bfgs_minimize(
    energy_and_gradient: Callable[[np.ndarray], tuple[float, np.ndarray]],
    theta0: np.ndarray,
    evaluations: int,
    target: float | None = None,
) -> tuple[np.ndarray, list[float], str]:
    """BFGS from ``theta0``: (best angles, the energy of every evaluation, stop reason).

    Dense inverse-Hessian updates, skipped unless s.y > 0, with an Armijo line search that
    halves a unit step until the energy falls by 1e-4 of the predicted decrease (Nocedal &
    Wright, *Numerical Optimization*, 2nd ed., Alg. 6.1 and Sec. 3.1). Every evaluation,
    line-search trials included, is recorded and counts against ``evaluations``; returns at
    the first one whose running best reaches ``target``.
    """
    energies: list[float] = []
    best_energy, best_theta = np.inf, theta0
    inverse_hessian = identity = np.eye(len(theta0))
    # theta0 is a first trial that passes the Armijo test against an infinite energy, with s = 0
    theta, energy, grad, trial, step, slope = theta0, np.inf, np.zeros_like(theta0), theta0, 0.0, 0.0
    while True:
        trial_energy, trial_grad = energy_and_gradient(trial)
        if not np.isfinite(trial_energy) or not np.all(np.isfinite(trial_grad)):
            raise VqeError(f"non-finite loss at evaluation {len(energies) + 1}")
        energies.append(trial_energy)
        if trial_energy < best_energy:
            best_energy, best_theta = trial_energy, trial
        if _reached(best_energy, target) or len(energies) >= evaluations:
            return best_theta, energies, "target" if _reached(best_energy, target) else "epochs"
        if trial_energy > energy + 1e-4 * step * slope:
            step *= 0.5
        else:
            s, y = trial - theta, trial_grad - grad
            if s @ y > 0:
                v = identity - np.outer(s, y) / (s @ y)
                inverse_hessian = v @ inverse_hessian @ v.T + np.outer(s, s) / (s @ y)
            theta, energy, grad, step = trial, trial_energy, trial_grad, 1.0
            direction = -inverse_hessian @ grad
            slope = grad @ direction
            if slope >= 0:  # not a descent direction: restart from steepest descent
                inverse_hessian, direction, slope = identity, -grad, -(grad @ grad)
        trial = theta + step * direction


def train(
    h0: PauliSum,
    ansatz: AnsatzCircuit,
    init_state: StateVector,
    epochs: int = 800,
    seed: int = 0,
    target: float | None = None,
    span: SectorSpan | None = None,
) -> VqeResult:
    """Minimize <U(theta) psi0|H0|U(theta) psi0> on the :class:`SectorSpan` by :func:`_bfgs_minimize`.

    Initial angles are uniform random in [-pi, pi), drawn from ``seed``: the
    stream of ``np.random.default_rng(seed).uniform(-pi, pi, n)``, bit for bit
    (:func:`_uniform_angles`). The history keeps every energy-and-gradient
    evaluation, line-search trials included, and its running best, which is
    monotone by construction. Given a ``target``, training stops at the first
    evaluation whose running best is at most ``TARGET_TOLERANCE * max(1, |target|)``
    above it; ``epochs`` caps the evaluations either way, and the best-so-far
    angles are returned. ``span`` is the span of ``ansatz``, ``h0`` and
    ``init_state`` when the caller holds it (:meth:`SectorProblem.span`), and is
    built here otherwise, which raises :class:`VqeError` when a term of ``h0`` is
    not one of the ansatz's bond strings or ``init_state`` is not in one sector
    of ``h0``'s frame (:meth:`SectorSpan.build`).
    """
    if not h0.is_hermitian():
        raise VqeError("training requires a Hermitian Hamiltonian")
    theta0 = _uniform_angles(seed, ansatz.num_parameters)

    if ansatz.num_parameters == 0:
        theta, energies = theta0, [expectation(init_state, h0)]
        stop_reason = "target" if _reached(energies[0], target) else "epochs"
        dimension = None
    else:
        if span is None:
            span = SectorSpan.build(ansatz, h0, init_state)
        theta, energies, stop_reason = _bfgs_minimize(span.energy_and_gradient, theta0, epochs, target)
        dimension = span.dimension

    best_curve = np.minimum.accumulate(energies).tolist()
    return VqeResult(
        optimal_parameters=theta,
        final_energy=best_curve[-1],
        training_history={"energy": energies, "best_energy": best_curve},
        stop_epoch=len(energies),
        stop_reason=stop_reason,
        sector_dimension=dimension,
    )


def _score(result: VqeResult, state: StateVector, decomp: SpectralDecomposition) -> None:
    """Fill in the infidelity, energy distance and ``converged`` of ``result``, trained to ``state``."""
    result.infidelity = 1.0 - ground_space_fidelity(state.amplitudes, decomp)
    result.energy_distance = abs(result.final_energy - decomp.ground_energy)
    result.converged = result.energy_distance <= CONVERGENCE_TOLERANCE


def candidate_sectors(lat: HoneycombLattice) -> list[StabilizerGroup]:
    """Uniform plaquette-sign sectors crossed with the four loop-sign pairs, all on one
    :func:`stabilizer_group` generator set."""
    generators = stabilizer_group(lat).generators
    plaquettes = len(lat.plaquettes)
    return [
        StabilizerGroup(generators, (plaq_sign,) * plaquettes + (loop_x, loop_y))
        for plaq_sign in (1, -1) for loop_x in (1, -1) for loop_y in (1, -1)
    ]


def frame_sector(table: np.ndarray, group: StabilizerGroup) -> int:
    """The frame sector where every generator has ``group``'s target eigenvalue, given their
    :meth:`TaperedSum.sector_eigenvalues` table: a GF(2) system for the sector's bits, solved by
    checking every sector. Raises :class:`VqeError` when none fits, i.e. the pattern is inconsistent."""
    match = np.flatnonzero(np.all(table == np.array(group.target_eigenvalues), axis=1))
    if match.size == 0:
        raise VqeError(f"inconsistent sector {group.target_eigenvalues}: no sector of the frame has it")
    return int(match[0])


@dataclass(frozen=True)
class SectorRanking:
    """(sector, exact ground energy) for every consistent candidate sector, in
    :func:`candidate_sectors` order, and the lowest ground energy of all sectors."""

    sectors: list[tuple[StabilizerGroup, float]]
    global_minimum: float


def rank_sectors(lat: HoneycombLattice, h0: PauliSum) -> SectorRanking:
    """Every sector's ground energy from the factorization of ``h0``
    (:meth:`oracle.SpectralDecomposition.sector_ground_energies`).

    Each candidate sector takes its frame sector's energy (:func:`frame_sector`
    over one eigenvalue table of the lattice's stabilizer generators);
    inconsistent candidates are skipped. Raises :class:`VqeError` when the
    generators do not fix one frame sector, or no candidate is within 1e-9
    of the lowest energy of all 2^k sectors.
    """
    minima = oracle.diagonalize(h0).sector_ground_energies()
    candidates = candidate_sectors(lat)
    table = oracle.taper(h0).sector_eigenvalues(candidates[0].generators)
    if len(set(map(tuple, table.tolist()))) < len(table):
        raise VqeError("the stabilizer generators do not fix one sector of the Hamiltonian's frame")
    ranked: list[tuple[StabilizerGroup, float]] = []
    for group in candidates:
        try:
            ranked.append((group, float(minima[frame_sector(table, group)])))
        except VqeError:
            continue  # inconsistent sign pattern on this torus
    if not ranked:
        raise VqeError("no consistent stabilizer sector found")
    lowest = float(np.min(minima))
    if min(energy for _, energy in ranked) > lowest + 1e-9:
        raise VqeError(f"no candidate sector reaches the lowest sector energy {lowest:.12f}")
    return SectorRanking(ranked, lowest)


@dataclass(frozen=True)
class SectorProblem:
    """The part of training that no depth changes, built once for a sweep of depths.

    ``group`` is the lowest-energy sector of ``ranking``, ties within 1e-9
    broken by ranking order, ``energy`` its exact ground energy (the training
    target) and ``state`` its projector-cascade state; ``layer`` is the
    one-layer ansatz. A depth-d circuit is ``layer`` repeated d times, so its
    span is the layer's runs repeated d times, joined by the link across a
    layer boundary: :meth:`span` tiles it from the span of two layers, built
    on first use.
    """

    ranking: SectorRanking
    group: StabilizerGroup
    energy: float
    state: StateVector
    layer: AnsatzCircuit
    hamiltonian: PauliSum

    @classmethod
    def build(cls, lat: HoneycombLattice, h0: PauliSum) -> "SectorProblem":
        """:func:`rank_sectors` of ``h0``, its winner's :func:`prepare_sector_state` and the one-layer
        :meth:`AnsatzCircuit.for_lattice`."""
        ranking = rank_sectors(lat, h0)
        lowest = min(energy for _, energy in ranking.sectors)
        group, energy = next((g, energy) for g, energy in ranking.sectors if energy <= lowest + 1e-9)
        layer = AnsatzCircuit.for_lattice(lat, 1)
        return cls(ranking, group, energy, prepare_sector_state(group, lat), layer, h0)

    @cached_property
    def _two_layers(self) -> SectorSpan:
        return SectorSpan.build(self.layer.repeated(2), self.hamiltonian, self.state)

    def span(self, layers: int) -> SectorSpan:
        """:meth:`SectorSpan.build` of ``layer.repeated(layers)`` (``layers`` >= 1), field for field,
        sliced and tiled from the span of two layers. No run crosses a layer boundary: a layer's first
        run is its x bonds, each sharing a site with a z bond of the run before it."""
        two, params = self._two_layers, self.layer.num_parameters
        runs = len(two.run_starts) // 2
        offsets = np.arange(layers)[:, None]
        return SectorSpan(
            start=two.start,
            signs=np.tile(two.signs[:params], (layers, 1)),
            half_angles=np.tile(two.half_angles[:params], layers),
            run_starts=(two.run_starts[:runs] + params * offsets).ravel(),
            runs=(two.runs[:params] + runs * offsets).ravel(),
            links=np.tile(two.links[:runs], (layers, 1, 1))[:-1],
            hamiltonian=two.hamiltonian,
        )


def prepare_reference_state(
    lat: HoneycombLattice,
    h0: PauliSum,
    layers: int,
    epochs: int = 800,
    seed: int = 0,
    problem: SectorProblem | None = None,
) -> tuple[StateVector, VqeResult, StabilizerGroup]:
    """Symmetry-guided VQE ground-state preparation for the zero-field model.

    Trains ``layers`` layers on ``problem`` (by default :meth:`SectorProblem.build`
    of ``lat`` and ``h0``; a caller training several depths passes one problem
    to all of them): only the winning sector is trained, stopping at its exact
    energy. The result records every ranked sector's energy in
    ``sector_energies`` and the lowest of all sectors in
    ``global_sector_minimum``. The circuit runs once on the full space: the
    state it returns is scored against ``oracle.diagonalize(h0)`` (:func:`_score`).
    """
    if problem is None:
        problem = SectorProblem.build(lat, h0)
    elif problem.hamiltonian != h0:
        raise VqeError("the sector problem was built for another Hamiltonian")
    ansatz = problem.layer.repeated(layers)
    span = problem.span(layers) if layers else None
    result = train(h0, ansatz, problem.state, epochs=epochs, seed=seed, target=problem.energy, span=span)
    state = ansatz.apply(result.optimal_parameters, problem.state)  # the one circuit application
    _score(result, state, oracle.diagonalize(h0))
    result.sector_targets = problem.group.target_eigenvalues
    result.sector_energies = [(g.target_eigenvalues, energy) for g, energy in problem.ranking.sectors]
    result.global_sector_minimum = problem.ranking.global_minimum
    return state, result, problem.group
