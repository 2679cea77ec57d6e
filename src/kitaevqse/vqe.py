"""Symmetry-guided variational ground-state preparation at zero field.

The circuit is built from two-site bond operators, which centralize the
plaquette/loop stabilizer group, so training never leaves the prepared
symmetry sector. One independent angle per bond per layer; within a
layer the sweep order is X-bonds, Y-bonds, Z-bonds in lattice bond
order.

Ground-state search scans candidate stabilizer sectors (both uniform
plaquette signs crossed with the four loop-sign pairs), briefly trains
each, and fully trains the lowest-energy candidate. On the shipped
torus lattices the winning sector is size-dependent, so the scan is the
load-bearing step rather than an optimization.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import pauli
from .lattice import HoneycombLattice, StabilizerGroup, stabilizer_group
from .oracle import SpectralDecomposition, ground_space_fidelity
from .pauli import PauliSum, PauliTerm, commutes
from .simulator import StateVector, _rotation_inplace


class VqeError(RuntimeError):
    pass


@dataclass(frozen=True)
class AnsatzCircuit:
    """Layered bond-rotation circuit with one angle per bond per layer."""

    num_sites: int
    layers: int
    generators: tuple[PauliTerm, ...]
    bond_schedule: tuple[tuple[str, tuple[int, int]], ...]

    @classmethod
    def for_lattice(cls, lat: HoneycombLattice, layers: int) -> "AnsatzCircuit":
        if layers < 0:
            raise VqeError("layer count must be non-negative")
        schedule = []
        gens_one_layer = []
        for kind in "xyz":
            for u, v in lat.bonds(kind):
                schedule.append((kind, (u, v)))
                gens_one_layer.append(pauli.two_site(kind.upper(), u, v, lat.num_sites))
        stab = stabilizer_group(lat)
        for gen in gens_one_layer:
            for s in stab.generators:
                if not commutes(gen, s):
                    raise VqeError(f"generator {gen} does not centralize the stabilizer group")
        return cls(
            num_sites=lat.num_sites,
            layers=layers,
            generators=tuple(gens_one_layer) * layers,
            bond_schedule=tuple(schedule),
        )

    @property
    def num_parameters(self) -> int:
        return len(self.generators)

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
        """Adjoint-mode energy gradient: one forward pass, one reverse sweep."""
        parameters = np.asarray(parameters, dtype=float)
        psi = self.apply(parameters, state).amplitudes
        lam = pauli.apply_sum(h, psi)
        energy = float(np.real(np.vdot(psi, lam)))
        grads = np.zeros(self.num_parameters)
        for k in range(self.num_parameters - 1, -1, -1):
            gen, theta = self.generators[k], parameters[k]
            grads[k] = 2.0 * np.real(np.vdot(lam, -0.5j * pauli.apply_term(gen, psi)))
            _rotation_inplace(psi, gen, -theta)
            _rotation_inplace(lam, gen, -theta)
        return energy, grads


@dataclass
class VqeResult:
    optimal_parameters: np.ndarray
    final_energy: float
    infidelity: float | None
    energy_distance: float | None
    training_history: dict
    converged: bool | None
    sector_targets: tuple[int, ...] | None = None

    def to_json_dict(self) -> dict:
        return {
            "optimal_parameters": [float(x) for x in self.optimal_parameters],
            "final_energy": self.final_energy,
            "infidelity": self.infidelity,
            "energy_distance": self.energy_distance,
            "converged": self.converged,
            "sector_targets": list(self.sector_targets) if self.sector_targets else None,
            "training_history": {
                k: [float(x) for x in v] for k, v in self.training_history.items()
            },
        }

    def save(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_json_dict(), indent=2))


def prepare_sector_state(group: StabilizerGroup, lat: HoneycombLattice) -> StateVector:
    """Projector-cascade eigenstate of the stabilizer group.

    Projects a computational basis state through (1 + t*g)/2 for every
    generator, restarting from the next basis state whenever the cascade
    annihilates. Raises when no basis state survives, i.e. the requested
    eigenvalue pattern violates a product relation among the generators.
    """
    dim = 1 << lat.num_sites
    for start in range(dim):
        amps = np.zeros(dim, dtype=complex)
        amps[start] = 1.0
        survived = True
        for gen, target in zip(group.generators, group.target_eigenvalues):
            amps = 0.5 * (amps + target * pauli.apply_term(gen, amps))
            nrm = np.linalg.norm(amps)
            if nrm < 1e-8:
                survived = False
                break
            amps /= nrm
        if survived:
            return StateVector(amps, lat.num_sites)
    raise VqeError("inconsistent sector: projector cascade annihilates every basis state")


def _adam_minimize(
    ansatz: AnsatzCircuit,
    h: PauliSum,
    state: StateVector,
    theta0: np.ndarray,
    epochs: int,
    learning_rate: float,
) -> tuple[np.ndarray, float, list[float], list[float]]:
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    theta = theta0.copy()
    m = np.zeros_like(theta)
    v = np.zeros_like(theta)
    energies: list[float] = []
    best_curve: list[float] = []
    best_energy = np.inf
    best_theta = theta.copy()
    for epoch in range(1, epochs + 1):
        energy, grad = ansatz.energy_and_gradient(theta, h, state)
        if not np.isfinite(energy) or not np.all(np.isfinite(grad)):
            raise VqeError(f"non-finite loss at epoch {epoch}")
        energies.append(energy)
        if energy < best_energy:
            best_energy = energy
            best_theta = theta.copy()
        best_curve.append(best_energy)
        m = beta1 * m + (1 - beta1) * grad
        v = beta2 * v + (1 - beta2) * grad * grad
        m_hat = m / (1 - beta1**epoch)
        v_hat = v / (1 - beta2**epoch)
        theta = theta - learning_rate * m_hat / (np.sqrt(v_hat) + eps)
    final_energy, _ = ansatz.energy_and_gradient(theta, h, state)
    if final_energy < best_energy:
        best_energy = final_energy
        best_theta = theta.copy()
    return best_theta, best_energy, energies, best_curve


def train(
    h0: PauliSum,
    ansatz: AnsatzCircuit,
    init_state: StateVector,
    epochs: int = 800,
    learning_rate: float = 0.1,
    seed: int = 0,
    init_parameters: np.ndarray | None = None,
    oracle_decomp: SpectralDecomposition | None = None,
    tolerance: float | None = None,
) -> VqeResult:
    """Minimize <U(theta) psi0|H0|U(theta) psi0> with Adam.

    Initial angles are uniform random in [-pi, pi] unless given. The
    accepted-step energy (running best) is monotone by construction;
    the raw per-epoch energies are kept in the history. When an oracle
    decomposition is supplied the result carries the energy distance and
    infidelity against it, and ``converged`` reports whether the energy
    distance met ``tolerance`` (best-so-far is returned either way).
    """
    if not h0.is_hermitian():
        raise VqeError("training requires a Hermitian Hamiltonian")
    if init_parameters is None:
        rng = np.random.default_rng(seed)
        theta0 = rng.uniform(-np.pi, np.pi, ansatz.num_parameters)
    else:
        theta0 = np.asarray(init_parameters, dtype=float).copy()

    if ansatz.num_parameters == 0:
        from .simulator import expectation

        energy = expectation(init_state, h0)
        theta, best_energy, energies, best_curve = theta0, energy, [energy], [energy]
    else:
        theta, best_energy, energies, best_curve = _adam_minimize(
            ansatz, h0, init_state, theta0, epochs, learning_rate
        )

    infidelity = None
    energy_distance = None
    converged = None
    if oracle_decomp is not None:
        final_state = ansatz.apply(theta, init_state) if ansatz.num_parameters else init_state
        infidelity = 1.0 - ground_state_fidelity(final_state, oracle_decomp)
        energy_distance = abs(best_energy - oracle_decomp.ground_energy)
        if tolerance is not None:
            converged = energy_distance <= tolerance

    return VqeResult(
        optimal_parameters=theta,
        final_energy=best_energy,
        infidelity=infidelity,
        energy_distance=energy_distance,
        training_history={"energy": energies, "best_energy": best_curve},
        converged=converged,
    )


def ground_state_fidelity(state: StateVector, oracle_gs) -> float:
    """|projection onto the (possibly degenerate) oracle ground space|^2."""
    if isinstance(oracle_gs, SpectralDecomposition):
        return ground_space_fidelity(state.amplitudes, oracle_gs)
    basis = np.asarray(oracle_gs, dtype=complex)
    if basis.ndim == 1:
        basis = basis[:, None]
    coords = basis.conj().T @ state.amplitudes
    return float(min(max(np.real(np.vdot(coords, coords)), 0.0), 1.0))


def candidate_sectors(lat: HoneycombLattice) -> list[StabilizerGroup]:
    """Uniform plaquette-sign sectors crossed with the four loop-sign pairs."""
    out = []
    for plaq_sign in (1, -1):
        for loop_x in (1, -1):
            for loop_y in (1, -1):
                out.append(stabilizer_group(lat, plaq_sign, (loop_x, loop_y)))
    return out


def prepare_reference_state(
    lat: HoneycombLattice,
    h0: PauliSum,
    layers: int,
    epochs: int = 800,
    learning_rate: float = 0.1,
    seed: int = 0,
    scan_epochs: int = 120,
    oracle_decomp: SpectralDecomposition | None = None,
    tolerance: float | None = None,
) -> tuple[StateVector, VqeResult, StabilizerGroup]:
    """Sector-scanned VQE ground-state preparation for the zero-field model.

    Each consistent candidate sector is briefly trained; the lowest
    brief energy wins and is retrained with the full epoch budget from
    the same parameter init.
    """
    ansatz = AnsatzCircuit.for_lattice(lat, layers)
    best: tuple[float, StabilizerGroup, StateVector] | None = None
    for group in candidate_sectors(lat):
        try:
            init_state = prepare_sector_state(group, lat)
        except VqeError:
            continue  # inconsistent sign pattern on this torus
        scan = train(
            h0, ansatz, init_state,
            epochs=min(scan_epochs, epochs), learning_rate=learning_rate, seed=seed,
        )
        if best is None or scan.final_energy < best[0]:
            best = (scan.final_energy, group, init_state)
    if best is None:
        raise VqeError("no consistent stabilizer sector found")

    _, group, init_state = best
    result = train(
        h0, ansatz, init_state,
        epochs=epochs, learning_rate=learning_rate, seed=seed,
        oracle_decomp=oracle_decomp, tolerance=tolerance,
    )
    result.sector_targets = group.target_eigenvalues
    state = ansatz.apply(result.optimal_parameters, init_state) if ansatz.num_parameters else init_state
    return state, result, group
