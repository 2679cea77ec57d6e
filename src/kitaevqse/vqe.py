"""Symmetry-guided variational ground-state preparation at zero field.

The circuit is built from two-site bond operators, which centralize the
plaquette/loop stabilizer group, so training never leaves the prepared
symmetry sector. One independent angle per bond per layer; within a
layer the sweep order is X-bonds, Y-bonds, Z-bonds in lattice bond
order.

Choosing the sector is therefore a spectral question, not an
optimization one. H0 commutes with every plaquette and loop (Kitaev,
Ann. Phys. 321, 2 (2006)), so each candidate sector (both uniform
plaquette signs crossed with the four loop-sign pairs) has an exact
ground energy, which a short Lanczos run inside the sector finds. The
lowest-energy sector is the only one trained. Lieb's theorem fixes the
flux sector only in the thermodynamic limit; on the shipped tori the
winner is size-dependent and has to be computed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import oracle, pauli
from .lattice import HoneycombLattice, StabilizerGroup, stabilizer_group
from .oracle import SpectralDecomposition, ground_space_fidelity
from .pauli import PauliSum, PauliTerm, commutes
from .simulator import StateVector, _rotation_inplace, expectation


# Training stops at the first epoch whose running best is at most this
# fraction of max(1, |target|) above the target.
TARGET_TOLERANCE = 1e-12


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
        if layers < 0:
            raise VqeError("layer count must be non-negative")
        gens_one_layer = []
        for kind in "xyz":
            for u, v in lat.bonds(kind):
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
            # one gather of G|psi> (coefficient excluded) serves the gradient
            # and the un-rotation of psi
            src, phase = gen.action
            rotated = phase * psi[src]
            grads[k] = 2.0 * np.real(np.vdot(lam, -0.5j * (gen.coefficient * rotated)))
            _rotation_inplace(psi, gen, -theta, rotated)
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
    # epochs trained (the length of training_history) and why training ended:
    # "target" once the running best reached the target, "epochs" otherwise
    stop_epoch: int
    stop_reason: str
    sector_targets: tuple[int, ...] | None = None
    # (targets, exact in-sector ground energy) per consistent candidate sector
    sector_energies: list[tuple[tuple[int, ...], float]] | None = None

    def to_json_dict(self) -> dict:
        return {
            "optimal_parameters": [float(x) for x in self.optimal_parameters],
            "final_energy": self.final_energy,
            "infidelity": self.infidelity,
            "energy_distance": self.energy_distance,
            "converged": self.converged,
            "stop_epoch": self.stop_epoch,
            "stop_reason": self.stop_reason,
            "sector_targets": list(self.sector_targets) if self.sector_targets else None,
            "sector_energies": None if self.sector_energies is None else [
                {"targets": list(targets), "energy": energy} for targets, energy in self.sector_energies
            ],
            "training_history": {
                k: [float(x) for x in v] for k, v in self.training_history.items()
            },
        }


def _project_into_sector(amps: np.ndarray, group: StabilizerGroup) -> np.ndarray | None:
    """(1 + t*g)/2 for every generator, renormalizing after each; None once it annihilates."""
    for gen, target in zip(group.generators, group.target_eigenvalues):
        amps = 0.5 * (amps + target * pauli.apply_term(gen, amps))
        nrm = np.linalg.norm(amps)
        if nrm < 1e-8:
            return None
        amps /= nrm
    return amps


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
        amps = _project_into_sector(amps, group)
        if amps is not None:
            return StateVector(amps, lat.num_sites)
    raise VqeError("inconsistent sector: projector cascade annihilates every basis state")


def sector_ground_energy(h0: PauliSum, group: StabilizerGroup, lat: HoneycombLattice) -> float:
    """Exact ground energy of ``h0`` restricted to one stabilizer sector.

    Projects a fixed-seed random vector into the sector with the
    :func:`prepare_sector_state` cascade and runs :func:`oracle.lanczos`
    from it. ``h0`` must commute with every generator, so the Krylov space
    stays inside the sector, whose dimension is 2^(N/2 - 1); the run stops
    when beta < 1e-10 or after that many steps, and the lowest eigenvalue
    of the tridiagonal matrix is the sector's ground energy. Raises when
    the sign pattern is inconsistent.
    """
    dim = 1 << lat.num_sites
    rng = np.random.default_rng(0)
    start = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    q = _project_into_sector(start / np.linalg.norm(start), group)
    if q is None:
        raise VqeError("inconsistent sector: projector cascade annihilates a random vector")
    max_steps = 1 << (lat.num_sites // 2 - 1)
    a, b, _, _ = oracle.lanczos(lambda v: pauli.apply_sum(h0, v), q, max_steps, 1e-20)
    tridiagonal = np.diag(a) + np.diag(b[1:], 1) + np.diag(b[1:], -1)
    return float(np.linalg.eigvalsh(tridiagonal)[0])


def _reached(energy: float, target: float | None) -> bool:
    return target is not None and energy - target <= TARGET_TOLERANCE * max(1.0, abs(target))


def _adam_minimize(
    ansatz: AnsatzCircuit,
    h: PauliSum,
    state: StateVector,
    theta0: np.ndarray,
    epochs: int,
    learning_rate: float,
    target: float | None = None,
) -> tuple[np.ndarray, float, list[float], list[float], str]:
    """Adam from ``theta0``: (best angles, best energy, energies, running best, stop reason).

    Returns at the first epoch whose running best reaches ``target``;
    otherwise runs all ``epochs`` and evaluates the last update once more.
    """
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
        if _reached(best_energy, target):
            return best_theta, best_energy, energies, best_curve, "target"
        m = beta1 * m + (1 - beta1) * grad
        v = beta2 * v + (1 - beta2) * grad * grad
        m_hat = m / (1 - beta1**epoch)
        v_hat = v / (1 - beta2**epoch)
        theta = theta - learning_rate * m_hat / (np.sqrt(v_hat) + eps)
    final_energy, _ = ansatz.energy_and_gradient(theta, h, state)
    if final_energy < best_energy:
        best_energy = final_energy
        best_theta = theta.copy()
    return best_theta, best_energy, energies, best_curve, "epochs"


def train(
    h0: PauliSum,
    ansatz: AnsatzCircuit,
    init_state: StateVector,
    epochs: int = 800,
    learning_rate: float = 0.1,
    seed: int = 0,
    oracle_decomp: SpectralDecomposition | None = None,
    tolerance: float | None = None,
    target: float | None = None,
) -> VqeResult:
    """Minimize <U(theta) psi0|H0|U(theta) psi0> with Adam.

    Initial angles are uniform random in [-pi, pi], drawn from ``seed``. The
    accepted-step energy (running best) is monotone by construction;
    the raw per-epoch energies are kept in the history. Given a ``target``,
    training stops at the first epoch whose running best is at most
    ``TARGET_TOLERANCE * max(1, |target|)`` above it; ``epochs`` is the
    cap either way. When an oracle decomposition is supplied the result
    carries the energy distance and infidelity against it, and
    ``converged`` reports whether the energy distance met ``tolerance``
    (best-so-far is returned either way).
    """
    if not h0.is_hermitian():
        raise VqeError("training requires a Hermitian Hamiltonian")
    rng = np.random.default_rng(seed)
    theta0 = rng.uniform(-np.pi, np.pi, ansatz.num_parameters)

    if ansatz.num_parameters == 0:
        energy = expectation(init_state, h0)
        theta, best_energy, energies, best_curve = theta0, energy, [energy], [energy]
        stop_reason = "target" if _reached(energy, target) else "epochs"
    else:
        theta, best_energy, energies, best_curve, stop_reason = _adam_minimize(
            ansatz, h0, init_state, theta0, epochs, learning_rate, target
        )

    infidelity = None
    energy_distance = None
    converged = None
    if oracle_decomp is not None:
        infidelity = 1.0 - ground_space_fidelity(ansatz.apply(theta, init_state).amplitudes, oracle_decomp)
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
        stop_epoch=len(energies),
        stop_reason=stop_reason,
    )


def candidate_sectors(lat: HoneycombLattice) -> list[StabilizerGroup]:
    """Uniform plaquette-sign sectors crossed with the four loop-sign pairs."""
    out = []
    for plaq_sign in (1, -1):
        for loop_x in (1, -1):
            for loop_y in (1, -1):
                out.append(stabilizer_group(lat, plaq_sign, (loop_x, loop_y)))
    return out


def rank_sectors(lat: HoneycombLattice, h0: PauliSum) -> list[tuple[StabilizerGroup, float]]:
    """(sector, :func:`sector_ground_energy`) for every consistent candidate
    sector, in :func:`candidate_sectors` order."""
    ranked: list[tuple[StabilizerGroup, float]] = []
    for group in candidate_sectors(lat):
        try:
            ranked.append((group, sector_ground_energy(h0, group, lat)))
        except VqeError:
            continue  # inconsistent sign pattern on this torus
    if not ranked:
        raise VqeError("no consistent stabilizer sector found")
    return ranked


def prepare_reference_state(
    lat: HoneycombLattice,
    h0: PauliSum,
    layers: int,
    epochs: int = 800,
    learning_rate: float = 0.1,
    seed: int = 0,
    oracle_decomp: SpectralDecomposition | None = None,
    tolerance: float | None = None,
    ranked: list[tuple[StabilizerGroup, float]] | None = None,
) -> tuple[StateVector, VqeResult, StabilizerGroup]:
    """Symmetry-guided VQE ground-state preparation for the zero-field model.

    Takes the lowest-energy sector of ``ranked`` (by default
    :func:`rank_sectors` of ``h0``; a caller training several depths
    passes one ranking to all of them), breaking ties within 1e-9 by
    ranking order, and trains only the winner, stopping at its exact
    energy. The result records every ranked sector's energy in
    ``sector_energies``.
    """
    ansatz = AnsatzCircuit.for_lattice(lat, layers)
    if ranked is None:
        ranked = rank_sectors(lat, h0)
    lowest = min(energy for _, energy in ranked)
    group, sector_energy = next((g, energy) for g, energy in ranked if energy <= lowest + 1e-9)
    init_state = prepare_sector_state(group, lat)
    result = train(
        h0, ansatz, init_state,
        epochs=epochs, learning_rate=learning_rate, seed=seed,
        oracle_decomp=oracle_decomp, tolerance=tolerance, target=sector_energy,
    )
    result.sector_targets = group.target_eigenvalues
    result.sector_energies = [(g.target_eigenvalues, energy) for g, energy in ranked]
    return ansatz.apply(result.optimal_parameters, init_state), result, group
