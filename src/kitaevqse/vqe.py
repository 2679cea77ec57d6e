"""Symmetry-guided variational ground-state preparation at zero field.

The circuit is built from two-site bond operators, which centralize the
plaquette/loop stabilizer group, so training never leaves the prepared
symmetry sector. One independent angle per bond per layer; within a
layer the sweep order is X-bonds, Y-bonds, Z-bonds in lattice bond
order.

Training therefore runs on span{Q|psi0>}, the span of the initial state
closed under the ansatz's distinct bond strings, which is the whole
2^(N/2-1)-dimensional sector for a sector state: :class:`SectorSpan`
restricts each string and H0 to d x d matrices on that span, built from
the strings' basis actions, and Adam runs the adjoint sweep on them one
run of commuting strings at a time, in each run's joint eigenbasis.
:meth:`AnsatzCircuit.apply` and :meth:`AnsatzCircuit.energy_and_gradient`
stay full-space; the trained state and its infidelity come from ``apply``.

Choosing the sector is a spectral question, not an
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
from typing import Callable, Sequence

import numpy as np

from . import oracle, pauli
from .lattice import HoneycombLattice, StabilizerGroup, stabilizer_group
from .oracle import SpectralDecomposition, ground_space_fidelity
from .pauli import PauliSum, PauliTerm, commutes
from .simulator import StateVector, _rotation_inplace, expectation


# Training stops at the first epoch whose running best is at most this
# fraction of max(1, |target|) above the target.
TARGET_TOLERANCE = 1e-12

# A mapped unit vector with at most this weight (squared norm) off the span
# is taken to lie in it; the invariance check catches any weight left out.
SPAN_TOLERANCE = 1e-10
# Each restricted string must square to the identity this closely, and be
# this close to a diagonal of +-1 in its commuting run's joint eigenbasis.
INVARIANCE_TOLERANCE = 1e-12


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
        commuting run at a time on the d x d restriction; tests and the
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


def closure_basis(amplitudes: np.ndarray, terms: Sequence[PauliTerm]) -> np.ndarray:
    """Orthonormal rows spanning ``amplitudes`` closed under the strings of ``terms``.

    Breadth first: each row, in order, is mapped through every string in
    one stacked gather. A string is unitary, so a mapped row lies in the
    span found so far iff its overlaps with the rows carry all of its unit
    norm; each one whose weight off the span exceeds ``SPAN_TOLERANCE`` is
    projected twice off the rows and joins them. Row 0 is the normalized
    input.
    """
    src = np.stack([t.action[0] for t in terms])
    phase = np.stack([t.action[1] for t in terms])
    rows = np.zeros((4, amplitudes.size), dtype=complex)
    rows[0] = amplitudes / np.linalg.norm(amplitudes)
    size, done = 1, 0
    while done < size:
        mapped = phase * rows[done][src]
        done += 1
        off = 1.0 - np.sum(np.abs(mapped.conj() @ rows[:size].T) ** 2, axis=1)
        for i in np.flatnonzero(off > SPAN_TOLERANCE):
            if off[i] <= SPAN_TOLERANCE:  # a row this batch added took it in
                continue
            w = mapped[i]
            for _ in range(2):
                w -= (rows[:size].conj() @ w) @ rows[:size]
            norm = np.linalg.norm(w)
            if norm**2 <= SPAN_TOLERANCE:
                continue
            if size == len(rows):
                rows = np.concatenate([rows, np.zeros_like(rows)])
            rows[size] = w / norm
            off -= np.abs(mapped @ rows[size].conj()) ** 2
            size += 1
    return rows[:size]


def restrict(basis: np.ndarray, terms: Sequence[PauliTerm]) -> dict[str, np.ndarray]:
    """Pauli string -> g = B*·(P Bᵀ), its d x d matrix on the span of the rows of ``basis``.

    A Pauli string squares to the identity, and so does its restriction iff
    the span is invariant under it; raises :class:`VqeError` when some g²
    misses I by more than ``INVARIANCE_TOLERANCE``.
    """
    eye = np.eye(len(basis))
    conj = basis.conj()
    restricted = {}
    for term in terms:
        src, phase = term.action
        g = conj @ (phase * basis[:, src]).T
        miss = float(np.max(np.abs(g @ g - eye)))
        if miss > INVARIANCE_TOLERANCE:
            raise VqeError(f"the span is not invariant under {term}: |g^2 - I| = {miss:.3e}")
        restricted[term.axes] = g
    return restricted


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
    ``INVARIANCE_TOLERANCE``, which would mean the strings do not commute on
    the span or do not square to I.
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
    """The training problem on span{Q|psi0>}, Q over products of the ansatz's bond strings.

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
        """Raises :class:`VqeError` unless every term of ``h`` is one of the ansatz's strings
        and every run has a joint eigenbasis (:func:`joint_eigenbasis`)."""
        terms = ansatz.distinct_generators
        basis = closure_basis(state.amplitudes, terms)
        g = restrict(basis, terms)
        for term in h.terms:
            if term.axes not in g:
                raise VqeError(f"term {term} of the Hamiltonian is not one of the ansatz's bond strings")
        gens = ansatz.generators
        starts = commuting_runs(gens)
        runs = [tuple(gen.axes for gen in gens[lo:hi]) for lo, hi in zip(starts, [*starts[1:], len(gens)])]
        eigenbases = {run: joint_eigenbasis([g[axes] for axes in run]) for run in dict.fromkeys(runs)}
        frames = [eigenbases[run][0] for run in runs]
        dim = len(basis)
        hamiltonian = sum(t.coefficient * g[t.axes] for t in h.terms)
        return cls(
            start=frames[0].conj().T @ (basis.conj() @ state.amplitudes),
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
    # d of the span training ran on; None when there was nothing to train
    sector_dimension: int | None = None

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
    energy_and_gradient: Callable[[np.ndarray], tuple[float, np.ndarray]],
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
        energy, grad = energy_and_gradient(theta)
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
    final_energy, _ = energy_and_gradient(theta)
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
    """Minimize <U(theta) psi0|H0|U(theta) psi0> with Adam on the :class:`SectorSpan`.

    Initial angles are uniform random in [-pi, pi], drawn from ``seed``. The
    accepted-step energy (running best) is monotone by construction;
    the raw per-epoch energies are kept in the history. Given a ``target``,
    training stops at the first epoch whose running best is at most
    ``TARGET_TOLERANCE * max(1, |target|)`` above it; ``epochs`` is the
    cap either way. When an oracle decomposition is supplied the result
    carries the energy distance and infidelity against it, and
    ``converged`` reports whether the energy distance met ``tolerance``
    (best-so-far is returned either way). Raises :class:`VqeError` when a
    term of ``h0`` is not one of the ansatz's bond strings or the span is
    not invariant under them.
    """
    if not h0.is_hermitian():
        raise VqeError("training requires a Hermitian Hamiltonian")
    rng = np.random.default_rng(seed)
    theta0 = rng.uniform(-np.pi, np.pi, ansatz.num_parameters)

    if ansatz.num_parameters == 0:
        energy = expectation(init_state, h0)
        theta, best_energy, energies, best_curve = theta0, energy, [energy], [energy]
        stop_reason = "target" if _reached(energy, target) else "epochs"
        dimension = None
    else:
        span = SectorSpan.build(ansatz, h0, init_state)
        theta, best_energy, energies, best_curve, stop_reason = _adam_minimize(
            span.energy_and_gradient, theta0, epochs, learning_rate, target
        )
        dimension = span.dimension

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
        sector_dimension=dimension,
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
