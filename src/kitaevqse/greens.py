"""Krylov-subspace Green's functions, spectral functions, structure factor.

The retarded correlator for an excitation operator A splits into a
particle-like part <GS| A^dag (z - H)^-1 A |GS> and a hole-like part
<GS| A^dag (z + H)^-1 A |GS>. Both are evaluated in a multigrid subspace
grown from the normalized A|GS>, which is itself basis state (l, k) =
(0, 0) of that subspace. The dynamical Lanczos recursion (Gagliano &
Balseiro, PRL 59, 2999 (1987)) starts at that basis state and runs purely
on the subspace H/S matrices, through the package's one Hermitian Lanczos,
:func:`oracle.lanczos`, with b_n the norm of the reorthogonalized
residual. It yields tridiagonal coefficients {a_n}, {b_n}, and the
correlator is the standard continued fraction in those coefficients,
times the squared seed norm because A need not be unitary.
The hole-like part is the same recursion with a -> -a: (z + H)^-1 =
(z - (-H))^-1, and the recursion for -H from the same seed is (-a_n, b_n).

Single-site Green's functions take A = sigma_a. Off-diagonal elements
come from the polarization identity G_ab = (G+_ab - G_aa - G_bb) / 2 with
G+ seeded by (sigma_a + sigma_b)|GS>.

The dynamical structure factor is seeded once per Pauli kind mu by the
collective operator A_q^mu = sum_i exp(i q.r_i) sigma_i^mu, whose
correlator is the whole double site sum sum_ij exp(-i q.(r_i - r_j)) G_ij.
The exact-diagonalization side builds its Lehmann weights from the same
operator, so both sides always measure the same quantity.

No ground-energy shift is applied to z: the evaluation argument is
exactly z = omega + i*delta on both the subspace and the
exact-diagonalization sides, so the two are always comparable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import oracle as oracle_mod
from .pauli import PauliSum, apply_sum, gershgorin_kappa, pauli_sum, single_site
from .qse import (
    MultigridIndex,
    QseGroundState,
    SubspaceBasis,
    SubspaceMatrices,
    assemble_matrices,
    build_basis,
    canonical_orthogonalization,
    default_time_step,
    reconstruct_state,
)
from .simulator import EvolutionOperator, StateVector

LANCZOS_B2_REL_TOL = 1e-8
LANCZOS_S_THRESHOLD = 1e-10  # favor well-conditioned spectral data


class GreensError(ValueError):
    pass


@dataclass(frozen=True)
class KrylovBasisConfig:
    """Multigrid parameters for the excitation subspace (tilde family)."""

    tilde_n_k: int
    tilde_n_l: int
    evolution_mode: str = "exact"
    trotter_steps: int = 1


@dataclass
class LanczosCoefficients:
    """Tridiagonal data {a_n}, {b_n} with b_0 = 0."""

    a: np.ndarray
    b: np.ndarray
    termination_index: int
    vectors: np.ndarray | None = None  # subspace coordinates of the Krylov states
    stop_reason: str | None = None  # "b2_tol" (Krylov space exhausted) or "rank" (of S)

    def __post_init__(self):
        self.a = np.asarray(self.a, dtype=float)
        self.b = np.asarray(self.b, dtype=float)
        if self.a.size != self.b.size or self.a.size == 0 or self.b[0] != 0.0:
            raise GreensError("need equal-length, non-empty a and b with b[0] = 0")

    def hole(self) -> "LanczosCoefficients":
        """The same recursion for -H: a -> -a, b unchanged."""
        return LanczosCoefficients(-self.a, self.b, self.termination_index, stop_reason=self.stop_reason)

    def to_json_dict(self) -> dict:
        return {
            "a": self.a.tolist(),
            "b": self.b.tolist(),
            "termination_index": self.termination_index,
            "stop_reason": self.stop_reason,
        }


def continued_fraction(coeffs: LanczosCoefficients, z) -> np.ndarray | complex:
    """Evaluate 1 / (z - a0 - b1^2 / (z - a1 - ...)) bottom-up."""
    z_arr = np.asarray(z, dtype=complex)
    tail = np.zeros_like(z_arr)
    a, b = coeffs.a, coeffs.b
    with np.errstate(divide="ignore", invalid="ignore"):
        for n in range(a.size - 1, 0, -1):
            tail = b[n] ** 2 / (z_arr - a[n] - tail)
        out = 1.0 / (z_arr - a[0] - tail)
    if not np.all(np.isfinite(out)):
        raise GreensError("continued fraction hit a pole; evaluate with Im z != 0")
    return out if out.shape else complex(out)


def lanczos_iterate(
    psi_mats: SubspaceMatrices,
    psi0: np.ndarray,
    *,
    kappa: float,
    keep_vectors: bool = False,
) -> LanczosCoefficients:
    """Dynamical Lanczos recursion from psi0 on the subspace (H, S).

    Runs :func:`oracle.lanczos` in the S-orthonormalized coordinates of
    the regularized subspace, where S^-1 is exactly the identity: applying
    the raw truncated pseudo-inverse instead amplifies roundoff by the
    inverse of the smallest kept S-eigenvalue. There a_n = psi_n^dag H psi_n
    and b_n is the norm of the fully reorthogonalized residual, so the
    Krylov states stay S-orthonormal to machine precision.

    The starting vector is S-normalized internally. Iteration stops
    when b_n^2 falls below 1e-8 * max(kappa/2, 1)^2 (invariant subspace
    exhausted, "b2_tol") or at the regularized rank of S ("rank"). The
    hole part, the recursion for -H, is this run with a -> -a
    (:meth:`LanczosCoefficients.hole`).
    """
    transform, s_eigs = canonical_orthogonalization(psi_mats.overlap, LANCZOS_S_THRESHOLD)
    rank = transform.shape[1]
    h_ortho = transform.conj().T @ psi_mats.hamiltonian @ transform
    h_ortho = 0.5 * (h_ortho + h_ortho.conj().T)

    b2_tol = LANCZOS_B2_REL_TOL * max(kappa / 2.0, 1.0) ** 2

    # orthonormal coordinates of psi0: y = X^dag S psi0 = s X^dag psi0 on the kept block
    y = s_eigs[-rank:] * (transform.conj().T @ np.asarray(psi0, dtype=complex))
    a, b, krylov, stop_reason = oracle_mod.lanczos(h_ortho.__matmul__, y, rank, b2_tol)
    return LanczosCoefficients(
        a=a,
        b=b,
        termination_index=a.size,
        vectors=transform @ krylov.T if keep_vectors else None,  # psi-basis coordinates
        stop_reason=stop_reason,
    )


@dataclass
class GreensEngine:
    """Shared context for GF runs on one (Hamiltonian, QSE ground state).

    Caches the ground statevector, each seed's Lanczos recursion and
    finished diagonal curves, which every off-diagonal element through the
    polarization identity reuses. Every seed subspace evolves under the
    engine's one ``EvolutionOperator(hamiltonian, config.evolution_mode,
    config.trotter_steps)``, which compiles a trotter2 schedule once and in
    exact mode shares the oracle's one factorization of the Hamiltonian.
    When the ground-state basis evolves under an equal operator, the engine
    takes that one, so the schedule is compiled once for both subspaces.
    """

    hamiltonian: PauliSum
    gs: QseGroundState
    gs_basis: SubspaceBasis
    config: KrylovBasisConfig
    _gs_state: StateVector | None = field(default=None, repr=False)
    _recursions: dict = field(default_factory=dict, repr=False)
    _diag_cache: dict = field(default_factory=dict, repr=False)
    _evolution: EvolutionOperator = field(init=False, repr=False)

    def __post_init__(self):
        wanted = EvolutionOperator(self.hamiltonian, self.config.evolution_mode, self.config.trotter_steps)
        self._evolution = self.gs_basis.evolution if self.gs_basis.evolution == wanted else wanted

    @property
    def num_sites(self) -> int:
        return self.hamiltonian.num_sites

    @property
    def kappa(self) -> float:
        return gershgorin_kappa(self.hamiltonian)

    def ground_state(self) -> StateVector:
        if self._gs_state is None:
            self._gs_state = reconstruct_state(self.gs, self.gs_basis)
        return self._gs_state

    def seed_subspace(
        self, excitation: PauliSum
    ) -> tuple[SubspaceBasis, SubspaceMatrices, np.ndarray, float]:
        """(psi basis, matrices, psi0 coefficients, seed norm squared).

        The basis is grown from the normalized excitation|GS> at the
        default time step, so that state is basis state (0, 0): exactly
        in trotter2 mode, to roundoff in exact mode. psi0 is therefore
        the unit vector at that index, with unit S-norm.
        """
        gs_state = self.ground_state()
        seeded = apply_sum(excitation, gs_state.amplitudes)
        norm_sq = float(np.real(np.vdot(seeded, seeded)))
        if norm_sq <= 1e-24:
            raise GreensError("excitation annihilates the ground state")
        seed_state = StateVector(seeded / np.sqrt(norm_sq), self.num_sites)

        psi_basis = build_basis(
            seed_state,
            self.config.tilde_n_k,
            self.config.tilde_n_l,
            default_time_step(self.hamiltonian),
            self._evolution,
        )
        psi_mats = assemble_matrices(psi_basis)
        psi0 = np.zeros(len(psi_basis), dtype=complex)
        psi0[psi_basis.indices.index(MultigridIndex(0, 0))] = 1.0
        return psi_basis, psi_mats, psi0, norm_sq

    def recursion(self, excitation: PauliSum) -> tuple[LanczosCoefficients, float]:
        """(particle-part Lanczos coefficients, seed norm squared), one run per seed."""
        if excitation not in self._recursions:
            _, psi_mats, psi0, norm_sq = self.seed_subspace(excitation)
            coeffs = lanczos_iterate(psi_mats, psi0, kappa=self.kappa)
            self._recursions[excitation] = (coeffs, norm_sq)
        return self._recursions[excitation]

    def correlator(self, excitation: PauliSum, z_grid: np.ndarray) -> np.ndarray:
        """Particle plus hole resolvent for one (possibly composite) excitation."""
        coeffs, norm_sq = self.recursion(excitation)
        z = np.asarray(z_grid, dtype=complex)
        return norm_sq * (continued_fraction(coeffs, z) + continued_fraction(coeffs.hole(), z))

    def diagonal_gf(self, kind: str, site: int, z_grid: np.ndarray) -> np.ndarray:
        key = (kind, site, _grid_key(z_grid))
        if key not in self._diag_cache:
            excitation = pauli_sum([single_site(kind, site, self.num_sites)], self.num_sites)
            self._diag_cache[key] = self.correlator(excitation, z_grid)
        return self._diag_cache[key]

    def offdiagonal_gf(self, kind: str, site_a: int, site_b: int, z_grid: np.ndarray) -> np.ndarray:
        if site_a == site_b:
            raise GreensError("off-diagonal path requires distinct sites")
        n = self.num_sites
        combined = pauli_sum([single_site(kind, site_a, n), single_site(kind, site_b, n)], n)
        plus = self.correlator(combined, z_grid)
        g_aa = self.diagonal_gf(kind, site_a, z_grid)
        g_bb = self.diagonal_gf(kind, site_b, z_grid)
        return 0.5 * (plus - g_aa - g_bb)


def _grid_key(z_grid: np.ndarray) -> tuple:
    z = np.asarray(z_grid, dtype=complex)
    return (z.shape, z.tobytes())


def retarded_gf(
    engine: GreensEngine,
    site_a: int,
    site_b: int,
    kind: str,
    omega_grid: np.ndarray,
    delta: float,
) -> np.ndarray:
    """Retarded G_ab(omega + i delta); diagonal directly, off-diagonal via G+."""
    if delta <= 0.0:
        raise GreensError("retarded evaluation requires delta > 0")
    z = np.asarray(omega_grid, dtype=float) + 1j * delta
    if site_a == site_b:
        return engine.diagonal_gf(kind, site_a, z)
    return engine.offdiagonal_gf(kind, site_a, site_b, z)


def _collective_excitation(kind: str, positions: np.ndarray, q: np.ndarray) -> PauliSum:
    """A_q = sum_i exp(i q.r_i) sigma_i^kind as one Pauli sum.

    Built once per (kind, positions, q), so every field's QSE and ED sides
    share one sum and its compiled grouped action. The key is the whole
    input, shapes and bytes, and the sum is built from the key alone.
    """
    positions, q = np.asarray(positions, dtype=float), np.asarray(q, dtype=float)
    return _collective_sum(kind, positions.shape, positions.tobytes(), q.shape, q.tobytes())


@lru_cache(maxsize=32)
def _collective_sum(
    kind: str, positions_shape: tuple[int, ...], positions_bytes: bytes, q_shape: tuple[int, ...], q_bytes: bytes
) -> PauliSum:
    positions = np.frombuffer(positions_bytes).reshape(positions_shape)
    phases = np.exp(1j * (positions @ np.frombuffer(q_bytes).reshape(q_shape)))
    return pauli_sum([single_site(kind, i, len(phases), phase) for i, phase in enumerate(phases)], len(phases))


def dynamical_structure_factor(
    engine: GreensEngine,
    positions: np.ndarray,
    q: np.ndarray,
    omega_grid: np.ndarray,
    delta: float,
    kinds: str = "XYZ",
) -> np.ndarray:
    """S(q, omega) = (1/N) sum_mu Im <A_q^mu^dag R(z) A_q^mu> at fixed field.

    One Krylov subspace per Pauli kind, seeded by the collective
    excitation A_q^mu; its correlator equals the double site sum
    sum_ij exp(-i q.(r_i - r_j)) G^mumu_ij, so the result is real.
    """
    omega = np.asarray(omega_grid, dtype=float)
    z = omega + 1j * delta
    total = np.zeros(omega.size)
    for kind in kinds:
        total += np.imag(engine.correlator(_collective_excitation(kind, positions, q), z))
    return total / engine.num_sites


def dynamical_structure_factor_ed(
    decomp: "oracle_mod.SpectralDecomposition",
    num_sites: int,
    omega_grid: np.ndarray,
    delta: float,
    kinds: str = "XYZ",
    ground_vector: np.ndarray | None = None,
    *,
    positions: np.ndarray | None = None,
    q: np.ndarray = (0.0, 0.0),
) -> np.ndarray:
    """Exact S(q, omega) from the Lehmann weights |<n| A_q^mu |GS>|^2.

    A_q^mu is the same collective operator that seeds the subspace side.
    The kinds' seeds are projected together and their weights summed, so one
    particle and one hole Lehmann sum serve the table. ``positions`` may be
    omitted only at q = 0, where every phase is one. A degenerate ground space
    needs an explicit ``ground_vector`` (:func:`oracle.resolve_ground_vector`).
    """
    if positions is None:
        if np.any(np.asarray(q) != 0.0):
            raise GreensError("q != 0 needs the site positions")
        positions = np.zeros((num_sites, 2))
    z = np.asarray(omega_grid, dtype=float) + 1j * delta
    gs = oracle_mod.resolve_ground_vector(decomp, ground_vector)
    seeded = np.stack([apply_sum(_collective_excitation(kind, positions, q), gs) for kind in kinds])
    weights = np.sum(np.abs(decomp.project(seeded)) ** 2, axis=0)
    evals = decomp.eigenvalues
    resolvent = oracle_mod.lehmann_sum(weights, evals, z) + oracle_mod.lehmann_sum(weights, -evals, z)
    return np.imag(resolvent) / num_sites


def normalize_intensity(table: np.ndarray) -> np.ndarray:
    """Affine rescale of a whole table onto [0, 1]."""
    lo, hi = float(np.min(table)), float(np.max(table))
    if hi - lo <= 0.0:
        return np.zeros_like(table)
    return (table - lo) / (hi - lo)
