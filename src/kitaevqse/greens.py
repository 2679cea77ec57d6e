"""Krylov-subspace Green's functions, spectral functions, structure factor.

The retarded correlator for an excitation operator A splits into a
particle-like part <GS| A^dag (z - H)^-1 A |GS> and a hole-like part
<GS| A^dag (z + H)^-1 A |GS>. Both are evaluated in a multigrid subspace
grown from the normalized A|GS>, which is itself the step-0 row of that
subspace (:attr:`qse.SubspaceBasis.reference_row`). Each seed's subspace is
solved once (:func:`seed_poles`): canonical orthogonalization of S, H in
those S-orthonormal coordinates, one ``eigh``. Its eigenvalues theta_n are
the poles and |<v_n|y>|^2, y the normalized seed there, the weights, times
the squared seed norm because A need not be unitary. The hole part has the
same weights at -theta_n, since (z + H)^-1 = (z - (-H))^-1. Every curve is
then one :func:`oracle.lehmann_sum` over (+-theta, w), the function the
exact-diagonalization side evaluates on (+-E, w). This is the Gauss
quadrature of the seed's spectral measure (Golub & Meurant, *Matrices,
Moments and Quadrature*, 2010) that the dynamical Lanczos continued fraction
(Gagliano & Balseiro, PRL 59, 2999 (1987)) also evaluates;
:func:`lanczos_iterate`, run through the package's one Hermitian Lanczos
(:func:`oracle.lanczos`), still writes each pair seed's tridiagonal
coefficients as an audit record, from which no curve is evaluated.

Single-site Green's functions take A = sigma_a. Off-diagonal elements
come from the polarization identity G_ab = (G+_ab - G_aa - G_bb) / 2 with
G+ seeded by (sigma_a + sigma_b)|GS>, its terms in ascending site order
(:func:`pair_excitation`), so G_ab and G_ba run one seed.

The dynamical structure factor is seeded once per Pauli kind mu by the
collective operator A_q^mu = sum_i exp(i q.r_i) sigma_i^mu, whose
correlator is the whole double site sum sum_ij exp(-i q.(r_i - r_j)) G_ij.
The seeds that one call needs, the kinds of a structure factor or the three
seeds of a pair, are grown together (:meth:`GreensEngine.seed_subspaces`),
so in trotter2 mode they share every evolution stack, and a structure
factor sums all its kinds' poles in one Lehmann sum.
The exact-diagonalization side builds its Lehmann weights from the same
operator, so both sides always measure the same quantity.

No ground-energy shift is applied to z: the evaluation argument is
exactly z = omega + i*delta on both the subspace and the
exact-diagonalization sides, so the two are always comparable.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np

from . import oracle as oracle_mod
from .pauli import PauliSum, apply_sum, gershgorin_kappa, pauli_sum, single_site
from .qse import (
    QseGroundState,
    SubspaceBasis,
    SubspaceMatrices,
    assemble_matrices,
    build_bases,
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
    s_rank: int | None = None  # kept S directions, the depth at which "rank" stops

    def __post_init__(self):
        self.a = np.asarray(self.a, dtype=float)
        self.b = np.asarray(self.b, dtype=float)
        if self.a.size != self.b.size or self.a.size == 0 or self.b[0] != 0.0:
            raise GreensError("need equal-length, non-empty a and b with b[0] = 0")

    def hole(self) -> "LanczosCoefficients":
        """The same recursion for -H: a -> -a, b unchanged."""
        return replace(self, a=-self.a, vectors=None)

    def to_json_dict(self) -> dict:
        return {
            "a": self.a.tolist(),
            "b": self.b.tolist(),
            "termination_index": self.termination_index,
            "stop_reason": self.stop_reason,
            "s_rank": self.s_rank,
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


def _orthonormal_seed(psi_mats: SubspaceMatrices, psi0: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(X, H in the S-orthonormal coordinates of the regularized subspace, psi0 there) at
    ``LANCZOS_S_THRESHOLD``, from the matrices' one factorization of S at it."""
    transform, s_eigs, h_ortho = psi_mats.orthonormal_frame(LANCZOS_S_THRESHOLD)
    # orthonormal coordinates of psi0: y = X^dag S psi0 = s X^dag psi0 on the kept block
    y = s_eigs[-transform.shape[1]:] * (transform.conj().T @ np.asarray(psi0, dtype=complex))
    return transform, h_ortho, y


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
    transform, h_ortho, y = _orthonormal_seed(psi_mats, psi0)
    rank = transform.shape[1]
    b2_tol = LANCZOS_B2_REL_TOL * max(kappa / 2.0, 1.0) ** 2
    a, b, krylov, stop_reason = oracle_mod.lanczos(h_ortho.__matmul__, y, rank, b2_tol)
    return LanczosCoefficients(
        a=a,
        b=b,
        termination_index=a.size,
        vectors=transform @ krylov.T if keep_vectors else None,  # psi-basis coordinates
        stop_reason=stop_reason,
        s_rank=rank,
    )


def seed_poles(psi_mats: SubspaceMatrices, psi0: np.ndarray, norm_sq: float) -> tuple[np.ndarray, np.ndarray]:
    """(poles, weights) with norm_sq <psi0|(z - H)^-1 + (z + H)^-1|psi0> = sum_n weights_n / (z - poles_n)
    on the regularized subspace (H, S).

    One ``eigh`` of H in the S-orthonormal coordinates of :func:`lanczos_iterate` gives the
    poles theta_n and eigenvectors v_n; with y the coordinates of psi0 there, the particle part
    has the weights norm_sq |<v_n|y>|^2 / <y|y> at +theta_n and the hole part the same weights
    at -theta_n. This is the Gauss quadrature of the seed's spectral measure that the Lanczos
    continued fraction evaluates, on the whole regularized subspace.
    """
    _, h_ortho, y = _orthonormal_seed(psi_mats, psi0)
    theta, vectors = np.linalg.eigh(h_ortho)
    weights = norm_sq * np.abs(vectors.conj().T @ y) ** 2 / np.vdot(y, y).real
    return np.concatenate([theta, -theta]), np.concatenate([weights, weights])


def _resolvent(weights: np.ndarray, poles: np.ndarray, z_grid: np.ndarray) -> np.ndarray:
    """:func:`oracle.lehmann_sum` on the grid; raises when a z sits on a pole."""
    with np.errstate(divide="ignore", invalid="ignore"):
        out = oracle_mod.lehmann_sum(weights, poles, np.asarray(z_grid, dtype=complex))
    if not np.all(np.isfinite(out)):
        raise GreensError("the Lehmann sum hit a pole; evaluate with Im z != 0")
    return out


@dataclass(frozen=True)
class KrylovSeed:
    """One excitation's solved subspace: its matrices, psi0, squared seed norm and the
    (poles, weights) of its correlator (:func:`seed_poles`)."""

    matrices: SubspaceMatrices
    psi0: np.ndarray
    norm_sq: float
    poles: np.ndarray
    weights: np.ndarray


@dataclass
class GreensEngine:
    """Shared context for GF runs on one (Hamiltonian, QSE ground state).

    Caches the ground statevector, each seed's solved subspace and
    finished diagonal curves, which every off-diagonal element through the
    polarization identity reuses. Every seed subspace evolves under the
    engine's one ``EvolutionOperator(hamiltonian, config.evolution_mode,
    config.trotter_steps)``, which in trotter2 mode runs the Hamiltonian's
    one compiled step, as the ground-state basis does at any step count, and
    in exact mode reads the oracle's one factorization of the Hamiltonian.
    When the ground-state basis evolves under an equal operator, the engine
    takes that one, with the spectrum it has read.
    """

    hamiltonian: PauliSum
    gs: QseGroundState
    gs_basis: SubspaceBasis
    config: KrylovBasisConfig
    _gs_state: StateVector | None = field(default=None, repr=False)
    _seeds: dict = field(default_factory=dict, repr=False)
    _diag_cache: dict = field(default_factory=dict, repr=False)
    _evolution: EvolutionOperator = field(init=False, repr=False)

    def __post_init__(self):
        if self.gs_basis.evolution.hamiltonian != self.hamiltonian:
            raise GreensError("the ground state was prepared under a Hamiltonian other than the engine's")
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

    def seed_subspaces(
        self, excitations: list[PauliSum]
    ) -> list[tuple[SubspaceBasis, SubspaceMatrices, np.ndarray, float]]:
        """(psi basis, matrices, psi0 coefficients, seed norm squared) per excitation, in order.

        Each basis is grown from its normalized excitation|GS> at the
        default time step, so that state is the basis's step-0 row: exactly
        in trotter2 mode, to roundoff in exact mode. psi0 is therefore
        the unit vector at that row, with unit S-norm. The seeds share
        the engine's V(t) and are built together (:func:`qse.build_bases`),
        so in trotter2 mode they share every evolution stack.
        """
        gs_state = self.ground_state()
        seeds, norms = [], []
        for excitation in excitations:
            seeded = apply_sum(excitation, gs_state.amplitudes)
            norm_sq = float(np.real(np.vdot(seeded, seeded)))
            if norm_sq <= 1e-24:
                raise GreensError("excitation annihilates the ground state")
            seeds.append((StateVector(seeded / np.sqrt(norm_sq), self.num_sites),
                          self.config.tilde_n_k, self.config.tilde_n_l))
            norms.append(norm_sq)
        bases = build_bases(seeds, default_time_step(self.hamiltonian), self._evolution)
        out = []
        for psi_basis, norm_sq in zip(bases, norms):
            psi0 = np.zeros(len(psi_basis), dtype=complex)
            psi0[psi_basis.reference_row] = 1.0
            out.append((psi_basis, assemble_matrices(psi_basis), psi0, norm_sq))
        return out

    def seed_subspace(
        self, excitation: PauliSum
    ) -> tuple[SubspaceBasis, SubspaceMatrices, np.ndarray, float]:
        """The one-seed :meth:`seed_subspaces`."""
        (subspace,) = self.seed_subspaces([excitation])
        return subspace

    def solved_seeds(self, excitations: list[PauliSum]) -> list[KrylovSeed]:
        """Each excitation's solved subspace, built and solved once per seed; the seeds not
        solved yet are built together (:meth:`seed_subspaces`)."""
        missing = list(dict.fromkeys(e for e in excitations if e not in self._seeds))
        if missing:
            for excitation, (_, psi_mats, psi0, norm_sq) in zip(missing, self.seed_subspaces(missing)):
                self._seeds[excitation] = KrylovSeed(psi_mats, psi0, norm_sq, *seed_poles(psi_mats, psi0, norm_sq))
        return [self._seeds[e] for e in excitations]

    def recursion(self, excitation: PauliSum) -> tuple[LanczosCoefficients, float]:
        """(particle-part Lanczos coefficients, seed norm squared) on the seed's solved subspace:
        the coefficient dumps' audit record, from which no curve is evaluated."""
        (seed,) = self.solved_seeds([excitation])
        return lanczos_iterate(seed.matrices, seed.psi0, kappa=self.kappa), seed.norm_sq

    def correlator(self, excitation: PauliSum, z_grid: np.ndarray) -> np.ndarray:
        """Particle plus hole resolvent for one (possibly composite) excitation."""
        (seed,) = self.solved_seeds([excitation])
        return _resolvent(seed.weights, seed.poles, z_grid)

    def diagonal_gf(self, kind: str, site: int, z_grid: np.ndarray) -> np.ndarray:
        key = (kind, site, _grid_key(z_grid))
        if key not in self._diag_cache:
            excitation = pauli_sum([single_site(kind, site, self.num_sites)], self.num_sites)
            self._diag_cache[key] = self.correlator(excitation, z_grid)
        return self._diag_cache[key]

    def offdiagonal_gf(self, kind: str, site_a: int, site_b: int, z_grid: np.ndarray) -> np.ndarray:
        if site_a == site_b:
            raise GreensError("off-diagonal path requires distinct sites")
        combined = pair_excitation(kind, site_a, site_b, self.num_sites)
        # the three seeds of the polarization identity share their evolution stacks
        self.solved_seeds([combined, *(pauli_sum([term], self.num_sites) for term in combined.terms)])
        plus = self.correlator(combined, z_grid)
        g_aa = self.diagonal_gf(kind, site_a, z_grid)
        g_bb = self.diagonal_gf(kind, site_b, z_grid)
        return 0.5 * (plus - g_aa - g_bb)


def pair_excitation(kind: str, site_a: int, site_b: int, num_sites: int) -> PauliSum:
    """sigma_a + sigma_b with its terms in ascending site order: one seed, and one
    cached recursion, for (a, b) and (b, a)."""
    return pauli_sum([single_site(kind, site, num_sites) for site in sorted((site_a, site_b))], num_sites)


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
    sum_ij exp(-i q.(r_i - r_j)) G^mumu_ij, so the result is real. The
    kinds' subspaces are built together (:meth:`GreensEngine.solved_seeds`), and their poles
    go into one Lehmann sum.
    """
    z = np.asarray(omega_grid, dtype=float) + 1j * delta
    seeds = engine.solved_seeds([_collective_excitation(kind, positions, q) for kind in kinds])
    weights, poles = (np.concatenate([getattr(seed, name) for seed in seeds]) for name in ("weights", "poles"))
    return np.imag(_resolvent(weights, poles, z)) / engine.num_sites


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
    Lehmann sum over the poles +-E_n serves the table. ``positions`` may be
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
    both = oracle_mod.lehmann_sum(np.concatenate([weights, weights]), np.concatenate([evals, -evals]), z)
    return np.imag(both) / num_sites


def normalize_intensity(table: np.ndarray) -> np.ndarray:
    """Affine rescale of a whole table onto [0, 1]."""
    lo, hi = float(np.min(table)), float(np.max(table))
    if hi - lo <= 0.0:
        return np.zeros_like(table)
    return (table - lo) / (hi - lo)
