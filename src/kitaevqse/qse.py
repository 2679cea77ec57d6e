"""Quantum subspace expansion: multigrid basis, H/S assembly, eigensolve.

Basis states are time evolutions of a reference state on a two-level
grid: a coarse stride of (n_k+1) time steps raised to the power l, then
k fine steps on top. Index order is l ascending, k ascending within
each l, so matrices are reproducible across runs. At fixed n_k the grids
nest: the |l| <= n_l states of a deeper basis are a contiguous block of
it, and they are the states of the n_l basis itself, bit for bit, so a
sweep over n_l builds one basis per n_k and reads each smaller n_l off
its principal submatrices (:func:`nested_subspace`). For a trotter2
basis that block's S and H equal a separate assembly to roundoff (about
1e-10 in the swept energies); an exact block reads its own Toeplitz
sequences, as cheap as slicing.

A basis is always assembled under the Hamiltonian it evolves under, either
applying H directly or through the Hamiltonian operator approximation
(HOA), a sine difference of evolution overlaps; the HOA step tau alone
selects the second. In exact evolution the grid is uniform, t = m dt with
m = -M..M ascending in index order, so every overlap depends on the lag
m_b - m_a alone: S and H are Toeplitz and come from 2M+1 autocorrelation
entries of the reference (Cortes & Gray, PRA 105, 022417 (2022)).
So an exact basis holds no state. Trotterized bases, whose V_r(t) is not a
group in t, hold one amplitude stack and are assembled from its overlaps;
their symmetric product formula is time-reversible, V_r(-tau) =
V_r(tau)^dag, so HOA evolves the stack in one direction only.

The generalized eigenproblem H phi = E S phi is solved by canonical
orthogonalization: eigendecompose S, drop the near-null directions,
transform to an ordinary Hermitian problem, solve densely. Spectral
truncation (rather than a ridge term) keeps the solution inside the
span of the basis, so the variational bound on the energy survives
regularization. :func:`canonical_orthogonalization` factorizes S here
and in ``greens``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .pauli import PauliSum, apply_sum, gershgorin_kappa
from .simulator import (
    EvolutionOperator,
    StateVector,
    autocorrelations,
    evolve_stack,
    evolved_superposition,
)

DEFAULT_S_THRESHOLD = 1e-12
HERMITICITY_TOL = 1e-10


class QseError(ValueError):
    pass


@dataclass(frozen=True)
class MultigridIndex:
    """(l, k) position on the two-level time grid."""

    l: int
    k: int


def multigrid_indices(n_k: int, n_l: int) -> list[MultigridIndex]:
    """All (l, k) pairs, l ascending then k ascending.

    k spans (0, n_k) for l > 0, (-n_k, 0) for l < 0 and (-n_k, n_k) for
    l = 0, which makes the total count 2(n_l+1)(n_k+1) - 1.
    """
    if n_k < 0 or n_l < 0:
        raise QseError("n_k and n_l must be non-negative")
    out: list[MultigridIndex] = []
    for l in range(-n_l, n_l + 1):
        if l > 0:
            ks = range(0, n_k + 1)
        elif l < 0:
            ks = range(-n_k, 1)
        else:
            ks = range(-n_k, n_k + 1)
        out.extend(MultigridIndex(l, k) for k in ks)
    return out


def basis_size(n_k: int, n_l: int) -> int:
    return 2 * (n_l + 1) * (n_k + 1) - 1


def _grid_steps(indices: Sequence[MultigridIndex]) -> np.ndarray:
    """Step m of each (l, k), t = m dt: the coarse stride is n_k + 1 fine steps.

    In index order this is -M .. M ascending, M = n_l (n_k + 1) + n_k.
    """
    stride = 1 + max(abs(idx.k) for idx in indices)
    return np.array([idx.l * stride + idx.k for idx in indices])


def default_time_step(h: PauliSum) -> float:
    """2*pi over the Gershgorin spectral-width bound."""
    return 2.0 * np.pi / gershgorin_kappa(h)


@dataclass
class SubspaceBasis:
    """The reference, its grid and its V(t); each basis state is V(t_b)|ref>.

    A trotter2 basis holds its states as one (n_phi, 2^N) ``amplitudes``
    stack, one row per basis state in index order. An exact basis holds
    none (``amplitudes`` is None): its matrices and its reconstructed state
    come from the spectral weights of the reference.
    """

    reference: StateVector
    indices: list[MultigridIndex]
    delta_t: float
    evolution: EvolutionOperator
    amplitudes: np.ndarray | None = field(default=None, repr=False)

    def __len__(self) -> int:
        return len(self.indices)


def build_basis(
    ref: StateVector,
    n_k: int,
    n_l: int,
    delta_t: float,
    evolution: EvolutionOperator,
) -> SubspaceBasis:
    """Evolve the reference onto the two-level multigrid.

    state(l, k) = V(k dt) (V((n_k+1) dt))^l ref, with negative l using
    the inverse coarse evolution. In trotter2 mode each V application is
    one product-formula evolution over its full time argument, so the
    step count per basis state stays at r*(|l|+1). The circuits are shared
    through :func:`simulator.evolve_stack`: the +l and -l anchors advance as
    one 2-row stack per level, the anchors fill the basis stack in index
    order, and its k != 0 rows are evolved in one stack, each row at its own
    k dt. A stacked row is the one-state evolution bit for bit, which
    :func:`nested_subspace` relies on. In exact mode no state is formed (see
    :class:`SubspaceBasis`).
    """
    if delta_t <= 0.0:
        raise QseError("delta_t must be positive")
    indices = multigrid_indices(n_k, n_l)
    coarse_t = (n_k + 1) * delta_t

    if evolution.mode == "exact":
        return SubspaceBasis(ref, indices, delta_t, evolution)

    anchors = {0: ref.amplitudes}
    for l in range(1, n_l + 1):
        anchors[l], anchors[-l] = evolve_stack(
            evolution, np.stack([anchors[l - 1], anchors[-(l - 1)]]), [coarse_t, -coarse_t]
        )
    amplitudes = np.stack([anchors[idx.l] for idx in indices])
    fine = [b for b, idx in enumerate(indices) if idx.k != 0]
    if fine:  # there are no k != 0 states when n_k = 0
        amplitudes[fine] = evolve_stack(evolution, amplitudes[fine], [indices[b].k * delta_t for b in fine])
    return SubspaceBasis(ref, indices, delta_t, evolution, amplitudes)


@dataclass
class SubspaceMatrices:
    hamiltonian: np.ndarray
    overlap: np.ndarray
    hoa_tau: float | None = None

    @property
    def assembly_mode(self) -> str:
        return "exact" if self.hoa_tau is None else "hoa"

    def to_json_dict(self) -> dict:
        return {
            "assembly_mode": self.assembly_mode,
            "hoa_tau": self.hoa_tau,
            "hamiltonian_re": self.hamiltonian.real.tolist(),
            "hamiltonian_im": self.hamiltonian.imag.tolist(),
            "overlap_re": self.overlap.real.tolist(),
            "overlap_im": self.overlap.imag.tolist(),
        }


def assemble_matrices(basis: SubspaceBasis, hoa_tau: float | None = None) -> SubspaceMatrices:
    """Fill H_ab = <a|H|b> and S_ab = <a|b> over the basis, H the Hamiltonian
    the basis evolves under.

    Without ``hoa_tau`` H is applied directly. With it, H is replaced by the
    Hamiltonian operator approximation, a central sine difference of evolution
    overlaps, (<a|V(-tau)|b> - <a|V(tau)|b>) / (2i tau), hermitized; the
    relative error is O((tau*kappa)^2), and tau*kappa outside (0, 1) is rejected.

    An exact basis fills both matrices as Toeplitz sequences in the grid step
    m of each state (t = m dt): S_ab = c(m_b - m_a) and H_ab = h(m_b - m_a),
    with h built from f(E) = E, or f(E) = sin(E tau)/tau under HOA, negative
    lags the complex conjugates. The 2M+1 sequence entries come from
    :func:`simulator.autocorrelations`. A trotter2 basis is assembled from its
    statevectors.
    """
    if hoa_tau is not None:
        tau_kappa = hoa_tau * gershgorin_kappa(basis.evolution.hamiltonian)
        if not 0.0 < tau_kappa < 1.0:
            raise QseError(f"tau*kappa = {tau_kappa:g} outside (0, 1): sine-difference approximation invalid")
    if basis.evolution.mode == "exact":
        s_mat, h_mat = _toeplitz_matrices(basis, hoa_tau)
    else:
        s_mat, h_mat = _statevector_matrices(basis, hoa_tau)
    return SubspaceMatrices(h_mat, s_mat, hoa_tau)


def _toeplitz_matrices(basis: SubspaceBasis, hoa_tau: float | None) -> tuple[np.ndarray, np.ndarray]:
    """(S, H) from the reference's two autocorrelation sequences, indexed by
    lag: f(E) = E, or sin(E tau)/tau when ``hoa_tau`` is given."""
    def spectral_filter(energies):
        return energies if hoa_tau is None else np.sin(energies * hoa_tau) / hoa_tau

    steps = _grid_steps(basis.indices)
    lag = steps[None, :] - steps[:, None]  # m_b - m_a
    sequences = autocorrelations(
        basis.evolution, basis.reference, basis.delta_t, int(lag.max()) + 1, spectral_filter
    )
    s_mat, h_mat = (np.where(lag >= 0, seq[abs(lag)], seq[abs(lag)].conj()) for seq in sequences)
    return s_mat, h_mat


def _statevector_matrices(basis: SubspaceBasis, hoa_tau: float | None) -> tuple[np.ndarray, np.ndarray]:
    """(S, H) from overlaps of the basis states: H applied directly, or the
    HOA sine difference when ``hoa_tau`` is given, from V(tau) alone, which
    evolves all basis states as one stack (:func:`simulator.evolve_stack`)."""
    phi = basis.amplitudes
    s_mat = phi.conj() @ phi.T
    if hoa_tau is None:
        h_phi = np.stack([apply_sum(basis.evolution.hamiltonian, row) for row in phi])
        h_mat = phi.conj() @ h_phi.T
        residual = np.max(np.abs(h_mat - h_mat.conj().T))
        if residual > HERMITICITY_TOL * max(1.0, np.max(np.abs(h_mat))):
            raise QseError(f"assembled H has hermiticity residual {residual:g}")
    else:
        # M_ab = <a|V(tau)|b>, and <a|V(-tau)|b> = conj(M_ba) since V_r(-tau) = V_r(tau)^dag
        # (see trotter_schedule): one stacked evolution, and (M^dag - M)/(2i tau) is Hermitian
        fwd = evolve_stack(basis.evolution, phi, np.full(len(phi), hoa_tau))
        m_mat = phi.conj() @ fwd.T
        h_mat = (m_mat.conj().T - m_mat) / (2j * hoa_tau)
    return 0.5 * (s_mat + s_mat.conj().T), 0.5 * (h_mat + h_mat.conj().T)


def nested_subspace(
    basis: SubspaceBasis, mats: SubspaceMatrices, n_l: int
) -> tuple[SubspaceBasis, SubspaceMatrices]:
    """The |l| <= n_l block of an assembled basis, and its S and H.

    The block holds the states that ``build_basis`` gives at n_l, bit for
    bit: the anchor chain and the fine evolutions are the same calls. A
    trotter2 block is a slice of the amplitude stack and reads S and H off
    the principal submatrices; an exact block holds no states and reads its
    own Toeplitz sequences, which match a basis assembled alone exactly.
    """
    n_k = max(abs(idx.k) for idx in basis.indices)
    depth = max(abs(idx.l) for idx in basis.indices)
    if not 0 <= n_l <= depth:
        raise QseError(f"n_l = {n_l} is not nested in a basis of depth {depth}")
    if n_l == depth:
        return basis, mats
    start = (depth - n_l) * (n_k + 1)  # the n_k + 1 states of each deeper |l| come before
    block = slice(start, start + basis_size(n_k, n_l))
    rows = None if basis.amplitudes is None else basis.amplitudes[block]
    sub = SubspaceBasis(basis.reference, basis.indices[block], basis.delta_t, basis.evolution, rows)
    if rows is None:
        return sub, assemble_matrices(sub, mats.hoa_tau)
    return sub, SubspaceMatrices(mats.hamiltonian[block, block], mats.overlap[block, block], mats.hoa_tau)


@dataclass
class QseGroundState:
    coefficients: np.ndarray
    energy: float
    regularization_report: dict


def canonical_orthogonalization(
    s_mat: np.ndarray, threshold: float = DEFAULT_S_THRESHOLD
) -> tuple[np.ndarray, np.ndarray]:
    """(X, ascending S eigenvalues): X^dag S X = I on the S-eigendirections
    above ``threshold`` times the largest, one column of X per kept direction.
    """
    s_eigs, s_vecs = np.linalg.eigh(s_mat)
    if s_eigs[-1] <= 0.0:
        raise QseError("overlap matrix is numerically rank zero")
    keep = s_eigs > threshold * s_eigs[-1]
    if not np.any(keep):
        raise QseError("regularization discarded the entire subspace")
    return s_vecs[:, keep] / np.sqrt(s_eigs[keep]), s_eigs


def solve_ground_state(
    mats: SubspaceMatrices,
    threshold: float = DEFAULT_S_THRESHOLD,
    psd_tol: float = 1e-12,
) -> QseGroundState:
    """Minimal generalized eigenpair on the regularized subspace.

    The returned coefficient vector is S-normalized. The overlap matrix
    must be PSD within ``psd_tol`` (relative to its largest eigenvalue);
    directions with S-eigenvalue below ``threshold`` times the largest
    are discarded before the transformed Hermitian solve.
    """
    s_mat, h_mat = mats.overlap, mats.hamiltonian
    for name, mat in (("S", s_mat), ("H", h_mat)):
        residual = np.max(np.abs(mat - mat.conj().T))
        if residual > 1e-8 * max(1.0, np.max(np.abs(mat))):
            raise QseError(f"{name} is not Hermitian (residual {residual:g})")

    transform, s_eigs = canonical_orthogonalization(s_mat, threshold)
    if s_eigs[0] < -psd_tol * s_eigs[-1]:
        raise QseError(f"overlap matrix is not PSD: min eigenvalue {s_eigs[0]:g}")
    h_ortho = transform.conj().T @ h_mat @ transform
    h_ortho = 0.5 * (h_ortho + h_ortho.conj().T)
    evals, evecs = np.linalg.eigh(h_ortho)
    coeffs = transform @ evecs[:, 0]

    kept = transform.shape[1]
    report = {
        "s_eigenvalues": s_eigs.tolist(),
        "threshold": threshold,
        "kept": kept,
        "discarded": s_eigs.size - kept,
        "condition_number": float(s_eigs[-1] / s_eigs[-kept]),
    }
    return QseGroundState(coefficients=coeffs, energy=float(evals[0]), regularization_report=report)


def reconstruct_state(gs: QseGroundState, basis: SubspaceBasis) -> StateVector:
    """Sum the basis states with the solved coefficients (unit norm by S-normalization).

    An exact basis sums sum_b c_b V(t_b)|ref> in one spectral pass, with no
    basis state formed.
    """
    if basis.evolution.mode == "exact":
        steps = _grid_steps(basis.indices)
        return evolved_superposition(basis.evolution, basis.reference, basis.delta_t, steps, gs.coefficients)
    return StateVector(basis.amplitudes.T @ gs.coefficients, basis.reference.num_sites)


def prepare_qse_ground_state(
    reference: StateVector,
    h: PauliSum,
    n_k: int,
    n_l: int,
    *,
    evolution: EvolutionOperator | None = None,
    hoa_tau: float | None = None,
) -> tuple[QseGroundState, SubspaceBasis, SubspaceMatrices]:
    """One-call pipeline: basis at the default time step, matrices, solve.

    V(t) is ``evolution``, by default the exact ``EvolutionOperator(h)``, which
    shares the oracle's one factorization of ``h``; an ``evolution`` under
    another Hamiltonian raises QseError. ``hoa_tau`` selects HOA assembly
    (:func:`assemble_matrices`).
    """
    if evolution is None:
        evolution = EvolutionOperator(h)
    elif evolution.hamiltonian != h:
        raise QseError("evolution runs under a Hamiltonian other than h")
    basis = build_basis(reference, n_k, n_l, default_time_step(h), evolution)
    mats = assemble_matrices(basis, hoa_tau)
    gs = solve_ground_state(mats)
    return gs, basis, mats


SubspaceShape = tuple[str, int, int, int]  # (evolution mode, r, n_k, n_l); r = 0 in exact mode


def sweep_shapes(
    shape_pairs: Sequence[tuple[int, int]], evolution_mode: str, trotter_steps: Sequence[int]
) -> list[SubspaceShape]:
    """One shape per (n_l, n_k) and, when Trotterized, per step count r, in
    sweep order; exact evolution records r = 0 since no step count applies."""
    rs = [0] if evolution_mode == "exact" else list(trotter_steps)
    return [(evolution_mode, r, n_k, n_l) for n_l, n_k in shape_pairs for r in rs]


def deepest_subspaces(
    reference: StateVector, h: PauliSum, shapes: Iterable[SubspaceShape]
) -> dict[tuple[str, int, int], tuple[SubspaceBasis, SubspaceMatrices]]:
    """One directly assembled basis per (mode, r, n_k) of ``shapes``, at the
    largest n_l any of them asks for and the default time step; a shape is
    then the :func:`nested_subspace` of the entry at ``shape[:3]``."""
    depth: dict[tuple[str, int, int], int] = {}
    for shape in shapes:
        depth[shape[:3]] = max(depth.get(shape[:3], 0), shape[3])
    delta_t = default_time_step(h)
    out = {}
    for (mode, r, n_k), n_l in depth.items():
        basis = build_basis(reference, n_k, n_l, delta_t, EvolutionOperator(h, mode, max(r, 1)))
        out[mode, r, n_k] = basis, assemble_matrices(basis)
    return out


def qse_energy_curve(
    subspaces: dict[tuple[str, int, int], tuple[SubspaceBasis, SubspaceMatrices]],
    shapes: Sequence[SubspaceShape],
    exact_energy: float,
) -> list[dict]:
    """Energy-distance sweep: one row dict per shape, in order, with keys
    (n_l, n_k, n_phi, r, mode, energy, delta_e), each solved on the
    :func:`nested_subspace` of its entry in ``subspaces``
    (:func:`deepest_subspaces` of these shapes or of more)."""
    rows: list[dict] = []
    for mode, r, n_k, n_l in shapes:
        _, mats = nested_subspace(*subspaces[mode, r, n_k], n_l)
        gs = solve_ground_state(mats)
        rows.append({
            "n_l": n_l,
            "n_k": n_k,
            "n_phi": basis_size(n_k, n_l),
            "r": r,
            "mode": mode,
            "energy": gs.energy,
            "delta_e": abs(gs.energy - exact_energy),
        })
    return rows
