import pytest

from kitaevqse import lattice, oracle, qse, vqe
from kitaevqse.greens import GreensEngine, KrylovBasisConfig
from kitaevqse.simulator import EvolutionOperator


@pytest.fixture(scope="session")
def lat8():
    return lattice.build_lattice(2, 2)


@pytest.fixture(scope="session")
def lat12():
    return lattice.build_lattice(3, 2)


@pytest.fixture(scope="session")
def h0_8(lat8):
    return lattice.kitaev_hamiltonian(lat8, -1.0)


@pytest.fixture(scope="session")
def h_8(lat8):
    return lattice.kitaev_hamiltonian(lat8, -1.0, 0.1)


@pytest.fixture
def no_blocks(monkeypatch):
    """Calls that reached :func:`oracle.symmetry_blocks`, which raises instead of building
    anything, so a dense-cap test never allocates a refused stack."""
    calls = []

    def refuse(h):
        calls.append(h)
        raise AssertionError("symmetry_blocks reached")

    monkeypatch.setattr(oracle, "symmetry_blocks", refuse)
    return calls


@pytest.fixture(scope="session")
def dec0_8(h0_8):
    return oracle.diagonalize(h0_8)


@pytest.fixture(scope="session")
def dec_8(h_8):
    return oracle.diagonalize(h_8)


@pytest.fixture(scope="session")
def ref8(lat8, h0_8):
    state, _, _ = vqe.prepare_reference_state(lat8, h0_8, layers=1, seed=1)
    return state


@pytest.fixture(scope="session")
def evolution_8(h_8):
    return EvolutionOperator(h_8)


@pytest.fixture(scope="session")
def qse8(ref8, h_8):
    return qse.prepare_qse_ground_state(ref8, h_8, 3, 3)


@pytest.fixture(scope="session")
def engine8(h_8, qse8):
    gs, basis, _ = qse8
    return GreensEngine(h_8, gs, basis, KrylovBasisConfig(tilde_n_k=3, tilde_n_l=3))


# ---- N=12 (heavier; built lazily, shared once built) ----

@pytest.fixture(scope="session")
def h0_12(lat12):
    return lattice.kitaev_hamiltonian(lat12, -1.0)


@pytest.fixture(scope="session")
def h_12(lat12):
    return lattice.kitaev_hamiltonian(lat12, -1.0, 0.1)


@pytest.fixture(scope="session")
def dec0_12(h0_12):
    return oracle.diagonalize(h0_12)


@pytest.fixture(scope="session")
def dec_12(h_12):
    return oracle.diagonalize(h_12)


@pytest.fixture(scope="session")
def vqe12(lat12, h0_12):
    """Criterion 1's N=12, J=-1, d=2 training at seed 1, which ``ref12`` also reads."""
    return vqe.prepare_reference_state(lat12, h0_12, layers=2, seed=1)


@pytest.fixture(scope="session")
def ref12(vqe12):
    state, _, _ = vqe12
    return state
