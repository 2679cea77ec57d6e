"""Layer timings at N = 8, 12 and 16 (the ROADMAP Baseline layer table).

    python3 pipebench/layer_probe.py [--sizes 8 12 16] [--repeat 3]

Run from the root of a source checkout. Each entry is the best of
``--repeat`` timings of one call, where a timing loops the call until at
least 0.2 s have passed; the dense factorization, the trotter2 basis build
and the QSE structure factor are timed once. Entries that need a dense
factorization stop at the package's 14-site cap. Not a benchmark workload: it
has no bounds and checks nothing. Takes about two minutes, most of it the N=12 factorization and the
N=16 trotter2 basis.
"""

from __future__ import annotations

import argparse
import os
import platform
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path.cwd() / "src"))

import numpy as np  # noqa: E402

from kitaevqse import greens, lattice, oracle, pauli, qse, vqe  # noqa: E402
from kitaevqse.greens import GreensEngine, KrylovBasisConfig  # noqa: E402
from kitaevqse.simulator import EvolutionOperator, StateVector, _rotation_inplace, evolve  # noqa: E402

SHAPES = {8: (2, 2), 12: (3, 2), 16: (4, 2)}
DENSE_CAP = 14


def best_time(fn, repeat: int) -> float:
    """Best per-call seconds over ``repeat`` timings of at least 0.2 s each."""
    best = float("inf")
    for _ in range(repeat):
        calls, start = 0, time.perf_counter()
        while True:
            fn()
            calls += 1
            elapsed = time.perf_counter() - start
            if elapsed >= 0.2:
                break
        best = min(best, elapsed / calls)
    return best


def fmt(seconds: float | None) -> str:
    if seconds is None:
        return "—"
    return f"{seconds * 1e3:.3g} ms" if seconds < 1.0 else f"{seconds:.3g} s"


def probe(n: int, repeat: int) -> dict[str, str]:
    rows, cols = SHAPES[n]
    lat = lattice.build_lattice(rows, cols)
    h0 = lattice.kitaev_hamiltonian(lat, -1.0)
    h = lattice.kitaev_hamiltonian(lat, -1.0, 0.1)
    rng = np.random.default_rng(n)
    amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    state = StateVector(amps / np.linalg.norm(amps), n)
    bond = h.terms[0]
    dt = qse.default_time_step(h)
    trotter = EvolutionOperator(h, mode="trotter2", trotter_steps=5)
    out = {
        "`apply_sum` H\\|psi>": fmt(best_time(lambda: pauli.apply_sum(h, state.amplitudes), repeat)),
        "one rotation (`_rotation_inplace`)": fmt(best_time(
            lambda: _rotation_inplace(state.amplitudes.copy(), bond, 0.3), repeat)),
        "`term_phases` of one term": fmt(best_time(lambda: pauli.term_phases(bond), repeat)),
        "trotter2 `V(t)`, r=5": fmt(best_time(lambda: evolve(state, trotter, dt), repeat)),
    }
    ansatz = vqe.AnsatzCircuit.for_lattice(lat, 2)
    theta = rng.uniform(-np.pi, np.pi, ansatz.num_parameters)
    out["VQE energy+gradient, d=2"] = fmt(best_time(
        lambda: ansatz.energy_and_gradient(theta, h0, state), repeat))

    exact = EvolutionOperator(h, mode="exact")
    if n <= DENSE_CAP:
        start = time.perf_counter()
        decomp = oracle.diagonalize(h)
        out["dense `oracle.diagonalize`"] = fmt(time.perf_counter() - start)
        exact._eigenvalues = decomp.eigenvalues
        exact._eigenvectors = np.ascontiguousarray(decomp.eigenvectors.real)
        out["exact `V(t)` with cached eigenbasis"] = fmt(best_time(lambda: evolve(state, exact, dt), repeat))
        t_exact = best_time(lambda: qse.build_basis(state, 3, 3, dt, exact), repeat)
    else:
        out["dense `oracle.diagonalize`"] = f"capped at {DENSE_CAP} sites"
        out["exact `V(t)` with cached eigenbasis"] = f"capped at {DENSE_CAP} sites"
        t_exact = None
    start = time.perf_counter()
    qse.build_basis(state, 3, 3, dt, trotter)
    out["`build_basis` (3,3), exact / trotter2 r=5"] = f"{fmt(t_exact)} / {fmt(time.perf_counter() - start)}"

    if n == 8:
        gs, basis, _ = qse.prepare_qse_ground_state(state, h, 3, 3, evolution=exact)
        omega = np.arange(-10.0, 10.05, 0.1)
        start = time.perf_counter()
        engine = GreensEngine(h, gs, basis, KrylovBasisConfig(tilde_n_k=3, tilde_n_l=3))
        greens.dynamical_structure_factor(engine, lat.positions, np.zeros(2), omega, 0.1)
        t_qse = time.perf_counter() - start
        t_ed = best_time(lambda: greens.dynamical_structure_factor_ed(decomp, n, omega, 0.1), repeat)
        out["q=0 DSF for one field (QSE pairwise / ED)"] = f"{fmt(t_qse)} / {fmt(t_ed)}"
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--sizes", nargs="+", type=int, default=[8, 12, 16], choices=sorted(SHAPES))
    parser.add_argument("--repeat", type=int, default=3)
    args = parser.parse_args()
    threads = os.environ.get("OPENBLAS_NUM_THREADS", "unset")
    print(f"Python {platform.python_version()}, numpy {np.__version__}, {os.cpu_count()} cores, "
          f"OPENBLAS_NUM_THREADS={threads}, best of {args.repeat}\n")
    results = {n: probe(n, args.repeat) for n in args.sizes}
    rows = list(results[args.sizes[0]])
    for n in args.sizes:
        rows += [r for r in results[n] if r not in rows]
    print("| layer | " + " | ".join(f"N={n}" for n in args.sizes) + " |")
    print("| --- |" + " --- |" * len(args.sizes))
    for row in rows:
        print(f"| {row} | " + " | ".join(results[n].get(row, "—") for n in args.sizes) + " |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
