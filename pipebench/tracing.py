"""Span tracer for the traced benchmark run.

``install`` replaces the listed kitaevqse functions by wrappers, in every
kitaevqse module namespace that binds them (``greens`` imports
``build_basis`` by name, for instance). Each wrapper records a span (name,
start, end, parent span) in memory and updates its counts. A span's self time
is its duration minus the time covered by its child spans. ``save`` writes the
spans out when the run ends.
"""

from __future__ import annotations

import importlib
import json
import time
from array import array
from collections import Counter, defaultdict
from pathlib import Path

MODULES = ("pauli", "lattice", "simulator", "oracle", "qse", "greens", "vqe", "cli")
LEAF_NAMES = ("pauli.term_phases", "simulator.rotation")


class Tracer:
    """Spans in memory, as parallel arrays indexed by span number.

    Names in ``leaf_names`` run a million times in a trotter2 run, so each of
    their spans is folded into a per-parent total (count, seconds) instead of
    being stored one by one; their time still counts as covered by the parent.
    """

    def __init__(self, leaf_names=LEAF_NAMES):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.leaf_names = frozenset(leaf_names)
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.leaf_totals: dict[tuple[int, int], list] = {}  # (parent, name id) -> [count, s]
        self._stack: list[list] = []  # [span index or -1, covered by children, start]
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.distinct_hamiltonians: set = set()

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def enter(self, name: str) -> None:
        index = -1
        if name not in self.leaf_names:
            index = len(self.span_start)
            self.span_name.append(self._name_id(name))
            self.span_parent.append(self._stack[-1][0] if self._stack else -1)
            self.span_start.append(0.0)
            self.span_end.append(0.0)
        frame = [index, 0.0, 0.0]
        self._stack.append(frame)
        frame[2] = time.perf_counter()

    def exit(self, name: str) -> None:
        end = time.perf_counter()
        index, covered, start = self._stack.pop()
        duration = end - start
        self.calls[name] += 1
        self.self_s[name] += duration - covered
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[1] += duration
        if index >= 0:
            self.span_start[index] = start
            self.span_end[index] = end
        else:
            key = (parent[0] if parent is not None else -1, self._name_id(name))
            total = self.leaf_totals.setdefault(key, [0, 0.0])
            total[0] += 1
            total[1] += duration

    def wrap(self, name: str, fn, after=None, before=None):
        def wrapper(*args, **kwargs):
            if before is not None:
                before(self, args, kwargs)
            self.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.exit(name)
            if after is not None:
                after(self, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def save(self, path: Path) -> None:
        """Spans as JSON columns (name id, parent, start, end) plus leaf totals."""
        path.write_text(json.dumps({
            "names": self.names,
            "name": self.span_name.tolist(),
            "parent": self.span_parent.tolist(),
            "start": self.span_start.tolist(),
            "end": self.span_end.tolist(),
            "leaf_totals": [[p, n, c, s] for (p, n), (c, s) in self.leaf_totals.items()],
        }))


def _hamiltonian_key(h) -> tuple:
    return tuple((t.axes, t.coefficient) for t in h.terms)


def _rebind(modules: dict, original, replacement) -> None:
    """Replace ``original`` by ``replacement`` wherever a kitaevqse module binds it."""
    for module in modules.values():
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def install(tracer: Tracer) -> None:
    modules = {name: importlib.import_module(f"kitaevqse.{name}") for name in MODULES}
    pauli, simulator, oracle = modules["pauli"], modules["simulator"], modules["oracle"]
    qse, greens, vqe = modules["qse"], modules["greens"], modules["vqe"]

    def count(key, value_of):
        def after(tr, args, kwargs, result):
            tr.counts[key] += value_of(args, kwargs, result)
        return after

    def diagonalized(tr, args, kwargs, result):
        tr.distinct_hamiltonians.add(_hamiltonian_key(args[0]))

    def gs_solved(tr, args, kwargs, result):
        report = result.regularization_report
        tr.counts["qse.solve_ground_state.kept"] += report["kept"]
        tr.counts["qse.solve_ground_state.discarded"] += report["discarded"]

    functions = [
        (pauli, "apply_sum", "pauli.apply_sum", None),
        (pauli, "term_phases", "pauli.term_phases", None),
        (pauli, "to_matrix", "pauli.to_matrix", None),
        (simulator, "_rotation_inplace", "simulator.rotation", None),
        (simulator, "_evolve_exact", "simulator.evolve.exact", None),
        (simulator, "_evolve_trotter2", "simulator.evolve.trotter2", None),
        (simulator, "evolve_times", "simulator.evolve_times",
         count("simulator.evolve_times.states", lambda a, k, r: len(r))),
        (oracle, "diagonalize", "oracle.diagonalize", diagonalized),
        (oracle, "exact_resolvent_gf", "oracle.exact_resolvent_gf", None),
        (qse, "build_basis", "qse.build_basis",
         count("qse.build_basis.states", lambda a, k, r: len(r))),
        (qse, "assemble_matrices", "qse.assemble_matrices", None),
        (qse, "solve_ground_state", "qse.solve_ground_state", gs_solved),
        (greens, "lanczos_iterate", "greens.lanczos_iterate",
         count("greens.lanczos_iterate.steps", lambda a, k, r: r.termination_index)),
        (greens, "continued_fraction", "greens.continued_fraction", None),
        (greens, "dynamical_structure_factor", "greens.dynamical_structure_factor", None),
        (greens, "dynamical_structure_factor_ed", "greens.dynamical_structure_factor_ed", None),
        (vqe, "prepare_reference_state", "vqe.prepare_reference_state", None),
        (vqe, "prepare_sector_state", "vqe.prepare_sector_state", None),
    ]
    for module, attr, name, after in functions:
        original = getattr(module, attr)
        _rebind(modules, original, tracer.wrap(name, original, after))

    engine = greens.GreensEngine
    engine.correlator = tracer.wrap("greens.correlator", engine.correlator)
    engine.seed_subspace = tracer.wrap("greens.seed_subspace", engine.seed_subspace)

    def diagonal_lookup(tr, args, kwargs):
        self, kind, site, z_grid = args
        if (kind, site, greens._grid_key(z_grid)) in self._diag_cache:
            tr.counts["greens.diagonal_gf.hits"] += 1

    engine.diagonal_gf = tracer.wrap("greens.diagonal_gf", engine.diagonal_gf, before=diagonal_lookup)

    ansatz = vqe.AnsatzCircuit
    ansatz.energy_and_gradient = tracer.wrap("vqe.energy_and_gradient", ansatz.energy_and_gradient)

    # A dense factorization happens on the first _eigendecomposition call only.
    operator = simulator.EvolutionOperator
    factorize = operator._eigendecomposition
    traced_factorize = tracer.wrap("simulator.factorization", factorize)

    def eigendecomposition(self):
        if self._eigenvalues is not None:
            return factorize(self)
        tracer.distinct_hamiltonians.add(_hamiltonian_key(self.hamiltonian))
        return traced_factorize(self)

    operator._eigendecomposition = eigendecomposition


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer figures named as in BENCHMARK.json."""
    calls, self_s, counts = tracer.calls, tracer.self_s, tracer.counts
    out: dict[str, float] = {}
    for name in (
        "pauli.apply_sum", "pauli.term_phases", "pauli.to_matrix",
        "simulator.evolve.exact", "simulator.evolve.trotter2", "simulator.evolve_times",
        "oracle.diagonalize", "qse.build_basis", "qse.assemble_matrices",
        "qse.solve_ground_state", "greens.lanczos_iterate", "greens.diagonal_gf",
        "vqe.energy_and_gradient", "vqe.prepare_reference_state",
    ):
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.self_s"] = self_s[name]
    for name in (
        "oracle.exact_resolvent_gf", "greens.seed_subspace", "greens.continued_fraction",
        "greens.dynamical_structure_factor", "greens.dynamical_structure_factor_ed",
        "vqe.prepare_sector_state",
    ):
        out[f"{name}.self_s"] = self_s[name]
    out["simulator.rotations"] = calls["simulator.rotation"]
    out["simulator.rotation.self_s"] = self_s["simulator.rotation"]
    out["simulator.factorizations"] = calls["simulator.factorization"]
    out["simulator.factorization.self_s"] = self_s["simulator.factorization"]
    out["greens.correlator.calls"] = calls["greens.correlator"]
    for key in (
        "simulator.evolve_times.states", "qse.build_basis.states",
        "qse.solve_ground_state.kept", "qse.solve_ground_state.discarded",
        "greens.lanczos_iterate.steps",
    ):
        out[key] = counts[key]
    diag_calls = calls["greens.diagonal_gf"]
    out["greens.diagonal_gf.hit_ratio"] = counts["greens.diagonal_gf.hits"] / diag_calls if diag_calls else 0.0
    dense = calls["oracle.diagonalize"] + calls["simulator.factorization"]
    out["dense.distinct_ratio"] = len(tracer.distinct_hamiltonians) / dense if dense else 0.0
    for stage in ("ed-reference", "vqe", "qse", "greens", "dsf"):
        out[f"cli.{stage}.self_s"] = self_s[f"cli.{stage}"]
    return out
