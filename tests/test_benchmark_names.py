"""The package names that the benchmark's tracer and layer probe bind by hand.

``pipebench/tracing.py`` wraps package functions by name, and reads
``GreensEngine._diag_cache`` and ``greens._grid_key`` only when a diagonal
Green's function is looked up; ``pipebench/layer_probe.py`` imports package
names at its top. A renamed or deleted one fails here, in a subprocess so the
tracer's wrappers stay out of every other test.
"""

import os
import subprocess
import sys
from pathlib import Path

import kitaevqse

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import ast, dataclasses, sys
from pathlib import Path

pipebench = Path(sys.argv[1])
sys.path.insert(0, str(pipebench))
import tracing

tracer = tracing.Tracer()
tracing.install(tracer)
from kitaevqse import greens, lattice, simulator

h = lattice.kitaev_hamiltonian(lattice.build_lattice(2, 2), -1.0, 0.1)
psi = simulator.StateVector.computational_basis(8)
for op in (simulator.EvolutionOperator(h), simulator.EvolutionOperator(h, "trotter2", 2)):
    simulator.evolve(psi, op, 0.3)
assert tracer.calls["simulator.evolve.exact"] == 1, tracer.calls
assert tracer.calls["simulator.evolve.trotter2"] == 1, tracer.calls
assert "_diag_cache" in {f.name for f in dataclasses.fields(greens.GreensEngine)}
assert callable(greens._grid_key)

probe = ast.parse((pipebench / "layer_probe.py").read_text())
imports = [node for node in probe.body if isinstance(node, (ast.Import, ast.ImportFrom))]
package = [node for node in imports if "kitaevqse" in ast.unparse(node)]
assert package
for node in package:
    exec(ast.unparse(node), {})
"""


def test_tracer_and_layer_probe_bind_existing_names():
    env = {**os.environ, "PYTHONPATH": str(Path(kitaevqse.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT / "pipebench")],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
