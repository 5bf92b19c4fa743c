"""Start-up behaviour of the package and the CLI, each case in a fresh
interpreter: lazy exports, the BLAS thread count the CLI picks, and the
numpy submodules a poles run loads."""

import json
import os
import subprocess
import sys

import graphscatter

BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SRC = os.path.dirname(os.path.dirname(graphscatter.__file__))

# every name the package exported when it imported its submodules eagerly,
# less the announced removals: FitResidualTooLarge, which went with the
# coefficient form of the secular polynomial, and the permutation builders,
# check_rotation_invariance, InvalidCycle and triangle_star_permutation,
# which no command read
EXPORTED = {
    "errors": ["DanglingVertexReference", "DegenerateConstantPolynomial", "DegreeMismatch",
               "DisconnectedGraph", "EmptyInterval", "GraphScatterError",
               "IncommensurableLengths", "MissingVertexMatrix", "NearPole",
               "NonConstantLocals", "NonPositiveLength", "NotCompact", "NotInvolutive",
               "NumericalError", "ReductionNotApplicable", "SeriesDiverges", "SizeMismatch",
               "SpecFileError", "UnknownFixture", "UnknownSolid", "ValidationError"],
    "graph": ["ExternalEdge", "Graph", "GraphSpec", "InternalEdge", "LocalSpec", "ModeIndex",
              "build_graph", "mode_index"],
    "local": ["LocalScattering", "constant_local", "kirchhoff_local", "momentum_local",
              "tetra2_local"],
    "assemble": ["BlockSystem", "PropagationMatrix", "assemble_blocks",
                 "assemble_propagation", "resolve_locals"],
    "solve": ["TotalSMatrix", "grid_defects", "internal_modes", "path_sum_oracle",
              "scattering_grid", "total_scattering", "verify_involution", "verify_unitarity"],
    "spectral": ["PoleRecord", "SecularPolynomial", "compact_spectrum", "eigenmomenta",
                 "find_poles", "secular_determinant", "secular_polynomial",
                 "symmetry_factor_check"],
    "generators": ["Colouring", "Fixture", "canonical", "commuting_colour_matrices", "platonic",
                   "triangle_and_star_pair"],
    "specfile": ["graph_to_spec", "load_spec", "locals_from_spec", "parse_spec", "save_spec",
                 "spec_to_dict"],
}


def fresh(code, *args, **env_changes):
    """stdout of `python -c code *args` with src on the path, the BLAS
    thread variables removed and then env_changes applied."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARIABLES}
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    env.update(env_changes)
    done = subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_import_loads_no_numpy():
    out = fresh("import sys, graphscatter; print('numpy' in sys.modules, graphscatter.__version__)")
    assert out.split() == ["False", "0.1.0"]


def test_exports_resolve_to_their_submodules():
    fresh("""
import importlib, json, sys
import graphscatter
exported = json.loads(sys.argv[1])
for module, names in exported.items():
    # through the package first, so the lazy path runs before the import
    got = [getattr(graphscatter, name) for name in names]
    sub = importlib.import_module("graphscatter." + module)
    assert sorted(getattr(sub, "__all__", names)) == sorted(names), module
    assert got == [getattr(sub, name) for name in names], module
    assert all(a is getattr(sub, b) for a, b in zip(got, names)), module
    assert graphscatter.__dict__[module] is sub
import graphscatter.cli
assert graphscatter.cli is sys.modules["graphscatter.cli"]
listed = dir(graphscatter)
assert all(name in listed for names in exported.values() for name in names)
assert all(module in listed for module in (*exported, "cli"))
""", json.dumps(EXPORTED))


def test_lazy_submodule_attribute():
    out = fresh("import sys, graphscatter; m = graphscatter.spectral; "
                "print(m is sys.modules['graphscatter.spectral'], m.__name__)")
    assert out.split() == ["True", "graphscatter.spectral"]


def test_star_import_binds_every_export():
    fresh("""
import json, sys
import graphscatter
names = {}
exec("from graphscatter import *", names)
for module, exported in json.loads(sys.argv[1]).items():
    for name in exported:
        assert names[name] is getattr(sys.modules["graphscatter." + module], name), name
""", json.dumps(EXPORTED))


def test_unknown_attribute_raises_attribute_error():
    out = fresh("""
import graphscatter
try:
    graphscatter.no_such_name
except AttributeError as exc:
    print(exc)
try:
    from graphscatter import no_such_name
except ImportError:
    print("ImportError")
print(hasattr(graphscatter, "no_such_name"), hasattr(graphscatter, "__path__"))
""")
    assert out.splitlines() == ["module 'graphscatter' has no attribute 'no_such_name'",
                                "ImportError", "False True"]


# records each BLAS thread variable at the moment numpy starts to load
WATCH_NUMPY = """
import os, sys
seen = []
class Watch:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" and not seen:
            seen.append({k: os.environ.get(k) for k in %r})
sys.meta_path.insert(0, Watch())
""" % (BLAS_THREAD_VARIABLES,)


def blas_env_at_numpy_import(code, **env_changes):
    seen, after = fresh(WATCH_NUMPY + code + "\nprint(json.dumps(seen[0]))\n"
                        "print(json.dumps({k: os.environ.get(k) for k in %r}))"
                        % (BLAS_THREAD_VARIABLES,), **env_changes).splitlines()
    return json.loads(seen), json.loads(after)


def test_cli_pins_one_blas_thread_before_numpy_loads():
    seen, after = blas_env_at_numpy_import("import json, graphscatter.cli")
    assert seen == after == dict.fromkeys(BLAS_THREAD_VARIABLES, "1")
    # an empty value counts as unset, as OpenBLAS reads it
    seen, _ = blas_env_at_numpy_import("import json, graphscatter.cli", OPENBLAS_NUM_THREADS="")
    assert seen == dict.fromkeys(BLAS_THREAD_VARIABLES, "1")


def test_cli_keeps_a_thread_count_the_caller_set():
    seen, after = blas_env_at_numpy_import("import json, graphscatter.cli", OMP_NUM_THREADS="3")
    assert seen == after == {"OPENBLAS_NUM_THREADS": None, "OMP_NUM_THREADS": "3",
                             "MKL_NUM_THREADS": None}


def test_cli_leaves_a_process_that_loaded_numpy_alone():
    seen, after = blas_env_at_numpy_import("import json, numpy, graphscatter.cli")
    assert seen == after == dict.fromkeys(BLAS_THREAD_VARIABLES)


def test_poles_loads_neither_numpy_ma_nor_polynomial(tmp_path):
    # numpy 1.x loads both with numpy itself, numpy 2 only on demand
    out = fresh("""
import os, sys, numpy
before = set(sys.modules)
from graphscatter.cli import main
for name in ("dodecahedron", "fabry_perot", "tadpole"):
    graph = os.path.join(sys.argv[1], name + ".json")
    assert main(["generate", name, "--out", graph]) == 0
    assert main(["poles", "--graph", graph, "--include-removable",
                 "--out", os.path.join(sys.argv[1], "poles.json")]) == 0
print(" ".join(sorted({"numpy.ma", "numpy.polynomial"} & (set(sys.modules) - before))))
""", str(tmp_path))
    assert out.split() == []


def test_each_subcommand_loads_only_what_it_runs(tmp_path):
    from graphscatter.cli import main

    for name in ("dodecahedron", "tadpole", "interval_compact"):
        assert main(["generate", name, "--out", str(tmp_path / (name + ".json"))]) == 0
    out = fresh("""
import gc, os, sys
from graphscatter.cli import main
watched = ("graphscatter.spectral", "graphscatter.generators", "fractions")
graph = lambda name: os.path.join(sys.argv[1], name + ".json")
out = os.path.join(sys.argv[1], "out")
runs = (
    ["stot", "--graph", graph("dodecahedron"), "--steps", "4"],
    ["stot", "--graph", graph("tadpole"), "--steps", "4", "--format", "csv"],
    ["verify", "--graph", graph("dodecahedron"), "--steps", "4"],
    ["equiv", "--graph", graph("tadpole"), "--graph-b", graph("tadpole"), "--steps", "4"],
    None,
    ["poles", "--graph", graph("tadpole"), "--include-removable"],
    ["spectrum", "--graph", graph("interval_compact"), "--p-min", "0.5", "--p-max", "7"],
    None,
    ["generate", "cube"],
)
for argv in runs:
    if argv is None:
        print(" ".join(m for m in watched if m in sys.modules) or "-")
    else:
        assert main(argv + ["--out", out]) == 0, argv
print(" ".join(m for m in watched if m in sys.modules) or "-")
# main itself leaves the collector alone
print(gc.isenabled(), gc.get_freeze_count())
""", str(tmp_path))
    assert out.splitlines() == [
        "-",  # stot, verify, equiv
        "graphscatter.spectral",  # poles, spectrum
        "graphscatter.spectral graphscatter.generators",  # generate
        "True 0",
    ]
