"""The package names that the benchmark under bench/ wraps or calls.

The benchmark's traced run patches these names at start-up, so a
renamed or deleted one would only show when the benchmark runs.
"""

import dataclasses
import importlib.util
import pathlib
import sys

import numpy as np

from graphscatter import BlockSystem, LocalScattering, canonical, mode_index
from graphscatter.assemble import assemble_blocks, assemble_propagation

BENCH = pathlib.Path(__file__).resolve().parents[1] / "bench"


def _load(monkeypatch, name):
    # under a name other than __main__, so importing installs nothing
    spec = importlib.util.spec_from_file_location("bench_" + name, BENCH / (name + ".py"))
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve(monkeypatch):
    tracer = _load(monkeypatch, "tracer")
    for module, name in (*tracer.SPANNED, *tracer.COUNTED):
        function = getattr(module, name, None)
        assert callable(function) and not hasattr(function, "__wrapped__"), (module, name)
    assert callable(LocalScattering.matrix)


def test_oracle_blocks_exist(monkeypatch):
    _load(monkeypatch, "oracles")
    fields = {f.name for f in dataclasses.fields(BlockSystem)}
    assert {"ext_ext", "ext_int", "int_ext", "int_int"} <= fields
    fix = canonical("fabry_perot")
    idx = mode_index(fix.graph)
    blocks = assemble_blocks(fix.graph, fix.locals, idx, 0.0)
    n_e, n = idx.n_external, idx.n_internal_slots
    assert [b.shape for b in (blocks.ext_ext, blocks.ext_int, blocks.int_ext, blocks.int_int)] \
        == [(n_e, n_e), (n_e, n), (n, n_e), (n, n)]
    assert np.asarray(assemble_propagation(fix.graph, idx, 0.5).matrix).shape == (n, n)
