"""Traced launcher for the graphscatter CLI.

    python bench/tracer.py <graphscatter arguments>

Wraps the package's public layer functions, runs
``graphscatter.cli.main`` and writes the recorded spans and counters
as JSON to ``$GRAPHSCATTER_BENCH_TRACE_DIR/<job>-<pid>.json``. Each
span is (name, start, end, parent index, job id); times come from
``time.perf_counter``, which on Linux is one monotonic clock shared by
all processes, so spans from pool workers line up with the parent's.

The wrappers replace every module's binding of a wrapped function, so
calls made inside the package (``verify_involution`` calling
``total_scattering``, ``compact_spectrum`` calling
``secular_determinant``) are seen too. Spawned pool workers import
this file as their main module (``__mp_main__``); the wrappers are
therefore installed when it is imported under that name too, and
workers write their own file when they exit.
"""

from __future__ import annotations

import functools
import json
import multiprocessing.util
import os
import sys
import time

import graphscatter.cli  # noqa: F401  (loads every module before patching)
from graphscatter import assemble, errors, graph, local, solve, spectral, specfile

TRACE_DIR_ENV = "GRAPHSCATTER_BENCH_TRACE_DIR"
JOB_ENV = "GRAPHSCATTER_BENCH_JOB"

# (module, function name) pairs recorded as spans
SPANNED = (
    (graphscatter.cli, "main"),
    (specfile, "load_spec"),
    (graph, "build_graph"),
    (graph, "mode_index"),
    (assemble, "assemble_blocks"),
    (assemble, "assemble_propagation"),
    (solve, "total_scattering"),
    (solve, "verify_involution"),
    (solve, "verify_unitarity"),
    (spectral, "secular_polynomial"),
    (spectral, "find_poles"),
    (spectral, "compact_spectrum"),
    (spectral, "secular_determinant"),
)
# (module, function name) pairs only counted
COUNTED = ((assemble, "resolve_locals"),)

_spans: list = []
_stack: list = []
_counters: dict = {}
_job = os.environ.get(JOB_ENV, "")


def _count(name: str, amount: int = 1) -> None:
    _counters[name] = _counters.get(name, 0) + amount


def _spanned(name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = len(_spans)
        record = [name, time.perf_counter(), None, _stack[-1] if _stack else None, _job]
        _spans.append(record)
        _stack.append(index)
        try:
            result = fn(*args, **kwargs)
        except errors.NearPole:
            if name == "solve.total_scattering":
                _count("solve.near_pole")
            raise
        finally:
            _stack.pop()
            record[2] = time.perf_counter()
        if name == "spectral.find_poles":
            _count("spectral.poles_out", len(result))
        return result

    return wrapper


def _counted(name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        _count(name)
        return fn(*args, **kwargs)

    return wrapper


def _rebind(original, replacement) -> None:
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "graphscatter" or mod_name.startswith("graphscatter."):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)


def install() -> None:
    for mod, attr in SPANNED:
        short = mod.__name__.rsplit(".", 1)[-1]
        original = getattr(mod, attr)
        _rebind(original, _spanned("%s.%s" % (short, attr), original))
    for mod, attr in COUNTED:
        short = mod.__name__.rsplit(".", 1)[-1]
        original = getattr(mod, attr)
        _rebind(original, _counted("%s.%s" % (short, attr), original))
    matrix = local.LocalScattering.matrix
    local.LocalScattering.matrix = _counted("local.matrix", matrix)


def dump() -> None:
    directory = os.environ.get(TRACE_DIR_ENV)
    if not directory:
        return
    path = os.path.join(directory, "%s-%d.json" % (_job or "job", os.getpid()))
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"pid": os.getpid(), "spans": _spans, "counters": _counters}, fh)


if __name__ in ("__main__", "__mp_main__"):
    install()

if __name__ == "__mp_main__":
    # pool workers end through multiprocessing, which skips atexit
    multiprocessing.util.Finalize(None, dump, exitpriority=100)

if __name__ == "__main__":
    try:
        code = graphscatter.cli.main(sys.argv[1:])
    finally:
        dump()
    sys.exit(code)
