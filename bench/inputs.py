"""Seeded inputs and job lists for the benchmark workloads.

Every graph file and momentum list is a function of the seed alone.
Graph files are written with the library's own ``graph_to_spec`` /
``save_spec``, so the program under test only ever sees files on disk
and command-line flags. Input generation is not timed.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from graphscatter import GraphSpec, build_graph, kirchhoff_local, platonic
from graphscatter.specfile import graph_to_spec, save_spec

WORKLOADS = ("sweeps", "spectral")


@dataclass(frozen=True)
class Job:
    """One CLI invocation and what its output is checked against.

    ``kind`` names the oracle; ``graph`` is the file the oracle rebuilds
    its reference from; ``momenta`` are the requested points of a sweep;
    ``p_range`` is the interval of a spectrum job. ``known_defect``
    is a key of ``oracles.KNOWN_DEFECTS``, the defect this job shows at
    the baseline: a failure that matches that defect's signature is
    counted in ``failed`` but does not mark the run incorrect.
    """

    name: str
    kind: str
    argv: tuple[str, ...]
    graph: str
    out: str
    momenta: tuple[float, ...] = ()
    p_range: tuple[float, float] | None = None
    known_defect: str | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    jobs: tuple[Job, ...]
    graphs: tuple[str, ...]

    @property
    def points(self) -> int:
        return sum(len(job.momenta) for job in self.jobs)


def _write(g, path: str, unit) -> str:
    locs = [kirchhoff_local(v, g.degree(v)) for v in range(g.vertex_count)]
    save_spec(graph_to_spec(g, locs, unit=unit), path)
    return path


def dodecahedron(path: str) -> str:
    """Dodecahedron with one lead per vertex: N_e = 20, 60 internal slots."""
    g, _ = platonic("dodecahedron")
    return _write(g, path, 1.0)


def lead_ring(seed: int, n: int, path: str) -> str:
    """Ring of n unit edges, n//2 unit chords between distinct random
    vertices and 6 leads at distinct random vertices; Kirchhoff data.
    This is the recipe under which ``find_poles`` drops a pole."""
    rng = np.random.default_rng(seed)
    edges = [(i, (i + 1) % n, 1.0) for i in range(n)]
    for _ in range(n // 2):
        a, b = rng.choice(n, 2, replace=False)
        edges.append((int(a), int(b), 1.0))
    leads = tuple(int(v) for v in rng.choice(n, 6, replace=False))
    return _write(build_graph(GraphSpec(n, tuple(edges), leads)), path, 1.0)


def compact_rational_ring(seed: int, path: str, n: int = 20, chords: int = 10) -> str:
    """Compact ring of n edges plus chords, lengths k/10 with k in 5..15."""
    rng = np.random.default_rng(seed + 1_000_003)
    pairs = [(i, (i + 1) % n) for i in range(n)]
    for _ in range(chords):
        a, b = rng.choice(n, 2, replace=False)
        pairs.append((int(a), int(b)))
    tenths = rng.integers(5, 16, size=len(pairs))
    edges = tuple((a, b, k / 10.0) for (a, b), k in zip(pairs, tenths))
    return _write(build_graph(GraphSpec(n, edges, ())), path, 0.1)


def compact_triangle(path: str) -> str:
    """Kirchhoff triangle with lengths 1, 1, 1.01 and no leads."""
    g = build_graph(GraphSpec(3, ((0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.01)), ()))
    return _write(g, path, 0.01)


def symmetric_momenta(rng, count: int, p_min: float = 0.1, p_max: float = 6.3):
    """count/2 sorted random momenta in [p_min, p_max] and their
    negatives, so every S(p) in the output has its S(-p) partner."""
    half = np.sort(rng.uniform(p_min, p_max, count // 2))
    return tuple(float(p) for p in np.concatenate([-half[::-1], half]))


def _p_list(momenta) -> str:
    # '=' keeps argparse from reading a leading '-6.3' as an option
    return "--p-list=" + ",".join(repr(p) for p in momenta)


def _sweep(name, command, graph, out, momenta, extra=()):
    argv = (command, "--graph", graph, _p_list(momenta), "--out", out, *extra)
    return Job(name, command, argv, graph, out, momenta=momenta)


def _poles(name, graph, out, known_defect=None):
    argv = ("poles", "--graph", graph, "--out", out)
    return Job(name, "poles", argv, graph, out, known_defect=known_defect)


def _spectrum(name, graph, out, p_min, p_max, known_defect=None):
    argv = ("spectrum", "--graph", graph, "--p-min", repr(p_min), "--p-max", repr(p_max),
            "--out", out)
    return Job(name, "spectrum", argv, graph, out, p_range=(p_min, p_max),
               known_defect=known_defect)


def build_workload(name: str, seed: int, workdir: str, scale: float = 1.0) -> Workload:
    """Write the workload's graph files under workdir and list its jobs.

    scale < 1 shrinks point counts and graph sizes for the self-check.
    """
    if name not in WORKLOADS:
        raise ValueError("unknown workload %r; choose from %s" % (name, ", ".join(WORKLOADS)))
    os.makedirs(workdir, exist_ok=True)

    def path(stem):
        return os.path.join(workdir, stem)

    rng = np.random.default_rng(seed)
    ring_n = max(6, int(round(60 * scale)))

    if name == "sweeps":
        # wide: many cheap points on a small graph, default flags so the
        # spawn pool runs; deep: few points on a 180-slot graph with
        # --workers 1, where the per-point SVD probe and solve dominate
        dodeca = dodecahedron(path("dodecahedron.json"))
        ring = lead_ring(seed, ring_n, path("ring.json"))
        wide_p = symmetric_momenta(rng, max(4, int(256 * scale)))
        stot_p = symmetric_momenta(rng, max(4, int(64 * scale)))
        verify_p = tuple(float(p) for p in np.sort(rng.uniform(0.1, 6.3, max(2, int(32 * scale)))))
        jobs = (
            _sweep("stot-dodecahedron", "stot", dodeca, path("stot-dodecahedron.out.json"),
                   wide_p),
            _sweep("stot-ring", "stot", ring, path("stot-ring.out.json"), stot_p,
                   ("--workers", "1")),
            _sweep("verify-ring", "verify", ring, path("verify-ring.out.json"), verify_p,
                   ("--workers", "1")),
        )
        return Workload(name, jobs, (dodeca, ring))

    dodeca = dodecahedron(path("dodecahedron.json"))
    ring = lead_ring(seed, ring_n, path("ring.json"))
    compact = compact_rational_ring(seed, path("compact-ring.json"),
                                    n=max(4, int(round(20 * scale))),
                                    chords=max(1, int(round(10 * scale))))
    triangle = compact_triangle(path("triangle.json"))
    p_max = 10.0 * min(scale, 1.0)
    jobs = (
        _poles("poles-dodecahedron", dodeca, path("poles-dodecahedron.out.json")),
        _poles("poles-ring", ring, path("poles-ring.out.json"),
               known_defect="dropped-lowest-resonance"),
        _spectrum("spectrum-compact-ring", compact, path("spectrum-compact-ring.out.json"),
                  0.1, p_max,
                  known_defect="close-roots-missed"),
        _spectrum("spectrum-triangle", triangle, path("spectrum-triangle.out.json"), 0.05, 7.0,
                  known_defect="singular-polish-crash"),
    )
    return Workload(name, jobs, (dodeca, ring, compact, triangle))
