"""Fixture graphs: regular polyhedra with proper edge colourings, the
triangle and its loop-star twin, and small canonical test graphs."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SizeMismatch, UnknownFixture, UnknownSolid, ValidationError
from .graph import Graph, GraphSpec, build_graph
from .local import LocalScattering, constant_local, kirchhoff_local, momentum_local

__all__ = [
    "Colouring",
    "Fixture",
    "platonic",
    "commuting_colour_matrices",
    "triangle_and_star_pair",
    "canonical",
]


@dataclass(frozen=True)
class Colouring:
    """Proper edge colouring as a partner table.

    neighbor[v][a] is the vertex reached from v along the colour-a
    edge, or -1 when v has no edge of that colour. Reciprocity and
    injectivity are validated on construction; properness (one edge of
    each colour per vertex) is structural.
    """

    neighbor: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        rows = self.neighbor
        if not rows:
            raise ValidationError("empty colouring")
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise ValidationError("colouring rows have unequal colour counts")
        for v, row in enumerate(rows):
            seen = {}
            for a, w in enumerate(row):
                if w < 0:
                    continue
                if w >= len(rows) or w == v:
                    raise ValidationError(
                        "colouring entry (%d, %d) -> %d is out of range" % (v, a, w)
                    )
                if rows[w][a] != v:
                    raise ValidationError(
                        "colouring is not reciprocal at vertex %d colour %d" % (v, a)
                    )
                if w in seen:
                    raise ValidationError(
                        "vertex %d reaches %d through two colours" % (v, w)
                    )
                seen[w] = a

    @property
    def colour_count(self) -> int:
        return len(self.neighbor[0])

    @property
    def vertex_count(self) -> int:
        return len(self.neighbor)

    def is_regular(self) -> bool:
        return all(w >= 0 for row in self.neighbor for w in row)


@dataclass(frozen=True)
class Fixture:
    graph: Graph
    locals: tuple[LocalScattering, ...]


# perfect matchings per colour, one table per solid; the tetrahedron
# and cube numberings are the published fixture numberings
_MATCHINGS = {
    "tetrahedron": (
        ((0, 3), (1, 2)),
        ((0, 1), (2, 3)),
        ((0, 2), (1, 3)),
    ),
    "cube": (
        ((0, 1), (2, 3), (4, 5), (6, 7)),
        ((0, 3), (1, 2), (4, 7), (5, 6)),
        ((0, 4), (1, 5), (2, 6), (3, 7)),
    ),
    "octahedron": (
        ((0, 1), (2, 4), (3, 5)),
        ((0, 2), (1, 5), (3, 4)),
        ((0, 3), (1, 2), (4, 5)),
        ((0, 4), (1, 3), (2, 5)),
    ),
    "dodecahedron": (
        ((0, 1), (2, 3), (4, 17), (5, 6), (7, 8), (9, 10), (11, 12), (13, 14),
         (15, 16), (18, 19)),
        ((0, 10), (1, 2), (3, 19), (4, 5), (6, 7), (8, 9), (11, 18), (12, 13),
         (14, 15), (16, 17)),
        ((0, 19), (1, 8), (2, 6), (3, 4), (5, 15), (7, 14), (9, 13), (10, 11),
         (12, 16), (17, 18)),
    ),
    "icosahedron": (
        ((0, 1), (2, 3), (4, 10), (5, 6), (7, 11), (8, 9)),
        ((0, 5), (1, 2), (3, 6), (4, 11), (7, 8), (9, 10)),
        ((0, 7), (1, 5), (2, 8), (3, 9), (4, 6), (10, 11)),
        ((0, 8), (1, 6), (2, 9), (3, 4), (5, 11), (7, 10)),
        ((0, 11), (1, 8), (2, 6), (3, 10), (4, 5), (7, 9)),
    ),
}

PLATONIC_SOLIDS = tuple(sorted(_MATCHINGS))


def platonic(name: str, edge_length: float = 1.0) -> tuple[Graph, Colouring]:
    """Regular polyhedron graph with one external edge per vertex, all
    internal edges of the given length, plus its proper edge
    colouring. Edges are listed colour by colour."""
    if name not in _MATCHINGS:
        raise UnknownSolid(
            "unknown solid %r; choose from %s" % (name, ", ".join(PLATONIC_SOLIDS))
        )
    matchings = _MATCHINGS[name]
    n = 2 * len(matchings[0])  # every colour pairs up all vertices
    edges = tuple(
        (u, v, float(edge_length))
        for matching in matchings
        for (u, v) in matching
    )
    spec = GraphSpec(
        vertices=n,
        internal_edges=edges,
        external_edges=tuple(range(n)),
    )
    g = build_graph(spec)

    table = [[-1] * len(matchings) for _ in range(n)]
    for a, matching in enumerate(matchings):
        for u, v in matching:
            table[u][a] = v
            table[v][a] = u
    colouring = Colouring(tuple(tuple(row) for row in table))
    return g, colouring


def commuting_colour_matrices(c: Colouring):
    """Vertex-pairing matrix for each colour plus a commutation report.

    Each matrix is symmetric, is an involution and has one unit entry
    per row. Returns (matrices, all_pairs_commute). Rejects colourings
    where some vertex is missing some colour.
    """
    if not c.is_regular():
        raise ValidationError(
            "colouring is not regular; every vertex needs every colour"
        )
    n = c.vertex_count
    mats = []
    for a in range(c.colour_count):
        mat = np.zeros((n, n))
        mat[[row[a] for row in c.neighbor], range(n)] = 1.0
        mat.flags.writeable = False
        mats.append(mat)
    commute = all(
        np.max(np.abs(mats[a] @ mats[b] - mats[b] @ mats[a])) == 0
        for a in range(len(mats))
        for b in range(a + 1, len(mats))
    )
    return mats, commute


# star slot -> (triangle vertex, slot position at that vertex) for the
# ordering [ext0, ext1, ext2, loop0 half1, loop0 half2, loop1 half1,
# loop1 half2, loop2 half1, loop2 half2]
_STAR_MAP = (
    (0, 0),
    (1, 0),
    (2, 0),
    (0, 1),
    (1, 1),
    (1, 2),
    (2, 2),
    (0, 2),
    (2, 1),
)


def _coerce_triangle_locals(locals_):
    out = []
    for vertex in range(3):
        loc = locals_[vertex]
        if not isinstance(loc, LocalScattering):
            loc = constant_local(vertex, loc)
        if loc.vertex != vertex:
            raise ValidationError(
                "triangle matrix %d is labeled for vertex %d" % (vertex, loc.vertex)
            )
        if loc.size != 3:
            raise SizeMismatch(
                "triangle vertex matrices must be 3x3, got %dx%d" % (loc.size, loc.size)
            )
        out.append(loc)
    return out


def _star_matrix(mats) -> np.ndarray:
    t = np.zeros((9, 9), dtype=complex)
    for r, (rv, ri) in enumerate(_STAR_MAP):
        for col, (cv, ci) in enumerate(_STAR_MAP):
            if rv == cv:
                t[r, col] = mats[rv][ri, ci]
    return t


def triangle_and_star_pair(d12: float, d13: float, d23: float, locals_=None):
    """The triangle with one external edge per vertex and the
    single-vertex graph with three loops that scatters identically.

    The star's loop lengths are (d12, d23, d13) and its 9x9 vertex
    matrix is populated from the triangle matrices by a fixed slot
    table. Triangle matrices may be given as LocalScattering objects
    or raw 3x3 arrays; omitted, they default to kirchhoff_local.
    """
    if locals_ is None:
        locals_ = [kirchhoff_local(v, 3) for v in range(3)]
    tri_locals = _coerce_triangle_locals(locals_)

    tri_graph = build_graph(
        GraphSpec(
            vertices=3,
            internal_edges=((0, 1, float(d12)), (0, 2, float(d13)), (1, 2, float(d23))),
            external_edges=(0, 1, 2),
        )
    )
    star_graph = build_graph(
        GraphSpec(
            vertices=1,
            internal_edges=((0, 0, float(d12)), (0, 0, float(d23)), (0, 0, float(d13))),
            external_edges=(0, 0, 0),
        )
    )

    if all(loc.is_constant for loc in tri_locals):
        star_local = constant_local(0, _star_matrix([loc.constant for loc in tri_locals]))
    else:
        evaluators = [loc.matrix for loc in tri_locals]

        def star_evaluator(p, _evs=tuple(evaluators)):
            return _star_matrix([ev(p) for ev in _evs])

        star_local = momentum_local(0, 9, star_evaluator)

    return (
        Fixture(tri_graph, tuple(tri_locals)),
        Fixture(star_graph, (star_local,)),
    )


CANONICAL_FIXTURES = ("line2", "interval_compact", "tadpole", "fabry_perot")


def canonical(name: str, **params) -> Fixture:
    """Small named fixtures.

    line2(d): two vertices joined by one edge, full transmission.
    interval_compact(L, r1, r2): the compact interval, reflection
    coefficients +-1 at the ends (defaults -1).
    tadpole(d): one vertex, one external edge, one loop.
    fabry_perot(r, d): two-mirror line, real |r| <= 1.
    """
    if name == "line2":
        d = float(params.pop("d", 1.0))
        _reject_extra(name, params)
        g = build_graph(GraphSpec(2, ((0, 1, d),), (0, 1)))
        swap = [[0.0, 1.0], [1.0, 0.0]]
        return Fixture(g, (constant_local(0, swap), constant_local(1, swap)))

    if name == "interval_compact":
        length = float(params.pop("L", 1.0))
        r1 = float(params.pop("r1", -1.0))
        r2 = float(params.pop("r2", -1.0))
        _reject_extra(name, params)
        g = build_graph(GraphSpec(2, ((0, 1, length),), ()))
        return Fixture(g, (constant_local(0, [[r1]]), constant_local(1, [[r2]])))

    if name == "tadpole":
        d = float(params.pop("d", 1.0))
        _reject_extra(name, params)
        g = build_graph(GraphSpec(1, ((0, 0, d),), (0,)))
        return Fixture(g, (kirchhoff_local(0, 3),))

    if name == "fabry_perot":
        r = params.pop("r", 0.6)
        d = float(params.pop("d", 1.0))
        _reject_extra(name, params)
        if isinstance(r, complex) or not (-1.0 <= float(r) <= 1.0):
            raise ValidationError("reflectivity must be real with |r| <= 1, got %r" % r)
        r = float(r)
        t = math.sqrt(1.0 - r * r)
        mirror = [[r, t], [t, -r]]
        g = build_graph(GraphSpec(2, ((0, 1, d),), (0, 1)))
        return Fixture(g, (constant_local(0, mirror), constant_local(1, mirror)))

    raise UnknownFixture(
        "unknown fixture %r; choose from %s" % (name, ", ".join(CANONICAL_FIXTURES))
    )


def _reject_extra(name: str, params: dict) -> None:
    if params:
        raise ValidationError(
            "unknown parameters for %s: %s" % (name, ", ".join(sorted(params)))
        )
