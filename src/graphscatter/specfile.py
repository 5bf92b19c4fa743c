"""Graph description files.

JSON with 1-based vertex numbering; see README for the schema. The
parser rejects unknown fields so typos fail loudly instead of being
ignored.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

import numpy as np

from .errors import MissingVertexMatrix, SpecFileError, ValidationError
from .graph import Graph, GraphSpec, LocalSpec
from .local import FAMILIES, LocalScattering, constant_local

__all__ = [
    "parse_spec",
    "load_spec",
    "spec_to_dict",
    "save_spec",
    "locals_from_spec",
    "graph_to_spec",
]

_TOP_FIELDS = {"vertices", "internal_edges", "external_edges", "lengths_unit", "vertex_locals"}
_EDGE_FIELDS = {"u", "v", "length"}
_EXT_FIELDS = {"vertex"}
_LOCAL_FIELDS = {"vertex", "family", "matrix"}


def _require_record(obj, allowed: set, what: str) -> None:
    if not isinstance(obj, dict):
        raise SpecFileError("%s must be an object, got %s" % (what, type(obj).__name__))
    unknown = set(obj) - allowed
    if unknown:
        raise SpecFileError("%s has unknown fields: %s" % (what, ", ".join(sorted(unknown))))


def _as_int(value, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise SpecFileError("%s must be an integer, got %r" % (what, value))
    return value


def _as_number(value, what: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SpecFileError("%s must be a number, got %r" % (what, value))
    return float(value)


def _parse_unit(value) -> float:
    if isinstance(value, str):
        try:
            unit = Fraction(value)
        except (ValueError, ZeroDivisionError):
            raise SpecFileError("lengths_unit %r is not a rational like '3/4'" % value)
    elif isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SpecFileError("lengths_unit must be a number or 'p/q' string")
    elif not math.isfinite(value):
        raise SpecFileError("lengths_unit must be finite, got %r" % value)
    else:
        unit = Fraction(value)
    try:
        unit = float(unit)
    except OverflowError:
        unit = math.inf
    # also refuses rationals that round to 0.0 or beyond the float range
    if not 0.0 < unit < math.inf:
        raise SpecFileError("lengths_unit must be a positive finite float, got %s" % value)
    return unit


def _parse_matrix(m) -> tuple:
    if not isinstance(m, list) or not m:
        raise SpecFileError("matrix must be a nonempty list of rows")
    size = len(m)
    rows = []
    for row in m:
        if not isinstance(row, list) or len(row) != size:
            raise SpecFileError("matrix must be square")
        parsed = []
        for entry in row:
            if isinstance(entry, (int, float)) and not isinstance(entry, bool):
                parsed.append(complex(entry))
            elif (
                isinstance(entry, list)
                and len(entry) == 2
                and all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in entry)
            ):
                parsed.append(complex(entry[0], entry[1]))
            else:
                raise SpecFileError("matrix entries must be numbers or [re, im] pairs")
        rows.append(tuple(parsed))
    return tuple(rows)


def parse_spec(data) -> GraphSpec:
    """Convert a decoded JSON document into a GraphSpec (0-based)."""
    _require_record(data, _TOP_FIELDS, "spec")
    for key in ("vertices", "internal_edges", "external_edges"):
        if key not in data:
            raise SpecFileError("spec is missing required field %r" % key)
    n = _as_int(data["vertices"], "vertices")

    raw_edges = data["internal_edges"]
    if not isinstance(raw_edges, list):
        raise SpecFileError("internal_edges must be a list")
    edges = []
    for k, rec in enumerate(raw_edges):
        _require_record(rec, _EDGE_FIELDS, "internal_edges[%d]" % k)
        if set(rec) != _EDGE_FIELDS:
            raise SpecFileError("internal_edges[%d] needs fields u, v, length" % k)
        edges.append(
            (
                _as_int(rec["u"], "u") - 1,
                _as_int(rec["v"], "v") - 1,
                _as_number(rec["length"], "length"),
            )
        )

    raw_ext = data["external_edges"]
    if not isinstance(raw_ext, list):
        raise SpecFileError("external_edges must be a list")
    externals = []
    for k, rec in enumerate(raw_ext):
        _require_record(rec, _EXT_FIELDS, "external_edges[%d]" % k)
        if "vertex" not in rec:
            raise SpecFileError("external_edges[%d] needs field vertex" % k)
        externals.append(_as_int(rec["vertex"], "vertex") - 1)

    unit = None
    if "lengths_unit" in data:
        unit = _parse_unit(data["lengths_unit"])

    vertex_locals = None
    if "vertex_locals" in data:
        raw_locals = data["vertex_locals"]
        if not isinstance(raw_locals, list):
            raise SpecFileError("vertex_locals must be a list")
        entries: list = [None] * n
        for k, rec in enumerate(raw_locals):
            _require_record(rec, _LOCAL_FIELDS, "vertex_locals[%d]" % k)
            if "vertex" not in rec or "family" not in rec:
                raise SpecFileError("vertex_locals[%d] needs fields vertex and family" % k)
            v = _as_int(rec["vertex"], "vertex") - 1
            if not 0 <= v < n:
                raise SpecFileError("vertex_locals[%d] names vertex %d" % (k, v + 1))
            if entries[v] is not None:
                raise SpecFileError("vertex %d has two local matrices" % (v + 1))
            family = rec["family"]
            if family == "matrix":
                if "matrix" not in rec:
                    raise SpecFileError("family 'matrix' requires a matrix field")
                entries[v] = LocalSpec(matrix=_parse_matrix(rec["matrix"]))
            elif family in FAMILIES:
                if "matrix" in rec:
                    raise SpecFileError("family %r does not take a matrix field" % family)
                entries[v] = LocalSpec(family=family)
            else:
                raise SpecFileError("unknown local family %r" % family)
        vertex_locals = tuple(entries)

    return GraphSpec(
        vertices=n,
        internal_edges=tuple(edges),
        external_edges=tuple(externals),
        lengths_unit=unit,
        vertex_locals=vertex_locals,
    )


def load_spec(path) -> GraphSpec:
    def refuse(literal):
        raise SpecFileError("%s is not valid JSON: %s is not a JSON number" % (path, literal))

    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh, parse_constant=refuse)
    except OSError as exc:
        raise SpecFileError("cannot read %s: %s" % (path, exc))
    except json.JSONDecodeError as exc:
        raise SpecFileError("%s is not valid JSON: %s" % (path, exc))
    return parse_spec(data)


def _entry_to_json(z: complex):
    z = complex(z)
    if z.imag == 0.0:
        return z.real
    return [z.real, z.imag]


def spec_to_dict(spec: GraphSpec) -> dict:
    """Inverse of parse_spec; vertex numbers go back to 1-based."""
    data: dict = {
        "vertices": spec.vertices,
        "internal_edges": [
            {"u": u + 1, "v": v + 1, "length": length}
            for (u, v, length) in spec.internal_edges
        ],
        "external_edges": [{"vertex": v + 1} for v in spec.external_edges],
    }
    if spec.lengths_unit is not None:
        data["lengths_unit"] = spec.lengths_unit
    if spec.vertex_locals is not None:
        records = []
        for v, loc in enumerate(spec.vertex_locals):
            if loc is None:
                continue
            if loc.family is not None:
                records.append({"vertex": v + 1, "family": loc.family})
            else:
                records.append(
                    {
                        "vertex": v + 1,
                        "family": "matrix",
                        "matrix": [[_entry_to_json(z) for z in row] for row in loc.matrix],
                    }
                )
        data["vertex_locals"] = records
    return data


def save_spec(spec: GraphSpec, path) -> None:
    text = json.dumps(spec_to_dict(spec), indent=2)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def locals_from_spec(spec: GraphSpec, g: Graph) -> list[LocalScattering]:
    """Build the per-vertex matrices a spec describes.

    With no vertex_locals field every vertex gets the standard
    Kirchhoff matrix for its degree. When the field is present it must
    cover every vertex.
    """
    out = []
    for v in range(g.vertex_count):
        entry = None if spec.vertex_locals is None else spec.vertex_locals[v]
        if spec.vertex_locals is not None and entry is None:
            raise MissingVertexMatrix("vertex_locals has no entry for vertex %d" % (v + 1))
        family = "kirchhoff" if entry is None else entry.family
        if family in FAMILIES:
            out.append(FAMILIES[family](v, g.degree(v)))
        else:
            out.append(constant_local(v, np.array(entry.matrix, dtype=complex)))
    return out


def graph_to_spec(g: Graph, locals_=None, unit: float | None = None) -> GraphSpec:
    """Spec describing an already built graph, so generator fixtures
    can be written to files."""
    edges = tuple((e.u, e.v, e.length) for e in g.internal_edges)
    externals = tuple(e.vertex for e in g.external_edges)
    vertex_locals = None
    if locals_ is not None:
        entries: list = [None] * g.vertex_count
        for loc in locals_:
            if not isinstance(loc, LocalScattering):
                raise ValidationError("graph_to_spec expects LocalScattering objects")
            if entries[loc.vertex] is not None:
                raise ValidationError("vertex %d has two local matrices" % loc.vertex)
            if loc.family in FAMILIES:
                entries[loc.vertex] = LocalSpec(family=loc.family)
            elif loc.is_constant:
                entries[loc.vertex] = LocalSpec(
                    matrix=tuple(tuple(complex(z) for z in row) for row in loc.constant)
                )
            else:
                raise ValidationError(
                    "momentum dependent matrices cannot be stored in a spec file"
                )
        vertex_locals = tuple(entries)
    return GraphSpec(
        vertices=g.vertex_count,
        internal_edges=edges,
        external_edges=externals,
        lengths_unit=unit,
        vertex_locals=vertex_locals,
    )
