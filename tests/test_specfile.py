import json

import numpy as np
import pytest

from graphscatter import (
    DegreeMismatch,
    GraphSpec,
    LocalSpec,
    MissingVertexMatrix,
    SpecFileError,
    ValidationError,
    build_graph,
    canonical,
    graph_to_spec,
    kirchhoff_local,
    load_spec,
    locals_from_spec,
    mode_index,
    momentum_local,
    parse_spec,
    save_spec,
    spec_to_dict,
)


def sample_doc():
    return {
        "vertices": 3,
        "internal_edges": [
            {"u": 1, "v": 2, "length": 1.0},
            {"u": 1, "v": 3, "length": 1.5},
            {"u": 2, "v": 3, "length": 2.0},
        ],
        "external_edges": [{"vertex": 1}, {"vertex": 3}],
        "lengths_unit": 0.5,
        "vertex_locals": [
            {"vertex": 1, "family": "kirchhoff"},
            {"vertex": 2, "family": "kirchhoff"},
            {"vertex": 3, "family": "matrix",
             "matrix": [[0.0, [0.0, 1.0], 0.0],
                        [[0.0, -1.0], 0.0, 0.0],
                        [0.0, 0.0, 1.0]]},
        ],
    }


def test_parse_spec_converts_to_zero_based():
    spec = parse_spec(sample_doc())
    assert spec.vertices == 3
    assert spec.internal_edges == ((0, 1, 1.0), (0, 2, 1.5), (1, 2, 2.0))
    assert spec.external_edges == (0, 2)
    assert spec.lengths_unit == 0.5
    assert spec.vertex_locals[0] == LocalSpec(family="kirchhoff")
    assert spec.vertex_locals[2].matrix[0][1] == 1j


def test_round_trip_through_dict():
    spec = parse_spec(sample_doc())
    again = parse_spec(spec_to_dict(spec))
    assert again == spec


def test_round_trip_skips_vertices_without_a_matrix():
    spec = parse_spec(sample_doc())
    partial = GraphSpec(spec.vertices, spec.internal_edges, spec.external_edges,
                        vertex_locals=(LocalSpec(family="kirchhoff"), None, None))
    doc = spec_to_dict(partial)
    assert doc["vertex_locals"] == [{"vertex": 1, "family": "kirchhoff"}]
    assert parse_spec(doc) == partial


def test_round_trip_through_file(tmp_path):
    spec = parse_spec(sample_doc())
    path = tmp_path / "g.json"
    save_spec(spec, path)
    assert load_spec(path) == spec
    # rewriting produces identical bytes
    first = path.read_bytes()
    save_spec(spec, path)
    assert path.read_bytes() == first


def test_unknown_fields_rejected():
    doc = sample_doc()
    doc["colour"] = "blue"
    with pytest.raises(SpecFileError):
        parse_spec(doc)
    doc = sample_doc()
    doc["internal_edges"][0]["weight"] = 2
    with pytest.raises(SpecFileError):
        parse_spec(doc)
    doc = sample_doc()
    doc["external_edges"][0]["direction"] = "in"
    with pytest.raises(SpecFileError):
        parse_spec(doc)
    doc = sample_doc()
    doc["vertex_locals"][0]["phase"] = 1.0
    with pytest.raises(SpecFileError):
        parse_spec(doc)


def test_missing_and_mistyped_fields_rejected():
    with pytest.raises(SpecFileError):
        parse_spec({"vertices": 2, "internal_edges": []})
    with pytest.raises(SpecFileError):
        parse_spec([1, 2, 3])
    doc = sample_doc()
    doc["vertices"] = "three"
    with pytest.raises(SpecFileError):
        parse_spec(doc)
    doc = sample_doc()
    doc["vertices"] = True
    with pytest.raises(SpecFileError):
        parse_spec(doc)
    doc = sample_doc()
    doc["internal_edges"][1]["length"] = "1.5"
    with pytest.raises(SpecFileError):
        parse_spec(doc)
    doc = sample_doc()
    doc["internal_edges"][1] = {"u": 1, "v": 3}
    with pytest.raises(SpecFileError):
        parse_spec(doc)


def test_refusals_of_malformed_records():
    # each input passes every other check, so it fails only on its own
    for key in ("internal_edges", "external_edges", "vertex_locals"):
        doc = sample_doc()
        doc[key] = {}
        with pytest.raises(SpecFileError, match="%s must be a list" % key):
            parse_spec(doc)
    doc = sample_doc()
    doc["external_edges"][0] = {}
    with pytest.raises(SpecFileError, match="needs field vertex"):
        parse_spec(doc)
    for field in ("vertex", "family"):
        doc = sample_doc()
        del doc["vertex_locals"][0][field]
        with pytest.raises(SpecFileError, match="needs fields vertex and family"):
            parse_spec(doc)
    doc = sample_doc()
    doc["vertex_locals"][2]["matrix"] = []
    with pytest.raises(SpecFileError, match="nonempty list of rows"):
        parse_spec(doc)


def test_lengths_unit_forms():
    doc = sample_doc()
    doc["lengths_unit"] = "1/2"
    assert parse_spec(doc).lengths_unit == 0.5
    doc["lengths_unit"] = "0.25"
    assert parse_spec(doc).lengths_unit == 0.25
    for bad in ("zero", "1/0", 0, -2.0, True, float("inf"), float("nan")):
        doc["lengths_unit"] = bad
        with pytest.raises(SpecFileError):
            parse_spec(doc)
    # rationals whose float is 0.0 or beyond the float range
    for bad in ("1e400", "1e-400", "-1e400"):
        doc["lengths_unit"] = bad
        with pytest.raises(SpecFileError, match="positive finite float"):
            parse_spec(doc)


def test_vertex_locals_validation():
    doc = sample_doc()
    doc["vertex_locals"][0]["family"] = "mystery"
    with pytest.raises(SpecFileError):
        parse_spec(doc)
    doc = sample_doc()
    doc["vertex_locals"][0] = {"vertex": 1, "family": "matrix"}
    with pytest.raises(SpecFileError):
        parse_spec(doc)
    doc = sample_doc()
    doc["vertex_locals"][1]["vertex"] = 1
    with pytest.raises(SpecFileError):
        parse_spec(doc)
    doc = sample_doc()
    doc["vertex_locals"][0]["vertex"] = 9
    with pytest.raises(SpecFileError):
        parse_spec(doc)
    doc = sample_doc()
    doc["vertex_locals"][2]["matrix"] = [[1.0, 0.0], [0.0]]
    with pytest.raises(SpecFileError):
        parse_spec(doc)
    doc = sample_doc()
    doc["vertex_locals"][2]["matrix"] = [["x"]]
    with pytest.raises(SpecFileError):
        parse_spec(doc)
    doc = sample_doc()
    doc["vertex_locals"][0] = {"vertex": 1, "family": "kirchhoff", "matrix": [[1.0]]}
    with pytest.raises(SpecFileError):
        parse_spec(doc)


def test_locals_from_spec_defaults_and_families():
    spec = parse_spec(sample_doc())
    g = build_graph(spec)
    locs = locals_from_spec(spec, g)
    assert locs[0].family == "kirchhoff" and locs[0].size == 3
    assert locs[2].is_constant and locs[2].constant[0, 1] == 1j

    bare = GraphSpec(spec.vertices, spec.internal_edges, spec.external_edges)
    defaults = locals_from_spec(bare, g)
    assert all(loc.family == "kirchhoff" for loc in defaults)

    partial = GraphSpec(
        spec.vertices,
        spec.internal_edges,
        spec.external_edges,
        vertex_locals=(LocalSpec(family="kirchhoff"), None, None),
    )
    with pytest.raises(MissingVertexMatrix):
        locals_from_spec(partial, g)


def test_locals_from_spec_tetra2_needs_degree_four():
    spec = parse_spec(sample_doc())
    g = build_graph(spec)
    doc = sample_doc()
    doc["vertex_locals"][1]["family"] = "tetra2"  # vertex 2 has degree 2
    with pytest.raises(DegreeMismatch):
        locals_from_spec(parse_spec(doc), g)


def test_graph_to_spec_round_trip():
    fix = canonical("fabry_perot", r=0.5, d=2.0)
    spec = graph_to_spec(fix.graph, fix.locals, unit=2.0)
    g2 = build_graph(spec)
    assert g2 == fix.graph
    locs2 = locals_from_spec(spec, g2)
    assert np.array_equal(locs2[0].constant, fix.locals[0].constant)

    tad = canonical("tadpole")
    spec_tad = graph_to_spec(tad.graph, tad.locals, unit=1.0)
    assert spec_tad.vertex_locals[0] == LocalSpec(family="kirchhoff")

    wiggly = momentum_local(0, 2, lambda p: np.diag([np.exp(1j * p), np.exp(-1j * p)]))
    line = canonical("line2")
    with pytest.raises(ValidationError):
        graph_to_spec(line.graph, (wiggly, line.locals[1]))


def test_graph_to_spec_refuses_bad_locals():
    line = canonical("line2")
    with pytest.raises(ValidationError, match="expects LocalScattering objects"):
        graph_to_spec(line.graph, (line.locals[0], "kirchhoff"))
    with pytest.raises(ValidationError, match="vertex 0 has two local matrices"):
        graph_to_spec(line.graph, (line.locals[0], line.locals[0]))


def test_load_spec_error_paths(tmp_path):
    with pytest.raises(SpecFileError):
        load_spec(tmp_path / "absent.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(SpecFileError):
        load_spec(bad)


def test_load_spec_refuses_non_json_numbers(tmp_path):
    for literal in ("NaN", "Infinity", "-Infinity"):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(sample_doc()).replace("1.5", literal))
        with pytest.raises(SpecFileError, match="%s is not a JSON number" % literal):
            load_spec(path)


def test_complex_entries_round_trip(tmp_path):
    z = 0.6 + 0.8j
    mat = np.array([[0, z], [np.conj(z), 0]])
    spec = GraphSpec(
        2,
        ((0, 1, 1.0),),
        (0, 1),
        vertex_locals=(
            LocalSpec(matrix=tuple(map(tuple, mat.tolist()))),
            LocalSpec(family="kirchhoff"),
        ),
    )
    path = tmp_path / "z.json"
    save_spec(spec, path)
    again = load_spec(path)
    assert again == spec
    g = build_graph(again)
    locs = locals_from_spec(again, g)
    assert locs[0].constant[0, 1] == z
