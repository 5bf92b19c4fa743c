import json
import math

import numpy as np
import pytest

from graphscatter import (
    GraphSpec,
    LocalSpec,
    build_graph,
    load_spec,
    locals_from_spec,
    mode_index,
    save_spec,
    total_scattering,
)
from graphscatter import cli
from graphscatter.cli import main


def gen(tmp_path, name):
    path = tmp_path / ("%s.json" % name)
    assert main(["generate", name, "--out", str(path)]) == 0
    return str(path)


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def test_generate_to_poles_pipeline(tmp_path):
    graph = gen(tmp_path, "tadpole")
    out = tmp_path / "poles.json"
    assert main(["poles", "--graph", graph, "--out", str(out)]) == 0
    doc = read_json(out)
    assert doc["command"] == "poles"
    assert len(doc["poles"]) == 1
    (rec,) = doc["poles"]
    zeta = complex(*rec["zeta"])
    p_rep = complex(*rec["p_representative"])
    assert abs(zeta - 1.0 / 3.0) < 1e-9
    assert abs(p_rep - (-1j * math.log(3.0))) < 1e-9
    assert rec["multiplicity"] == 1 and rec["removable"] is False


def test_poles_include_removable(tmp_path):
    graph = gen(tmp_path, "tadpole")
    out = tmp_path / "poles.csv"
    rc = main(["poles", "--graph", graph, "--include-removable",
               "--format", "csv", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "zeta_re,zeta_im,p_re,p_im,multiplicity,removable"
    assert len(lines) == 3  # header + genuine + removable
    flags = sorted(line.split(",")[-1] for line in lines[1:])
    assert flags == ["0", "1"]


def test_generate_every_fixture(tmp_path):
    names = [
        "tetrahedron", "cube", "octahedron", "dodecahedron", "icosahedron",
        "line2", "interval_compact", "tadpole", "fabry_perot",
        "triangle", "star",
    ]
    for name in names:
        path = gen(tmp_path, name)
        doc = read_json(path)
        assert doc["vertices"] >= 1
    star = read_json(tmp_path / "star.json")
    assert star["vertices"] == 1
    assert len(star["internal_edges"]) == 3


def test_generate_argument_handling(tmp_path, capsys):
    assert main(["generate", "tadpole"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["vertices"] == 1

    assert main(["generate", "--generate", "tadpole"]) == 0
    capsys.readouterr()
    assert main(["generate"]) == 2
    assert main(["generate", "moebius"]) == 2
    assert main(["generate", "tadpole", "--generate", "line2"]) == 2
    assert main(["generate", "tadpole", "--format", "csv"]) == 2
    capsys.readouterr()


def test_stot_no_internal_edges_is_constant(tmp_path):
    spec = GraphSpec(1, (), (0, 0, 0))
    path = tmp_path / "bare.json"
    save_spec(spec, path)
    out = tmp_path / "stot.json"
    rc = main(["stot", "--graph", str(path), "--p-list", "0.5,1.0,2.5",
               "--workers", "1", "--out", str(out)])
    assert rc == 0
    doc = read_json(out)
    assert doc["external_modes"] == 3
    expected = 2.0 / 3.0 * np.ones((3, 3)) - np.eye(3)
    for rec in doc["results"]:
        assert rec["near_pole"] is False
        mat = np.array([[complex(*z) for z in row] for row in rec["matrix"]])
        assert np.max(np.abs(mat - expected)) < 1e-14


def test_stot_near_pole_flag(tmp_path):
    # lead decoupled from the edge: bound states sit on the real axis
    spec = GraphSpec(
        2,
        ((0, 1, 1.0),),
        (0,),
        vertex_locals=(
            LocalSpec(matrix=((1.0, 0.0), (0.0, -1.0))),
            LocalSpec(matrix=((-1.0,),)),
        ),
    )
    path = tmp_path / "bound.json"
    save_spec(spec, path)

    out = tmp_path / "stot.json"
    rc = main(["stot", "--graph", str(path), "--p-list", "1.0,%.17g" % math.pi,
               "--workers", "1", "--out", str(out)])
    assert rc == 0
    doc = read_json(out)
    ok_row, bad_row = doc["results"]
    assert ok_row["near_pole"] is False
    assert bad_row["near_pole"] is True
    assert bad_row["matrix"] is None and bad_row["abs2"] is None

    csv_out = tmp_path / "stot.csv"
    rc = main(["stot", "--graph", str(path), "--p-list", "1.0,%.17g" % math.pi,
               "--workers", "1", "--format", "csv", "--out", str(csv_out)])
    assert rc == 0
    lines = csv_out.read_text().strip().split("\n")
    assert lines[0] == "p,near_pole,re_1_1,im_1_1,abs2_1_1"
    assert lines[2].split(",")[1] == "1"
    assert "nan" in lines[2]


def test_stot_csv_values_round_trip(tmp_path):
    graph = gen(tmp_path, "fabry_perot")
    out = tmp_path / "stot.csv"
    rc = main(["stot", "--graph", graph, "--p-list", "1.25", "--workers", "1",
               "--format", "csv", "--out", str(out)])
    assert rc == 0
    header, row = out.read_text().strip().split("\n")
    cells = row.split(",")
    assert float(cells[0]) == 1.25 and cells[1] == "0"

    # recompute through the library from the very same file
    spec = load_spec(graph)
    g = build_graph(spec)
    locs = locals_from_spec(spec, g)
    idx = mode_index(g)
    mat = total_scattering(g, locs, idx, 1.25).matrix
    names = header.split(",")
    for i in range(2):
        for j in range(2):
            re = float(cells[names.index("re_%d_%d" % (i + 1, j + 1))])
            im = float(cells[names.index("im_%d_%d" % (i + 1, j + 1))])
            assert re == mat[i, j].real and im == mat[i, j].imag


def test_spectrum_cli(tmp_path):
    graph = gen(tmp_path, "interval_compact")
    out = tmp_path / "spec.json"
    rc = main(["spectrum", "--graph", graph, "--p-min", "1.0", "--p-max", "10.0",
               "--out", str(out)])
    assert rc == 0
    found = np.array(read_json(out)["p"])
    expect = np.array([math.pi, 2 * math.pi, 3 * math.pi])
    assert found.shape == expect.shape
    assert np.max(np.abs(found - expect)) < 1e-8

    csv_out = tmp_path / "spec.csv"
    rc = main(["spectrum", "--graph", graph, "--p-min", "1.0", "--p-max", "10.0",
               "--format", "csv", "--out", str(csv_out)])
    assert rc == 0
    lines = csv_out.read_text().strip().split("\n")
    assert lines[0] == "p"
    assert len(lines) == 4


def test_verify_pass_and_fail(tmp_path):
    graph = gen(tmp_path, "tadpole")
    out = tmp_path / "verify.json"
    rc = main(["verify", "--graph", graph, "--steps", "8", "--workers", "1",
               "--out", str(out)])
    assert rc == 0
    doc = read_json(out)
    assert doc["pass"] is True
    assert doc["max_involution_defect"] < 1e-10
    assert doc["max_unitarity_defect"] < 1e-10
    assert len(doc["results"]) == 8

    rc = main(["verify", "--graph", graph, "--steps", "8", "--workers", "1",
               "--tol", "1e-30", "--out", str(out)])
    assert rc == 3
    assert read_json(out)["pass"] is False


def test_equiv_accepts_matching_pair(tmp_path):
    tri = gen(tmp_path, "triangle")
    star = gen(tmp_path, "star")
    out = tmp_path / "equiv.json"
    rc = main(["equiv", "--graph", tri, "--graph-b", star, "--steps", "8",
               "--workers", "1", "--out", str(out)])
    assert rc == 0
    doc = read_json(out)
    assert doc["pass"] is True and doc["max_deviation"] < 1e-10


def test_equiv_rejects_mismatch(tmp_path):
    line = gen(tmp_path, "line2")
    fabry = gen(tmp_path, "fabry_perot")
    tri = gen(tmp_path, "triangle")
    out = tmp_path / "equiv.json"
    # 2 vs 3 external modes: not comparable at all
    assert main(["equiv", "--graph", line, "--graph-b", tri, "--steps", "4",
                 "--workers", "1", "--out", str(out)]) == 2
    # comparable shapes, different physics: tolerance failure
    rc = main(["equiv", "--graph", line, "--graph-b", fabry, "--steps", "8",
               "--workers", "1", "--out", str(out)])
    assert rc == 3
    assert read_json(out)["pass"] is False


def test_reruns_byte_identical(tmp_path):
    graph = gen(tmp_path, "fabry_perot")
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    for path in (a, b):
        rc = main(["stot", "--graph", graph, "--steps", "16", "--workers", "1",
                   "--format", "csv", "--out", str(path)])
        assert rc == 0
    assert a.read_bytes() == b.read_bytes()


def test_worker_pool_matches_inline(tmp_path):
    graph = gen(tmp_path, "fabry_perot")
    inline = tmp_path / "w1.csv"
    pooled = tmp_path / "w2.csv"
    base = ["stot", "--graph", graph, "--steps", "24", "--format", "csv"]
    assert main(base + ["--workers", "1", "--out", str(inline)]) == 0
    assert main(base + ["--workers", "2", "--out", str(pooled)]) == 0
    assert inline.read_bytes() == pooled.read_bytes()


def test_exit_codes_file_problems(tmp_path):
    missing = str(tmp_path / "nope.json")
    assert main(["stot", "--graph", missing, "--workers", "1"]) == 1
    garbled = tmp_path / "garbled.json"
    garbled.write_text("{oops")
    assert main(["poles", "--graph", str(garbled)]) == 1


def test_exit_codes_validation(tmp_path, capsys):
    graph = gen(tmp_path, "fabry_perot")
    assert main(["stot", "--graph", graph, "--steps", "0", "--workers", "1"]) == 2
    assert main(["stot", "--graph", graph, "--p-min", "2.0", "--p-max", "1.0",
                 "--workers", "1"]) == 2
    assert main(["stot", "--graph", graph, "--workers", "0"]) == 2
    assert main(["spectrum", "--graph", graph, "--p-min", "1", "--p-max", "2"]) == 2

    dangling = tmp_path / "dangling.json"
    dangling.write_text(json.dumps({
        "vertices": 2,
        "internal_edges": [{"u": 1, "v": 3, "length": 1.0}],
        "external_edges": [{"vertex": 1}],
    }))
    assert main(["stot", "--graph", str(dangling), "--workers", "1"]) == 2

    no_unit = tmp_path / "no_unit.json"
    save_spec(GraphSpec(2, ((0, 1, 1.0),), (0, 1)), no_unit)
    assert main(["poles", "--graph", str(no_unit)]) == 2
    assert main(["poles", "--graph", str(no_unit), "--unit", "1.0"]) == 0
    capsys.readouterr()


def test_p_list_flag(tmp_path):
    graph = gen(tmp_path, "tadpole")
    out = tmp_path / "verify.json"
    rc = main(["verify", "--graph", graph, "--p-list", "0.7,1.9", "--workers", "1",
               "--out", str(out)])
    assert rc == 0
    doc = read_json(out)
    assert [rec["p"] for rec in doc["results"]] == [0.7, 1.9]

    with pytest.raises(SystemExit) as exc:
        main(["verify", "--graph", graph, "--p-list", "0.7,zebra"])
    assert exc.value.code == 2


def test_stray_linalg_error_exits_3(tmp_path, monkeypatch, capsys):
    graph = gen(tmp_path, "tadpole")

    def singular(*args, **kwargs):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(cli, "find_poles", singular)
    assert main(["poles", "--graph", graph]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "LinAlgError: Singular matrix" in err


def test_spectrum_cli_range_landing_on_roots(tmp_path):
    graph = gen(tmp_path, "interval_compact")
    out = tmp_path / "box.json"
    rc = main(["spectrum", "--graph", graph, "--p-min", "0.5", "--p-max", "7",
               "--out", str(out)])
    assert rc == 0
    found = np.array(read_json(out)["p"])
    assert found.shape == (2,)
    assert np.max(np.abs(found - [math.pi, 2 * math.pi])) < 1e-14
