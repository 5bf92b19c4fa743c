import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from graphscatter import (
    GraphSpec,
    LocalSpec,
    ValidationError,
    build_graph,
    compact_spectrum,
    eigenmomenta,
    graph_to_spec,
    kirchhoff_local,
    load_spec,
    locals_from_spec,
    mode_index,
    save_spec,
    total_scattering,
)
from graphscatter import cli, spectral
from graphscatter.assemble import assemble_blocks, assemble_propagation
from graphscatter.cli import main
from graphscatter.solve import NEAR_POLE_RTOL
from graphscatter.specfile import spec_to_dict
from _helpers import count_calls


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

    capsys.readouterr()
    assert main(["generate"]) == 2
    assert main(["generate", "moebius"]) == 2
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
    assert lines[0] == "p,multiplicity"
    assert len(lines) == 4


def test_spectrum_reports_loop_multiplicity(tmp_path):
    # a Kirchhoff loop of length 1 is a circle: cos and sin at p = 2 pi
    path = tmp_path / "loop.json"
    save_spec(GraphSpec(1, ((0, 0, 1.0),), ()), path)
    out = tmp_path / "loop.out.json"
    rc = main(["spectrum", "--graph", str(path), "--p-min", "0.1", "--p-max", "7",
               "--out", str(out)])
    assert rc == 0
    doc = read_json(out)
    assert len(doc["p"]) == 1 and abs(doc["p"][0] - 2 * math.pi) < 1e-14
    assert doc["multiplicity"] == [2]


def test_spectrum_reports_k4_multiplicities(tmp_path):
    # compact K4 as in test_eigenmomenta_count_k4_multiplicities
    edges = tuple((a, b, 1.0) for a in range(4) for b in range(a + 1, 4))
    path = tmp_path / "k4.json"
    save_spec(GraphSpec(4, edges, ()), path)
    argv = ["spectrum", "--graph", str(path), "--p-min", "0.1", "--p-max", repr(2 * math.pi)]
    out = tmp_path / "k4.out.json"
    assert main(argv + ["--out", str(out)]) == 0
    doc = read_json(out)
    assert doc["multiplicity"] == [3, 2, 3, 4]
    csv_out = tmp_path / "k4.out.csv"
    assert main(argv + ["--format", "csv", "--out", str(csv_out)]) == 0
    lines = csv_out.read_text().strip().split("\n")
    assert lines[0] == "p,multiplicity"
    assert [tuple(map(float, line.split(","))) for line in lines[1:]] == \
        list(zip(doc["p"], doc["multiplicity"]))


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


def test_p_list_of_commas_only_is_a_usage_error(tmp_path, capsys):
    graph = gen(tmp_path, "tadpole")
    with pytest.raises(SystemExit) as exc:
        main(["stot", "--graph", graph, "--p-list=,"])
    assert exc.value.code == 2
    assert "--p-list is empty" in capsys.readouterr().err


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


def test_sweeps_flag_exactly_singular_momenta(tmp_path):
    # decoupled lead as in test_stot_near_pole_flag: E(0) - s22 is
    # exactly singular at p = 0, so a batched LU of the grid fails there
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
    g = build_graph(spec)
    locs = locals_from_spec(spec, g)
    idx = mode_index(g)
    momenta = [0.0, 1.0, math.pi, 2 * math.pi, 2.5]

    def singular(p):
        m = assemble_propagation(g, idx, p).matrix - assemble_blocks(g, locs, idx, p).int_int
        sigma = np.linalg.svd(m, compute_uv=False)
        return bool(sigma[-1] <= NEAR_POLE_RTOL * sigma[0])

    expected = [singular(p) for p in momenta]
    assert expected == [True, False, True, True, False]
    expected_pm = [singular(p) or singular(-p) for p in momenta]
    p_list = "--p-list=" + ",".join("%.17g" % p for p in momenta)
    out = tmp_path / "out.json"
    runs = (
        (["stot", "--graph", str(path)], expected),
        (["verify", "--graph", str(path)], expected_pm),
        (["equiv", "--graph", str(path), "--graph-b", str(path)], expected),
    )
    for argv, want in runs:
        assert main(argv + [p_list, "--out", str(out)]) == 0
        assert [rec["near_pole"] for rec in read_json(out)["results"]] == want


def test_sweeps_run_in_process(tmp_path):
    graph = gen(tmp_path, "fabry_perot")
    script = (
        "import sys\n"
        "import graphscatter.cli as cli\n"
        "graph, out = sys.argv[1:]\n"
        "base = ['stot', '--graph', graph, '--steps', '24', '--format', 'csv']\n"
        "assert cli.main(base + ['--workers', '3', '--out', out + '.3']) == 0\n"
        "assert cli.main(base + ['--workers', '1', '--out', out + '.1']) == 0\n"
        "print(sorted(m for m in ('multiprocessing', 'concurrent.futures.process')\n"
        "             if m in sys.modules))\n"
    )
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    out = str(tmp_path / "stot.csv")
    done = subprocess.run([sys.executable, "-c", script, graph, out], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    # no process pool module is ever loaded, at import or while sweeping
    assert done.stdout.strip() == "[]"
    with open(out + ".3", "rb") as fh3, open(out + ".1", "rb") as fh1:
        assert fh3.read() == fh1.read()


def test_sweeps_leave_numpy_random_unimported(tmp_path):
    # numpy 2 imports numpy.random lazily; numpy 1.x imports it with numpy
    graph = gen(tmp_path, "dodecahedron")
    script = (
        "import sys\n"
        "import numpy\n"
        "loaded = 'numpy.random' in sys.modules\n"
        "import graphscatter.cli as cli\n"
        "graph, out = sys.argv[1:]\n"
        "assert cli.main(['stot', '--graph', graph, '--steps', '8', '--out', out]) == 0\n"
        "assert cli.main(['verify', '--graph', graph, '--steps', '8', '--out', out]) == 0\n"
        "print(loaded, 'numpy.random' in sys.modules)\n"
    )
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run([sys.executable, "-c", script, graph, str(tmp_path / "out.json")],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    loaded, after = done.stdout.split()
    assert after == loaded


def test_spectrum_leaves_numpy_random_unimported(tmp_path):
    # as test_sweeps_leave_numpy_random_unimported, for the contour probe
    box = gen(tmp_path, "interval_compact")
    script = (
        "import sys\n"
        "import numpy\n"
        "loaded = 'numpy.random' in sys.modules\n"
        "import graphscatter.cli as cli\n"
        "graph, out = sys.argv[1:]\n"
        "argv = ['spectrum', '--graph', graph, '--p-min', '0.1', '--p-max', '20', '--out', out]\n"
        "assert cli.main(argv) == 0\n"
        "print(loaded, 'numpy.random' in sys.modules)\n"
    )
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run([sys.executable, "-c", script, box, str(tmp_path / "out.json")],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    loaded, after = done.stdout.split()
    assert after == loaded
    assert len(read_json(tmp_path / "out.json")["p"]) == 6


def test_poles_run_decomposes_the_bond_matrix_once(tmp_path, monkeypatch):
    calls = count_calls(monkeypatch, np.linalg, "eig")
    for name in ("dodecahedron", "fabry_perot", "tadpole"):
        graph = gen(tmp_path, name)
        assert main(["poles", "--graph", graph, "--include-removable",
                     "--out", str(tmp_path / "poles.json")]) == 0
        assert len(calls) == 1
        calls.clear()


def test_poles_order_ignores_blas_thread_count(tmp_path):
    # the moduli of a conjugate pair differ in their last bits, which move
    # with the BLAS thread count; the record order must not
    rng = np.random.default_rng(0)
    n = 60
    edges = [(i, (i + 1) % n, 1.0) for i in range(n)]
    for _ in range(n // 2):
        a, b = rng.choice(n, 2, replace=False)
        edges.append((int(a), int(b), 1.0))
    leads = tuple(int(v) for v in rng.choice(n, 6, replace=False))
    g = build_graph(GraphSpec(n, tuple(edges), leads))
    graph = tmp_path / "ring.json"
    save_spec(graph_to_spec(g, [kirchhoff_local(v, g.degree(v)) for v in range(n)], unit=1.0),
              graph)
    src = os.path.dirname(os.path.dirname(cli.__file__))
    runs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        done = subprocess.run([sys.executable, "-m", "graphscatter.cli", "poles", "--graph",
                               str(graph), "--include-removable"], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        runs.append([(rec["multiplicity"], rec["removable"], complex(*rec["zeta"]))
                     for rec in json.loads(done.stdout)["poles"]])
    one, two = runs
    assert len(one) == len(two) > 0
    for a, b in zip(one, two):
        assert a[:2] == b[:2] and abs(a[2] - b[2]) < 1e-9, (a, b)


def test_library_eigenmomenta_match_spectrum_output(tmp_path):
    edges = tuple((a, b, 1.0) for a in range(4) for b in range(a + 1, 4))
    path = tmp_path / "k4.json"
    save_spec(GraphSpec(4, edges, ()), path)
    out = tmp_path / "k4.out.json"
    assert main(["spectrum", "--graph", str(path), "--p-min", "0.1", "--p-max", "7",
                 "--out", str(out)]) == 0
    doc = read_json(out)
    spec = load_spec(str(path))
    g = build_graph(spec)
    pairs = eigenmomenta(g, locals_from_spec(spec, g), mode_index(g), 0.1, 7.0)
    assert pairs == list(zip(doc["p"], doc["multiplicity"]))
    assert [p for p, _ in pairs] == compact_spectrum(g, locals_from_spec(spec, g),
                                                     mode_index(g), 0.1, 7.0)


def test_equiv_compact_graphs(tmp_path):
    # no leads: S_tot is 0x0 at every momentum, so the deviation is 0
    box = gen(tmp_path, "interval_compact")
    out = tmp_path / "equiv.json"
    assert main(["equiv", "--graph", box, "--graph-b", box, "--p-list", "0.5,1.7",
                 "--out", str(out)]) == 0
    doc = read_json(out)
    assert doc["pass"] is True and doc["max_deviation"] == 0.0


def test_spectrum_refuses_non_unitary_vertex_matrix(tmp_path, capsys):
    # involutive, (S S = I), but not unitary
    skew = LocalSpec(matrix=((1.0, 1.0), (0.0, -1.0)))
    spec = GraphSpec(3, ((0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)), (),
                     vertex_locals=(skew, LocalSpec(family="kirchhoff"),
                                    LocalSpec(family="kirchhoff")))
    path = tmp_path / "skew.json"
    save_spec(spec, path)
    spec = load_spec(path)
    g = build_graph(spec)
    with pytest.raises(ValidationError):
        compact_spectrum(g, locals_from_spec(spec, g), mode_index(g), 0.5, 5.0)
    assert main(["spectrum", "--graph", str(path), "--p-min", "0.5", "--p-max", "5"]) == 2
    assert "unitary" in capsys.readouterr().err


def test_poles_and_spectrum_run_without_scipy(tmp_path):
    script = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "import graphscatter.cli as cli\n"
        "tadpole, box = sys.argv[1:]\n"
        "assert cli.main(['generate', 'tadpole', '--out', tadpole]) == 0\n"
        "assert cli.main(['generate', 'interval_compact', '--out', box]) == 0\n"
        "print(cli.main(['poles', '--graph', tadpole, '--out', tadpole + '.out']),\n"
        "      cli.main(['spectrum', '--graph', box, '--p-min', '1', '--p-max', '10',\n"
        "                '--out', box + '.out']),\n"
        "      sorted(m for m in sys.modules if m.startswith('scipy.')))\n"
    )
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run([sys.executable, "-c", script, str(tmp_path / "tadpole.json"),
                           str(tmp_path / "box.json")], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["0", "0", "[]"]
    assert len(read_json(tmp_path / "box.json.out")["p"]) == 3


def one_error_line(capsys):
    lines = capsys.readouterr().err.splitlines()
    return len(lines) == 1 and lines[0].startswith("error: ")


def test_lengths_unit_outside_the_float_range_exits_1(tmp_path, capsys):
    doc = read_json(gen(tmp_path, "fabry_perot"))
    graph = tmp_path / "unit.json"
    for unit in ("1e400", "1e-400"):
        doc["lengths_unit"] = unit
        graph.write_text(json.dumps(doc))
        for command in ("stot", "poles"):
            assert main([command, "--graph", str(graph)]) == 1, (unit, command)
            assert one_error_line(capsys), (unit, command)


def test_closed_stdout_pipe_exits_1_silently(tmp_path):
    graph = gen(tmp_path, "cube")
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    # far more output than a pipe buffers, so the writer is still writing
    # when the reader goes away after one line
    run = subprocess.Popen([sys.executable, "-m", "graphscatter.cli", "stot", "--graph", graph,
                            "--steps", "2000"], env=env, stdout=subprocess.PIPE,
                           stderr=subprocess.PIPE)
    try:
        assert run.stdout.readline() == b"{\n"
        run.stdout.close()
        err = run.stderr.read()
        assert run.wait(timeout=120) == 1
    finally:
        run.kill()
        run.stderr.close()
    assert err == b""


def test_spectrum_unresolved_window_exits_3(tmp_path, capsys, monkeypatch):
    graph = gen(tmp_path, "interval_compact")
    sampler = spectral._phase_sampler

    def phantom_root(bond, lengths):
        # counts one eigenmomentum more above p = 2 than there is
        sample = sampler(bond, lengths)

        def shifted(p):
            q, total, low, high = sample(p)
            return q, total + (2 * math.pi if p > 2.0 else 0.0), low, high

        return shifted

    monkeypatch.setattr(spectral, "_phase_sampler", phantom_root)
    out = tmp_path / "spec.json"
    assert main(["spectrum", "--graph", graph, "--p-min", "0.5", "--p-max", "7",
                 "--out", str(out)]) == 3
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: spectrum: ")
    assert not out.exists()


def test_non_finite_tolerance_exits_2(tmp_path, capsys):
    graph = gen(tmp_path, "fabry_perot")
    for tol in ("inf", "nan"):
        assert main(["verify", "--graph", graph, "--tol", tol]) == 2
        assert one_error_line(capsys)
        assert main(["equiv", "--graph", graph, "--graph-b", graph, "--tol", tol]) == 2
        assert one_error_line(capsys)


def test_non_finite_momenta_exit_2(tmp_path, capsys):
    graph = gen(tmp_path, "fabry_perot")
    compact = gen(tmp_path, "interval_compact")
    for argv in (
        ["stot", "--graph", graph, "--p-max", "inf"],
        ["stot", "--graph", graph, "--p-min=-inf"],
        ["verify", "--graph", graph, "--p-list", "0.5,nan"],
        ["equiv", "--graph", graph, "--graph-b", graph, "--p-list", "inf"],
        ["spectrum", "--graph", compact, "--p-min", "0.1", "--p-max", "inf"],
        ["spectrum", "--graph", compact, "--p-min", "nan", "--p-max", "2"],
        # finite bounds whose difference overflows
        ["stot", "--graph", graph, "--p-min=-1e308", "--p-max=1e308", "--steps", "3"],
        ["spectrum", "--graph", compact, "--p-min=-1e308", "--p-max=1e308"],
    ):
        assert main(argv) == 2, argv
        assert one_error_line(capsys), argv


def test_out_of_memory_exits_3(tmp_path, capsys):
    # every size here needs more bytes than a 47-bit address space
    # holds, so the allocation fails at once
    graph = gen(tmp_path, "fabry_perot")
    compact = gen(tmp_path, "interval_compact")
    tetra = gen(tmp_path, "tetrahedron")
    for argv in (
        ["stot", "--graph", graph, "--steps", "1000000000000000"],
        ["spectrum", "--graph", compact, "--p-min", "0.1", "--p-max", "1e15"],
        # beyond numpy's array size limit
        ["stot", "--graph", graph, "--steps", "10000000000000000000"],
        ["verify", "--graph", graph, "--steps", "10000000000000000000"],
        ["spectrum", "--graph", compact, "--p-min", "0.1", "--p-max", "1e300"],
        # 2**50 bonds per slot
        ["poles", "--graph", tetra, "--unit", repr(2.0**-50)],
        # 1e294 bonds per slot, beyond numpy's array size limit
        ["poles", "--graph", line2_file(tmp_path, edge_and_unit(1e300, 1e6))],
    ):
        assert main(argv) == 3, argv
        assert one_error_line(capsys), argv


def edge_and_unit(length, unit):
    def edit(doc):
        doc["internal_edges"][0]["length"] = length
        doc["lengths_unit"] = unit
    return edit


def test_poles_length_unit_ratio_beyond_the_float_range_exits_2(tmp_path, capsys):
    graph = line2_file(tmp_path, edge_and_unit(1e150, 1e-300))
    assert main(["poles", "--graph", graph]) == 2
    assert capsys.readouterr().err == \
        "error: edge length 1e+150 over unit 1e-300 is beyond the float range\n"


def test_spectrum_negative_root_count_exits_3(tmp_path, capsys):
    # a Kirchhoff path of lengths 3L, 2L, 2L holds no eigenmomentum below
    # pi / 7L, and p L stays within rounding of 0 over the whole range, so
    # no phase sample is clear of 0; nor on loops of 2e-300 and 3e-300
    graphs = [((4, ((0, 1, 3 * scale), (1, 2, 2 * scale), (2, 3, 2 * scale))), scale, p_max)
              for scale, p_max in ((1e-50, "6.3"), (1e-100, "60"), (1e-200, "60"),
                                   (1e-300, "60"), (1e-15, "1"), (1e-200, "1"))]
    graphs.append(((1, ((0, 0, 2e-300), (0, 0, 3e-300))), 1e-300, "1"))
    for (vertices, edges), scale, p_max in graphs:
        g = build_graph(GraphSpec(vertices, edges, ()))
        graph = tmp_path / "short.json"
        save_spec(graph_to_spec(g, [kirchhoff_local(v, g.degree(v)) for v in range(vertices)],
                                unit=scale), graph)
        argv = ["spectrum", "--graph", str(graph), "--p-min", "0.1", "--p-max", p_max]
        assert main(argv) == 3, (edges, argv)
        err = capsys.readouterr().err
        assert err.startswith("error: spectrum: "), (edges, argv)
        assert len(err.splitlines()) == 1, (edges, argv)


@pytest.mark.parametrize("where, value", [
    (("internal_edges", 0, "length"), math.inf),
    (("internal_edges", 0, "length"), math.nan),
    (("vertex_locals", 0, "matrix", 0, 0), math.nan),
    (("lengths_unit",), math.inf),
], ids=["length-inf", "length-nan", "matrix-nan", "unit-inf"])
def test_non_finite_numbers_in_graph_files_exit_1(tmp_path, capsys, where, value):
    doc = {"vertices": 2, "internal_edges": [{"u": 1, "v": 2, "length": 1.0}],
           "external_edges": [{"vertex": 1}], "lengths_unit": 1.0,
           "vertex_locals": [{"vertex": 1, "family": "matrix", "matrix": [[0.0, 1.0], [1.0, 0.0]]},
                             {"vertex": 2, "family": "kirchhoff"}]}
    *parents, last = where
    target = doc
    for key in parents:
        target = target[key]
    target[last] = value
    graph = tmp_path / "graph.json"
    # json.dumps writes the literals Infinity and NaN, which JSON lacks
    graph.write_text(json.dumps(doc))
    for argv in (["stot", "--graph", str(graph)], ["verify", "--graph", str(graph)],
                 ["poles", "--graph", str(graph), "--unit", "1"]):
        assert main(argv) == 1, argv
        assert one_error_line(capsys), argv


# top-level JSON keys and CSV columns of each subcommand, as the README
# documents them; stot has re/im/abs2 columns per entry of its k x k matrix
DOCUMENTED_KEYS = {
    "stot": ["command", "external_modes", "results"],
    "poles": ["command", "unit_length", "poles"],
    "spectrum": ["command", "p_min", "p_max", "p", "multiplicity"],
    "verify": ["command", "tolerance", "max_involution_defect", "max_unitarity_defect",
               "pass", "results"],
    "equiv": ["command", "tolerance", "max_deviation", "pass", "results"],
}
DOCUMENTED_COLUMNS = {
    "poles": ["zeta_re", "zeta_im", "p_re", "p_im", "multiplicity", "removable"],
    "spectrum": ["p", "multiplicity"],
    "verify": ["p", "near_pole", "involution_defect", "unitarity_defect"],
    "equiv": ["p", "near_pole", "deviation"],
}


def stot_columns(k):
    return ["p", "near_pole"] + ["%s_%d_%d" % (name, i, j) for i in range(1, k + 1)
                                 for j in range(1, k + 1) for name in ("re", "im", "abs2")]


def csv_values(doc):
    """The CSV rows a JSON document stands for, value by value."""
    command = doc["command"]
    if command == "stot":
        rows = []
        for rec in doc["results"]:
            cells = [None] * 3 * doc["external_modes"] ** 2
            if rec["matrix"] is not None:
                cells = [x for row, abs2 in zip(rec["matrix"], rec["abs2"])
                         for (re, im), a in zip(row, abs2) for x in (re, im, a)]
            rows.append([rec["p"], rec["near_pole"]] + cells)
        return rows
    if command == "poles":
        return [[*rec["zeta"], *rec["p_representative"], rec["multiplicity"], rec["removable"]]
                for rec in doc["poles"]]
    if command == "spectrum":
        return [list(row) for row in zip(doc["p"], doc["multiplicity"])]
    return [[rec[name] for name in DOCUMENTED_COLUMNS[command]] for rec in doc["results"]]


def cell_matches(cell, value):
    if value is None:
        return cell == "nan"
    if isinstance(value, int):  # bools included
        return cell == str(int(value))
    return float(cell) == value


def test_json_and_csv_outputs_agree(tmp_path):
    graphs = {name: gen(tmp_path, name) for name in
              ("tadpole", "triangle", "star", "line2", "fabry_perot", "cube", "interval_compact")}
    # lead decoupled from the edge, as in test_stot_near_pole_flag
    bound = tmp_path / "bound.json"
    save_spec(GraphSpec(2, ((0, 1, 1.0),), (0,), vertex_locals=(
        LocalSpec(matrix=((1.0, 0.0), (0.0, -1.0))), LocalSpec(matrix=((-1.0,),)))), bound)
    pi_list = "--p-list=0,1.0,%.17g" % math.pi
    runs = []
    for path in graphs.values():
        runs += [["stot", "--graph", path, "--steps", "5"],
                 ["verify", "--graph", path, "--steps", "5"],
                 ["poles", "--graph", path]]
    box = graphs["interval_compact"]
    runs += [
        ["spectrum", "--graph", box, "--p-min", "1", "--p-max", "10"],
        ["equiv", "--graph", box, "--graph-b", box, pi_list],
        ["equiv", "--graph", graphs["triangle"], "--graph-b", graphs["star"], "--steps", "5"],
        ["equiv", "--graph", graphs["line2"], "--graph-b", graphs["fabry_perot"], "--steps", "5"],
        ["poles", "--graph", graphs["tadpole"], "--include-removable"],
        ["verify", "--graph", graphs["tadpole"], "--steps", "5", "--tol", "1e-30"],
        ["stot", "--graph", str(bound), pi_list],
        ["verify", "--graph", str(bound), pi_list],
        ["equiv", "--graph", str(bound), "--graph-b", str(bound), pi_list],
    ]
    outcomes = set()
    for argv in runs:
        out = {fmt: tmp_path / ("out." + fmt) for fmt in ("json", "csv")}
        codes = {fmt: main(argv + ["--format", fmt, "--out", str(path)])
                 for fmt, path in out.items()}
        text = out["json"].read_text()
        doc = json.loads(text)
        assert codes["json"] == codes["csv"] == (0 if doc.get("pass", True) else 3), argv
        outcomes.add((argv[0], codes["json"]))
        assert text == json.dumps(doc, indent=2) + "\n", argv
        assert list(doc) == DOCUMENTED_KEYS[argv[0]], argv
        header, *lines = out["csv"].read_text().splitlines()
        columns = (stot_columns(doc["external_modes"]) if argv[0] == "stot"
                   else DOCUMENTED_COLUMNS[argv[0]])
        assert header.split(",") == columns, argv
        rows = csv_values(doc)
        assert len(lines) == len(rows), argv
        for line, row in zip(lines, rows):
            cells = line.split(",")
            assert len(cells) == len(row), argv
            assert all(cell_matches(c, v) for c, v in zip(cells, row)), (argv, line, row)
    assert {("verify", 3), ("equiv", 3)} <= outcomes


def test_stot_pieces_match_json_dumps(tmp_path):
    # values drawn half from a pool repeat within and across rows, and
    # put 0.0 beside -0.0 in one block; flagged rows hold nan and inf
    pool = np.array([0.0, -0.0, 5e-324, 1e16, 1e308, 1 / 3, -1 / 3])
    rng = np.random.default_rng(3)
    for k in (0, 1, 3):
        # the last count crosses a block boundary of _formatted_rows
        for count in (1, 4, cli.FORMAT_BLOCK_VALUES // max(1, 3 * k * k) + 2):
            grid = [float(p) for p in rng.uniform(0.1, 6.3, count)]
            grid[0] = -0.0
            shape = (count, k, k, 3)
            finite = np.where(rng.random(shape) < 0.5, rng.choice(pool, shape),
                              rng.standard_normal(shape))
            for flags in ([False] * count, [True] * count, [i % 2 == 1 for i in range(count)]):
                parts = finite.copy()
                parts[np.array(flags), ..., 0] = np.nan
                parts[np.array(flags), ..., 2] = np.inf
                doc = {"command": "stot", "external_modes": k, "results": [
                    {"p": p, "near_pole": flagged,
                     "matrix": None if flagged else part[..., :2].tolist(),
                     "abs2": None if flagged else part[..., 2].tolist()}
                    for p, flagged, part in zip(grid, flags, parts)]}
                text = "".join(cli._stot_pieces(k, grid, flags, parts))
                assert text == json.dumps(doc, indent=2, allow_nan=False), (k, count, flags)
                values = parts.reshape(count, 3 * k * k)
                for fmt in (float.__repr__, cli._cell):  # the JSON and CSV formats
                    assert list(cli._formatted_rows(values, fmt)) == \
                        [list(map(fmt, row)) for row in values.tolist()], (k, count, flags)
    # the cube's Kirchhoff S_tot(p) repeats most of its entries
    out = tmp_path / "cube.json"
    assert main(["stot", "--graph", gen(tmp_path, "cube"), "--out", str(out)]) == 0
    text = out.read_text()
    doc = json.loads(text)
    assert text == json.dumps(doc, indent=2) + "\n"
    first = doc["results"][0]
    values = np.concatenate([np.ravel(first["matrix"]), np.ravel(first["abs2"])])
    assert len(np.unique(values)) < len(values) / 2


def line2_file(tmp_path, edit, name="graph.json"):
    doc = spec_to_dict(cli._generated_fixture("line2"))
    edit(doc)
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def huge(doc):
    # S S = I holds, but |S|^2 and S^dagger S overflow
    doc["vertex_locals"][0]["matrix"] = [[0.0, 1e200], [1e-200, 0.0]]


def test_non_finite_results_exit_3(tmp_path, capsys):
    graph = line2_file(tmp_path, huge)
    out = tmp_path / "out"
    for command in ("stot", "verify"):
        for fmt in ("json", "csv"):
            for extra in ([], ["--out", str(out)]):
                argv = [command, "--graph", graph, "--p-list=0.5", "--format", fmt, *extra]
                assert main(argv) == 3, argv
                captured = capsys.readouterr()
                assert captured.out == "" and not out.exists(), argv
                assert captured.err == "error: %s: result at p=0.5 is not finite\n" \
                    % command, argv


def test_momentum_times_length_overflow_exits_2(tmp_path, capsys):
    def long_edge(doc):
        doc["internal_edges"][0]["length"] = 3.0
    graph = line2_file(tmp_path, long_edge)
    box = spec_to_dict(cli._generated_fixture("interval_compact"))
    box["internal_edges"][0]["length"] = 3.0
    compact = tmp_path / "box.json"
    compact.write_text(json.dumps(box))
    cases = [argv + [p_list]
             for argv in (["stot", "--graph", graph], ["verify", "--graph", graph],
                          ["equiv", "--graph", graph, "--graph-b", graph])
             for p_list in ("--p-list=1e308", "--p-list=0.5,-1e308")]
    cases.append(["spectrum", "--graph", str(compact), "--p-min", "1", "--p-max", "1e308"])
    for argv in cases:
        assert main(argv) == 2, argv
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: momentum p="), argv
        assert "e+308" in err[0] and "longest edge length 3.0" in err[0], argv
    # a momentum whose product with the edge length is finite still runs
    assert main(["stot", "--graph", graph, "--p-list=1e307"]) == 0
    capsys.readouterr()


def test_overflowing_result_prints_one_line(tmp_path, capsys):
    # S_tot itself overflows when the huge entries of both vertices meet
    def huger(doc):
        huge(doc)
        doc["vertex_locals"][1]["matrix"] = [[0.0, 1e-200], [1e200, 0.0]]
    graph = line2_file(tmp_path, huger)
    other = line2_file(tmp_path, huge, "huge.json")
    for argv in (["stot", "--graph", graph], ["equiv", "--graph", other, "--graph-b", graph],
                 ["equiv", "--graph", graph, "--graph-b", graph]):
        for p in (0.0, 0.5):
            assert main(argv + ["--p-list=%r" % p]) == 3, argv
            assert capsys.readouterr().err == "error: %s: result at p=%r is not finite\n" \
                % (argv[0], p), argv


def test_poles_on_huge_vertex_entries(tmp_path, capsys):
    assert main(["poles", "--graph", line2_file(tmp_path, huge), "--unit", "1"]) == 0
    assert json.loads(capsys.readouterr().out)["poles"] == []
    # a lead, a unit loop and a unit edge at vertex 1; the huge entries
    # couple the lead and the edge, the loop swaps its two halves
    path = tmp_path / "loop.json"
    path.write_text(json.dumps({
        "vertices": 2,
        "internal_edges": [{"u": 1, "v": 1, "length": 1.0}, {"u": 1, "v": 2, "length": 1.0}],
        "external_edges": [{"vertex": 1}, {"vertex": 2}],
        "vertex_locals": [
            {"vertex": 1, "family": "matrix",
             "matrix": [[0, 0, 0, 1e200], [0, 0, 1, 0], [0, 1, 0, 0], [1e-200, 0, 0, 0]]},
            {"vertex": 2, "family": "matrix", "matrix": [[0, 1], [1, 0]]}]}))
    argv = ["poles", "--graph", str(path), "--unit", "1"]
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["poles"] == []
    assert main(argv + ["--include-removable"]) == 0
    (pole,) = json.loads(capsys.readouterr().out)["poles"]
    assert pole["zeta"] == [1.0, 0.0]
    assert pole["multiplicity"] == 2 and pole["removable"] is True
