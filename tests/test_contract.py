"""The CLI's exit-code contract on seeded random graph files
(_helpers.contract_spec), run in process: no exception escapes main,
RuntimeWarnings included; the exit code is 0, 1, 2 or 3; a nonzero
exit writes exactly one ``error:`` line, except a failing verify
report, which is the report; exit 0 writes strict JSON and no stderr.
Each failure names its seed, trial, command and graph file.

The scale relation rides on the same graphs: multiplying every length
and lengths_unit by s = 2^k and dividing the momenta by s multiplies
every product p d by s/s exactly, so each output must be bit for bit
the same up to the momenta themselves."""

import json
import warnings

import numpy as np
import pytest

from graphscatter.cli import main
from _helpers import contract_spec

SEEDS = (0, 1, 2, 3)
TRIALS = 100
# s = 2^k, drawn per trial; powers of two scale lengths and momenta exactly
SCALE_EXPONENTS = (-300, -40, 10, 300)

COMMANDS = (("poles", "--include-removable"), ("stot", "--steps", "5"),
            ("verify", "--steps", "5"))
# stot's and verify's default momentum range, divided by s when scaled
P_RANGE = (0.1, 6.3)
# on graphs without leads only
SPECTRUM = ("spectrum", "--p-min", "0.1", "--p-max", "6")


def strict_json(text):
    def refuse(literal):
        raise ValueError("%s is not JSON" % literal)

    return json.loads(text, parse_constant=refuse)


def scaled_spec(doc, s):
    """doc with every length and lengths_unit multiplied by s."""
    edges = [{**edge, "length": edge["length"] * s} for edge in doc["internal_edges"]]
    return {**doc, "internal_edges": edges, "lengths_unit": doc["lengths_unit"] * s}


def scale_draw(seed, trial):
    """s = 2^k for one trial, from its own generator, so that the graphs
    of the contract's generator stay as they are."""
    return 2.0 ** int(np.random.default_rng([seed, trial]).choice(SCALE_EXPONENTS))


def run_cli(where, argv, capsys):
    """main(argv) under the contract: its exit code and stdout."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            code = main(argv)
        except Exception as exc:
            pytest.fail("%s: %r escaped main" % (where, exc))
    out, err = capsys.readouterr()
    assert code in (0, 1, 2, 3), where
    if code == 0:
        assert err == "", where
        strict_json(out)
    elif argv[0] == "verify" and code == 3 and not err:
        assert strict_json(out)["pass"] is False, where
    else:
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), (where, err)
    return code, out


def scale_free(command, code, out):
    """The exit code and the part of a command's output that scaling
    must leave bit for bit: the poles' zeta, multiplicity and
    removability, or the whole stot or verify report but its momenta.
    Floats are kept as their text, so -0.0 and 0.0 differ."""
    if not out:
        return code, None
    doc = json.loads(out, parse_float=str)
    if command == "poles":
        return code, [(rec["zeta"], rec["multiplicity"], rec["removable"])
                      for rec in doc["poles"]]
    for rec in doc["results"]:
        del rec["p"]
    return code, doc


@pytest.mark.parametrize("seed", SEEDS)
def test_cli_contract_on_random_graphs(seed, tmp_path, capsys):
    rng = np.random.default_rng(seed)
    path, scaled_path = tmp_path / "graph.json", tmp_path / "scaled.json"
    for trial in range(TRIALS):
        doc = contract_spec(rng)
        s = scale_draw(seed, trial)
        path.write_text(json.dumps(doc))
        scaled_path.write_text(json.dumps(scaled_spec(doc, s)))
        for command in COMMANDS + (() if doc["external_edges"] else (SPECTRUM,)):
            where = "seed %d trial %d, %s on %s" % (seed, trial, " ".join(command),
                                                    json.dumps(doc))
            code, out = run_cli(where, [*command, "--graph", str(path)], capsys)
            if command[0] == "spectrum":
                continue
            momenta = () if command[0] == "poles" else (
                "--p-min", repr(P_RANGE[0] / s), "--p-max", repr(P_RANGE[1] / s))
            where += " scaled by %r" % s
            scaled = run_cli(where, [*command, "--graph", str(scaled_path), *momenta], capsys)
            assert scale_free(command[0], *scaled) == scale_free(command[0], code, out), where


@pytest.mark.xfail(strict=True, reason="spectrum roots do not scale bit for bit with the "
                   "lengths until ROADMAP direction 3 (spectrum in dimensionless momentum)")
def test_spectrum_scale_relation_on_random_graphs(tmp_path, capsys):
    path, scaled_path = tmp_path / "graph.json", tmp_path / "scaled.json"
    p_min, p_max = (float(x) for x in SPECTRUM[2::2])
    for seed in SEEDS:
        rng = np.random.default_rng(seed)
        for trial in range(TRIALS):
            doc = contract_spec(rng)
            if doc["external_edges"]:
                continue
            s = scale_draw(seed, trial)
            path.write_text(json.dumps(doc))
            scaled_path.write_text(json.dumps(scaled_spec(doc, s)))
            where = "seed %d trial %d scaled by %r, on %s" % (seed, trial, s, json.dumps(doc))
            code, out = run_cli(where, [*SPECTRUM, "--graph", str(path)], capsys)
            scaled_code, scaled_out = run_cli(
                where, ["spectrum", "--p-min", repr(p_min / s), "--p-max", repr(p_max / s),
                        "--graph", str(scaled_path)], capsys)
            assert scaled_code == code, where
            if code == 0:
                want, got = strict_json(out), strict_json(scaled_out)
                assert [p * s for p in got["p"]] == want["p"], where
                assert got["multiplicity"] == want["multiplicity"], where
