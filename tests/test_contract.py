"""The CLI's exit-code contract on seeded random graph files
(_helpers.contract_spec), run in process: no exception escapes main,
RuntimeWarnings included; the exit code is 0, 1, 2 or 3; a nonzero
exit writes exactly one ``error:`` line, except a failing verify
report, which is the report; exit 0 writes strict JSON and no stderr.
Each failure names its seed, trial, command and graph file."""

import json
import warnings

import numpy as np
import pytest

from graphscatter.cli import main
from _helpers import contract_spec

SEEDS = (0, 1, 2, 3)
TRIALS = 100


COMMANDS = (("poles", "--include-removable"), ("stot", "--steps", "5"),
            ("verify", "--steps", "5"))
# on graphs without leads only
SPECTRUM = ("spectrum", "--p-min", "0.1", "--p-max", "6")


def strict_json(text):
    def refuse(literal):
        raise ValueError("%s is not JSON" % literal)

    return json.loads(text, parse_constant=refuse)


@pytest.mark.parametrize("seed", SEEDS)
def test_cli_contract_on_random_graphs(seed, tmp_path, capsys):
    rng = np.random.default_rng(seed)
    path = tmp_path / "graph.json"
    for trial in range(TRIALS):
        doc = contract_spec(rng)
        path.write_text(json.dumps(doc))
        for command in COMMANDS + (() if doc["external_edges"] else (SPECTRUM,)):
            where = "seed %d trial %d, %s on %s" % (seed, trial, " ".join(command),
                                                    json.dumps(doc))
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                try:
                    code = main([*command, "--graph", str(path)])
                except Exception as exc:
                    pytest.fail("%s: %r escaped main" % (where, exc))
            out, err = capsys.readouterr()
            assert code in (0, 1, 2, 3), where
            if code == 0:
                assert err == "", where
                strict_json(out)
            elif command[0] == "verify" and code == 3 and not err:
                assert strict_json(out)["pass"] is False, where
            else:
                lines = err.splitlines()
                assert len(lines) == 1 and lines[0].startswith("error: "), (where, err)
