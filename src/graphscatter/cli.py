"""Command line front end.

Subcommands: stot, poles, spectrum, verify, equiv, generate. Output is
a pure function of the input file and flags; reruns are byte
identical. BLAS runs on one thread (see below); when a caller picks
another thread count, the last digits of a pole's zeta can move with
it (the order, multiplicities and removability of the poles do not).
Exit codes: 0 success, 1 file or parse problem, 2 invalid
input data (non-finite numbers included), 3 numerical failure
(including verify/equiv tolerance violations, stray numpy LinAlgErrors
and running out of memory).

stot, verify and equiv solve their whole momentum grid in this process
with ``scattering_grid``; ``--workers`` is accepted and ignored.

A process loads only what its subcommand runs: ``spectral`` is
imported by poles and spectrum, ``generators`` by generate, and
``run``, the process entry, freezes the collector once main returns so
that shutdown does not walk the objects made at import.

Each subcommand describes its output once, as a JSON document plus CSV
header and rows, and ``_emit`` is the single writer that renders the
requested format to --out or stdout. Its JSON text is that of
``json.dumps(doc, indent=2, allow_nan=False)``. stot's document alone,
hundreds of thousands of floats on a large grid, is built as text: its
matrices are filled into one ``%s`` template per shape with the
``float.__repr__`` of their values, since ``json.dumps`` with ``indent``
encodes value by value in pure Python (through Python 3.13 at least).
stot's values, in JSON and CSV alike, are formatted a block of whole
momenta at a time, once per distinct bit pattern in the block
(``_formatted_rows``): on a symmetric graph an automorphism that maps
one pair of leads onto another repeats an entry of S_tot(p), often bit
for bit, and formatting is most of such a job's time. Non-finite values
that are not flagged near a pole exit 3 before anything is written.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import sys

# Every matrix the CLI factors has at most a few hundred rows. At that
# size a second BLAS thread buys no wall time and spins while it
# waits, so the process runs BLAS on one thread. A caller who sets any
# of these variables keeps its value (an empty one counts as unset, as
# OpenBLAS reads it), and a process that loaded numpy first keeps the
# threads it has.
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
if "numpy" not in sys.modules and not any(os.environ.get(name) for name in BLAS_THREAD_VARIABLES):
    os.environ.update(dict.fromkeys(BLAS_THREAD_VARIABLES, "1"))

import numpy as np  # noqa: E402  (after the thread count is set)

from .errors import NumericalError, SpecFileError, ValidationError
from .graph import build_graph, mode_index
from .local import kirchhoff_local
from .solve import MAX_GRID_POINTS, _refuse_range, grid_defects, scattering_grid
from .specfile import graph_to_spec, load_spec, locals_from_spec, spec_to_dict

__all__ = ["main", "build_parser", "run"]

VERIFY_DEFAULT_TOL = 1e-8
EQUIV_DEFAULT_TOL = 1e-10

# Values per block of whole momenta that _formatted_rows formats
# together. The repeats it exploits lie within one momentum, so a block
# needs only whole rows. On a generic graph nearly every value is
# distinct and the sort is pure cost: for k = 20 and 256 momenta of
# distinct values, one np.unique over the whole grid made _stot_pieces
# 1.15-1.34x slower than formatting each value, blocks of this size
# about 1.1x (2 vCPUs), since a small block keeps its sort and its
# strings in cache while still spreading np.unique's per-call cost over
# thousands of values.
FORMAT_BLOCK_VALUES = 2 ** 14


def _parse_p_list(text: str):
    try:
        values = [float(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError:
        raise argparse.ArgumentTypeError("--p-list needs comma separated numbers")
    if not values:
        raise argparse.ArgumentTypeError("--p-list is empty")
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graphscatter",
        description="Scattering matrices, poles and spectra of metric graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_io(p):
        p.add_argument("--out", help="output file (default: stdout)")
        p.add_argument("--format", choices=("json", "csv"), default="json")

    def add_grid(p):
        p.add_argument("--p-min", type=float, default=0.1)
        p.add_argument("--p-max", type=float, default=6.3)
        p.add_argument("--steps", type=int, default=64)
        p.add_argument("--p-list", type=_parse_p_list, default=None,
                       help="explicit momenta, overriding the grid flags")
        p.add_argument("--workers", type=int, default=1,
                       help="ignored, kept for compatibility (must be at least 1)")

    p_stot = sub.add_parser("stot", help="total scattering matrix over a momentum grid")
    p_stot.add_argument("--graph", required=True)
    add_grid(p_stot)
    add_io(p_stot)

    p_poles = sub.add_parser("poles", help="poles of the total scattering matrix")
    p_poles.add_argument("--graph", required=True)
    p_poles.add_argument("--unit", type=float, default=None,
                         help="commensurability unit (default: lengths_unit from the file)")
    p_poles.add_argument("--include-removable", action="store_true")
    add_io(p_poles)

    p_spec = sub.add_parser("spectrum", help="eigenvalue momenta of a compact graph")
    p_spec.add_argument("--graph", required=True)
    p_spec.add_argument("--p-min", type=float, required=True)
    p_spec.add_argument("--p-max", type=float, required=True)
    add_io(p_spec)

    p_verify = sub.add_parser("verify", help="involution and unitarity defects over a grid")
    p_verify.add_argument("--graph", required=True)
    p_verify.add_argument("--tol", type=float, default=VERIFY_DEFAULT_TOL)
    add_grid(p_verify)
    add_io(p_verify)

    p_equiv = sub.add_parser("equiv", help="compare two graphs' total scattering matrices")
    p_equiv.add_argument("--graph", required=True)
    p_equiv.add_argument("--graph-b", required=True)
    p_equiv.add_argument("--tol", type=float, default=EQUIV_DEFAULT_TOL)
    add_grid(p_equiv)
    add_io(p_equiv)

    p_gen = sub.add_parser("generate", help="write a fixture graph file")
    p_gen.add_argument("name", nargs="?", default=None)
    add_io(p_gen)

    return parser


def _momentum_grid(args) -> list:
    if args.workers < 1:
        raise ValidationError("--workers must be at least 1")
    if args.p_list is not None:
        if not all(map(math.isfinite, args.p_list)):
            raise ValidationError("--p-list must hold finite momenta")
        return list(args.p_list)
    if args.steps < 1:
        raise ValidationError("--steps must be at least 1")
    _refuse_range(args.p_min, args.p_max)
    if args.steps > MAX_GRID_POINTS:
        raise MemoryError("%d momenta exceed numpy's array size limit" % args.steps)
    return [float(p) for p in np.linspace(args.p_min, args.p_max, args.steps)]


def _cell(x) -> str:
    # null as nan, bools and ints as integers, floats to 17 digits
    # (round-trip); text is a cell _formatted_rows has formatted already
    if isinstance(x, str):
        return x
    if x is None:
        return "nan"
    if isinstance(x, int):
        return str(int(x))
    return "%.17g" % x


def _array_template(shape, depth):
    """The indent=2 JSON text of a nested list of the given shape at the
    given nesting depth, with %s for each value; a zero-length axis
    gives []."""
    if not shape:
        return "%s"
    if shape[0] == 0:
        return "[]"
    pad = "\n" + "  " * (depth + 1)
    item = _array_template(shape[1:], depth + 1)
    return "[" + pad + ("," + pad).join([item] * shape[0]) + "\n" + "  " * depth + "]"


def _emit(args, doc, header, rows) -> None:
    """The one output path: the JSON document doc() or the CSV header
    and rows, as --format asks, to --out or stdout. The JSON text is
    json.dumps(doc(), indent=2, allow_nan=False), or doc() itself when
    it is a list of text pieces, as stot's is. Only the chosen format
    is built, and all of it before anything is written."""
    if args.format == "json":
        pieces = doc()
        if not isinstance(pieces, list):
            pieces = [json.dumps(pieces, indent=2, allow_nan=False)]
        pieces.append("\n")
    else:
        pieces = [",".join(header) + "\n"]
        pieces.extend(",".join(map(_cell, row)) + "\n" for row in rows)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.writelines(pieces)
    else:
        sys.stdout.writelines(pieces)
        sys.stdout.flush()  # a closed pipe raises here, not at exit


def _refuse_non_finite(command, grid, near, values) -> None:
    """NumericalError at the first momentum not flagged near a pole whose
    row of values holds inf or nan, which JSON cannot carry."""
    bad = ~near & ~np.isfinite(values.reshape(len(grid), -1)).all(axis=1)
    if bad.any():
        raise NumericalError("%s: result at p=%r is not finite"
                             % (command, grid[np.flatnonzero(bad)[0]]))


# (..., k, k, 3) re, im, |.|^2 of each entry; |.|^2 may overflow to inf
def _entry_parts(mat):
    with np.errstate(over="ignore"):
        return np.stack([mat.real, mat.imag, np.abs(mat) ** 2], axis=-1)


def _formatted_rows(values, fmt):
    """The rows of the (P, m) float64 array values as lists of fmt(v),
    one row at a time. Blocks of whole rows of about FORMAT_BLOCK_VALUES
    values are formatted together, and fmt runs once per distinct bit
    pattern in a block, so -0.0 and 0.0 stay apart."""
    step = max(1, FORMAT_BLOCK_VALUES // max(1, values.shape[1]))
    for start in range(0, len(values), step):
        block = values[start:start + step]
        bits, inverse = np.unique(block.reshape(-1).view(np.int64), return_inverse=True)
        text = np.array(list(map(fmt, bits.view(np.float64).tolist())), dtype=object)
        yield from text[inverse].reshape(block.shape).tolist()


def _stot_pieces(k, grid, flags, parts) -> list:
    """The text of json.dumps(doc, indent=2) of stot's document over a
    grid of at least one momentum, in pieces: the (P, k, k, 3) parts of
    each unflagged momentum fill one template for its matrix and abs2
    values, which must be finite (_refuse_non_finite checks them). The
    values are formatted by _formatted_rows, each distinct bit pattern
    once per block of momenta."""
    values = np.concatenate([parts[..., :2].reshape(len(grid), 2 * k * k),
                             parts[..., 2].reshape(len(grid), k * k)], axis=1)
    filled = ('      "matrix": %s,\n      "abs2": %s\n    }'
              % (_array_template((k, k, 2), 3), _array_template((k, k), 3)))
    records = [
        '\n    {\n      "p": %s,\n      "near_pole": %s,\n'
        % (float.__repr__(p), "true" if flagged else "false")
        + ('      "matrix": null,\n      "abs2": null\n    }' if flagged
           else filled % tuple(row))
        for p, flagged, row in zip(grid, flags, _formatted_rows(values, float.__repr__))
    ]
    return ['{\n  "command": "stot",\n  "external_modes": %d,\n  "results": [' % k,
            ",".join(records), "\n  ]\n}"]


def _load_system(path):
    spec = load_spec(path)
    g = build_graph(spec)
    return spec, g, locals_from_spec(spec, g), mode_index(g)


def cmd_stot(args) -> int:
    _, g, locs, idx = _load_system(args.graph)
    grid = _momentum_grid(args)
    stack, near = scattering_grid(g, locs, idx, grid)
    k = g.n_external
    flags = near.tolist()
    parts = _entry_parts(stack)
    _refuse_non_finite("stot", grid, near, parts)

    header = ["p", "near_pole"] + [
        "%s_%d_%d" % (name, i + 1, j + 1)
        for i in range(k) for j in range(k) for name in ("re", "im", "abs2")
    ]
    rows = ([p, flagged, *cells] for p, flagged, cells
            in zip(grid, flags, _formatted_rows(parts.reshape(len(grid), 3 * k * k), _cell)))
    _emit(args, lambda: _stot_pieces(k, grid, flags, parts), header, rows)
    return 0


def cmd_poles(args) -> int:
    from .spectral import find_poles, secular_polynomial

    spec, g, locs, idx = _load_system(args.graph)
    unit = args.unit if args.unit is not None else spec.lengths_unit
    if unit is None:
        raise ValidationError("poles needs --unit or a lengths_unit field in the file")
    poly = secular_polynomial(g, locs, idx, unit)
    poles = find_poles(poly, include_removable=args.include_removable)

    def doc():
        records = [
            {
                "zeta": [rec.zeta.real, rec.zeta.imag],
                "p_representative": [rec.p_representative.real, rec.p_representative.imag],
                "multiplicity": rec.multiplicity,
                "removable": rec.removable,
            }
            for rec in poles
        ]
        return {"command": "poles", "unit_length": unit, "poles": records}

    header = ["zeta_re", "zeta_im", "p_re", "p_im", "multiplicity", "removable"]
    rows = (
        [rec.zeta.real, rec.zeta.imag, rec.p_representative.real,
         rec.p_representative.imag, rec.multiplicity, rec.removable]
        for rec in poles
    )
    _emit(args, doc, header, rows)
    return 0


def cmd_spectrum(args) -> int:
    from .spectral import eigenmomenta

    _, g, locs, idx = _load_system(args.graph)
    roots = eigenmomenta(g, locs, idx, args.p_min, args.p_max)
    doc = {"command": "spectrum", "p_min": args.p_min, "p_max": args.p_max,
           "p": [p for p, _ in roots], "multiplicity": [k for _, k in roots]}
    _emit(args, lambda: doc, ["p", "multiplicity"], roots)
    return 0


def _defect_report(args, command, grid, near, defects) -> int:
    """Write a verify or equiv report and return its exit code.

    defects maps each name to its (P,) values. Flagged points give null
    (nan in CSV) and are left out of max_<name>; pass needs an unflagged
    point and every maximum within --tol. Exit code 0 on pass, else 3.
    """
    _refuse_non_finite(command, grid, near, np.column_stack(list(defects.values())))
    flags = near.tolist()
    columns = {name: [None if flagged else v for flagged, v in zip(flags, values.tolist())]
               for name, values in defects.items()}
    maxima = {"max_" + name: None if near.all() else float(np.max(values[~near]))
              for name, values in defects.items()}
    ok = not near.all() and max(maxima.values()) <= args.tol

    def doc():
        records = [{"p": p, "near_pole": flagged, **dict(zip(columns, values))}
                   for p, flagged, *values in zip(grid, flags, *columns.values())]
        return {"command": command, "tolerance": args.tol, **maxima, "pass": ok,
                "results": records}

    _emit(args, doc, ["p", "near_pole", *columns], zip(grid, flags, *columns.values()))
    return 0 if ok else 3


def cmd_verify(args) -> int:
    if not 0 < args.tol < math.inf:
        raise ValidationError("--tol must be positive and finite")
    _, g, locs, idx = _load_system(args.graph)
    grid = _momentum_grid(args)
    inv, uni, near = grid_defects(g, locs, idx, grid)
    return _defect_report(args, "verify", grid, near,
                          {"involution_defect": inv, "unitarity_defect": uni})


def cmd_equiv(args) -> int:
    if not 0 < args.tol < math.inf:
        raise ValidationError("--tol must be positive and finite")
    _, ga, la, ia = _load_system(args.graph)
    _, gb, lb, ib = _load_system(args.graph_b)
    if ga.n_external != gb.n_external:
        raise ValidationError(
            "graphs have %d and %d external edges; cannot compare"
            % (ga.n_external, gb.n_external)
        )
    grid = _momentum_grid(args)
    sa, near_a = scattering_grid(ga, la, ia, grid)
    sb, near_b = scattering_grid(gb, lb, ib, grid)
    with np.errstate(invalid="ignore"):  # inf - inf is refused as nan below
        deviation = np.max(np.abs(sa - sb), axis=(1, 2), initial=0.0)
    return _defect_report(args, "equiv", grid, near_a | near_b, {"deviation": deviation})


def _generated_fixture(name: str):
    from .generators import (CANONICAL_FIXTURES, PLATONIC_SOLIDS, canonical, platonic,
                             triangle_and_star_pair)

    if name in PLATONIC_SOLIDS:
        g, _ = platonic(name)
        locs = [kirchhoff_local(v, g.degree(v)) for v in range(g.vertex_count)]
        return graph_to_spec(g, locs, unit=1.0)
    if name in CANONICAL_FIXTURES:
        fix = canonical(name)
        unit = fix.graph.internal_edges[0].length if fix.graph.n_internal else None
        return graph_to_spec(fix.graph, fix.locals, unit=unit)
    if name in ("triangle", "star"):
        tri, star = triangle_and_star_pair(1.0, 1.0, 1.0)
        fix = tri if name == "triangle" else star
        return graph_to_spec(fix.graph, fix.locals, unit=1.0)
    known = ", ".join(sorted(PLATONIC_SOLIDS) + sorted(CANONICAL_FIXTURES) + ["star", "triangle"])
    raise ValidationError("unknown fixture %r; choose from %s" % (name, known))


def cmd_generate(args) -> int:
    if args.name is None:
        raise ValidationError("generate needs a fixture name")
    if args.format == "csv":
        raise ValidationError("generate only writes json graph files")
    spec = _generated_fixture(args.name)
    _emit(args, lambda: spec_to_dict(spec), None, None)
    return 0


_COMMANDS = {
    "stot": cmd_stot,
    "poles": cmd_poles,
    "spectrum": cmd_spectrum,
    "verify": cmd_verify,
    "equiv": cmd_equiv,
    "generate": cmd_generate,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except SpecFileError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    except ValidationError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except NumericalError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 3
    except np.linalg.LinAlgError as exc:
        print("error: numerical failure (LinAlgError: %s)" % exc, file=sys.stderr)
        return 3
    except MemoryError as exc:
        print("error: out of memory (%s)" % exc, file=sys.stderr)
        return 3
    except BrokenPipeError:
        # the reader of stdout is gone (`| head`): nothing to report, and
        # stdout goes to devnull so that the flush at exit writes nothing
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except OSError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


def run() -> None:
    """The process entry of ``python -m graphscatter.cli`` and the
    ``graphscatter`` console script: main() on sys.argv, then exit with
    its code. Every object still alive is frozen out of the collector
    first, so that interpreter shutdown does not walk the tens of
    thousands that numpy and the package made at import. Atexit
    handlers, stdio flushing and module teardown still run."""
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
