"""Command line front end.

Subcommands: stot, poles, spectrum, verify, equiv, generate. Output is
a pure function of the input file and flags; reruns are byte
identical. Exit codes: 0 success, 1 file or parse problem, 2 invalid
input data, 3 numerical failure (including verify/equiv tolerance
violations and stray numpy LinAlgErrors).
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import sys
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from .errors import NearPole, NumericalError, SpecFileError, ValidationError
from .generators import CANONICAL_FIXTURES, PLATONIC_SOLIDS, canonical, platonic, triangle_and_star_pair
from .graph import build_graph, mode_index
from .local import kirchhoff_local
from .solve import total_scattering, verify_involution, verify_unitarity
from .specfile import graph_to_spec, load_spec, locals_from_spec, save_spec, spec_to_dict
from .spectral import compact_spectrum, find_poles, secular_polynomial

__all__ = ["main", "build_parser"]

VERIFY_DEFAULT_TOL = 1e-8
EQUIV_DEFAULT_TOL = 1e-10


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
        p.add_argument("--workers", type=int, default=os.cpu_count() or 1)

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
    p_gen.add_argument("--generate", dest="name_flag", default=None, metavar="NAME")
    add_io(p_gen)

    return parser


def _momentum_grid(args) -> list:
    if args.p_list is not None:
        return list(args.p_list)
    if args.steps < 1:
        raise ValidationError("--steps must be at least 1")
    if not args.p_min < args.p_max:
        raise ValidationError("--p-min must be below --p-max")
    return [float(p) for p in np.linspace(args.p_min, args.p_max, args.steps)]


def _emit(text: str, out_path) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _json_text(doc) -> str:
    return json.dumps(doc, indent=2, allow_nan=False) + "\n"


def _csv_text(header, rows) -> str:
    def cell(x):
        if isinstance(x, str):
            return x
        if isinstance(x, (int, np.integer)):
            return str(int(x))
        return "%.17g" % x

    lines = [",".join(header)]
    lines.extend(",".join(cell(x) for x in row) for row in rows)
    return "\n".join(lines) + "\n"


def _complex_pair(z: complex):
    return [float(z.real), float(z.imag)]


# worker-side state, set once per process by the pool initializer
_STATE: dict = {}


def _init_graph_worker(path):
    spec = load_spec(path)
    g = build_graph(spec)
    _STATE["system"] = (g, locals_from_spec(spec, g), mode_index(g))


def _init_pair_worker(path_a, path_b):
    _init_graph_worker(path_a)
    _STATE["system_a"] = _STATE.pop("system")
    _init_graph_worker(path_b)
    _STATE["system_b"] = _STATE.pop("system")


def _stot_point(p):
    g, locs, idx = _STATE["system"]
    try:
        return False, total_scattering(g, locs, idx, p).matrix
    except NearPole:
        return True, None


def _verify_point(p):
    g, locs, idx = _STATE["system"]
    try:
        return False, verify_involution(g, locs, idx, p), verify_unitarity(g, locs, idx, p)
    except NearPole:
        return True, None, None


def _equiv_point(p):
    ga, la, ia = _STATE["system_a"]
    gb, lb, ib = _STATE["system_b"]
    try:
        sa = total_scattering(ga, la, ia, p).matrix
        sb = total_scattering(gb, lb, ib, p).matrix
    except NearPole:
        return True, None
    return False, float(np.max(np.abs(sa - sb)))


def _map_grid(initializer, init_args, point_fn, grid, workers):
    if workers < 1:
        raise ValidationError("--workers must be at least 1")
    if workers == 1 or len(grid) <= 1:
        initializer(*init_args)
        return [point_fn(p) for p in grid]
    ctx = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(
        max_workers=min(workers, len(grid)),
        mp_context=ctx,
        initializer=initializer,
        initargs=init_args,
    ) as pool:
        chunk = max(1, len(grid) // (4 * workers))
        return list(pool.map(point_fn, grid, chunksize=chunk))


def _load_system(path):
    spec = load_spec(path)
    g = build_graph(spec)
    return spec, g, locals_from_spec(spec, g), mode_index(g)


def cmd_stot(args) -> int:
    _, g, _, _ = _load_system(args.graph)  # fail fast on bad input
    grid = _momentum_grid(args)
    results = _map_grid(_init_graph_worker, (args.graph,), _stot_point, grid, args.workers)

    k = g.n_external
    if args.format == "json":
        records = []
        for p, (flagged, mat) in zip(grid, results):
            if flagged:
                records.append({"p": p, "near_pole": True, "matrix": None, "abs2": None})
            else:
                records.append(
                    {
                        "p": p,
                        "near_pole": False,
                        "matrix": [[_complex_pair(z) for z in row] for row in mat],
                        "abs2": [[float(abs(z) ** 2) for z in row] for row in mat],
                    }
                )
        text = _json_text({"command": "stot", "external_modes": k, "results": records})
    else:
        header = ["p", "near_pole"]
        for i in range(k):
            for j in range(k):
                header += ["re_%d_%d" % (i + 1, j + 1), "im_%d_%d" % (i + 1, j + 1),
                           "abs2_%d_%d" % (i + 1, j + 1)]
        rows = []
        for p, (flagged, mat) in zip(grid, results):
            row = [p, 1 if flagged else 0]
            if flagged:
                row += [float("nan")] * (3 * k * k)
            else:
                for i in range(k):
                    for j in range(k):
                        z = mat[i, j]
                        row += [float(z.real), float(z.imag), float(abs(z) ** 2)]
            rows.append(row)
        text = _csv_text(header, rows)
    _emit(text, args.out)
    return 0


def cmd_poles(args) -> int:
    spec, g, locs, idx = _load_system(args.graph)
    unit = args.unit if args.unit is not None else spec.lengths_unit
    if unit is None:
        raise ValidationError("poles needs --unit or a lengths_unit field in the file")
    poly = secular_polynomial(g, locs, idx, unit)
    poles = find_poles(poly, include_removable=args.include_removable)

    if args.format == "json":
        records = [
            {
                "zeta": _complex_pair(rec.zeta),
                "p_representative": _complex_pair(rec.p_representative),
                "multiplicity": rec.multiplicity,
                "removable": rec.removable,
            }
            for rec in poles
        ]
        text = _json_text({"command": "poles", "unit_length": unit, "poles": records})
    else:
        header = ["zeta_re", "zeta_im", "p_re", "p_im", "multiplicity", "removable"]
        rows = [
            [rec.zeta.real, rec.zeta.imag, rec.p_representative.real,
             rec.p_representative.imag, rec.multiplicity, 1 if rec.removable else 0]
            for rec in poles
        ]
        text = _csv_text(header, rows)
    _emit(text, args.out)
    return 0


def cmd_spectrum(args) -> int:
    _, g, locs, idx = _load_system(args.graph)
    momenta = compact_spectrum(g, locs, idx, args.p_min, args.p_max)
    if args.format == "json":
        text = _json_text(
            {"command": "spectrum", "p_min": args.p_min, "p_max": args.p_max,
             "p": [float(p) for p in momenta]}
        )
    else:
        text = _csv_text(["p"], [[float(p)] for p in momenta])
    _emit(text, args.out)
    return 0


def cmd_verify(args) -> int:
    if args.tol <= 0:
        raise ValidationError("--tol must be positive")
    _load_system(args.graph)
    grid = _momentum_grid(args)
    results = _map_grid(_init_graph_worker, (args.graph,), _verify_point, grid, args.workers)

    defects = [(inv, uni) for flagged, inv, uni in results if not flagged]
    max_inv = max((d[0] for d in defects), default=None)
    max_uni = max((d[1] for d in defects), default=None)
    ok = max_inv is not None and max(max_inv, max_uni) <= args.tol

    if args.format == "json":
        records = [
            {"p": p, "near_pole": flagged, "involution_defect": inv, "unitarity_defect": uni}
            for p, (flagged, inv, uni) in zip(grid, results)
        ]
        text = _json_text(
            {
                "command": "verify",
                "tolerance": args.tol,
                "max_involution_defect": max_inv,
                "max_unitarity_defect": max_uni,
                "pass": ok,
                "results": records,
            }
        )
    else:
        header = ["p", "near_pole", "involution_defect", "unitarity_defect"]
        rows = [
            [p, 1 if flagged else 0,
             float("nan") if inv is None else inv,
             float("nan") if uni is None else uni]
            for p, (flagged, inv, uni) in zip(grid, results)
        ]
        text = _csv_text(header, rows)
    _emit(text, args.out)
    return 0 if ok else 3


def cmd_equiv(args) -> int:
    if args.tol <= 0:
        raise ValidationError("--tol must be positive")
    _, ga, _, _ = _load_system(args.graph)
    _, gb, _, _ = _load_system(args.graph_b)
    if ga.n_external != gb.n_external:
        raise ValidationError(
            "graphs have %d and %d external edges; cannot compare"
            % (ga.n_external, gb.n_external)
        )
    grid = _momentum_grid(args)
    results = _map_grid(
        _init_pair_worker, (args.graph, args.graph_b), _equiv_point, grid, args.workers
    )

    deviations = [dev for flagged, dev in results if not flagged]
    max_dev = max(deviations, default=None)
    ok = max_dev is not None and max_dev <= args.tol

    if args.format == "json":
        records = [
            {"p": p, "near_pole": flagged, "deviation": dev}
            for p, (flagged, dev) in zip(grid, results)
        ]
        text = _json_text(
            {
                "command": "equiv",
                "tolerance": args.tol,
                "max_deviation": max_dev,
                "pass": ok,
                "results": records,
            }
        )
    else:
        header = ["p", "near_pole", "deviation"]
        rows = [
            [p, 1 if flagged else 0, float("nan") if dev is None else dev]
            for p, (flagged, dev) in zip(grid, results)
        ]
        text = _csv_text(header, rows)
    _emit(text, args.out)
    return 0 if ok else 3


def _generated_fixture(name: str):
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
    name = args.name_flag if args.name_flag is not None else args.name
    if name is None:
        raise ValidationError("generate needs a fixture name")
    if args.name is not None and args.name_flag is not None and args.name != args.name_flag:
        raise ValidationError("conflicting fixture names %r and %r" % (args.name, args.name_flag))
    if args.format == "csv":
        raise ValidationError("generate only writes json graph files")
    spec = _generated_fixture(name)
    if args.out:
        save_spec(spec, args.out)
    else:
        sys.stdout.write(json.dumps(spec_to_dict(spec), indent=2) + "\n")
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
    except OSError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
