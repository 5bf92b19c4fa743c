"""Benchmark for the graphscatter CLI, end to end and per layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every job is a fresh ``python -m graphscatter.cli ...`` subprocess
(interpreter start and import included) that writes through ``--out``;
its output is then checked against an independent oracle (see
``oracles.py``). The job list of the workload is repeated for about S
seconds; ``wall_s`` and ``cpu_s`` sum each job's median over the
repetitions, ``peak_rss_mb`` is the median of the repetitions' largest
job. ``setup_s`` is
the median over fresh interpreters that import ``graphscatter.cli`` and
load the workload's graph files, nothing else; one is sampled before
every job so that set-up and jobs are measured over the same stretch of
time.

With ``--trace 0`` the last line of stdout holds the end-to-end
metrics. With ``--trace 1`` traced repetitions (jobs launched through
``tracer.py``) alternate with untraced ones and the last line holds the
per-layer metrics. The lines before it print every metric by name with
its unit, the machine record and each job's oracle verdict; the full
record goes to ``bench/_work/results/``.

Jobs run in the caller's environment with only ``PYTHONPATH`` pointed
at this checkout's ``src``; BLAS threads are not pinned, so a later
change to threading shows up here.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(BENCH, "_work")

sys.path.insert(0, SRC)
try:
    import graphscatter
    import inputs
    import oracles
    import tracer
except ImportError as exc:
    sys.exit("error: cannot import graphscatter from %s: %s" % (SRC, exc))
if os.path.dirname(os.path.abspath(graphscatter.__file__)) != os.path.join(SRC, "graphscatter"):
    sys.exit("error: graphscatter was imported from %s, not from %s"
             % (graphscatter.__file__, SRC))

SETUP_MIN = 5
IMPORT_REPEATS = 3
# every run ends well inside 180 s, whatever --seconds says
RUN_DEADLINE_S = 170.0

SETUP_CODE = """
import sys
import graphscatter.cli
from graphscatter.graph import build_graph, mode_index
from graphscatter.specfile import load_spec, locals_from_spec
for path in sys.argv[1:]:
    spec = load_spec(path)
    g = build_graph(spec)
    mode_index(g)
    locals_from_spec(spec, g)
"""

E2E_UNITS = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}
LAYER_UNITS = {
    "import.total_s": "s",
    "import.scipy_s": "s",
    "specfile.load_s": "s",
    "specfile.load_calls": "count",
    "graph.build_s": "s",
    "local.matrix_calls": "count",
    "assemble.resolve_calls": "count",
    "assemble.blocks_calls": "count",
    "assemble.blocks_s": "s",
    "assemble.propagation_calls": "count",
    "assemble.propagation_s": "s",
    "solve.calls": "count",
    "solve.self_s": "s",
    "solve.calls_per_point": "calls/point",
    "solve.near_pole": "count",
    "solve.verify_s": "s",
    "spectral.polynomial_s": "s",
    "spectral.find_poles_s": "s",
    "spectral.compact_spectrum_s": "s",
    "spectral.det_calls": "count",
    "spectral.poles_out": "count",
    "cli.self_s": "s",
    "cli.out_bytes": "B",
    "trace.overhead_s": "s",
}


def job_env() -> dict:
    """The caller's environment with this checkout's ``src`` first on
    ``PYTHONPATH``."""
    path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    return dict(os.environ, PYTHONPATH=path)


class Runner:
    """Starts subprocesses in the checkout and reaps them with their
    resource usage; kills the whole process group at the deadline."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        self.env = job_env()

    def run(self, argv, stdout_path, stderr_path, extra_env=None):
        """Run argv to completion; return (exit code, wall s, cpu s,
        max RSS in MB). cpu and RSS cover the process and every
        descendant it waited for (pool workers)."""
        env = dict(self.env, **(extra_env or {}))
        limit = max(1.0, self.deadline - time.monotonic())
        with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                                    stdout=out, stderr=err, start_new_session=True)
            timer = threading.Timer(limit, os.killpg, (proc.pid, signal.SIGKILL))
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        cpu = usage.ru_utime + usage.ru_stime
        return proc.returncode, wall, cpu, usage.ru_maxrss / 1024.0


def machine_record() -> dict:
    import numpy as np
    import scipy

    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    blas = {
        key: {f: deps.get(key, {}).get(f) for f in ("name", "version", "openblas configuration")}
        for key in ("blas", "lapack")
    }
    return {
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_lapack": blas,
        "threads_env": {
            name: os.environ.get(name)
            for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
    }


def import_times(stderr_text: str) -> tuple[float, float]:
    """(total, scipy) seconds from ``python -X importtime`` output.

    total is the cumulative time of the top-level graphscatter
    imports; scipy sums the cumulative time of every scipy module not
    imported from inside another scipy module.
    """
    rows = []
    for line in stderr_text.splitlines():
        if not line.startswith("import time:") or "cumulative" in line:
            continue
        _, cumulative, field = line[len("import time:"):].split("|")
        name = field.rstrip()[1:]
        depth = (len(name) - len(name.lstrip())) // 2
        rows.append((depth, name.strip(), int(cumulative) * 1e-6))
    total = sum(cum for depth, name, cum in rows
                if depth == 0 and name.split(".")[0] == "graphscatter")
    scipy_s = 0.0
    ancestors: list[str] = []
    for depth, name, cum in reversed(rows):  # parents before children
        del ancestors[depth:]
        is_scipy = name.split(".")[0] == "scipy"
        if is_scipy and not any(a.split(".")[0] == "scipy" for a in ancestors):
            scipy_s += cum
        ancestors.append(name)
    return total, scipy_s


def judge(job, exit_code, reference):
    if exit_code != 0 and job.kind != "verify":
        return oracles.Check(False, "exit code %d" % exit_code,
                             missing=tuple(reference or ()))
    try:
        if job.kind == "stot":
            return oracles.check_stot(job.out, job.momenta)
        if job.kind == "verify":
            return oracles.check_verify(job.out, job.momenta, exit_code)
        if job.kind == "poles":
            return oracles.check_poles(job.out, reference)
        return oracles.check_spectrum(job.out, reference)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return oracles.Check(False, "unreadable output: %r" % exc,
                             missing=tuple(reference or ()))


def run_jobs(runner, workload, references, rep_dir, traced: bool, before_job) -> dict:
    os.makedirs(rep_dir, exist_ok=True)
    launcher = [sys.executable, os.path.join(BENCH, "tracer.py")] if traced else \
        [sys.executable, "-m", "graphscatter.cli"]
    records = []
    for job in workload.jobs:
        before_job()
        if os.path.exists(job.out):
            os.remove(job.out)
        extra = None
        if traced:
            extra = {tracer.TRACE_DIR_ENV: rep_dir, tracer.JOB_ENV: job.name}
        log = os.path.join(rep_dir, job.name)
        code, wall, cpu, rss = runner.run([*launcher, *job.argv], log + ".stdout",
                                          log + ".stderr", extra)
        reference = references.get(job.name)
        check = judge(job, code, reference)
        excused = False
        if not check.ok and job.known_defect:
            with open(log + ".stderr", encoding="utf-8", errors="replace") as fh:
                stderr = fh.read()
            excused = oracles.KNOWN_DEFECTS[job.known_defect](job, code, stderr, check,
                                                              reference or ())
        records.append({
            "job": job.name, "exit": code, "wall_s": wall, "cpu_s": cpu, "rss_mb": rss,
            "ok": check.ok, "detail": check.detail, "known_defect": job.known_defect,
            "excused": excused,
            "points": check.points, "near_pole": check.near_pole,
            "max_defect": check.max_defect, "missed_roots": check.missed_roots,
            "roots_out": check.roots_out,
            "out_bytes": os.path.getsize(job.out) if os.path.exists(job.out) else 0,
        })
    return {
        "traced": traced,
        "wall_s": sum(r["wall_s"] for r in records),
        "peak_rss_mb": max(r["rss_mb"] for r in records),
        "jobs": records,
        "dir": rep_dir,
    }


def layer_metrics(rep: dict, points: int) -> dict:
    """Per-layer numbers from one traced repetition's span files."""
    total: dict = {}
    own: dict = {}
    calls: dict = {}
    counters: dict = {}
    for name in os.listdir(rep["dir"]):
        if not name.endswith(".json"):
            continue
        with open(os.path.join(rep["dir"], name), encoding="utf-8") as fh:
            doc = json.load(fh)
        spans = doc["spans"]
        child_time = [0.0] * len(spans)
        for _, start, end, parent, _ in spans:
            if parent is not None:
                child_time[parent] += end - start
        for i, (span_name, start, end, _, _) in enumerate(spans):
            total[span_name] = total.get(span_name, 0.0) + (end - start)
            own[span_name] = own.get(span_name, 0.0) + (end - start - child_time[i])
            calls[span_name] = calls.get(span_name, 0) + 1
        for key, value in doc["counters"].items():
            counters[key] = counters.get(key, 0) + value
    t = lambda name: total.get(name, 0.0)  # noqa: E731
    solve_calls = calls.get("solve.total_scattering", 0)
    return {
        "specfile.load_s": t("specfile.load_spec"),
        "specfile.load_calls": calls.get("specfile.load_spec", 0),
        "graph.build_s": t("graph.build_graph") + t("graph.mode_index"),
        "local.matrix_calls": counters.get("local.matrix", 0),
        "assemble.resolve_calls": counters.get("assemble.resolve_locals", 0),
        "assemble.blocks_calls": calls.get("assemble.assemble_blocks", 0),
        "assemble.blocks_s": t("assemble.assemble_blocks"),
        "assemble.propagation_calls": calls.get("assemble.assemble_propagation", 0),
        "assemble.propagation_s": t("assemble.assemble_propagation"),
        "solve.calls": solve_calls,
        "solve.self_s": own.get("solve.total_scattering", 0.0),
        "solve.calls_per_point": solve_calls / points if points else 0.0,
        "solve.near_pole": counters.get("solve.near_pole", 0),
        "solve.verify_s": t("solve.verify_involution") + t("solve.verify_unitarity"),
        "spectral.polynomial_s": t("spectral.secular_polynomial"),
        "spectral.find_poles_s": t("spectral.find_poles"),
        "spectral.compact_spectrum_s": t("spectral.compact_spectrum"),
        "spectral.det_calls": calls.get("spectral.secular_determinant", 0),
        "spectral.poles_out": counters.get("spectral.poles_out", 0),
        "cli.self_s": own.get("cli.main", 0.0),
        "cli.out_bytes": sum(r["out_bytes"] for r in rep["jobs"]),
    }


def median_of(values):
    return statistics.median(values) if values else float("nan")


def job_list_median(reps, key: str) -> float:
    """Sum over the job list of each job's median over reps."""
    return sum(median_of([r["jobs"][i][key] for r in reps]) for i in range(len(reps[0]["jobs"])))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink sizes for the self-check (default 1)")
    args = parser.parse_args(argv)

    started = time.monotonic()
    runner = Runner(started + RUN_DEADLINE_S)
    run_dir = os.path.join(WORK, "%s-seed%d" % (args.workload, args.seed))
    shutil.rmtree(run_dir, ignore_errors=True)
    workload = inputs.build_workload(args.workload, args.seed, run_dir, args.scale)
    references = {}
    for job in workload.jobs:
        if job.kind == "poles":
            references[job.name] = oracles.reference_poles(job.graph)
        elif job.kind == "spectrum":
            references[job.name] = oracles.reference_spectrum(job.graph, *job.p_range)

    # the first interpreter only compiles bytecode and warms the page cache
    setup_argv = [sys.executable, "-c", SETUP_CODE, *workload.graphs]
    sink = os.path.join(run_dir, "setup")
    setups = []

    def sample_setup():
        code, wall, _, _ = runner.run(setup_argv, sink + ".stdout", sink + ".stderr")
        if code != 0:
            raise SystemExit("error: set-up interpreter exited with %d" % code)
        setups.append(wall)

    sample_setup()
    setups.clear()

    imports = []
    if args.trace:
        for _ in range(IMPORT_REPEATS):
            runner.run([sys.executable, "-X", "importtime", "-c", "import graphscatter.cli"],
                       sink + ".stdout", sink + ".stderr")
            with open(sink + ".stderr", encoding="utf-8") as fh:
                imports.append(import_times(fh.read()))

    reps = []
    loop_start = time.monotonic()
    while True:
        traced = bool(args.trace) and len(reps) % 2 == 1
        reps.append(run_jobs(runner, workload, references,
                             os.path.join(run_dir, "rep%d" % len(reps)), traced,
                             sample_setup))
        elapsed = time.monotonic() - loop_start
        typical = median_of([r["wall_s"] for r in reps])
        if time.monotonic() > runner.deadline:
            break
        if len(reps) >= 1 + args.trace and elapsed + 0.5 * typical > args.seconds:
            break
    while len(setups) < SETUP_MIN:
        sample_setup()

    plain = [r for r in reps if not r["traced"]]
    traced_reps = [r for r in reps if r["traced"]]
    all_jobs = [j for r in reps for j in r["jobs"]]
    failed = sum(1 for j in all_jobs if not j["ok"])
    correct = all(j["ok"] or j["excused"] for j in all_jobs)
    wall = job_list_median(plain, "wall_s")
    defects = [j["max_defect"] for j in all_jobs if j["max_defect"] is not None]
    roots_checked = any(j["job"] in references for j in all_jobs)

    e2e = {
        "setup_s": median_of(setups),
        "wall_s": wall,
        "cpu_s": job_list_median(plain, "cpu_s"),
        "peak_rss_mb": median_of([r["peak_rss_mb"] for r in plain]),
    }
    extra = {
        "points_per_s": (workload.points / wall, "1/s") if workload.points else None,
        "fail_frac": (failed / len(all_jobs), "1"),
        "max_defect": (max(defects), "1") if defects else None,
        "missed_roots": (median_of([sum(j["missed_roots"] for j in r["jobs"]) for r in reps]),
                         "count") if roots_checked else None,
    }
    layers = {}
    if args.trace:
        per_rep = [layer_metrics(r, workload.points) for r in traced_reps]
        layers = {key: median_of([m[key] for m in per_rep]) for key in per_rep[0]}
        layers["import.total_s"] = median_of([t for t, _ in imports])
        layers["import.scipy_s"] = median_of([s for _, s in imports])
        layers["trace.overhead_s"] = job_list_median(traced_reps, "wall_s") - wall
        layers = {key: layers[key] for key in LAYER_UNITS}

    machine = machine_record()
    print("# machine: %s" % json.dumps(machine, sort_keys=True))
    print("# workload %s, seed %d: %d repetitions (%d traced) of %d jobs, %d set-ups"
          % (args.workload, args.seed, len(reps), len(traced_reps), len(workload.jobs),
             len(setups)))
    for rec in reps[-1]["jobs"]:
        verdict = "ok" if rec["ok"] else ("FAIL (known defect %s)" % rec["known_defect"]
                                          if rec["excused"] else "FAIL")
        print("# job %-24s exit %d  %7.3f s  %s: %s"
              % (rec["job"], rec["exit"], rec["wall_s"], verdict, rec["detail"]))
    for key, value in e2e.items():
        print("%-28s %-14.6g %s" % (key, value, E2E_UNITS[key]))
    for key, item in extra.items():
        print("%-28s %-14s %s" % (key, "n/a", "") if item is None
              else "%-28s %-14.6g %s" % (key, item[0], item[1]))
    for key, value in layers.items():
        print("%-28s %-14.6g %s" % (key, value, LAYER_UNITS[key]))

    metrics = layers if args.trace else e2e
    units = LAYER_UNITS if args.trace else E2E_UNITS
    result = {
        "correct": correct,
        "attempted": len(all_jobs),
        "failed": failed,
        "metrics": {key: {"value": value, "unit": units[key]} for key, value in metrics.items()},
    }
    results_dir = os.path.join(WORK, "results")
    os.makedirs(results_dir, exist_ok=True)
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  machine=machine, setups_s=setups, imports_s=imports,
                  end_to_end=e2e, extra={k: v and v[0] for k, v in extra.items()},
                  per_layer=layers,
                  repetitions=[{k: v for k, v in r.items() if k != "dir"} for r in reps])
    path = os.path.join(results_dir, "%s-seed%d-trace%d.json"
                        % (args.workload, args.seed, args.trace))
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    shutil.rmtree(run_dir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
