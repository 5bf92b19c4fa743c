"""Self-check of the benchmark, at tiny sizes.

    python3 bench/selfcheck.py

1. Runs every workload once untraced and once traced with shrunken
   inputs and confirms that the last line names exactly the metrics of
   BENCHMARK.json, each with its unit, and that the printed table names
   every end-to-end quantity.
2. Confirms that each oracle rejects a deliberately corrupted output:
   a perturbed S entry, a sweep flagged near_pole throughout, a dropped
   pole and a shifted eigenmomentum.
3. Confirms that each known-defect signature excuses only the baseline
   failure it describes, and not a wider one.

Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile

import run  # first: puts this checkout's src on sys.path
import inputs
import oracles

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
TABLE_NAMES = ("setup_s", "wall_s", "points_per_s", "cpu_s", "peak_rss_mb", "fail_frac",
               "max_defect", "missed_roots")

failures: list[str] = []


def expect(condition: bool, what: str) -> None:
    print("%s  %s" % ("ok  " if condition else "FAIL", what))
    if not condition:
        failures.append(what)


def smoke() -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            argv = [sys.executable, *spec["command"][1:], "--workload", workload, "--seed", "3",
                    "--seconds", "1", "--trace", str(trace), "--scale", "0.2"]
            proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=170)
            tag = "%s trace %d" % (workload, trace)
            expect(proc.returncode == 0, "%s exits 0" % tag)
            if proc.returncode != 0:
                print(proc.stderr[-2000:])
                continue
            lines = proc.stdout.splitlines()
            result = json.loads(lines[-1])
            expect(set(result) == {"correct", "attempted", "failed", "metrics"},
                   "%s result keys" % tag)
            expect(result["correct"] is True, "%s is correct" % tag)
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            want = {m["name"]: m["unit"] for m in declared}
            expect(got == want, "%s emits every declared metric with its unit" % tag)
            table = {line.split()[0] for line in lines[:-1] if line and not line.startswith("#")}
            expect(set(TABLE_NAMES) <= table, "%s table names every end-to-end quantity" % tag)


def corrupted(path: str, edit) -> str:
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    edit(doc)
    fd, bad = tempfile.mkstemp(suffix=".json", dir=os.path.dirname(path))
    with os.fdopen(fd, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return bad


def oracles_reject_corruption() -> None:
    env = run.job_env()
    with tempfile.TemporaryDirectory(dir=os.path.join(BENCH, "_work")) as tmp:
        sweeps = inputs.build_workload("sweeps", 3, tmp, scale=0.2)
        spectral = inputs.build_workload("spectral", 3, tmp, scale=0.2)
        stot = sweeps.jobs[1]
        poles = spectral.jobs[0]
        spectrum = spectral.jobs[2]
        for job in (stot, poles, spectrum):
            subprocess.run([sys.executable, "-m", "graphscatter.cli", *job.argv], cwd=ROOT,
                           env=env, check=True, timeout=120)

        good = oracles.check_stot(stot.out, stot.momenta)
        expect(good.ok, "stot oracle accepts the program's output (%s)" % good.detail)

        def perturb(doc):
            # keep abs2 consistent so that the identities are what fail
            rec = doc["results"][0]
            entry = rec["matrix"][0][0]
            entry[0] += 1e-6
            rec["abs2"][0][0] = entry[0] ** 2 + entry[1] ** 2

        bad = oracles.check_stot(corrupted(stot.out, perturb), stot.momenta)
        expect(not bad.ok, "stot oracle rejects a perturbed S entry (%s)" % bad.detail)

        def flag_all(doc):
            for rec in doc["results"]:
                rec["near_pole"] = True

        bad = oracles.check_stot(corrupted(stot.out, flag_all), stot.momenta)
        expect(not bad.ok, "stot oracle rejects a sweep flagged near_pole throughout (%s)"
               % bad.detail)

        ref = oracles.reference_poles(poles.graph)
        good = oracles.check_poles(poles.out, ref)
        expect(good.ok, "poles oracle accepts the dodecahedron poles (%s)" % good.detail)

        def drop(doc):
            rec = doc["poles"][0]
            if rec["multiplicity"] > 1:
                rec["multiplicity"] -= 1
            else:
                doc["poles"].pop(0)

        bad = oracles.check_poles(corrupted(poles.out, drop), ref)
        expect(not bad.ok and bad.missed_roots == good.missed_roots + 1,
               "poles oracle counts a dropped pole (%s)" % bad.detail)

        ref = oracles.reference_spectrum(spectrum.graph, *spectrum.p_range)
        good = oracles.check_spectrum(spectrum.out, ref)

        def shift(doc):
            doc["p"][0] += 1e-3

        bad = oracles.check_spectrum(corrupted(spectrum.out, shift), ref)
        expect(not bad.ok and bad.missed_roots == good.missed_roots + 2,
               "spectrum oracle counts a shifted eigenmomentum (%s -> %s)"
               % (good.detail, bad.detail))


def signatures_stay_narrow() -> None:
    def excused(defect, job=None, exit_code=0, stderr="", reference=(), **found):
        return oracles.KNOWN_DEFECTS[defect](job, exit_code, stderr,
                                             oracles.Check(False, "", **found), reference)

    lowest = 0.93 + 0j
    expect(excused("dropped-lowest-resonance", missing=(lowest,)),
           "the lead ring's missing lowest resonance is excused")
    expect(not excused("dropped-lowest-resonance", missing=(lowest, 0.5 + 0.2j)),
           "a second missing pole is not excused")
    expect(not excused("dropped-lowest-resonance", missing=(0.5 + 0.2j,)),
           "another missing pole is not excused")
    expect(not excused("dropped-lowest-resonance", missing=(lowest,), spurious=(0.2 + 0j,)),
           "a spurious pole is not excused")

    with tempfile.TemporaryDirectory(dir=os.path.join(BENCH, "_work")) as tmp:
        job = inputs.build_workload("spectral", 3, tmp, scale=0.2).jobs[2]
        step = oracles.scan_step(job.graph)
        lo, hi = job.p_range
        mid = 0.5 * (lo + hi)
        close, far = mid + 0.5 * step, lo + 0.25 * (hi - lo)
        reference = (far, mid, close)
        expect(excused("close-roots-missed", job, reference=reference, missing=(close,)),
               "a missed root next to another root is excused")
        expect(excused("close-roots-missed", job, reference=reference,
                       missing=(lo + step,)),
               "a missed root next to the end of the range is excused")
        expect(not excused("close-roots-missed", job, reference=reference, missing=(far,)),
               "a missed isolated root is not excused")
        expect(not excused("close-roots-missed", job, exit_code=3, reference=reference),
               "a failing spectrum run is not excused as missed roots")

    crash = "Traceback ...\nnumpy.linalg.LinAlgError: Singular matrix\n"
    expect(excused("singular-polish-crash", exit_code=1, stderr=crash),
           "the triangle's LinAlgError crash is excused")
    expect(not excused("singular-polish-crash", exit_code=1, stderr="KeyError: 'p'\n"),
           "another crash is not excused")
    expect(not excused("singular-polish-crash", exit_code=0),
           "a wrong spectrum from a clean exit is not excused")


def main() -> int:
    os.makedirs(os.path.join(BENCH, "_work"), exist_ok=True)
    smoke()
    oracles_reject_corruption()
    signatures_stay_narrow()
    print("%d check(s) failed" % len(failures) if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
