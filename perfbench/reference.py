"""Regenerate the reference figures quoted in perfbench/README.md.

    python3 perfbench/reference.py

Prints single-call latencies at dim 128 (median of a few calls, one BLAS
thread), one pass of the seven suites at dim 4, the fresh-interpreter
import of ``kreinls.cli``, the load of a dim-128 problem file, and
``solve_trace_minmax`` at dim 64 under OpenBLAS's default threading and
under one thread.  Each figure is measured in a child process so the
thread setting can differ; the numbers are for the machine it runs on.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ONE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}

PROBE = textwrap.dedent("""
    import json, statistics, sys, tempfile, time
    import kreinls as K
    from kreinls.problem_io import dump_json, load_problem, problem_to_dict

    def med(fn, n):
        out = []
        for _ in range(n):
            t = time.perf_counter()
            try:
                fn()
            except K.KreinError:
                pass
            out.append(time.perf_counter() - t)
        return 1e3 * statistics.median(out), 1e3 * min(out), 1e3 * max(out)

    def inst(dim, regime, seed=1):
        return K.generate_instance(K.GeneratorSpec(dim=dim, seed=seed,
                                                   regime=regime))

    which = sys.argv[1]
    res = {}
    if which == "threads":
        p = inst(64, "range_indefinite").problem
        res["solve_trace_minmax d64"] = med(
            lambda: K.solve_trace_minmax(p, p.space.j_ref), 9)
    else:
        nn = inst(128, "range_nonnegative")
        ind = inst(128, "range_indefinite")
        nc = inst(128, "non_complementable")
        res["solve_ims d128"] = med(lambda: K.solve_ims(nn.problem), 3)
        res["minimality_certificate d128"] = med(
            lambda: K.minimality_certificate(nn.problem,
                                             K.solve_normal(nn.problem)), 3)
        res["solve_trace_minmax d128"] = med(
            lambda: K.solve_trace_minmax(ind.problem,
                                         ind.problem.space.j_ref), 3)
        res["solve_imms d128"] = med(lambda: K.solve_imms(ind.problem), 5)
        res["schur_complement d128"] = med(
            lambda: K.schur_complement(ind.problem.w, ind.subspace,
                                       ind.problem.space), 5)
        res["rejection solve_ims d128 (range_indefinite)"] = med(
            lambda: K.solve_ims(ind.problem), 5)
        res["rejection solve_imms d128 (non_complementable)"] = med(
            lambda: K.solve_imms(nc.problem), 5)
        res["run_suite x7 d4 (20 instances each)"] = med(
            lambda: [K.run_suite(s, count=20, dim=4, seed=0)
                     for s in K.SUITE_NAMES], 3)
        with tempfile.TemporaryDirectory() as tmp:
            path = tmp + "/p128.json"
            dump_json(problem_to_dict(problem=nn.problem,
                                      subspace=nn.subspace), path)
            res["load_problem d128 file"] = med(lambda: load_problem(path), 3)
    print(json.dumps(res))
""")


def probe(which, threads):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for k in ONE_THREAD:
        env.pop(k, None)
    if threads == 1:
        env.update(ONE_THREAD)
    out = subprocess.run([sys.executable, "-c", PROBE, which], env=env,
                         capture_output=True, text=True, check=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def import_ms(n=5):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **ONE_THREAD)
    code = ("import time; t = time.perf_counter(); import kreinls.cli; "
            "print(1e3 * (time.perf_counter() - t))")
    vals = sorted(float(subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True,
        text=True, check=True).stdout) for _ in range(n))
    return vals[n // 2], vals[0], vals[-1]


def main():
    rows = dict(probe("calls", 1))
    rows["import kreinls.cli (fresh interpreter)"] = import_ms()
    for threads, label in ((1, "one BLAS thread"),
                           (0, "default threading")):
        for k, v in probe("threads", threads).items():
            rows[f"{k}, {label}"] = v
    print(f"{'figure':52s} {'median ms':>10s} {'min':>9s} {'max':>9s}")
    for k, (m, lo, hi) in rows.items():
        print(f"{k:52s} {m:10.1f} {lo:9.1f} {hi:9.1f}")
    print(f"nproc {os.cpu_count()}")


if __name__ == "__main__":
    sys.exit(main())
