"""kreinls benchmark: one command for every workload.

    python3 perfbench/run.py --workload solve-d128 --seed 1 --seconds 28 --trace 0

Run from the root of a checkout that holds ``src/kreinls``.  The workload
runs in child processes (``worker.py``) whose environment pins OpenBLAS,
OpenMP and MKL to one thread.  Set-up is timed in two fresh processes
and ``setup_s`` is their median.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it records the machine and library build,
and the same record is written to ``perfbench/out/``.  See README.md.
"""

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("solve-d128", "verify-d4", "cli-mixed")
SETUP_PROBES = 1          # set-up-only processes, besides the measured one
TIME_LIMIT = 170.0        # seconds for the whole run
ONE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}


def start_worker(args, env, setup_only):
    argv = [sys.executable, str(HERE / "worker.py"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        argv.append("--setup-only")
    start = time.perf_counter()
    # a session of its own, so that stop() also ends the CLI commands
    proc = subprocess.Popen(argv, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    line = proc.stdout.readline()
    setup = time.perf_counter() - start
    if line.strip() != "READY":
        stop(proc)
        raise RuntimeError(f"worker set-up failed (exit {proc.returncode})")
    return proc, setup


def stop(proc):
    """Kill the worker and everything it started, and wait for it."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()


def finish(proc, deadline, parse=True):
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.time()))
    except subprocess.TimeoutExpired:
        stop(proc)
        raise RuntimeError("worker ran past the time limit") from None
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}")
    if not parse:
        return None
    return json.loads(out.strip().splitlines()[-1])


def environment():
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "threads": ONE_THREAD}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "kreinls" / "__init__.py").is_file():
        print(f"no kreinls sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.time() + TIME_LIMIT
    env = dict(os.environ, **ONE_THREAD)
    env.pop("PERFBENCH_SPANS", None)
    try:
        setups = []
        for _ in range(SETUP_PROBES):
            proc, setup = start_worker(args, env, setup_only=True)
            finish(proc, deadline, parse=False)
            setups.append(setup)
        proc, setup = start_worker(args, env, setup_only=False)
        setups.append(setup)
        result = finish(proc, deadline)
    except RuntimeError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    metrics = result["metrics"]
    if not args.trace:
        metrics["setup_s"] = {"value": statistics.median(setups),
                              "unit": "s"}
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "environment": environment(), "setup_samples_s": setups,
              "rounds": result["rounds"], "round_s": result["round_s"],
              "groups": result["groups"],
              "command_ms": result["command_ms"],
              "failures": result["failures"], "errors": result["errors"]}
    print(json.dumps(record))
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    with open(out_dir / f"result-{args.workload}-{args.seed}-{args.trace}"
              ".json", "w", encoding="utf-8") as fh:
        json.dump(dict(record, metrics=metrics), fh, indent=1)
    print(json.dumps({"correct": not result["errors"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": dict(sorted(metrics.items()))}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
