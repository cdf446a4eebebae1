"""One benchmark workload, run as a child of ``run.py``.

The parent starts this file with BLAS and OpenMP pinned to one thread.
The worker imports kreinls from the checkout's ``src``, builds its inputs
from ``--seed``, warms up, prints ``READY`` (the parent times set-up up
to that line), then runs whole rounds of the same operations, ending
at the round boundary nearest to ``--seconds`` (after the workload's
least number of rounds).  A round interleaves the operations of the
workload's groups.  Its last line is a JSON object with the metrics, the
attempted and failed counts, and the reasons of any wrong answer.

With ``--trace 1`` the set-up and all but the first round run with the
span tracer installed; the first round runs untraced so the trace
overhead can be reported.
"""

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import kreinls as K  # noqa: E402
from kreinls.problem_io import dump_json, encode_matrix, problem_to_dict  # noqa: E402

import checks  # noqa: E402
import tracer as tracing  # noqa: E402

WORK = HERE / "out" / "work"

# Operations per generated instance: (call, expected outcome).  "ok" is an
# accepted call; any other value is the error the planted regime implies.
PLAN = {
    "complementable": (("imms", "ok"), ("schur", "ok"),
                       ("trace_minmax", "ok")),
    "range_nonnegative": (("ims", "ok"), ("schur", "ok")),
    "range_nonpositive": (("ims", "RangeNotNonnegative"), ("imms", "ok"),
                          ("schur", "ok")),
    "range_indefinite": (("ims", "RangeNotNonnegative"), ("imms", "ok"),
                         ("schur", "ok"), ("trace_minmax", "ok")),
    "non_complementable": (("ims", "NormalEquationUnsolvable"),
                           ("imms", "MinMaxUnsolvable"),
                           ("schur", "NotWeaklyComplementable"),
                           ("trace_minmax", "NotComplementable")),
    "neutral_directions": (("ims", "ok"), ("imms", "ok"), ("schur", "ok")),
}

# Weight-rescaled twins of rejection instances.  Their inputs are fixed
# (they do not depend on --seed) because each fails every time: the
# tolerance scale max(1, norms) turns relative tolerances absolute below
# unit norm, so at W -> 1e-10 W solve_ims ends in
# InternalCertificateFailure, and at 1e-11 W solve_imms accepts a
# non-complementable weight.  They are counted as attempted and failed and
# enter no latency metric.  Both fail the same way at dim 8, 16, 32 and
# 128; at dim 8 the solve_ims twin costs 5 ms, not a 1.1 s certificate.
TWIN_SEED = 20190212
TWIN_DIM = 8
TWINS = (("range_indefinite", "ims", 1e-10),
         ("non_complementable", "imms", 1e-11))


def expected_error(regime, call):
    return dict(PLAN[regime])[call]


class Run:
    """Samples, counts and wrong answers of one worker run."""

    def __init__(self):
        self.tracer = None
        self.latency = {}
        self.verify_instances = {}
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.errors = []
        self.counts = {}
        self.bytes_in = 0
        self.bytes_out = 0
        self.child_spans = []
        self.op_index = 0
        self.rounds = 0

    def time(self, metric, key, ms):
        """One latency of the operation ``key``, which repeats each round."""
        self.latency.setdefault(metric, {}).setdefault(key, []).append(ms)

    def typical(self, metric):
        """Geometric mean over the operations of each one's median.

        A latency metric mixes operations of different cost (six kinds of
        rejection, eight kinds of command).  A plain median of such a mix
        jumps between the cost levels as instances change; the geometric
        mean of per-operation medians moves smoothly with each of them."""
        meds = [statistics.median(v) for v in self.latency[metric].values()]
        return math.exp(statistics.fmean(map(math.log, meds)))

    def verified(self, key, instances, secs):
        """One timing of the verify operation ``key`` over ``instances``."""
        self.time("verify_s", key, secs)
        self.verify_instances[key] = instances

    def verify_rate(self):
        """Instances per second over one round of the verify operations,
        each timed by its median over the rounds."""
        meds = {k: statistics.median(v)
                for k, v in self.latency["verify_s"].items()}
        return sum(self.verify_instances[k] for k in meds) \
            / sum(meds.values())

    def attempt(self, group, where, failure=None):
        """Count one operation; ``failure`` names why it failed."""
        self.attempted += 1
        c = self.counts.setdefault(group, {"attempted": 0, "failed": 0})
        c["attempted"] += 1
        if failure is not None:
            self.failed += 1
            c["failed"] += 1
            self.failures.append(f"{where}: {failure}")

    def wrong(self, where, reason):
        """Record a wrong answer from an operation that did not fail."""
        if reason is not None:
            self.errors.append(f"{where}: {reason}")

    def next_op(self, name):
        self.op_index += 1
        op = f"{self.op_index}:{name}"
        if self.tracer is not None:
            self.tracer.op = op
        return op


def timed(fn):
    """(outcome, result, seconds): outcome is "ok" or the error name.

    Any exception ends only this operation, which then counts as failed
    unless its name is the expected rejection."""
    start = time.perf_counter()
    try:
        result = fn()
        outcome = "ok"
    except Exception as exc:
        result = None
        outcome = type(exc).__name__
    return outcome, result, time.perf_counter() - start


class SolveGroup:
    """Public solver calls on generated instances of every regime.

    Each of ``sets`` sets of instances, one per regime, gets every call.
    Each of ``cheap_sets`` more sets gets only the cheap calls: the
    ``schur_complement`` calls and the rejections.  At dim 128 these take
    10-75 ms against 0.2-1.1 s for the accepted solves, and their cost
    varies more from instance to instance."""

    name = "solve"

    def __init__(self, dim, sets, twins, cheap_sets=0):
        self.dim = dim
        self.sets = sets
        self.twins = twins
        self.cheap_sets = cheap_sets

    def setup(self, rng):
        self.instances = []
        for n in range(self.sets + self.cheap_sets):
            for regime in PLAN:
                seed = int(rng.integers(0, 2**31 - 1))
                self.instances.append((K.generate_instance(
                    K.GeneratorSpec(dim=self.dim, seed=seed, regime=regime)),
                    n >= self.sets))
        self.twin_ops = []
        if self.twins:
            base = {r: K.generate_instance(K.GeneratorSpec(
                dim=TWIN_DIM, seed=TWIN_SEED, regime=r))
                for r in {r for r, _, _ in TWINS}}
            for regime, call, scale in TWINS:
                inst = base[regime]
                p = inst.problem
                scaled = K.WeightedProblem(w=scale * p.w, b=p.b, c=p.c,
                                           space=p.space)
                self.twin_ops.append((regime, call, scale, inst, scaled))
        self.steps = len(self.instances) + len(self.twin_ops)

    def warmup(self):
        inst = K.generate_instance(K.GeneratorSpec(
            dim=8, seed=1, regime="range_indefinite"))
        for call in ("ims", "imms", "schur", "trace_minmax"):
            timed(lambda: self.call(call, inst, inst.problem))

    @staticmethod
    def call(call, inst, p):
        if call == "ims":
            return K.solve_ims(p)
        if call == "imms":
            return K.solve_imms(p)
        if call == "schur":
            return K.schur_complement(p.w, inst.subspace, p.space)
        return K.solve_trace_minmax(p, p.space.j_ref)

    @staticmethod
    def check(call, inst, result):
        p = inst.problem
        w, b, c, j = p.w, p.b, p.c, p.space.j_ref
        if call == "ims":
            return checks.check_ims(w, b, c, j, result.x0,
                                    result.extremal_value)
        if call == "imms":
            return checks.check_imms(w, b, c, j, result.z,
                                     result.minmax_value)
        if call == "schur":
            return checks.check_schur(w, j, inst.subspace.frame,
                                      result.schur)
        return checks.check_trace_minmax(w, b, c, j, result.z, result.value)

    def round(self, run):
        for index, (inst, cheap_only) in enumerate(self.instances):
            regime = inst.spec.regime
            for call, want in PLAN[regime]:
                if cheap_only and call != "schur" and want == "ok":
                    continue
                op = run.next_op(f"{call}.d{self.dim}.{regime}")
                outcome, result, secs = timed(
                    lambda: self.call(call, inst, inst.problem))
                failure = checks.check_rejection(outcome, want)
                run.attempt(self.name, op, failure)
                if failure is not None:
                    continue
                metric = f"{call}_ms" if want == "ok" else "reject_ms"
                run.time(metric, f"{index}.{call}", secs * 1e3)
                if want == "ok":
                    run.wrong(op, self.check(call, inst, result))
            yield op
        for regime, call, scale, inst, scaled in self.twin_ops:
            op = run.next_op(f"twin.{call}.d{TWIN_DIM}.{regime}.{scale:g}")
            outcome, _, _ = timed(lambda: self.call(call, inst, scaled))
            run.attempt(self.name + ".twins", op, checks.check_rejection(
                outcome, expected_error(regime, call)))
            yield op


class SuiteGroup:
    """run_suite over all seven suites at dim 4, for ``seeds`` suite seeds;
    every round repeats the same (suite, seed) reports."""

    name = "suites"

    def __init__(self, count, seeds):
        self.count = count
        self.n_seeds = seeds
        self.first = {}

    def setup(self, rng):
        self.seeds = [int(s) for s in rng.integers(0, 2**31 - 1,
                                                   size=self.n_seeds)]
        self.steps = len(self.seeds) * len(K.SUITE_NAMES)

    def warmup(self):
        for suite in K.SUITE_NAMES:
            K.run_suite(suite, count=1, dim=4, seed=self.seeds[0])

    def round(self, run):
        for seed in self.seeds:
            for suite in K.SUITE_NAMES:
                op = run.next_op(f"suite.{suite}.{seed}")
                start = time.perf_counter()
                report = K.run_suite(suite, count=self.count, dim=4,
                                     seed=seed)
                secs = time.perf_counter() - start
                run.attempt(self.name, op)
                run.verified(f"{suite}.{seed}", self.count, secs)
                body = report.to_dict()
                body.pop("elapsed_seconds")
                text = json.dumps(body, sort_keys=True)
                if not report.ok():
                    run.wrong(op, f"report failed: {report.failures[:3]}")
                if self.first.setdefault((suite, seed), text) != text:
                    run.wrong(op, "report differs from the first round's")
                yield op


# CLI commands: (name, size class, argv after "kreinls").  "{p}" is the
# problem file and "{op}" the operator file of that size class.
CLI_FULL = (
    ("generate", "small", ["generate", "--regime", "range_nonnegative",
                           "--dim", "8", "--seed", "{seed}", "-o", "{gen}"]),
    ("schur", "small", ["schur", "-i", "{p}", "--identities"]),
    ("ims", "small", ["ims", "-i", "{p}"]),
    ("imms", "small", ["imms", "-i", "{p}"]),
    ("trace", "small", ["trace", "-i", "{p}", "--op", "{op}",
                        "--alt-signature", "3"]),
    ("trace-min", "small", ["trace-min", "-i", "{p}"]),
    ("verify", "small", ["verify", "--suite", "minmax", "--dim", "4",
                         "--instances", "20", "--seed", "{seed}"]),
    ("verify", "small", ["verify", "--suite", "thm-minimum", "--dim", "4",
                         "--instances", "20", "--seed", "{seed}"]),
    ("generate", "large", ["generate", "--regime", "range_nonnegative",
                           "--dim", "128", "--seed", "{seed}", "-o",
                           "{gen}"]),
    ("schur", "large", ["schur", "-i", "{p}", "--identities"]),
    ("ims", "large", ["ims", "-i", "{p}"]),
    ("imms", "large", ["imms", "-i", "{p}"]),
    ("trace", "large", ["trace", "-i", "{p}", "--op", "{op}",
                        "--alt-signature", "3"]),
    ("trace-min", "large", ["trace-min", "-i", "{p}"]),
)
# The CLI share of the workloads whose own operations are in-process.
CLI_COMPANION = tuple(c for c in CLI_FULL
                      if (c[0], c[1]) in {("ims", "small"), ("imms", "small"),
                                          ("trace", "large")})
# On solve-d128 the one large command runs twice a round, so that
# cli_large_ms has six samples or more there.
CLI_COMPANION_D128 = CLI_COMPANION + tuple(c for c in CLI_COMPANION
                                           if c[1] == "large")
SIZES = {"small": 8, "large": 128}
COMMAND_TIMEOUT = 60.0    # seconds; subprocess.run kills the command after
VERIFY_INSTANCES = 20


class CliGroup:
    """``kreinls`` commands, each in its own interpreter process."""

    name = "cli"

    def __init__(self, commands):
        self.commands = commands
        self.steps = len(commands)
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = str(ROOT / "src")

    def setup(self, rng):
        WORK.mkdir(parents=True, exist_ok=True)
        self.seed = int(rng.integers(0, 2**31 - 1))
        self.data = {}
        for size, dim in SIZES.items():
            inst = K.generate_instance(K.GeneratorSpec(
                dim=dim, seed=int(rng.integers(0, 2**31 - 1)),
                regime="range_nonnegative"))
            t = rng.standard_normal((dim, dim)) \
                + 1j * rng.standard_normal((dim, dim))
            paths = {"p": WORK / f"problem_{size}.json",
                     "op": WORK / f"operator_{size}.json",
                     "gen": WORK / f"generated_{size}.json"}
            dump_json(problem_to_dict(problem=inst.problem,
                                      subspace=inst.subspace), paths["p"])
            dump_json({"matrix": encode_matrix(t)}, paths["op"])
            self.data[size] = (inst, t, paths)

    def warmup(self):
        pass

    def argv(self, size, args, traced):
        paths = self.data[size][2]
        fill = {k: str(v) for k, v in paths.items()}
        fill["seed"] = str(self.seed)
        args = [a.format(**fill) for a in args]
        if traced:
            return [sys.executable, str(HERE / "clilaunch.py")] + args
        return [sys.executable, "-m", "kreinls.cli"] + args

    def round(self, run):
        traced = run.tracer is not None
        for index, (name, size, args) in enumerate(self.commands):
            op = run.next_op(f"cli.{name}.{size}")
            argv = self.argv(size, args, traced)
            env = self.env
            spans_path = WORK / "spans.jsonl"
            if traced:
                env = dict(env, PERFBENCH_SPANS=str(spans_path),
                           PERFBENCH_OP=op)
            start = time.perf_counter()
            proc = subprocess.run(argv, env=env, capture_output=True,
                                  timeout=COMMAND_TIMEOUT)
            secs = time.perf_counter() - start
            if proc.returncode != 0:
                run.attempt(self.name, op, f"exit {proc.returncode}: "
                                           f"{proc.stderr.decode()[-300:]}")
                yield op
                continue
            run.attempt(self.name, op)
            run.time(f"cli_{size}_ms", f"{name}.{size}.{index}", secs * 1e3)
            if name == "verify":
                run.verified(f"cli.{index}", VERIFY_INSTANCES, secs)
            run.wrong(op, self.check(name, size, proc.stdout))
            self.count_bytes(run, argv, proc.stdout)
            if traced:
                run.child_spans.append(tracing.load(spans_path))
            yield op

    @staticmethod
    def count_bytes(run, argv, stdout):
        run.bytes_out += len(stdout)
        for flag, value in zip(argv, argv[1:]):
            if flag in ("-i", "--op"):
                run.bytes_in += os.path.getsize(value)
            elif flag == "-o":
                run.bytes_out += os.path.getsize(value)

    def check(self, name, size, stdout):
        inst, t, paths = self.data[size]
        p = inst.problem
        w, b, c, j = p.w, p.b, p.c, p.space.j_ref
        if name == "generate":
            with open(paths["gen"], encoding="utf-8") as fh:
                gen = json.load(fh)
            jw = checks.decode(gen["J"]) @ checks.decode(gen["W"])
            if gen["dim"] != SIZES[size] \
                    or gen["meta"]["regime"] != "range_nonnegative":
                return "generated file has the wrong dim or regime"
            return checks.check_close(jw, jw.conj().T, checks.norm2(jw),
                                      "J W Hermitian part")
        out = json.loads(stdout)
        if name == "schur":
            worst = max(out["identity_residuals"].values())
            if worst > checks.RTOL:
                return f"identity residual {worst:.3e}"
            return checks.check_schur(w, j, inst.subspace.frame,
                                      checks.decode(out["schur"]))
        if name == "ims":
            return checks.check_ims(w, b, c, j, checks.decode(out["x0"]),
                                    checks.decode(out["min_value"]))
        if name == "imms":
            return checks.check_imms(w, b, c, j, checks.decode(out["z"]),
                                     checks.decode(out["minmax_value"]))
        if name == "trace":
            value = complex(*out["trace"])
            if out["change_of_signature_residual"] \
                    > checks.RTOL * max(1.0, abs(value)):
                return "change-of-signature residual too large"
            return checks.check_trace(j, t, value)
        if name == "trace-min":
            return checks.check_trace_min(w, b, c, j,
                                          checks.decode(out["x0"]),
                                          out["value"])
        if not out["passed"]:
            return f"verify report failed: {out['failures'][:3]}"
        return None


# name -> (rounds at least, the groups of one round).  solve-d128 takes
# three rounds at least so that each of its dim-128 calls, which repeat
# only once a round, has a median of three.
WORKLOADS = {
    "solve-d128": (3, lambda: [SolveGroup(128, sets=1, twins=True,
                                          cheap_sets=1),
                               SuiteGroup(count=5, seeds=4),
                               CliGroup(CLI_COMPANION_D128)]),
    "verify-d4": (2, lambda: [SuiteGroup(count=20, seeds=2),
                              SolveGroup(8, sets=12, twins=False),
                              CliGroup(CLI_COMPANION)]),
    "cli-mixed": (2, lambda: [CliGroup(CLI_FULL),
                              SolveGroup(8, sets=12, twins=False)]),
}

# Per-layer metrics: name -> span names whose calls or self time it sums.
LAYERS = {
    "linalg.svd": ["numpy.linalg.svd"],
    "linalg.eigh": ["numpy.linalg.eigh", "numpy.linalg.eigvalsh",
                    "scipy.linalg.eigh"],
    "linalg.opnorm": ["kreinls.linalg.opnorm"],
    "core.signature": ["kreinls.core.SignatureOperator.from_matrix",
                       "kreinls.core.SignatureOperator.reference"],
    "subspaces.projection": ["kreinls.subspaces.symmetric_projection",
                             "kreinls.subspaces.oblique_projection",
                             "kreinls.subspaces.projection_with_kernel"],
    "schur.complement": ["kreinls.schur.schur_complement"],
    "lsq.certificate": ["kreinls.lsq.minimality_certificate"],
    "lsq.normal": ["kreinls.lsq.solve_normal", "kreinls.lsq.normal_solvable"],
    "lsq.saddle": ["kreinls.lsq.verify_saddle"],
    "jtrace.objective_xy": ["kreinls.jtrace.trace_objective_xy"],
    "generate.instance": ["kreinls.generate.generate_instance"],
    "oracles.sweep": ["kreinls.oracles.oracle_parameter_sweep",
                      "kreinls.oracles.minmax_order_gap"],
    "oracles.infimum": ["kreinls.oracles.oracle_projection_infimum"],
    "problem_io.load": ["kreinls.problem_io.load_problem",
                        "kreinls.problem_io.load_operator",
                        "kreinls.problem_io.parse_problem",
                        "kreinls.problem_io.decode_matrix"],
    "problem_io.encode": ["kreinls.problem_io.encode_matrix",
                          "kreinls.problem_io.problem_to_dict",
                          "kreinls.problem_io.dump_json",
                          "kreinls.cli._emit"],
}
LAYERS.update({f"suites.{s}": [f"kreinls.suites.{s}"]
               for s in K.SUITE_NAMES})
CALLS = {
    "linalg.svd_calls": "linalg.svd",
    "linalg.eigh_calls": "linalg.eigh",
    "linalg.opnorm_calls": "linalg.opnorm",
    "linalg.rank_decisions": ["kreinls.linalg.numerical_rank"],
    "core.signature_calls": ["kreinls.core.SignatureOperator.from_matrix"],
    "core.selfadjoint_checks": ["kreinls.core.require_krein_selfadjoint"],
    "subspaces.range_calls": ["kreinls.subspaces.range_subspace"],
    "subspaces.complementable_calls": ["kreinls.subspaces.is_complementable"],
    "schur.complement_calls": "schur.complement",
    "schur.block_decompose_calls": ["kreinls.schur.block_decompose"],
    "lsq.normal_calls": "lsq.normal",
    "jtrace.objective_xy_calls": "jtrace.objective_xy",
    "generate.instance_calls": "generate.instance",
}



class LayerTotals:
    """Calls and self seconds per span name, summed over span lists."""

    def __init__(self):
        self.by_name = {}
        self.imports = []

    def add(self, processes):
        for spans in processes:
            for name, (calls, secs) in tracing.self_times(spans).items():
                c, t = self.by_name.get(name, (0, 0.0))
                self.by_name[name] = (c + calls, t + secs)
            self.imports += [end - start for name, start, end, *_ in spans
                             if name == "cli.import"]
            # a suite is a container: report its whole time, not self time
            for name, start, end, *_ in spans:
                if name.startswith("kreinls.suites."):
                    c, t = self.by_name.get(name + ":total", (0, 0.0))
                    self.by_name[name + ":total"] = (c, t + end - start)

    def get(self, names, rounds):
        calls = sum(self.by_name.get(n, (0, 0.0))[0] for n in names)
        secs = sum(self.by_name.get(n, (0, 0.0))[1] for n in names)
        return calls / rounds, secs / rounds


def layer_metrics(setup, per_round, rounds, run, overhead):
    """Per-layer figures for the set-up plus one round (the mean over the
    traced rounds, which repeat the same operations)."""
    def get(names):
        c0, t0 = setup.get(names, 1)
        c1, t1 = per_round.get(names, rounds)
        return c0 + c1, t0 + t1

    out = {}
    for metric, names in CALLS.items():
        names = LAYERS[names] if isinstance(names, str) else names
        out[metric] = (get(names)[0], "count")
    for layer, names in LAYERS.items():
        if layer.startswith("suites."):
            names = [n + ":total" for n in names]
        out[f"{layer}_ms"] = (1e3 * get(names)[1], "ms")
    out["problem_io.bytes_in"] = (run.bytes_in / run.rounds, "bytes")
    out["problem_io.bytes_out"] = (run.bytes_out / run.rounds, "bytes")
    imports = per_round.imports
    out["cli.import_ms"] = (1e3 * statistics.median(imports)
                            if imports else 0.0, "ms")
    out["trace.overhead_pct"] = (overhead, "%")
    return out


def run_round(groups, run):
    """One round: each group's operations, interleaved in proportion to
    their number, so that every metric samples the whole round."""
    live = [[0, g.steps, g.round(run)] for g in groups]
    while live:
        entry = min(live, key=lambda e: e[0] / e[1])
        if next(entry[2], None) is None:
            live.remove(entry)
        else:
            entry[0] += 1


def end_to_end_metrics(run):
    out = {m: (run.typical(m), "ms") for m in (
        "ims_ms", "imms_ms", "schur_ms", "trace_minmax_ms", "reject_ms",
        "cli_small_ms", "cli_large_ms")}
    out["verify_instances_per_s"] = (run.verify_rate(), "1/s")
    rss = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    out["peak_rss_mb"] = (rss / 1024.0, "MB")
    return out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    tracer = tracing.Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    min_rounds, make_groups = WORKLOADS[args.workload]
    groups = make_groups()
    rng = np.random.default_rng(args.seed)
    for g in groups:
        g.setup(rng)
    for g in groups:
        g.warmup()
    print("READY", flush=True)
    if args.setup_only:
        return 0

    run = Run()
    rounds = []
    if tracer is not None:
        # set-up spans are kept; the first round runs untraced
        tracer.uninstall()
        setup_spans, tracer.spans = tracer.spans, []
        setup_totals = LayerTotals()
        setup_totals.add([setup_spans])
        round_totals = LayerTotals()
        first_round_spans = None
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        run_round(groups, run)
        rounds.append(time.perf_counter() - t0)
        run.rounds = len(rounds)
        if run.tracer is not None:
            batch = [tracer.spans] + run.child_spans
            round_totals.add(batch)
            first_round_spans = first_round_spans or batch
            tracer.spans, run.child_spans = [], []
        # end at the round boundary nearest to --seconds
        if len(rounds) >= min_rounds and time.perf_counter() - start \
                + statistics.median(rounds) / 2 >= args.seconds:
            break
        if tracer is not None and run.tracer is None:
            tracer.install()
            run.tracer = tracer

    if tracer is not None:
        tracer.uninstall()
        overhead = 100.0 * (statistics.median(rounds[1:]) / rounds[0] - 1.0)
        metrics = layer_metrics(setup_totals, round_totals, len(rounds) - 1,
                                run, overhead)
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        tracing.dump(out_dir / f"trace-{args.workload}-{args.seed}.jsonl",
                     [setup_spans] + first_round_spans)
    else:
        metrics = end_to_end_metrics(run)
    print(json.dumps({
        "attempted": run.attempted, "failed": run.failed,
        "errors": run.errors[:50], "failures": sorted(set(
            f.split(":", 1)[1] for f in run.failures))[:20],
        "groups": run.counts,
        "rounds": len(rounds), "round_s": rounds,
        "command_ms": {k: statistics.median(v) for m in ("cli_small_ms",
                                                          "cli_large_ms")
                       for k, v in sorted(run.latency.get(m, {}).items())},
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in sorted(metrics.items())}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
