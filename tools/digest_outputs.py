"""Digest every output a change that claims to keep bits must keep.

    PYTHONPATH=src python3 tools/digest_outputs.py [--detail]

Run it on two checkouts, on the same machine and NumPy/BLAS build (the
last bits of LAPACK results differ between builds), and compare the
printed JSON.  Seven digests, each a SHA-256 prefix over a fixed corpus:

- ``suites``: the 7 suite reports at dim 4, count 20, seeds 11 and 12,
  as ``json.dumps(report.to_dict(), sort_keys=True)`` with
  ``elapsed_seconds`` removed;
- ``tallies``: the same reports reduced to ``passed`` and, per check,
  its (passed, failed) counts.  A change that alters sampled values, and
  so ``suites``, can show with it that no tally and no verdict moved;
- ``certificates``: the generator certificates, W, B and the subspace
  frame for the 6 regimes at dims 6, 8 and 32, seeds 0 and 1;
- ``solvers``: the bytes of every array and number in the results of 17
  public calls on those instances, or the error type and message, for
  the operands as generated, with C = I and with W scaled by 1e-10;
- ``cli``: exit code, stdout and stderr of the solver commands on dim-8
  and dim-32 problem files of three regimes, of ``verify``, of
  ``generate`` and of a problem file whose W is not selfadjoint;
- ``evidence``: the full reports of the sampled checks on the
  ``certificates`` instances, whose passing floors no suite report keeps:
  the minimality certificate (min and max) and the scalar trace floor
  certificate at a normal-equation solution, ``verify_saddle`` under the
  reference and an alternate split, the trace saddle floors,
  ``projection_infimum_check``, ``oracle_projection_infimum``,
  ``projection_stacks`` and ``verify_trace_laws``;
- ``decisions``: only the outcome of each ``solvers`` and ``cli`` item:
  ``ok``, the error type or a boolean result for a call, the exit code
  and the error type it printed (or ``ok``) for a command.  A change that
  alters bits can show with it that no decision changed.

``--detail`` also prints the digest of each item, to find what differs.
"""

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

import kreinls as K
from kreinls.evidence import (projection_stacks, scalar_floor_certificate,
                              trace_saddle_floors)
from kreinls.problem_io import dump_json, encode_matrix, problem_to_dict

SRC = Path(K.__file__).resolve().parent.parent
NUMBERS = (np.ndarray, float, complex, int, bool, np.generic)


def sha(data):
    return hashlib.sha256(data if isinstance(data, bytes)
                          else repr(data).encode()).hexdigest()[:16]


def raw(value):
    """Bytes of an array or number, or of any other result, recursively
    through its fields (a signature's lazy Gram roots included)."""
    if value is None or isinstance(value, (str, list, dict)):
        return repr(value).encode()
    if isinstance(value, np.ndarray):
        return value.tobytes() + repr(value.shape).encode()
    if isinstance(value, NUMBERS):
        return repr(value).encode()
    if isinstance(value, tuple):
        return b"|".join(raw(v) for v in value)
    fields = dict(vars(value))
    if isinstance(value, K.SignatureOperator):
        fields = {"entries": value.entries, "gram": value.gram,
                  "gram_sqrt": value.gram_sqrt,
                  "gram_isqrt": value.gram_isqrt}
    return b";".join(k.encode() + b"=" + raw(v)
                     for k, v in sorted(fields.items())
                     if not k.startswith("_"))


def outcome(fn):
    """(digest of the result or the error, the decision: ``ok``, the error
    type or the boolean the call returned)."""
    try:
        value = fn()
    except Exception as exc:     # the error is the output
        return f"{type(exc).__name__}: {exc}", type(exc).__name__
    return sha(raw(value)), value if isinstance(value, bool) else "ok"


def verdict(proc):
    """A command's decision: its exit code and the error type it printed,
    or ``ok``."""
    for text in (proc.stdout, proc.stderr):
        try:
            doc = json.loads(text)
        except ValueError:
            continue
        if isinstance(doc, dict) and "error" in doc:
            return [proc.returncode, doc["error"]]
    return [proc.returncode, "ok"]


CALLS = {
    "ims": lambda i, p: K.solve_ims(p),
    "ims_max": lambda i, p: K.solve_ims_max(p),
    "imms": lambda i, p: K.solve_imms(p),
    "normal": lambda i, p: K.solve_normal(p),
    "trace_min": lambda i, p: K.solve_trace_min(p, p.space.j_ref),
    "trace_minmax": lambda i, p: K.solve_trace_minmax(p, p.space.j_ref),
    "schur": lambda i, p: K.schur_complement(p.w, i.subspace, p.space),
    "schur_alt": lambda i, p: K.schur_complement(
        p.w, i.subspace, p.space,
        signature=K.random_signature_operator(p.space, 5)),
    "decompose": lambda i, p: K.decompose_w1w2w3(p.w, i.subspace, p.space),
    "identities": lambda i, p: K.verify_schur_identities(
        p.w, i.subspace, p.space, seed=3),
    "weak": lambda i, p: K.is_weakly_complementable(p.w, i.subspace,
                                                    p.space),
    "complementable": lambda i, p: K.is_complementable(p.w, i.subspace,
                                                       p.space),
    "projection": lambda i, p: K.symmetric_projection(p.w, i.subspace,
                                                      p.space),
    "trace_j": lambda i, p: K.trace_j(
        p.w, K.random_signature_operator(p.space, 2), p.space),
    "selfadjoint": lambda i, p: K.is_krein_selfadjoint(p.w, p.space),
    "positive": lambda i, p: K.is_krein_positive(p.w, p.space),
    "contains": lambda i, p: i.subspace.contains(p.b, p.space.tol),
}


def suites():
    """The suite reports and their tallies."""
    out, tallies = {}, {}
    for seed in (11, 12):
        for name in K.SUITE_NAMES:
            body = K.run_suite(name, count=20, dim=4, seed=seed).to_dict()
            body.pop("elapsed_seconds")
            key = f"{name}.{seed}"
            out[key] = sha(json.dumps(body, sort_keys=True).encode())
            tallies[key] = [body["passed"], {
                check: [row["passed"], row["failed"]]
                for check, row in body["checks"].items()}]
    return out, tallies


def corpus():
    """(key, instance) for the 6 regimes at dims 6, 8 and 32, seeds 0
    and 1."""
    for dim in (6, 8, 32):
        for regime in K.REGIMES:
            for seed in (0, 1):
                yield f"{regime}.{dim}.{seed}", K.generate_instance(
                    K.GeneratorSpec(dim=dim, seed=seed, regime=regime))


def certificates_and_solvers():
    """The certificates, the solver outputs and the solver decisions."""
    certs, solves, decisions = {}, {}, {}
    for key, inst in corpus():
        p, dim = inst.problem, inst.space.dim
        certs[key] = sha(
            json.dumps(inst.certificate, sort_keys=True,
                       default=repr).encode()
            + p.w.tobytes() + p.b.tobytes()
            + inst.subspace.frame.tobytes())
        variants = {
            "as_generated": p,
            "c_identity": K.WeightedProblem(
                w=p.w, b=p.b, c=np.eye(dim), space=p.space),
            "w_1e-10": K.WeightedProblem(
                w=1e-10 * p.w, b=p.b, c=p.c, space=p.space)}
        for vname, q in variants.items():
            for cname, call in CALLS.items():
                item = f"{key}.{vname}.{cname}"
                solves[item], decisions[item] = outcome(
                    lambda: call(inst, q))
    return certs, solves, decisions


def evidence():
    """The full reports of the sampled checks, 64 samples each, at the
    normal-equation solution X0 (zero where there is none), for the
    instance as generated and for a definite twin with J_ref W = I + W*W
    and B = I, whose order floors are positive: a report keeps only its
    smallest floor."""
    out = {}
    for key, inst in corpus():
        p, space = inst.problem, inst.space
        eye = np.eye(space.dim)
        definite = K.WeightedProblem(
            w=space.j_ref @ (eye + p.w.conj().T @ p.w), b=eye, c=p.c,
            space=space)
        for variant, q in (("as_generated", p), ("definite", definite)):
            evidence_at(out, f"{key}.{variant}", q, inst.subspace)
    return out


def evidence_at(out, key, p, s):
    """Add the sampled reports for one problem and subspace to ``out``."""
    space = p.space
    try:
        x0 = K.solve_normal(p)
    except K.NormalEquationUnsolvable:
        x0 = np.zeros((space.dim, space.dim), dtype=complex)
    ref = K.SignatureOperator.reference(space)
    alt = K.random_signature_operator(space, 5)
    checks = {
        "certificate_min": lambda: K.minimality_certificate(
            p, x0, 64, 1),
        "certificate_max": lambda: K.minimality_certificate(
            p, x0, 64, 2, "max"),
        "saddle_ref": lambda: K.verify_saddle(p, K.split_b(p), x0, 64, 3),
        "saddle_alt": lambda: K.verify_saddle(p, K.split_b(p, alt), x0,
                                              64, 4),
        "scalar_min": lambda: scalar_floor_certificate(
            p, ref, x0, 64, 5),
        "scalar_max": lambda: scalar_floor_certificate(
            p, ref, x0, 64, 5, "max"),
        "trace_saddle_ref": lambda: trace_saddle_floors(
            p, ref, K.solve_trace_minmax(p, ref), 64, 6),
        "trace_saddle_alt": lambda: trace_saddle_floors(
            p, alt, K.solve_trace_minmax(p, alt), 64, 6),
        "infimum": lambda: K.projection_infimum_check(
            p.w, s, space, 64, 7),
        "oracle": lambda: K.oracle_projection_infimum(
            p.w, s, space, 64, 8),
        "oracle_canonical": lambda: K.oracle_projection_infimum(
            p.w, s, space, 4, 9, include_canonical=True),
        "projections": lambda: np.concatenate(
            list(projection_stacks(s, 3, 10))),
        "trace_laws": lambda: K.verify_trace_laws(
            p.b, p.w, 0.5 + 1j, -2.0, alt, space, seed=13),
    }
    for name, check in checks.items():
        out[f"{key}.{name}"] = outcome(check)[0]


def cli():
    """The outputs and the decisions of the CLI commands."""
    out, decisions = {}, {}
    env = dict(os.environ, PYTHONPATH=str(SRC))

    def run(key, args):
        proc = subprocess.run([sys.executable, "-m", "kreinls.cli"] + args,
                              env=env, capture_output=True, check=False)
        out[key] = [proc.returncode, sha(proc.stdout), sha(proc.stderr)]
        decisions[key] = verdict(proc)

    rng = np.random.default_rng(7)
    with tempfile.TemporaryDirectory() as tmp:
        for dim in (8, 32):
            op = os.path.join(tmp, f"op{dim}.json")
            dump_json({"matrix": encode_matrix(
                rng.standard_normal((dim, dim)))}, op)
            for regime in ("range_nonnegative", "range_indefinite",
                           "non_complementable"):
                inst = K.generate_instance(K.GeneratorSpec(
                    dim=dim, seed=4, regime=regime))
                path = os.path.join(tmp, f"{regime}{dim}.json")
                dump_json(problem_to_dict(problem=inst.problem,
                                          subspace=inst.subspace), path)
                for args in (["schur", "-i", path, "--identities"],
                             ["ims", "-i", path], ["imms", "-i", path],
                             ["trace", "-i", path, "--op", op,
                              "--alt-signature", "3"],
                             ["trace-min", "-i", path]):
                    run(f"{args[0]}.{regime}.{dim}", args)
        run("verify", ["verify", "--suite", "minmax", "--dim", "4",
                       "--instances", "20", "--seed", "5"])
        run("generate", ["generate", "--regime", "range_nonnegative",
                         "--dim", "8", "--seed", "3"])
        bad = os.path.join(tmp, "not_selfadjoint.json")
        dump_json({"dim": 2, "J": [[1, 0], [0, -1]], "W": [[1, 1], [0, 1]],
                   "B": [[1, 0], [0, 1]]}, bad)
        run("not_selfadjoint", ["ims", "-i", bad])
    return out, decisions


def main():
    parts = {}
    parts["suites"], parts["tallies"] = suites()
    parts["certificates"], parts["solvers"], solver_decisions = \
        certificates_and_solvers()
    parts["evidence"] = evidence()
    parts["cli"], cli_decisions = cli()
    parts["decisions"] = {"solvers": solver_decisions, "cli": cli_decisions}
    result = {name: sha(json.dumps(items, sort_keys=True))
              for name, items in parts.items()}
    if "--detail" in sys.argv[1:]:
        result["detail"] = parts
    print(json.dumps(result, indent=1, sort_keys=True))


if __name__ == "__main__":
    main()
