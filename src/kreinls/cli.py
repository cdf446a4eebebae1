"""Command-line interface.

Exit codes: 0 success, 1 verification/solvability failure, 2 malformed
input.  All matrix output uses the same [re, im] JSON encoding as the
problem files.
"""

import argparse
import json
import sys

from .core import random_signature_operator
from .errors import (KreinError, MalformedInput, NormalEquationUnsolvable,
                     MinMaxUnsolvable)
from .generate import REGIMES, GeneratorSpec, generate_instance
from .jtrace import change_of_signature, trace_j
from .oracles import oracle_parameter_sweep
from .problem_io import (_dumps, dump_json, encode_matrix,
                         load_operator, load_problem, problem_to_dict)
from .schur import schur_complement, verify_schur_identities
from .lsq import solve_ims, solve_imms
from .jtrace import solve_trace_min
from .suites import SUITE_NAMES, run_suite

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_MALFORMED = 2


def _emit(payload, out_path=None):
    text = _dumps(payload)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
            fh.write("\n")
    print(text)


def _cmd_schur(args):
    data = load_problem(args.input, args.tol)
    sub = data.subspace_or_range()
    result = schur_complement(data.w, sub, data.space)
    payload = {
        "schur": encode_matrix(result.schur),
        "compression": encode_matrix(result.compression),
        "subspace_dim": sub.dim,
    }
    if args.identities:
        idr = verify_schur_identities(data.w, sub, data.space, seed=args.seed)
        payload["identity_residuals"] = idr.residuals()
    _emit(payload, args.output)
    return EXIT_OK


def _cmd_ims(args):
    data = load_problem(args.input, args.tol)
    p = data.weighted_problem()
    sol = solve_ims(p)
    payload = {
        "x0": encode_matrix(sol.x0),
        "min_value": encode_matrix(sol.extremal_value),
        "normal_residual": sol.normal_residual,
        "certificate_floor": sol.certificate.min_floor,
    }
    if sol.schur_value is not None:
        payload["schur_value"] = encode_matrix(sol.schur_value)
    _emit(payload, args.output)
    return EXIT_OK


def _cmd_imms(args):
    data = load_problem(args.input, args.tol)
    p = data.weighted_problem()
    sol = solve_imms(p)
    payload = {
        "z": encode_matrix(sol.z),
        "z1": encode_matrix(sol.z1),
        "z2": encode_matrix(sol.z2),
        "minmax_value": encode_matrix(sol.minmax_value),
    }
    if sol.schur_value is not None:
        payload["schur_value"] = encode_matrix(sol.schur_value)
    _emit(payload, args.output)
    return EXIT_OK


def _cmd_trace(args):
    data = load_problem(args.input, args.tol)
    t = load_operator(args.op, dim=data.space.dim)
    report = trace_j(t, data.space.j_ref, data.space)
    payload = {
        "trace": [report.value.real, report.value.imag],
        "trace_norm": report.trace_norm,
        "bound_margin": report.bound_margin,
    }
    code = EXIT_OK
    if args.alt_signature is not None:
        alt = random_signature_operator(data.space, args.alt_signature)
        alt_report = trace_j(t, alt, data.space)
        chg = change_of_signature(
            t, data.space.j_ref, alt, data.space)
        payload["alt_trace"] = [alt_report.value.real, alt_report.value.imag]
        payload["change_of_signature_residual"] = chg.residual
        if chg.residual > data.space.tol * max(1.0, abs(chg.lhs)):
            code = EXIT_VERIFICATION
    _emit(payload, args.output)
    return code


def _cmd_trace_min(args):
    data = load_problem(args.input, args.tol)
    p = data.weighted_problem()
    sol = solve_trace_min(p, data.space.j_ref, seed=args.seed)
    payload = {
        "x0": encode_matrix(sol.x0),
        "value": sol.value,
        "certificate_floor": sol.scalar_certificate.min_floor,
        "gradient_certificate": sol.gradient_certificate,
    }
    if args.sweep and data.space.dim <= 4:
        sweep = oracle_parameter_sweep(p, sense="min", mode="als")
        payload["sweep_value"] = sweep.value
        if abs(sweep.value - sol.value) > 1e-4 * max(1.0, abs(sol.value)):
            _emit(payload, args.output)
            return EXIT_VERIFICATION
    _emit(payload, args.output)
    return EXIT_OK


def _cmd_verify(args):
    report = run_suite(args.suite, count=args.instances, dim=args.dim,
                       seed=args.seed, cond_bound=args.cond_bound)
    payload = report.to_dict()
    if args.report:
        dump_json(payload, args.report)
    summary = {k: v.to_dict() for k, v in sorted(report.checks.items())}
    print(json.dumps({"suite": report.suite, "passed": report.ok(),
                      "total_checks": report.total_checks(),
                      "checks": summary,
                      "failures": report.failures[:20]}, indent=2))
    return EXIT_OK if report.ok() else EXIT_VERIFICATION


def _cmd_generate(args):
    spec = GeneratorSpec(dim=args.dim, seed=args.seed, regime=args.regime,
                         cond_bound=args.cond_bound)
    inst = generate_instance(spec)
    payload = problem_to_dict(
        problem=inst.problem, subspace=inst.subspace,
        meta={"regime": spec.regime, "seed": spec.seed,
              "generator": "numpy PCG64 (default_rng)",
              "certificate": inst.certificate})
    if args.output:
        dump_json(payload, args.output)
        print(f"wrote {args.output}")
    else:
        _emit(payload)
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="kreinls",
        description="Indefinite operator least squares: Schur complements, "
                    "weighted min/min-max solvers, trace optimization, and "
                    "theorem verification suites.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp, output=True):
        sp.add_argument("-i", "--input", required=True,
                        help="problem JSON file")
        sp.add_argument("--tol", type=float, default=None,
                        help="override the space tolerance")
        if output:
            sp.add_argument("-o", "--output", default=None,
                            help="also write the result JSON here")

    sp = sub.add_parser("schur", help="Schur complement of W to a subspace")
    add_common(sp)
    sp.add_argument("--seed", type=int, default=0,
                    help="seed of the identity checks")
    sp.add_argument("--identities", action="store_true",
                    help="include the shorted-operator identity residuals")
    sp.set_defaults(fn=_cmd_schur)

    sp = sub.add_parser("ims", help="indefinite minimum solution")
    add_common(sp)
    sp.set_defaults(fn=_cmd_ims)

    sp = sub.add_parser("imms", help="indefinite min-max solution")
    add_common(sp)
    sp.set_defaults(fn=_cmd_imms)

    sp = sub.add_parser("trace", help="J-trace of an operator")
    add_common(sp)
    sp.add_argument("--op", required=True, help="operator JSON file")
    sp.add_argument("--alt-signature", type=int, default=None,
                    metavar="SEED",
                    help="also evaluate under a seeded alternate signature "
                         "and check the change-of-signature formula")
    sp.set_defaults(fn=_cmd_trace)

    sp = sub.add_parser("trace-min", help="trace minimization")
    add_common(sp)
    sp.add_argument("--seed", type=int, default=0,
                    help="seed of the gradient-check directions")
    sp.add_argument("--sweep", action="store_true",
                    help="cross-check against the sweep oracle (dim <= 4)")
    sp.set_defaults(fn=_cmd_trace_min)

    sp = sub.add_parser("verify", help="run a theorem verification suite")
    sp.add_argument("--suite", required=True, choices=SUITE_NAMES)
    sp.add_argument("--dim", type=int, default=4)
    sp.add_argument("--instances", type=int, default=20)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--cond-bound", type=float, default=10.0)
    sp.add_argument("--report", default=None, help="write full report JSON")
    sp.set_defaults(fn=_cmd_verify)

    sp = sub.add_parser("generate", help="generate a problem instance")
    sp.add_argument("--regime", required=True, choices=REGIMES)
    sp.add_argument("--dim", type=int, required=True)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--cond-bound", type=float, default=10.0)
    sp.add_argument("-o", "--output", default=None)
    sp.set_defaults(fn=_cmd_generate)
    return parser


def _check_flags(args):
    """MalformedInput naming the first numeric flag below its least value."""
    for name, least in (("seed", 0), ("alt_signature", 0), ("instances", 1),
                        ("dim", 2), ("cond_bound", 1.0)):
        value = getattr(args, name, None)
        if value is not None and not value >= least:
            flag = "--" + name.replace("_", "-")
            raise MalformedInput(f"{flag}: must be >= {least}, got {value}")


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_flags(args)
        return args.fn(args)
    except MalformedInput as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        return EXIT_MALFORMED
    except (NormalEquationUnsolvable, MinMaxUnsolvable) as exc:
        payload = {"error": type(exc).__name__, "message": str(exc)}
        if exc.residual is not None:
            payload["residual"] = exc.residual
        print(json.dumps(payload, indent=2))
        return EXIT_VERIFICATION
    except KreinError as exc:
        print(json.dumps({"error": type(exc).__name__,
                          "message": str(exc)}, indent=2))
        return EXIT_VERIFICATION


if __name__ == "__main__":
    sys.exit(main())
