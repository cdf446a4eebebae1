"""The harness's sampled evidence: where it may be imported from, and the
arguments it accepts."""

import ast
from pathlib import Path

import pytest

import kreinls
from kreinls import (SUITE_NAMES, GeneratorSpec, MalformedInput,
                     SignatureOperator, evidence, generate_instance,
                     oracle_parameter_sweep, oracle_projection_infimum,
                     run_suite, solve_imms, solve_trace_minmax, split_b)

SOLVERS = ("core", "linalg", "subspaces", "schur", "lsq", "jtrace")
HARNESS = {"evidence", "suites", "oracles", "generate"}


def kreinls_imports(module):
    """(kreinls module, imported name or None) for every import of a
    kreinls module in ``kreinls/<module>.py``, function-level ones
    included."""
    path = Path(kreinls.__file__).with_name(f"{module}.py")
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            base = ("kreinls." * bool(node.level) + (node.module or "")) \
                .rstrip(".")
            for alias in node.names:
                if base == "kreinls":
                    yield alias.name, None
                elif base.startswith("kreinls."):
                    yield base.split(".")[1], alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "kreinls" and len(parts) > 1:
                    yield parts[1], None


@pytest.mark.parametrize("module", SOLVERS)
def test_solver_modules_do_not_import_the_harness(module):
    imported = {m for m, _ in kreinls_imports(module)}
    assert "errors" in imported        # the walk sees this module's imports
    assert not imported & HARNESS


@pytest.mark.parametrize("module", ("suites", "oracles"))
def test_harness_imports_no_private_name(module):
    names = list(kreinls_imports(module))
    assert names
    assert [(m, n) for m, n in names if n and n.startswith("_")] == []


@pytest.fixture(scope="module")
def case():
    inst = generate_instance(GeneratorSpec(dim=4, seed=0,
                                           regime="range_nonnegative"))
    p = inst.problem
    ref = SignatureOperator.reference(p.space)
    return dict(p=p, s=inst.subspace, ref=ref, z=solve_imms(p).z,
                split=split_b(p), trace=solve_trace_minmax(p, ref))


CHECKS = {
    "minimality_certificate": lambda c, n, sense:
        evidence.minimality_certificate(c["p"], c["z"], n, 0, sense),
    "scalar_floor_certificate": lambda c, n, sense:
        evidence.scalar_floor_certificate(c["p"], c["ref"], c["z"], n, 0,
                                          sense),
    "verify_saddle": lambda c, n, sense:
        evidence.verify_saddle(c["p"], c["split"], c["z"], n, 0),
    "trace_saddle_floors": lambda c, n, sense:
        evidence.trace_saddle_floors(c["p"], c["ref"], c["trace"], n, 0),
    "projection_infimum_check": lambda c, n, sense:
        evidence.projection_infimum_check(c["p"].w, c["s"], c["p"].space, n,
                                          0),
    **{f"run_suite:{name}": lambda c, n, sense, name=name:
       run_suite(name, count=1, samples=n) for name in SUITE_NAMES},
    "oracle_projection_infimum": lambda c, n, sense:
        oracle_projection_infimum(c["p"].w, c["s"], c["p"].space, n, 0),
    "oracle_projection_infimum:canonical": lambda c, n, sense:
        oracle_projection_infimum(c["p"].w, c["s"], c["p"].space, n, 0,
                                  include_canonical=True),
    "run_suite:count": lambda c, n, sense: run_suite("js2", count=n),
    "run_suite:seed": lambda c, n, sense: run_suite("js2", count=1, seed=n),
    "oracle_parameter_sweep": lambda c, n, sense:
        oracle_parameter_sweep(c["p"], sense=sense),
    "oracle_parameter_sweep:mode": lambda c, n, sense:
        oracle_parameter_sweep(c["p"], mode=sense),
}
SENSE_NAME = {"minimality_certificate": "sense",
              "scalar_floor_certificate": "sense",
              "oracle_parameter_sweep": "sense",
              "oracle_parameter_sweep:mode": "mode"}
COUNT_NAME = {"oracle_projection_infimum": "n",
              "oracle_projection_infimum:canonical": "n",
              "run_suite:count": "count", "run_suite:seed": "seed"}
NO_COUNT = ("oracle_parameter_sweep", "oracle_parameter_sweep:mode")
ZERO_ACCEPTED = ("oracle_projection_infimum:canonical", "run_suite:seed")
BAD = [(n, "min", "samples") for n in (0, -1, 2.5, True)] \
    + [(8, "maximum", "sense")]


@pytest.mark.parametrize("check,n,sense,argument", [
    (check, n, sense, argument) for check in CHECKS
    for n, sense, argument in BAD
    if (check in SENSE_NAME if argument == "sense" else check not in NO_COUNT)
    and not (n == 0 and check in ZERO_ACCEPTED)])
def test_bad_sample_count_or_sense_is_malformed_input(case, check, n, sense,
                                                      argument):
    """A count below 1 (or not an integer, or a bool), a sense other than
    "min" or "max" (or "minmax" for the sweep oracle) or an unknown sweep
    mode raises MalformedInput naming the argument, where it used to end
    in a NumPy error, a TypeError, or a silent minimum check.  With the
    canonical sample, the projection oracle accepts n = 0, and a suite
    accepts seed 0."""
    if argument == "samples":
        argument = COUNT_NAME.get(check, "samples" if check.startswith(
            "run_suite") else "n_samples")
    else:
        argument = SENSE_NAME[check]
    with pytest.raises(MalformedInput, match=f"^{argument} must be"):
        CHECKS[check](case, n, sense)
