"""Acceptance suite.

Each test drives one acceptance criterion at its stated tolerance and
prints a single pass/fail line (run with ``pytest -v -s`` to see them
inline).  Criteria 2 and 3 share one 100-instance complementable set;
criteria 4 and 5 share one 500-instance mixed-regime set.
"""

import time

import numpy as np
import pytest

from kreinls import (GeneratorSpec, NormalEquationUnsolvable,
                     RangeNotNonnegative, SignatureOperator, WeightedProblem,
                     frechet_derivative, frechet_fd,
                     generate_instance, is_complementable, is_w_nonnegative,
                     js2_signature_identity, krein_adjoint,
                     minimality_certificate, normal_solvable,
                     oracle_parameter_sweep, projection_infimum_check,
                     random_signature_operator, schur_complement, solve_ims,
                     solve_imms, solve_trace_min, solve_trace_minmax,
                     split_b, standard_space, trace_j, verify_saddle,
                     verify_schur_identities)
from kreinls.evidence import scale_of
from kreinls.linalg import opnorm


@pytest.fixture
def report_line(capsys):
    """One pass/fail line per criterion, printed through the capture so it
    shows up in plain ``pytest -v`` output."""
    def _report(num, desc, ok, detail=""):
        line = f"[{'PASS' if ok else 'FAIL'}] criterion {num:2d}: {desc}"
        if detail:
            line += f"  ({detail})"
        with capsys.disabled():
            print(line)
        assert ok, line
    return _report


@pytest.fixture(scope="module")
def complementable_set():
    """100 complementable (W, S) instances, dims 2-8."""
    out = []
    for i in range(100):
        dim = 2 + i % 7
        out.append(generate_instance(
            GeneratorSpec(dim=dim, seed=10_000 + i, regime="complementable")))
    return out


@pytest.fixture(scope="module")
def mixed_set():
    """500 mixed-regime instances, dims 2-8."""
    regimes = ("range_nonnegative", "non_complementable", "range_indefinite",
               "range_nonpositive", "neutral_directions")
    out = []
    for i in range(500):
        dim = 2 + i % 7
        out.append(generate_instance(
            GeneratorSpec(dim=dim, seed=20_000 + i,
                          regime=regimes[i % len(regimes)])))
    return out


def test_criterion_1_trace_example_regression(report_line):
    start = time.perf_counter()
    space = standard_space(1, 1)
    t = np.array([[1.0, 1.0], [0.0, 0.0]], dtype=complex)
    jb = np.array([[5.0, -4.0], [4.0, -5.0]], dtype=complex) / 3.0
    va = trace_j(t, space.j_ref, space).value
    vb = trace_j(t, jb, space).value
    elapsed = time.perf_counter() - start
    ok = abs(va - 1.0) <= 1e-12 and abs(vb - 3.0) <= 1e-12 and elapsed < 1.0
    report_line(1, "signature-dependent traces are 1 and 3", ok,
            f"values {va.real:.1f}/{vb.real:.1f}, {elapsed * 1e3:.1f} ms")


def test_criterion_2_schur_j_independence(report_line, complementable_set):
    start = time.perf_counter()
    worst = 0.0
    for idx, inst in enumerate(complementable_set):
        w, s, space = inst.problem.w, inst.subspace, inst.space
        ref = schur_complement(w, s, space).schur
        wn = opnorm(w)
        for k in range(3):
            alt = random_signature_operator(space, 31_000 + 3 * idx + k)
            other = schur_complement(w, s, space, signature=alt).schur
            worst = max(worst, opnorm(ref - other) / wn)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-8 and elapsed < 30.0
    report_line(2, "Schur complement independent of the signature", ok,
            f"max cross-deviation {worst:.2e}, {elapsed:.1f} s")


def test_criterion_3_shorting_identities(report_line, complementable_set):
    worst = 0.0
    for inst in complementable_set:
        rep = verify_schur_identities(inst.problem.w, inst.subspace,
                                      inst.space, seed=inst.spec.seed)
        worst = max(worst, rep.iterated_plus_minus, rep.iterated_minus_plus,
                    rep.three_term, rep.projection_formula)
    report_line(3, "iterated/three-term/projection identities", worst <= 1e-8,
            f"worst residual {worst:.2e}")


def _conditions(problem):
    s = problem.range_b()
    nonneg = is_w_nonnegative(problem.w, s, problem.space)
    try:
        solve_ims(problem)
        ci = True
    except (RangeNotNonnegative, NormalEquationUnsolvable):
        ci = False
    cii = nonneg and is_complementable(problem.w, s, problem.space)
    ciii = nonneg and normal_solvable(problem)
    return ci, cii, ciii


def test_criterion_4_minimum_theorem_equivalence(report_line, mixed_set):
    disagreements = 0
    worst_value = 0.0
    solvable = 0
    for inst in mixed_set:
        p_eye = WeightedProblem(w=inst.problem.w, b=inst.problem.b,
                                c=np.eye(inst.space.dim, dtype=complex),
                                space=inst.space)
        ci, cii, ciii = _conditions(p_eye)
        if not (ci == cii == ciii):
            disagreements += 1
            continue
        if ci:
            solvable += 1
            sol = solve_ims(inst.problem)
            if sol.schur_value is not None:
                gap = opnorm(sol.extremal_value - sol.schur_value)
                worst_value = max(
                    gap / scale_of(inst.problem.w, inst.problem.c,
                                   sol.extremal_value), worst_value)
    ok = disagreements == 0 and worst_value <= 1e-8
    report_line(4, "three solvability conditions classify identically", ok,
            f"0 disagreements across 500, {solvable} solvable, "
            f"worst value gap {worst_value:.2e}" if ok else
            f"{disagreements} disagreements, worst {worst_value:.2e}")


def test_criterion_5_order_certificates(report_line, mixed_set):
    violations = 0
    worst_floor = 0.0
    n_min = n_saddle = 0
    for idx, inst in enumerate(mixed_set):
        p, space = inst.problem, inst.space
        s = inst.subspace
        if is_w_nonnegative(p.w, s, space) and normal_solvable(p):
            sol = solve_ims(p)
            cert = minimality_certificate(p, sol.x0, n_samples=1000,
                                          seed=40_000 + idx)
            violations += cert.violations
            worst_floor = min(worst_floor, cert.min_floor)
            n_min += 1
        elif inst.spec.regime == "range_indefinite":
            sol = solve_imms(p)
            split = split_b(p)
            rep = verify_saddle(p, split, sol, n_samples=1000,
                                seed=41_000 + idx)
            violations += rep.violations_min_side + rep.violations_max_side
            worst_floor = min(worst_floor, rep.min_floor_min_side,
                              rep.min_floor_max_side)
            n_saddle += 1
    ok = violations == 0 and worst_floor >= -1e-8
    report_line(5, "indefinite-order minimality/saddle certificates", ok,
            f"{n_min} min + {n_saddle} saddle instances x 1000 samples, "
            f"floor {worst_floor:.2e}, {violations} violations")


def test_criterion_6_projection_infimum(report_line):
    worst_eq = 0.0
    worst_floor = 0.0
    violations = 0
    for i in range(20):
        inst = generate_instance(GeneratorSpec(
            dim=2 + i % 7, seed=50_000 + i, regime="range_nonnegative"))
        chk = projection_infimum_check(inst.problem.w, inst.subspace,
                                       inst.space, n_samples=1000,
                                       seed=51_000 + i)
        worst_eq = max(worst_eq, chk.equality_residual)
        worst_floor = min(worst_floor, chk.min_floor)
        violations += chk.violations
    ok = violations == 0 and worst_eq <= 1e-9
    report_line(6, "sampled projections dominate, equality at I - Q", ok,
            f"20 instances x 1000 samples, equality {worst_eq:.2e}, "
            f"floor {worst_floor:.2e}")


def test_criterion_7_frechet_derivative(report_line):
    worst = 0.0
    for i in range(100):
        inst = generate_instance(GeneratorSpec(
            dim=2 + i % 7, seed=60_000 + i, regime="complementable"))
        p = inst.problem
        sig = random_signature_operator(p.space, 61_000 + i)
        rng = np.random.default_rng(62_000 + i)
        for _ in range(10):
            x = rng.standard_normal((p.space.dim,) * 2) \
                + 1j * rng.standard_normal((p.space.dim,) * 2)
            y = rng.standard_normal((p.space.dim,) * 2) \
                + 1j * rng.standard_normal((p.space.dim,) * 2)
            analytic = frechet_derivative(p, sig, x, y)
            numeric = frechet_fd(p, sig, x, y)
            worst = max(worst,
                        abs(analytic - numeric) / max(1.0, abs(analytic)))
    report_line(7, "analytic derivative matches central differences",
            worst <= 1e-6, f"100 instances x 10 directions, worst {worst:.2e}")


def test_criterion_8_trace_optimization_values(report_line):
    start = time.perf_counter()
    worst_closed = 0.0
    worst_sweep = 0.0
    for i in range(60):
        dim = 2 + i % 3                      # sweep oracle needs dim <= 4
        regime = "range_nonnegative" if i % 2 == 0 else "range_indefinite"
        inst = generate_instance(GeneratorSpec(dim=dim, seed=70_000 + i,
                                               regime=regime))
        p = inst.problem
        ref = SignatureOperator.reference(p.space)
        shorted = schur_complement(p.w, inst.subspace, p.space).schur
        closed = float(np.trace(
            ref.entries @ (krein_adjoint(p.c, p.space) @ shorted
                           @ p.c)).real)
        den = max(1.0, abs(closed))
        if regime == "range_nonnegative":
            sol = solve_trace_min(p, ref)
            worst_closed = max(worst_closed, abs(sol.value - closed) / den)
            sweep = oracle_parameter_sweep(p, ref, sense="min", mode="als")
            worst_sweep = max(worst_sweep, abs(sol.value - sweep.value) / den)
        else:
            sol = solve_trace_minmax(p, ref)
            worst_closed = max(worst_closed, abs(sol.value - closed) / den)
            sweep = oracle_parameter_sweep(p, ref, sense="minmax")
            worst_sweep = max(worst_sweep, abs(sol.value - sweep.value) / den)
    elapsed = time.perf_counter() - start
    ok = worst_closed <= 1e-8 and worst_sweep <= 1e-4 and elapsed < 60.0
    report_line(8, "trace optima match closed form and sweep oracle", ok,
            f"closed {worst_closed:.2e}, sweep {worst_sweep:.2e}, "
            f"{elapsed:.1f} s")


def test_criterion_9_js2_identity(report_line):
    worst = 0.0
    for i in range(200):
        dim = 2 + i % 7
        space = standard_space(dim - dim // 2, dim // 2)
        rng = np.random.default_rng(80_000 + i)
        t = rng.standard_normal((dim, dim)) \
            + 1j * rng.standard_normal((dim, dim))
        sig = random_signature_operator(space, 81_000 + i)
        rep = js2_signature_identity(t, sig, space)
        worst = max(worst, rep.residual / max(1.0, abs(rep.lhs),
                                              abs(rep.rhs)))
    report_line(9, "Hilbert-Schmidt signature identity", worst <= 1e-9,
            f"200 pairs, worst residual {worst:.2e}")


def test_criterion_10_negative_paths(report_line):
    false_accepts = 0
    wrong_error = 0
    for i in range(50):
        inst = generate_instance(GeneratorSpec(
            dim=2 + i % 7, seed=90_000 + i, regime="non_complementable"))
        p = WeightedProblem(w=inst.problem.w, b=inst.problem.b,
                            c=np.eye(inst.space.dim, dtype=complex),
                            space=inst.space)
        try:
            solve_ims(p)
            false_accepts += 1
        except NormalEquationUnsolvable:
            pass
        except RangeNotNonnegative:
            wrong_error += 1
    for i in range(50):
        regime = "range_nonpositive" if i % 2 == 0 else "range_indefinite"
        inst = generate_instance(GeneratorSpec(
            dim=2 + i % 7, seed=91_000 + i, regime=regime))
        try:
            solve_ims(inst.problem)
            false_accepts += 1
        except RangeNotNonnegative:
            pass
        except NormalEquationUnsolvable:
            wrong_error += 1
    ok = false_accepts == 0 and wrong_error == 0
    report_line(10, "rejections carry the theorem-named error", ok,
            f"100 instances, {false_accepts} false accepts, "
            f"{wrong_error} wrong error types")
