"""Theorem verification suites.

Each suite generates seeded instances, runs the checks tied to one group
of results, and aggregates pass/fail tallies with worst-case residuals.
Reports are deterministic given (suite, dim, count, seed, cond_bound) and
replayable from the recorded instance seeds.
"""

import time
from dataclasses import dataclass, field

import numpy as np

from .core import (SignatureOperator, krein_adjoint, krein_sandwich,
                   random_signature_operator, standard_space)
from .errors import (NormalEquationUnsolvable, RangeNotNonnegative,
                     RangeNotNonpositive, UnknownSuite)
from .generate import GeneratorSpec, generate_instance
from .jtrace import (_scalar_floor_certificate, change_of_signature,
                     frechet_derivative, frechet_fd, js2_inner,
                     js2_signature_identity, solve_trace_min,
                     solve_trace_minmax, trace_j, trace_objective_xy,
                     verify_trace_laws)
from .linalg import crand, min_eig_herm, opnorm, scale_of, trace_product
from .lsq import (WeightedProblem, _saddle_sides, eval_f, eval_fj,
                  minimality_certificate, neutral_shift, normal_residual,
                  normal_solvable, solve_ims, solve_ims_max, solve_imms,
                  solve_wils_vector, split_b, verify_saddle)
from .oracles import (minmax_order_gap, oracle_parameter_sweep,
                      oracle_projection_infimum, oracle_sum_dimension)
from .schur import (is_weakly_complementable, projection_infimum_check,
                    schur_complement, verify_schur_identities)
from .subspaces import is_complementable, is_w_nonnegative

IDENTITY_RTOL = 1e-8
EQUALITY_RTOL = 1e-9
FLOOR_TOL = 1e-8
FD_RTOL = 1e-6
SWEEP_ATOL = 1e-4


@dataclass
class CheckTally:
    passed: int = 0
    failed: int = 0
    worst: float = 0.0
    tol: float = 0.0

    def to_dict(self):
        return {"passed": self.passed, "failed": self.failed,
                "worst_residual": self.worst, "tolerance": self.tol}


@dataclass
class VerifyReport:
    suite: str
    dim: int
    count: int
    seed: int
    cond_bound: float
    instance_seeds: list = field(default_factory=list)
    checks: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)
    elapsed: float = 0.0

    def record(self, name, residual, tol):
        """Record one residual-style check (pass iff residual <= tol)."""
        tally = self.checks.setdefault(name, CheckTally(tol=tol))
        residual = float(residual)
        tally.worst = max(tally.worst, residual)
        if residual <= tol:
            tally.passed += 1
        else:
            tally.failed += 1
            self.failures.append(f"{name}: residual {residual:.3e} > {tol:.1e}")

    def record_floor(self, name, floor, tol):
        """Record an order-certificate floor (pass iff floor >= -tol)."""
        self.record(name, max(0.0, -float(floor)), tol)

    def record_bool(self, name, ok, detail=""):
        tally = self.checks.setdefault(name, CheckTally(tol=0.0))
        if ok:
            tally.passed += 1
        else:
            tally.failed += 1
            tally.worst = 1.0
            self.failures.append(f"{name}: {detail or 'check failed'}")

    def ok(self):
        return all(t.failed == 0 for t in self.checks.values())

    def total_checks(self):
        return sum(t.passed + t.failed for t in self.checks.values())

    def to_dict(self):
        return {
            "suite": self.suite,
            "dim": self.dim,
            "instances": self.count,
            "seed": self.seed,
            "cond_bound": self.cond_bound,
            "instance_seeds": [int(s) for s in self.instance_seeds],
            "passed": self.ok(),
            "checks": {k: v.to_dict() for k, v in sorted(self.checks.items())},
            "failures": self.failures,
            "elapsed_seconds": self.elapsed,
        }


def _instances(report, regimes, spec, count, dim, seed, cond_bound):
    """Yield generated instances, honoring an explicit GeneratorSpec's
    regime or rotating through the suite's default regimes."""
    rng = np.random.default_rng(seed)
    seeds = rng.integers(0, 2**31 - 1, size=count)
    report.instance_seeds = list(map(int, seeds))
    for i in range(count):
        regime = spec.regime if spec is not None else regimes[i % len(regimes)]
        gspec = GeneratorSpec(dim=dim, seed=int(seeds[i]), regime=regime,
                              cond_bound=cond_bound)
        yield generate_instance(gspec)


def _suite_schur(report, spec, count, dim, seed, cond_bound, samples):
    regimes = ("complementable", "range_nonnegative", "range_indefinite",
               "neutral_directions")
    for inst in _instances(report, regimes, spec, count, dim, seed,
                           cond_bound):
        w, s, space = inst.problem.w, inst.subspace, inst.space
        wn = max(1e-300, opnorm(w))
        idr = verify_schur_identities(w, s, space, seed=inst.spec.seed)
        for name, value in idr.residuals().items():
            report.record(f"identity_{name}", value, IDENTITY_RTOL)

        ref = schur_complement(w, s, space).schur
        worst = 0.0
        for k in range(3):
            alt = random_signature_operator(space, inst.spec.seed + 1000 + k)
            alt_schur = schur_complement(w, s, space, signature=alt).schur
            worst = max(worst, opnorm(ref - alt_schur) / wn)
        report.record("j_independence", worst, IDENTITY_RTOL)

        # the library's range test against the oracle's dimension count
        agree = is_weakly_complementable(w, s, space) == \
            (oracle_sum_dimension(inst.problem, s) == space.dim)
        report.record_bool("weak_vs_full_agreement", agree)


def _suite_infimum(report, spec, count, dim, seed, cond_bound, samples):
    regimes = ("range_nonnegative", "neutral_directions")
    for inst in _instances(report, regimes, spec, count, dim, seed,
                           cond_bound):
        w, s, space = inst.problem.w, inst.subspace, inst.space
        chk = projection_infimum_check(w, s, space, n_samples=samples,
                                       seed=inst.spec.seed)
        report.record_floor("sampled_lower_bound", chk.min_floor, FLOOR_TOL)
        report.record_bool("no_floor_violations", chk.violations == 0)
        report.record("equality_at_canonical", chk.equality_residual,
                      EQUALITY_RTOL)

        schur = schur_complement(w, s, space).schur
        oracle = oracle_projection_infimum(w, s, space, n=samples,
                                           seed=inst.spec.seed + 1)
        gap = oracle.envelope - schur
        report.record_floor("oracle_envelope_dominates",
                            min_eig_herm(space.j_ref @ gap) / scale_of(gap, w),
                            FLOOR_TOL)
        hist = oracle.trace_history
        monotone = all(b <= a + 1e-12 for a, b in zip(hist, hist[1:]))
        report.record_bool("oracle_gap_monotone", monotone)

        exact = oracle_projection_infimum(w, s, space, n=4,
                                          seed=inst.spec.seed + 2,
                                          include_canonical=True)
        report.record("oracle_canonical_equality",
                      abs(exact.trace_history[-1]
                          - float(trace_product(space.j_ref, schur).real))
                      / scale_of(w), EQUALITY_RTOL)


def _theorem_conditions(problem, rank_tol=None):
    """The three equivalent solvability conditions for C = I."""
    s = problem.range_b(rank_tol)
    nonneg = is_w_nonnegative(problem.w, s, problem.space)
    try:
        solve_ims(problem)
        cond_i = True
    except (RangeNotNonnegative, NormalEquationUnsolvable):
        cond_i = False
    cond_ii = nonneg and is_complementable(problem.w, s, problem.space)
    cond_iii = nonneg and normal_solvable(problem, rank_tol)
    return cond_i, cond_ii, cond_iii


def _suite_minimum(report, spec, count, dim, seed, cond_bound, samples):
    regimes = ("range_nonnegative", "non_complementable", "range_indefinite",
               "range_nonpositive")
    for inst in _instances(report, regimes, spec, count, dim, seed,
                           cond_bound):
        space = inst.space
        p_eye = WeightedProblem(w=inst.problem.w,
                                b=inst.problem.b,
                                c=np.eye(space.dim, dtype=complex),
                                space=space)
        ci, cii, ciii = _theorem_conditions(p_eye)
        report.record_bool("conditions_agree", ci == cii == ciii,
                           f"i={ci} ii={cii} iii={ciii}")

        regime = inst.spec.regime
        if regime == "non_complementable":
            try:
                solve_ims(p_eye)
                report.record_bool("rejects_non_complementable", False,
                                   "accepted a non-complementable instance")
            except NormalEquationUnsolvable:
                report.record_bool("rejects_non_complementable", True)
            except RangeNotNonnegative:
                report.record_bool("rejects_non_complementable", False,
                                   "wrong rejection reason")
        elif regime in ("range_nonpositive", "range_indefinite"):
            try:
                solve_ims(inst.problem)
                report.record_bool("rejects_wrong_sign", False,
                                   "accepted a wrong-signed range")
            except RangeNotNonnegative:
                report.record_bool("rejects_wrong_sign", True)

        if regime == "range_nonpositive":
            sol = solve_ims_max(inst.problem)
            report.record("max_value_identity",
                          opnorm(sol.extremal_value - sol.schur_value)
                          / scale_of(inst.problem.w, inst.problem.c),
                          IDENTITY_RTOL)
            cert = minimality_certificate(inst.problem, sol.x0, samples,
                                          inst.spec.seed, "max")
            report.record_floor("max_order_certificate", cert.min_floor,
                                FLOOR_TOL)
            try:
                solve_ims_max(_flip_problem(inst.problem))
                report.record_bool("max_rejects_wrong_sign", False,
                                   "accepted a wrong-signed range")
            except RangeNotNonpositive:
                report.record_bool("max_rejects_wrong_sign", True)

        if ci:
            sol = solve_ims(inst.problem)
            report.record("min_value_identity",
                          opnorm(sol.extremal_value - sol.schur_value)
                          / scale_of(inst.problem.w, inst.problem.c),
                          IDENTITY_RTOL)
            report.record("normal_residual", sol.normal_residual,
                          space.tol * scale_of(inst.problem.w,
                                               inst.problem.b))
            cert = minimality_certificate(inst.problem, sol.x0, samples,
                                          inst.spec.seed)
            report.record_floor("min_order_certificate", cert.min_floor,
                                FLOOR_TOL)

            rng = np.random.default_rng(inst.spec.seed)
            y = crand(rng, space.dim)
            z = solve_wils_vector(inst.problem, y)
            bw = krein_adjoint(inst.problem.b, space) @ inst.problem.w
            resid = np.linalg.norm(bw @ (inst.problem.b @ z - y))
            report.record("wils_normal_residual", resid,
                          space.tol * scale_of(inst.problem.w,
                                               inst.problem.b))
            xy = sol.x0 @ y
            resid_x = np.linalg.norm(
                bw @ (inst.problem.b @ xy - inst.problem.c @ y))
            report.record("operator_solution_is_pointwise", resid_x,
                          space.tol * scale_of(inst.problem.w,
                                               inst.problem.b,
                                               inst.problem.c))


def _flip_problem(p):
    """Negate the weight so a W-nonpositive range becomes W-nonnegative;
    used to drive the mirror rejection path."""
    return WeightedProblem(w=-p.w, b=p.b, c=p.c, space=p.space)


def _suite_minmax(report, spec, count, dim, seed, cond_bound, samples):
    regimes = ("range_indefinite", "neutral_directions", "complementable")
    for inst in _instances(report, regimes, spec, count, dim, seed,
                           cond_bound):
        p, space = inst.problem, inst.space
        split = split_b(p)
        for name, value in split.defects(p).items():
            report.record(f"split_{name}", value,
                          FLOOR_TOL * scale_of(p.w, p.b))

        rng = np.random.default_rng(inst.spec.seed)
        x = crand(rng, space.dim, space.dim)
        diag_gap = opnorm(eval_fj(p, split, x, x) - eval_f(p, x))
        report.record("fj_diagonal_identity", diag_gap,
                      space.tol * scale_of(p.w, p.b, p.c, x))

        sol = solve_imms(p)
        report.record("minmax_value_identity",
                      opnorm(sol.minmax_value - sol.schur_value)
                      / scale_of(p.w, p.c), IDENTITY_RTOL)
        saddle = verify_saddle(p, split, sol, n_samples=samples,
                               seed=inst.spec.seed)
        report.record_floor("saddle_min_side", saddle.min_floor_min_side,
                            FLOOR_TOL)
        report.record_floor("saddle_max_side", saddle.min_floor_max_side,
                            FLOOR_TOL)

        alt = random_signature_operator(space, inst.spec.seed + 7)
        alt_split = split_b(p, alt)
        alt_saddle = verify_saddle(p, alt_split, sol, n_samples=samples,
                                   seed=inst.spec.seed + 8)
        report.record_bool("solution_j_independent", alt_saddle.passed,
                           "solution failed the alternate-split saddle")

        z2 = neutral_shift(p, inst.spec.seed + 9)
        if opnorm(z2) > 0:
            bz2 = p.b @ z2
            neutral = opnorm(krein_sandwich(bz2, p.w, space))
            report.record("z2_neutrality", neutral,
                          space.tol * scale_of(p.w, bz2))
            shifted = sol.z + z2
            report.record("shifted_normal_residual",
                          normal_residual(p, shifted),
                          space.tol * scale_of(p.w, p.b, p.c, shifted))
            shift_saddle = verify_saddle(p, split, shifted,
                                         n_samples=samples,
                                         seed=inst.spec.seed + 10)
            report.record_bool("shifted_solution_accepted",
                               shift_saddle.passed,
                               "Z1 + neutral Z2 failed the saddle check")

        if split.b_plus.any():
            bad = sol.z + 0.35 * np.eye(space.dim)
            if normal_residual(p, bad) > 1e-6 * scale_of(p.w, p.b):
                bad_saddle = verify_saddle(p, split, bad, n_samples=samples,
                                           seed=inst.spec.seed + 11)
                report.record_bool("perturbation_detected",
                                   not bad_saddle.passed,
                                   "perturbed candidate passed the saddle")

        if dim <= 4:
            ref = SignatureOperator.reference(space)
            closed = float(trace_product(ref.entries, sol.schur_value).real)
            v_xy, v_yx = minmax_order_gap(p, ref, split)
            report.record("order_exchange_gap", abs(v_xy - v_yx)
                          / max(1.0, abs(closed)), IDENTITY_RTOL)
            report.record("sweep_matches_closed_form",
                          abs(v_xy - closed) / max(1.0, abs(closed)),
                          SWEEP_ATOL)


def _trace_dependence_example():
    """Fixed 2x2 regression: the same operator traces to 1 under the
    diagonal signature and to 3 under the tilted one."""
    space = standard_space(1, 1)
    t = np.array([[1.0, 1.0], [0.0, 0.0]], dtype=complex)
    jb = np.array([[5.0, -4.0], [4.0, -5.0]], dtype=complex) / 3.0
    va = trace_j(t, space.j_ref, space).value
    vb = trace_j(t, jb, space).value
    return va, vb


def _suite_trace_laws(report, spec, count, dim, seed, cond_bound, samples):
    va, vb = _trace_dependence_example()
    report.record("signature_dependence_example",
                  max(abs(va - 1.0), abs(vb - 3.0)), 1e-12)

    regimes = ("complementable", "range_indefinite")
    for inst in _instances(report, regimes, spec, count, dim, seed,
                           cond_bound):
        p, space = inst.problem, inst.space
        rng = np.random.default_rng(inst.spec.seed)
        s_op = crand(rng, space.dim, space.dim)
        alpha, beta = complex(*rng.standard_normal(2)), \
            complex(*rng.standard_normal(2))
        sig = random_signature_operator(space, inst.spec.seed + 3)
        laws = verify_trace_laws(s_op, p.w, alpha, beta, sig, space,
                                 seed=inst.spec.seed)
        for name, value in laws.residuals().items():
            report.record(f"law_{name}", value, space.tol)

        sig_b = random_signature_operator(space, inst.spec.seed + 4)
        chg = change_of_signature(p.w, sig, sig_b, space)
        report.record("change_of_signature",
                      chg.residual / max(1.0, abs(chg.lhs)), space.tol)

        for k in range(10):
            x = crand(rng, space.dim, space.dim)
            y = crand(rng, space.dim, space.dim)
            analytic = frechet_derivative(p, sig, x, y)
            numeric = frechet_fd(p, sig, x, y, scheme="central")
            denom = max(1.0, abs(analytic), abs(numeric))
            report.record("frechet_vs_central_fd",
                          abs(analytic - numeric) / denom, FD_RTOL)


def _trace_saddle_floors(p, sig, sol, n_samples, seed):
    """Sampled trace saddle floors around a trace min-max solution:
    tr_J(F_J(X_i, Z)) - f_J(Z, Z) and f_J(Z, Z) - tr_J(F_J(Z, Y_i)) over
    sampled X and Y, relative to max(1, |f_J(Z, Z)|), under the solution's
    own split along ``sig``."""
    base = trace_objective_xy(p, sol.split, sig, sol.z, sol.z)
    scale = max(1.0, abs(base))
    sides = _saddle_sides(p, sol.split, sol.z, n_samples, seed)
    traces = lambda stack: trace_product(sig.entries, stack).real
    min_floor = ((traces(next(sides)) - base) / scale).min()
    max_floor = ((base - traces(next(sides))) / scale).min()
    return float(min_floor), float(max_floor)


def _suite_trace_opt(report, spec, count, dim, seed, cond_bound, samples):
    regimes = ("range_nonnegative", "range_indefinite", "neutral_directions")
    for inst in _instances(report, regimes, spec, count, dim, seed,
                           cond_bound):
        p, space = inst.problem, inst.space
        ref = SignatureOperator.reference(space)
        s = inst.subspace
        shorted = schur_complement(p.w, s, space).schur
        closed_matrix = krein_sandwich(p.c, shorted, space)
        closed = float(trace_product(ref.entries, closed_matrix).real)
        den = max(1.0, abs(closed))

        if is_w_nonnegative(p.w, s, space):
            sol = solve_trace_min(p, ref, seed=inst.spec.seed)
            report.record("trace_min_closed_form",
                          abs(sol.value - closed) / den, IDENTITY_RTOL)
            cert = _scalar_floor_certificate(p, ref, sol.x0, samples,
                                             inst.spec.seed)
            report.record_floor("trace_min_certificate", cert.min_floor,
                                FLOOR_TOL)
            report.record("trace_min_gradient", sol.gradient_certificate,
                          space.tol * scale_of(p.w, p.b, p.c) * 100)
            if dim <= 4:
                sweep = oracle_parameter_sweep(p, ref, sense="min",
                                               mode="als")
                report.record("trace_min_vs_sweep",
                              abs(sol.value - sweep.value) / den, SWEEP_ATOL)

        sol_mm = solve_trace_minmax(p, ref)
        report.record("trace_minmax_closed_form",
                      abs(sol_mm.value - closed) / den, IDENTITY_RTOL)
        min_floor, max_floor = _trace_saddle_floors(p, ref, sol_mm, samples,
                                                    inst.spec.seed)
        report.record_floor("trace_minmax_min_floor", min_floor, FLOOR_TOL)
        report.record_floor("trace_minmax_max_floor", max_floor, FLOOR_TOL)
        if dim <= 4:
            sweep = oracle_parameter_sweep(p, ref, sense="minmax")
            report.record("trace_minmax_vs_sweep",
                          abs(sol_mm.value - sweep.value) / den, SWEEP_ATOL)

        alt = random_signature_operator(space, inst.spec.seed + 5)
        sol_alt = solve_trace_minmax(p, alt)
        min_floor, max_floor = _trace_saddle_floors(p, alt, sol_alt, samples,
                                                    inst.spec.seed)
        report.record_floor("alt_signature_min_floor", min_floor, FLOOR_TOL)
        report.record_floor("alt_signature_max_floor", max_floor, FLOOR_TOL)
        chg = change_of_signature(closed_matrix, ref, alt, space)
        report.record("value_change_formula",
                      abs(sol_alt.value - chg.rhs.real)
                      / max(1.0, abs(sol_alt.value)), IDENTITY_RTOL)


def _suite_js2(report, spec, count, dim, seed, cond_bound, samples):
    regimes = ("complementable", "range_indefinite")
    for inst in _instances(report, regimes, spec, count, dim, seed,
                           cond_bound):
        space = inst.space
        rng = np.random.default_rng(inst.spec.seed)
        sig = random_signature_operator(space, inst.spec.seed + 6)
        for t in (inst.problem.w, inst.problem.b,
                  crand(rng, space.dim, space.dim)):
            idr = js2_signature_identity(t, sig, space)
            report.record("js2_identity",
                          idr.residual / scale_of(t) ** 2, EQUALITY_RTOL)

        s_op = crand(rng, space.dim, space.dim)
        t_op = crand(rng, space.dim, space.dim)
        sym = abs(js2_inner(s_op, t_op, sig, space)
                  - np.conj(js2_inner(t_op, s_op, sig, space)))
        report.record("js2_hermitian_symmetry",
                      sym / (scale_of(s_op) * scale_of(t_op)), space.tol)
        alpha = complex(*np.random.default_rng(inst.spec.seed + 1)
                        .standard_normal(2))
        lin = abs(js2_inner(alpha * s_op, t_op, sig, space)
                  - alpha * js2_inner(s_op, t_op, sig, space))
        report.record("js2_linearity",
                      lin / (abs(alpha) * scale_of(s_op) * scale_of(t_op)),
                      space.tol)


_SUITES = {
    "schur-identities": (_suite_schur, 100),
    "prop-infimum": (_suite_infimum, 100),
    "thm-minimum": (_suite_minimum, 64),
    "minmax": (_suite_minmax, 64),
    "jtrace-laws": (_suite_trace_laws, 64),
    "trace-optimization": (_suite_trace_opt, 64),
    "js2": (_suite_js2, 64),
}

SUITE_NAMES = tuple(_SUITES)


def run_suite(name, spec=None, count=20, dim=4, seed=0, cond_bound=10.0,
              samples=None):
    """Run one verification suite and return its report.

    When ``spec`` (a GeneratorSpec) is given, every instance uses its
    regime and conditioning; otherwise the suite rotates through its own
    default regimes.
    """
    if name not in _SUITES:
        raise UnknownSuite(
            f"unknown suite {name!r}; available: {', '.join(_SUITES)}")
    fn, default_samples = _SUITES[name]
    if spec is not None:
        dim = spec.dim
        seed = spec.seed
        cond_bound = spec.cond_bound
    report = VerifyReport(suite=name, dim=dim, count=count, seed=seed,
                          cond_bound=cond_bound)
    start = time.perf_counter()
    fn(report, spec, count, dim, seed, cond_bound,
       samples if samples is not None else default_samples)
    report.elapsed = time.perf_counter() - start
    return report
