"""Weighted solvers: objective, normal equation, min/max, split, min-max,
saddle certificates."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import crandn, regime_problems
from kreinls import (REGIMES, GeneratorSpec, KreinError, MinMaxUnsolvable,
                     NormalEquationUnsolvable, OperandOverflow,
                     RangeNotNonnegative,
                     RangeNotNonpositive, SignatureOperator, WeightedProblem,
                     eval_f, eval_fj, generate_instance, is_krein_selfadjoint,
                     is_w_nonnegative, krein_adjoint, minimality_certificate,
                     neutral_shift, normal_residual, normal_solvable,
                     solve_ims, solve_ims_max, solve_imms, solve_normal,
                     solve_wils_vector, split_b, verify_saddle,
                     wils_objective)
from kreinls.core import krein_sandwich
from kreinls.evidence import fj_stack
from kreinls.linalg import min_eig_herm, opnorm
from kreinls.lsq import (OPERAND_LIMIT, _exact_certificate, _factor,
                         _normal_solve)


def min2x2(space2):
    return WeightedProblem(w=np.eye(2), b=np.diag([1.0, 0.0]),
                           c=np.eye(2), space=space2)


def noncomp2x2(space2):
    w = np.array([[0.0, 1.0], [-1.0, 0.0]])
    return WeightedProblem(w=w, b=np.diag([1.0, 0.0]), c=np.eye(2),
                           space=space2)


def test_eval_f_examples(space2):
    p = min2x2(space2)
    # BX = C is unreachable here, so use B = I for the zero case
    pid = WeightedProblem(w=np.eye(2), b=np.eye(2), c=np.eye(2),
                          space=space2)
    assert_allclose(eval_f(pid, np.eye(2)), np.zeros((2, 2)), atol=1e-14)

    pz = WeightedProblem(w=np.eye(2), b=np.zeros((2, 2)), c=np.eye(2),
                         space=space2)
    cwc = krein_adjoint(np.eye(2), space2) @ np.eye(2)
    rng = np.random.default_rng(0)
    for _ in range(5):
        x = crandn(rng, 2, 2)
        assert_allclose(eval_f(pz, x), cwc, atol=1e-14)

    # hand block evaluation
    assert_allclose(eval_f(p, np.diag([1.0, 0.0])), np.diag([0.0, 1.0]),
                    atol=1e-14)
    assert is_krein_selfadjoint(eval_f(p, crandn(rng, 2, 2)), space2)


def test_solve_normal_examples(space2):
    rng = np.random.default_rng(1)
    b = crandn(rng, 2, 2) + 3 * np.eye(2)
    w = space2.j_ref @ (lambda h: 0.5 * (h + h.conj().T))(crandn(rng, 2, 2))
    w += 3 * space2.j_ref                     # invertible selfadjoint
    c = crandn(rng, 2, 2)
    p = WeightedProblem(w=w, b=b, c=c, space=space2)
    x0 = solve_normal(p)
    assert_allclose(x0, np.linalg.solve(b, c), atol=1e-9)
    assert normal_residual(p, x0) < 1e-10 * opnorm(w) * opnorm(b) ** 2

    x0 = solve_normal(min2x2(space2))
    assert_allclose(x0, np.diag([1.0, 0.0]), atol=1e-12)

    with pytest.raises(NormalEquationUnsolvable) as exc:
        solve_normal(noncomp2x2(space2))
    assert exc.value.residual == pytest.approx(1.0, rel=1e-6)


def test_solve_ims_canonical(space2):
    sol = solve_ims(min2x2(space2))
    assert_allclose(sol.x0, np.diag([1.0, 0.0]), atol=1e-12)
    assert_allclose(sol.extremal_value, np.diag([0.0, 1.0]), atol=1e-12)
    assert_allclose(sol.schur_value, np.diag([0.0, 1.0]), atol=1e-12)
    assert sol.certificate.passed
    assert minimality_certificate(min2x2(space2), sol.x0, 300, 2).passed
    # independent 2-parameter sweep: J(F(X) - F(X0)) is PSD everywhere
    b = np.diag([1.0, 0.0])
    grid = np.linspace(-2.0, 2.0, 7)
    for x1 in grid:
        for x2 in grid:
            x = np.array([[x1, x2], [0.0, 0.0]], dtype=complex)
            gap = space2.j_ref @ (eval_f(min2x2(space2), x)
                                  - sol.extremal_value)
            assert min_eig_herm(gap) >= -1e-12


def test_solve_ims_rejections(space2):
    bad = WeightedProblem(w=np.eye(2), b=np.diag([0.0, 1.0]), c=np.eye(2),
                          space=space2)
    with pytest.raises(RangeNotNonnegative):
        solve_ims(bad)
    with pytest.raises(NormalEquationUnsolvable):
        solve_ims(noncomp2x2(space2))


def test_solve_ims_invertible_b(space2):
    rng = np.random.default_rng(3)
    b = crandn(rng, 2, 2) + 3 * np.eye(2)
    p = WeightedProblem(w=space2.j_ref, b=b, c=crandn(rng, 2, 2),
                        space=space2)                 # W = J is positive
    sol = solve_ims(p)
    assert minimality_certificate(p, sol.x0, 100, 0).passed
    assert opnorm(sol.extremal_value) < 1e-9
    assert_allclose(sol.x0, np.linalg.solve(b, p.c), atol=1e-9)


def test_solve_ims_max_mirror(space2):
    p = WeightedProblem(w=np.eye(2), b=np.diag([0.0, 1.0]), c=np.eye(2),
                        space=space2)
    sol = solve_ims_max(p)
    assert_allclose(sol.schur_value, np.diag([1.0, 0.0]), atol=1e-12)
    assert_allclose(sol.extremal_value, np.diag([1.0, 0.0]), atol=1e-12)
    assert sol.certificate.passed
    assert minimality_certificate(p, sol.x0, 300, 4, "max").passed

    with pytest.raises(RangeNotNonpositive):
        solve_ims_max(min2x2(space2))
    # invertible B with W indefinite on H can never have nonpositive range
    rng = np.random.default_rng(5)
    binv = crandn(rng, 2, 2) + 3 * np.eye(2)
    with pytest.raises(RangeNotNonpositive):
        solve_ims_max(WeightedProblem(w=np.eye(2), b=binv, c=np.eye(2),
                                      space=space2))


def test_wils_vector(space2):
    p = min2x2(space2)
    # y in R(B): exact solve, objective 0
    z = solve_wils_vector(p, np.array([1.0, 0.0]))
    assert abs(wils_objective(p, z, np.array([1.0, 0.0]))) < 1e-12
    # the derived case: minimize |z1|^2 - 1 over z
    z = solve_wils_vector(p, np.array([0.0, 1.0]))
    assert_allclose(z, np.zeros(2), atol=1e-12)
    assert wils_objective(p, z, np.array([0.0, 1.0])).real \
        == pytest.approx(-1.0)
    # brute scalar check that -1 really is the minimum
    for z1 in np.linspace(-2, 2, 41):
        cand = np.array([z1, 0.4])
        assert wils_objective(p, cand, np.array([0.0, 1.0])).real \
            >= -1.0 - 1e-12
    assert_allclose(solve_wils_vector(p, np.zeros(2)), np.zeros(2),
                    atol=1e-12)


def test_wils_consistency_with_operator_solution():
    inst = generate_instance(GeneratorSpec(dim=5, seed=31,
                                           regime="range_nonnegative"))
    p = inst.problem
    sol = solve_ims(p)
    rng = np.random.default_rng(8)
    for _ in range(10):
        y = crandn(rng, 5)
        xy = sol.x0 @ y
        resid = np.linalg.norm(
            krein_adjoint(p.b, p.space) @ p.w @ (p.b @ xy - p.c @ y))
        assert resid < 1e-9 * max(1.0, opnorm(p.w) * opnorm(p.b))


def test_split_b_examples(space2):
    ref = SignatureOperator.reference(space2)
    # R(B) W-nonnegative: everything lands in the plus part
    p = min2x2(space2)
    sp = split_b(p, ref)
    assert_allclose(sp.b_plus, p.b, atol=1e-12)
    assert_allclose(sp.b_minus, np.zeros((2, 2)), atol=1e-12)

    p = WeightedProblem(w=space2.j_ref, b=np.eye(2), c=np.eye(2),
                        space=space2)
    # W = J: split of the full range along the eigenspaces of J... J W = I
    # is positive, so again everything is plus
    sp = split_b(p, ref)
    assert sp.split.s_minus.dim == 0

    p = WeightedProblem(w=np.eye(2), b=np.eye(2), c=np.eye(2), space=space2)
    for sig in (ref, space2.j_ref):           # a signature matrix is accepted
        sp = split_b(p, sig)                  # JW = J: split along e1/e2
        assert_allclose(sp.b_plus, np.diag([1.0, 0.0]), atol=1e-12)
        assert_allclose(sp.b_minus, np.diag([0.0, 1.0]), atol=1e-12)

    pz = WeightedProblem(w=np.eye(2), b=np.zeros((2, 2)), c=np.eye(2),
                         space=space2)
    sp = split_b(pz, ref)
    assert opnorm(sp.b_plus) < 1e-14 and opnorm(sp.b_minus) < 1e-14


def test_eval_fj_examples(space2):
    p = WeightedProblem(w=space2.j_ref, b=np.eye(2), c=np.zeros((2, 2)),
                        space=space2)
    sp = split_b(p)
    assert_allclose(eval_fj(p, sp, np.eye(2), np.eye(2)), space2.j_ref,
                    atol=1e-12)
    rng = np.random.default_rng(9)
    inst = generate_instance(GeneratorSpec(dim=4, seed=51,
                                           regime="range_indefinite"))
    spl = split_b(inst.problem)
    for _ in range(5):
        x = crandn(rng, 4, 4)
        assert opnorm(eval_fj(inst.problem, spl, x, x)
                      - eval_f(inst.problem, x)) \
            < 1e-10 * max(1.0, opnorm(eval_f(inst.problem, x)))
        y = crandn(rng, 4, 4)
        if opnorm(spl.b_minus) < 1e-12:
            assert opnorm(eval_fj(inst.problem, spl, x, y)
                          - eval_fj(inst.problem, spl, x, x)) < 1e-10


def test_solve_imms_basic(space2):
    rng = np.random.default_rng(10)
    c = crandn(rng, 2, 2)
    p = WeightedProblem(w=space2.j_ref, b=np.eye(2), c=c, space=space2)
    sol = solve_imms(p)
    assert_allclose(sol.z, c, atol=1e-10)
    assert opnorm(sol.minmax_value) < 1e-10

    with pytest.raises(MinMaxUnsolvable):
        solve_imms(WeightedProblem(w=np.array([[0.0, 1.0], [-1.0, 0.0]]),
                                   b=np.diag([1.0, 0.0]), c=np.eye(2),
                                   space=space2))


def test_imms_value_formulas():
    for seed in range(10):
        inst = generate_instance(GeneratorSpec(dim=4, seed=200 + seed,
                                               regime="range_indefinite"))
        sol = solve_imms(inst.problem)
        assert sol.schur_value is not None
        assert opnorm(sol.minmax_value - sol.schur_value) \
            < 1e-8 * max(1.0, opnorm(inst.problem.w))
        assert_allclose(sol.z, sol.z1 + sol.z2)
        assert opnorm(sol.z2) == 0.0


def test_saddle_certificates_and_perturbation():
    inst = generate_instance(GeneratorSpec(dim=4, seed=230,
                                           regime="range_indefinite"))
    p = inst.problem
    split = split_b(p)
    sol = solve_imms(p)
    rep = verify_saddle(p, split, sol, n_samples=400, seed=0)
    assert rep.passed
    assert rep.min_floor_min_side >= -1e-10
    assert rep.min_floor_max_side >= -1e-10

    # first-order perturbation must be caught on the min side
    bad = sol.z + 0.4 * np.eye(4)
    assert normal_residual(p, bad) > 1e-4
    rep_bad = verify_saddle(p, split, bad, n_samples=400, seed=1)
    assert not rep_bad.passed


def test_neutral_shift_characterization():
    """Both directions of the min-max characterization: Z1 + neutral Z2 is
    accepted, and any accepted Z has vanishing normal residual with
    Z - Z1 neutral.  The shift is nonzero exactly when the rank of the
    compressed form drops an eigenvalue."""
    for regime in ("neutral_directions", "range_nonnegative"):
        for seed in range(6):
            q = generate_instance(GeneratorSpec(dim=5, seed=seed,
                                                regime=regime)).problem
            kept = _factor(q, None)[0].kept
            assert (opnorm(neutral_shift(q, seed=3)) > 0) == (not kept.all())
    inst = generate_instance(GeneratorSpec(dim=5, seed=260,
                                           regime="neutral_directions"))
    p = inst.problem
    z2 = neutral_shift(p, seed=3)
    assert opnorm(z2) > 1e-8, "neutral regime should provide a kernel"
    bz2 = p.b @ z2
    assert opnorm(krein_adjoint(bz2, p.space) @ p.w @ bz2) \
        < 1e-10 * max(1.0, opnorm(p.w) * opnorm(bz2) ** 2)

    sol = solve_imms(p)
    split = split_b(p)
    shifted = sol.z + z2
    rep = verify_saddle(p, split, shifted, n_samples=300, seed=4)
    assert rep.passed
    # accepted candidate solves the normal equation; difference from the
    # canonical solution is automatically neutral
    assert normal_residual(p, shifted) \
        < 1e-9 * max(1.0, opnorm(p.w) * opnorm(p.b) ** 2)
    delta = shifted - sol.z1
    bd = p.b @ delta
    assert opnorm(krein_adjoint(bd, p.space) @ p.w @ bd) \
        < 1e-9 * max(1.0, opnorm(p.w) * max(1.0, opnorm(bd)) ** 2)


def test_minimality_certificate_reports():
    inst = generate_instance(GeneratorSpec(dim=4, seed=280,
                                           regime="range_nonnegative"))
    sol = solve_ims(inst.problem)
    cert = minimality_certificate(inst.problem, sol.x0, n_samples=1000,
                                  seed=5)
    assert cert.passed and cert.n_samples == 1000
    # a non-minimizer fails
    cert_bad = minimality_certificate(inst.problem,
                                      sol.x0 + 0.5 * np.eye(4),
                                      n_samples=1000, seed=6)
    assert not cert_bad.passed


def test_solve_ims_weight_scale():
    """Every tolerance is relative to the operands' norms, so scaling W
    changes no decision: solve_ims accepts W * 10^k with the unit-scale
    X0, and refuses the W * 1e-10 copy of a wrong-signed range with the
    unit-scale RangeNotNonnegative."""
    def problem(regime, alpha):
        p = generate_instance(GeneratorSpec(dim=8, seed=20190212,
                                            regime=regime)).problem
        return WeightedProblem(w=alpha * p.w, b=p.b, c=p.c, space=p.space)

    x0 = solve_ims(problem("range_nonnegative", 1.0)).x0
    for k in (-8, -4, 0, 4, 8, 16, 100):
        sol = solve_ims(problem("range_nonnegative", 10.0 ** k))
        assert sol.certificate.passed and sol.certificate.n_samples == 0
        assert opnorm(sol.x0 - x0) <= 1e-12 * opnorm(x0)
    with pytest.raises(RangeNotNonnegative):
        solve_ims(problem("range_indefinite", 1e-10))


@pytest.mark.parametrize("alpha", [1.0, 1e-8, 1e-10])
def test_wils_rejects_indefinite_range_at_any_weight_scale(alpha):
    """solve_wils_vector must refuse a range that is not W-nonnegative,
    whatever the units of W: the dim-8 range_indefinite instance of seed
    20190212 with W * alpha."""
    p = generate_instance(GeneratorSpec(dim=8, seed=20190212,
                                        regime="range_indefinite")).problem
    scaled = WeightedProblem(w=alpha * p.w, b=p.b, c=p.c, space=p.space)
    with pytest.raises(RangeNotNonnegative):
        solve_wils_vector(scaled, np.ones(8))


@pytest.mark.parametrize("regime", REGIMES)
def test_exact_minimality_identity(regime):
    """At an accepted X0, F(X0 + D) - F(X0) = D^# (B^#WB) D for every D,
    which is what the exact certificate rests on."""
    rng = np.random.default_rng(13)
    for p in regime_problems(regime):
        for solve in (solve_ims, solve_ims_max):
            try:
                x0 = solve(p).x0
            except (RangeNotNonnegative, RangeNotNonpositive,
                    NormalEquationUnsolvable):
                continue
            m = krein_adjoint(p.b, p.space) @ p.w @ p.b
            ds = crandn(rng, 5, 6, 6)
            gaps = krein_sandwich(p.b @ (x0 + ds) - p.c, p.w, p.space) \
                - eval_f(p, x0)
            for d, gap in zip(ds, gaps):
                scale = opnorm(p.w) * (opnorm(p.b) * (opnorm(x0) + opnorm(d))
                                       + opnorm(p.c)) ** 2
                assert opnorm(gap - krein_adjoint(d, p.space) @ m @ d) \
                    <= 1e-12 * scale


@pytest.mark.parametrize("regime", REGIMES)
def test_exact_certificate_agrees_with_sampled(regime):
    """At every solution of the normal equation, the exact certificate
    passes exactly when 1000 sampled perturbations find no violation,
    for the minimum and for the maximum."""
    for seed, p in enumerate(regime_problems(regime)):
        if not normal_solvable(p):
            continue
        _, x0, _, _, lam = _normal_solve(p, _factor(p, None), p.c)
        for sense in ("min", "max"):
            exact = _exact_certificate(p, lam, sense)
            sampled = minimality_certificate(p, x0, 1000, seed, sense)
            assert exact.passed == sampled.passed


@pytest.mark.parametrize("regime", REGIMES)
def test_stacked_sandwich_matches_per_operator(regime):
    rng = np.random.default_rng(7)
    for p in regime_problems(regime):
        split = split_b(p)
        xs, ys = crandn(rng, 5, 6, 6), crandn(rng, 5, 6, 6)
        z = crandn(rng, 6, 6)
        cases = [
            (krein_sandwich(p.b @ xs - p.c, p.w, p.space),
             [eval_f(p, x) for x in xs]),
            (fj_stack(p, split, xs, z),
             [eval_fj(p, split, x, z) for x in xs]),
            (fj_stack(p, split, z, ys),
             [eval_fj(p, split, z, y) for y in ys]),
        ]
        for stack, singles in cases:
            assert stack.shape == (5, 6, 6)
            for got, want in zip(stack, singles):
                assert opnorm(got - want) <= 1e-13 * max(1.0, opnorm(want))


@pytest.mark.parametrize("regime", REGIMES)
def test_normal_solvable_iff_solve_normal_succeeds(regime):
    for p in regime_problems(regime):
        try:
            solve_normal(p)
            solved = True
        except NormalEquationUnsolvable:
            solved = False
        assert normal_solvable(p) == solved
        # the planted regimes decide solvability
        assert solved == (regime != "non_complementable")


@pytest.mark.parametrize("regime", REGIMES)
def test_wils_vector_is_operator_solution_applied(regime):
    rng = np.random.default_rng(11)
    for p in regime_problems(regime):
        if not np.array_equal(p.c, np.eye(6)):
            continue
        y = crandn(rng, 6)
        if not is_w_nonnegative(p.w, p.range_b(), p.space):
            with pytest.raises(RangeNotNonnegative):
                solve_wils_vector(p, y)
        elif not normal_solvable(p):
            with pytest.raises(NormalEquationUnsolvable):
                solve_wils_vector(p, y)
        else:
            x0 = solve_normal(p)
            assert_allclose(solve_wils_vector(p, y), x0 @ y,
                            atol=1e-10 * max(1.0, opnorm(x0)))




def _normal_outcome(p):
    try:
        return solve_normal(p)
    except KreinError as exc:
        return type(exc).__name__


@pytest.mark.parametrize("regime", REGIMES)
def test_operand_limit(regime):
    p = generate_instance(GeneratorSpec(dim=8, seed=20190212,
                                        regime=regime)).problem
    # rescaled copies far below unit scale are accepted as they were
    for alpha in (1e-10, 1e-11):
        WeightedProblem(w=alpha * p.w, b=p.b, c=p.c, space=p.space)
    bound = max(np.linalg.norm(p.b), np.linalg.norm(p.c)) ** 2 \
        * np.linalg.norm(p.w)
    alpha = 0.5 * OPERAND_LIMIT / bound
    t = np.sqrt(alpha)
    want = _normal_outcome(p)
    # W -> alpha W and (B, C) -> t (B, C) keep the normal equation's
    # solution and put the bound at half the limit; twice it is rejected
    for (w, b, c), over in (((alpha * p.w, p.b, p.c), (4, 1)),
                            ((p.w, t * p.b, t * p.c), (1, 2))):
        big = WeightedProblem(w=w, b=b, c=c, space=p.space)
        with np.errstate(over="raise", invalid="raise"):
            got = _normal_outcome(big)
            # no overflow anywhere in the solvers, whatever they decide
            for solve in (solve_ims, solve_imms):
                try:
                    solve(big)
                except KreinError:
                    pass
        if isinstance(want, str):
            assert got == want
        else:
            assert opnorm(got - want) <= 1e-8 * max(1.0, opnorm(want))
        with pytest.raises(OperandOverflow, match="would overflow"):
            WeightedProblem(w=over[0] * w, b=over[1] * b, c=over[1] * c,
                            space=p.space)
