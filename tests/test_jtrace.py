"""J-trace machinery: values, laws, derivative, trace optimization, and
the indefinite Hilbert-Schmidt identity."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import crandn, random_selfadjoint, regime_problems
from kreinls import (REGIMES, GeneratorSpec, MinMaxUnsolvable,
                     NotComplementable, SignatureOperator, WeightedProblem,
                     change_of_signature, frechet_derivative, frechet_fd,
                     generate_instance, js2_inner, js2_signature_identity,
                     krein_adjoint, random_signature_operator, solve_ims,
                     solve_ims_max, solve_imms, solve_trace_min,
                     solve_trace_minmax, standard_space, trace_j,
                     trace_objective, trace_objective_xy, verify_saddle,
                     verify_trace_laws)
from kreinls import jtrace, lsq
from kreinls.jtrace import _saddle_floors, _scalar_floor_certificate
from kreinls.lsq import _factor, _fj, _split_b, solve_normal, split_b
from kreinls.linalg import opnorm
from kreinls.suites import _trace_saddle_floors

T_UPPER = np.array([[1.0, 1.0], [0.0, 0.0]], dtype=complex)


def test_trace_signature_dependence(space2, jb_alt):
    assert trace_j(T_UPPER, space2.j_ref, space2).value \
        == pytest.approx(1.0, abs=1e-14)
    assert trace_j(T_UPPER, jb_alt, space2).value \
        == pytest.approx(3.0, abs=1e-14)
    assert trace_j(np.zeros((2, 2)), space2.j_ref, space2).value == 0.0


def test_trace_is_eigenvalue_sum():
    space = standard_space(2, 2)
    rng = np.random.default_rng(0)
    for seed in range(10):
        sig = random_signature_operator(space, seed)
        t = crandn(rng, 4, 4)
        val = trace_j(t, sig, space).value
        eig_sum = np.linalg.eigvals(sig.entries @ t).sum()
        assert abs(val - eig_sum) < 1e-10 * max(1.0, abs(val))


def test_trace_real_for_selfadjoint(space5):
    rng = np.random.default_rng(1)
    for seed in range(10):
        w = random_selfadjoint(rng, space5)
        sig = random_signature_operator(space5, seed)
        rep = trace_j(w, sig, space5)
        assert abs(rep.value.imag) < 1e-10
        assert rep.bound_margin > -1e-10


def test_trace_laws(space5):
    rng = np.random.default_rng(2)
    for seed in range(15):
        s = crandn(rng, 5, 5)
        t = crandn(rng, 5, 5)
        alpha, beta = complex(*rng.standard_normal(2)), \
            complex(*rng.standard_normal(2))
        sig = random_signature_operator(space5, seed)
        rep = verify_trace_laws(s, t, alpha, beta, sig, space5, seed=seed)
        assert rep.max_residual() < 1e-10, rep.residuals()

    # identical operators, unit coefficients: linearity is exact
    rep = verify_trace_laws(np.eye(5), np.eye(5), 1.0, 1.0,
                            space5.j_ref, space5)
    assert rep.linearity < 1e-14


def test_change_of_signature_fixed_pair(space2, jb_alt):
    rep = change_of_signature(T_UPPER, space2.j_ref, jb_alt, space2)
    assert rep.lhs == pytest.approx(3.0, abs=1e-13)
    assert rep.rhs == pytest.approx(3.0, abs=1e-13)
    # identity instance
    rep = change_of_signature(T_UPPER, jb_alt, jb_alt, space2)
    assert rep.residual < 1e-13


def test_change_of_signature_random(space5):
    rng = np.random.default_rng(3)
    for seed in range(10):
        t = crandn(rng, 5, 5)
        ja = random_signature_operator(space5, seed)
        jb = random_signature_operator(space5, seed + 50)
        rep = change_of_signature(t, ja, jb, space5)
        assert rep.residual < 1e-9 * max(1.0, abs(rep.lhs))


def test_frechet_zero_cases():
    inst = generate_instance(GeneratorSpec(dim=4, seed=90,
                                           regime="range_nonnegative"))
    p = inst.problem
    sig = SignatureOperator.reference(p.space)
    x0 = solve_normal(p)
    rng = np.random.default_rng(4)
    for _ in range(5):
        y = crandn(rng, 4, 4)
        assert abs(frechet_derivative(p, sig, x0, y)) < 1e-9
    x = crandn(rng, 4, 4)
    assert frechet_derivative(p, sig, x, np.zeros((4, 4))) == 0.0


@pytest.mark.parametrize("seed", range(10))
def test_frechet_matches_finite_differences(seed):
    inst = generate_instance(GeneratorSpec(dim=3 + seed % 4, seed=600 + seed,
                                           regime="complementable"))
    p = inst.problem
    n = p.space.dim
    rng = np.random.default_rng(seed)
    sig = random_signature_operator(p.space, seed)
    for _ in range(10):
        x = crandn(rng, n, n)
        y = crandn(rng, n, n)
        analytic = frechet_derivative(p, sig, x, y)
        central = frechet_fd(p, sig, x, y, scheme="central")
        forward = frechet_fd(p, sig, x, y, scheme="forward")
        denom = max(1.0, abs(analytic))
        assert abs(analytic - central) / denom < 1e-6
        assert abs(analytic - forward) / denom < 1e-3


def test_trace_objective_canonical(space2):
    p = WeightedProblem(w=np.eye(2), b=np.diag([1.0, 0.0]), c=np.eye(2),
                        space=space2)
    x0 = np.diag([1.0, 0.0])
    assert trace_objective(p, space2.j_ref, x0) == pytest.approx(-1.0)
    # direct expansion: f(x) = |x1-1|^2 + |x2|^2 - 1
    rng = np.random.default_rng(5)
    for _ in range(20):
        x = crandn(rng, 2, 2)
        expected = abs(x[0, 0] - 1) ** 2 + abs(x[0, 1]) ** 2 - 1
        assert trace_objective(p, space2.j_ref, x) \
            == pytest.approx(expected, abs=1e-10)

    sp = split_b(p)
    x = crandn(rng, 2, 2)
    assert trace_objective_xy(p, sp, space2.j_ref, x, x) \
        == pytest.approx(trace_objective(p, space2.j_ref, x), abs=1e-10)


def test_solve_trace_min_canonical(space2):
    p = WeightedProblem(w=np.eye(2), b=np.diag([1.0, 0.0]), c=np.eye(2),
                        space=space2)
    sol = solve_trace_min(p, space2.j_ref, seed=1)
    assert sol.value == pytest.approx(-1.0, abs=1e-12)
    assert sol.scalar_certificate.passed
    assert _scalar_floor_certificate(p, space2.j_ref, sol.x0, 300, 1).passed
    assert sol.gradient_certificate < 1e-9
    # scalar sweep over the two free parameters confirms the minimum
    grid = np.linspace(-2.0, 2.0, 41)
    best = min(abs(a - 1) ** 2 + abs(b) ** 2 - 1
               for a in grid for b in grid)
    assert best == pytest.approx(-1.0)


def test_solve_trace_min_invertible_b(space2):
    rng = np.random.default_rng(6)
    b = crandn(rng, 2, 2) + 3 * np.eye(2)
    p = WeightedProblem(w=space2.j_ref, b=b, c=crandn(rng, 2, 2),
                        space=space2)
    sol = solve_trace_min(p, space2.j_ref)
    assert _scalar_floor_certificate(p, space2.j_ref, sol.x0, 100, 0).passed
    assert abs(sol.value) < 1e-9


def test_solve_trace_min_propagates_solver_errors(space2):
    from kreinls import RangeNotNonnegative

    bad = WeightedProblem(w=np.eye(2), b=np.diag([0.0, 1.0]), c=np.eye(2),
                          space=space2)
    with pytest.raises(RangeNotNonnegative):
        solve_trace_min(bad, space2.j_ref)


def test_trace_min_ims_equivalence_both_directions():
    """A trace minimizer solves the normal equation, and any normal
    solution passes the sampled trace-floor certificate."""
    from kreinls import normal_residual

    for seed in range(20):
        inst = generate_instance(GeneratorSpec(
            dim=2 + seed % 6, seed=800 + seed, regime="range_nonnegative"))
        p = inst.problem
        sig = SignatureOperator.reference(p.space)
        sol = solve_trace_min(p, sig, seed=seed)
        assert _scalar_floor_certificate(p, sig, sol.x0, 64, seed).passed
        assert normal_residual(p, sol.x0) \
            < 1e-9 * max(1.0, opnorm(p.w) * opnorm(p.b) ** 2)
        # a different normal solution (pinv offset by kernel freedom)
        x_other = solve_normal(p)
        cert = _scalar_floor_certificate(p, sig, x_other, 200, seed, "min")
        assert cert.passed


def test_solve_trace_minmax(space2):
    rng = np.random.default_rng(7)
    c = crandn(rng, 2, 2)
    p = WeightedProblem(w=space2.j_ref, b=np.eye(2), c=c, space=space2)
    sol = solve_trace_minmax(p, space2.j_ref)
    assert abs(sol.value) < 1e-10
    assert sol.saddle_min_floor >= -1e-9
    assert sol.saddle_max_floor >= -1e-9
    floors = _trace_saddle_floors(p, SignatureOperator.reference(space2), sol,
                                  100, 0)
    assert min(floors) >= -1e-9

    with pytest.raises(NotComplementable):
        solve_trace_minmax(
            WeightedProblem(w=np.array([[0.0, 1.0], [-1.0, 0.0]]),
                            b=np.diag([1.0, 0.0]), c=np.eye(2),
                            space=space2), space2.j_ref)


def test_trace_minmax_value_depends_on_j_solution_does_not():
    inst = generate_instance(GeneratorSpec(dim=4, seed=95,
                                           regime="range_indefinite"))
    p = inst.problem
    ref = SignatureOperator.reference(p.space)
    alt = random_signature_operator(p.space, 12)
    sol_ref = solve_trace_minmax(p, ref)
    sol_alt = solve_trace_minmax(p, alt)
    for sig, sol in ((ref, sol_ref), (alt, sol_alt)):
        assert min(_trace_saddle_floors(p, sig, sol, 100, 0)) >= -1e-9
    assert_allclose(sol_ref.z, sol_alt.z)
    # values tie together through the change-of-signature formula only
    value_matrix = np.asarray(sol_ref.imms.schur_value)
    chg = change_of_signature(value_matrix, ref, alt, p.space)
    assert abs(sol_alt.value - chg.rhs.real) \
        < 1e-9 * max(1.0, abs(sol_alt.value))


@pytest.mark.parametrize("regime", REGIMES)
def test_exact_saddle_identities(regime):
    """At a min-max solution Z, under the reference signature and an
    alternate one, F_J(X, Z) - F_J(Z, Z) = D^# (B_+^#WB_+) D and
    F_J(Z, Y) - F_J(Z, Z) = E^# (B_-^#WB_-) E; the exact floors built on
    them pass wherever 1000 sampled saddle perturbations pass."""
    rng = np.random.default_rng(19)
    for seed, p in enumerate(regime_problems(regime)):
        try:
            z = solve_imms(p).z
        except MinMaxUnsolvable:
            continue
        wn = opnorm(p.w)
        for sig in (SignatureOperator.reference(p.space),
                    random_signature_operator(p.space, 100 + seed)):
            split, plus, minus = _split_b(p, _factor(p, None), sig)
            center = _fj(p, split, z, z)
            ds = crandn(rng, 4, 6, 6)
            for b, gaps in ((split.b_plus, _fj(p, split, z + ds, z)),
                            (split.b_minus, _fj(p, split, z, z + ds))):
                m = krein_adjoint(b, p.space) @ p.w @ b
                for d, gap in zip(ds, gaps - center):
                    scale = wn * (opnorm(p.b) * (opnorm(z) + opnorm(d))
                                  + opnorm(p.c)) ** 2
                    assert opnorm(gap - krein_adjoint(d, p.space) @ m @ d) \
                        <= 1e-12 * scale
            if verify_saddle(p, split, z, 1000, seed).passed:
                fac = _factor(p, None)[0]
                assert min(_saddle_floors(fac, plus, minus)) \
                    >= -p.space.tol


def test_solvers_do_not_sample(monkeypatch):
    """The solvers certify exactly; sampling is left to the harness."""
    def sampled(*args, **kwargs):
        raise AssertionError("a solver drew samples")

    for mod, name in ((lsq, "_sample_directions"),
                      (lsq, "minimality_certificate"),
                      (lsq, "_saddle_sides"),
                      (jtrace, "_sample_directions"),
                      (jtrace, "_scalar_floor_certificate")):
        monkeypatch.setattr(mod, name, sampled)

    def problem(regime):
        return generate_instance(GeneratorSpec(dim=6, seed=3,
                                               regime=regime)).problem

    p = problem("range_nonnegative")
    assert solve_ims(p).certificate.n_samples == 0
    assert solve_trace_min(p, p.space.j_ref).scalar_certificate.n_samples == 0
    assert solve_ims_max(problem("range_nonpositive")).certificate.passed
    p = problem("range_indefinite")
    sol = solve_trace_minmax(p, random_signature_operator(p.space, 1))
    assert min(sol.saddle_min_floor, sol.saddle_max_floor) >= -p.space.tol


def test_js2_examples(space2):
    sig = SignatureOperator.reference(space2)
    assert js2_inner(np.zeros((2, 2)), np.zeros((2, 2)), sig, space2) == 0.0
    rep = js2_signature_identity(T_UPPER, sig, space2)
    assert rep.lhs == pytest.approx(2.0, abs=1e-12)
    assert rep.rhs == pytest.approx(2.0, abs=1e-12)
    assert rep.plus_norm_sq == pytest.approx(2.0, abs=1e-12)
    assert rep.minus_norm_sq == pytest.approx(0.0, abs=1e-12)

    # operator supported in the negative block: tr_J(T^# T) = -||T||^2
    t = np.array([[0.0, 0.0], [0.0, 2.0]], dtype=complex)
    rep = js2_signature_identity(t, sig, space2)
    assert rep.lhs == pytest.approx(-4.0, abs=1e-12)


@pytest.mark.parametrize("seed", range(12))
def test_js2_identity_random(seed):
    space = standard_space(3, 2)
    rng = np.random.default_rng(seed)
    sig = random_signature_operator(space, seed + 30)
    t = crandn(rng, 5, 5)
    rep = js2_signature_identity(t, sig, space)
    assert rep.residual < 1e-9 * max(1.0, abs(rep.lhs))
    # sesquilinear structure
    s = crandn(rng, 5, 5)
    sym = js2_inner(s, t, sig, space) - np.conj(js2_inner(t, s, sig, space))
    assert abs(sym) < 1e-10 * max(1.0, opnorm(s) * opnorm(t))
