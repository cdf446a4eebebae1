"""The normal equation, its exact certificate, the preimage
W^{-1}(S^[perp]) that the complementability oracle takes and the saddle
floors asked in R(B)'s own coordinates,
checked against the n x n rules they replace: an SVD of M = B^#WB, an
eigvalsh of herm(J_ref M), the kernel of (I - P_{S^[perp]}) W and an
eigvalsh of herm(B_+/-^* J_ref W B_+/-)."""

import numpy as np
import pytest

from conftest import crandn, preimage_frame
from kreinls import (REGIMES, GeneratorSpec, RankThresholdAmbiguous,
                     WeightedProblem, generate_instance, normal_solvable,
                     solve_ims, solve_imms, solve_normal, solve_trace_minmax,
                     split_b)
from kreinls.core import krein_adjoint
from kreinls.jtrace import _saddle_floors
from kreinls.linalg import herm, null_frame, numerical_rank, opnorm, within
from kreinls.lsq import _exact_certificate, _factor, _normal_solve
from kreinls.schur import Factorization


def reference_normal(p, target, rank_tol=None):
    """The former rule: one SVD of M = B^#WB gives pinv(M) N, the norm of
    N = B^#W target outside R(M), and the certificate floors, the
    smallest eigenvalues of herm(J_ref M) and herm(-J_ref M) over
    ||B||^2 ||W||."""
    bw = krein_adjoint(p.b, p.space) @ p.w
    m, n = bw @ p.b, bw @ target
    u, s, vh = np.linalg.svd(m)
    m_scale = p.b_norm ** 2 * p.w_norm
    r = numerical_rank(s, p.space.dim, rank_tol, m_scale)
    coef = u[:, :r].conj().T @ n
    x = (vh[:r].conj().T / s[:r]) @ coef
    lam = np.linalg.eigvalsh(herm(p.space.j_ref @ m))
    floors = (lam.min() / m_scale, (-lam).min() / m_scale) if m_scale \
        else (0.0, 0.0)
    return x, n - u[:, :r] @ coef, r, floors


def reference_preimage(fac):
    """The former rule: the kernel of (I - P_{S^[perp]}) W at ||W||."""
    n = fac.space.dim
    residual_map = (np.eye(n) - fac.companion.projector()) @ fac.w
    return null_frame(residual_map, fac.rank_tol, context=fac.norm)


def _problems(dims=(6, 8, 32), seeds=(0, 1, 2)):
    for dim in dims:
        for regime in REGIMES:
            for seed in seeds:
                inst = generate_instance(GeneratorSpec(dim=dim, seed=seed,
                                                       regime=regime))
                p = inst.problem
                key = f"{regime}.{dim}.{seed}"
                yield key, inst, p
                yield key + ".c_identity", inst, WeightedProblem(
                    w=p.w, b=p.b, c=np.eye(dim), space=p.space)


def test_normal_equation_agrees_with_the_svd_of_m():
    """X0, the Douglas decision, M's rank and both certificate floors of
    the k-row rules match the SVD of B^#WB, singular forms
    (neutral_directions) included."""
    for key, _, p in _problems():
        factored = _factor(p, None)
        outside, x, resid, sc, lam = _normal_solve(p, factored, p.c,
                                                   p.c_norm)
        m_scale = p.b_norm ** 2 * p.w_norm
        x_ref, outside_ref, r_ref, floors_ref = reference_normal(p, p.c)
        tol = p.space.tol * sc
        assert opnorm(x - x_ref) <= 1e-10 * opnorm(x_ref), key
        assert within(outside, tol) == within(outside_ref, tol), key
        assert (np.abs(lam) > p.space.dim * m_scale * 1e-12).sum() \
            == r_ref, key
        bw = krein_adjoint(p.b, p.space) @ p.w
        assert abs(opnorm(resid) - opnorm(bw @ (p.b @ x - p.c))) \
            <= 1e-10 * sc, key
        for sense, floor_ref in zip(("min", "max"), floors_ref):
            cert = _exact_certificate(p, lam, sense)
            assert abs(cert.min_floor - floor_ref) <= 1e-12, key
            assert cert.passed == (floor_ref >= -p.space.tol), key


def test_preimage_agrees_with_the_residual_map():
    """N(R) is the kernel of (I - P_{S^[perp]}) W, for R(B) and for the
    generated subspace."""
    for key, inst, p in _problems():
        if key.endswith("c_identity"):
            continue
        for s in (_factor(p, None)[0].s, inst.subspace):
            fac = Factorization(p.w, s, p.space)
            t, ref = preimage_frame(fac), reference_preimage(fac)
            assert t.shape == ref.shape, key
            assert opnorm(t @ t.conj().T - ref @ ref.conj().T) <= 1e-10, key


def test_saddle_floors_agree_with_the_n_by_n_forms():
    for key, _, p in _problems(seeds=(0, 1)):
        fac, _, vh = _factor(p, None)
        split = split_b(p)
        floors = _saddle_floors(fac, split, vh)
        for sign, b, floor in zip((1.0, -1.0),
                                  (split.b_plus, split.b_minus), floors):
            scale = opnorm(b) ** 2 * p.w_norm
            lam = np.linalg.eigvalsh(herm(sign * (b.conj().T
                                                  @ fac.jw @ b)))
            ref = lam.min() / scale if scale > 0 else 0.0
            assert abs(floor - ref) <= 1e-12, key


def test_the_reported_normal_residual_is_that_of_the_k_rows():
    """||Σ R (B X0 - C)|| = ||B^#W (B X0 - C)||: the record reports the
    norm of the k-row residual."""
    p = generate_instance(GeneratorSpec(dim=8, seed=3,
                                        regime="range_nonnegative")).problem
    sol = solve_ims(p)
    bw = krein_adjoint(p.b, p.space) @ p.w
    full = opnorm(bw @ (p.b @ sol.x0 - p.c))
    assert abs(sol.normal_residual - full) \
        <= 1e-12 * p.b_norm * p.w_norm * p.c_norm


def test_an_explicit_rank_tol_decides_b_rank_first():
    """At rank_tol 0.5, inside B's singular values [0.6, 1], the normal
    equation on a non_complementable instance ends in B's
    RankThresholdAmbiguous, as solve_ims and solve_trace_minmax do; the
    former rule decided M's rank alone and called it unsolvable."""
    p = generate_instance(GeneratorSpec(dim=4, seed=1,
                                        regime="non_complementable")).problem
    for call in (solve_imms, solve_normal, normal_solvable, solve_ims,
                 lambda q, tol: solve_trace_minmax(q, q.space.j_ref, tol)):
        with pytest.raises(RankThresholdAmbiguous):
            call(p, 0.5)
    _, outside_ref, _, _ = reference_normal(p, p.c, 0.5)
    sc = p.b_norm * p.w_norm * p.c_norm
    assert not within(outside_ref, p.space.tol * sc)


def test_zero_b_has_rank_zero_and_solution_zero():
    p = generate_instance(GeneratorSpec(dim=4, seed=0,
                                        regime="range_nonnegative")).problem
    q = WeightedProblem(w=p.w, b=np.zeros((4, 4)),
                        c=crandn(np.random.default_rng(0), 4, 4),
                        space=p.space)
    assert np.array_equal(solve_normal(q), np.zeros((4, 4)))
    sol = solve_ims(q)
    assert sol.certificate.min_floor == 0.0 and sol.normal_residual == 0.0
    assert np.array_equal(solve_imms(q).z, np.zeros((4, 4)))
