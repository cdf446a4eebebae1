"""Rank-aware helpers: thresholds, frames, pseudoinverse."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from kreinls import RankThresholdAmbiguous
from kreinls.linalg import (Norm, excess, g_orthonormalize, herm_pinv_apply,
                            hpd_sqrt, kept_eigenvalues, null_frame,
                            numerical_rank, opnorm, orth_frame, pinv, within)


def test_numerical_rank_basic():
    assert numerical_rank(np.array([1.0, 0.5, 1e-15]), 3) == 2
    assert numerical_rank(np.array([0.0, 0.0]), 2) == 0
    assert numerical_rank(np.array([]), 0) == 0


def test_numerical_rank_ambiguity_guard():
    # a singular value inside the decade around dim * smax * 1e-12
    with pytest.raises(RankThresholdAmbiguous) as exc:
        numerical_rank(np.array([1.0, 3e-12]), 2)
    assert exc.value.sigma == pytest.approx(3e-12)
    # explicit threshold overrides the guard placement
    assert numerical_rank(np.array([1.0, 3e-12]), 2, rank_tol=1e-9) == 1


def test_numerical_rank_context_anchors_noise():
    # a pure-noise block: full rank against itself, rank zero in context
    noise = np.array([3e-17, 1e-17])
    assert numerical_rank(noise, 2) == 2
    assert numerical_rank(noise, 2, context=1.0) == 0


def test_orth_and_null_frames():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((5, 3)) @ rng.standard_normal((3, 5))
    col = orth_frame(a)
    ker = null_frame(a)
    assert col.shape == (5, 3) and ker.shape == (5, 2)
    assert_allclose(col.conj().T @ col, np.eye(3), atol=1e-12)
    assert np.linalg.norm(a @ ker) < 1e-12
    assert null_frame(np.zeros((4, 4))).shape == (4, 4)


def test_pinv_minimal_norm_solution():
    rng = np.random.default_rng(1)
    m = rng.standard_normal((4, 2)) @ rng.standard_normal((2, 4))
    x = rng.standard_normal((4, 3))
    n = m @ x
    x0 = pinv(m) @ n
    assert np.linalg.norm(m @ x0 - n) < 1e-10
    # any other solution is at least as large in Frobenius norm
    ker = null_frame(m)
    for j in range(ker.shape[1]):
        shift = np.outer(ker[:, j], np.ones(3))
        assert np.linalg.norm(x0) <= np.linalg.norm(x0 + 0.7 * shift) + 1e-12


def test_herm_pinv_apply_matches_pinv_on_a_singular_indefinite_matrix():
    rng = np.random.default_rng(2)
    q = np.linalg.qr(rng.standard_normal((4, 4)))[0]
    a = q @ np.diag([2.0, -0.5, 0.0, 1.0]) @ q.T
    b = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
    lam, vec = np.linalg.eigh(a)
    kept = kept_eigenvalues(lam, 4)
    assert kept.sum() == 3                                  # rank 3
    assert_allclose(herm_pinv_apply(lam, vec, kept, b), pinv(a) @ b,
                    atol=1e-12)


def test_hpd_sqrt_and_g_orthonormalize():
    rng = np.random.default_rng(3)
    m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    g = m @ m.conj().T + np.eye(4)
    root, iroot = hpd_sqrt(g)
    assert_allclose(root @ root, g, atol=1e-10)
    assert_allclose(root @ iroot, np.eye(4), atol=1e-10)

    frame = g_orthonormalize(rng.standard_normal((4, 2)), g)
    assert_allclose(frame.conj().T @ g @ frame, np.eye(2), atol=1e-10)


def _residuals():
    """Residual-like arrays: zero, empty, 1-D, rank one (where the
    Frobenius and spectral norms agree), generic, and entries near the
    ends of the double range."""
    rng = np.random.default_rng(4)
    g = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    u, v = rng.standard_normal(5), rng.standard_normal(4) + 1j
    return {
        "zero": np.zeros((3, 3)), "empty": np.zeros((0, 3)),
        "empty_1d": np.zeros(0), "vector": rng.standard_normal(6),
        "rank_one": np.outer(u, v), "generic": g, "rounding": 1e-16 * g,
        "tiny": 1e-160 * g, "tiny_rank_one": 1e-160 * np.outer(u, v),
        "huge": 1e150 * g, "huge_rank_one": 1e150 * np.outer(u, v),
    }


def _bounds_around(n):
    """0, n one ulp either side, n itself, and bounds far from it."""
    return [0.0, np.nextafter(n, -np.inf), n, np.nextafter(n, np.inf),
            0.5 * n, 1.9 * n, 2.1 * n, 1e3 * n, -1.0, np.inf, np.nan]


@pytest.mark.parametrize("name", sorted(_residuals()))
def test_within_decides_like_opnorm(name):
    r = _residuals()[name]
    n = opnorm(r)
    for b in _bounds_around(n):
        assert within(r, b) == (opnorm(r) <= b), (name, b)
        assert excess(r, b) == (None if opnorm(r) <= b else n), (name, b)


@pytest.mark.parametrize("name", sorted(_residuals()))
def test_within_with_a_scale_decides_like_opnorm(name):
    """bound * ||scale|| (* ||scale||), multiplied left to right as the
    callers' own checks are, against scales whose cheap lower bound is
    loose (rank one), tight (identity) or absent (zero, tiny)."""
    r = _residuals()[name]
    rng = np.random.default_rng(5)
    scales = [np.eye(4), np.outer(rng.standard_normal(4),
                                  rng.standard_normal(4)),
              rng.standard_normal((4, 4)), np.zeros((4, 4)),
              1e-160 * rng.standard_normal((4, 4))]
    for s in scales:
        sn = opnorm(s)
        for power in (1, 2):
            exact = sn * sn if power == 2 else sn
            ratios = [0.0, 1e-3] if exact == 0.0 else \
                _bounds_around(opnorm(r) / exact)
            for t in ratios:
                want = opnorm(r) <= (t * sn * sn if power == 2 else t * sn)
                assert within(r, t, *[s] * power) == want, (name, t, power)
                assert within(r, t, *[Norm(s)] * power) == want


def test_within_needs_no_svd_for_a_rounding_level_residual(monkeypatch):
    rng = np.random.default_rng(6)
    a = rng.standard_normal((8, 8))
    r = 1e-15 * rng.standard_normal((8, 8))

    def no_svd(*args, **kwargs):
        raise AssertionError("within took an SVD")
    monkeypatch.setattr(np.linalg, "svd", no_svd)
    assert within(r, 1e-10)
    assert within(r, 1e-10, a, a)
    assert within(np.zeros((8, 8)), 0.0)


def test_a_shared_norm_takes_its_svd_once(monkeypatch):
    """Checks judged at one Norm, whose bounds cannot settle them, take
    that norm's SVD once; a failing check reports its own norm."""
    rng = np.random.default_rng(8)
    scale = np.outer(rng.standard_normal(16), rng.standard_normal(16))
    r = 1e-3 * rng.standard_normal((16, 16))
    t = 3 * opnorm(r) / opnorm(scale)
    sn = Norm(scale)
    assert not Norm(r).high <= t * sn.low
    calls = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd",
                        lambda a, **kw: calls.append(a) or svd(a, **kw))
    assert within(r, t, sn) and within(2 * r, t, sn)
    assert excess(r, 1e-6, sn) == opnorm(r)
    assert sum(a is scale for a in calls) == 1


@pytest.mark.parametrize("shape", [(4, 4), (3, 5), (5, 3), (1, 4), (6,),
                                   (0,), (0, 3), (3, 0), (0, 0)])
@pytest.mark.parametrize("dtype", [float, complex])
def test_opnorm_is_numpys_spectral_norm_bit_for_bit(shape, dtype):
    rng = np.random.default_rng(7)
    a = rng.standard_normal(shape).astype(dtype)
    if dtype is complex:
        a += 1j * rng.standard_normal(shape)
    for x in (a, 1e-160 * a, 1e150 * a, np.zeros(shape, dtype)):
        got, want = opnorm(x), float(np.linalg.norm(x, 2))
        assert type(got) is float
        assert np.float64(got).tobytes() == np.float64(want).tobytes()
