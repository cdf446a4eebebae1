"""One SVD per subspace question: the coordinate complement that
``Subspace.from_span`` keeps from its own SVD, and the sum and the
intersection of S and T = W^{-1}(S^[perp]) read off one spectrum of
[F_S, -F_T], checked against the two-SVD rules they replace."""

import numpy as np
import pytest

from conftest import crandn
from kreinls import (REGIMES, GeneratorSpec, KreinSpace,
                     RankThresholdAmbiguous, Subspace, generate_instance,
                     is_complementable, range_subspace, standard_space)
from kreinls.linalg import null_frame, opnorm, orth_frame
from kreinls.schur import Factorization


def subspace_sum(*frames):
    """Reference: orthonormal frame of the span of all the frames'
    columns, at the shared rank cutoff (the former complementability
    rule compared its width with the dimension)."""
    cols = [f for f in frames if f.shape[1] > 0]
    if not cols:
        return np.zeros((frames[0].shape[0], 0), dtype=complex)
    return orth_frame(np.hstack(cols))


def stacked_intersection(fa, fb, rank_tol=None):
    """Reference: span(fa) ∩ span(fb) as the null space of the stacked
    projectors onto the two orthocomplements."""
    dim = fa.shape[0]
    if fa.shape[1] == 0 or fb.shape[1] == 0:
        return np.zeros((dim, 0), dtype=complex)
    pa = np.eye(dim) - fa @ fa.conj().T
    pb = np.eye(dim) - fb @ fb.conj().T
    return null_frame(np.vstack([pa, pb]), rank_tol, context=1.0)


def _spans(rng):
    """Inputs of from_span: square full rank, rank deficient, tall, wide
    and zero."""
    return {
        "square": crandn(rng, 6, 6),
        "deficient": crandn(rng, 6, 2) @ crandn(rng, 2, 6),
        "tall": crandn(rng, 6, 3),
        "wide": crandn(rng, 4, 7),
        "zero": np.zeros((5, 3)),
    }


@pytest.mark.parametrize("rank_tol", [None, 1e-6])
@pytest.mark.parametrize("kind", ["square", "deficient", "tall", "wide",
                                  "zero"])
def test_from_span_keeps_an_orthonormal_complement(kind, rank_tol):
    a = _spans(np.random.default_rng(0))[kind]
    s = Subspace.from_span(a, rank_tol)
    comp = s.coordinate_complement().frame
    n = a.shape[0]
    assert s.dim == {"square": 6, "deficient": 2, "tall": 3, "wide": 4,
                     "zero": 0}[kind]
    assert s.dim + comp.shape[1] == n
    assert opnorm(comp.conj().T @ comp - np.eye(n - s.dim)) <= 1e-13
    assert opnorm(comp.conj().T @ s.frame) <= 1e-13
    assert np.array_equal(comp, s._complement)
    assert not s._complement.flags.writeable


def test_an_explicit_rank_tol_recomputes_the_complement():
    s = Subspace.from_span(crandn(np.random.default_rng(1), 6, 3))
    for tol in (1e-9, 1e-3):
        comp = s.coordinate_complement(rank_tol=tol).frame
        assert np.array_equal(comp, null_frame(s.frame.conj().T, tol))
    given = Subspace(s.frame)
    assert given._complement is None
    assert np.array_equal(given.coordinate_complement().frame,
                          null_frame(s.frame.conj().T))


def test_a_frame_cannot_be_given_a_complement():
    s = Subspace.from_span(crandn(np.random.default_rng(2), 5, 2))
    with pytest.raises(TypeError):
        Subspace(s.frame, s._complement)
    with pytest.raises(TypeError):
        Subspace(s.frame, _complement=s._complement)


def test_meet_of_two_coordinate_planes():
    """S = span(e1, e2) and T = W^{-1}(S^[perp]) = span(e2, e3) in C^4 with
    J = I: S + T has dimension 3 and S ∩ T is span(e2)."""
    space = standard_space(4, 0)
    w = np.zeros((4, 4))
    w[0, 0] = w[2, 2] = w[1, 3] = w[3, 1] = 1.0
    fac = Factorization(w, Subspace(np.eye(4)[:, :2]), space)
    t = fac.preimage.frame
    assert opnorm(t @ t.conj().T - np.diag([0.0, 1, 1, 0])) <= 1e-14
    rank, inter = fac._meet
    assert rank == 3 and not fac.complementable
    assert inter.shape == (4, 1)
    assert abs(abs(inter[1, 0]) - 1.0) < 1e-12


def _factorizations(dims, seeds):
    """The weight relative to the generated subspace and to R(B)."""
    for dim in dims:
        for regime in REGIMES:
            for seed in seeds:
                inst = generate_instance(GeneratorSpec(dim=dim, seed=seed,
                                                       regime=regime))
                p = inst.problem
                for s in (inst.subspace, range_subspace(p.b)):
                    yield f"{regime}.{dim}.{seed}", \
                        Factorization(p.w, s, p.space)


def test_one_svd_agrees_with_the_two_svd_rules():
    """Complementability is the reference's width test, and the frame of
    S ∩ T is orthonormal and spans what the stacked projectors give."""
    for key, fac in _factorizations((6, 8, 32), (0, 1, 2)):
        s, t, dim = fac.s.frame, fac.preimage.frame, fac.space.dim
        want = subspace_sum(s, t).shape[1] == dim
        assert fac.complementable == want, key
        ref = stacked_intersection(s, t)
        inter = fac._meet[1]
        assert inter.shape == ref.shape, key
        k = inter.shape[1]
        assert opnorm(inter.conj().T @ inter - np.eye(k)) <= 1e-10, key
        assert opnorm(inter @ inter.conj().T - ref @ ref.conj().T) \
            <= 1e-10, key


def test_neutral_directions_meet_in_the_kernel_of_the_form():
    """x = F_S c lies in T iff the compressed form S* J W S kills c, so
    S ∩ T is the W-neutral part of S that this regime plants; at dim 128
    the intersection is 14, 71, 30, 8 and 1 dimensional."""
    for seed, want in zip(range(1000, 1005), (14, 71, 30, 8, 1)):
        inst = generate_instance(GeneratorSpec(dim=128, seed=seed,
                                               regime="neutral_directions"))
        p = inst.problem
        fac = Factorization(p.w, range_subspace(p.b), p.space)
        inter = fac._meet[1]
        assert fac.complementable and inter.shape[1] == want
        lam = np.linalg.eigvalsh(fac.form)
        assert (np.abs(lam) <= p.space.tol * fac.norm).sum() == want
        ref = stacked_intersection(fac.s.frame, fac.preimage.frame)
        assert opnorm(inter @ inter.conj().T - ref @ ref.conj().T) <= 1e-10


def _tilted_pair(theta):
    """W on C^2 (J = I) whose preimage of S^[perp] = span(e2), for
    S = span(e1), is the line at angle theta from S."""
    w = np.array([[-np.sin(theta), np.cos(theta)],
                  [np.cos(theta), 0.0]])
    return w, Subspace(np.eye(2)[:, :1]), KreinSpace(2, np.eye(2))


def test_an_angle_inside_the_ambiguity_decade_is_refused():
    """The smallest singular value of [F_S, -F_T] is about theta / sqrt(2)
    against a cutoff of 2 sqrt(2) 1e-12: clear on either side, ambiguous
    within a decade of it."""
    w, s, space = _tilted_pair(1e-6)
    assert is_complementable(w, s, space)
    w, s, space = _tilted_pair(1e-15)
    assert not is_complementable(w, s, space)
    w, s, space = _tilted_pair(4.2e-12)
    with pytest.raises(RankThresholdAmbiguous):
        is_complementable(w, s, space)
    fac = Factorization(w, s, space)
    with pytest.raises(RankThresholdAmbiguous):     # as the old rule did
        subspace_sum(fac.s.frame, fac.preimage.frame)
