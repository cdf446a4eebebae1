"""Subspace geometry: companions, preimages, splits, projections."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import crandn, random_selfadjoint
from kreinls import (DimensionMismatch, NotComplementable, SignatureOperator,
                     Subspace, is_complementable,
                     krein_adjoint, krein_gram, oblique_projection,
                     orthogonal_companion, preimage, projection_with_kernel,
                     range_subspace, standard_space, symmetric_projection,
                     w_split)
from kreinls.linalg import opnorm, orth_frame

W_ROT = np.array([[0.0, 1.0], [-1.0, 0.0]])  # JW = [[0,1],[1,0]], a = 0


def same_span(a, b, tol=1e-10):
    if a.dim != b.dim:
        return False
    if a.dim == 0:
        return True
    return a.contains(b.frame, tol) and b.contains(a.frame, tol)


def test_range_subspace_examples():
    assert same_span(range_subspace(np.diag([1.0, 0.0])),
                     Subspace(np.eye(2)[:, :1]))
    assert range_subspace(np.zeros((2, 2))).dim == 0
    ones = range_subspace(np.array([[1.0, 1.0], [1.0, 1.0]]))
    assert ones.dim == 1
    assert_allclose(np.abs(ones.frame[:, 0]), [1 / np.sqrt(2)] * 2)


def test_companion_examples(space2):
    e1 = Subspace(np.eye(2)[:, :1])
    comp = orthogonal_companion(e1, space2)
    assert same_span(comp, Subspace(np.eye(2)[:, 1:]))
    assert orthogonal_companion(Subspace.zero(2), space2).dim == 2
    # neutral line is its own companion: solve [h, (1,1)] = 0 directly
    line = Subspace.from_span(np.array([[1.0], [1.0]]))
    h = orthogonal_companion(line, space2).frame[:, 0]
    assert abs(krein_gram(h, np.array([1.0, 1.0]), space2)) < 1e-12
    assert same_span(orthogonal_companion(line, space2), line)


@pytest.mark.parametrize("seed", range(25))
def test_companion_duality(seed):
    space = standard_space(3, 2)
    rng = np.random.default_rng(seed)
    for k in range(5 + 1):
        s = Subspace.from_span(crandn(rng, 5, k)) if k else Subspace.zero(5)
        twice = orthogonal_companion(
            orthogonal_companion(s, space), space)
        assert same_span(twice, s)
        assert orthogonal_companion(s, space).dim == 5 - s.dim


def test_preimage_examples():
    t = Subspace(np.eye(2)[:, :1])
    assert same_span(preimage(np.eye(2), t), t)
    assert preimage(np.zeros((2, 2)), t).dim == 2
    # A = diag(1,0): Ae2 = 0 lies in T, so the preimage is everything
    assert preimage(np.diag([1.0, 0.0]), t).dim == 2


def test_preimage_is_maximal():
    rng = np.random.default_rng(7)
    a = crandn(rng, 5, 5)
    t = Subspace.from_span(crandn(rng, 5, 2))
    pre = preimage(a, t)
    # every frame column maps into T
    assert t.contains(a @ pre.frame, 1e-10)
    # and adding any vector outside breaks it
    comp = pre.coordinate_complement()
    for j in range(comp.dim):
        v = comp.frame[:, j]
        assert not t.contains(a @ v, 1e-6)


def test_w_split_examples(space2):
    ref = SignatureOperator.reference(space2)
    full = Subspace.full(2)
    split = w_split(full, np.eye(2), ref, space2)
    assert same_span(split.s_plus, Subspace(np.eye(2)[:, :1]))
    assert same_span(split.s_minus, Subspace(np.eye(2)[:, 1:]))

    rng = np.random.default_rng(0)
    s = Subspace.from_span(crandn(rng, 2, 1))
    split = w_split(s, space2.j_ref, ref, space2)   # W = J: Krein positive
    assert split.s_plus.dim == s.dim and split.s_minus.dim == 0

    e1 = Subspace(np.eye(2)[:, :1])
    split = w_split(e1, W_ROT, ref, space2)         # compressed form is 0
    assert split.s_plus.dim == 1 and split.s_minus.dim == 0


@pytest.mark.parametrize("seed", range(15))
def test_w_split_soundness(seed):
    space = standard_space(3, 3)
    rng = np.random.default_rng(seed)
    w = random_selfadjoint(rng, space)
    s = Subspace.from_span(crandn(rng, 6, 4))
    ref = SignatureOperator.reference(space)
    split = w_split(s, w, ref, space)
    defects = split.defects(w, space)
    for name, val in defects.items():
        assert val <= 1e-10 * max(1.0, opnorm(w)), (name, val)
    # parts recompose S
    assert orth_frame(np.hstack([split.s_plus.frame,
                                 split.s_minus.frame])).shape[1] == s.dim
    # quadratic-form sign on 1000 random unit vectors of each part
    for part, sign in ((split.s_plus, 1.0), (split.s_minus, -1.0)):
        if part.dim == 0:
            continue
        coeff = crandn(rng, part.dim, 1000)
        coeff /= np.linalg.norm(coeff, axis=0)
        vecs = part.frame @ coeff
        forms = np.einsum("in,ij,jn->n", vecs.conj(),
                          space.j_ref @ w, vecs).real * sign
        assert forms.min() >= -1e-10 * max(1.0, opnorm(w))


def test_w_split_alternate_signature_orthogonality():
    from kreinls import random_signature_operator
    space = standard_space(2, 2)
    rng = np.random.default_rng(5)
    w = random_selfadjoint(rng, space)
    s = Subspace.from_span(crandn(rng, 4, 3))
    sig = random_signature_operator(space, 11)
    split = w_split(s, w, sig, space)
    # orthogonality holds in the signature's inner product
    cross = split.s_plus.frame.conj().T @ sig.gram @ split.s_minus.frame
    assert opnorm(cross) < 1e-10
    for name, val in split.defects(w, space).items():
        assert val <= 1e-9 * max(1.0, opnorm(w)), (name, val)


def test_complementable_examples(space2):
    e1 = Subspace(np.eye(2)[:, :1])
    assert is_complementable(space2.j_ref, e1, space2)
    assert not is_complementable(W_ROT, e1, space2)
    assert is_complementable(np.zeros((2, 2)), e1, space2)
    # hand computation: W^{-1}(S^[perp]) = span{e1}, so S + it is 1-dim
    pre = preimage(W_ROT, orthogonal_companion(e1, space2))
    assert same_span(pre, e1)


def test_symmetric_projection_examples(space2):
    e1 = Subspace(np.eye(2)[:, :1])
    q = symmetric_projection(space2.j_ref, e1, space2)
    assert_allclose(q, np.diag([1.0, 0.0]), atol=1e-12)
    assert_allclose(symmetric_projection(space2.j_ref, Subspace.full(2),
                                         space2), np.eye(2), atol=1e-12)
    with pytest.raises(NotComplementable):
        symmetric_projection(W_ROT, e1, space2)


@pytest.mark.parametrize("seed", range(20))
def test_symmetric_projection_certificate(seed):
    space = standard_space(3, 2)
    rng = np.random.default_rng(seed)
    # invertible selfadjoint weights are complementable for every S
    h = crandn(rng, 5, 5)
    h = 0.5 * (h + h.conj().T) + 3.0 * np.eye(5) * rng.choice([-1, 1])
    w = space.j_ref @ h
    s = Subspace.from_span(crandn(rng, 5, rng.integers(1, 5)))
    q = symmetric_projection(w, s, space)
    assert opnorm(q @ q - q) < 1e-9
    assert same_span(range_subspace(q), s)
    assert opnorm(w @ q - krein_adjoint(q, space) @ w) \
        < 1e-9 * max(1.0, opnorm(w))


def test_projection_with_kernel(space2):
    e1 = Subspace(np.eye(2)[:, :1])
    for seed in range(20):
        e = projection_with_kernel(e1, seed)
        assert opnorm(e @ e - e) < 1e-10
        assert np.linalg.norm(e @ np.array([1.0, 0.0])) < 1e-12
    # zero mixing recovers I - P_S
    e = projection_with_kernel(e1, 0, mix_strength=0.0)
    assert_allclose(e, np.diag([0.0, 1.0]), atol=1e-12)
    # S = {0} admits only E = I
    assert_allclose(projection_with_kernel(Subspace.zero(2), 1), np.eye(2))
    with pytest.raises(DimensionMismatch):
        projection_with_kernel(Subspace.full(2), 0)


def test_oblique_projection_basics():
    rng = np.random.default_rng(1)
    onto = np.linalg.qr(crandn(rng, 4, 2))[0]
    along = np.linalg.qr(crandn(rng, 4, 2))[0]
    q = oblique_projection(onto, along)
    assert opnorm(q @ q - q) < 1e-10
    assert opnorm(q @ onto - onto) < 1e-10
    assert opnorm(q @ along) < 1e-10
