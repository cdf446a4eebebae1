"""Schur complement: blocks, weak complementability, certificates,
three-term decomposition, identity and infimum reports."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from kreinls import (GeneratorSpec, NotComplementable,
                     NotWeaklyComplementable, RangeNotNonnegative,
                     SignatureOperator, Subspace, block_decompose,
                     decompose_w1w2w3, generate_instance,
                     is_krein_positive, is_weakly_complementable,
                     krein_adjoint, projection_infimum_check,
                     random_signature_operator, schur_complement,
                     standard_space, verify_schur_identities)
from kreinls.linalg import min_eig_herm, opnorm

W_ROT = np.array([[0.0, 1.0], [-1.0, 0.0]])
E1 = lambda: Subspace(np.eye(2, dtype=complex)[:, :1])


def test_block_examples(space2):
    ref = SignatureOperator.reference(space2)
    s = E1()
    blocks = block_decompose(space2.j_ref, s, ref, space2)   # JW = I
    assert_allclose(blocks.a, [[1.0]], atol=1e-14)
    assert_allclose(blocks.b, [[0.0]], atol=1e-14)
    assert_allclose(blocks.c, [[1.0]], atol=1e-14)

    blocks = block_decompose(W_ROT, s, ref, space2)          # JW = [[0,1],[1,0]]
    assert_allclose(blocks.a, [[0.0]], atol=1e-14)
    assert abs(abs(blocks.b[0, 0]) - 1.0) < 1e-14
    assert_allclose(blocks.c, [[0.0]], atol=1e-14)

    blocks = block_decompose(W_ROT, Subspace.zero(2), ref, space2)
    assert blocks.a.shape == (0, 0) and blocks.b.shape == (0, 2)
    assert_allclose(blocks.c, space2.j_ref @ W_ROT, atol=1e-14)
    assert blocks.reconstruction_defect(W_ROT, space2) < 1e-12


def test_block_reconstruction_alternate_signature():
    inst = generate_instance(GeneratorSpec(dim=5, seed=21,
                                           regime="complementable"))
    sig = random_signature_operator(inst.space, 9)
    blocks = block_decompose(inst.problem.w, inst.subspace, sig, inst.space)
    assert opnorm(blocks.a - blocks.a.conj().T) < 1e-12
    assert opnorm(blocks.c - blocks.c.conj().T) < 1e-12
    assert blocks.reconstruction_defect(inst.problem.w, inst.space) \
        < 1e-10 * opnorm(inst.problem.w)


def test_weakly_complementable_examples(space2):
    s = E1()
    assert is_weakly_complementable(space2.j_ref, s, space2)
    assert not is_weakly_complementable(W_ROT, s, space2)
    # S inside N(JW) with vanishing coupling
    w = space2.j_ref @ np.diag([0.0, 1.0])
    assert is_weakly_complementable(w, s, space2)


def test_schur_trivial_cases(space2):
    s = E1()
    res = schur_complement(space2.j_ref, s, space2)
    assert_allclose(res.schur, np.diag([0.0, -1.0]), atol=1e-14)
    assert_allclose(res.schur + res.compression, space2.j_ref, atol=1e-14)

    res = schur_complement(W_ROT, Subspace.zero(2), space2)
    assert_allclose(res.schur, W_ROT, atol=1e-14)
    res = schur_complement(W_ROT, Subspace.full(2), space2)
    assert_allclose(res.schur, np.zeros((2, 2)), atol=1e-14)

    with pytest.raises(NotWeaklyComplementable):
        schur_complement(W_ROT, s, space2)


def test_schur_identity_weight_derived(space2):
    """W = I shorted to span{e1} is diag(0,1); oracle: sweep the two free
    entries of BX - I and verify diag(0,1) is the indefinite-order floor
    of F(X) = (BX-I)^# (BX-I), attained on the sweep."""
    s = E1()
    res = schur_complement(np.eye(2), s, space2)
    assert_allclose(res.schur, np.diag([0.0, 1.0]), atol=1e-14)

    b = np.diag([1.0, 0.0])
    grid = np.linspace(-2.0, 2.0, 9)
    attained = False
    for x1r in grid:
        for x1i in grid:
            for x2r in grid:
                for x2i in grid:
                    x = np.array([[x1r + 1j * x1i, x2r + 1j * x2i],
                                  [0.0, 0.0]])
                    r = b @ x - np.eye(2)
                    f = krein_adjoint(r, space2) @ r
                    gap = space2.j_ref @ (f - res.schur)
                    assert min_eig_herm(gap) >= -1e-12
                    if opnorm(f - res.schur) < 1e-12:
                        attained = True
    assert attained


def test_schur_certificates_and_j_independence():
    for seed in range(30):
        inst = generate_instance(GeneratorSpec(dim=2 + seed % 6,
                                               seed=400 + seed,
                                               regime="complementable"))
        w, s, space = inst.problem.w, inst.subspace, inst.space
        res = schur_complement(w, s, space)
        wn = opnorm(w)
        if s.dim:
            assert opnorm(res.schur @ s.frame) < 1e-9 * max(1.0, wn)
        assert is_krein_positive(np.zeros_like(w), space)  # sanity
        for k in range(3):
            alt = random_signature_operator(space, 900 + 3 * seed + k)
            other = schur_complement(w, s, space, signature=alt).schur
            assert opnorm(res.schur - other) <= 1e-8 * max(1.0, wn)


def test_decompose_w1w2w3_identity_weight(space2):
    """W = I on the full space splits into W1 = 0, W2 = diag(1,0),
    W3 = diag(0,-1); the parts are positive in the indefinite order."""
    w1, w2, w3 = decompose_w1w2w3(np.eye(2), Subspace.full(2), space2)
    assert_allclose(w1, np.zeros((2, 2)), atol=1e-12)
    assert_allclose(w2, np.diag([1.0, 0.0]), atol=1e-12)
    assert_allclose(w3, np.diag([0.0, -1.0]), atol=1e-12)
    assert is_krein_positive(w2, space2) and is_krein_positive(w3, space2)


def test_decompose_w1w2w3_nonnegative_subspace(space2):
    # S W-nonnegative: W3 = 0 and the compression is positive
    w1, w2, w3 = decompose_w1w2w3(space2.j_ref, Subspace.full(2), space2)
    assert_allclose(w3, np.zeros((2, 2)), atol=1e-12)
    assert_allclose(w1 + w2, space2.j_ref, atol=1e-12)
    assert is_krein_positive(w2, space2)

    # S inside N(W): W1 = W, W2 = W3 = 0
    w = space2.j_ref @ np.diag([0.0, 1.0])
    w1, w2, w3 = decompose_w1w2w3(w, E1(), space2)
    assert_allclose(w1, w, atol=1e-12)
    assert_allclose(w2, np.zeros((2, 2)), atol=1e-12)
    assert_allclose(w3, np.zeros((2, 2)), atol=1e-12)


@pytest.mark.parametrize("seed", range(12))
def test_decompose_w1w2w3_properties(seed):
    inst = generate_instance(GeneratorSpec(dim=3 + seed % 5, seed=70 + seed,
                                           regime="complementable"))
    w, s, space = inst.problem.w, inst.subspace, inst.space
    w1, w2, w3 = decompose_w1w2w3(w, s, space)
    wn = max(1.0, opnorm(w))
    assert opnorm(w - (w1 + w2 - w3)) < 1e-9 * wn
    assert opnorm(w1 @ s.frame) < 1e-9 * wn
    # W2 and W3 may be rounding-level zeros (seeds 70 and 78): judge them
    # at ||W||, the bound decompose_w1w2w3 certifies
    tol = space.tol * opnorm(w)
    for part in (w2, w3):
        jp = space.j_ref @ part
        assert opnorm(jp - jp.conj().T) <= tol
        assert min_eig_herm(jp) >= -tol

    with pytest.raises(NotComplementable):
        decompose_w1w2w3(W_ROT, E1(), standard_space(1, 1))


def test_identity_report_trivial_and_random(space2):
    rep = verify_schur_identities(space2.j_ref, E1(), space2, seed=0)
    assert rep.max_residual() < 1e-12

    for seed in range(10):
        inst = generate_instance(GeneratorSpec(dim=4, seed=140 + seed,
                                               regime="complementable"))
        rep = verify_schur_identities(inst.problem.w, inst.subspace,
                                      inst.space, seed=seed)
        assert rep.max_residual() < 1e-8, rep.residuals()

    with pytest.raises(NotComplementable):
        verify_schur_identities(W_ROT, E1(), space2)


def test_projection_infimum_equality_is_algebraic(space2):
    """(I-Q)^# W (I-Q) = W(I-Q) when WQ = Q^# W: check by direct product
    on a random complementable nonnegative instance."""
    from kreinls import symmetric_projection

    inst = generate_instance(GeneratorSpec(dim=4, seed=77,
                                           regime="range_nonnegative"))
    w, s, space = inst.problem.w, inst.subspace, inst.space
    q = symmetric_projection(w, s, space)
    e0 = np.eye(4) - q
    lhs = krein_adjoint(e0, space) @ w @ e0
    assert opnorm(lhs - w @ e0) < 1e-10 * max(1.0, opnorm(w))

    chk = projection_infimum_check(w, s, space, n_samples=200, seed=3)
    assert chk.violations == 0
    assert chk.equality_residual < 1e-9
    assert chk.min_floor >= -1e-10


def test_projection_infimum_rejects_wrong_sign():
    inst = generate_instance(GeneratorSpec(dim=4, seed=78,
                                           regime="range_nonpositive"))
    with pytest.raises(RangeNotNonnegative):
        projection_infimum_check(inst.problem.w, inst.subspace, inst.space,
                                 n_samples=5, seed=0)


def test_weak_equals_full_complementability_on_degenerates():
    """The range test R(b) ⊆ R(a) agrees with the oracle's count
    dim(S + T) = dim, and so does the Schur complement's own test under an
    alternate signature: it raises NotWeaklyComplementable exactly on the
    weights that are not complementable."""
    from kreinls import oracle_sum_dimension

    regimes = ("complementable", "non_complementable", "range_nonnegative",
               "neutral_directions")
    for i in range(80):
        inst = generate_instance(GeneratorSpec(dim=2 + i % 6, seed=3000 + i,
                                               regime=regimes[i % 4]))
        weak = is_weakly_complementable(inst.problem.w, inst.subspace,
                                        inst.space)
        full = oracle_sum_dimension(inst.problem, inst.subspace) \
            == inst.space.dim
        assert weak == full
        alt = random_signature_operator(inst.space, i)
        try:
            schur_complement(inst.problem.w, inst.subspace, inst.space, alt)
        except NotWeaklyComplementable:
            assert not full
        else:
            assert full
