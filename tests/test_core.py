"""Krein arithmetic: adjoints, products, predicates, signatures."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import crandn, random_selfadjoint
from kreinls import (DimensionMismatch, KreinSpace, MalformedInput,
                     NotASignature, NotKreinSelfadjoint, SignatureOperator,
                     Subspace,
                     WeightedProblem, is_krein_positive, is_krein_selfadjoint, krein_adjoint,
                     krein_gram, random_signature_operator, standard_space)


def test_space_validates_reference_signature():
    KreinSpace(2, np.diag([1.0, -1.0]))
    with pytest.raises(NotASignature):
        KreinSpace(2, np.array([[1.0, 1.0], [0.0, -1.0]]))  # not Hermitian
    with pytest.raises(NotASignature):
        KreinSpace(2, np.diag([1.0, -2.0]))                 # not involutive
    with pytest.raises(DimensionMismatch):
        KreinSpace(3, np.diag([1.0, -1.0]))


@pytest.mark.parametrize("tol", [np.nan, np.inf, 0.0, -1.0, True])
def test_space_validates_tol(tol):
    """A tolerance that is not a positive finite real number is malformed
    input, not a fault of the signature."""
    with pytest.raises(MalformedInput, match="'tol' must be a positive"):
        KreinSpace(2, np.diag([1.0, -1.0]), tol=tol)


def test_signature_counts():
    assert standard_space(3, 2).signature_counts == (3, 2)
    assert standard_space(1, 1).signature_counts == (1, 1)


def test_adjoint_identity_cases(space2):
    assert_allclose(krein_adjoint(np.eye(2), space2), np.eye(2))
    assert_allclose(krein_adjoint(space2.j_ref, space2), space2.j_ref)


def test_adjoint_hand_value(space2):
    # J A* J for A = [[1,1],[0,0]] under J = diag(1,-1)
    a = np.array([[1.0, 1.0], [0.0, 0.0]])
    expected = np.array([[1.0, 0.0], [-1.0, 0.0]])
    adj = krein_adjoint(a, space2)
    assert_allclose(adj, expected, atol=1e-15)
    # re-derive through the pairing [Ax, y] = [x, A# y] on the basis
    for i in range(2):
        for j in range(2):
            x, y = np.eye(2)[i], np.eye(2)[j]
            assert_allclose(krein_gram(a @ x, y, space2),
                            krein_gram(x, adj @ y, space2), atol=1e-15)


@pytest.mark.parametrize("seed", range(10))
@pytest.mark.parametrize("dims", [(1, 1), (2, 1), (3, 2), (4, 4)])
def test_adjoint_involution_and_pairing(seed, dims):
    space = standard_space(*dims)
    rng = np.random.default_rng(seed)
    for _ in range(20):
        a = crandn(rng, space.dim, space.dim)
        adj = krein_adjoint(a, space)
        assert np.linalg.norm(krein_adjoint(adj, space) - a) \
            <= 1e-10 * np.linalg.norm(a)
        x = crandn(rng, space.dim)
        y = crandn(rng, space.dim)
        lhs = krein_gram(a @ x, y, space)
        rhs = krein_gram(x, adj @ y, space)
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))


def test_gram_examples(space2):
    e1, e2 = np.eye(2)
    assert krein_gram(e1, e1, space2) == pytest.approx(1.0)
    assert krein_gram(e2, e2, space2) == pytest.approx(-1.0)
    ones = np.array([1.0, 1.0])
    assert krein_gram(ones, ones, space2) == pytest.approx(0.0)


def test_gram_sesquilinear_hermitian(space5):
    rng = np.random.default_rng(3)
    x, y = crandn(rng, 5), crandn(rng, 5)
    a, b = complex(*rng.standard_normal(2)), complex(*rng.standard_normal(2))
    z = crandn(rng, 5)
    lhs = krein_gram(a * x + b * z, y, space5)
    rhs = a * krein_gram(x, y, space5) + b * krein_gram(z, y, space5)
    assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(lhs))
    assert abs(krein_gram(x, y, space5)
               - np.conj(krein_gram(y, x, space5))) < 1e-12


def test_selfadjoint_predicate(space2):
    assert is_krein_selfadjoint(np.eye(2), space2)
    # JW Hermitian by design
    assert is_krein_selfadjoint(np.array([[0.0, 1.0], [-1.0, 0.0]]), space2)
    assert not is_krein_selfadjoint(np.array([[0.0, 1.0], [0.0, 0.0]]),
                                    space2)


def test_positive_predicate(space2):
    assert is_krein_positive(space2.j_ref, space2)          # JW = I
    assert not is_krein_positive(np.eye(2), space2)         # JW = J
    assert is_krein_positive(np.diag([2.0, -3.0]), space2)  # JW = diag(2,3)
    with pytest.raises(NotKreinSelfadjoint):
        is_krein_positive(np.array([[0.0, 1.0], [0.0, 0.0]]), space2)


@pytest.mark.parametrize("seed", range(20))
def test_positivity_matches_quadratic_form_sampling(seed):
    space = standard_space(2, 2)
    rng = np.random.default_rng(seed)
    w = random_selfadjoint(rng, space)
    xs = crandn(rng, 1000, 4)
    forms = np.einsum("ni,ij,nj->n", xs.conj(),
                      space.j_ref @ w, xs).real
    sampled_nonneg = forms.min() >= -1e-10 * np.abs(forms).max()
    assert is_krein_positive(w, space) == sampled_nonneg \
        or abs(forms.min()) < 1e-8 * np.abs(forms).max()


def test_random_signature_invariants(space5):
    for seed in range(30):
        sig = random_signature_operator(space5, seed)
        j = sig.entries
        assert np.linalg.norm(j @ j - np.eye(5)) < 1e-9
        g = space5.j_ref @ j
        assert np.linalg.norm(g - g.conj().T) < 1e-9
        assert np.linalg.eigvalsh(0.5 * (g + g.conj().T)).min() > 1e-6
        # [J'x, x] > 0 for x != 0
        rng = np.random.default_rng(seed + 100)
        for _ in range(10):
            x = crandn(rng, 5)
            val = krein_gram(j @ x, x, space5)
            assert val.real > 0 and abs(val.imag) < 1e-9 * val.real


def test_random_signature_deterministic(space5):
    a = random_signature_operator(space5, 123).entries
    b = random_signature_operator(space5, 123).entries
    assert_allclose(a, b)
    c = random_signature_operator(space5, 124).entries
    assert np.linalg.norm(a - c) > 1e-3


def test_random_signature_zero_strength_is_reference(space5):
    # vanishing generator: V = exp(0) = I, so J' collapses to J_ref
    sig = random_signature_operator(space5, 7, strength=1e-14)
    assert np.linalg.norm(sig.entries - space5.j_ref) < 1e-12


def test_tilted_decomposition_validates(space2, jb_alt):
    sig = SignatureOperator.from_matrix(jb_alt, space2)
    # its fundamental decomposition: (2,1) positive, (1,2) negative
    assert_allclose(sig.entries @ np.array([2.0, 1.0]), [2.0, 1.0],
                    atol=1e-12)
    assert_allclose(sig.entries @ np.array([1.0, 2.0]), [-1.0, -2.0],
                    atol=1e-12)


def test_signature_rejects_non_positive(space2):
    with pytest.raises(NotASignature):
        # Hermitian involution but J_ref * J is indefinite
        SignatureOperator.from_matrix(np.diag([-1.0, 1.0]), space2)
    with pytest.raises(NotASignature):
        SignatureOperator.from_matrix(np.array([[0.5, 0.0], [0.0, 2.0]]),
                                      space2)


def test_constructors_copy_inputs_read_only():
    """KreinSpace, SignatureOperator, Subspace and WeightedProblem keep
    read-only C-contiguous copies: the caller's arrays stay writeable,
    and editing them later changes neither the stored value nor a
    cached norm."""
    j = np.diag([1.0, 1.0, -1.0, -1.0]).astype(complex)
    space = KreinSpace(4, j)
    sig = SignatureOperator.from_matrix(j, space)
    frame = np.eye(4, dtype=complex)[:, :2]
    s = Subspace(np.ascontiguousarray(frame))
    rng = np.random.default_rng(3)
    w = random_selfadjoint(rng, space)
    b = crandn(rng, 4, 4)
    c = np.asfortranarray(crandn(rng, 4, 4))
    p = WeightedProblem(w=w, b=b, c=c, space=space)
    stored = [(j, space.j_ref), (j, sig.entries), (w, p.w), (b, p.b),
              (c, p.c)]
    for given, kept in stored + [(s.frame, s.frame)]:
        assert not kept.flags.writeable and kept.flags.c_contiguous
    for given, kept in stored:
        assert given.flags.writeable and not np.shares_memory(given, kept)

    w_norm, b_norm, c_norm = p.w_norm, p.b_norm, p.c_norm
    assert (w_norm, b_norm, c_norm) == (np.linalg.norm(w, 2),
                                        np.linalg.norm(b, 2),
                                        np.linalg.norm(c, 2))
    for given in (j, w, b, c):
        given *= 2.0
    assert_allclose(space.j_ref, j / 2.0)
    assert_allclose(p.w, w / 2.0)
    assert (p.w_norm, p.b_norm, p.c_norm) == (w_norm, b_norm, c_norm)


def test_records_holding_arrays_compare_by_identity():
    """== and hash neither raise on the array fields nor compare them:
    two records built from the same arrays are distinct objects."""
    from kreinls import (GeneratorSpec, generate_instance, parse_problem,
                         problem_to_dict, solve_imms)

    p = generate_instance(GeneratorSpec(dim=4, seed=0,
                                        regime="range_nonnegative")).problem
    frame = np.eye(3, dtype=complex)[:, :2]
    pairs = [
        (Subspace(frame), Subspace(frame)),
        (WeightedProblem(w=p.w, b=p.b, c=p.c, space=p.space),
         WeightedProblem(w=p.w, b=p.b, c=p.c, space=p.space)),
        (standard_space(1, 1), standard_space(1, 1)),
        (SignatureOperator.reference(p.space),
         SignatureOperator.reference(p.space)),
        (parse_problem(problem_to_dict(problem=p)),
         parse_problem(problem_to_dict(problem=p))),
        (solve_imms(p), solve_imms(p)),
    ]
    for a, b in pairs:
        assert a == a and a != b and not (a == b)
        assert len({a, b}) == 2
