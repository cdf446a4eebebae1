"""Indefinite Schur complement machinery.

The factorization of a weight relative to a subspace (``Factorization``),
the block decomposition, the complementability test R(b) ⊆ R(a) (in
finite dimension R(|a|^{1/2}) = R(a): weak complementability), the Schur
complement c - b* a^† b on S^perp (Anderson & Trapp, "Shorted operators
II") with its certificates, the three-term decomposition
W = W1 + W2 - W3, and the report-producing identity checks.  The sampled
infimum check is in ``evidence``.

All alternate-signature computations run in the associated inner product
(Gram G = J_ref * J'); the compressed blocks are Hermitian there, and the
resulting Schur complement agrees with the reference-signature one to
rounding, which is exactly what the J-independence suites certify.
"""

from dataclasses import asdict, dataclass
from functools import cached_property

import numpy as np

from .core import (SignatureOperator, krein_sandwich,
                   random_signature_operator, require_krein_selfadjoint)
from .errors import (InternalCertificateFailure, NotComplementable,
                     NotWeaklyComplementable)
from .linalg import (Norm, excess, generalized_eigh, herm, herm_pinv_apply,
                     g_orthonormalize, kept_eigenvalues, min_eig_herm,
                     null_frame, opnorm, within)
from .subspaces import Subspace, WSplit, is_complementable


@dataclass(frozen=True, eq=False)
class BlockDecomposition:
    """Blocks of the weight form relative to S and the signature's inner
    product: a on S, c on the complement, b the coupling."""

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    basis_s: np.ndarray
    basis_sperp: np.ndarray
    signature: SignatureOperator

    def reconstruction_defect(self, w, space):
        """How far T [[a,b],[b*,c]] T* G is from the compressed weight."""
        t = np.hstack([self.basis_s, self.basis_sperp])
        blocks = np.block([[self.a, self.b], [self.b.conj().T, self.c]])
        rebuilt = t @ blocks @ t.conj().T @ self.signature.gram
        return opnorm(rebuilt - self.signature.entries @ w)


def block_decompose(w, s, signature, space, rank_tol=None):
    """Matrix representation of the weight form induced by S.

    Frames of S and of its complement are orthonormalized in the
    signature's inner product; the matrix elements of the compressed form
    are frame* (J_ref W) frame, Hermitian on the diagonal blocks.
    """
    return Factorization(w, s, space, rank_tol).blocks_under(signature)


# R(b) ⊆ R(|a|^{1/2}) = R(a) in finite dimension: ``is_complementable``
is_weakly_complementable = is_complementable


@dataclass(frozen=True, eq=False)
class SchurResult:
    """Schur complement W_{/[S]}, compression W_{[S]} = W - W_{/[S]},
    and the blocks it was computed from."""

    schur: np.ndarray
    compression: np.ndarray
    blocks: BlockDecomposition


def schur_complement(w, s, space, signature=None, rank_tol=None):
    """Schur complement of the weight to S (shorted operator).

    Computed from the blocks relative to the given signature (reference
    by default): once R(b) ⊆ R(a) (else NotWeaklyComplementable), the
    complement is carried by c - b* a^† b on the complement of S.  The
    result does not depend on the signature;
    recomputation under alternates is how the independence suites check
    that.
    """
    fac = Factorization(w, s, space, rank_tol)
    return fac.schur if signature is None else fac.schur_under(signature)


class Factorization:
    """The weight W relative to a subspace S, factored once.

    Every (W, S) question of the paper comes from this one object, each
    computed on first use and then kept: the blocks [[a, b], [b*, c]] on
    (S, S^perp), complementability, the Schur complement W_{/[S]}, the
    W-symmetric projection Q, the split S_+ [+] S_- and the closed forms
    C^# W_{/[S]} C and C^# W (I - Q) C.  S^perp is the one ``from_span``
    kept (or a QR of a given frame).  One eigh of the compressed form a
    answers the rest: its signs, its rank, R(b) ⊆ R(a) (decided once),
    the a^† b that Q, the closed forms and the Schur complement
    c - b* a^† b read and, under a Gram equal to I, the split.

    A factorization lives for one public call: its caches hold dim x dim
    arrays, so it is never stored on a longer-lived value such as a
    ``KreinSpace`` or a ``WeightedProblem``.  W is validated here unless
    the caller passes ``norm``, the ||W|| of a validated W (or of the one
    W derived from) that every decision is judged at; ``jw`` (J_ref W)
    and ``reference`` (the reference signature) fill those caches.
    """

    def __init__(self, w, s, space, rank_tol=None, *, norm=None, jw=None,
                 reference=None):
        if norm is None:
            w, jw, norm = require_krein_selfadjoint(w, space)
        vars(self).update(w=w, s=s, space=space, rank_tol=rank_tol,
                          norm=norm)
        for name, value in (("jw", jw), ("reference", reference)):
            if value is not None:
                vars(self)[name] = value

    def __setattr__(self, name, value):
        raise AttributeError("a Factorization is immutable")

    def on(self, s):
        """The same weight relative to another subspace."""
        return Factorization(self.w, s, self.space, self.rank_tol,
                             norm=self.norm, jw=self.jw,
                             reference=vars(self).get("reference"))

    @cached_property
    def jw(self):
        return self.space.j_ref @ self.w

    @cached_property
    def reference(self):
        return SignatureOperator.reference(self.space)

    @cached_property
    def _coordinate_complement(self):
        return self.s.coordinate_complement().frame

    @cached_property
    def rows(self):
        """R = S* (J_ref W), k x n."""
        return self.s.frame.conj().T @ self.jw

    @cached_property
    def form(self):
        """The compressed form S* (J_ref W) S = R S."""
        return self.rows @ self.s.frame

    # a = herm(R S), b = R S^perp, one eigh (lam ascending, vec) of a, and
    # the eigenvalues that a's rank, decided at dim k and ||W||, keeps
    _a = cached_property(lambda self: herm(self.form))
    _coupling = cached_property(
        lambda self: self.rows @ self._coordinate_complement)
    spectrum = cached_property(lambda self: np.linalg.eigh(self._a))
    kept = cached_property(lambda self: kept_eigenvalues(
        self.spectrum[0], len(self.spectrum[0]), self.rank_tol, self.norm))

    @cached_property
    def nonnegative(self):
        """[Wx, x] >= 0 on S (compressed form PSD within tol)?"""
        lam = self.spectrum[0]
        return not lam.size or float(lam[0]) >= -self.space.tol * self.norm

    @cached_property
    def nonpositive(self):
        """[Wx, x] <= 0 on S (compressed form NSD within tol)?"""
        lam = self.spectrum[0]
        return not lam.size or -float(lam[-1]) >= -self.space.tol * self.norm

    def _douglas_excess(self, b, vec, kept):
        """None when R(b) ⊆ R(a) for a Hermitian a whose rank keeps the
        eigenvectors vec[:, kept]: the Douglas residual b - P_R(a) b is
        within tol ||b||, or b within tol ||W||.  Else the residual."""
        tol, bn = self.space.tol, Norm(b)
        if bn.high <= tol * self.norm:
            return None     # coupling block vanishes at the weight's scale
        ra = vec[:, kept]
        resid = excess(b - ra @ (ra.conj().T @ b), tol, bn)
        return None if resid is None or within(bn, tol * self.norm) \
            else resid

    _douglas = cached_property(lambda self: self._douglas_excess(
        self._coupling, self.spectrum[1], self.kept))

    complementable = property(lambda self: self._douglas is None, doc="""
        H = S + W^{-1}(S^[perp])?  That is R(b) ⊆ R(a): the Douglas
        residual of b against a's kept eigenvectors.""")

    def blocks_under(self, signature):
        """The blocks of the weight form relative to S in the signature's
        inner product (see block_decompose)."""
        g, f, jw = signature.gram, self.s.frame, self.jw
        if signature.unit_gram:     # S and S^perp are already orthonormal
            u, v = f, self._coordinate_complement
            a, b = self._a, self._coupling
        else:
            u = g_orthonormalize(f, g)
            v = g_orthonormalize(null_frame(f.conj().T @ g, self.rank_tol)
                                 if f.shape[1] else np.eye(self.space.dim),
                                 g)
            a, b = herm(u.conj().T @ jw @ u), u.conj().T @ jw @ v
        return BlockDecomposition(a=a, b=b, c=herm(v.conj().T @ jw @ v),
                                  basis_s=u, basis_sperp=v,
                                  signature=signature)

    @cached_property
    def blocks(self):
        """The blocks relative to the reference signature."""
        return self.blocks_under(self.reference)

    def _core(self, blocks):
        """herm(c - b* a^† b), the Schur complement on the blocks' S^perp
        basis, once R(b) ⊆ R(a) holds (else NotWeaklyComplementable).  The
        reference form's test and a^† b are the cached ones; blocks in
        another inner product take their own eigh of a."""
        own = not blocks.signature.unit_gram    # else a is the form
        if own:
            lam, vec = np.linalg.eigh(blocks.a)
            kept = kept_eigenvalues(lam, len(lam), self.rank_tol, self.norm)
            resid = self._douglas_excess(blocks.b, vec, kept)
        else:
            resid = self._douglas
        if resid is not None:
            raise NotWeaklyComplementable(
                f"R(b) not inside R(|a|^1/2): residual {resid:.3e}")
        a_pinv_b = herm_pinv_apply(lam, vec, kept, blocks.b) if own \
            else self._a_pinv_b
        return herm(blocks.c - blocks.b.conj().T @ a_pinv_b)

    @cached_property
    def schur(self):
        """The checked SchurResult from the reference blocks."""
        return self.schur_under(self.reference)

    def schur_under(self, signature):
        """The checked SchurResult computed in the signature's blocks:
        W_{/[S]} = J' v core v* G on their S^perp basis v."""
        space, wn = self.space, self.norm
        blocks = self.blocks if signature is self.reference \
            else self.blocks_under(signature)
        core = self._core(blocks)
        v = blocks.basis_sperp
        vg = v.conj().T if signature.unit_gram \
            else v.conj().T @ signature.gram
        schur = signature.entries @ (v @ core @ vg)

        tol, s = space.tol * wn, self.s.frame
        j_schur = space.j_ref @ schur
        if s.size and not within(schur @ s, tol):
            raise InternalCertificateFailure("S is not inside N(W_{/[S]})")
        # S^[perp] = J_ref S^perp is the kernel of S* J_ref
        if not within(s.conj().T @ j_schur, tol):
            raise InternalCertificateFailure(
                "R(W_{/[S]}) is not inside S^[perp]")
        if not within(j_schur - j_schur.conj().T, tol):
            raise InternalCertificateFailure("W_{/[S]} is not selfadjoint")
        return SchurResult(schur=schur, compression=self.w - schur,
                           blocks=blocks)

    def schur_form(self, c):
        """C^# W_{/[S]} C = J_ref (v* G C)* core (v* G C) on the reference
        blocks' S^perp basis v (v* C when G = I by value), with no dim x
        dim complement: O(dim^2 (dim - k))."""
        ref, blocks = self.reference, self.blocks
        core, vt = self._core(blocks), blocks.basis_sperp.conj().T
        vc = vt @ c if ref.unit_gram else vt @ (ref.gram @ c)
        return self.space.j_ref @ vc.conj().T @ (core @ vc)

    def projection_form(self, c):
        """C^# W (I - Q) C with no Q: I - Q = (V - S a^† b) V* for
        V = S^perp, so it is J_ref C* (J_ref W (V - S a^† b)) (V* C)."""
        v = self._coordinate_complement
        y = self.jw @ (v - self.s.frame @ self._a_pinv_b)
        return self.space.j_ref @ (c.conj().T @ y) @ (v.conj().T @ c)

    @cached_property
    def _a_pinv_b(self):
        """a^† b, a^† read off a's one eigh."""
        return herm_pinv_apply(*self.spectrum, self.kept, self._coupling)

    @cached_property
    def q(self):
        """The canonical W-symmetric projection Q = S (S* + a^† b V*) onto
        S, V = S^perp (see symmetric_projection); 0 for S = 0."""
        space, s = self.space, self.s.frame
        if not s.size:
            return np.zeros((space.dim, space.dim), dtype=complex)
        if not self.complementable:
            raise NotComplementable(
                "S + W^{-1}(S^[perp]) does not fill the space")
        v = self._coordinate_complement
        q = s @ (s.conj().T + self._a_pinv_b @ v.conj().T)

        qn = Norm(q)
        if not within(q @ q - q, space.tol, qn, qn):
            raise InternalCertificateFailure("projection is not idempotent")
        sym = self.jw @ q - q.conj().T @ self.jw   # WQ = Q^#W in coordinates
        if not within(sym, space.tol * self.norm, qn):
            raise InternalCertificateFailure(
                "constructed projection is not W-symmetric")
        return q

    def split_coordinates(self, signature):
        """(split, vec_+, vec_-, g): S_+/- = S vec_+/-, where vec holds the
        eigenvectors of a against g = S* G S, so the frames are orthonormal
        in the signature's inner product.  When G = I by value they are
        a's one eigh, and g is None (I)."""
        u = self.s.frame
        if signature.unit_gram:
            (lam, vec), g = self.spectrum, None
        else:
            g = herm(u.conj().T @ signature.gram @ u)
            lam, vec = generalized_eigh(self._a, g)
        plus = lam >= -self.space.tol * self.norm
        vp, vm = vec[:, plus], vec[:, ~plus]
        return (WSplit(s_plus=Subspace(u @ vp), s_minus=Subspace(u @ vm),
                       signature=signature), vp, vm, g)

    @cached_property
    def split(self):
        """The split S_+ [+] S_- under the reference signature."""
        return self.split_coordinates(self.reference)[0]

    @cached_property
    def plus(self):
        """The weight relative to S_+."""
        return self.on(self.split.s_plus)

    @cached_property
    def minus(self):
        """The weight relative to S_-."""
        return self.on(self.split.s_minus)


def decompose_w1w2w3(w, s, space, rank_tol=None):
    """Three-term decomposition W = W1 + W2 - W3 with S ⊆ N(W1),
    S_- ⊆ N(W2), S_+ ⊆ N(W3) and W2, W3 positive.

    W1 is the Schur complement; W2 = Q_+^# W Q_+ and W3 = -Q_-^# W Q_-
    where Q_+/Q_- are the canonical W-symmetric projections onto the split
    parts; [W s_+, s_-] = 0 and S_+ ⊥ S_- put the opposite part in their
    kernels.  Every membership, positivity and sum invariant is checked
    before returning.
    """
    return _decompose(Factorization(w, s, space, rank_tol))


def _decompose(fac):
    w, s, space = fac.w, fac.s, fac.space
    if not fac.complementable:
        raise NotComplementable("weight is not complementable for S")
    split = fac.split
    w2 = krein_sandwich(fac.plus.q, w, space)
    w3 = -krein_sandwich(fac.minus.q, w, space)
    w1 = fac.schur.schur

    tol = space.tol * fac.norm
    checks = {"sum": w - (w1 + w2 - w3), "s_in_null_w1": w1 @ s.frame,
              "minus_in_null_w2": w2 @ split.s_minus.frame,
              "plus_in_null_w3": w3 @ split.s_plus.frame}
    for name, r in checks.items():
        if (resid := excess(r, tol)) is not None:
            raise InternalCertificateFailure(
                f"three-term decomposition check {name} failed: {resid:.3e}")
    for name, mat in (("w2", w2), ("w3", w3)):
        if min_eig_herm(space.j_ref @ mat) < -tol:
            raise InternalCertificateFailure(
                f"three-term decomposition: {name} is not positive")
    return w1, w2, w3


@dataclass(frozen=True)
class SchurIdentityReport:
    """Residuals (relative to the weight norm) of the shorted-operator
    identities, plus a cross-signature recomputation residual."""

    iterated_plus_minus: float
    iterated_minus_plus: float
    three_term: float
    projection_formula: float
    cross_signature: float
    weight_norm: float

    def residuals(self):
        return {k: v for k, v in asdict(self).items() if k != "weight_norm"}

    def max_residual(self):
        return max(self.residuals().values())

    def passed(self, rtol):
        return self.max_residual() <= rtol


def verify_schur_identities(w, s, space, seed=0, rank_tol=None):
    """Check the iterated-shorting, three-term and projection identities
    on one complementable instance; the seed picks the alternate
    signature for the cross-check residual."""
    fac = Factorization(w, s, space, rank_tol)
    w = fac.w
    if not fac.complementable:
        raise NotComplementable("weight is not complementable for S")
    wn = max(fac.norm, np.finfo(float).tiny)
    schur = fac.schur.schur
    split = fac.split

    def shorted(weight, part):
        # judged at ||W||: a derived weight may be a rounding-level zero
        _, jw, _ = require_krein_selfadjoint(weight, space, norm=fac.norm)
        return Factorization(weight, part, space, rank_tol, norm=fac.norm,
                             jw=jw, reference=fac.reference).schur.schur

    via_plus = shorted(fac.plus.schur.schur, split.s_minus)
    via_minus = shorted(fac.minus.schur.schur, split.s_plus)

    w1, w2, w3 = _decompose(fac)
    three_term = w1 + shorted(w2, split.s_plus) - shorted(w3, split.s_minus)

    w_iq = w @ (np.eye(space.dim) - fac.q)

    alt = random_signature_operator(space, seed)
    alt_schur = fac.schur_under(alt).schur

    return SchurIdentityReport(
        iterated_plus_minus=opnorm(schur - via_plus) / wn,
        iterated_minus_plus=opnorm(schur - via_minus) / wn,
        three_term=opnorm(schur - three_term) / wn,
        projection_formula=opnorm(schur - w_iq) / wn,
        cross_signature=opnorm(schur - alt_schur) / wn,
        weight_norm=wn)
