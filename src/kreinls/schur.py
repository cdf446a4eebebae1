"""Indefinite Schur complement machinery.

The block decomposition of the weight relative to a subspace, the weak
complementability test, the Anderson-Trapp style Schur complement with its
certificates, the three-term decomposition W = W1 + W2 - W3, and the
report-producing identity checks.

All alternate-signature computations run in the associated inner product
(Gram G = J_ref * J'); the compressed blocks are Hermitian there, and the
resulting Schur complement agrees with the reference-signature one to
rounding, which is exactly what the J-independence suites certify.
"""

from dataclasses import dataclass

import numpy as np

from .core import (SignatureOperator, krein_sandwich,
                   random_signature_operator, require_krein_selfadjoint)
from .errors import (InternalCertificateFailure, NotComplementable,
                     NotWeaklyComplementable, RangeNotNonnegative)
from .linalg import (herm, herm_sign_and_root, g_orthocomplement,
                     g_orthonormalize, min_eig_herm, opnorm, orth_frame,
                     scale_of)
from .subspaces import (is_complementable, is_w_nonnegative,
                        orthogonal_companion, projection_with_kernel,
                        symmetric_projection, w_split)


@dataclass(frozen=True)
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
    w = require_krein_selfadjoint(w, space)
    g = signature.gram
    u = g_orthonormalize(s.frame, g)
    v = g_orthocomplement(s.frame, g, space.dim, rank_tol)
    jw = space.j_ref @ w
    return BlockDecomposition(
        a=herm(u.conj().T @ jw @ u),
        b=u.conj().T @ jw @ v,
        c=herm(v.conj().T @ jw @ v),
        basis_s=u, basis_sperp=v, signature=signature)


def is_weakly_complementable(w, s, space, rank_tol=None):
    """Range inclusion R(b) ⊆ R(a) for the reference-signature blocks.

    At finite dimension R(|a|^{1/2}) = R(a), so this is the full weak
    complementability test; it must (and, per the cross-check suites,
    does) agree with the dimension-count test of is_complementable.
    """
    blocks = block_decompose(
        w, s, SignatureOperator.reference(space), space, rank_tol)
    return _range_inclusion_holds(blocks.a, blocks.b, w, space, rank_tol)


def _range_inclusion_holds(a, b, w, space, rank_tol=None):
    wn = opnorm(w)
    if b.size == 0 or opnorm(b) <= space.tol * wn:
        return True     # coupling block vanishes at the weight's scale
    ra = orth_frame(a, rank_tol, context=wn)
    resid = b - ra @ (ra.conj().T @ b)
    return opnorm(resid) <= space.tol * opnorm(b)


@dataclass(frozen=True)
class SchurResult:
    """Schur complement W_{/[S]}, compression W_{[S]} = W - W_{/[S]},
    and the block certificate (reduced solution f, polar isometry u)."""

    schur: np.ndarray
    compression: np.ndarray
    reduced_solution: np.ndarray
    polar_isometry: np.ndarray
    blocks: BlockDecomposition


def schur_complement(w, s, space, signature=None, rank_tol=None):
    """Schur complement of the weight to S (shorted operator).

    Computed from the blocks relative to the given signature (reference
    by default): polar decomposition a = u|a|, reduced solution
    f = pinv(|a|^{1/2}) b, then the complement is carried by c - f* u f on
    the complement of S.  The result does not depend on the signature;
    recomputation under alternates is how the independence suites check
    that.
    """
    w = require_krein_selfadjoint(w, space)
    if signature is None:
        signature = SignatureOperator.reference(space)
    blocks = block_decompose(w, s, signature, space, rank_tol)
    wn = opnorm(w)
    u, root, rootinv = herm_sign_and_root(blocks.a, rank_tol, context=wn)
    f = rootinv @ blocks.b
    if blocks.b.size and opnorm(blocks.b) > space.tol * wn:
        douglas = opnorm(root @ f - blocks.b)
        if douglas > space.tol * opnorm(blocks.b):
            raise NotWeaklyComplementable(
                f"R(b) not inside R(|a|^1/2): residual {douglas:.3e}")
    core = herm(blocks.c - f.conj().T @ u @ f)
    v = blocks.basis_sperp
    schur = signature.entries @ (v @ core @ v.conj().T @ signature.gram)
    result = SchurResult(
        schur=schur, compression=w - schur,
        reduced_solution=f, polar_isometry=u, blocks=blocks)
    _check_schur_certificates(result, w, s, space)
    return result


def _check_schur_certificates(result, w, s, space):
    sc = scale_of(w)
    tol = space.tol * sc
    if s.dim and opnorm(result.schur @ s.frame) > tol:
        raise InternalCertificateFailure("S is not inside N(W_{/[S]})")
    companion = orthogonal_companion(s, space)
    outside = result.schur - companion.projector() @ result.schur
    if opnorm(outside) > tol:
        raise InternalCertificateFailure(
            "R(W_{/[S]}) is not inside S^[perp]")
    j_schur = space.j_ref @ result.schur
    if opnorm(j_schur - j_schur.conj().T) > tol:
        raise InternalCertificateFailure("W_{/[S]} is not selfadjoint")


def decompose_w1w2w3(w, s, space, rank_tol=None):
    """Three-term decomposition W = W1 + W2 - W3 with S ⊆ N(W1),
    S_- ⊆ N(W2), S_+ ⊆ N(W3) and W2, W3 positive.

    W1 is the Schur complement; W2 = Q_+^# W Q_+ and W3 = -Q_-^# W Q_-
    where Q_+/Q_- are W-symmetric projections onto the split parts whose
    kernels are forced through the opposite part.  Every membership,
    positivity and sum invariant is checked before returning.
    """
    w = require_krein_selfadjoint(w, space)
    if not is_complementable(w, s, space, rank_tol):
        raise NotComplementable("weight is not complementable for S")
    split = w_split(s, w, SignatureOperator.reference(space), space)
    q_plus = _split_projection(w, split.s_plus, split.s_minus, space, rank_tol)
    q_minus = _split_projection(w, split.s_minus, split.s_plus, space, rank_tol)
    w2 = krein_sandwich(q_plus, w, space)
    w3 = -krein_sandwich(q_minus, w, space)
    w1 = schur_complement(w, s, space, rank_tol=rank_tol).schur

    sc = scale_of(w)
    tol = space.tol * sc
    checks = {
        "sum": opnorm(w - (w1 + w2 - w3)),
        "s_in_null_w1": opnorm(w1 @ s.frame) if s.dim else 0.0,
        "minus_in_null_w2":
            opnorm(w2 @ split.s_minus.frame) if split.s_minus.dim else 0.0,
        "plus_in_null_w3":
            opnorm(w3 @ split.s_plus.frame) if split.s_plus.dim else 0.0,
    }
    for name, resid in checks.items():
        if resid > tol:
            raise InternalCertificateFailure(
                f"three-term decomposition check {name} failed: {resid:.3e}")
    for name, mat in (("w2", w2), ("w3", w3)):
        if min_eig_herm(space.j_ref @ mat) < -tol:
            raise InternalCertificateFailure(
                f"three-term decomposition: {name} is not positive")
    return w1, w2, w3


def _split_projection(w, part, opposite, space, rank_tol):
    if part.dim == 0:
        return np.zeros((space.dim, space.dim), dtype=complex)
    return symmetric_projection(
        w, part, space, extra_kernel=opposite.frame, rank_tol=rank_tol)


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
        return {
            "iterated_plus_minus": self.iterated_plus_minus,
            "iterated_minus_plus": self.iterated_minus_plus,
            "three_term": self.three_term,
            "projection_formula": self.projection_formula,
            "cross_signature": self.cross_signature,
        }

    def max_residual(self):
        return max(self.residuals().values())

    def passed(self, rtol):
        return self.max_residual() <= rtol


def verify_schur_identities(w, s, space, seed=0, rank_tol=None):
    """Check the iterated-shorting, three-term and projection identities
    on one complementable instance; the seed picks the alternate
    signature for the cross-check residual."""
    w = require_krein_selfadjoint(w, space)
    if not is_complementable(w, s, space, rank_tol):
        raise NotComplementable("weight is not complementable for S")
    wn = max(opnorm(w), np.finfo(float).tiny)
    schur = schur_complement(w, s, space, rank_tol=rank_tol).schur
    split = w_split(s, w, SignatureOperator.reference(space), space)

    via_plus = schur_complement(
        schur_complement(w, split.s_plus, space, rank_tol=rank_tol).schur,
        split.s_minus, space, rank_tol=rank_tol).schur
    via_minus = schur_complement(
        schur_complement(w, split.s_minus, space, rank_tol=rank_tol).schur,
        split.s_plus, space, rank_tol=rank_tol).schur

    w1, w2, w3 = decompose_w1w2w3(w, s, space, rank_tol)
    w2_short = schur_complement(w2, split.s_plus, space, rank_tol=rank_tol).schur
    w3_short = schur_complement(w3, split.s_minus, space, rank_tol=rank_tol).schur
    three_term = w1 + w2_short - w3_short

    q = symmetric_projection(w, s, space, rank_tol=rank_tol)
    w_iq = w @ (np.eye(space.dim) - q)

    alt = random_signature_operator(space, seed)
    alt_schur = schur_complement(w, s, space, signature=alt,
                                 rank_tol=rank_tol).schur

    return SchurIdentityReport(
        iterated_plus_minus=opnorm(schur - via_plus) / wn,
        iterated_minus_plus=opnorm(schur - via_minus) / wn,
        three_term=opnorm(schur - three_term) / wn,
        projection_formula=opnorm(schur - w_iq) / wn,
        cross_signature=opnorm(schur - alt_schur) / wn,
        weight_norm=wn)


@dataclass(frozen=True)
class ProjectionInfimumReport:
    """Sampled-projection lower-bound evidence for the infimum
    characterization of the Schur complement."""

    n_samples: int
    min_floor: float          # most negative normalized eigenvalue seen
    equality_residual: float  # || E0^# W E0 - W_{/[S]} || / ||W||
    violations: int           # samples whose floor broke the tolerance

    def passed(self):
        return self.violations == 0


def projection_infimum_check(w, s, space, n_samples, seed, rank_tol=None):
    """For sampled projections E with N(E) = S, certify that E^# W E
    dominates the Schur complement in the indefinite order, and that
    E0 = I - Q attains equality.  Requires S to be W-nonnegative."""
    w = require_krein_selfadjoint(w, space)
    if not is_w_nonnegative(w, s, space):
        raise RangeNotNonnegative("S is not W-nonnegative")
    if not is_weakly_complementable(w, s, space, rank_tol):
        raise NotWeaklyComplementable("weight is not weakly complementable")
    schur = schur_complement(w, s, space, rank_tol=rank_tol).schur
    wn = max(opnorm(w), np.finfo(float).tiny)

    q = symmetric_projection(w, s, space, rank_tol=rank_tol)
    e0 = np.eye(space.dim) - q
    eq_resid = opnorm(krein_sandwich(e0, w, space) - schur) / wn

    if s.dim >= space.dim:
        # E = 0 is the whole family when S is everything
        samples = [np.zeros((space.dim, space.dim), dtype=complex)]
    else:
        seeds = np.random.default_rng(seed).integers(0, 2**63,
                                                     size=n_samples)
        samples = (projection_with_kernel(s, int(sd)) for sd in seeds)
    min_floor = np.inf
    violations = 0
    count = 0
    for e in samples:
        gap = krein_sandwich(e, w, space) - schur
        floor = min_eig_herm(space.j_ref @ gap) / scale_of(gap, w)
        min_floor = min(min_floor, floor)
        if floor < -space.tol:
            violations += 1
        count += 1
    return ProjectionInfimumReport(
        n_samples=count, min_floor=float(min_floor),
        equality_residual=eq_resid, violations=violations)
