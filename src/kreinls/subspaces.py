"""Subspaces, companions, preimages, W-definite splits and W-symmetric
projections.

Frames are dim x k matrices with orthonormal columns in the coordinate
inner product; k = 0 (empty frame) is a valid subspace.  Splits under an
alternate signature J' are orthonormal in the associated inner product
with Gram G = J_ref * J'; for the reference signature this is the plain
coordinate construction.  The functions of a weight W and a subspace S
are thin wrappers over ``schur.Factorization``.
"""

from dataclasses import dataclass, field

import numpy as np

from .core import SignatureOperator, _frozen
from .errors import DimensionMismatch
from .linalg import (as_complex, crand, min_eig_herm, null_frame,
                     numerical_rank, opnorm, within)


@dataclass(frozen=True, eq=False)
class Subspace:
    """A closed subspace: a read-only copy of an orthonormal column frame,
    and the coordinate complement when ``from_span``'s SVD gave it."""

    frame: np.ndarray
    _complement: "np.ndarray | None" = field(default=None, init=False,
                                             repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "frame", _frozen(self.frame))

    @classmethod
    def from_span(cls, a, rank_tol=None):
        """Subspace spanned by the columns of ``a`` (any matrix): the left
        singular vectors up to the numerical rank, the rest kept as S^perp."""
        return svd_span(a, rank_tol)[0]

    @classmethod
    def zero(cls, dim):
        return cls(np.zeros((dim, 0), dtype=complex))

    @classmethod
    def full(cls, dim):
        return cls(np.eye(dim, dtype=complex))

    @property
    def ambient_dim(self):
        return self.frame.shape[0]

    @property
    def dim(self):
        return self.frame.shape[1]

    def projector(self):
        """Coordinate-orthogonal projection onto the subspace."""
        return self.frame @ self.frame.conj().T

    def contains(self, vectors, tol):
        """Do the given columns lie in the subspace (within tol)?"""
        v = as_complex(vectors)
        if v.ndim == 1:
            v = v[:, None]
        resid = v - self.frame @ (self.frame.conj().T @ v)
        return within(resid, tol, v)

    def coordinate_complement(self, rank_tol=None):
        """S^perp: the one ``from_span`` kept, the whole space for S = 0,
        else the trailing columns of a complete QR of the frame (the kernel
        of S* at a given rank_tol)."""
        if rank_tol is not None:
            return Subspace(null_frame(self.frame.conj().T, rank_tol))
        if self._complement is not None:
            return Subspace(self._complement)
        n, k = self.frame.shape
        if not k:
            return Subspace.full(n)
        return Subspace(np.linalg.qr(self.frame, mode="complete")[0][:, k:])


def svd_span(a, rank_tol=None):
    """(R(a), sigma, vh) from one SVD of ``a``: R(a) keeps the left
    singular vectors past the rank as its complement, and
    a = R(a) diag(sigma) vh up to the rank cutoff."""
    a = as_complex(a)
    u, s, vh = np.linalg.svd(a)
    r = numerical_rank(s, max(a.shape), rank_tol)
    span = Subspace(u[:, :r])
    object.__setattr__(span, "_complement", _frozen(u[:, r:]))
    return span, s[:r], vh[:r]


def range_subspace(b, rank_tol=None):
    """Numerical column space of ``b``."""
    return Subspace.from_span(b, rank_tol)


def orthogonal_companion(s, space):
    """S^[perp] = {h : [h, x] = 0 for all x in S} = J_ref (S^perp).

    J_ref is unitary, so mapping an orthonormal frame keeps it orthonormal.
    """
    comp = s.coordinate_complement()
    return Subspace(space.j_ref @ comp.frame)


def preimage(a, t, rank_tol=None, norm=None):
    """A^{-1}(T): the maximal subspace mapped into T by ``a``.

    The kernel rank decision is anchored to the norm of ``a`` (``norm``,
    when the caller has it) so a residual map that is pure rounding noise
    counts as zero.
    """
    a = as_complex(a)
    n = a.shape[0]
    residual_map = (np.eye(n) - t.projector()) @ a
    return Subspace(null_frame(residual_map, rank_tol,
                               context=opnorm(a) if norm is None else norm))


@dataclass(frozen=True, eq=False)
class WSplit:
    """Decomposition S = S_+ [+]_W S_- into a W-nonnegative and a
    W-nonpositive part, orthogonal in the inner product of the signature
    that produced the split, with [W s_+, s_-] = 0."""

    s_plus: Subspace
    s_minus: Subspace
    signature: SignatureOperator

    def defects(self, w, space):
        """Residuals of the three split invariants (orthogonality in the
        split's inner product, cross W-orthogonality, definiteness)."""
        fp, fm = self.s_plus.frame, self.s_minus.frame
        g = self.signature.gram
        jw = space.j_ref @ w
        ortho = opnorm(fp.conj().T @ g @ fm) if fp.size and fm.size else 0.0
        cross = opnorm(fm.conj().T @ jw @ fp) if fp.size and fm.size else 0.0
        neg_on_plus = max(0.0, -min_eig_herm(fp.conj().T @ jw @ fp))
        pos_on_minus = max(0.0, -min_eig_herm(-(fm.conj().T @ jw @ fm)))
        return {"orthogonality": ortho, "w_cross": cross,
                "plus_nonnegative": neg_on_plus,
                "minus_nonpositive": pos_on_minus}


def w_split(s, w, signature, space):
    """Split S into W-nonnegative and W-nonpositive parts.

    Diagonalizes the form [W x, x] restricted to S against the Gram of the
    given signature (a Hermitian-definite generalized eigenproblem; for the
    reference signature this is eigh of U* J_ref W U).  Zero eigenvalues go
    to the nonnegative side.
    """
    from .schur import Factorization
    return Factorization(w, s, space).split_coordinates(signature)[0]


def is_complementable(w, s, space, rank_tol=None):
    """H = S + W^{-1}(S^[perp])?  That is R(b) ⊆ R(a) for the compressed
    form a = S* (J_ref W) S and the coupling b = S* (J_ref W) S^perp, on
    a's rank at dim k and ||W||: the ``is_weakly_complementable`` test."""
    from .schur import Factorization
    return Factorization(w, s, space, rank_tol).complementable


def is_w_nonnegative(w, s, space):
    """[Wx, x] >= 0 on the subspace (compressed form PSD within tol)."""
    from .schur import Factorization
    return Factorization(w, s, space).nonnegative


def is_w_nonpositive(w, s, space):
    from .schur import Factorization
    return Factorization(w, s, space).nonpositive


def oblique_projection(onto, along):
    """Projection with range span(onto) and kernel span(along); the two
    frames must form a basis of the ambient space."""
    n = onto.shape[0]
    k = onto.shape[1]
    if along.shape[1] != n - k:
        raise DimensionMismatch("range and kernel dimensions do not add up")
    basis = np.hstack([onto, along])
    ext = np.hstack([onto, np.zeros((n, n - k), dtype=complex)])
    return ext @ np.linalg.inv(basis)


def symmetric_projection(w, s, space, rank_tol=None):
    """Projection Q onto S with WQ = Q^# W.

    The kernel is the canonical choice: the coordinate-orthogonal
    complement of S ∩ W^{-1}(S^[perp]) inside W^{-1}(S^[perp]).  In the
    blocks on (S, V = S^perp), Q = S (S* + a^† b V*), for R(b) ⊆ R(a).
    """
    from .schur import Factorization
    return Factorization(w, s, space, rank_tol).q


def projection_with_kernel(s, seed, mix_strength=1.5):
    """Seeded sampler for the family {E : E^2 = E, N(E) = S}."""
    return projections_with_kernel(s, [seed], mix_strength)[0]


def projections_with_kernel(s, seeds, mix_strength=1.5):
    """One sample of {E : E^2 = E, N(E) = S} per seed, as a stack of
    shape (len(seeds), dim, dim).

    Each range is a random complement of S: the graph of a map from S^perp
    into S drawn from ``default_rng(seed)`` and scaled down to norm
    ``mix_strength`` when larger, so the sample stays well conditioned.
    """
    n = s.ambient_dim
    k = s.dim
    if k >= n:
        raise DimensionMismatch("S must be a proper subspace")
    if k == 0:
        return np.repeat(np.eye(n, dtype=complex)[None], len(seeds), axis=0)
    ells = np.stack([crand(np.random.default_rng(seed), k, n - k)
                     for seed in seeds])
    norms = np.linalg.norm(ells, 2, axis=(1, 2))
    big = norms > mix_strength
    ells[big] *= (mix_strength / norms[big])[:, None, None]
    v = s.coordinate_complement().frame
    c = v + s.frame @ ells              # complement frames (not orthonormal)
    return c @ np.linalg.inv(v.conj().T @ c) @ v.conj().T


def _projection_stacks(s, n_samples, seed):
    """``n_samples`` seeded samples of {E : E^2 = E, N(E) = S} (E = 0
    alone when S is the whole space), yielded in blocks whose
    (n, dim, dim) complex stacks take at most 4 MiB each, which bounds the
    memory of a sampled check at any dimension."""
    dim = s.ambient_dim
    if s.dim >= dim:
        yield np.zeros((1, dim, dim), dtype=complex)
        return
    seeds = np.random.default_rng(seed).integers(0, 2**63,
                                                 size=n_samples).tolist()
    step = max(1, (4 << 20) // (16 * dim * dim))
    for i in range(0, n_samples, step):
        yield projections_with_kernel(s, seeds[i:i + step])
