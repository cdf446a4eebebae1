"""Indefinite inner-product arithmetic over a fixed coordinate space.

The space is modeled concretely: vectors live in C^dim with the standard
inner product <x, y> = y* x, and the indefinite product is
[x, y] = <J_ref x, y> for a reference signature operator J_ref.  Alternate
fundamental decompositions are just other signature matrices over the same
coordinates, so independence claims become plain matrix identities.
"""

import numbers
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (DimensionMismatch, MalformedInput, NotASignature,
                     NotKreinSelfadjoint)
from .linalg import (Norm, as_complex, crand, expm, herm, hpd_sqrt,
                     min_eig_herm, opnorm, within)

DEFAULT_TOL = 1e-10


def _frozen(a):
    """A read-only C-contiguous complex copy: never the caller's array."""
    a = np.array(a, dtype=complex, order="C")
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class KreinSpace:
    """Coordinate Krein space: dimension, reference signature, tolerance.

    A residual r counts as zero when r <= tol times the norms of the
    operands it was computed from, with no floor: no decision depends on
    their units.  ``j_ref`` is a read-only copy, safe to share; 0 < tol < inf.
    """

    dim: int
    j_ref: np.ndarray
    tol: float = DEFAULT_TOL

    def __post_init__(self):
        if self.dim <= 0:
            raise DimensionMismatch("dimension must be positive")
        tol = self.tol
        if isinstance(tol, bool) or not isinstance(tol, numbers.Real) \
                or not 0 < tol < np.inf:
            raise MalformedInput("'tol' must be a positive finite number")
        j = as_complex(self.j_ref)
        if j.shape != (self.dim, self.dim):
            raise DimensionMismatch(
                f"j_ref shape {j.shape} does not match dim {self.dim}")
        jn = Norm(j)
        if not within(j - j.conj().T, self.tol, jn):
            raise NotASignature("reference signature is not Hermitian")
        if not within(j @ j - np.eye(self.dim), self.tol, jn, jn):
            raise NotASignature("reference signature is not an involution")
        object.__setattr__(self, "j_ref", _frozen(j))

    @property
    def signature_counts(self):
        """(n_plus, n_minus) eigenvalue counts of the reference signature."""
        w = np.linalg.eigvalsh(herm(self.j_ref))
        n_minus = int((w < 0).sum())
        return self.dim - n_minus, n_minus

    def check_operator(self, a):
        a = as_complex(a)
        if a.shape != (self.dim, self.dim):
            raise DimensionMismatch(
                f"operator shape {a.shape} does not match dim {self.dim}")
        return a

    def check_vector(self, x):
        x = as_complex(x).reshape(-1)
        if x.shape != (self.dim,):
            raise DimensionMismatch(
                f"vector length {x.shape[0]} does not match dim {self.dim}")
        return x


def standard_space(n_plus, n_minus, tol=DEFAULT_TOL):
    """Space with J_ref = diag(+1 x n_plus, -1 x n_minus)."""
    j = np.diag(np.r_[np.ones(n_plus), -np.ones(n_minus)]).astype(complex)
    return KreinSpace(n_plus + n_minus, j, tol)


def validate_signature(j, g_ref, tol):
    """Raise NotASignature unless ``j`` is an involution, selfadjoint and
    positive in the inner product with Gram ``g_ref``; returns g_ref J."""
    jn = Norm(j)
    if not within(j @ j - np.eye(j.shape[0]), tol, jn, jn):
        raise NotASignature("J^2 differs from the identity")
    gj = g_ref @ j
    gn = Norm(gj)
    if not within(gj - gj.conj().T, tol, gn):
        raise NotASignature("J is not selfadjoint for the ambient product")
    lam = min_eig_herm(gj)  # judged first at gn.high >= ||gj||
    if not lam > tol * gn.high and lam <= tol * gn.exact:
        raise NotASignature("induced inner product is not positive definite")
    return gj


@dataclass(frozen=True, eq=False)
class SignatureOperator:
    """A signature operator J' over the ambient space: J'^2 = I,
    J_ref·J' Hermitian positive definite, so <x,y>' = [J'x, y] is an
    inner product with Gram matrix G = J_ref·J'."""

    entries: np.ndarray
    gram: np.ndarray = field(repr=False, default=None)

    @classmethod
    def from_matrix(cls, entries, space):
        j = space.check_operator(entries)
        return cls._with_gram(j, validate_signature(j, space.j_ref,
                                                    space.tol))

    @classmethod
    def reference(cls, space):
        """J_ref itself.  ``KreinSpace`` has certified it a Hermitian
        involution, so its Gram J_ref J_ref is positive definite and is
        not validated again."""
        return cls._with_gram(space.j_ref, space.j_ref @ space.j_ref)

    @classmethod
    def _with_gram(cls, j, gj):
        """The operator J with Gram herm(gj) = J_ref J."""
        return cls(entries=_frozen(j), gram=_frozen(herm(gj)))

    @cached_property
    def _roots(self):
        """(G^{1/2}, G^{-1/2}), computed together on first read of either."""
        return tuple(map(_frozen, hpd_sqrt(self.gram)))

    @cached_property
    def unit_gram(self):
        """Is G = I by value (a diagonal J_ref's J_ref J_ref may hold -0.0)?
        Frames orthonormal in coordinates are then orthonormal in G."""
        return np.array_equal(self.gram, np.eye(len(self.gram)))

    gram_sqrt = property(lambda self: self._roots[0], doc="G^{1/2}")
    gram_isqrt = property(lambda self: self._roots[1], doc="G^{-1/2}")


def as_signature(j, space):
    """Coerce a matrix (or pass through a SignatureOperator), validating
    the signature invariants."""
    if isinstance(j, SignatureOperator):
        return j
    return SignatureOperator.from_matrix(j, space)


def krein_adjoint(a, space):
    """[.,.]-adjoint: A^# = J_ref A* J_ref.

    Satisfies [Ax, y] = [x, A^# y] and (A^#)^# = A.
    """
    a = space.check_operator(a)
    return space.j_ref @ a.conj().T @ space.j_ref


def krein_sandwich(r, w, space):
    """R^# W R for one operator or a stack of them, shape (..., dim, dim).

    The quadratic form behind every objective in the package: with
    R = BX - C it is F(X).
    """
    j = space.j_ref
    return j @ np.swapaxes(r, -1, -2).conj() @ j @ w @ r


def krein_gram(x, y, space):
    """Indefinite product [x, y] = <J_ref x, y>, linear in x."""
    x = space.check_vector(x)
    y = space.check_vector(y)
    return complex(np.vdot(y, space.j_ref @ x))


def is_krein_selfadjoint(w, space):
    """W = W^#, i.e. J_ref·W Hermitian within tolerance."""
    try:
        require_krein_selfadjoint(w, space)
    except NotKreinSelfadjoint:
        return False
    return True


def require_krein_selfadjoint(w, space, what="weight", norm=None):
    """(W, J_ref W, norm) for a W that passes is_krein_selfadjoint at
    ``norm``, by default ||W|| (the check takes the product and it)."""
    w = space.check_operator(w)
    jw = space.j_ref @ w
    norm = opnorm(w) if norm is None else norm
    if not within(jw - jw.conj().T, space.tol * norm):
        raise NotKreinSelfadjoint(f"{what} is not [.,.]-selfadjoint")
    return w, jw, norm


def is_krein_positive(w, space):
    """[Wx, x] >= 0 for all x, i.e. J_ref·W positive semidefinite."""
    _, jw, norm = require_krein_selfadjoint(w, space, what="operator")
    return min_eig_herm(jw) >= -space.tol * norm


def _krein_skew(space, seed, strength):
    """(K, ||K||): K = (H - H^#)/2 for a seeded random H, scaled down to
    norm ``strength`` when larger.  K^# = -K makes exp(K) [.,.]-unitary."""
    rng = np.random.default_rng(seed)
    n = space.dim
    h = crand(rng, n, n)
    k = 0.5 * (h - krein_adjoint(h, space))
    nk = opnorm(k)
    if nk > strength:
        k *= strength / nk
        nk = strength
    return k, nk


def random_signature_operator(space, seed, strength=1.0):
    """Seeded alternate fundamental decomposition.

    J' = V J_ref V^{-1} with V = exp(K) and K = (H - H^#)/2 for a random
    H, so V is [.,.]-unitary and J' passes every SignatureOperator
    invariant by construction.  ``strength`` caps the norm of K, bounding
    the conditioning of the induced Gram.
    """
    v = expm(*_krein_skew(space, seed, strength))
    j = v @ space.j_ref @ np.linalg.inv(v)
    return SignatureOperator.from_matrix(j, space)
