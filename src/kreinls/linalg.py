"""Rank-aware dense linear algebra helpers.

Every rank decision in the package funnels through :func:`numerical_rank`
so that the cutoff (``dim * sigma_max * 1e-12``) and the ambiguity guard
are applied uniformly; every pass/fail residual check funnels through
:func:`excess` (or :func:`within`), which takes an SVD only when the
Frobenius bounds of a :class:`Norm` cannot decide.
"""

from functools import cached_property
from math import prod

import numpy as np

from .errors import RankThresholdAmbiguous

RANK_RTOL = 1e-12
AMBIGUITY_FACTOR = 10.0


def as_complex(a):
    return np.asarray(a, dtype=complex)


def crand(rng, *shape):
    """Complex Gaussian sample: real parts drawn first, then imaginary."""
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def herm(a):
    """Hermitian part (A + A*)/2 of a matrix or of each in a stack."""
    return 0.5 * (a + a.swapaxes(-1, -2).conj())


def trace_product(a, b):
    """tr(a b) for b one matrix or a stack of them, in O(dim^2) each: the
    sum of a's entries times b's transposed ones, with no a @ b."""
    return np.einsum("ij,...ji->...", a, b)


def opnorm(a):
    """Spectral norm, the same float as numpy.linalg.norm(a, 2) at about
    half its cost on a matrix; a zero array needs no SVD."""
    a = np.asarray(a)
    if a.size == 0 or not a.any():
        return 0.0
    return float(np.linalg.svd(a, compute_uv=False)[0] if a.ndim == 2
                 else np.linalg.norm(a, 2))


class Norm:
    """||a||_2 between Frobenius bounds taken at once, ``low`` =
    ||a||_F / sqrt(min(shape)) and ``high`` = 2 ||a||_F (0 and NaN when the
    sum of squares may have over- or underflowed), so rounding cannot
    invert a comparison with either; ``exact`` takes the SVD on first read."""

    def __init__(self, a):
        ss = float(np.vdot(a, a).real)
        f = ss ** 0.5 if 1e-200 <= ss < np.inf else None
        self.a, self.low = a, 0.0 if f is None else f / min(np.shape(a)) ** 0.5
        self.high = (np.nan if np.any(a) else 0.0) if f is None else 2.0 * f

    exact = cached_property(lambda self: opnorm(self.a))


def excess(r, bound, *scales):
    """None when opnorm(r) <= bound times the scales' spectral norms
    (multiplied left to right), else opnorm(r): the same decision bit for
    bit, settled by the Frobenius bounds when they can.  r and the scales
    may be Norms, so that checks sharing a norm take it once."""
    r, *scales = (x if isinstance(x, Norm) else Norm(x)
                  for x in (r, *scales))
    bound = float(bound)
    if bound >= 0 and r.high <= prod((s.low for s in scales), start=bound):
        return None
    limit = prod((s.exact for s in scales), start=bound)
    return None if r.exact <= limit else r.exact


def within(r, bound, *scales):
    """opnorm(r) <= bound times the scales' norms, decided by excess."""
    return excess(r, bound, *scales) is None


def fro_norm(a):
    """Frobenius norm, taken on a / max|a_ij| so that the sum of squares
    cannot overflow for any finite entries."""
    a = np.asarray(a)
    m = float(np.abs(a).max()) if a.size else 0.0
    return m * float(np.linalg.norm(a / m)) if 0.0 < m < np.inf else m


def same_bits(a, b):
    """Are the two arrays identical bit for bit (signed zeros included)?"""
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def scale_of(*operands):
    """Harness report normalizer max(1, operand norms); not a decision rule."""
    return max(1.0, *(opnorm(a) for a in operands)) if operands else 1.0


def numerical_rank(sigma, dim, rank_tol=None, context=0.0):
    """Rank from a descending singular-value array.

    The cutoff is dim * max(sigma_max, context) * 1e-12; ``context`` lets
    callers anchor the decision to the scale the matrix was computed at
    (e.g. the weight norm for a compressed block), so a block that is
    pure rounding noise is rank zero rather than spuriously full.

    Raises RankThresholdAmbiguous when a singular value falls within a
    factor of ``AMBIGUITY_FACTOR`` of the cutoff: deciding would corrupt
    downstream complementability tests.
    """
    sigma = np.asarray(sigma, dtype=float)
    if sigma.size == 0:
        return 0
    smax = max(sigma.max(), context)
    if smax == 0.0:
        return 0
    tol = dim * smax * RANK_RTOL if rank_tol is None else rank_tol
    bad = (sigma > tol / AMBIGUITY_FACTOR) & (sigma < tol * AMBIGUITY_FACTOR)
    if bad.any():
        s = float(sigma[bad][0])
        raise RankThresholdAmbiguous(
            f"singular value {s:.3e} within a decade of rank cutoff {tol:.3e}",
            sigma=s, threshold=tol)
    return int((sigma > tol).sum())


def orth_frame(a, rank_tol=None, context=0.0):
    """Orthonormal basis of the column space of ``a`` (SVD based)."""
    a = as_complex(a)
    if a.size == 0:
        return np.zeros((a.shape[0], 0), dtype=complex)
    u, s, _ = np.linalg.svd(a, full_matrices=False)
    r = numerical_rank(s, max(a.shape), rank_tol, context)
    return np.ascontiguousarray(u[:, :r])


def null_frame(a, rank_tol=None, context=0.0):
    """Orthonormal basis of the (right) nullspace of ``a``."""
    a = as_complex(a)
    n = a.shape[1]
    if a.shape[0] == 0 or not a.any():
        return np.eye(n, dtype=complex)
    # a tall input's reduced SVD already holds the whole n x n Vh
    _, s, vh = np.linalg.svd(a, full_matrices=a.shape[0] < n)
    r = numerical_rank(s, max(a.shape), rank_tol, context)
    return np.ascontiguousarray(vh[r:].conj().T)


def pinv(a, rank_tol=None, context=0.0):
    """Moore-Penrose pseudoinverse with the shared rank cutoff."""
    a = as_complex(a)
    if a.size == 0:
        return np.zeros((a.shape[1], a.shape[0]), dtype=complex)
    u, s, vh = np.linalg.svd(a, full_matrices=False)
    r = numerical_rank(s, max(a.shape), rank_tol, context)
    inv = np.zeros_like(s)
    inv[:r] = 1.0 / s[:r]
    return (vh.conj().T * inv) @ u.conj().T


def kept_eigenvalues(lam, rank_tol=None, context=0.0):
    """Mask of the eigenvalues of a k x k Hermitian matrix that its rank
    keeps: the largest |lam| (its singular values), by numerical_rank at
    dim k and the context."""
    absw, kept = np.abs(lam), np.zeros(len(lam), dtype=bool)
    order = np.argsort(absw)[::-1]
    kept[order[:numerical_rank(absw[order], len(lam), rank_tol,
                               context)]] = True
    return kept


def sign_and_root(lam, q, kept):
    """Polar data (u, |a|^{1/2}, pinv(|a|^{1/2})) of a = q diag(lam) q*
    of rank ``kept``: u is sign(a) on R(a) and zero on N(a) = N(u)."""
    root = np.sqrt(np.abs(lam))
    rootinv = np.divide(1.0, root, out=np.zeros(len(lam)), where=kept)
    return tuple((q * d) @ q.conj().T for d in
                 (np.where(kept, np.sign(lam), 0.0), root * kept, rootinv))


def herm_sign_and_root(a, rank_tol=None, context=0.0):
    """sign_and_root of a Hermitian matrix, from one eigh."""
    lam, q = np.linalg.eigh(herm(as_complex(a)))
    return sign_and_root(lam, q, kept_eigenvalues(lam, rank_tol, context))


def hpd_sqrt(g):
    """Square root and inverse square root of a Hermitian positive
    definite matrix (eigendecomposition; g must be well away from
    singular, which signature Grams are)."""
    w, q = np.linalg.eigh(herm(g))
    if w.min() <= 0:
        raise np.linalg.LinAlgError("matrix is not positive definite")
    return (q * np.sqrt(w)) @ q.conj().T, (q / np.sqrt(w)) @ q.conj().T


def generalized_eigh(a, g):
    """Hermitian-definite eigenproblem a v = lam g v: a and g Hermitian,
    g positive definite.

    Cholesky reduction g = L L*: the eigenvectors y of L^{-1} a L^{-*}
    give v = L^{-*} y.  Returns ascending eigenvalues and eigenvectors
    that are orthonormal in the g inner product (v* g v = I).
    """
    linv = np.linalg.inv(np.linalg.cholesky(g))
    lam, y = np.linalg.eigh(herm(linv @ a @ linv.conj().T))
    return lam, linv.conj().T @ y


# 1/k! for the degree-18 Taylor polynomial of exp: the first omitted
# term, 1/19! ~ 8e-18, is below double rounding when ||a|| <= 1.
_EXP_COEFS = np.cumprod(np.r_[1.0, 1.0 / np.arange(1, 19)])
_EXP_BLOCK = 4          # Paterson-Stockmeyer block: powers a^0 .. a^4


def expm(a, norm):
    """Matrix exponential, given an upper bound ``norm`` on ||a||_2.

    a is scaled by 2^-s so that its norm is at most 1, the degree-18
    Taylor polynomial is evaluated by Paterson-Stockmeyer (3 products
    for the powers, 4 for the Horner steps in a^4), and the result is
    squared s times.
    """
    s = max(0, int(np.ceil(np.log2(norm)))) if norm > 1 else 0
    a = a / 2.0 ** s
    pows = [np.eye(a.shape[0], dtype=a.dtype), a]
    for _ in range(_EXP_BLOCK - 1):
        pows.append(pows[-1] @ a)
    top = len(_EXP_COEFS) - 1
    out = None
    for start in range(top - top % _EXP_BLOCK, -1, -_EXP_BLOCK):
        block = sum(c * p for c, p in
                    zip(_EXP_COEFS[start:start + _EXP_BLOCK], pows))
        out = block if out is None else out @ pows[_EXP_BLOCK] + block
    for _ in range(s):
        out = out @ out
    return out


def g_orthonormalize(frame, g):
    """Re-express a full-column-rank frame so its columns are orthonormal
    in the inner product with Gram matrix ``g`` (Cholesky of the small
    Gram; the subspace is unchanged)."""
    frame = as_complex(frame)
    if frame.shape[1] == 0:
        return frame
    small = frame.conj().T @ g @ frame
    ell = np.linalg.cholesky(herm(small))
    return frame @ np.linalg.inv(ell.conj().T)


def min_eig_herm(a):
    """Smallest eigenvalue of the Hermitian part of ``a``."""
    a = np.asarray(a)
    if a.shape[0] == 0:
        return 0.0
    return float(np.linalg.eigvalsh(herm(a)).min())
