"""Trace functionals on the indefinite space.

The J-trace of T is the matrix trace of J*T; it depends on the signature
J, while the solution sets of the trace-optimization problems do not.
Trace and Hilbert-Schmidt norms are always taken in the Hilbert space the
signature induces (Gram G = J_ref * J), via the similarity
G^{1/2} T G^{-1/2}.
"""

from dataclasses import dataclass

import numpy as np

from .core import SignatureOperator, krein_adjoint
from .errors import NotComplementable
from .linalg import (as_complex, crand, g_orthonormalize, min_eig_herm,
                     opnorm, same_bits, scale_of)
from .lsq import (CertificateReport, SplitB, _f, _factor, _order_floor,
                  _sample_directions, _solve_imms, _split_b, eval_f, eval_fj,
                  solve_ims)


def as_signature(j, space):
    """Coerce a matrix (or pass through a SignatureOperator), validating
    the signature invariants."""
    if isinstance(j, SignatureOperator):
        return j
    return SignatureOperator.from_matrix(as_complex(j), space)


@dataclass(frozen=True, eq=False)
class TraceReport:
    """J-trace value together with the trace-norm bound data."""

    value: complex
    trace_norm: float
    j_used: SignatureOperator

    @property
    def bound_margin(self):
        """||T||_1 - |tr_J(T)|; nonnegative up to rounding."""
        return self.trace_norm - abs(self.value)


def trace_j(t, j, space):
    """J-trace of T: sum of [T e_n, e_n] over any basis orthonormal in
    the J-associated inner product; equals trace(J T)."""
    sig = as_signature(j, space)
    t = space.check_operator(t)
    value = complex(np.trace(sig.entries @ t))
    return TraceReport(value=value, trace_norm=trace_norm_assoc(t, sig, space),
                       j_used=sig)


def trace_norm_assoc(t, j, space):
    """Trace norm of T in the signature's Hilbert space: nuclear norm of
    G^{1/2} T G^{-1/2}."""
    sig = as_signature(j, space)
    t = space.check_operator(t)
    sim = sig.gram_sqrt @ t @ sig.gram_isqrt
    return float(np.linalg.svd(sim, compute_uv=False).sum())


def hs_norm_assoc(t, j, space):
    """Hilbert-Schmidt norm of T in the signature's Hilbert space."""
    sig = as_signature(j, space)
    t = space.check_operator(t)
    return float(np.linalg.norm(sig.gram_sqrt @ t @ sig.gram_isqrt, "fro"))


def trace_j_basis_sum(t, j, space, seed=0):
    """The defining basis sum of the J-trace, evaluated on a seeded random
    orthonormal basis of the associated Hilbert space.  Used to check
    basis independence against trace(J T)."""
    sig = as_signature(j, space)
    t = space.check_operator(t)
    rng = np.random.default_rng(seed)
    raw = crand(rng, space.dim, space.dim)
    basis = g_orthonormalize(raw, sig.gram)
    return complex(np.einsum("ia,ij,ja->", basis.conj(),
                             space.j_ref @ t, basis))


@dataclass(frozen=True)
class TraceLawsReport:
    """Residuals of the algebraic trace laws on one (S, T, alpha, beta)
    tuple: linearity, adjoint conjugation, basis independence of the
    defining sum, the two product-commutation identities, and the
    trace-norm bound."""

    linearity: float
    adjoint_conjugation: float
    basis_independence: float
    product_commutation: float
    norm_bound: float

    def residuals(self):
        return {
            "linearity": self.linearity,
            "adjoint_conjugation": self.adjoint_conjugation,
            "basis_independence": self.basis_independence,
            "product_commutation": self.product_commutation,
            "norm_bound": self.norm_bound,
        }

    def max_residual(self):
        return max(self.residuals().values())


def verify_trace_laws(s, t, alpha, beta, j, space, seed=0):
    sig = as_signature(j, space)
    s = space.check_operator(s)
    t = space.check_operator(t)
    jm = sig.entries
    sc = scale_of(s, t) * max(1.0, abs(alpha), abs(beta))

    tr = lambda a: complex(np.trace(jm @ a))
    lin = abs(tr(alpha * t + beta * s) - (alpha * tr(t) + beta * tr(s)))
    adj = abs(tr(krein_adjoint(t, space)) - np.conj(tr(t)))
    basis = abs(trace_j_basis_sum(t, sig, space, seed) - tr(t))
    prod = max(abs(tr(t @ s) - tr(jm @ s @ jm @ t)),
               abs(tr(t @ s) - tr(s @ jm @ t @ jm)))
    bound = max(0.0, abs(tr(t)) - trace_norm_assoc(t, sig, space))
    return TraceLawsReport(
        linearity=lin / sc, adjoint_conjugation=adj / sc,
        basis_independence=basis / sc, product_commutation=prod / (sc * sc),
        norm_bound=bound / sc)


@dataclass(frozen=True)
class ChangeOfSignatureReport:
    """tr_{J_b}(T) against tr_{J_a}(J_b T J_a)."""

    lhs: complex
    rhs: complex

    @property
    def residual(self):
        return abs(self.lhs - self.rhs)


def change_of_signature(t, ja, jb, space):
    siga = as_signature(ja, space)
    sigb = as_signature(jb, space)
    t = space.check_operator(t)
    lhs = trace_j(t, sigb, space).value
    rhs = trace_j(sigb.entries @ t @ siga.entries, siga, space).value
    return ChangeOfSignatureReport(lhs=lhs, rhs=rhs)


def trace_objective(p, j, x):
    """f_J(X) = tr_J(F(X)); real since F(X) is selfadjoint."""
    sig = as_signature(j, p.space)
    return float(np.trace(sig.entries @ eval_f(p, x)).real)


def trace_objective_xy(p, split, j, x, y):
    """f_J(X, Y) = tr_J(F_J(X, Y)); f_J(X, X) = f_J(X)."""
    sig = as_signature(j, p.space)
    return float(np.trace(sig.entries @ eval_fj(p, split, x, y)).real)


def frechet_derivative(p, j, x, y):
    """Directional derivative of f_J at X in direction Y:
    2 Re tr_J(Y^# B^# W (BX - C))."""
    sig = as_signature(j, p.space)
    x = p.space.check_operator(x)
    y = p.space.check_operator(y)
    grad_core = krein_adjoint(p.b, p.space) @ p.w @ (p.b @ x - p.c)
    val = np.trace(sig.entries @ krein_adjoint(y, p.space) @ grad_core)
    return float(2.0 * val.real)


def frechet_fd(p, j, x, y, step=None, scheme="central"):
    """Finite-difference derivative of f_J; the independent check for the
    analytic formula.  Central differences are exact for this quadratic
    up to rounding."""
    x = p.space.check_operator(x)
    y = p.space.check_operator(y)
    ny = opnorm(y)
    if ny == 0.0:
        return 0.0
    h = step if step is not None else 1e-5 * max(1.0, opnorm(x)) / ny
    f = lambda z: trace_objective(p, j, z)
    if scheme == "central":
        return (f(x + h * y) - f(x - h * y)) / (2.0 * h)
    return (f(x + h * y) - f(x)) / h


@dataclass(frozen=True, eq=False)
class TraceMinSolution:
    x0: np.ndarray
    value: float
    ims: "ImsSolution"
    scalar_certificate: CertificateReport
    gradient_certificate: float


def _traces(sig, stack):
    """Real parts of tr_J over a stack of operators."""
    return np.einsum("ab,nba->n", sig.entries, stack).real


def _scalar_floor_certificate(p, j, x0, n_samples, seed, sense="min"):
    """Sampled f_J(X) >= f_J(X0) (or <=, for max) check."""
    sig = as_signature(j, p.space)
    base = trace_objective(p, sig, x0)
    xs = _sample_directions(p.space, x0, n_samples, seed)
    vals = _traces(sig, _f(p, xs))
    gaps = vals - base if sense == "min" else base - vals
    scales = np.maximum(1.0, np.abs(vals))
    floors = gaps / scales
    tol = p.space.tol
    return CertificateReport(
        n_samples=n_samples, min_floor=float(floors.min()),
        violations=int((floors < -tol).sum()), tol=tol)


def solve_trace_min(p, j, seed=0, rank_tol=None):
    """Minimize tr_J((BX-C)^# W (BX-C)); the minimizers are exactly the
    indefinite minimum solutions, for every signature.

    ``scalar_certificate`` is the exact order certificate of
    ``solve_ims`` (f_J(X0 + D) - f_J(X0) = tr_J(D^# B^#WB D) >= 0 follows
    from it); ``gradient_certificate`` is the largest |f_J'(X0)| over 8
    directions drawn from ``seed``.  Sampled evidence is
    ``_scalar_floor_certificate``.
    """
    sig = as_signature(j, p.space)
    ims = solve_ims(p, rank_tol)
    value = trace_objective(p, sig, ims.x0)
    rng = np.random.default_rng(seed)
    grad = 0.0
    for _ in range(8):
        y = crand(rng, p.space.dim, p.space.dim)
        grad = max(grad, abs(frechet_derivative(p, sig, ims.x0, y)))
    return TraceMinSolution(x0=ims.x0, value=value, ims=ims,
                            scalar_certificate=ims.certificate,
                            gradient_certificate=grad)


@dataclass(frozen=True, eq=False)
class TraceMinMaxSolution:
    z: np.ndarray
    value: float
    imms: "ImmsSolution"
    saddle_min_floor: float
    saddle_max_floor: float
    split: SplitB


def _saddle_floors(fac, split, vh):
    """Exact floors of the two saddle sides around a normal solution Z.

    With R = BZ - C, B^#WR = 0 and R(B_+/-) ⊆ R(B) give, for any
    signature's split, F_J(X, Z) - F_J(Z, Z) = D^# (B_+^#WB_+) D and
    F_J(Z, Y) - F_J(Z, Z) = E^# (B_-^#WB_-) E.  The floors are the
    smallest eigenvalues of herm(J_ref B_+^#WB_+) and
    herm(-J_ref B_-^#WB_-), each relative to ||B_+/-||^2 ||W||.  With
    B = S Σ V_k* (``vh`` = V_k*), B_+/- = G V_k* for G = B_+/- V_k, so
    they are read on the k x k G* (J_ref W) G, with 0 when k < n.
    """
    vk, padded = vh.conj().T, vh.shape[0] < fac.space.dim
    return tuple(_order_floor(min_eig_herm(sign * (g.conj().T @ fac.jw @ g)),
                              opnorm(g) ** 2 * fac.norm, padded)
                 for g, sign in ((split.b_plus @ vk, 1.0),
                                 (split.b_minus @ vk, -1.0)))


def solve_trace_minmax(p, j, rank_tol=None):
    """Solve the trace min-max problem; the value is
    tr_J(C^# W_{/[R(B)]} C) and depends on J, the solution set does not.

    ``saddle_min_floor`` and ``saddle_max_floor`` are exact: the operator
    order floors of the two saddle sides (``_saddle_floors``), under the
    split along the signature J, which the record carries as ``split``.
    Sampled evidence is ``verify_saddle`` and the harness's trace floors.
    """
    # J_ref itself: the factorization's reference signature is built once
    reference = not isinstance(j, SignatureOperator) \
        and same_bits(as_complex(j), p.space.j_ref)
    sig = SignatureOperator.reference(p.space) if reference \
        else as_signature(j, p.space)
    factored = _factor(p, rank_tol, reference=sig if reference else None)
    fac, _, vh = factored
    if not fac.complementable:
        raise NotComplementable("weight is not complementable for R(B)")
    imms = _solve_imms(p, factored)
    value = float(np.trace(sig.entries @ imms.schur_value).real)
    split = _split_b(p, fac, sig)
    min_floor, max_floor = _saddle_floors(fac, split, vh)
    return TraceMinMaxSolution(z=imms.z, value=value, imms=imms,
                               saddle_min_floor=min_floor,
                               saddle_max_floor=max_floor, split=split)


def js2_inner(s, t, j, space):
    """Indefinite inner product on Hilbert-Schmidt operators:
    [S, T]_J = tr_J(T^# S)."""
    sig = as_signature(j, space)
    s = space.check_operator(s)
    t = space.check_operator(t)
    return complex(np.trace(sig.entries @ krein_adjoint(t, space) @ s))


@dataclass(frozen=True)
class Js2Report:
    lhs: float
    rhs: float
    plus_norm_sq: float
    minus_norm_sq: float

    @property
    def residual(self):
        return abs(self.lhs - self.rhs)


def js2_signature_identity(t, j, space):
    """tr_J(T^# T) = ||P_+ T||_2^2 - ||P_- T||_2^2 with P_± = (I ± J)/2,
    Hilbert-Schmidt norms taken in the signature's inner product."""
    sig = as_signature(j, space)
    t = space.check_operator(t)
    lhs = js2_inner(t, t, sig, space)
    eye = np.eye(space.dim)
    plus = hs_norm_assoc(0.5 * (eye + sig.entries) @ t, sig, space) ** 2
    minus = hs_norm_assoc(0.5 * (eye - sig.entries) @ t, sig, space) ** 2
    return Js2Report(lhs=float(lhs.real), rhs=plus - minus,
                     plus_norm_sq=plus, minus_norm_sq=minus)
