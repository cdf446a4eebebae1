"""Trace functionals on the indefinite space.

The J-trace of T is the matrix trace of J*T; it depends on the signature
J, while the solution sets of the trace-optimization problems do not.
Trace and Hilbert-Schmidt norms are always taken in the Hilbert space the
signature induces (Gram G = J_ref * J), via the similarity
G^{1/2} T G^{-1/2}.
"""

from dataclasses import dataclass

import numpy as np

from .core import SignatureOperator, as_signature, krein_adjoint
from .errors import NotComplementable
from .linalg import (as_complex, crand, min_eig_herm, opnorm, same_bits,
                     trace_product)
from .lsq import (CertificateReport, SplitB, _factor, _order_floor,
                  _solve_imms, _split_b, eval_f, eval_fj, solve_ims)


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
    value = complex(trace_product(sig.entries, t))
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
    return float(trace_product(sig.entries, eval_f(p, x)).real)


def trace_objective_xy(p, split, j, x, y):
    """f_J(X, Y) = tr_J(F_J(X, Y)); f_J(X, X) = f_J(X)."""
    sig = as_signature(j, p.space)
    return float(trace_product(sig.entries, eval_fj(p, split, x, y)).real)


def frechet_derivative(p, j, x, y):
    """Directional derivative of f_J at X in direction Y:
    2 Re tr_J(Y^# B^# W (BX - C))."""
    sig = as_signature(j, p.space)
    x = p.space.check_operator(x)
    y = p.space.check_operator(y)
    grad_core = krein_adjoint(p.b, p.space) @ p.w @ (p.b @ x - p.c)
    val = trace_product(sig.entries @ krein_adjoint(y, p.space), grad_core)
    return float(2.0 * val.real)


def frechet_fd(p, j, x, y):
    """Central-difference derivative of f_J; the independent check for
    the analytic formula.  Central differences are exact for this
    quadratic up to rounding."""
    x = p.space.check_operator(x)
    y = p.space.check_operator(y)
    ny = opnorm(y)
    if ny == 0.0:
        return 0.0
    h = 1e-5 * max(1.0, opnorm(x)) / ny
    return (trace_objective(p, j, x + h * y)
            - trace_objective(p, j, x - h * y)) / (2.0 * h)


@dataclass(frozen=True, eq=False)
class TraceMinSolution:
    x0: np.ndarray
    value: float
    ims: "ImsSolution"
    scalar_certificate: CertificateReport
    gradient_certificate: float


def solve_trace_min(p, j, seed=0, rank_tol=None):
    """Minimize tr_J((BX-C)^# W (BX-C)); the minimizers are exactly the
    indefinite minimum solutions, for every signature.

    ``scalar_certificate`` is the exact order certificate of
    ``solve_ims`` (f_J(X0 + D) - f_J(X0) = tr_J(D^# B^#WB D) >= 0 follows
    from it); ``gradient_certificate`` is the largest |f_J'(X0)| over 8
    directions drawn from ``seed``.  The sampled trace floors are in
    ``kreinls.evidence``.
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


def _saddle_floors(fac, plus, minus):
    """Exact floors of the two saddle sides around a normal solution Z.

    With R = BZ - C, B^#WR = 0 and R(B_+/-) ⊆ R(B) give, for any
    signature's split, F_J(X, Z) - F_J(Z, Z) = D^# (B_+^#WB_+) D and
    F_J(Z, Y) - F_J(Z, Z) = E^# (B_-^#WB_-) E.  The floors are the
    smallest eigenvalues of herm(J_ref B_+^#WB_+) and
    herm(-J_ref B_-^#WB_-), each relative to ||B_+/-||^2 ||W||.  With
    B_+/- = S vec L V_k* (``_split_b``) and L* = Q R, B_+/- = S vr Q* V_k*
    for the k x k_+/- vr = vec R*: the floors are read on the k_+/- x k_+/-
    vr* (S* J_ref W S) vr, with 0 when k_+/- < n, and ||B_+/-|| = ||vr||.
    """
    floors = []
    for (vec, ell), sign in ((plus, 1.0), (minus, -1.0)):
        vr = vec @ np.linalg.qr(ell.conj().T, mode="r").conj().T
        floors.append(_order_floor(
            min_eig_herm(sign * (vr.conj().T @ fac.form @ vr)),
            opnorm(vr) ** 2 * fac.norm, vec.shape[1] < fac.space.dim))
    return tuple(floors)


def solve_trace_minmax(p, j, rank_tol=None):
    """Solve the trace min-max problem; the value is
    tr_J(C^# W_{/[R(B)]} C) and depends on J, the solution set does not.

    ``saddle_min_floor`` and ``saddle_max_floor`` are exact: the operator
    order floors of the two saddle sides (``_saddle_floors``), under the
    split along the signature J, which the record carries as ``split``.
    Sampled evidence is ``kreinls.evidence``'s saddle and trace floors.
    """
    # J_ref itself: the factorization's reference signature is built once
    reference = not isinstance(j, SignatureOperator) \
        and same_bits(as_complex(j), p.space.j_ref)
    sig = SignatureOperator.reference(p.space) if reference \
        else as_signature(j, p.space)
    factored = _factor(p, rank_tol, reference=sig if reference else None)
    fac = factored[0]
    if not fac.complementable:
        raise NotComplementable("weight is not complementable for R(B)")
    imms = _solve_imms(p, factored)
    value = float(trace_product(sig.entries, imms.schur_value).real)
    split, plus, minus = _split_b(p, factored, sig)
    min_floor, max_floor = _saddle_floors(fac, plus, minus)
    return TraceMinMaxSolution(z=imms.z, value=value, imms=imms,
                               saddle_min_floor=min_floor,
                               saddle_max_floor=max_floor, split=split)


def js2_inner(s, t, j, space):
    """Indefinite inner product on Hilbert-Schmidt operators:
    [S, T]_J = tr_J(T^# S)."""
    sig = as_signature(j, space)
    s = space.check_operator(s)
    t = space.check_operator(t)
    return complex(trace_product(sig.entries @ krein_adjoint(t, space), s))


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
