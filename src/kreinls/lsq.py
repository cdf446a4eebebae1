"""Weighted indefinite least squares solvers.

Covers the quadratic objective F(X) = (BX-C)^# W (BX-C), the operator
normal equation, the indefinite minimum solver (and its maximization
mirror), the pointwise vector variant, the two-sided range split
B = B_+ + B_-, and the min-max solver, each certified exactly (the
sampled checks are in ``evidence``).
"""

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .core import (SignatureOperator, _frozen, as_signature, krein_adjoint,
                   krein_sandwich, require_krein_selfadjoint)
from .errors import (InternalCertificateFailure, MalformedInput,
                     MinMaxUnsolvable, NormalEquationUnsolvable,
                     OperandOverflow, RangeNotNonnegative,
                     RangeNotNonpositive)
from .linalg import (crand, excess, fro_norm, herm, kept_eigenvalues, opnorm,
                     within)
from .schur import Factorization
from .subspaces import WSplit, range_subspace, svd_span


# Largest accepted max(||B||, ||C||)^2 ||W|| (Frobenius norms).  The
# product bounds every entry of B^#WB, B^#WC and C^#WC; ``evidence``'s
# sampled certificates evaluate F at up to about 100 dim^2 times that scale,
# which stays below the largest double, 1.8e308, up to dim 1,000.
OPERAND_LIMIT = 1e300


@dataclass(frozen=True, eq=False)
class WeightedProblem:
    """The data (W, B, C) of min/max/min-max of (BX-C)^# W (BX-C).

    W, B and C are stored as read-only copies of the matrices passed in,
    so their spectral norms ``w_norm``, ``b_norm`` and ``c_norm``, taken
    once here, cannot go stale.

    Raises MalformedInput naming a non-finite operand, and
    OperandOverflow when max(||B||, ||C||)^2 ||W|| exceeds
    ``OPERAND_LIMIT``: the normal-equation products would overflow.
    """

    w: np.ndarray
    b: np.ndarray
    c: np.ndarray
    space: "KreinSpace"
    w_norm: float = field(init=False, repr=False, compare=False)
    b_norm: float = field(init=False, repr=False, compare=False)
    c_norm: float = field(init=False, repr=False, compare=False)

    def __post_init__(self, w_norm=None):
        w, b, c = (_frozen(self.space.check_operator(a))
                   for a in (self.w, self.b, self.c))
        for name, a in (("W", w), ("B", b), ("C", c)):
            if not np.isfinite(a).all():
                raise MalformedInput(f"{name}: entries are not finite")
        n = max(fro_norm(b), fro_norm(c))
        bound = n * n * fro_norm(w)         # float ** would raise, * is inf
        if not bound <= OPERAND_LIMIT:
            raise OperandOverflow(
                f"max(|B|, |C|)^2 |W| = {bound:.3e} exceeds "
                f"{OPERAND_LIMIT:.0e}: B^#WB, B^#WC and C^#WC would overflow")
        _, _, w_norm = require_krein_selfadjoint(w, self.space, norm=w_norm)
        for name, value in (("w", w), ("b", b), ("c", c), ("w_norm", w_norm),
                            ("b_norm", opnorm(b)), ("c_norm", opnorm(c))):
            object.__setattr__(self, name, value)

    def range_b(self, rank_tol=None):
        return range_subspace(self.b, rank_tol)


def _problem_at(w, b, c, space, w_norm):
    """WeightedProblem(w, b, c, space) for a read-only W whose own
    selfadjointness check took ||W|| = w_norm: problem_io's hand-off."""
    p = object.__new__(WeightedProblem)
    vars(p).update(w=w, b=b, c=c, space=space)
    p.__post_init__(w_norm)
    return p


def _factor(p, rank_tol, reference=None):
    """(fac, sigma, vh) for one public call: the factorization of W
    relative to S = R(B), and B = S diag(sigma) vh from R(B)'s own SVD
    (up to the rank cutoff)."""
    s, sigma, vh = svd_span(p.b, rank_tol)
    return (Factorization(p.w, s, p.space, rank_tol, norm=p.w_norm,
                          reference=reference), sigma, vh)


def eval_f(p, x):
    """F(X) = (BX - C)^# W (BX - C); always [.,.]-selfadjoint."""
    return krein_sandwich(p.b @ p.space.check_operator(x) - p.c, p.w,
                          p.space)


def _normal_solve(p, factored, target, target_norm=None):
    """B^# W (BX - target) = 0 in R(B)'s coordinates.

    With B = S Σ V_k* (``factored``) and R = S* (J_ref W), B^#W =
    J_ref V_k Σ R: the equation is H (V_k* X) = Σ R target with
    H = Σ (R S) Σ, and M = B^#WB = J_ref V_k H V_k*.  One eigh of
    herm(H) = Q Λ Q* decides M's rank on |λ| (dim n, ||B||^2 ||W||).

    Returns (outside, x, resid, sc, lam): the part of Σ R target outside
    R(H), as large as N = B^#W target outside R(M) (the Douglas range
    test); x = V_k Q_r Λ_r^{-1} Q_r* Σ R target = pinv(M) N; the k-row
    residual Σ R (Bx - target), as large as B^#W (Bx - target); the
    scale ||B|| ||W|| ||target|| N was computed at; and Λ.
    """
    fac, sigma, vh = factored
    tn = opnorm(target) if target_norm is None else target_norm
    rhs = sigma[:, None] * (fac.rows @ target)
    lam, q = np.linalg.eigh(herm(sigma[:, None] * fac.form * sigma))
    kept = kept_eigenvalues(lam, p.space.dim, fac.rank_tol,
                            p.b_norm ** 2 * p.w_norm)
    coef = q[:, kept].conj().T @ rhs
    x = vh.conj().T @ (q[:, kept] @ (coef / lam[kept, None]))
    resid = sigma[:, None] * (fac.rows @ (p.b @ x - target))
    return rhs - q[:, kept] @ coef, x, resid, p.b_norm * p.w_norm * tn, lam


def normal_solvable(p, rank_tol=None):
    """Douglas range condition R(B^#WC) ⊆ R(B^#WB), as a predicate."""
    outside, _, _, sc, _ = _normal_solve(p, _factor(p, rank_tol), p.c,
                                         p.c_norm)
    return within(outside, p.space.tol * sc)


def _solve_normal(p, factored):
    """solve_normal, also returning the k-row normal residual of X0 and
    H's eigenvalues."""
    outside, x0, resid, sc, lam = _normal_solve(p, factored, p.c, p.c_norm)
    if (violation := excess(outside, p.space.tol * sc)) is not None:
        raise NormalEquationUnsolvable(
            f"Douglas range condition fails (residual {violation:.3e})",
            residual=violation)
    if (norm := excess(resid, p.space.tol * sc)) is not None:
        raise InternalCertificateFailure(
            f"normal equation residual {norm:.3e} after solvable test")
    return x0, resid, lam


def solve_normal(p, rank_tol=None):
    """Minimal-norm solution of B^# W (BX - C) = 0.

    Solvability is the Douglas range condition R(B^#WC) ⊆ R(B^#WB);
    when it fails the violation residual is attached to the error.
    """
    return _solve_normal(p, _factor(p, rank_tol))[0]


def normal_residual(p, x):
    """|| B^# W (BX - C) ||."""
    bw = krein_adjoint(p.b, p.space) @ p.w
    return opnorm(bw @ p.b @ p.space.check_operator(x) - bw @ p.c)


@dataclass(frozen=True)
class CertificateReport:
    """Operator-order certificate: the most negative normalized eigenvalue
    seen and how many samples broke the tolerance.  An exact certificate
    has ``n_samples == 0`` and one violation when its floor breaks it."""

    n_samples: int
    min_floor: float
    violations: int
    tol: float

    @property
    def passed(self):
        return self.violations == 0


@dataclass(frozen=True, eq=False)
class ImsSolution:
    """Indefinite minimum (or maximum) solution record."""

    x0: np.ndarray
    extremal_value: np.ndarray
    schur_value: Optional[np.ndarray]
    normal_residual: float
    certificate: CertificateReport
    sense: str


def _schur_value(p, fac, value, what):
    """C^# W_{/[S]} C in S^perp's coordinates (``Factorization.schur_form``),
    checked against a solver's value at the scale ||W|| ||C||^2;
    (None, None) when W is not complementable for S."""
    if not fac.complementable:
        return None, None
    schur_value = fac.schur_form(p.c)
    sc = p.w_norm * p.c_norm ** 2
    if (gap := excess(value - schur_value, p.space.tol * sc)) is not None:
        raise InternalCertificateFailure(
            f"{what} differs from Schur form by {gap:.3e}")
    return schur_value, sc


def _order_floor(low, scale, padded):
    """The smallest eigenvalue ``low`` of a form read in k coordinates, or
    0 when ``padded`` (k < n), relative to ``scale``; 0 at scale 0 (the
    form is then exactly zero)."""
    low = min(low, 0.0) if padded else low
    return float(low) / scale if scale > 0 else 0.0


def _exact_certificate(p, lam, sense):
    """Exact order certificate at a solution X0 of the normal equation.

    There F(X0 + D) - F(X0) = D^# M D with M = B^#WB for every D, so the
    floor over all D is the smallest eigenvalue of herm(J_ref M) =
    V_k herm(H) V_k*: of H's eigenvalues ``lam`` (of -lam for the
    maximum), and 0 when k < n, relative to ||B||^2 ||W||, the scale M
    was computed at.
    """
    lam = lam if sense == "min" else -lam
    floor = _order_floor(lam.min(initial=np.inf), p.b_norm ** 2 * p.w_norm,
                         lam.size < p.space.dim)
    tol = p.space.tol
    return CertificateReport(n_samples=0, min_floor=floor,
                             violations=int(floor < -tol), tol=tol)


def _solve_extremal(p, sense, rank_tol):
    factored = _factor(p, rank_tol)
    fac = factored[0]
    if sense == "min" and not fac.nonnegative:
        raise RangeNotNonnegative("R(B) is not W-nonnegative")
    if sense == "max" and not fac.nonpositive:
        raise RangeNotNonpositive("R(B) is not W-nonpositive")
    x0, resid, lam = _solve_normal(p, factored)
    value = eval_f(p, x0)
    schur_value, _ = _schur_value(p, fac, value, "extremal value")
    cert = _exact_certificate(p, lam, sense)
    if not cert.passed:
        raise InternalCertificateFailure(
            f"{sense} certificate violated: floor {cert.min_floor:.3e}")
    return ImsSolution(x0=x0, extremal_value=value, schur_value=schur_value,
                       normal_residual=opnorm(resid), certificate=cert,
                       sense=sense)


def solve_ims(p, rank_tol=None):
    """Indefinite minimum solution of BX - C = 0 with weight W.

    Succeeds iff R(B) is W-nonnegative and the normal equation is
    solvable; the returned record carries F(X0), the Schur-complement
    value when the weight is complementable, and an exact dominance
    certificate: F(X0 + D) - F(X0) = D^# (B^#WB) D, so its floor is the
    smallest eigenvalue of herm(J_ref B^#WB) over ||B||^2 ||W||
    (``n_samples`` 0).  Sampled evidence is
    ``evidence.minimality_certificate``.
    """
    return _solve_extremal(p, "min", rank_tol)


def solve_ims_max(p, rank_tol=None):
    """Mirror of solve_ims for the maximization problem (R(B) must be
    W-nonpositive); the exact certificate's floor is that of
    herm(-J_ref B^#WB)."""
    return _solve_extremal(p, "max", rank_tol)


def solve_wils_vector(p, y, rank_tol=None):
    """Pointwise variant: z minimizing [W(Bz - y), Bz - y].

    Same normal equation, one right-hand side; minimal-norm z returned.
    """
    y = p.space.check_vector(y)
    factored = _factor(p, rank_tol)
    if not factored[0].nonnegative:
        raise RangeNotNonnegative("R(B) is not W-nonnegative")
    outside, z, _, sc, _ = _normal_solve(p, factored, y[:, None])
    if (violation := excess(outside, p.space.tol * sc)) is not None:
        raise NormalEquationUnsolvable(
            f"no weighted solution for this right-hand side "
            f"(residual {violation:.3e})", residual=violation)
    return z[:, 0]


def wils_objective(p, z, y):
    """[W(Bz - y), Bz - y] for a candidate z (real for selfadjoint W)."""
    r = p.b @ p.space.check_vector(z) - p.space.check_vector(y)
    return complex(np.vdot(r, p.space.j_ref @ p.w @ r))


@dataclass(frozen=True, eq=False)
class SplitB:
    """B = B_+ + B_- with W-nonnegative/W-nonpositive closed ranges,
    orthogonal in the splitting signature's inner product."""

    b_plus: np.ndarray
    b_minus: np.ndarray
    split: WSplit

    def defects(self, p):
        """Residuals of the SplitB invariants."""
        out = dict(self.split.defects(p.w, p.space))
        out["sum"] = opnorm(p.b - (self.b_plus + self.b_minus))
        return out


def split_b(p, signature=None, rank_tol=None):
    """Split B along the W-definite decomposition of its range.

    B_+/- = P_+/- B where P_+/- project onto the split parts, orthogonally
    in the inner product of the signature, a matrix or J_ref by default.
    """
    signature = SignatureOperator.reference(p.space) if signature is None \
        else as_signature(signature, p.space)
    return _split_b(p, _factor(p, rank_tol), signature)[0]


def _split_b(p, factored, signature):
    """(SplitB, (vec_+, L_+), (vec_-, L_-)) in R(B)'s coordinates, with no
    dim x dim P_+/-.

    With B = S Σ V_k* (``factored``) and S_+/- = S vec_+/-, P_+/- B =
    S_+/- vec_+/-^* (S* G S) Σ V_k* = S_+/- L_+/- V_k* for the k_+/- x k
    L_+/- = vec_+/-^* g Σ, g = S* G S (I when G = I by value).
    """
    fac, sigma, vh = factored
    split, vp, vm, g = fac.split_coordinates(signature)
    lp, lm = ((v.conj().T if g is None else v.conj().T @ g) * sigma
              for v in (vp, vm))
    return (SplitB(b_plus=split.s_plus.frame @ (lp @ vh),
                   b_minus=split.s_minus.frame @ (lm @ vh), split=split),
            (vp, lp), (vm, lm))


def eval_fj(p, split, x, y):
    """Two-variable objective F_J(X, Y); F_J(X, X) = F(X)."""
    x = p.space.check_operator(x)
    y = p.space.check_operator(y)
    return krein_sandwich(split.b_plus @ x + split.b_minus @ y - p.c, p.w,
                          p.space)


@dataclass(frozen=True, eq=False)
class ImmsSolution:
    """Indefinite min-max solution Z = Z1 + Z2 (canonical Z2 = 0)."""

    z: np.ndarray
    z1: np.ndarray
    z2: np.ndarray
    minmax_value: np.ndarray
    schur_value: Optional[np.ndarray]


def solve_imms(p, rank_tol=None):
    """Indefinite min-max solution of BX - C = 0 with weight W.

    Z1 solves the normal equation, Z2 = 0; when the weight is
    complementable the value is checked against both closed forms
    C^# W_{/[R(B)]} C and C^# W (I - Q) C, each computed in the
    coordinates of R(B)^perp (no dim x dim Schur complement or Q).
    """
    return _solve_imms(p, _factor(p, rank_tol))


def _solve_imms(p, factored):
    """solve_imms, given ``_factor``'s (fac, sigma, vh)."""
    fac = factored[0]
    try:
        z1 = _solve_normal(p, factored)[0]
    except NormalEquationUnsolvable as exc:
        raise MinMaxUnsolvable(
            f"range condition R(C) ⊆ R(B) + W^-1(R(B)^[perp]) fails "
            f"(residual {exc.residual:.3e})", residual=exc.residual) from exc
    z2 = np.zeros_like(z1)
    z = z1 + z2
    value = eval_f(p, z)
    schur_value, sc = _schur_value(p, fac, value, "min-max value")
    if schur_value is not None:
        if not within(value - fac.projection_form(p.c), p.space.tol * sc):
            raise InternalCertificateFailure(
                "min-max value disagrees with the closed forms")
    return ImmsSolution(z=z, z1=z1, z2=z2, minmax_value=value,
                        schur_value=schur_value)


def neutral_shift(p, seed, rank_tol=None):
    """A Z2 with (B Z2)^# W (B Z2) = 0: maps into the W-neutral directions
    of R(B).  Zero when the compressed form's rank drops no eigenvalue."""
    fac, sigma, vh = _factor(p, rank_tol)
    kernel = fac.spectrum[1][:, ~fac.kept]
    if kernel.shape[1] == 0:
        return np.zeros((p.space.dim, p.space.dim), dtype=complex)
    rng = np.random.default_rng(seed)
    # neutral directions S kernel inside R(B), pulled back by
    # pinv(B) = V_k Σ^-1 S*
    mix = crand(rng, kernel.shape[1], p.space.dim)
    return vh.conj().T @ ((kernel @ mix) / sigma[:, None])
