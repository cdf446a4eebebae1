"""Sampled evidence: the harness's independent checks of the solvers.

The solvers certify their results exactly, and no solver module imports
this one.  It holds the samplers, the sampled order and trace floors, the
projection-infimum and trace-law reports, and the report normalizers
max(1, |eigs|), max(1, |vals|), max(1, |base|), max(||gap||, max(1,
||W||)) and ``scale_of``, which are not decision rules.  Each sampler
call draws from one ``default_rng(seed)``: a stack of directions in one
draw, or the projections' maps in one draw per block.
"""

import numbers
from dataclasses import asdict, dataclass

import numpy as np

from .core import as_signature, krein_adjoint, krein_sandwich
from .errors import (DimensionMismatch, MalformedInput,
                     NotWeaklyComplementable, RangeNotNonnegative)
from .jtrace import trace_norm_assoc, trace_objective, trace_objective_xy
from .linalg import crand, g_orthonormalize, herm, opnorm, trace_product
from .lsq import CertificateReport, eval_f, eval_fj
from .schur import Factorization


def scale_of(*operands):
    """Harness report normalizer max(1, operand norms); not a decision rule."""
    return max(1.0, *(opnorm(a) for a in operands)) if operands else 1.0


def check_sampling(n_samples, sense="min", name="n_samples", low=1):
    """Raise MalformedInput unless the count (argument ``name``) is a
    non-bool integer of at least ``low`` and ``sense`` is "min" or "max"."""
    if isinstance(n_samples, bool) \
            or not isinstance(n_samples, numbers.Integral) or n_samples < low:
        raise MalformedInput(f"{name} must be an integer of at least {low}, "
                             f"got {n_samples!r}")
    if sense not in ("min", "max"):
        raise MalformedInput(f"sense must be 'min' or 'max', got {sense!r}")


def _tally(floors, tol):
    """(min_floor, violations): the smallest floor, the count below -tol."""
    return float(floors.min()), int((floors < -tol).sum())


def sample_directions(space, anchor, n_samples, seed):
    """Matrices anchor + t * R at log-spaced scales t; mixing scales makes
    first-order optimality violations visible alongside global ones."""
    r = crand(np.random.default_rng(seed), n_samples, space.dim, space.dim)
    r /= np.maximum(1e-12, np.abs(r).max(axis=(1, 2)))[:, None, None]
    return anchor + np.logspace(-2, 1, n_samples)[:, None, None] * r


def _sampled_f(p, x0, n_samples, seed, sense):
    """F(X_i) for ``n_samples`` directions X_i around X0, the sampling step
    of both sampled certificates, once the count and sense are checked."""
    check_sampling(n_samples, sense)
    xs = sample_directions(p.space, x0, n_samples, seed)
    return krein_sandwich(p.b @ xs - p.c, p.w, p.space)


def fj_stack(p, split, x, y):
    """F_J(X, Y) where either argument may be a stack of operators."""
    return krein_sandwich(split.b_plus @ x + split.b_minus @ y - p.c, p.w,
                          p.space)


def order_floors(space, diffs):
    """Normalized smallest eigenvalues of J_ref * diff for a stack of
    differences that should be positive in the indefinite order."""
    eigs = np.linalg.eigvalsh(herm(space.j_ref @ diffs))
    return eigs.min(axis=1) / np.maximum(1.0, np.abs(eigs).max(axis=1))


def minimality_certificate(p, x0, n_samples=64, seed=0, sense="min"):
    """Sampled check that F(X) - F(X0) (or its negative, for the maximum
    problem) stays positive in the indefinite order."""
    diffs = _sampled_f(p, x0, n_samples, seed, sense) - eval_f(p, x0)
    if sense == "max":
        diffs = -diffs
    tol = p.space.tol
    return CertificateReport(n_samples, *_tally(order_floors(p.space, diffs),
                                                tol), tol)


def scalar_floor_certificate(p, j, x0, n_samples, seed, sense="min"):
    """Sampled f_J(X) >= f_J(X0) (or <=, for max) check."""
    sig = as_signature(j, p.space)
    base = trace_objective(p, sig, x0)
    vals = trace_product(sig.entries,
                         _sampled_f(p, x0, n_samples, seed, sense)).real
    gaps = vals - base if sense == "min" else base - vals
    tol = p.space.tol
    return CertificateReport(
        n_samples, *_tally(gaps / np.maximum(1.0, np.abs(vals)), tol), tol)


@dataclass(frozen=True)
class SaddleReport:
    """Operator-order saddle evidence F_J(Z, Y) <= F_J(Z, Z) <= F_J(X, Z)
    over sampled X and Y."""

    n_samples: int
    min_floor_min_side: float
    min_floor_max_side: float
    violations_min_side: int
    violations_max_side: int
    tol: float

    @property
    def passed(self):
        return self.violations_min_side == 0 and self.violations_max_side == 0


def saddle_sides(p, split, z, n_samples, seed):
    """F_J(X_i, Z) over sampled X, then F_J(Z, Y_i) over sampled Y.

    Each side's samples are drawn only when it is asked for, so one
    side's stacks are never held alongside the other's.
    """
    check_sampling(n_samples)
    yield fj_stack(p, split, sample_directions(p.space, z, n_samples, seed),
                   z)
    yield fj_stack(p, split, z,
                   sample_directions(p.space, z, n_samples, seed + 1))


def verify_saddle(p, split, sol, n_samples=64, seed=0):
    """Sample the two saddle inequalities around a candidate solution."""
    z = sol.z if hasattr(sol, "z") else p.space.check_operator(sol)
    center = eval_fj(p, split, z, z)
    sides = saddle_sides(p, split, z, n_samples, seed)
    tol = p.space.tol
    low_min, bad_min = _tally(order_floors(p.space, next(sides) - center), tol)
    low_max, bad_max = _tally(order_floors(p.space, center - next(sides)), tol)
    return SaddleReport(n_samples, low_min, low_max, bad_min, bad_max, tol)


def trace_saddle_floors(p, sig, sol, n_samples, seed):
    """Sampled trace saddle floors around a trace min-max solution:
    tr_J(F_J(X_i, Z)) - f_J(Z, Z) and f_J(Z, Z) - tr_J(F_J(Z, Y_i)) over
    sampled X and Y, relative to max(1, |f_J(Z, Z)|), under the solution's
    own split along ``sig``."""
    base = trace_objective_xy(p, sol.split, sig, sol.z, sol.z)
    scale = max(1.0, abs(base))
    sides = saddle_sides(p, sol.split, sol.z, n_samples, seed)
    traces = lambda stack: trace_product(sig.entries, stack).real
    return (float(((traces(next(sides)) - base) / scale).min()),
            float(((base - traces(next(sides))) / scale).min()))


def projection_with_kernel(s, seed, mix_strength=1.5):
    """Seeded sampler for the family {E : E^2 = E, N(E) = S}: the one
    sample of ``projection_stacks(s, 1, seed)``."""
    if s.dim >= s.ambient_dim:
        raise DimensionMismatch("S must be a proper subspace")
    return next(projection_stacks(s, 1, seed, mix_strength))[0]


def projection_stacks(s, n_samples, seed, mix_strength=1.5):
    """``n_samples`` seeded samples of {E : E^2 = E, N(E) = S} (E = 0
    alone when S is the whole space), yielded in blocks whose
    (m, dim, dim) complex stacks take at most 4 MiB each, which bounds the
    memory of a sampled check at any dimension.

    Each range is a random complement of S: the graph of a map from S^perp
    into S, scaled down to norm ``mix_strength`` when larger, so the
    sample stays well conditioned.  One ``default_rng(seed)`` draws each
    block's m maps in one call, ``crand(rng, m, k, dim - k)``.
    """
    dim, k = s.ambient_dim, s.dim
    if k >= dim:
        yield np.zeros((1, dim, dim), dtype=complex)
        return
    rng = np.random.default_rng(seed)
    v = s.coordinate_complement().frame
    step = max(1, (4 << 20) // (16 * dim * dim))
    for i in range(0, n_samples, step):
        ells = crand(rng, min(step, n_samples - i), k, dim - k)
        norms = np.linalg.norm(ells, 2, axis=(1, 2))
        big = norms > mix_strength
        ells[big] *= (mix_strength / norms[big])[:, None, None]
        c = v + s.frame @ ells          # complement frames (not orthonormal)
        yield c @ np.linalg.inv(v.conj().T @ c) @ v.conj().T


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
    check_sampling(n_samples)
    fac = Factorization(w, s, space, rank_tol)
    w = fac.w
    if not fac.nonnegative:
        raise RangeNotNonnegative("S is not W-nonnegative")
    if not fac.complementable:
        raise NotWeaklyComplementable("weight is not weakly complementable")
    schur = fac.schur.schur
    wn = max(fac.norm, np.finfo(float).tiny)
    e0 = np.eye(space.dim) - fac.q
    eq_resid = opnorm(krein_sandwich(e0, w, space) - schur) / wn
    floors = []
    for es in projection_stacks(s, n_samples, seed):
        gaps = krein_sandwich(es, w, space) - schur
        # the report normalizer max(scale_of(gap), max(1, ||W||))
        floors.append(np.linalg.eigvalsh(herm(space.j_ref @ gaps)).min(axis=1)
                      / np.maximum(np.linalg.norm(gaps, 2, axis=(1, 2)),
                                   max(1.0, fac.norm)))
    floors = np.concatenate(floors)
    low, bad = _tally(floors, space.tol)
    return ProjectionInfimumReport(len(floors), low, eq_resid, bad)


def trace_j_basis_sum(t, j, space, seed=0):
    """The defining basis sum of the J-trace, evaluated on a seeded random
    orthonormal basis of the associated Hilbert space.  Used to check
    basis independence against trace(J T)."""
    sig = as_signature(j, space)
    t = space.check_operator(t)
    basis = g_orthonormalize(crand(np.random.default_rng(seed), space.dim,
                                   space.dim), sig.gram)
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
        return asdict(self)

    def max_residual(self):
        return max(self.residuals().values())


def verify_trace_laws(s, t, alpha, beta, j, space, seed=0):
    sig = as_signature(j, space)
    s = space.check_operator(s)
    t = space.check_operator(t)
    jm = sig.entries
    sc = scale_of(s, t) * max(1.0, abs(alpha), abs(beta))

    tr = lambda a: complex(trace_product(jm, a))
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
