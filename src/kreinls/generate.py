"""Seeded instance generation with controlled structure.

Instances are planted in block form: the weight form relative to a chosen
subspace S is [[a, b], [b*, c]] in a random coordinate-orthonormal basis,
so complementability, range signs and neutral directions are dialed in
directly and certified after assembly.  The generator is deterministic
per (dim, seed, regime, cond_bound); the RNG is NumPy's PCG64.
"""

from dataclasses import dataclass, field

import numpy as np

from .core import standard_space
from .errors import InternalCertificateFailure, UnsatisfiableSpec
from .linalg import crand, herm, opnorm, orth_frame
from .lsq import WeightedProblem
from .schur import Factorization
from .subspaces import Subspace, is_w_nonpositive

REGIMES = ("complementable", "non_complementable", "range_nonnegative",
           "range_nonpositive", "range_indefinite", "neutral_directions")


@dataclass(frozen=True)
class GeneratorSpec:
    dim: int
    seed: int
    regime: str
    cond_bound: float = 10.0

    def __post_init__(self):
        if self.regime not in REGIMES:
            raise UnsatisfiableSpec(f"unknown regime {self.regime!r}")
        if self.dim < 2:
            raise UnsatisfiableSpec(
                "structured regimes need dim >= 2 (signature must carry "
                "both signs)")
        if self.cond_bound < 1.0:
            raise UnsatisfiableSpec("conditioning bound must be >= 1")


@dataclass(frozen=True)
class GeneratedInstance:
    problem: WeightedProblem
    subspace: Subspace
    spec: GeneratorSpec
    certificate: dict = field(repr=False)

    @property
    def space(self):
        return self.problem.space


def _hermitian(rng, k, norm=1.0):
    if k == 0:
        return np.zeros((0, 0), dtype=complex)
    m = herm(crand(rng, k, k))
    n = opnorm(m)
    return m * (norm / n) if n > 0 else m


def _unitary(rng, n):
    q, r = np.linalg.qr(crand(rng, n, n))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _structured_a(rng, k, signs, cond_bound, n_zero=0):
    """Hermitian k x k block with prescribed eigenvalue signs, magnitudes
    in [1/cond_bound, 1], and n_zero exact kernel dimensions."""
    mags = rng.uniform(1.0 / cond_bound, 1.0, size=k)
    vals = signs * mags
    if n_zero:
        vals[:n_zero] = 0.0
    q = _unitary(rng, k)
    return herm(q @ np.diag(vals) @ q.conj().T), np.sort(vals)


def _signs_for(rng, regime, k):
    if regime in ("range_nonnegative", "neutral_directions"):
        return np.ones(k)
    if regime == "range_nonpositive":
        return -np.ones(k)
    if regime == "range_indefinite":
        signs = np.ones(k)
        signs[: k // 2] = -1.0
        return rng.permutation(signs)
    if regime == "non_complementable":
        return np.ones(k)        # keep the range W-nonnegative
    signs = rng.choice([-1.0, 1.0], size=k)
    return signs


def _pick_k(rng, regime, n):
    if regime == "range_indefinite":
        return int(rng.integers(2, n + 1))
    if regime == "neutral_directions":
        return int(rng.integers(2, n + 1))
    return int(rng.integers(1, n))


def generate_instance(gspec):
    """Build a (W, B, C, S) instance certified to lie in its regime."""
    rng = np.random.default_rng(gspec.seed)
    n = gspec.dim
    space = standard_space(n - n // 2, n // 2)
    k = _pick_k(rng, gspec.regime, n)

    basis = _unitary(rng, n)
    u, v = basis[:, :k], basis[:, k:]
    signs = _signs_for(rng, gspec.regime, k)

    degenerate = False
    if gspec.regime == "non_complementable":
        n_zero = int(rng.integers(1, k + 1))
        a, a_eigs = _structured_a(rng, k, signs, gspec.cond_bound, n_zero)
        degenerate = True
    elif gspec.regime == "neutral_directions":
        n_zero = int(rng.integers(1, k))
        a, a_eigs = _structured_a(rng, k, signs, gspec.cond_bound, n_zero)
        degenerate = True
    elif gspec.regime == "complementable" and rng.random() < 0.3:
        n_zero = int(rng.integers(1, k)) if k > 1 else 0
        a, a_eigs = _structured_a(rng, k, signs, gspec.cond_bound, n_zero)
        degenerate = n_zero > 0
    else:
        a, a_eigs = _structured_a(rng, k, signs, gspec.cond_bound)

    if k < n:
        b = 0.5 * crand(rng, k, n - k)
        if degenerate:
            b = a @ b                     # forces R(b) ⊆ R(a)
        if gspec.regime == "non_complementable":
            lam, vec = np.linalg.eigh(a)
            kernel_vec = vec[:, np.argmin(np.abs(lam))]
            defect = crand(rng, n - k)
            defect *= rng.uniform(0.5, 1.0) / np.linalg.norm(defect)
            b = a @ crand(rng, k, n - k) * 0.5 \
                + np.outer(kernel_vec, defect.conj())
        c = _hermitian(rng, n - k, norm=rng.uniform(0.3, 1.0))
    else:
        b = np.zeros((k, 0), dtype=complex)
        c = np.zeros((0, 0), dtype=complex)

    jw = herm(basis @ np.block([[a, b], [b.conj().T, c]]) @ basis.conj().T)
    w = space.j_ref @ jw

    row = orth_frame(crand(rng, n, k)).conj().T
    row = np.diag(rng.uniform(0.6, 1.0, size=k)) @ row
    bmat = u @ row                        # R(B) = span(u) exactly

    roll = rng.random()
    if gspec.regime == "non_complementable" or roll < 0.25:
        cmat = np.eye(n, dtype=complex)
    else:
        cmat = crand(rng, n, n)
        cmat *= rng.uniform(0.3, 1.0) / opnorm(cmat)

    problem = WeightedProblem(w=w, b=bmat, c=cmat, space=space)
    subspace = Subspace(u)
    cert = _certify(gspec, problem, subspace, a_eigs, degenerate)
    return GeneratedInstance(problem=problem, subspace=subspace,
                             spec=gspec, certificate=cert)


def _certify(gspec, problem, subspace, a_eigs, degenerate):
    """Check the instance really belongs to its regime; a violation here
    is a generator bug."""
    w, space = problem.w, problem.space
    fac = Factorization(w, subspace, space, norm=problem.w_norm)
    cert = {
        "regime": gspec.regime,
        "seed": gspec.seed,
        "dim": gspec.dim,
        "subspace_dim": subspace.dim,
        "a_eigenvalues": [float(x) for x in a_eigs],
        "degenerate_block": bool(degenerate),
        "complementable": fac.complementable,
        "weakly_complementable": fac.weakly_complementable,
        "range_nonnegative": fac.nonnegative,
        "range_nonpositive": is_w_nonpositive(w, subspace, space),
    }
    expected = {
        "complementable": cert["complementable"],
        "non_complementable": not cert["complementable"],
        "range_nonnegative":
            cert["range_nonnegative"] and cert["complementable"],
        "range_nonpositive":
            cert["range_nonpositive"] and cert["complementable"],
        "range_indefinite":
            cert["complementable"] and not cert["range_nonnegative"]
            and not cert["range_nonpositive"],
        "neutral_directions":
            cert["complementable"] and cert["degenerate_block"],
    }[gspec.regime]
    if not expected:
        raise InternalCertificateFailure(
            f"generated instance failed its {gspec.regime} certificate: "
            f"{cert}")
    if cert["complementable"] != cert["weakly_complementable"]:
        raise InternalCertificateFailure(
            "complementability predicates disagree on a generated instance")
    return cert
