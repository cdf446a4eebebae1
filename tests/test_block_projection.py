"""The W-symmetric projection Q = S (S* + a^† b V*) read off the blocks of
the weight form, checked against the rule it replaces: the oblique
projection onto S along T ⊖ (S ∩ T), T = W^{-1}(S^[perp]), and, for the
split parts S_+/-, along the same with E = S_-/+ forced into the kernel."""

import numpy as np

from conftest import preimage_frame
from kreinls import (REGIMES, GeneratorSpec, generate_instance,
                     is_complementable, oblique_projection,
                     oracle_sum_dimension, range_subspace)
from kreinls.linalg import null_frame, opnorm
from kreinls.schur import Factorization

RTOL = 1e-12


def reference_q(fac, forced=None):
    """The former rule: S ∩ T from the null vectors [x; y] of
    [F_S, -F_T] (F_S x = F_T y), and N(Q) spanned by E = ``forced`` and
    the part of T orthogonal to E and to S ∩ T."""
    s = fac.s.frame
    t = preimage_frame(fac)
    k = s.shape[1]
    null = null_frame(np.hstack([s, -t]), context=1.0)
    e = s[:, :0] if forced is None else forced
    inner = np.hstack([np.sqrt(2) * (s @ null[:k]), e])
    rest = t if 0 in (t.shape[1], inner.shape[1]) \
        else t @ null_frame(inner.conj().T @ t)
    return oblique_projection(s, np.hstack([e, rest]))


def _close(q, ref):
    return opnorm(q - ref) <= RTOL * max(opnorm(ref), 1.0)


def _pairs():
    """(key, problem, S) for the generated subspace and R(B)."""
    for dim in (4, 8, 32):
        for regime in REGIMES:
            for seed in range(20):
                inst = generate_instance(GeneratorSpec(dim=dim, seed=seed,
                                                       regime=regime))
                p = inst.problem
                for name, s in (("S", inst.subspace),
                                ("R(B)", range_subspace(p.b))):
                    yield f"{regime}.{dim}.{seed}.{name}", p, s


def test_block_q_agrees_with_the_oblique_projection_rule():
    """Over the 6 regimes at dims 4, 8 and 32, seeds 0-19, for S and
    R(B): the oracle and ``is_complementable`` agree on every pair; on a
    complementable pair Q and the split parts' Q_+/- match the former
    rule within 1e-12 relative, and S_-/+ lies in N(Q_+/-)."""
    compared = parts = 0
    for key, p, s in _pairs():
        w, space = p.w, p.space
        full = oracle_sum_dimension(p, s) == space.dim
        assert is_complementable(w, s, space) == full, key
        if not full:
            continue
        fac = Factorization(w, s, space)
        assert _close(fac.q, reference_q(fac)), key
        compared += 1
        split = fac.split
        for part, other in ((fac.plus, split.s_minus),
                            (fac.minus, split.s_plus)):
            part_full = oracle_sum_dimension(p, part.s) == space.dim
            assert part.complementable == part_full, key
            if not part_full:
                continue
            q = part.q
            assert _close(q, reference_q(part, other.frame)), key
            assert opnorm(q @ other.frame) <= space.tol * max(opnorm(q),
                                                              1.0), key
            parts += 1
    assert compared >= 500 and parts == 2 * compared
