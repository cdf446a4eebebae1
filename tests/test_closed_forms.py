"""The min-max closed forms, the split of B and the saddle floors read in
R(B)'s coordinates, checked against the dim x dim rules they replace:
C^# W_{/[S]} C from the Schur complement, C^# W (I - Q) C from Q, the
split frames from the generalized eigenproblem of a against S* G S,
B_+/- = P_+/- B with P_+/- = S_+/- S_+/-^* G, and the saddle floors from
an eigvalsh of herm(+/- B_+/-^* J_ref W B_+/-)."""

import numpy as np

from conftest import crandn
from kreinls import (REGIMES, GeneratorSpec, KreinSpace, WeightedProblem,
                     generate_instance, random_signature_operator)
from kreinls.core import SignatureOperator, krein_adjoint, krein_sandwich
from kreinls.jtrace import _saddle_floors
from kreinls.linalg import generalized_eigh, herm, opnorm
from kreinls.lsq import _factor, _split_b

RTOL = 1e-12


def reference_values(p, fac):
    """C^# W_{/[S]} C and C^# W (I - Q) C from the dim x dim W_{/[S]}
    and Q."""
    eye = np.eye(p.space.dim)
    return (krein_sandwich(p.c, fac.schur.schur, p.space),
            krein_adjoint(p.c, p.space) @ p.w @ (eye - fac.q) @ p.c)


def reference_split(p, fac, sig):
    """(S_+, S_-, B_+, B_-, floors) by the former rule."""
    u = fac.s.frame
    if u.shape[1]:
        lam, vec = generalized_eigh(fac._a, herm(u.conj().T @ sig.gram @ u))
        plus = lam >= -p.space.tol * fac.norm
        frames = (u @ vec[:, plus], u @ vec[:, ~plus])
    else:
        frames = (u, u)
    bs = tuple(f @ f.conj().T @ sig.gram @ p.b for f in frames)
    floors = []
    for b, sign in zip(bs, (1.0, -1.0)):
        scale = opnorm(b) ** 2 * fac.norm
        low = np.linalg.eigvalsh(herm(sign * (b.conj().T @ fac.jw @ b)))
        floors.append(low.min() / scale if scale > 0 else 0.0)
    return frames, bs, floors


def _rotated(p, seed):
    """The problem in coordinates x -> U x for a seeded unitary U, so that
    J_ref is not diagonal and its Gram J_ref J_ref is I only to rounding."""
    q, _ = np.linalg.qr(crandn(np.random.default_rng(seed), p.space.dim,
                               p.space.dim))
    space = KreinSpace(p.space.dim, herm(q @ p.space.j_ref @ q.conj().T))
    return WeightedProblem(w=q @ p.w @ q.conj().T, b=q @ p.b,
                           c=q @ p.c @ q.conj().T, space=space)


def _problems():
    """Generated problems of the 6 regimes at dims 6, 8 and 32, with R(B)
    of dimension 0 (B = 0) and n (B invertible), and one problem in
    rotated coordinates per regime at dim 6."""
    for dim in (6, 8, 32):
        for regime in REGIMES:
            for seed in (0, 1):
                p = generate_instance(GeneratorSpec(dim=dim, seed=seed,
                                                    regime=regime)).problem
                yield f"{regime}.{dim}.{seed}", p
                if dim == 6:
                    yield f"{regime}.{dim}.{seed}.rotated", _rotated(p, seed)
        rng = np.random.default_rng(dim)
        yield f"k=0.{dim}", WeightedProblem(w=p.w, b=np.zeros((dim, dim)),
                                            c=p.c, space=p.space)
        yield f"k=n.{dim}", WeightedProblem(w=p.w, b=crandn(rng, dim, dim),
                                            c=p.c, space=p.space)


def _close(got, want, scale):
    return opnorm(got - want) <= RTOL * scale


def test_closed_forms_agree_with_the_schur_complement_and_q():
    seen = set()
    for key, p in _problems():
        fac = _factor(p, None)[0]
        if not fac.complementable:
            continue
        seen.update({fac.s.dim} & {0, p.space.dim})
        if not fac.reference.unit_gram:
            seen.add("rotated")
        scale = p.w_norm * p.c_norm ** 2
        via_schur, via_q = reference_values(p, fac)
        assert _close(fac.schur_form(p.c), via_schur, scale), key
        assert _close(fac.projection_form(p.c), via_q, scale), key
    assert seen == {0, 6, 8, 32, "rotated"}


def test_split_b_and_saddle_floors_agree_with_the_dim_by_dim_rules():
    """Under the reference signature and an alternate one: the split
    parts, B_+/- and both saddle floors."""
    empty = set()
    for key, p in _problems():
        factored = _factor(p, None)
        fac = factored[0]
        for sig in (SignatureOperator.reference(p.space),
                    random_signature_operator(p.space, 7)):
            frames, bs, floors = reference_split(p, fac, sig)
            split_b, plus, minus = _split_b(p, factored, sig)
            parts = (split_b.split.s_plus, split_b.split.s_minus)
            for got, want in zip(parts, frames):
                assert got.dim == want.shape[1], key
                if not got.dim:
                    empty.add(got is parts[0])
                    continue
                gram = sig.gram
                proj = want @ want.conj().T @ gram
                assert _close(got.frame @ got.frame.conj().T @ gram, proj,
                              max(1.0, opnorm(proj))), key
            for got, want in zip((split_b.b_plus, split_b.b_minus), bs):
                assert _close(got, want, max(opnorm(p.b), opnorm(want))), key
            for got, want in zip(_saddle_floors(fac, plus, minus),
                                 floors):
                assert abs(got - want) <= RTOL, key
    assert empty == {True, False}, "an empty S_+ and an empty S_-"
