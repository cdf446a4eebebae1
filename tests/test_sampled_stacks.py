"""Stacked projection sampling and the batched infimum evidence.

The per-sample loops below are the one-at-a-time implementations the
stacked code replaced; they are kept as the reference the stacks must
match bit for bit.
"""

import tracemalloc

import numpy as np
import pytest

from kreinls import (REGIMES, DimensionMismatch, GeneratorSpec, KreinError,
                     SignatureOperator, Subspace, generate_instance,
                     oracle_projection_infimum, projection_infimum_check,
                     projection_with_kernel, symmetric_projection, w_split)
from kreinls.core import krein_sandwich
from kreinls.linalg import (crand, min_eig_herm, opnorm, same_bits,
                            scale_of, trace_product)
from kreinls.schur import Factorization
from kreinls.subspaces import projections_with_kernel


def loop_projection(s, seed, mix_strength=1.5):
    n, k = s.ambient_dim, s.dim
    v = s.coordinate_complement().frame
    if k == 0:
        return np.eye(n, dtype=complex)
    ell = crand(np.random.default_rng(seed), k, n - k)
    nl = opnorm(ell)
    if nl > mix_strength:
        ell *= mix_strength / nl
    c = v + s.frame @ ell
    return c @ np.linalg.inv(v.conj().T @ c) @ v.conj().T


def loop_seeds(seed, n):
    return [int(sd) for sd in
            np.random.default_rng(seed).integers(0, 2**63, size=n)]


def loop_infimum_check(w, s, space, n_samples, seed):
    """Floors, min floor and violations, one sample at a time."""
    fac = Factorization(w, s, space)
    schur = fac.schur.schur
    if s.dim >= space.dim:
        samples = [np.zeros((space.dim, space.dim), dtype=complex)]
    else:
        samples = [loop_projection(s, sd)
                   for sd in loop_seeds(seed, n_samples)]
    floors = []
    for e in samples:
        gap = krein_sandwich(e, fac.w, space) - schur
        floors.append(min_eig_herm(space.j_ref @ gap)
                      / max(scale_of(gap), max(1.0, fac.norm)))
    return (len(floors), min(floors),
            sum(f < -space.tol for f in floors))


def loop_oracle(w, s, space, n, seed, include_canonical=False):
    """(traces, candidates), one sample at a time."""
    samples = []
    if include_canonical:
        samples.append(np.eye(space.dim) - symmetric_projection(w, s, space))
    if s.dim >= space.dim:
        samples.append(np.zeros((space.dim, space.dim), dtype=complex))
    else:
        samples.extend(loop_projection(s, sd) for sd in loop_seeds(seed, n))
    cands = [krein_sandwich(e, w, space) for e in samples]
    traces = [float(trace_product(space.j_ref, c).real) for c in cands]
    return traces, cands


def subspace_cases(dim, seeds=(3, 4)):
    """(w, S, space) per regime and seed: the instance's own subspace
    and its W-nonnegative part S_+, which every oracle accepts."""
    for regime in REGIMES:
        for seed in seeds:
            inst = generate_instance(GeneratorSpec(dim=dim, seed=seed,
                                                   regime=regime))
            w, s, space = inst.problem.w, inst.subspace, inst.space
            plus = w_split(s, w, SignatureOperator.reference(space),
                           space).s_plus
            yield regime, w, s, space
            yield regime, w, plus, space


@pytest.mark.parametrize("n,k", [(4, 0), (4, 1), (5, 3), (6, 5)])
def test_stack_matches_single_samples_bitwise(n, k):
    rng = np.random.default_rng(100 + 10 * n + k)
    s = Subspace.from_span(crand(rng, n, k)) if k else Subspace.zero(n)
    seeds = loop_seeds(n + k, 12)
    stack = projections_with_kernel(s, seeds)
    assert stack.shape == (12, n, n)
    for i, sd in enumerate(seeds):
        assert same_bits(stack[i], projection_with_kernel(s, sd))
        assert same_bits(stack[i], loop_projection(s, sd))
    for e in stack:
        assert opnorm(e @ e - e) < 1e-10
        # N(E) = S: E kills S and has rank n - k
        if k:
            assert opnorm(e @ s.frame) < 1e-10
        assert np.linalg.matrix_rank(e, tol=1e-8) == n - k


def test_stack_keeps_mix_strength_and_rejects_full_subspace():
    s = Subspace(np.eye(3)[:, :1])
    seeds = list(range(8))
    flat = projections_with_kernel(s, seeds, mix_strength=0.0)
    assert np.allclose(flat, np.diag([0.0, 1.0, 1.0]), atol=1e-12)
    for i, sd in enumerate(seeds):
        assert same_bits(projections_with_kernel(s, seeds, 0.7)[i],
                         loop_projection(s, sd, 0.7))
    with pytest.raises(DimensionMismatch):
        projections_with_kernel(Subspace.full(3), seeds)


def _outcome(fn):
    try:
        return fn()
    except KreinError as exc:
        return type(exc)


def test_batched_infimum_check_matches_loop_on_all_regimes():
    sampled = 0
    for regime, w, s, space in subspace_cases(6):
        got = _outcome(lambda: projection_infimum_check(w, s, space, 40, 9))
        if isinstance(got, type):
            continue        # a precondition failed before any sampling
        sampled += 1
        assert (got.n_samples, got.min_floor, got.violations) == \
            loop_infimum_check(w, s, space, 40, 9), regime
    assert sampled >= 6


def test_batched_oracle_matches_loop_on_all_regimes():
    sampled = 0
    for regime, w, s, space in subspace_cases(6):
        for canonical in (False, True):
            got = _outcome(lambda: oracle_projection_infimum(
                w, s, space, 30, 5, include_canonical=canonical))
            if isinstance(got, type):
                continue
            sampled += 1
            traces, cands = loop_oracle(w, s, space, 30, 5, canonical)
            assert got.n_samples == len(traces)
            assert got.trace_history == list(np.minimum.accumulate(traces))
            assert same_bits(got.envelope, cands[int(np.argmin(traces))])
    assert sampled >= 12


def test_blocks_cross_at_dim_64():
    """100 dim-64 samples span two 4 MiB blocks (64 samples each)."""
    inst = generate_instance(GeneratorSpec(dim=64, seed=7,
                                           regime="range_nonnegative"))
    w, s, space = inst.problem.w, inst.subspace, inst.space
    chk = projection_infimum_check(w, s, space, n_samples=100, seed=3)
    assert (chk.n_samples, chk.min_floor, chk.violations) == \
        loop_infimum_check(w, s, space, 100, 3)
    res = oracle_projection_infimum(w, s, space, n=100, seed=4)
    traces, cands = loop_oracle(w, s, space, 100, 4)
    assert res.trace_history == list(np.minimum.accumulate(traces))
    assert same_bits(res.envelope, cands[int(np.argmin(traces))])


def test_trace_history_is_running_minimum_with_first_minimizer():
    inst = generate_instance(GeneratorSpec(dim=5, seed=41,
                                           regime="range_nonnegative"))
    w, s, space = inst.problem.w, inst.subspace, inst.space
    res = oracle_projection_infimum(w, s, space, n=200, seed=2,
                                    include_canonical=True)
    hist = res.trace_history
    assert len(hist) == res.n_samples == 201
    assert all(b <= a for a, b in zip(hist, hist[1:]))
    traces, cands = loop_oracle(w, s, space, 200, 2, include_canonical=True)
    first = traces.index(min(traces))
    assert same_bits(res.envelope, cands[first])
    # E = I is the only projection with kernel {0}: every trace ties,
    # and the envelope is the first candidate's
    res = oracle_projection_infimum(w, Subspace.zero(5), space, n=20, seed=2)
    assert len(set(res.trace_history)) == 1
    assert same_bits(res.envelope, krein_sandwich(np.eye(5, dtype=complex),
                                                  w, space))


def test_infimum_check_memory_is_blocked_at_dim_128():
    inst = generate_instance(GeneratorSpec(dim=128, seed=7,
                                           regime="range_nonnegative"))
    w, s, space = inst.problem.w, inst.subspace, inst.space
    tracemalloc.start()
    try:
        chk = projection_infimum_check(w, s, space, n_samples=100, seed=5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert chk.n_samples == 100 and chk.passed()
    assert peak < 32e6
