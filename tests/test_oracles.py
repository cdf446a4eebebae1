"""Brute-force oracles: projection-infimum envelope and parameter sweeps."""

import numpy as np
import pytest

from kreinls import (GeneratorSpec, RangeNotNonnegative, WeightedProblem,
                     generate_instance, minmax_order_gap,
                     oracle_parameter_sweep, oracle_projection_infimum,
                     schur_complement, solve_imms, solve_trace_min)
from kreinls.linalg import min_eig_herm, opnorm


def test_infimum_oracle_dominates_and_shrinks():
    inst = generate_instance(GeneratorSpec(dim=5, seed=41,
                                           regime="range_nonnegative"))
    w, s, space = inst.problem.w, inst.subspace, inst.space
    schur = schur_complement(w, s, space).schur
    res = oracle_projection_infimum(w, s, space, n=300, seed=2)
    gap = res.envelope - schur
    assert min_eig_herm(space.j_ref @ gap) >= -1e-9 * max(1.0, opnorm(w))
    hist = res.trace_history
    assert all(b <= a + 1e-12 for a, b in zip(hist, hist[1:]))
    # larger sample pools shrink the trace gap
    small = oracle_projection_infimum(w, s, space, n=5, seed=2)
    assert hist[-1] <= small.trace_history[-1] + 1e-12

    exact = oracle_projection_infimum(w, s, space, n=3, seed=2,
                                      include_canonical=True)
    target = float(np.trace(space.j_ref @ schur).real)
    assert exact.trace_history[-1] == pytest.approx(target, abs=1e-9)


def test_infimum_oracle_wrong_sign():
    inst = generate_instance(GeneratorSpec(dim=4, seed=42,
                                           regime="range_nonpositive"))
    with pytest.raises(RangeNotNonnegative):
        oracle_projection_infimum(inst.problem.w, inst.subspace, inst.space,
                                  n=3, seed=0)


def test_grid_sweep_canonical(space2):
    p = WeightedProblem(w=np.eye(2), b=np.diag([1.0, 0.0]), c=np.eye(2),
                        space=space2)
    res = oracle_parameter_sweep(p, grid=25, span=3.0, sense="min",
                                 mode="grid")
    # the lattice contains the optimizer diag(1, 0), so the value is exact
    assert res.value == pytest.approx(-1.0, abs=1e-12)
    assert res.mode == "grid"

    # a coarse off-lattice grid still brackets from above
    coarse = oracle_parameter_sweep(p, grid=8, span=2.5, sense="min",
                                    mode="grid")
    assert coarse.value >= -1.0 - 1e-12


def test_grid_sweep_max(space2):
    p = WeightedProblem(w=np.eye(2), b=np.diag([0.0, 1.0]), c=np.eye(2),
                        space=space2)
    res = oracle_parameter_sweep(p, grid=25, span=3.0, sense="max",
                                 mode="grid")
    # mirror instance: max of tr_J F = -(min of the mirrored problem) = 1
    assert res.value == pytest.approx(1.0, abs=1e-12)


def test_als_matches_solver_min():
    for seed in range(6):
        inst = generate_instance(GeneratorSpec(dim=4, seed=700 + seed,
                                               regime="range_nonnegative"))
        p = inst.problem
        sol = solve_trace_min(p, p.space.j_ref)
        res = oracle_parameter_sweep(p, sense="min", mode="als")
        assert res.converged
        assert abs(res.value - sol.value) <= 1e-6 * max(1.0, abs(sol.value))


def test_als_minmax_matches_closed_form():
    for seed in range(6):
        inst = generate_instance(GeneratorSpec(dim=4, seed=720 + seed,
                                               regime="range_indefinite"))
        p = inst.problem
        sol = solve_imms(p)
        closed = float(np.trace(p.space.j_ref @ sol.schur_value).real)
        for sig in (None, p.space.j_ref):   # a signature matrix is accepted
            res = oracle_parameter_sweep(p, sig, sense="minmax")
            assert abs(res.value - closed) <= 1e-6 * max(1.0, abs(closed))
            v_xy, v_yx = minmax_order_gap(p, sig)
            assert abs(v_xy - v_yx) <= 1e-8 * max(1.0, abs(closed))


def test_grid_mode_rejects_large_dims():
    from kreinls import DimensionMismatch

    inst = generate_instance(GeneratorSpec(dim=3, seed=1,
                                           regime="range_nonnegative"))
    with pytest.raises(DimensionMismatch):
        oracle_parameter_sweep(inst.problem, sense="min", mode="grid")
