"""Instance generation: regimes, certificates, determinism, file round
trips."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from kreinls import (REGIMES, GeneratorSpec, UnsatisfiableSpec,
                     generate_instance, is_complementable, is_w_nonnegative,
                     is_w_nonpositive, oracle_sum_dimension, parse_problem,
                     problem_to_dict)


@pytest.mark.parametrize("regime", REGIMES)
@pytest.mark.parametrize("dim", [2, 3, 5, 8])
def test_regime_certificates(regime, dim):
    for seed in range(6):
        inst = generate_instance(GeneratorSpec(dim=dim, seed=seed,
                                               regime=regime))
        w, s, space = inst.problem.w, inst.subspace, inst.space
        comp = is_complementable(w, s, space)
        assert comp == (oracle_sum_dimension(inst.problem, s) == space.dim)
        if regime == "non_complementable":
            assert not comp
        else:
            assert comp
        if regime == "range_nonnegative":
            assert is_w_nonnegative(w, s, space)
        if regime == "range_nonpositive":
            assert is_w_nonpositive(w, s, space)
        if regime == "range_indefinite":
            assert not is_w_nonnegative(w, s, space)
            assert not is_w_nonpositive(w, s, space)
        if regime == "neutral_directions":
            assert inst.certificate["degenerate_block"]


def test_determinism():
    a = generate_instance(GeneratorSpec(dim=4, seed=7, regime="complementable"))
    b = generate_instance(GeneratorSpec(dim=4, seed=7, regime="complementable"))
    assert_allclose(a.problem.w, b.problem.w)
    assert_allclose(a.problem.b, b.problem.b)
    assert_allclose(a.problem.c, b.problem.c)
    c = generate_instance(GeneratorSpec(dim=4, seed=8, regime="complementable"))
    assert np.linalg.norm(a.problem.w - c.problem.w) > 1e-6


def test_planted_2x2_pattern(space2):
    """dim-2 non-complementable reproduces the [[0,1],[1,0]]-type block:
    a = 0, |b| bounded away from zero."""
    for seed in range(10):
        inst = generate_instance(GeneratorSpec(dim=2, seed=seed,
                                               regime="non_complementable"))
        u = inst.subspace.frame
        jw = inst.space.j_ref @ inst.problem.w
        a = u.conj().T @ jw @ u
        assert np.abs(a).max() < 1e-12
        v = inst.subspace.coordinate_complement().frame
        b = u.conj().T @ jw @ v
        assert np.abs(b).max() > 0.3


def test_unsatisfiable_specs():
    with pytest.raises(UnsatisfiableSpec):
        GeneratorSpec(dim=1, seed=0, regime="range_nonpositive")
    with pytest.raises(UnsatisfiableSpec):
        GeneratorSpec(dim=4, seed=0, regime="bogus")
    with pytest.raises(UnsatisfiableSpec):
        GeneratorSpec(dim=4, seed=0, regime="complementable", cond_bound=0.5)
    with pytest.raises(UnsatisfiableSpec):
        GeneratorSpec(dim=4, seed=0, regime="complementable",
                      cond_bound=float("nan"))
    with pytest.raises(UnsatisfiableSpec):
        GeneratorSpec(dim=4, seed=-5, regime="complementable")
    for bad in ({"dim": 2.5}, {"dim": "4"}, {"seed": 1.5}, {"seed": True},
                {"cond_bound": None}):
        with pytest.raises(UnsatisfiableSpec):
            GeneratorSpec(**{"dim": 4, "seed": 0, "regime": "complementable",
                             **bad})


def test_conditioning_bound_respected():
    for seed in range(8):
        inst = generate_instance(GeneratorSpec(dim=5, seed=seed,
                                               regime="range_nonnegative",
                                               cond_bound=4.0))
        eigs = [x for x in inst.certificate["a_eigenvalues"] if x != 0.0]
        assert max(eigs) <= 1.0 + 1e-12
        assert min(np.abs(eigs)) >= 0.25 - 1e-12


def test_round_trip_through_problem_file():
    inst = generate_instance(GeneratorSpec(dim=4, seed=11,
                                           regime="range_indefinite"))
    doc = problem_to_dict(problem=inst.problem, subspace=inst.subspace,
                          meta={"regime": "range_indefinite"})
    data = parse_problem(doc)
    assert_allclose(data.w, inst.problem.w)
    assert_allclose(data.b, inst.problem.b)
    assert_allclose(data.c, inst.problem.c)
    # the reloaded subspace spans the same space
    rs = data.subspace
    assert rs.dim == inst.subspace.dim
    assert rs.contains(inst.subspace.frame, 1e-10)
    # certificates recompute identically
    assert is_complementable(data.w, rs, data.space) \
        == inst.certificate["complementable"]
