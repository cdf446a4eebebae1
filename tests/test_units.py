"""Decisions do not depend on the units of W, B or C, and zero or
non-finite operands end in a named result.

The problem min (BX - C)^# W (BX - C) is homogeneous: W -> aW scales
every value by a, B -> bB maps solutions X to X/b and C -> cC maps them
to cX, so every accept/reject decision must be the unit-scale one.
"""

from functools import lru_cache

import numpy as np
import pytest

from kreinls import (REGIMES, GeneratorSpec, MalformedInput, MinMaxUnsolvable,
                     NormalEquationUnsolvable, NotComplementable,
                     NotWeaklyComplementable, RangeNotNonnegative,
                     RangeNotNonpositive, WeightedProblem, generate_instance,
                     is_complementable, is_w_nonnegative, is_w_nonpositive,
                     normal_solvable, range_subspace, schur_complement,
                     solve_ims, solve_ims_max, solve_imms, solve_trace_min,
                     solve_trace_minmax, solve_wils_vector,
                     symmetric_projection)
from kreinls.linalg import opnorm

# (alpha, beta, gamma) multiplying (W, B, C): each factor alone over
# 1e-12 .. 1e12, then all three at the two corners
SCALINGS = [tuple(10.0 ** k if i == which else 1.0 for i in range(3))
            for which in range(3) for k in (-12, -6, 6, 12)] \
    + [(1e-12,) * 3, (1e12,) * 3]
THEOREM_ERRORS = (NotComplementable, NotWeaklyComplementable,
                  RangeNotNonnegative, RangeNotNonpositive,
                  NormalEquationUnsolvable, MinMaxUnsolvable)


def _problem(regime, seed, alpha=1.0, beta=1.0, gamma=1.0, zero=""):
    p = generate_instance(GeneratorSpec(dim=6, seed=seed,
                                        regime=regime)).problem
    ops = {"W": alpha * p.w, "B": beta * p.b, "C": gamma * p.c}
    if zero:
        ops[zero] = np.zeros_like(ops[zero])
    return WeightedProblem(w=ops["W"], b=ops["B"], c=ops["C"],
                           space=p.space)


def _calls(p):
    """The library's decisions on (W, B, C), by name; y = C 1 scales
    with C."""
    s, space = range_subspace(p.b), p.space
    return {
        "solve_ims": lambda: solve_ims(p),
        "solve_trace_min": lambda: solve_trace_min(p, space.j_ref),
        "solve_ims_max": lambda: solve_ims_max(p),
        "solve_imms": lambda: solve_imms(p),
        "solve_trace_minmax": lambda: solve_trace_minmax(p, space.j_ref),
        "solve_wils_vector":
            lambda: solve_wils_vector(p, p.c @ np.ones(space.dim)),
        "normal_solvable": lambda: bool(normal_solvable(p)),
        "is_w_nonnegative": lambda: bool(is_w_nonnegative(p.w, s, space)),
        "is_w_nonpositive": lambda: bool(is_w_nonpositive(p.w, s, space)),
        "is_complementable": lambda: bool(is_complementable(p.w, s, space)),
        "symmetric_projection": lambda: symmetric_projection(p.w, s, space),
        "schur_complement": lambda: schur_complement(p.w, s, space),
    }


def _decisions(p):
    """(outcome per decision, X0 of solve_ims or None)."""
    out, x0 = {}, None
    for name, call in _calls(p).items():
        try:
            result = call()
        except THEOREM_ERRORS as exc:
            out[name] = type(exc).__name__
            continue
        out[name] = result if isinstance(result, bool) else "ok"
        if name == "solve_ims":
            x0 = result.x0
    return out, x0


@lru_cache(maxsize=None)
def _unit(regime, seed):
    return _decisions(_problem(regime, seed))


@pytest.mark.parametrize("scaling", SCALINGS,
                         ids=lambda s: "a{:g}-b{:g}-c{:g}".format(*s))
@pytest.mark.parametrize("regime", REGIMES)
def test_decisions_do_not_depend_on_units(regime, scaling):
    alpha, beta, gamma = scaling
    for seed in (0, 1):
        want, x0 = _unit(regime, seed)
        got, x = _decisions(_problem(regime, seed, *scaling))
        assert got == want, seed
        if x0 is not None:
            expect = (gamma / beta) * x0
            assert opnorm(x - expect) <= 1e-9 * opnorm(expect), seed


@pytest.mark.parametrize("zero", ["W", "B", "C"])
@pytest.mark.parametrize("regime", REGIMES)
def test_zero_operands_end_in_a_named_result(regime, zero):
    """Every solver ends ok or in a theorem-named error: never
    DimensionMismatch, InternalCertificateFailure or
    RankThresholdAmbiguous."""
    for seed in range(4):
        for call in _calls(_problem(regime, seed, zero=zero)).values():
            try:
                call()
            except THEOREM_ERRORS:
                pass


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("operand", ["W", "B", "C"])
def test_non_finite_operands_are_malformed(operand, bad):
    p = generate_instance(GeneratorSpec(dim=4, seed=0,
                                        regime="complementable")).problem
    ops = {"W": p.w.copy(), "B": p.b.copy(), "C": p.c.copy()}
    ops[operand][1, 2] = bad
    with pytest.raises(MalformedInput) as exc:
        WeightedProblem(w=ops["W"], b=ops["B"], c=ops["C"], space=p.space)
    assert type(exc.value) is MalformedInput
    assert str(exc.value) == f"{operand}: entries are not finite"
