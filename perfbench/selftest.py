"""Self-test of the benchmark's correctness checks.

Each check in ``checks.py`` gets a right answer, which it must accept,
and a deliberately wrong one, which it must reject: a perturbed X0, a
Schur complement off by a rank-one term, and a rejection carrying the
wrong error name.  Runs in about a second:

    python3 perfbench/selftest.py

Exit code 0 when every check behaves, 1 otherwise.
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

import kreinls as K  # noqa: E402

import checks  # noqa: E402

DIM = 8
SEED = 11


def instance(regime):
    return K.generate_instance(K.GeneratorSpec(dim=DIM, seed=SEED,
                                               regime=regime))


def perturb(x, rng):
    """A wrong answer near the right one: off by 1e-3 of its size."""
    d = rng.standard_normal(x.shape) + 1j * rng.standard_normal(x.shape)
    return x + 1e-3 * max(1.0, checks.norm2(x)) * d / checks.norm2(d)


def rank_one(a, rng):
    """Add a rank-one term of 1e-6 of the operand's size."""
    u = rng.standard_normal(a.shape[0]) + 1j * rng.standard_normal(a.shape[0])
    u /= np.linalg.norm(u)
    return a + 1e-6 * max(1.0, checks.norm2(a)) * np.outer(u, u.conj())


def cases():
    rng = np.random.default_rng(SEED)
    nonneg = instance("range_nonnegative")
    p = nonneg.problem
    w, b, c, j = p.w, p.b, p.c, p.space.j_ref
    ims = K.solve_ims(p)
    yield ("ims", checks.check_ims(w, b, c, j, ims.x0, ims.extremal_value),
           checks.check_ims(w, b, c, j, perturb(ims.x0, rng),
                            ims.extremal_value))
    tmin = K.solve_trace_min(p, j)
    yield ("trace_min",
           checks.check_trace_min(w, b, c, j, tmin.x0, tmin.value),
           checks.check_trace_min(w, b, c, j, perturb(tmin.x0, rng),
                                  tmin.value))

    comp = instance("range_indefinite")
    p = comp.problem
    w, b, c, j = p.w, p.b, p.c, p.space.j_ref
    imms = K.solve_imms(p)
    yield ("imms", checks.check_imms(w, b, c, j, imms.z, imms.minmax_value),
           checks.check_imms(w, b, c, j, perturb(imms.z, rng),
                             imms.minmax_value))
    yield ("imms_value",
           checks.check_imms(w, b, c, j, imms.z, imms.minmax_value),
           checks.check_imms(w, b, c, j, imms.z,
                             rank_one(imms.minmax_value, rng)))
    tmm = K.solve_trace_minmax(p, j)
    yield ("trace_minmax",
           checks.check_trace_minmax(w, b, c, j, tmm.z, tmm.value),
           checks.check_trace_minmax(w, b, c, j, perturb(tmm.z, rng),
                                     tmm.value))
    schur = K.schur_complement(w, comp.subspace, p.space).schur
    yield ("schur", checks.check_schur(w, j, comp.subspace.frame, schur),
           checks.check_schur(w, j, comp.subspace.frame,
                              rank_one(schur, rng)))

    t = rng.standard_normal((DIM, DIM)) + 1j * rng.standard_normal((DIM, DIM))
    value = K.trace_j(t, j, p.space).value
    yield ("trace", checks.check_trace(j, t, value),
           checks.check_trace(j, t, value + 1e-6 * np.abs(t).sum()))

    bad = instance("range_indefinite").problem
    try:
        K.solve_ims(bad)
        got = "ok"
    except K.KreinError as exc:
        got = type(exc).__name__
    yield ("rejection", checks.check_rejection(got, "RangeNotNonnegative"),
           checks.check_rejection("NormalEquationUnsolvable",
                                  "RangeNotNonnegative"))


def main():
    ok = True
    for name, right, wrong in cases():
        good = right is None and wrong is not None
        ok &= good
        print(f"[{'PASS' if good else 'FAIL'}] {name}: right answer "
              f"{'accepted' if right is None else 'REJECTED: ' + right}; "
              f"wrong answer {'ACCEPTED' if wrong is None else 'rejected: ' + wrong}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
