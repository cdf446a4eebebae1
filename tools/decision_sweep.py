"""Digest the decision of every solver and subspace call on a seeded corpus.

    PYTHONPATH=src python3 tools/decision_sweep.py [--rank-tol TOL] [--detail]

For dims 4, 8 and 32, each of the generator's ``REGIMES`` and seeds 0-39
it runs 11 calls on the generated instance and records one line
``dim/regime/seed/call:outcome``, where the outcome is ``ok``, the error
type or the boolean the call returned.  It prints the number of lines
and a SHA-256 prefix (16 hex digits) of the lines joined by newlines;
``--detail`` prints the lines too.  ``--rank-tol`` is passed to the seven
``lsq``/``jtrace`` calls (``ims``, ``ims_max``, ``imms``, ``tmm``,
``normal_solvable``, ``solve_normal``, ``wils``); the four subspace calls
run at the default cutoff.  A change that alters bits but claims to keep
every decision prints the same digest as its parent, on the same machine.
"""

import argparse
import hashlib

import numpy as np

import kreinls as K

DIMS = (4, 8, 32)
SEEDS = range(40)


def calls(inst, rank_tol):
    p, s = inst.problem, inst.subspace
    space, seed = p.space, inst.spec.seed
    y = np.random.default_rng(seed).standard_normal(space.dim)
    return {
        "ims": lambda: K.solve_ims(p, rank_tol),
        "ims_max": lambda: K.solve_ims_max(p, rank_tol),
        "imms": lambda: K.solve_imms(p, rank_tol),
        "tmm": lambda: K.solve_trace_minmax(p, space.j_ref, rank_tol),
        "normal_solvable": lambda: K.normal_solvable(p, rank_tol),
        "solve_normal": lambda: K.solve_normal(p, rank_tol),
        "wils": lambda: K.solve_wils_vector(p, y, rank_tol),
        "complementable": lambda: K.is_complementable(
            p.w, K.range_subspace(p.b), space),
        "Q": lambda: K.symmetric_projection(p.w, K.range_subspace(p.b),
                                            space),
        "schur": lambda: K.schur_complement(p.w, s, space),
        "w123": lambda: K.decompose_w1w2w3(p.w, s, space),
    }


def outcome(fn):
    try:
        value = fn()
    except Exception as exc:     # the error type is the decision
        return type(exc).__name__
    return str(value) if isinstance(value, bool) else "ok"


def sweep(rank_tol=None):
    """The decision lines, in the order dims, regimes, seeds, calls."""
    lines = []
    for dim in DIMS:
        for regime in K.REGIMES:
            for seed in SEEDS:
                inst = K.generate_instance(K.GeneratorSpec(
                    dim=dim, seed=seed, regime=regime))
                for name, fn in calls(inst, rank_tol).items():
                    lines.append(f"{dim}/{regime}/{seed}/{name}:"
                                 f"{outcome(fn)}")
    return lines


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--rank-tol", type=float, default=None)
    ap.add_argument("--detail", action="store_true")
    args = ap.parse_args()
    lines = sweep(args.rank_tol)
    if args.detail:
        print("\n".join(lines))
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]
    print(f"{len(lines)} {digest}")


if __name__ == "__main__":
    main()
