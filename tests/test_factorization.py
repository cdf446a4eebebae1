"""One factorization of (W, S) per public call: no repeated kernel work,
and no dim x dim cache outliving the call."""

from collections import Counter

import numpy as np
import pytest

from kreinls import (REGIMES, GeneratorSpec, KreinError, WeightedProblem,
                     generate_instance, schur_complement, solve_ims,
                     solve_imms, solve_trace_minmax)

# The numpy.linalg kernels kreinls calls; spectral norms reach ``svd``
# inside the module that defines numpy's ``norm``.
KERNELS = ("svd", "eigh", "eigvalsh")
CALLS = {
    "solve_ims": lambda inst, p: solve_ims(p),
    "solve_imms": lambda inst, p: solve_imms(p),
    "schur_complement": lambda inst, p: schur_complement(p.w, inst.subspace,
                                                         p.space),
    "solve_trace_minmax": lambda inst, p: solve_trace_minmax(p,
                                                             p.space.j_ref),
}


@pytest.fixture
def kernel_log(monkeypatch):
    """Every kernel call as (kernel, options, dtype, shape, input bytes)."""
    log = []

    def wrap(name, kernel):
        def logged(a, *args, **kwargs):
            x = np.asarray(a)
            log.append((name, args, tuple(sorted(kwargs.items())),
                        x.dtype.str, x.shape, x.tobytes()))
            return kernel(a, *args, **kwargs)
        return logged

    impl = getattr(np.linalg, "_linalg", None) or np.linalg.linalg
    for name in KERNELS:
        logged = wrap(name, getattr(np.linalg, name))
        monkeypatch.setattr(np.linalg, name, logged)
        monkeypatch.setattr(impl, name, logged)
    return log


@pytest.mark.parametrize("call", CALLS)
@pytest.mark.parametrize("regime", REGIMES)
def test_no_kernel_runs_twice_on_the_same_input(regime, call, kernel_log):
    """Within one public call every SVD, eigh and eigvalsh (spectral
    norms included) gets an input it has not had before."""
    for seed in (0, 1, 2):
        inst = generate_instance(GeneratorSpec(dim=6, seed=seed,
                                               regime=regime))
        p = inst.problem
        variants = (p, WeightedProblem(w=p.w, b=p.b, c=np.eye(6),
                                       space=p.space))
        for q in variants:
            kernel_log.clear()
            try:
                CALLS[call](inst, q)
            except KreinError:
                pass
            repeats = [(name, shape) for (name, _, _, _, shape, _), n
                       in Counter(kernel_log).items() if n > 1]
            assert not repeats, f"seed {seed}: repeated {repeats}"


def test_factorization_lives_for_one_call():
    """The solvers leave no array beyond the operands on the problem or
    the space, so nothing dim x dim outlives the call."""
    inst = generate_instance(GeneratorSpec(dim=6, seed=1,
                                           regime="range_indefinite"))
    p = inst.problem
    before = {k: type(v) for k, v in vars(p.space).items()}
    solve_imms(p)
    solve_trace_minmax(p, p.space.j_ref)
    arrays = {k for k, v in vars(p).items() if isinstance(v, np.ndarray)}
    assert arrays == {"w", "b", "c"}
    assert {k: type(v) for k, v in vars(p.space).items()} == before


def test_factorization_is_immutable_and_matches_the_wrappers():
    from kreinls.schur import Factorization

    inst = generate_instance(GeneratorSpec(dim=6, seed=2,
                                           regime="complementable"))
    p, s = inst.problem, inst.subspace
    fac = Factorization(p.w, s, p.space)
    with pytest.raises(AttributeError):
        fac.norm = 0.0
    ref = schur_complement(p.w, s, p.space)
    assert np.array_equal(fac.schur.schur, ref.schur)
    assert fac.scale == max(1.0, np.linalg.norm(p.w, 2))
