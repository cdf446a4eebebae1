"""One factorization of (W, S) per public call: no repeated kernel work,
and no dim x dim cache outliving the call."""

from collections import Counter

import numpy as np
import pytest

from kreinls import (REGIMES, GeneratorSpec, KreinError, SignatureOperator,
                     WeightedProblem, decompose_w1w2w3, generate_instance,
                     parse_problem, problem_to_dict,
                     random_signature_operator, range_subspace,
                     schur_complement, solve_ims, solve_imms,
                     solve_trace_minmax)
from kreinls.linalg import herm, hpd_sqrt
from kreinls.schur import Factorization

# The numpy.linalg kernels kreinls calls; spectral norms reach ``svd``
# inside the module that defines numpy's ``norm``.
KERNELS = ("svd", "eigh", "eigvalsh", "qr", "cholesky", "inv")
# eigh and eigvalsh of one input answer the same spectral question
FAMILY = {"eigvalsh": "eigh"}
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


def repeated_kernels(log):
    """(family, shape) of every kernel family that ran more than once on
    the same input bytes, whatever its options."""
    runs = Counter((FAMILY.get(name, name), dtype, shape, data)
                   for name, _, _, dtype, shape, data in log)
    return [(family, shape) for (family, _, shape, _), n in runs.items()
            if n > 1]


@pytest.mark.parametrize("call", CALLS)
@pytest.mark.parametrize("regime", REGIMES)
def test_no_kernel_runs_twice_on_the_same_input(regime, call, kernel_log):
    """Within one public call no kernel (spectral norms included) gets
    an input it has had before, counting eigh and eigvalsh as one."""
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
            repeats = repeated_kernels(kernel_log)
            assert not repeats, f"seed {seed}: repeated {repeats}"


def test_an_accepted_solve_ims_takes_one_eigensolver_of_the_form(kernel_log):
    """The sign test, the range test and the Schur complement's a^† b
    read one eigh of the compressed form: no eigvalsh of the same bytes
    before it."""
    p = generate_instance(GeneratorSpec(dim=8, seed=3,
                                        regime="range_nonnegative")).problem
    kernel_log.clear()
    sol = solve_ims(p)
    assert sol.schur_value is not None
    assert not repeated_kernels(kernel_log)


@pytest.mark.parametrize("call", ["solve_imms", "solve_trace_minmax"])
@pytest.mark.parametrize("regime", REGIMES)
def test_the_complement_of_the_range_comes_from_its_svd(regime, call,
                                                        kernel_log):
    """R(B)'s own SVD gives its coordinate complement: no SVD takes S*."""
    for seed in (0, 1, 2):
        inst = generate_instance(GeneratorSpec(dim=6, seed=seed,
                                               regime=regime))
        p = inst.problem
        rows = range_subspace(p.b).frame.conj().T.tobytes()
        kernel_log.clear()
        try:
            CALLS[call](inst, p)
        except KreinError:
            pass
        assert any(k[0] == "svd" for k in kernel_log)
        on_rows = [k for k in kernel_log if k[0] == "svd" and k[-1] == rows]
        assert not on_rows, f"seed {seed}: an SVD of S*"


@pytest.mark.parametrize("call", ["solve_ims", "solve_imms",
                                  "solve_trace_minmax"])
def test_an_accepted_solve_runs_one_n_by_n_kernel(call, kernel_log):
    """At dim 32 the only logged kernel whose input has n rows and n
    columns or more is the SVD of B: the normal equation, its
    certificate, complementability, the blocks, Q and the saddle floors
    are all asked in R(B)'s k coordinates.  No SVD takes the k x n rows
    R = S* (J_ref W)."""
    n, accepted = 32, 0
    for regime in REGIMES:
        for seed in (0, 1, 2):
            inst = generate_instance(GeneratorSpec(dim=n, seed=seed,
                                                   regime=regime))
            p = inst.problem
            kernel_log.clear()
            try:
                CALLS[call](inst, p)
            except KreinError:
                continue
            accepted += 1
            big = [(name, data) for name, _, _, _, shape, data in kernel_log
                   if shape[-2] >= n and shape[-1] >= n]
            assert big == [("svd", p.b.tobytes())], f"{regime} {seed}"
            fac = Factorization(p.w, range_subspace(p.b), p.space)
            assert fac.s.dim < n
            rows = fac.rows.tobytes()
            assert not [k for k in kernel_log if k[-1] == rows], \
                f"{regime} {seed}"
    assert accepted >= 6


@pytest.mark.parametrize("call", ["solve_imms", "solve_trace_minmax"])
def test_an_accepted_min_max_reads_values_and_floors_in_k_coordinates(
        call, kernel_log):
    """At dim 32 an accepted reference-signature min-max solve logs no
    kernel with n rows or n columns but the SVD of B, and no Cholesky or
    inverse: both closed forms, the split, B_+/- and the saddle floors are
    read in R(B)'s coordinates."""
    n, accepted = 32, 0
    for regime in REGIMES:
        for seed in (0, 1, 2):
            inst = generate_instance(GeneratorSpec(dim=n, seed=seed,
                                                   regime=regime))
            p = inst.problem
            kernel_log.clear()
            try:
                CALLS[call](inst, p)
            except KreinError:
                continue
            accepted += 1
            wide = [(name, shape) for name, _, _, _, shape, data in kernel_log
                    if n in shape[-2:]
                    and (name, data) != ("svd", p.b.tobytes())]
            assert not wide, f"{regime} {seed}"
            assert not [k for k in kernel_log
                        if k[0] in ("cholesky", "inv")], f"{regime} {seed}"
    assert accepted >= 6


def test_decompose_takes_no_qr_of_an_empty_frame(kernel_log):
    """A split part of dimension 0 has Q = 0 and S^perp the whole space,
    so decompose_w1w2w3 takes no QR of a dim x 0 frame."""
    empty_parts = 0
    for regime in REGIMES:
        for seed in range(4):
            inst = generate_instance(GeneratorSpec(dim=4, seed=seed,
                                                   regime=regime))
            p = inst.problem
            kernel_log.clear()
            try:
                decompose_w1w2w3(p.w, inst.subspace, p.space)
            except KreinError:
                continue
            assert not [k for k in kernel_log
                        if k[0] == "qr" and k[4][-1] == 0], f"{regime} {seed}"
            split = Factorization(p.w, inst.subspace, p.space).split
            empty_parts += (split.s_plus.dim == 0) + (split.s_minus.dim == 0)
    assert empty_parts


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
    inst = generate_instance(GeneratorSpec(dim=6, seed=2,
                                           regime="complementable"))
    p, s = inst.problem, inst.subspace
    fac = Factorization(p.w, s, p.space)
    with pytest.raises(AttributeError):
        fac.norm = 0.0
    ref = schur_complement(p.w, s, p.space)
    assert np.array_equal(fac.schur.schur, ref.schur)


@pytest.mark.parametrize("call", ["solve_ims", "solve_imms",
                                  "schur_complement"])
@pytest.mark.parametrize("regime", REGIMES)
def test_no_eigh_runs_on_the_reference_gram(regime, call, kernel_log):
    """These calls never read the reference signature's Gram roots, so
    no eigh takes the n x n Gram J_ref J_ref."""
    for seed in (0, 1, 2):
        inst = generate_instance(GeneratorSpec(dim=6, seed=seed,
                                               regime=regime))
        p = inst.problem
        j = p.space.j_ref
        gram = herm(herm(j @ j)).tobytes()
        kernel_log.clear()
        try:
            CALLS[call](inst, p)
        except KreinError:
            pass
        on_gram = [name for name, _, _, _, _, data in kernel_log
                   if name == "eigh" and data == gram]
        assert not on_gram, f"seed {seed}: eigh of the Gram"


def test_signature_roots_are_computed_once_on_first_read(kernel_log):
    inst = generate_instance(GeneratorSpec(dim=6, seed=3,
                                           regime="range_indefinite"))
    space = inst.space
    for make in (lambda: SignatureOperator.reference(space),
                 lambda: random_signature_operator(space, 4)):
        sig = make()
        kernel_log.clear()
        sig = make()
        assert not [k for k in kernel_log if k[0] == "eigh"]
        kernel_log.clear()
        root, iroot = sig.gram_sqrt, sig.gram_isqrt
        assert [k[0] for k in kernel_log] == ["eigh"]
        assert sig.gram_sqrt is root and sig.gram_isqrt is iroot
        assert not root.flags.writeable and not iroot.flags.writeable
        want_root, want_iroot = hpd_sqrt(sig.gram)
        assert np.array_equal(root, want_root)
        assert np.array_equal(iroot, want_iroot)


def test_a_parsed_problem_takes_the_weight_norm_once(kernel_log):
    """parse_problem checks W's selfadjointness and hands ||W|| to the
    WeightedProblem, so a CLI solver command takes one SVD of W."""
    inst = generate_instance(GeneratorSpec(dim=6, seed=5,
                                           regime="range_nonnegative"))
    doc = problem_to_dict(problem=inst.problem, subspace=inst.subspace)
    kernel_log.clear()
    p = parse_problem(doc).weighted_problem()
    on_w = [k for k in kernel_log if k[0] == "svd" and k[-1] == p.w.tobytes()]
    assert len(on_w) == 1
    direct = WeightedProblem(w=p.w, b=p.b, c=p.c, space=p.space)
    assert direct.w_norm == p.w_norm
    assert np.array_equal(direct.w, p.w) and direct.b_norm == p.b_norm


def test_the_weight_norm_cannot_be_passed_in():
    """||W|| judges W's own selfadjointness, so no caller can set it: it
    is not a constructor argument, and a parsed W cannot be changed after
    the parser took its norm."""
    inst = generate_instance(GeneratorSpec(dim=6, seed=5,
                                           regime="range_nonnegative"))
    p = inst.problem
    with pytest.raises(TypeError):
        WeightedProblem(w=p.w, b=p.b, c=p.c, space=p.space, w_norm=1e300)
    data = parse_problem(problem_to_dict(problem=p, subspace=inst.subspace))
    with pytest.raises(TypeError):
        type(data)(space=data.space, w=data.w, b=data.b, c=data.c,
                   subspace=None, meta={}, _w_norm=1e300)
    with pytest.raises(ValueError):
        data.w[0, 1] += 1.0
