"""kreinls runs on NumPy alone.

The two kernels that stand in for SciPy (the matrix exponential behind
alternate signatures and the Hermitian-definite eigenproblem behind W
splits) are checked here for their invariants, and against SciPy as an
oracle when SciPy is installed.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import kreinls
from kreinls import (REGIMES, GeneratorSpec, generate_instance,
                     krein_adjoint, random_signature_operator, standard_space,
                     w_split)
from kreinls.core import _krein_skew
from kreinls.evidence import scale_of
from kreinls.linalg import expm, generalized_eigh, herm, opnorm

EPS = np.finfo(float).eps
SPACES = [(1, 1), (3, 2), (2, 5), (4, 4)]


def _python(code):
    """Run ``code`` in a fresh interpreter that imports this kreinls."""
    src = str(Path(kreinls.__file__).resolve().parents[1])
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    return subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=path))


def test_import_and_cli_leave_scipy_unloaded():
    done = _python("import sys, kreinls\n"
                   "print('scipy' in sys.modules)")
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"

    done = _python("import runpy, sys\n"
                   "sys.argv = ['kreinls', '--help']\n"
                   "try:\n"
                   "    runpy.run_module('kreinls.cli', run_name='__main__')\n"
                   "except SystemExit as exc:\n"
                   "    assert exc.code == 0, exc.code\n"
                   "print('scipy' in sys.modules, file=sys.stderr)")
    assert done.returncode == 0, done.stderr
    assert "usage: kreinls" in done.stdout
    assert done.stderr.strip() == "False"


@pytest.mark.parametrize("strength", [1.0, 8.0])
def test_signature_unitary_is_krein_unitary(strength):
    # strength 8 takes the scale-and-square path of expm (s = 3)
    for n_plus, n_minus in SPACES:
        space = standard_space(n_plus, n_minus)
        for seed in range(5):
            k, nk = _krein_skew(space, seed, strength)
            assert nk <= strength
            assert opnorm(krein_adjoint(k, space) + k) <= 10 * EPS * nk
            v = expm(k, nk)
            defect = krein_adjoint(v, space) @ v - np.eye(space.dim)
            assert opnorm(defect) <= 100 * EPS * opnorm(v) ** 2


def test_expm_edge_cases():
    assert np.array_equal(expm(np.zeros((3, 3), dtype=complex), 0.0),
                          np.eye(3))
    # a nilpotent Jordan block: exp is the finite series
    n = np.diag(np.ones(3), 1)
    want = np.eye(4) + n + n @ n / 2 + n @ n @ n / 6
    np.testing.assert_allclose(expm(n, opnorm(n)), want, atol=1e-15)
    # a diagonal with a large norm: the squaring path
    d = np.diag([-20.0, -1.0, 0.5, 20.0])
    got = np.diag(expm(d, 20.0))
    np.testing.assert_allclose(got, np.exp(np.diag(d)), rtol=1e-13)


@pytest.mark.parametrize("strength", [1.0, 8.0])
def test_expm_matches_scipy(strength):
    sl = pytest.importorskip("scipy.linalg")
    for n_plus, n_minus in SPACES:
        space = standard_space(n_plus, n_minus)
        for seed in range(5):
            k, nk = _krein_skew(space, seed, strength)
            want = sl.expm(k)
            assert opnorm(expm(k, nk) - want) <= 100 * EPS * opnorm(want)


@pytest.mark.parametrize("regime", REGIMES)
def test_w_split_matches_scipy_eigh(regime):
    sl = pytest.importorskip("scipy.linalg")
    for seed in range(3):
        inst = generate_instance(GeneratorSpec(dim=6, seed=seed,
                                               regime=regime))
        space, w, s = inst.space, inst.problem.w, inst.subspace
        sig = random_signature_operator(space, seed + 40)
        assert opnorm(sig.entries - space.j_ref) > 1e-2   # not J_ref
        u = s.frame
        a = herm(u.conj().T @ space.j_ref @ w @ u)
        g = herm(u.conj().T @ sig.gram @ u)
        lam, vec = generalized_eigh(a, g)
        lam_ref, vec_ref = sl.eigh(a, g)
        assert np.abs(lam - lam_ref).max() <= 1e-12 * scale_of(lam_ref)
        assert opnorm(vec.conj().T @ g @ vec - np.eye(s.dim)) <= 1e-12

        split = w_split(s, w, sig, space)
        plus = lam_ref >= -space.tol * scale_of(w)
        pairs = ((split.s_plus, u @ vec_ref[:, plus]),
                 (split.s_minus, u @ vec_ref[:, ~plus]))
        for part, want in pairs:
            got = part.frame
            assert got.shape == want.shape
            if not got.shape[1]:
                continue
            # the same span, and frames orthonormal in the signature's
            # inner product
            q_got, q_want = np.linalg.qr(got)[0], np.linalg.qr(want)[0]
            assert opnorm(q_got @ q_got.conj().T
                          - q_want @ q_want.conj().T) <= 1e-10
            gram = got.conj().T @ sig.gram @ got
            assert opnorm(gram - np.eye(got.shape[1])) <= 1e-12
