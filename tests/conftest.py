import numpy as np
import pytest

from kreinls import (GeneratorSpec, WeightedProblem, generate_instance,
                     standard_space)
from kreinls.linalg import null_frame


@pytest.fixture
def space2():
    """C^2 with J = diag(1, -1)."""
    return standard_space(1, 1)


@pytest.fixture
def space5():
    return standard_space(3, 2)


@pytest.fixture
def jb_alt():
    """The second fundamental decomposition of the 2x2 example:
    span{(2,1)} positive, span{(1,2)} negative."""
    return np.array([[5.0, -4.0], [4.0, -5.0]], dtype=complex) / 3.0


def crandn(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def preimage_frame(fac):
    """T = W^{-1}(S^[perp]) of a factorization as the complementability
    oracle takes it: the kernel of the k x n rows R = S* (J_ref W),
    decided on their singular values at dim n and ||W||."""
    return null_frame(fac.rows, fac.rank_tol, context=fac.norm)


def random_selfadjoint(rng, space, norm=1.0):
    """Random [.,.]-selfadjoint operator: J times a Hermitian matrix."""
    m = crandn(rng, space.dim, space.dim)
    h = 0.5 * (m + m.conj().T)
    h *= norm / max(1e-12, np.linalg.norm(h, 2))
    return space.j_ref @ h


def regime_problems(regime, seeds=(0, 1, 2)):
    """Generated dim-6 problems of one regime, each also with C = I."""
    for seed in seeds:
        p = generate_instance(GeneratorSpec(dim=6, seed=seed,
                                            regime=regime)).problem
        yield p
        yield WeightedProblem(w=p.w, b=p.b, c=np.eye(6), space=p.space)
