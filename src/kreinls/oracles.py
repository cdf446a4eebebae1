"""Independent brute-force oracles.

These corroborate the closed-form solver values without touching the
Schur-complement machinery: a dimension count for complementability,
projection sampling for the shorted-operator infimum, a dense real grid
for tiny problems, and alternating least squares sweeps (cyclic exact
column updates) for the trace objectives.
"""

from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .core import SignatureOperator, krein_sandwich
from .errors import DimensionMismatch, RangeNotNonnegative
from .linalg import null_frame, pinv, trace_product
from .lsq import split_b
from .subspaces import (_projection_stacks, is_w_nonnegative,
                        symmetric_projection)


def oracle_sum_dimension(p, s, rank_tol=None):
    """dim(S + T) for p's weight W and T = W^{-1}(S^[perp]) = N(S* J_ref W),
    its rank decided at dim n and ||W||, from one SVD of [F_S, -F_T]: a
    null vector [x; y] has F_S x = F_T y, so the nullity is dim(S ∩ T).
    W is complementable for S when the count is the dimension, which the
    harness checks the library's range test R(b) ⊆ R(a) against."""
    f = s.frame
    t = null_frame(f.conj().T @ (p.space.j_ref @ p.w), rank_tol,
                   context=p.w_norm)
    null = null_frame(np.hstack([f, -t]), rank_tol, context=1.0)
    return f.shape[1] + t.shape[1] - null.shape[1]


@dataclass(frozen=True, eq=False)
class InfimumOracleResult:
    """Best sampled E^# W E and the running trace history (monotone
    nonincreasing by construction)."""

    envelope: np.ndarray
    trace_history: list = field(repr=False)
    n_samples: int = 0


def oracle_projection_infimum(w, s, space, n, seed, include_canonical=False):
    """Sample projections E with N(E) = S and keep the candidate with the
    smallest tr(J E^# W E); it bounds the Schur complement from above in
    the indefinite order.  With ``include_canonical`` the first sample is
    E0 = I - Q, which attains the infimum exactly."""
    if not is_w_nonnegative(w, s, space):
        raise RangeNotNonnegative("S is not W-nonnegative")
    stacks = _projection_stacks(s, n, seed)
    if include_canonical:
        q = symmetric_projection(w, s, space)
        stacks = chain([(np.eye(space.dim) - q)[None]], stacks)

    best, best_trace = None, np.inf
    traces = [np.empty(0)]      # n = 0 draws no stack
    for es in stacks:
        cands = krein_sandwich(es, w, space)
        tr = trace_product(space.j_ref, cands).real
        i = int(np.argmin(tr))          # the first minimizer, as in a scan
        if tr[i] < best_trace:
            best_trace, best = tr[i], cands[i].copy()
        traces.append(tr)
    history = np.minimum.accumulate(np.concatenate(traces))
    return InfimumOracleResult(envelope=best, trace_history=history.tolist(),
                               n_samples=len(history))


@dataclass(frozen=True, eq=False)
class SweepResult:
    value: float
    mode: str
    history: list = field(repr=False)
    converged: bool = True


def _objective_pieces(p, signature):
    """f_J(X) = tr(M1 R^* M2 R) with R = BX - C, M1 = J' J_ref positive
    definite and M2 = J_ref W Hermitian."""
    m1 = signature.entries @ p.space.j_ref
    m2 = p.space.j_ref @ p.w
    return m1, m2


def _trace_form(m1, m2, r):
    """tr(M1 R^* M2 R) for one residual matrix or a stack of them."""
    return np.einsum("ab,...cb,cd,...da->...", m1, r.conj(), m2, r).real


def _grid_points(dim, grid, span):
    axes = np.linspace(-span, span, grid)
    mesh = np.meshgrid(*([axes] * (dim * dim)), indexing="ij")
    return np.stack(mesh, axis=-1).reshape(-1, dim, dim).astype(complex)


def _sweep_grid(p, signature, grid, span, sense):
    if p.space.dim > 2:
        raise DimensionMismatch("grid sweep is limited to dim <= 2")
    m1, m2 = _objective_pieces(p, signature)
    xs = _grid_points(p.space.dim, grid, span)
    vals = _trace_form(m1, m2, p.b @ xs - p.c)
    value = float(vals.min() if sense == "min" else vals.max())
    return SweepResult(value=value, mode="grid", history=[value])


def _column_sweeps(bmat, m1, m2, target, x0, max_sweeps, conv_tol):
    """Cyclic exact column updates for the stationary system
    B^* M2 (BX - target) M1 = 0 (Gauss-Seidel with an M1 coupling; the
    same update drives both the convex and the concave direction to the
    stationary value)."""
    ncore = bmat.conj().T @ m2 @ bmat
    r0 = bmat.conj().T @ m2 @ target
    ninv = pinv(ncore)
    d = bmat.shape[1]
    x = x0.copy()

    def objective(xc):
        return float(_trace_form(m1, m2, bmat @ xc - target))

    history = [objective(x)]
    stable = 0
    converged = False
    for _ in range(max_sweeps):
        for col in range(d):
            coupling = x @ m1[:, col] - x[:, col] * m1[col, col]
            rhs = r0 @ m1[:, col] - ncore @ coupling
            x[:, col] = (ninv @ rhs) / m1[col, col].real
        history.append(objective(x))
        if abs(history[-1] - history[-2]) <= conv_tol * max(
                1.0, abs(history[-1])):
            stable += 1
            if stable >= 3:
                converged = True
                break
        else:
            stable = 0
    return x, history, converged


def _sweep_als_extremum(p, signature, max_sweeps, conv_tol):
    m1, m2 = _objective_pieces(p, signature)
    x0 = np.zeros((p.space.dim, p.space.dim), dtype=complex)
    _, history, converged = _column_sweeps(p.b, m1, m2, p.c, x0,
                                           max_sweeps, conv_tol)
    return SweepResult(value=history[-1], mode="als", history=history,
                       converged=converged)


def _sweep_als_minmax(p, signature, split, max_sweeps, conv_tol,
                      order="xy", outer=8):
    """Alternate exact least-squares passes: X minimizes, Y maximizes
    f_J(X, Y) on the given range split."""
    m1, m2 = _objective_pieces(p, signature)
    d = p.space.dim
    x = np.zeros((d, d), dtype=complex)
    y = np.zeros((d, d), dtype=complex)

    def value(xc, yc):
        r = split.b_plus @ xc + split.b_minus @ yc - p.c
        return float(_trace_form(m1, m2, r))

    history = [value(x, y)]
    converged = False
    for _ in range(outer):
        for which in (order[0], order[1]):
            if which == "x":
                target = p.c - split.b_minus @ y
                x, _, _ = _column_sweeps(split.b_plus, m1, m2, target, x,
                                         max_sweeps, conv_tol)
            else:
                target = p.c - split.b_plus @ x
                y, _, _ = _column_sweeps(split.b_minus, m1, m2, target, y,
                                         max_sweeps, conv_tol)
        history.append(value(x, y))
        if abs(history[-1] - history[-2]) <= conv_tol * max(
                1.0, abs(history[-1])):
            converged = True
            break
    return SweepResult(value=history[-1], mode=f"als-minmax-{order}",
                       history=history, converged=converged)


def oracle_parameter_sweep(p, signature=None, grid=25, span=3.0,
                           sense="min", mode="auto", split=None,
                           max_sweeps=400, conv_tol=1e-12):
    """Brute-force value of the trace objective.

    Grid mode enumerates real matrices on a regular lattice (dim <= 2);
    ALS mode runs cyclic exact column sweeps.  For ``sense='minmax'`` the
    X and Y passes alternate on the split objective.  The returned value
    brackets the solver value to within grid resolution / sweep
    convergence.
    """
    if signature is None:
        signature = SignatureOperator.reference(p.space)
    if mode == "auto":
        mode = "grid" if (p.space.dim <= 2 and sense in ("min", "max")) \
            else "als"
    if sense == "minmax":
        if split is None:
            split = split_b(p, signature)
        return _sweep_als_minmax(p, signature, split, max_sweeps, conv_tol)
    if mode == "grid":
        return _sweep_grid(p, signature, grid, span, sense)
    return _sweep_als_extremum(p, signature, max_sweeps, conv_tol)


def minmax_order_gap(p, signature=None, split=None, max_sweeps=400,
                     conv_tol=1e-12):
    """Values of the max-min and min-max sweep orderings; the two must
    agree (and match the closed form) on complementable instances."""
    if signature is None:
        signature = SignatureOperator.reference(p.space)
    if split is None:
        split = split_b(p, signature)
    xy = _sweep_als_minmax(p, signature, split, max_sweeps, conv_tol, "xy")
    yx = _sweep_als_minmax(p, signature, split, max_sweeps, conv_tol, "yx")
    return xy.value, yx.value
