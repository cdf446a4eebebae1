"""Correctness checks made apart from kreinls.

Every reference value here is rebuilt with plain NumPy from the problem
data (W, B, C, J), never by calling the package.  Each check returns
``None`` when the answer is right and a short reason string when it is
wrong, so the benchmark can count and report failures without raising.

Tolerances are fixed here, before any run: ``RTOL`` is relative to the
natural scale of the compared quantity and sits two orders above the
package's own default tolerance of 1e-10, far above the ~1e-14
agreement seen on generated instances and far below any real error.
"""

import numpy as np

RTOL = 1e-8
FRAME_RTOL = 1e-10   # rank cutoff for frames of R(B) and of S
PINV_RTOL = 1e-8     # cutoff for the pseudo-inverse of the block a


def norm2(a):
    a = np.asarray(a)
    return float(np.linalg.norm(a, 2)) if a.size else 0.0


def kadj(a, j):
    """Indefinite adjoint J A* J."""
    return j @ a.conj().T @ j


def frames(s):
    """Orthonormal frames (U of span(s), V of its orthogonal complement)
    from a full SVD of the spanning matrix ``s``."""
    u, sig, _ = np.linalg.svd(s)
    rank = int((sig > FRAME_RTOL * max(sig[0], 1e-300)).sum()) if sig.size else 0
    return u[:, :rank], u[:, rank:]


def schur_reference(w, j, s):
    """W_{/[S]} = J V (c - b* a^+ b) V*, with a, b, c the blocks of J W
    on frames U of S and V of its complement."""
    u, v = frames(s)
    jw = j @ w
    a = u.conj().T @ jw @ u
    b = u.conj().T @ jw @ v
    c = v.conj().T @ jw @ v
    a = 0.5 * (a + a.conj().T)
    lam, q = np.linalg.eigh(a)
    keep = np.abs(lam) > PINV_RTOL * max(np.abs(lam).max(initial=0.0), 1e-300)
    a_pinv = (q[:, keep] / lam[keep]) @ q[:, keep].conj().T
    core = c - b.conj().T @ a_pinv @ b
    return j @ v @ core @ v.conj().T


def objective(w, b, c, j, x):
    """F(X) = (BX - C)^# W (BX - C)."""
    r = b @ x - c
    return kadj(r, j) @ w @ r


def check_normal_residual(w, b, c, j, x):
    """B^# W (B X - C) = 0, relative to the sizes of its two terms."""
    bw = kadj(b, j) @ w
    resid = norm2(bw @ (b @ x - c))
    scale = norm2(bw @ b) * norm2(x) + norm2(bw @ c)
    if resid > RTOL * max(1.0, scale):
        return f"normal residual {resid:.3e} (scale {scale:.3e})"
    return None


def check_compressed_nonnegative(w, b, j):
    """J B^# W B = B* (J W) B has no eigenvalue below -RTOL * scale."""
    h = b.conj().T @ (j @ w) @ b
    lam = np.linalg.eigvalsh(0.5 * (h + h.conj().T))
    scale = norm2(b) ** 2 * norm2(w)
    if lam.min() < -RTOL * max(1.0, scale):
        return f"J B#WB has eigenvalue {lam.min():.3e}"
    return None


def check_close(got, want, scale, what):
    """Matrices by spectral norm, scalars by absolute value."""
    diff = np.asarray(got) - np.asarray(want)
    gap = norm2(diff) if diff.ndim == 2 else float(np.abs(diff))
    if gap > RTOL * max(1.0, scale):
        return f"{what} off by {gap:.3e} (scale {scale:.3e})"
    return None


def check_ims(w, b, c, j, x0, value):
    """An accepted indefinite minimum: normal equation, nonnegative
    compressed form, and the value equal to F(X0)."""
    f = objective(w, b, c, j, x0)
    scale = norm2(w) * (norm2(b) * norm2(x0) + norm2(c)) ** 2
    return (check_normal_residual(w, b, c, j, x0)
            or check_compressed_nonnegative(w, b, j)
            or check_close(value, f, scale, "F(X0)"))


def minmax_reference(w, b, c, j):
    """C^# W_{/[R(B)]} C from the benchmark's own Schur complement."""
    return kadj(c, j) @ schur_reference(w, j, b) @ c


def check_imms(w, b, c, j, z, value):
    """An accepted min-max solution: normal equation and the value equal
    to C^# W_{/[R(B)]} C."""
    want = minmax_reference(w, b, c, j)
    return (check_normal_residual(w, b, c, j, z)
            or check_close(value, want, norm2(w) * norm2(c) ** 2,
                           "min-max value"))


def check_trace_minmax(w, b, c, j, z, value):
    """An accepted trace min-max solution: normal equation and the value
    equal to tr(J C^# W_{/[R(B)]} C)."""
    want = float(np.trace(j @ minmax_reference(w, b, c, j)).real)
    scale = w.shape[0] * norm2(w) * norm2(c) ** 2
    return (check_normal_residual(w, b, c, j, z)
            or check_close(value, want, scale, "trace min-max value"))


def check_schur(w, j, s, schur):
    """The program's Schur complement against the frame formula."""
    return check_close(schur, schur_reference(w, j, s), norm2(w),
                       "Schur complement")


def check_trace_min(w, b, c, j, x0, value):
    """An accepted trace minimum: normal equation and the value equal to
    tr(J F(X0))."""
    f = objective(w, b, c, j, x0)
    scale = w.shape[0] * norm2(w) * (norm2(b) * norm2(x0) + norm2(c)) ** 2
    return (check_normal_residual(w, b, c, j, x0)
            or check_close(value, float(np.trace(j @ f).real), scale,
                           "trace minimum value"))


def check_rejection(got, want):
    """The outcome of a call ("ok" or an error name) must be the one the
    planted regime implies; a rejection must carry the named error."""
    if got != want:
        return f"expected {want}, got {got}"
    return None


def check_trace(j, t, value):
    return check_close(value, complex(np.trace(j @ t)),
                       float(np.abs(t).sum()), "J-trace")


def decode(obj):
    """A matrix in the [re, im] pair encoding of the problem files."""
    a = np.asarray(obj, dtype=float)
    if a.ndim == 2:
        return a.astype(complex)
    return a[..., 0] + 1j * a[..., 1]
