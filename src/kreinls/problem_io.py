"""Problem and report files.

JSON only, hand-editable: complex entries are [re, im] pairs (bare reals
are accepted on input), matrices are row-major lists of rows.  A problem
file carries the reference signature J, the weight W, and optionally B,
C, a subspace frame, and a tolerance override.
"""

import json
import numbers
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .core import DEFAULT_TOL, KreinSpace, require_krein_selfadjoint
from .errors import MalformedInput, NotASignature, NotKreinSelfadjoint
from .lsq import _problem_at
from .subspaces import Subspace


def encode_complex(z):
    z = complex(z)
    return [z.real, z.imag]


def encode_matrix(a):
    a = np.asarray(a, dtype=complex)
    return [[encode_complex(z) for z in row] for row in a]


def _decode_entry(obj, where):
    if isinstance(obj, (int, float)):
        return complex(obj)
    if isinstance(obj, (list, tuple)) and len(obj) == 2 \
            and all(isinstance(x, (int, float)) for x in obj):
        return complex(obj[0], obj[1])
    raise MalformedInput(
        f"{where}: expected a number or an [re, im] pair, got {obj!r}")


def decode_matrix(obj, where, rows=None, cols=None):
    if not isinstance(obj, list) or not obj \
            or not all(isinstance(r, list) for r in obj):
        raise MalformedInput(f"{where}: expected a list of rows")
    mat = np.array([[_decode_entry(z, f"{where}[{i}][{j}]")
                     for j, z in enumerate(row)]
                    for i, row in enumerate(obj)], dtype=complex)
    if mat.ndim != 2 or any(len(r) != len(obj[0]) for r in obj):
        raise MalformedInput(f"{where}: rows have inconsistent lengths")
    if rows is not None and mat.shape[0] != rows:
        raise MalformedInput(
            f"{where}: expected {rows} rows, got {mat.shape[0]}")
    if cols is not None and mat.shape[1] != cols:
        raise MalformedInput(
            f"{where}: expected {cols} columns, got {mat.shape[1]}")
    bad = np.argwhere(~np.isfinite(mat))
    if len(bad):
        i, j = bad[0]
        raise MalformedInput(
            f"{where}[{i}][{j}]: entry {obj[i][j]!r} is not finite")
    return mat


@dataclass(frozen=True)
class ProblemData:
    """Parsed problem file: the space plus whichever operators were
    present.  W is read-only: parse_problem keeps the ||W|| its
    selfadjointness check took, so the weighted problem need not retake it."""

    space: KreinSpace
    w: np.ndarray
    b: Optional[np.ndarray]
    c: Optional[np.ndarray]
    subspace: Optional[Subspace]
    meta: dict
    _w_norm: Optional[float] = field(default=None, init=False, repr=False,
                                     compare=False)

    def weighted_problem(self):
        if self.b is None:
            raise MalformedInput("problem file has no B operator")
        c = self.c if self.c is not None \
            else np.eye(self.space.dim, dtype=complex)
        return _problem_at(self.w, self.b, c, self.space, self._w_norm)

    def subspace_or_range(self):
        if self.subspace is not None:
            return self.subspace
        if self.b is not None:
            from .subspaces import range_subspace
            return range_subspace(self.b)
        raise MalformedInput("problem file has neither a subspace nor B")


def parse_problem(data, tol_override=None):
    if not isinstance(data, dict):
        raise MalformedInput("problem file must be a JSON object")
    if "dim" not in data:
        raise MalformedInput("missing field 'dim'")
    dim = data["dim"]
    if isinstance(dim, bool) or not isinstance(dim, numbers.Integral):
        raise MalformedInput("'dim' must be an integer")
    if dim <= 0:
        raise MalformedInput("'dim' must be positive")
    if "J" not in data:
        raise MalformedInput("missing field 'J'")
    if "W" not in data:
        raise MalformedInput("missing field 'W'")

    tol = data.get("tol", DEFAULT_TOL) if tol_override is None \
        else tol_override
    j = decode_matrix(data["J"], "J", rows=dim, cols=dim)
    try:
        space = KreinSpace(dim=dim, j_ref=j, tol=tol)
    except NotASignature as exc:      # a bad 'tol' raises MalformedInput
        raise MalformedInput(f"J: {exc}") from exc
    w = decode_matrix(data["W"], "W", rows=dim, cols=dim)
    w.setflags(write=False)
    try:
        w_norm = require_krein_selfadjoint(w, space)[2]
    except NotKreinSelfadjoint:
        raise MalformedInput("W: weight is not [.,.]-selfadjoint") from None

    b = decode_matrix(data["B"], "B", rows=dim, cols=dim) \
        if "B" in data else None
    c = decode_matrix(data["C"], "C", rows=dim, cols=dim) \
        if "C" in data else None
    sub = None
    if "subspace" in data:
        frame = decode_matrix(data["subspace"], "subspace", rows=dim)
        if frame.shape[1] > dim:
            raise MalformedInput("subspace frame has more columns than dim")
        sub = Subspace.from_span(frame)
    meta = data.get("meta", {})
    if not isinstance(meta, dict):
        raise MalformedInput("'meta' must be an object")
    parsed = ProblemData(space=space, w=w, b=b, c=c, subspace=sub, meta=meta)
    object.__setattr__(parsed, "_w_norm", w_norm)
    return parsed


def _read_json(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise MalformedInput(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise MalformedInput(f"{path} is not valid JSON: {exc}") from exc


def load_problem(path, tol_override=None):
    return parse_problem(_read_json(path), tol_override)


def load_operator(path, dim=None):
    """An operator file: either a bare matrix or {"matrix": ...}."""
    data = _read_json(path)
    if isinstance(data, dict):
        if "matrix" not in data:
            raise MalformedInput(f"{path}: missing field 'matrix'")
        data = data["matrix"]
    return decode_matrix(data, "matrix", rows=dim, cols=dim)


def problem_to_dict(problem=None, subspace=None, space=None, w=None,
                    meta=None):
    """Serialize a problem (a WeightedProblem or explicit pieces)."""
    if problem is not None:
        space = problem.space
        w = problem.w
    out = {
        "dim": space.dim,
        "J": encode_matrix(space.j_ref),
        "W": encode_matrix(w),
        "tol": space.tol,
    }
    if problem is not None:
        out["B"] = encode_matrix(problem.b)
        out["C"] = encode_matrix(problem.c)
    if subspace is not None and subspace.dim > 0:
        out["subspace"] = encode_matrix(subspace.frame)
    if meta:
        out["meta"] = meta
    return out


def dump_json(obj, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2)
        fh.write("\n")
