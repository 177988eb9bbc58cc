"""Generalized Gell-Mann basis of su(d) and its nice (cos, sin) pairs.

All basis elements are Hermitian, traceless, and normalized to
Tr(T_a T_b) = 2 delta_ab.  The off-diagonal elements are grouped
mode-pair by mode-pair (symmetric then antisymmetric, consecutively)
followed by the diagonal elements, so that every cos/sin partner sits at
adjacent indices; nice_pairs lists them.  For d=2 this is the Pauli
triple; for d=3 the first diagonal moves to index 3, giving the standard
printed lambda_1..lambda_8 ordering.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache

import numpy as np


@dataclass(frozen=True)
class BasisElement:
    """One su(d) generator.

    index is 1-based (printed convention).  kind is "sym", "asym" or "diag".
    modes holds the (i, j) mode pair for root-type elements, None for
    diagonal ones.
    """

    index: int
    kind: str
    matrix: np.ndarray = field(repr=False)
    modes: tuple[int, int] | None = None


def _sym(d, i, j):
    m = np.zeros((d, d), dtype=np.complex128)
    m[i, j] = 1.0
    m[j, i] = 1.0
    return m


def _asym(d, i, j):
    m = np.zeros((d, d), dtype=np.complex128)
    m[i, j] = -1.0j
    m[j, i] = 1.0j
    return m


def _diag(d, k):
    # k ones followed by -k, scaled to trace-norm 2
    m = np.zeros((d, d), dtype=np.complex128)
    coeff = np.sqrt(2.0 / (k * (k + 1)))
    for i in range(k):
        m[i, i] = coeff
    m[k, k] = -k * coeff
    return m


@cache
def build_basis(d: int) -> tuple[BasisElement, ...]:
    """Return the d^2 - 1 generators in canonical order.

    Built once per d and shared: the matrices are read-only.
    """
    if d < 2:
        raise ValueError("need d >= 2")
    order: list[tuple[str, tuple[int, int] | int]] = []
    for i in range(d):
        for j in range(i + 1, d):
            order += [("sym", (i, j)), ("asym", (i, j))]
    order += [("diag", k) for k in range(1, d)]
    if d == 3:
        # printed order: the first diagonal sits at index 3
        order.insert(2, order.pop(6))
    out: list[BasisElement] = []
    for idx, (kind, info) in enumerate(order, start=1):
        if kind == "diag":
            out.append(BasisElement(idx, kind, _diag(d, info)))
        elif kind == "sym":
            out.append(BasisElement(idx, kind, _sym(d, *info), info))
        else:
            out.append(BasisElement(idx, kind, _asym(d, *info), info))
    for b in out:
        b.matrix.setflags(write=False)
    return tuple(out)


def nice_pairs(d: int) -> list[tuple[int, int]]:
    """1-based pairs (cos-like, sin-like): each sym element and the next."""
    return [(b.index, b.index + 1) for b in build_basis(d) if b.kind == "sym"]

