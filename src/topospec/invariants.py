"""Wrapping numbers: adaptive quadrature, boundary-limit evaluation, gluing.

The numeric route integrates the area density S . (dS/dr x dS/dphi) / 4pi
over the annulus with Simpson weights in r and midpoints in phi.  The
radial grid doubles until two successive estimates agree within the
tolerance; the rule is nested, so each doubling evaluates only the new odd
nodes and reuses the phi-summed density kept at the old ones.  Nodes are
streamed in blocks of about BLOCK_POINTS (r, phi) points; every block and
every doubling of a map reuses the field's radial-monomial tables of the
density, built once per map, and its three-view per-thread workspace.  No
extrapolation is applied: the finer estimate is reported as it stands.
The analytic route rests on one exponent rule.  With the Gaussian envelope
dropped, every pair term of a component grows like r^e with
e = |l_j| + |l_j'|; the third axis's terms, summed per exponent, leave a
sorted list of live (exponent, weight) entries, and the rule compares it
with the pair exponent.  The lowest live exponent wins as r -> 0 and the
highest as r -> infinity, exponent ties land on intermediate latitudes
W / sqrt(W^2 + 4), a lone live exponent equal to the pair's leaves a
degenerate map, and a lowest live exponent one above the pair's makes the
planar density diverge like 1/r at the origin (the singular flag).  The
closed forms, the singular flag of a field or of a canonical label, and
the accidental predictor all read the same list.  A nice-pair triple
takes its pair and third-axis terms from fields.map_layout, and so does
the catalogue of canonical qutrit labels, built once at import: a plain
label is the index triple it spells, a starred one its pair's usual map
(third axis the pair's own commutator).  Disk-like maps (one
boundary end mapping to a trace instead of a point) are glued, doubling
the raw integral.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .basis import build_basis
from .fields import (BLOCK_POINTS, GridSpec, MapClass, TripleSpec, UnitField,
                     classify_map, map_layout, term_field, triple_field)
from .states import QuditState

QUAD_TOL = 5e-3


@dataclass(frozen=True)
class WrappingResult:
    raw: float
    glued: float
    map_class: MapClass
    quadrature_error: float
    converged: bool
    singular: bool
    n_r_used: int


@dataclass(frozen=True)
class AnalyticWrap:
    raw: float
    glued: float
    kind: str


def _row_sums(field: UnitField, r: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Phi-summed area density at each radial node, streamed over blocks.

    A block holds about BLOCK_POINTS (r, phi) points (at least one row), so
    the field's workspace stays the same size at every n_phi.
    """
    block = max(1, BLOCK_POINTS // phi.size)
    return np.concatenate([field.area_density(r[lo:lo + block], phi).sum(axis=1)
                           for lo in range(0, r.size, block)])


def glue(raw: float, map_class: MapClass) -> float:
    """Doubled for disk-like maps, untouched otherwise."""
    return 2.0 * raw if map_class.kind == "disk" else raw


def singularity_class(field: UnitField) -> bool:
    """True when the planar density diverges like 1/r at the origin.

    Read from the third axis's term content, so it holds for any
    amplitudes: a root-type term weighs in with its magnitude.
    """
    if field.pair_modes is None:
        return False
    (i, j), l, third = field.pair_modes, field.l, field.terms[2]
    terms = [(m, n, a if m == n else np.hypot(a, b))
             for m, n, a, b in zip(third.js, third.jps, third.alpha, third.beta)]
    return _exponent_rule(abs(l[i]) + abs(l[j]), _live_exponents(l, terms))[0]


def wrapping_numeric(field: UnitField, grid: GridSpec | None = None,
                     singular: bool | None = None, tol: float = QUAD_TOL,
                     max_doublings: int = 2) -> WrappingResult:
    """Adaptive wrapping integral with trend classification and gluing."""
    g = (grid or GridSpec()).resolve(field.l)
    if singular is None:
        singular = singularity_class(field)
    if singular:
        g = replace(g, n_phi=4 * g.n_phi)
    phi = g.phi_nodes()
    dphi = 2.0 * np.pi / phi.size
    r, w = g.radial_rule(0)
    rows = _row_sums(field, r, phi)
    vals = [float(w @ rows) * dphi / (4.0 * np.pi)]
    err = np.inf
    for level in range(1, max_doublings + 1):
        # the previous level's nodes are the even nodes of this one
        r, w = g.radial_rule(level)
        fine = np.empty(r.size)
        fine[0::2] = rows
        fine[1::2] = _row_sums(field, r[1::2], phi)
        rows = fine
        vals.append(float(w @ rows) * dphi / (4.0 * np.pi))
        err = abs(vals[-1] - vals[-2])
        if err <= tol:
            break
    raw = vals[-1]
    cls = classify_map(field, g)
    return WrappingResult(raw, glue(raw, cls), cls, err, err <= tol,
                          bool(singular), g.n_r * 2 ** (len(vals) - 1))


# ---------------------------------------------------------------------------
# the exponent rule and the closed forms

def _live_exponents(l, terms) -> list[tuple[int, float]]:
    """Third-axis terms (m, n, weight) as ascending live (exponent, weight).

    A term grows like r^(|l_m| + |l_n|) once the common Gaussian envelope
    is dropped: a diagonal term has m = n, a root-type third is one term.
    Weights of one exponent add up, and sums within 1e-12 of zero drop out.
    """
    if len(terms) == 1:
        (m, n, w), = terms
        return [(abs(l[m]) + abs(l[n]), w)] if abs(w) > 1e-12 else []
    exps: dict[int, float] = {}
    for m, n, w in terms:
        e = abs(l[m]) + abs(l[n])
        exps[e] = exps.get(e, 0.0) + w
    return sorted((e, w) for e, w in exps.items() if abs(w) > 1e-12)


def _exponent_rule(e_pair: int, live) -> tuple[bool, bool, float, float]:
    """(singular, degenerate, e0, einf) of a map from its radial exponents.

    live is the third axis's ascending list of live (exponent, weight)
    entries and e_pair the pair amplitude's exponent.  At each radial end
    the third axis's leading entry reaches its pole (sign of its weight)
    when it outgrows the pair, the equator when the pair outgrows it, and
    the latitude W / sqrt(W^2 + 4) on a tie.  A map with no live entry, or
    a single one at the pair exponent, is degenerate.
    """
    if not live:
        return False, True, 0.0, 0.0
    e_lo, w_lo = live[0]
    e_hi, w_hi = live[-1]
    if e_lo == e_hi == e_pair:
        # third stays proportional to the pair amplitude at every radius
        return False, True, 0.0, 0.0
    if e_lo < e_pair:
        e0 = 1.0 if w_lo > 0 else -1.0
    elif e_lo > e_pair:
        e0 = 0.0
    else:
        e0 = w_lo / np.hypot(w_lo, 2.0)
    if e_hi > e_pair:
        einf = 1.0 if w_hi > 0 else -1.0
    elif e_hi < e_pair:
        einf = 0.0
    else:
        einf = w_hi / np.hypot(w_hi, 2.0)
    return e_lo - e_pair == 1, False, e0, einf


def _wrap_from_limits(omega: int, e0: float, einf: float) -> AnalyticWrap:
    raw = 0.5 * omega * (einf - e0)
    traces = int(abs(e0) < 1.0 - 1e-12) + int(abs(einf) < 1.0 - 1e-12)
    if traces == 1:
        return AnalyticWrap(raw, 2.0 * raw, "disk")
    if traces == 0:
        return AnalyticWrap(raw, raw, "sphere")
    raise ValueError("both radial ends map to traces; not a closable map")


def _closed_form(l, pair: tuple[int, int], third) -> AnalyticWrap:
    """Boundary-limit value of the nice pair on modes pair with third-axis
    terms third (see _live_exponents)."""
    i, j = pair
    omega = l[i] - l[j]
    if omega != 0:
        _, degenerate, e0, einf = _exponent_rule(abs(l[i]) + abs(l[j]),
                                                 _live_exponents(l, third))
        if not degenerate:
            return _wrap_from_limits(omega, e0, einf)
    return AnalyticWrap(0.0, 0.0, "degenerate")


def _usual_map(i: int, j: int):
    """Pair modes and third-axis terms of the root pair on modes i, j with
    its own commutator third."""
    return (i, j), ((i, i, 1.0), (j, j, -1.0))


def wrapping_analytic_usual(l, modes: tuple[int, int]) -> AnalyticWrap:
    """Root-pair map with its own commutator third, any dimension."""
    return _closed_form(tuple(l), *_usual_map(*modes))


def wrapping_analytic_triple(l, indices: tuple[int, int, int],
                             d: int | None = None) -> AnalyticWrap | None:
    """Closed-form value of a pure-index triple for an equal-amplitude state.

    Nice-pair triples evaluate through the exponent rule on the third-axis
    terms of their layout; mixed cos/diagonal/sin triples go through the
    accidental predictor.  Anything else has no closed form here.
    """
    l = tuple(int(x) for x in l)
    d = d or len(l)
    idx = tuple(sorted(int(i) for i in indices))
    _, pair, _, third = map_layout(d, idx)
    if pair is None:
        v = accidental_predict(l, idx, d)
        return None if v is None else AnalyticWrap(v, v, "accidental")
    return _closed_form(l, pair, third)


CANONICAL_LABELS = ["123", "45*", "67*",
                    "124", "125", "126", "127", "128",
                    "451", "452", "453", "456", "457",
                    "671", "672", "673", "674", "675"]

_ALIASES = {"45s": "45*", "67s": "67*", "458": "45*", "678": "67*"}


# Pair modes and third-axis terms of every canonical label: a plain label
# is the index triple it spells (map_layout's pair modes and third terms),
# a starred one its pair's usual map.
_D3_MAPS = {label: (_usual_map(*build_basis(3)[int(label[0]) - 1].modes)
                    if label[2] == "*" else
                    map_layout(3, tuple(sorted(int(ch) for ch in label)))[1::2])
            for label in CANONICAL_LABELS}


def canonical_label(label: str) -> str:
    label = _ALIASES.get(label, label)
    if label not in CANONICAL_LABELS:
        raise ValueError(f"unknown canonical label: {label!r}")
    return label


def wrapping_analytic_d3(label: str, l) -> AnalyticWrap:
    """Exact value of one of the 18 canonical qutrit maps."""
    label = canonical_label(label)
    l = tuple(int(x) for x in l)
    if len(l) != 3:
        raise ValueError("need three mode indices")
    return _closed_form(l, *_D3_MAPS[label])


def singularity_class_label(label: str, l) -> bool:
    """Origin-singularity flag of a canonical label at mode indices l.

    The label catalog holds the equal-amplitude term content, so the flag
    is that of a clean state with equal amplitudes.
    """
    (i, j), third = _D3_MAPS[canonical_label(label)]
    l = tuple(int(x) for x in l)
    return _exponent_rule(abs(l[i]) + abs(l[j]), _live_exponents(l, third))[0]


# ---------------------------------------------------------------------------
# canonical qutrit fields

def canonical_field(state: QuditState, label: str) -> UnitField:
    """UnitField of a canonical qutrit map label for the given state.

    Plain labels are index triples.  The starred ones replace the third
    axis with the combined diagonal that weighs the pair's own modes +1
    and -1.
    """
    if state.d != 3:
        raise ValueError("canonical labels are defined for d = 3")
    label = canonical_label(label)
    if label[2] != "*":
        return triple_field(state, TripleSpec(tuple(int(ch) for ch in label)))
    basis = build_basis(3)
    lam3, lam8 = basis[2].matrix, basis[7].matrix
    sign = 1.0 if label[:2] == "45" else -1.0
    third = 0.5 * (sign * lam3 + np.sqrt(3.0) * lam8)
    sym_idx = int(label[0])
    terms = (term_field(state, basis[sym_idx - 1].matrix),
             term_field(state, basis[sym_idx].matrix),
             term_field(state, third))
    return UnitField(state.l, terms, (0, 1, 2), 0.0, _D3_MAPS[label][0])


# ---------------------------------------------------------------------------
# accidental invariants

def lissajous_winding(a: int, b: int) -> int:
    """Winding of phi -> (cos(a phi), sin(b phi)) around the origin.

    Counted exactly over the 2|b| zeros phi_k = k pi / |b| of sin(b phi),
    where the curve crosses the x-axis with dy/dphi = b (-1)^k: the
    crossings on the positive half add up to the winding.  With
    q = a k mod 2|b|, cos(a phi_k) has the sign of cos(q pi / |b|), which
    is positive for 2q < |b| or 2q > 3|b|.  A curve through the origin
    (2q = |b| or 3|b| at some k) has no winding number, and 0 is returned
    for it, as for b = 0.
    """
    n = 2 * abs(b)
    wind = 0
    for k in range(n):
        q2 = 2 * (a * k % n)
        if q2 in (abs(b), 3 * abs(b)):
            return 0
        if q2 < abs(b) or q2 > 3 * abs(b):
            wind += (1 if b > 0 else -1) * (-1) ** k
    return wind


def accidental_predict(l, indices: tuple[int, int, int], d: int | None = None) -> float | None:
    """Predicted wrapping of a mixed cos/diagonal/sin triple, if any.

    Needs one symmetric root, one antisymmetric root sharing a mode with
    it, and a diagonal third dominating both radial ends.  The azimuthal
    circle then traces a Lissajous curve in the two root components; its
    winding number about the origin times the polar drop of the third
    axis gives the wrapping.  Arrangement parity relative to the sorted
    component order flips the sign.  Returns None when no prediction
    applies (the map need not be an invariant at all then).
    """
    l = tuple(int(x) for x in l)
    d = d or len(l)
    basis = build_basis(d)
    order = sorted(indices)
    els = [basis[i - 1] for i in order]
    kinds = sorted(e.kind for e in els)
    if kinds != ["asym", "diag", "sym"]:
        return None
    sym = next(e for e in els if e.kind == "sym")
    asym = next(e for e in els if e.kind == "asym")
    diag = next(e for e in els if e.kind == "diag")
    if sym.modes == asym.modes:
        return None   # that is a plain nice pair, not an accidental one
    if not set(sym.modes) & set(asym.modes):
        return None
    dc = l[sym.modes[0]] - l[sym.modes[1]]
    ds = l[asym.modes[0]] - l[asym.modes[1]]
    if dc == 0 or ds == 0:
        return None
    # the diagonal third must outgrow both roots at both radial ends
    live = _live_exponents(l, [(m, m, w) for m, w in
                               enumerate(np.real(np.diag(diag.matrix)))])
    e_amps = [abs(l[m]) + abs(l[n]) for m, n in (sym.modes, asym.modes)]
    if not live or live[0][0] >= min(e_amps) or live[-1][0] <= max(e_amps):
        return None
    wind = lissajous_winding(abs(dc), ds)
    if wind == 0:
        return None
    # parity of (sym, diag, asym) against the sorted component order
    base = [sym.index, diag.index, asym.index]
    perm = [base.index(i) for i in order]
    odd = (perm in ([1, 0, 2], [0, 2, 1], [2, 1, 0]))
    eps = -1.0 if odd else 1.0
    e0 = 1.0 if live[0][1] > 0 else -1.0
    einf = 1.0 if live[-1][1] > 0 else -1.0
    return eps * wind * 0.5 * (e0 - einf)


# ---------------------------------------------------------------------------
# monopole-charge identity

_EPS3 = np.zeros((3, 3, 3))
for _p in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
    _EPS3[_p] = 1.0
for _p in ((0, 2, 1), (2, 1, 0), (1, 0, 2)):
    _EPS3[_p] = -1.0


def _planar_gradients(field: np.ndarray, dx: float, dy: float):
    field = np.asarray(field, dtype=float)
    if field.ndim != 3 or field.shape[0] != 3:
        raise ValueError("field must have shape (3, nx, ny)")
    gx = np.gradient(field, dx, axis=1)
    gy = np.gradient(field, dy, axis=2)
    return field, gx, gy


def monopole_charge_planar(field: np.ndarray, dx: float, dy: float) -> float:
    """Wrapping-number sum of a planar unit triple via the xy cross product.

    Discretizes (1/4pi) integral of S . (dS/dx x dS/dy) with central
    differences on a uniform grid.
    """
    s, gx, gy = _planar_gradients(field, dx, dy)
    dens = np.einsum("abc,aij,bij,cij->ij", _EPS3, s, gx, gy)
    return float(dens.sum() * dx * dy / (4.0 * np.pi))


def monopole_charge_area(field: np.ndarray, dx: float, dy: float) -> float:
    """Same charge through the vector-area-element form.

    Runs the full antisymmetric double sum over space directions with the
    z derivative identically zero and the area element along z, so the sum
    must reproduce the planar form addend by addend.
    """
    s, gx, gy = _planar_gradients(field, dx, dy)
    grads = np.stack([gx, gy, np.zeros_like(gx)])     # index j, then a, x, y
    area = np.array([0.0, 0.0, dx * dy])
    dens = np.einsum("i,ijk,abc,axy,jbxy,kcxy->xy", area, _EPS3, _EPS3,
                     s, grads, grads)
    return float(dens.sum() / (8.0 * np.pi))
