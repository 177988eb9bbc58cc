"""Wrapping numbers: adaptive quadrature, boundary-limit evaluation, gluing.

The numeric route integrates the area density S . (dS/dr x dS/dphi) / 4pi
over the annulus with Simpson weights in r and midpoints in phi.  The
radial grid doubles until two successive estimates agree within the
tolerance QUAD_TOL; the rule is nested, so each doubling evaluates only the
new odd nodes and reuses the phi-summed density kept at the old ones.  The
field's density expansion is built once per map; every block of about
BLOCK_POINTS (r, phi) points of every doubling streams through it.  No
extrapolation is applied: the finer estimate is reported as it stands.
The analytic route rests on one end analysis of a map's term content
(_end_analysis).  With the Gaussian envelope dropped, the pair amplitude
grows like r^e with e = |l_j| + |l_j'|; the third axis's terms, summed per
exponent, leave a sorted list of live (exponent, weight) entries.  The
lowest live exponent decides the end r -> 0 and the highest the end
r -> infinity, each in the same way: the third axis's pole when it
outgrows the pair, the equator when the pair outgrows it, the latitude
W / sqrt(W^2 + 4) on a tie.  A lone live exponent equal to the pair's
leaves a degenerate map, and a lowest live exponent one above the pair's
makes the planar density diverge like 1/r at the origin (the singular
flag).  The closed forms and the singular flag of a field or of a
canonical label read it for the pair; the accidental predictor reads it
for both of its roots and needs a pole at both ends of each.  A nice-pair
triple takes its pair and third-axis terms from fields.map_layout, and so
does the catalogue of canonical qutrit labels, built once at import: a
plain label is the index triple it spells, a starred one its pair's usual
map (third axis the pair's own commutator).  The closed forms come in two
shapes with equal values, bit for bit: per map (_closed_form), which
every census entry and the public wrapping_analytic_* functions call,
and over an array of charge tuples (_closed_forms), which runs the same
end analysis as numpy operations and serves scans over a charge box.
Each is the faster one on its own input: one tuple through the array form
costs 10 to 20 times the per-map call.  Disk-like maps (one
boundary end mapping to a trace instead of a point) are glued, doubling
the raw integral.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .basis import build_basis
from .fields import (BLOCK_POINTS, GridSpec, MapClass, SharedSource, TripleSpec,
                     UnitField, _Expansion, classify_map, map_layout,
                     triple_field)
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


def _row_sums(ex: _Expansion, r: np.ndarray) -> np.ndarray:
    """Phi-summed area density at each radial node, streamed over blocks.

    A block holds about BLOCK_POINTS (r, phi) points (at least one row), so
    its intermediates stay the same size at every n_phi.
    """
    block = max(1, BLOCK_POINTS // ex.n_phi)
    return np.concatenate([ex.density(r[lo:lo + block]).sum(axis=1)
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
    third = field.terms[2]
    terms = [(m, n, a if m == n else np.hypot(a, b))
             for m, n, a, b in zip(third.js, third.jps, third.alpha, third.beta)]
    return _end_analysis(field.l, field.pair_modes, terms)[0]


def wrapping_numeric(field: UnitField, grid: GridSpec | None = None,
                     singular: bool | None = None,
                     max_doublings: int = 2) -> WrappingResult:
    """Adaptive wrapping integral with trend classification and gluing."""
    g = (grid or GridSpec()).resolve(field.l)
    if singular is None:
        singular = singularity_class(field)
    if singular:
        g = replace(g, n_phi=4 * g.n_phi)
    ex = field.expansion(g.phi_nodes())
    dphi = 2.0 * np.pi / g.n_phi
    r, w = g.radial_rule(0)
    rows = _row_sums(ex, r)
    vals = [float(w @ rows) * dphi / (4.0 * np.pi)]
    err = np.inf
    for level in range(1, max_doublings + 1):
        # the previous level's nodes are the even nodes of this one
        r, w = g.radial_rule(level)
        fine = np.empty(r.size)
        fine[0::2] = rows
        fine[1::2] = _row_sums(ex, r[1::2])
        rows = fine
        vals.append(float(w @ rows) * dphi / (4.0 * np.pi))
        err = abs(vals[-1] - vals[-2])
        if err <= QUAD_TOL:
            break
    raw = vals[-1]
    cls = classify_map(field, g)
    return WrappingResult(raw, glue(raw, cls), cls, err, err <= QUAD_TOL,
                          bool(singular), g.n_r * 2 ** (len(vals) - 1))


# ---------------------------------------------------------------------------
# the end analysis and the closed forms

def _end_latitude(gap: int, w: float) -> float:
    """Third-axis latitude at one radial end, where its leading term of
    weight w outgrows the pair amplitude by gap powers of r: its pole (sign
    of w) for gap > 0, the equator for gap < 0, W / sqrt(W^2 + 4) on a tie."""
    if gap > 0:
        return 1.0 if w > 0 else -1.0
    if gap < 0:
        return 0.0
    return w / np.hypot(w, 2.0)


def _end_analysis(l, pair: tuple[int, int],
                  terms) -> tuple[bool, bool, float, float]:
    """(singular, degenerate, e0, einf) of a map from its term content.

    pair holds the pair amplitude's modes, terms the third axis as
    (m, n, weight), m = n for a diagonal term; the radial ends are decided
    as the module docstring says.  Weights of one exponent add up, and
    sums within 1e-12 of zero drop out.
    """
    e_pair = abs(l[pair[0]]) + abs(l[pair[1]])
    exps: dict[int, float] = {}
    for m, n, w in terms:
        e = abs(l[m]) + abs(l[n])
        exps[e] = exps.get(e, 0.0) + w
    live = sorted((e, w) for e, w in exps.items() if abs(w) > 1e-12)
    if not live or live[0][0] == live[-1][0] == e_pair:
        # no live term, or a third proportional to the pair at every radius
        return False, True, 0.0, 0.0
    (e_lo, w_lo), (e_hi, w_hi) = live[0], live[-1]
    return (e_lo - e_pair == 1, False, _end_latitude(e_pair - e_lo, w_lo),
            _end_latitude(e_hi - e_pair, w_hi))


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
    terms third (see _end_analysis)."""
    omega = l[pair[0]] - l[pair[1]]
    if omega != 0:
        _, degenerate, e0, einf = _end_analysis(l, pair, third)
        if not degenerate:
            return _wrap_from_limits(omega, e0, einf)
    return AnalyticWrap(0.0, 0.0, "degenerate")


def _end_latitudes(gap: np.ndarray, w: np.ndarray) -> np.ndarray:
    """_end_latitude at every entry of gap and w."""
    return np.where(gap > 0, np.where(w > 0, 1.0, -1.0),
                    np.where(gap < 0, 0.0, w / np.hypot(w, 2.0)))


def _closed_forms(charges: np.ndarray, pair: tuple[int, int],
                  third) -> tuple[np.ndarray, np.ndarray]:
    """(raw, glued) of _closed_form at every row of an (N, d) charge array.

    The end analysis runs on arrays over N: each term's weight is summed
    with those of its exponent in term order, as the scalar path sums
    them, so every value equals _closed_form's bit for bit.
    """
    a = np.abs(charges)
    omega = charges[:, pair[0]] - charges[:, pair[1]]
    e_pair = a[:, pair[0]] + a[:, pair[1]]
    exps = np.stack([a[:, m] + a[:, n] for m, n, _ in third], axis=1)
    sums = np.zeros(exps.shape)
    for k, (_, _, w) in enumerate(third):
        sums += np.where(exps == exps[:, k:k + 1], w, 0.0)
    live = np.abs(sums) > 1e-12
    lo = np.where(live, exps, np.iinfo(exps.dtype).max).argmin(axis=1)
    hi = np.where(live, exps, -1).argmax(axis=1)
    rows = np.arange(len(charges))
    e_lo, e_hi = exps[rows, lo], exps[rows, hi]
    degenerate = ((omega == 0) | ~live.any(axis=1)
                  | ((e_lo == e_pair) & (e_hi == e_pair)))
    e0 = _end_latitudes(e_pair - e_lo, sums[rows, lo])
    einf = _end_latitudes(e_hi - e_pair, sums[rows, hi])
    trace0, trace_inf = np.abs(e0) < 1.0 - 1e-12, np.abs(einf) < 1.0 - 1e-12
    if np.any(trace0 & trace_inf & ~degenerate):
        raise ValueError("both radial ends map to traces; not a closable map")
    raw = np.where(degenerate, 0.0, 0.5 * omega * (einf - e0))
    return raw, np.where(trace0 ^ trace_inf, 2.0 * raw, raw)


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
    l = tuple(int(x) for x in l)
    return _end_analysis(l, *_D3_MAPS[canonical_label(label)])[0]


# ---------------------------------------------------------------------------
# canonical qutrit fields

def canonical_field(state: QuditState, label: str) -> UnitField:
    """UnitField of a canonical qutrit map label for the given state.

    Plain labels are index triples.  The starred ones replace the third
    axis with the combined diagonal that weighs the pair's own modes +1
    and -1.  A SharedSource state lends its components' term fields, the
    combined diagonal included.
    """
    if state.d != 3:
        raise ValueError("canonical labels are defined for d = 3")
    label = canonical_label(label)
    if label[2] != "*":
        return triple_field(state, TripleSpec(tuple(int(ch) for ch in label)))
    basis, source = build_basis(3), SharedSource.of(state)
    lam3, lam8 = basis[2].matrix, basis[7].matrix
    sign = 1.0 if label[:2] == "45" else -1.0
    third = 0.5 * (sign * lam3 + np.sqrt(3.0) * lam8)
    sym_idx = int(label[0])
    terms = (source.term(sym_idx, basis[sym_idx - 1].matrix),
             source.term(sym_idx + 1, basis[sym_idx].matrix),
             source.term(label, third))
    return UnitField(state.l, terms, 0.0, _D3_MAPS[label][0])


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
    # the diagonal third must reach a pole at both radial ends of both roots
    third = [(m, m, w) for m, w in enumerate(np.real(np.diag(diag.matrix)))]
    ends = [_end_analysis(l, root.modes, third)[2:] for root in (sym, asym)]
    if any(abs(e) != 1.0 for e in ends[0] + ends[1]):
        return None
    wind = lissajous_winding(abs(dc), ds)
    if wind == 0:
        return None
    # parity of (sym, diag, asym) against the sorted component order
    base = [sym.index, diag.index, asym.index]
    perm = [base.index(i) for i in order]
    odd = (perm in ([1, 0, 2], [0, 2, 1], [2, 1, 0]))
    eps = -1.0 if odd else 1.0
    e0, einf = ends[0]
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
