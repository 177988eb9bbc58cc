"""Wrapping numbers: adaptive quadrature, boundary-limit evaluation, gluing.

The numeric route integrates the area density S . (dS/dr x dS/dphi) / 4pi
over the annulus with Simpson weights in r and midpoints in phi.  The
midpoints are mirror-symmetric: node k pairs with node n_phi - 1 - k under
phi -> 2 pi - phi.  So a density that is even under that mirror (real
amplitudes; fields.UnitField.mirror_parity) is summed over the first half
turn at twice the weight, and one that is odd sums to exactly 0, which is
reported converged on the starting radial grid with no quadrature.  The
radial grid doubles until two successive estimates agree within the
tolerance QUAD_TOL; the rule is nested, so each doubling evaluates only the
new odd nodes and reuses the phi-summed density kept at the old ones.  The
field's density expansion (UnitField.expansion) is built once per map; its
row_sums streams every doubling's nodes in blocks of about BLOCK_POINTS
(r, phi) points.  An expansion with no live determinant row has the density
0 at every node, so every rung reads exactly 0 and no block is evaluated.
No extrapolation is applied: the finer estimate is reported as it stands.
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
does every canonical qutrit label through its TripleSpec: a plain label is
the index triple it spells, a starred one index slot 0 beside its pair,
which map_layout reads as the pair's usual map (third axis the pair's own
commutator).  _ends sees the charges only as exponent offsets from the
pair, and a closed form is linear in omega = l_j - l_j', so over a box of
charge tuples (_closed_forms) it runs once per distinct row of offsets.
Disk-like maps (one boundary end mapping to a trace instead of a point)
are glued, doubling the raw integral.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .basis import build_basis
from .fields import (GridSpec, MapClass, TripleSpec, UnitField, _check_range,
                     classify_map, map_layout, triple_field)
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
    """Adaptive wrapping integral with trend classification and gluing.

    A map whose density is odd under phi -> 2 pi - phi (its
    mirror_parity is -1) integrates to exactly 0 over the mirror-symmetric
    midpoints, so it reports 0, converged on the starting grid, with no
    quadrature.
    """
    g = (grid or GridSpec()).resolve(field.l)
    if singular is None:
        singular = singularity_class(field)
    if singular:
        g = replace(g, n_phi=4 * g.n_phi)
    parity = field.mirror_parity()
    if parity < 0:
        vals, err = [0.0], 0.0
    else:
        vals, err = _radial_ladder(field, g, parity > 0, max_doublings)
    raw = vals[-1]
    cls = classify_map(field, g)
    return WrappingResult(raw, glue(raw, cls), cls, err, err <= QUAD_TOL,
                          bool(singular), g.n_r * 2 ** (len(vals) - 1))


def _radial_ladder(field: UnitField, g: GridSpec, even: bool,
                   max_doublings: int) -> tuple[list[float], float]:
    """Estimates of the nested radial rule, and the last step's change.

    An even density on an even number of midpoints is summed over the
    first half turn at twice the phi weight: the second half holds its
    mirror images.  At an odd n_phi the node at phi = pi is its own
    mirror, and the full turn is kept.
    """
    phi, dphi = g.phi_nodes(), 2.0 * np.pi / g.n_phi
    if even and g.n_phi % 2 == 0:
        phi, dphi = phi[:g.n_phi // 2], 2.0 * dphi
    ex = field.expansion(phi)
    if not ex.det_exps.size:
        # no live determinant row: the density is 0 at every node, so every
        # rung reads 0 and the first doubling settles it
        return ([0.0, 0.0], 0.0) if max_doublings > 0 else ([0.0], np.inf)
    r, w = g.radial_rule(0)
    rows = ex.row_sums(r)
    vals = [float(w @ rows) * dphi / (4.0 * np.pi)]
    err = np.inf
    for level in range(1, max_doublings + 1):
        # the previous level's nodes are the even nodes of this one
        r, w = g.radial_rule(level)
        fine = np.empty(r.size)
        fine[0::2] = rows
        fine[1::2] = ex.row_sums(r[1::2])
        rows = fine
        vals.append(float(w @ rows) * dphi / (4.0 * np.pi))
        err = abs(vals[-1] - vals[-2])
        if err <= QUAD_TOL:
            break
    return vals, err


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
    (m, n, weight), m = n for a diagonal term; _ends decides the radial
    ends from each term's exponent offset from the pair and its weight.
    """
    e_pair = abs(l[pair[0]]) + abs(l[pair[1]])
    return _ends([abs(l[m]) + abs(l[n]) - e_pair for m, n, _ in terms],
                 [w for _, _, w in terms])


def _ends(offsets, weights) -> tuple[bool, bool, float, float]:
    """_end_analysis from term offsets and weights.  Weights of one offset
    add up in term order, and sums within 1e-12 of zero drop out."""
    exps: dict[int, float] = {}
    for e, w in zip(offsets, weights):
        exps[e] = exps.get(e, 0.0) + w
    live = sorted((e, w) for e, w in exps.items() if abs(w) > 1e-12)
    if not live or live[0][0] == live[-1][0] == 0:
        # no live term, or a third proportional to the pair at every radius
        return False, True, 0.0, 0.0
    (e_lo, w_lo), (e_hi, w_hi) = live[0], live[-1]
    return (e_lo == 1, False, _end_latitude(-e_lo, w_lo),
            _end_latitude(e_hi, w_hi))


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


def _closed_forms(charges: np.ndarray, pair: tuple[int, int],
                  third) -> tuple[np.ndarray, np.ndarray]:
    """(raw, glued) of _closed_form at every row of an (N, d) charge array.

    _ends runs once per distinct row of exponent offsets, each row read as
    the digits of one int key, at omega = 1; halving and doubling are
    exact, so scaling by omega gives _closed_form's values bit for bit."""
    a = np.abs(charges)
    omega = charges[:, pair[0]] - charges[:, pair[1]]
    offsets = (np.stack([a[:, m] + a[:, n] for m, n, _ in third], axis=1)
               - (a[:, pair[0]] + a[:, pair[1]])[:, None])
    top = int(np.abs(offsets).max(initial=0))
    dims = (2 * top + 1,) * len(third)
    keys, inverse = np.unique(np.ravel_multi_index((offsets + top).T, dims),
                              return_inverse=True)
    rows = np.stack(np.unravel_index(keys, dims), axis=1) - top
    weights = [w for _, _, w in third]
    unit = np.zeros((len(keys), 2))
    closable = np.zeros(len(keys), dtype=bool)
    for k, row in enumerate(rows.tolist()):
        _, degenerate, e0, einf = _ends(row, weights)
        if not degenerate:
            wrap = _wrap_from_limits(1, e0, einf)
            unit[k] = wrap.raw, wrap.glued
            closable[k] = True
    keep = closable[inverse] & (omega != 0)
    return (np.where(keep, omega * unit[inverse, 0], 0.0),
            np.where(keep, omega * unit[inverse, 1], 0.0))


def _charges(l, d: int | None) -> tuple[tuple[int, ...], int]:
    """The mode charges l as ints, and d, which defaults to their count."""
    l = tuple(int(x) for x in l)
    d = d or len(l)
    if len(l) != d:
        raise ValueError(f"need {d} mode charges for d = {d}, got {len(l)}")
    return l, d


def wrapping_analytic_usual(l, modes: tuple[int, int]) -> AnalyticWrap:
    """Root-pair map with its own commutator third, any dimension."""
    i, j = modes
    l = tuple(l)
    if i == j or not (0 <= i < len(l) and 0 <= j < len(l)):
        raise ValueError(f"modes {(i, j)} are not two distinct indices "
                         f"into the {len(l)} mode charges")
    return _closed_form(l, (i, j), ((i, i, 1.0), (j, j, -1.0)))


def wrapping_analytic_triple(l, indices: tuple[int, int, int],
                             d: int | None = None) -> AnalyticWrap | None:
    """Closed-form value of a pure-index triple for an equal-amplitude state.

    Nice-pair triples evaluate through the exponent rule on the third-axis
    terms of their layout, the starred qutrit maps (index slot 0) among
    them; mixed cos/diagonal/sin triples go through the accidental
    predictor.  Anything else has no closed form here.
    """
    l, d = _charges(l, d)
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


# The TripleSpec of every canonical label: a plain label is the index
# triple it spells, a starred one index slot 0 beside its pair.
_LABEL_SPECS = {label: TripleSpec(tuple(0 if ch == "*" else int(ch)
                                        for ch in label), canonical=label)
                for label in CANONICAL_LABELS}


def canonical_label(label: str) -> str:
    label = _ALIASES.get(label, label)
    if label not in CANONICAL_LABELS:
        raise ValueError(f"unknown canonical label: {label!r}")
    return label


def canonical_field(state: QuditState, label: str) -> UnitField:
    """UnitField of a canonical qutrit map label (or alias) for the state,
    built by triple_field from the label's TripleSpec."""
    return triple_field(state, _LABEL_SPECS[canonical_label(label)])


def _label_map(label: str):
    """Pair modes and third-axis terms of a canonical label or alias."""
    return map_layout(3, _LABEL_SPECS[canonical_label(label)].indices)[1::2]


def wrapping_analytic_d3(label: str, l) -> AnalyticWrap:
    """Exact value of one of the 18 canonical qutrit maps."""
    pair, third = _label_map(label)
    return _closed_form(_charges(l, 3)[0], pair, third)


def singularity_class_label(label: str, l) -> bool:
    """Origin-singularity flag of a canonical label at mode indices l.

    The label's layout holds the equal-amplitude term content, so the
    flag is that of a clean state with equal amplitudes.
    """
    return _end_analysis(_charges(l, 3)[0], *_label_map(label))[0]


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
    applies (the map need not be an invariant at all then).  Charges
    that do not number d, or an index outside 1..d^2 - 1, are an error.
    """
    l, d = _charges(l, d)
    order = sorted(int(i) for i in indices)
    _check_range(d, order)
    basis = build_basis(d)
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
