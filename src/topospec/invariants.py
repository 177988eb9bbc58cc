"""Wrapping numbers: adaptive quadrature, boundary-limit evaluation, gluing.

The numeric route integrates the area density S . (dS/dr x dS/dphi) / 4pi
over the annulus with Simpson weights in r and midpoints in phi.  The
midpoints are mirror-symmetric: node k pairs with node n_phi - 1 - k under
phi -> 2 pi - phi.  So a density that is even under that mirror (real
amplitudes; fields.UnitField.mirror_parity) is summed over the first half
turn at twice the weight, and one that is odd sums to exactly 0, which is
reported converged on the starting radial grid with no quadrature.  Of
the n nodes kept, only one symmetry cell is summed: the first n / c, at c
times the weight, with c = gcd(k, n) for the density's azimuthal period k
(fields.UnitField.azimuthal_period); a density constant in phi (k = 0)
takes one node.  The
radial grid doubles until two successive estimates agree within the
tolerance QUAD_TOL; the rule is nested, so each doubling evaluates only the
new odd nodes and reuses the phi-summed density kept at the old ones.  The
field's density expansion (UnitField.expansion) is built once per map; its
row_sums streams every doubling's nodes in blocks of about BLOCK_POINTS
(r, phi) points.  An expansion with no live determinant row has the density
0 at every node; its row_sums returns zeros, so every rung reads exactly 0.
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
does every canonical qutrit label, through the TripleSpec that
TripleSpec.parse reads from it (a starred label is its pair's usual map).
_ends sees the charges only as exponent offsets from the pair, and a
closed form is linear in omega = l_j - l_j', so over a box of charge
tuples (_closed_forms) it runs once per distinct row of offsets.
Disk-like maps (one boundary end mapping to a trace instead of a point)
are glued, doubling the raw integral.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import combinations

import numpy as np

from .basis import build_basis
from .fields import (CANONICAL_LABELS, GridSpec, MapClass, TripleSpec,  # re-exported
                     UnitField, _check_range, canonical_label, classify_map,
                     map_layout, triple_field)
from .states import QuditState, _charges, _whole

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


def wrapping_numeric(field: UnitField, grid: GridSpec,
                     max_doublings: int = 2) -> WrappingResult:
    """Adaptive wrapping integral with trend classification and gluing.

    The grid names the starting n_r (spectrum.evaluate_map picks the
    per-map default) and n_phi, None taking resolve's default; a map
    singular by its own terms (singularity_class) runs on 4 n_phi, either way.
    """
    g = grid.resolve(field.l)
    singular = singularity_class(field)
    if singular:
        g = replace(g, n_phi=4 * g.n_phi)
    vals, err = _radial_ladder(field, g, field.mirror_parity(), max_doublings)
    raw = vals[-1]
    cls = classify_map(field)
    return WrappingResult(raw, glue(raw, cls), cls, err, err <= QUAD_TOL,
                          singular, g.n_r * 2 ** (len(vals) - 1))


def _radial_ladder(field: UnitField, g: GridSpec, parity: int,
                   max_doublings: int) -> tuple[list[float], float]:
    """Estimates of the nested radial rule, and the last step's change.

    parity is the density's mirror_parity.  An odd density sums to exactly
    0 over the mirror-symmetric midpoints, so it reads 0, converged, before
    any grid is built.  An even density on an even number of midpoints is
    summed over the first half turn at twice the phi weight: the second
    half holds its mirror images.  At an odd n_phi the node at phi = pi is
    its own mirror, and the full turn is kept.  Of those n nodes, only the
    first n / c are summed, at c times the weight, with c = gcd(k, n) for
    the field's azimuthal period k: the density repeats every 2 pi / c, and
    an even one is mirrored about pi / c as well, so each of the c cells of
    the n nodes holds the same values.  A density constant in phi (k = 0)
    takes one node.  An all-zero density comes back from row_sums as zeros.
    """
    if parity < 0:
        return [0.0], 0.0
    phi, dphi = g.phi_nodes(), 2.0 * np.pi / g.n_phi
    if parity > 0 and g.n_phi % 2 == 0:
        phi, dphi = phi[:g.n_phi // 2], 2.0 * dphi
    cells = math.gcd(field.azimuthal_period(), phi.size)
    ex = field.expansion(phi, phi.size // cells)
    dphi *= cells
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
    exact, so scaling by omega gives _closed_form's values bit for bit.
    A key space (2 top + 1)^T that outgrows an int64 raises ValueError."""
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
    unit = np.zeros((len(rows), 2))
    closable = np.zeros(len(rows), dtype=bool)
    for k, row in enumerate(rows.tolist()):
        _, degenerate, e0, einf = _ends(row, weights)
        if not degenerate:
            wrap = _wrap_from_limits(1, e0, einf)
            unit[k] = wrap.raw, wrap.glued
            closable[k] = True
    keep = closable[inverse] & (omega != 0)
    return (np.where(keep, omega * unit[inverse, 0], 0.0),
            np.where(keep, omega * unit[inverse, 1], 0.0))


def wrapping_analytic_usual(l, modes: tuple[int, int]) -> AnalyticWrap:
    """Root-pair map with its own commutator third, any dimension."""
    i, j = modes
    l, _ = _charges(l)
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
    idx = tuple(sorted(_whole(indices, "basis indices")))
    _, pair, _, third = map_layout(d, idx)
    if pair is None:
        v = _accidental(l, idx, d)
        return None if v is None else AnalyticWrap(v, v, "accidental")
    return _closed_form(l, pair, third)


def canonical_field(state: QuditState, label: str) -> UnitField:
    """UnitField of a canonical qutrit map label (or alias) for the state."""
    return triple_field(state, TripleSpec.parse(canonical_label(label)))


def wrapping_analytic_d3(label: str, l) -> AnalyticWrap:
    """Exact value of one of the 18 canonical qutrit maps, each a nice pair."""
    return wrapping_analytic_triple(
        l, TripleSpec.parse(canonical_label(label)).indices, 3)


def singularity_class_label(label: str, l) -> bool:
    """Origin-singularity flag of a canonical label at mode indices l: that
    of a clean state with equal amplitudes, whose term content the label's
    layout holds."""
    spec = TripleSpec.parse(canonical_label(label))
    return _end_analysis(_charges(l, 3)[0], *map_layout(3, spec.indices)[1::2])[0]


# ---------------------------------------------------------------------------
# accidental invariants

def lissajous_winding(a: int, b: int) -> int:
    """Winding of phi -> (cos(a phi), sin(b phi)) around the origin.

    With g = gcd(a, |b|), a' = a / g and b' = |b| / g it is
    sign(b) g (-1)^((b' - 1) / 2) for odd a' and b', else 0.  It sums the
    directions sign(b) (-1)^k of the crossings phi_k = k pi / |b| of the
    positive x half-axis.  The curve is the (a', b') curve traced g times.
    For odd a', k -> a' k mod 2b' keeps the parity of k, so the sum is that
    of (1, b'), whose positive crossings k < b'/2 and k > 3b'/2 sum to
    (-1)^((b' - 1) / 2).  For even a', crossings k and k + b' meet at one
    point in opposite directions and cancel.  For even b' the curve passes
    through the origin and has no winding number; 0 is returned for it, as
    for b = 0.
    """
    g = math.gcd(a, b)
    if b == 0 or (a // g) % 2 == 0 or (abs(b) // g) % 2 == 0:
        return 0
    return (1 if b > 0 else -1) * g * (-1) ** ((abs(b) // g - 1) // 2)


def accidental_predict(l, indices: tuple[int, int, int], d: int | None = None) -> float | None:
    """Predicted wrapping of a mixed cos/diagonal/sin triple, if any.

    Needs one symmetric root, one antisymmetric root sharing a mode with
    it, and a diagonal third dominating both radial ends.  The azimuthal
    circle then traces a Lissajous curve in the two root components; its
    winding number about the origin times the polar drop of the third
    axis gives the wrapping, its sign (-1) to the number of inversions of
    (sym, diag, asym) against the sorted component order.  Returns None
    when no prediction applies (the map need not be an invariant at all
    then).  Charges that do not number d, or an index outside 1..d^2 - 1,
    are an error.
    """
    l, d = _charges(l, d)
    order = sorted(_whole(indices, "basis indices"))
    _check_range(d, order)
    return _accidental(l, order, d)


def _accidental(l: tuple[int, ...], order, d: int) -> float | None:
    """accidental_predict on checked input: whole-number charges l, d of
    them, and a sorted triple of basis indices of d."""
    basis = build_basis(d)
    els = [basis[i - 1] for i in order]
    kinds = {e.kind: e for e in els}
    if sorted(kinds) != ["asym", "diag", "sym"]:
        return None
    sym, diag, asym = kinds["sym"], kinds["diag"], kinds["asym"]
    if sym.modes == asym.modes:
        return None   # that is a plain nice pair, not an accidental one
    if not set(sym.modes) & set(asym.modes):
        return None
    dc = l[sym.modes[0]] - l[sym.modes[1]]
    ds = l[asym.modes[0]] - l[asym.modes[1]]
    # the diagonal third must reach a pole at both radial ends of both roots
    third = [(m, m, w) for m, w in enumerate(np.real(np.diag(diag.matrix)))]
    ends = [_end_analysis(l, root.modes, third)[2:] for root in (sym, asym)]
    if any(abs(e) != 1.0 for e in ends[0] + ends[1]):
        return None
    wind = lissajous_winding(abs(dc), ds)
    if wind == 0:
        return None
    # parity of (sym, diag, asym) against the sorted component order
    inversions = sum(x > y for x, y in
                     combinations((sym.index, diag.index, asym.index), 2))
    eps = (-1.0) ** inversions
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
