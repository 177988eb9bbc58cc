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
The analytic route compares radial exponents of the pair amplitude against
the third-axis amplitude at both radial ends: the smallest exponent wins
as r -> 0, the largest as r -> infinity, and exponent ties land on
intermediate latitudes W / sqrt(W^2 + 4).  Disk-like maps (one boundary
end mapping to a trace instead of a point) are glued, doubling the raw
integral.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from math import gcd

import numpy as np

from .basis import build_basis
from .fields import (BLOCK_POINTS, GridSpec, MapClass, TermField, TripleSpec,
                     UnitField, classify_map, detect_nice_pair, term_field)
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

    For nice-pair triples this happens exactly when the lowest surviving
    radial exponent of the third axis exceeds the pair exponent by one.
    """
    if field.pair_modes is None:
        return False
    l = field.l
    i, j = field.pair_modes
    e_pair = abs(l[i]) + abs(l[j])
    third = field.terms[2]
    exps: dict[int, float] = {}
    for jj, jp, a, b in zip(third.js, third.jps, third.alpha, third.beta):
        if jj == jp:
            exps[2 * abs(l[jj])] = exps.get(2 * abs(l[jj]), 0.0) + a
        else:
            # root-type third: one product term
            exps[abs(l[jj]) + abs(l[jp])] = exps.get(abs(l[jj]) + abs(l[jp]), 0.0) \
                + np.hypot(a, b)
    live = [e for e, w in exps.items() if abs(w) > 1e-12]
    if not live:
        return False
    return min(live) - e_pair == 1


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
# boundary-limit evaluation

def _end_limits(e_pair: int, exps: dict[int, float]):
    """(e0, einf) for a diagonal-type third with weight-per-exponent exps."""
    live = sorted((e, w) for e, w in exps.items() if abs(w) > 1e-12)
    if not live:
        return None
    e_lo, w_lo = live[0]
    e_hi, w_hi = live[-1]
    if e_lo < e_pair:
        e0 = float(np.sign(w_lo))
    elif e_lo > e_pair:
        e0 = 0.0
    else:
        e0 = w_lo / np.hypot(w_lo, 2.0)
    if e_hi > e_pair:
        einf = float(np.sign(w_hi))
    elif e_hi < e_pair:
        einf = 0.0
    else:
        einf = w_hi / np.hypot(w_hi, 2.0)
    return e0, einf


def _wrap_from_limits(omega: int, e0: float, einf: float) -> AnalyticWrap:
    raw = 0.5 * omega * (einf - e0)
    traces = int(abs(e0) < 1.0 - 1e-12) + int(abs(einf) < 1.0 - 1e-12)
    if traces == 1:
        return AnalyticWrap(raw, 2.0 * raw, "disk")
    if traces == 0:
        return AnalyticWrap(raw, raw, "sphere")
    raise ValueError("both radial ends map to traces; not a closable map")


def _cartan_wrap(l, pair: tuple[int, int], weights: dict[int, float]) -> AnalyticWrap:
    i, j = pair
    omega = l[i] - l[j]
    if omega == 0:
        return AnalyticWrap(0.0, 0.0, "degenerate")
    exps: dict[int, float] = {}
    for mode, w in weights.items():
        e = 2 * abs(l[mode])
        exps[e] = exps.get(e, 0.0) + w
    e_pair = abs(l[i]) + abs(l[j])
    live = [e for e, w in exps.items() if abs(w) > 1e-12]
    if len(live) == 1 and live[0] == e_pair:
        # third stays proportional to the pair amplitude at every radius
        return AnalyticWrap(0.0, 0.0, "degenerate")
    lim = _end_limits(e_pair, exps)
    if lim is None:
        return AnalyticWrap(0.0, 0.0, "degenerate")
    return _wrap_from_limits(omega, *lim)


def _root_wrap(l, pair: tuple[int, int], third: tuple[int, int], sigma: float) -> AnalyticWrap:
    i, j = pair
    omega = l[i] - l[j]
    if omega == 0:
        return AnalyticWrap(0.0, 0.0, "degenerate")
    e_pair = abs(l[i]) + abs(l[j])
    e_third = abs(l[third[0]]) + abs(l[third[1]])
    if e_third == e_pair:
        # third amplitude proportional to the pair amplitude at every r
        return AnalyticWrap(0.0, 0.0, "degenerate")
    if e_third < e_pair:
        e0, einf = sigma, 0.0
    else:
        e0, einf = 0.0, sigma
    return _wrap_from_limits(omega, e0, einf)


def wrapping_analytic_usual(l, modes: tuple[int, int]) -> AnalyticWrap:
    """Root-pair map with its own commutator third, any dimension."""
    i, j = modes
    return _cartan_wrap(tuple(l), (i, j), {i: 1.0, j: -1.0})


def wrapping_analytic_triple(l, indices: tuple[int, int, int],
                             d: int | None = None) -> AnalyticWrap | None:
    """Closed-form value of a pure-index triple for an equal-amplitude state.

    Nice-pair triples evaluate through the boundary-limit rules (diagonal
    or root-type third); mixed cos/diagonal/sin triples go through the
    accidental predictor.  Anything else has no closed form here.
    """
    l = tuple(int(x) for x in l)
    d = d or len(l)
    basis = build_basis(d)
    idx = tuple(sorted(int(i) for i in indices))
    found = detect_nice_pair(d, idx, basis)
    if found is None:
        v = accidental_predict(l, idx, d)
        return None if v is None else AnalyticWrap(v, v, "accidental")
    a, _, t = found
    pair_modes = basis[idx[a] - 1].modes
    third = basis[idx[t] - 1]
    if third.kind == "diag":
        w = {m: float(x) for m, x in enumerate(np.real(np.diag(third.matrix)))
             if abs(x) > 1e-12}
        return _cartan_wrap(l, pair_modes, w)
    sigma = -1.0 if d == 3 and idx[a] == 4 else 1.0
    return _root_wrap(l, pair_modes, third.modes, sigma)


_D3_PAIRS = {"12": (0, 1), "45": (0, 2), "67": (1, 2)}
_D3_SIGMA = {"12": 1.0, "45": -1.0, "67": 1.0}
_D3_ROOT_THIRDS = {"1": (0, 1), "2": (0, 1), "4": (0, 2),
                   "5": (0, 2), "6": (1, 2), "7": (1, 2)}
_D3_USUAL_W = {"12": {0: 1.0, 1: -1.0}, "45": {0: 1.0, 2: -1.0},
               "67": {1: 1.0, 2: -1.0}}

CANONICAL_LABELS = ["123", "45*", "67*",
                    "124", "125", "126", "127", "128",
                    "451", "452", "453", "456", "457",
                    "671", "672", "673", "674", "675"]

_ALIASES = {"45s": "45*", "67s": "67*", "458": "45*", "678": "67*"}


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
    pair_key, third_key = label[:2], label[2]
    pair = _D3_PAIRS[pair_key]
    if third_key == "*":
        return _cartan_wrap(l, pair, _D3_USUAL_W[pair_key])
    if third_key == "3":
        return _cartan_wrap(l, pair, {0: 1.0, 1: -1.0})
    if third_key == "8":
        s3 = 1.0 / np.sqrt(3.0)
        return _cartan_wrap(l, pair, {0: s3, 1: s3, 2: -2.0 * s3})
    return _root_wrap(l, pair, _D3_ROOT_THIRDS[third_key], _D3_SIGMA[pair_key])


# ---------------------------------------------------------------------------
# canonical qutrit fields

def _d3_third_matrix(label: str) -> np.ndarray:
    basis = build_basis(3)
    pair_key, third_key = label[:2], label[2]
    if third_key == "*":
        lam3, lam8 = basis[2].matrix, basis[7].matrix
        combo = 0.5 * (lam3 + np.sqrt(3.0) * lam8)
        if pair_key == "67":
            combo = 0.5 * (-lam3 + np.sqrt(3.0) * lam8)
        return combo
    return basis[int(third_key) - 1].matrix


def canonical_field(state: QuditState, label: str) -> UnitField:
    """UnitField of a canonical qutrit map label for the given state."""
    if state.d != 3:
        raise ValueError("canonical labels are defined for d = 3")
    label = canonical_label(label)
    basis = build_basis(3)
    pair_key, third_key = label[:2], label[2]
    sym_idx = {"12": 1, "45": 4, "67": 6}[pair_key]
    pair = _D3_PAIRS[pair_key]
    terms = (term_field(state, basis[sym_idx - 1].matrix),
             term_field(state, basis[sym_idx].matrix),
             term_field(state, _d3_third_matrix(label)))
    if third_key in ("3", "8", "*"):
        sigma = 0.0
    else:
        sigma = _D3_SIGMA[pair_key]
    third_index = 0 if third_key == "*" else int(third_key)
    omega = state.l[pair[0]] - state.l[pair[1]]
    return UnitField(state.l, terms, (sym_idx, sym_idx + 1, third_index),
                     (0, 1, 2), sigma, pair, omega)


def singularity_class_label(label: str, l) -> bool:
    """Origin-singularity flag for a canonical label at mode indices l."""
    label = canonical_label(label)
    l = tuple(int(x) for x in l)
    pair_key, third_key = label[:2], label[2]
    i, j = _D3_PAIRS[pair_key]
    e_pair = abs(l[i]) + abs(l[j])
    if third_key in ("3", "8", "*"):
        if third_key == "3":
            w = {0: 1.0, 1: -1.0}
        elif third_key == "8":
            w = {0: 1.0, 1: 1.0, 2: -2.0}
        else:
            w = _D3_USUAL_W[pair_key]
        exps: dict[int, float] = {}
        for mode, wt in w.items():
            e = 2 * abs(l[mode])
            exps[e] = exps.get(e, 0.0) + wt
        live = [e for e, wt in exps.items() if abs(wt) > 1e-12]
        return bool(live) and min(live) - e_pair == 1
    m, n = _D3_ROOT_THIRDS[third_key]
    return (abs(l[m]) + abs(l[n])) - e_pair == 1


# ---------------------------------------------------------------------------
# accidental invariants

def accidental_pairs(l, d: int | None = None) -> list[tuple[int, int]]:
    """Extra cos/sin partners created by exact mode-index degeneracies.

    When l_j == l_k the components sym(i,j) and asym(i,k) oscillate with a
    common frequency and equal amplitudes, forming an unplanned nice pair.
    Returns 1-based basis index pairs.
    """
    l = tuple(int(x) for x in l)
    d = d or len(l)
    basis = build_basis(d)
    where = {}
    for b in basis:
        if b.modes is not None:
            where[(b.kind, b.modes)] = b.index
    out = []
    for j in range(d):
        for k in range(j + 1, d):
            if l[j] != l[k]:
                continue
            for i in range(d):
                if i in (j, k):
                    continue
                sym_ij = where.get(("sym", (min(i, j), max(i, j))))
                asym_ik = where.get(("asym", (min(i, k), max(i, k))))
                sym_ik = where.get(("sym", (min(i, k), max(i, k))))
                asym_ij = where.get(("asym", (min(i, j), max(i, j))))
                out.append((sym_ij, asym_ik))
                out.append((sym_ik, asym_ij))
    return out


def lissajous_winding(a: int, b: int) -> int:
    """Winding of phi -> (cos(a phi), sin(b phi)) around the origin."""
    if a == 0 or b == 0:
        return 0
    n = 512 * max(abs(a), abs(b))
    while True:
        phi = np.linspace(0.0, 2.0 * np.pi, n + 1)
        ang = np.unwrap(np.arctan2(np.sin(b * phi), np.cos(a * phi)))
        w = (ang[-1] - ang[0]) / (2.0 * np.pi)
        if abs(w - round(w)) < 1e-6:
            return int(round(w))
        if n > 2_000_000:
            raise RuntimeError("winding did not settle")
        n *= 4


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
    # diagonal third must dominate both radial ends
    w = np.real(np.diag(diag.matrix))
    exps: dict[int, float] = {}
    for mode, wt in enumerate(w):
        if abs(wt) > 1e-12:
            e = 2 * abs(l[mode])
            exps[e] = exps.get(e, 0.0) + wt
    live = sorted((e, wt) for e, wt in exps.items() if abs(wt) > 1e-12)
    if not live:
        return None
    e_amps = [abs(l[m]) + abs(l[n]) for m, n in (sym.modes, asym.modes)]
    e_lo, w_lo = live[0]
    e_hi, w_hi = live[-1]
    if e_lo >= min(e_amps) or e_hi <= max(e_amps):
        return None
    wind = lissajous_winding(abs(dc), ds)
    if wind == 0:
        return None
    # parity of (sym, diag, asym) against the sorted component order
    base = [sym.index, diag.index, asym.index]
    perm = [base.index(i) for i in order]
    odd = (perm in ([1, 0, 2], [0, 2, 1], [2, 1, 0]))
    eps = -1.0 if odd else 1.0
    e0, einf = float(np.sign(w_lo)), float(np.sign(w_hi))
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
