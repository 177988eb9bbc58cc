"""Bloch-vector component fields and unit-sphere triple maps.

Every generator expectation m_a(r, phi) = psi^dag T_a psi is a finite sum
of pair terms f_j(r) f_j'(r) (alpha cos(D phi) + beta sin(D phi)) with
D = l_j' - l_j, which gives exact radial and azimuthal derivatives for
free.  A UnitField bundles the three components of a triple in canonical
arrangement (cos-like, sin-like, third) together with the origin-fix
policy that repairs wedge discontinuities of root-type thirds.  Its area
density det[m, m_r, m_phi] / |m|^3 is taken straight from the unnormalized
field; the normalized map and its tangent derivatives (``unit``) serve the
boundary classifier.  The density fills its stacks into a reused
per-thread workspace and works in place there, so one call allocates only
the array it returns; blocks of up to BLOCK_POINTS points keep that
workspace a few megabytes at any azimuthal resolution.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

import numpy as np

from .basis import BasisElement, build_basis, nice_pairs
from .states import QuditState, radial_profile

# Points per block of area-density rows: wrapping_numeric streams its radial
# nodes in blocks of this many (r, phi) points, and the workspace keeps
# buffers up to this size between calls.
BLOCK_POINTS = 2 ** 16

# the area-density workspace, one per thread
_LOCAL = threading.local()


@dataclass(frozen=True)
class GridSpec:
    """Integration grid.  n_r counts Simpson panels, phi uses midpoints.

    The radial integral runs over the full annulus [r_min, inf) through the
    compactification u = r / (1 + r); boundary limits are approached only
    algebraically (the Gaussian envelopes cancel inside the normalized
    field), so a finite cutoff would leave visible truncation errors on
    slowly closing maps.  r_max only anchors the classifier probes.
    """

    r_min: float = 1e-3
    r_max: float | None = None
    n_r: int = 4096
    n_phi: int | None = None
    tail_eps: float = 1e-6

    def resolve(self, l) -> "GridSpec":
        r_max = self.r_max
        if r_max is None:
            r_max = float(np.sqrt(max(abs(x) for x in l)) + 6.0) if any(l) else 6.0
        n_phi = self.n_phi
        if n_phi is None:
            spread = max(l) - min(l)
            n_phi = 64 * max(1, int(spread))
        return GridSpec(self.r_min, r_max, int(self.n_r), int(n_phi), self.tail_eps)

    def radial_rule(self, doublings: int = 0):
        """Simpson nodes r and weights (jacobian included) on the u-line."""
        n = self.n_r * (2 ** doublings)
        u0 = self.r_min / (1.0 + self.r_min)
        u = np.linspace(u0, 1.0 - self.tail_eps, n + 1)
        h = (u[-1] - u[0]) / n
        w = np.full(n + 1, 2.0)
        w[1::2] = 4.0
        w[0] = w[-1] = 1.0
        w *= h / 3.0
        r = u / (1.0 - u)
        return r, w / (1.0 - u) ** 2

    def phi_nodes(self) -> np.ndarray:
        n = self.n_phi
        return (np.arange(n) + 0.5) * (2.0 * np.pi / n)


@dataclass(frozen=True)
class TermField:
    """One component as pair terms over mode indices (j <= jp)."""

    l: tuple[int, ...]
    js: np.ndarray
    jps: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray

    def evaluate(self, r, phi, profiles=None, scaled=False):
        """Return (m, dm/dr, dm/dphi) on the outer-product grid.

        scaled=True drops the common Gaussian envelope from every term
        (and from the radial derivative).  Normalized quantities built
        through the tangent-projection quotient rule are unaffected, and
        the scaled fields stay representable at any radius.
        """
        r = np.asarray(r, dtype=float)
        phi = np.asarray(phi, dtype=float)
        if profiles is None:
            profiles = _profiles(self.l, set(self.js) | set(self.jps), r, scaled)
        m = np.zeros((r.size, phi.size))
        mr = np.zeros_like(m)
        mp = np.zeros_like(m)
        self._accumulate(r, phi, profiles, scaled, m, mr, mp, np.empty_like(m))
        return m, mr, mp

    def _accumulate(self, r, phi, profiles, scaled, m, mr, mp, tmp):
        """Add every pair term into the caller's m, mr, mp; tmp is scratch."""
        envelope = 0.0 if scaled else 4.0
        for j, jp, a, b in zip(self.js, self.jps, self.alpha, self.beta):
            prod = profiles[j] * profiles[jp]
            dprod = ((abs(self.l[j]) + abs(self.l[jp])) / r - envelope * r) * prod
            delta = self.l[jp] - self.l[j]
            c, s = np.cos(delta * phi), np.sin(delta * phi)
            ang = a * c + b * s
            dang = delta * (-a * s + b * c)
            m += np.multiply.outer(prod, ang, out=tmp)
            mr += np.multiply.outer(dprod, ang, out=tmp)
            mp += np.multiply.outer(prod, dang, out=tmp)


def _profiles(l, modes, r, scaled):
    """Radial profile of each mode, without the Gaussian envelope if scaled."""
    if scaled:
        return {j: r ** abs(l[j]) for j in modes}
    return {j: radial_profile(l[j], r) for j in modes}


def term_field(source, matrix: np.ndarray, tol: float = 1e-14) -> TermField:
    """Pair-term representation of the generator expectation.

    source is a QuditState or anything exposing l and coeff(matrix); the
    density-matrix route plugs in through the same coefficient contract.
    """
    coeff = source.coeff(matrix)
    d = len(source.l)
    js, jps, alpha, beta = [], [], [], []
    for j in range(d):
        if abs(coeff[j, j].real) > tol:
            js.append(j); jps.append(j)
            alpha.append(coeff[j, j].real); beta.append(0.0)
        for jp in range(j + 1, d):
            a = 2.0 * coeff[j, jp].real
            b = -2.0 * coeff[j, jp].imag
            if abs(a) > tol or abs(b) > tol:
                js.append(j); jps.append(jp)
                alpha.append(a); beta.append(b)
    return TermField(tuple(source.l), np.array(js, dtype=int),
                     np.array(jps, dtype=int), np.array(alpha), np.array(beta))


def component_field(state: QuditState, index: int) -> TermField:
    """Field of the 1-based basis component index."""
    basis = build_basis(state.d)
    return term_field(state, basis[index - 1].matrix)


@dataclass(frozen=True)
class TripleSpec:
    """Three distinct 1-based basis indices defining a candidate map.

    canonical tags the triple as one of the named qutrit maps; the
    starred ones replace the third axis with a combined diagonal (index
    slot 0), so they must be built through the canonical-field
    constructor rather than straight from basis indices.
    """

    indices: tuple[int, int, int]
    canonical: str | None = None

    def __post_init__(self):
        idx = tuple(sorted(int(i) for i in self.indices))
        if len(set(idx)) != 3:
            raise ValueError("triple needs three distinct indices")
        if self.canonical is None and min(idx) < 1:
            raise ValueError("basis indices are 1-based")
        object.__setattr__(self, "indices", idx)

    @property
    def label(self) -> str:
        if self.canonical is not None:
            return self.canonical
        return "-".join(str(i) for i in self.indices)


@dataclass(frozen=True)
class UnitField:
    """Triple map in canonical arrangement with its fix policy.

    components are ordered (cos-like, sin-like, third) when a nice pair is
    present (an even rotation of the sorted triple, so orientation is
    unchanged), otherwise in sorted index order.  sigma = +-1 is the
    orientation gauge applied as third -> sigma*|third| for root-type
    thirds; sigma = 0 means no fix.
    """

    l: tuple[int, ...]
    terms: tuple[TermField, TermField, TermField]
    indices: tuple[int, int, int]
    arrangement: tuple[int, int, int]
    sigma: float
    pair_modes: tuple[int, int] | None
    omega: int

    def evaluate(self, r, phi, fix: bool = True, scaled: bool = False):
        """Stacked S-tilde and partials, shape (3, nr, nphi) each."""
        r = np.asarray(r, dtype=float)
        phi = np.asarray(phi, dtype=float)
        m = np.empty((3, r.size, phi.size))
        mr = np.empty_like(m)
        mp = np.empty_like(m)
        self._fill(r, phi, fix, scaled, m, mr, mp, np.empty_like(m[0]))
        return m, mr, mp

    def _fill(self, r, phi, fix, scaled, m, mr, mp, tmp):
        """Write the stacks of ``evaluate`` into the caller's arrays."""
        modes = set()
        for t in self.terms:
            modes |= set(t.js) | set(t.jps)
        profiles = _profiles(self.l, modes, r, scaled)
        for a in (m, mr, mp):
            a.fill(0.0)
        for k, t in enumerate(self.terms):
            t._accumulate(r, phi, profiles, scaled, m[k], mr[k], mp[k], tmp)
        if fix and self.sigma != 0.0:
            sgn = np.sign(m[2], out=tmp)
            sgn[sgn == 0.0] = 1.0
            sgn *= self.sigma
            m[2] *= sgn
            mr[2] *= sgn
            mp[2] *= sgn

    def unit(self, r, phi, fix: bool = True):
        """Normalized S and its partials via the tangent-projection rule."""
        m, mr, mp = self.evaluate(r, phi, fix, scaled=True)
        _divide_by_peak(m, mr, mp, np.empty_like(m[0]))
        nrm = np.sqrt(np.sum(m * m, axis=0))
        nrm = np.where(nrm == 0.0, 1.0, nrm)
        s = m / nrm
        sr = (mr - s * np.sum(s * mr, axis=0)) / nrm
        sp = (mp - s * np.sum(s * mp, axis=0)) / nrm
        return s, sr, sp

    def area_density(self, r, phi, fix: bool = True) -> np.ndarray:
        """Pullback area density S . (dS/dr x dS/dphi), shape (nr, nphi).

        Computed as det[m, m_r, m_phi] / |m|^3 straight from the
        unnormalized field, which equals the normalized triple product
        exactly: the parts of m_r and m_phi along m drop out of the
        determinant, and any positive per-radius scale cancels.  0 where
        |m| = 0.  The stacks and the two scratch rows are views into a
        reused per-thread workspace and every step runs in place, so the
        returned density is the only array allocated per call.
        """
        r = np.asarray(r, dtype=float)
        phi = np.asarray(phi, dtype=float)
        ws = _workspace(r.size, phi.size)
        m, mr, mp, s1, s2 = ws[0:3], ws[3:6], ws[6:9], ws[9], ws[10]
        self._fill(r, phi, fix, True, m, mr, mp, s1)
        _divide_by_peak(m, mr, mp, s1)
        out = np.empty_like(s1)
        # det = (t0 + t1) + t2, each t = m_a * (mr_b * mp_c - mr_c * mp_b)
        np.multiply(mr[1], mp[2], out=s1)
        s1 -= np.multiply(mr[2], mp[1], out=s2)
        s1 *= m[0]
        np.multiply(mr[2], mp[0], out=s2)
        s2 -= np.multiply(mr[0], mp[2], out=out)
        s2 *= m[1]
        s1 += s2
        np.multiply(mr[0], mp[1], out=s2)
        s2 -= np.multiply(mr[1], mp[0], out=out)
        s2 *= m[2]
        s1 += s2
        # |m|^3 = nrm2 * sqrt(nrm2), nrm2 = (m0^2 + m1^2) + m2^2
        np.multiply(m[0], m[0], out=s2)
        s2 += np.multiply(m[1], m[1], out=out)
        s2 += np.multiply(m[2], m[2], out=out)
        cube = np.sqrt(s2, out=out)
        cube *= s2
        # where |m| = 0 the output keeps the cube's 0
        return np.divide(s1, cube, out=cube, where=cube != 0.0)


def _workspace(rows: int, n_phi: int) -> np.ndarray:
    """Eleven (rows, n_phi) float64 views of one flat per-thread buffer.

    The buffer grows on demand and is kept for the next call while it
    holds at most BLOCK_POINTS points per view; larger requests get a
    buffer of their own.
    """
    size = 11 * rows * n_phi
    buf = getattr(_LOCAL, "buf", None)
    if buf is None or buf.size < size:
        buf = np.empty(size)
        if rows * n_phi <= BLOCK_POINTS:
            _LOCAL.buf = buf
    return buf[:size].reshape(11, rows, n_phi)


def _divide_by_peak(m, mr, mp, tmp) -> None:
    """Divide envelope-free stacks in place by the per-radius peak of |m|.

    The dropped envelope and the peak are positive per radius, so they drop
    out of S and of the area density, while keeping every intermediate in
    floating-point range at any radius.  A zero peak divides by 1.
    """
    peak = np.abs(m[0], out=tmp).max(axis=1)
    for k in (1, 2):
        np.maximum(peak, np.abs(m[k], out=tmp).max(axis=1), out=peak)
    peak[peak == 0.0] = 1.0
    peak = peak[None, :, None]
    m /= peak
    mr /= peak
    mp /= peak


def detect_nice_pair(d: int, indices: tuple[int, int, int], basis=None):
    """Positions (cos, sin, third) of a nice pair inside the triple, or None."""
    pairs = {p: k for k, p in enumerate(nice_pairs(d))}
    idx = list(indices)
    for a in range(3):
        for b in range(3):
            if a != b and (idx[a], idx[b]) in pairs:
                third = 3 - a - b
                return (a, b, third)
    return None


def triple_field(state: QuditState, spec: TripleSpec) -> UnitField:
    """Build the arranged unit-field for a basis-index triple."""
    if spec.canonical is not None:
        raise ValueError("canonical triples build through canonical_field")
    d = state.d
    basis = build_basis(d)
    idx = spec.indices
    found = detect_nice_pair(d, idx, basis)
    if found is None:
        arrangement = (0, 1, 2)
        sigma = 0.0
        pair_modes = None
        omega = 0
    else:
        arrangement = found
        third_el = basis[idx[found[2]] - 1]
        pair_modes = basis[idx[found[0]] - 1].modes
        omega = state.l[pair_modes[0]] - state.l[pair_modes[1]]
        if third_el.kind == "diag":
            sigma = 0.0
        elif d == 3 and idx[found[0]] == 4:
            sigma = -1.0   # (4,5)-family orientation gauge
        else:
            sigma = 1.0
    terms = tuple(term_field(state, basis[idx[k] - 1].matrix) for k in arrangement)
    return UnitField(state.l, terms, idx, arrangement, sigma, pair_modes, omega)


@dataclass(frozen=True)
class MapClass:
    """Boundary diagnostics of the (fixed) unit map."""

    kind: str               # "sphere" | "disk" | "degenerate"
    v_inner: float
    v_outer: float
    inner_point: bool
    outer_point: bool


def _ring_variance(field: UnitField, r: float, phi: np.ndarray) -> np.ndarray:
    s, _, _ = field.unit(np.array([r]), phi)
    return s[:, 0, :]


def classify_map(field: UnitField, grid: GridSpec, n_probe: int = 256) -> MapClass:
    """Trend-based boundary classification.

    A radial end maps to a point when the phi-variance of S decays toward
    it (ratio < 0.5 between an end ring and one at twice/half the radius),
    a surviving trace makes the map disk-like, and an image with no area
    at all (phi-independent, or r-independent) is degenerate.
    """
    g = grid.resolve(field.l)
    phi = (np.arange(n_probe) + 0.5) * (2.0 * np.pi / n_probe)
    rings = {}
    radii = {"in0": g.r_min, "in1": 2.0 * g.r_min,
             "mid0": 0.25 * g.r_max, "mid1": 0.5 * g.r_max, "out": g.r_max}
    for key, r in radii.items():
        rings[key] = _ring_variance(field, r, phi)

    def var(ring):
        return float(np.sum(np.var(ring, axis=1)))

    v_in, v_in1 = var(rings["in0"]), var(rings["in1"])
    v_out, v_out1 = var(rings["out"]), var(rings["mid1"])
    tiny = 1e-12
    inner_point = v_in < tiny or (v_in1 > 0 and v_in / v_in1 < 0.5)
    outer_point = v_out < tiny or (v_out1 > 0 and v_out / v_out1 < 0.5)

    all_tiny = all(var(rings[k]) < tiny for k in rings)
    r_indep = max(
        float(np.max(np.abs(rings["mid0"] - rings["mid1"]))),
        float(np.max(np.abs(rings["mid1"] - rings["out"]))),
        float(np.max(np.abs(rings["in0"] - rings["mid0"]))),
    ) < 1e-9
    if all_tiny or r_indep:
        kind = "degenerate"
    elif inner_point and outer_point:
        kind = "sphere"
    else:
        kind = "disk"
    return MapClass(kind, v_in, v_out, inner_point, outer_point)
