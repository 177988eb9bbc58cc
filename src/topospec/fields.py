"""Bloch-vector component fields and unit-sphere triple maps.

Every generator expectation m_a(r, phi) = psi^dag T_a psi is a finite sum
of pair terms f_j(r) f_j'(r) (alpha cos(D phi) + beta sin(D phi)) with
D = l_j' - l_j, which gives exact radial and azimuthal derivatives for
free.  A UnitField bundles the three components of a triple in canonical
arrangement (cos-like, sin-like, third) together with the origin-fix
policy that repairs wedge discontinuities of root-type thirds.  The
layout of an index triple (its nice pair and arrangement, the orientation
gauge of a root-type third, and the third axis's terms at unit
amplitudes) is decided once, in map_layout; triple_field, the closed
forms and the qutrit label catalogue in invariants all read it.

The Gaussian envelope exp(-2 r^2) is common to every term and positive at
every radius, so it cancels in the normalized map and in its area density,
and no evaluator computes it: each pair term is r^e times an angular
factor, e = |l_j| + |l_j'|.  TermField.rows sums a component's terms per
exponent into one table row each, and every evaluator reads those rows:
TermField.evaluate, whose envelope-free values UnitField stacks into the
normalized map (``unit``) that the boundary classifier reads, and the
area density det[m, m_r, m_phi] / |m|^3 of the fixed map, taken straight
from the unnormalized field.  The density expands separably: the
determinant and |m|^2 are short sums of radial monomials times tables in
phi, which UnitField.expansion builds once per map and azimuthal grid.
A block of radii then costs one small matrix-vector product per radius
and table, scaled per radius by a power of r that keeps every factor in
range and cancels in the quotient; blocks of up to BLOCK_POINTS points
keep its intermediates a few megabytes at any azimuthal resolution.

Only the triple's cross and determinant tables, the density blocks and the
classifier's normalization are per map.  The rest is shared: a
SharedSource builds each component's TermField once for all the maps of
one call, a TermField keeps its exponent rows per phi grid (grid_rows),
and the Simpson rule of each panel count is built once and kept.  Shared
arrays are read-only.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, lru_cache

import numpy as np

from .basis import build_basis, nice_pairs
from .states import QuditState

# Points per block of area-density rows: wrapping_numeric streams its radial
# nodes in blocks of this many (r, phi) points.
BLOCK_POINTS = 2 ** 16

# Pair terms with both amplitudes at most this drop out of a term field.
TERM_TOL = 1e-14

# Azimuthal probe points per ring of the boundary classifier.
N_PROBE = 256

# Inner radius of the radial integral and of the classifier's inner rings.
R_MIN = 1e-3

# The radial rule's last node sits this far below u = 1 (r = infinity).
TAIL_EPS = 1e-6

# Radial rules kept at once, one per panel count (GridSpec.radial_rule).
RULE_CACHE = 8

# Phi grids whose exponent rows a term field keeps (TermField.grid_rows).
ROW_GRIDS = 4


@dataclass(frozen=True)
class GridSpec:
    """Integration grid.  n_r counts Simpson panels (even), phi uses midpoints.

    The radial integral runs over the full annulus [R_MIN, inf) through the
    compactification u = r / (1 + r); boundary limits are approached only
    algebraically (the Gaussian envelopes cancel inside the normalized
    field), so a finite cutoff would leave visible truncation errors on
    slowly closing maps.  r_max only anchors the classifier probes.
    n_r None leaves the radial panel count to spectrum.evaluate_map, which
    picks it per map.
    """

    r_max: float | None = None
    n_r: int | None = 4096
    n_phi: int | None = None

    def resolve(self, l) -> "GridSpec":
        r_max = self.r_max
        if r_max is None:
            r_max = float(np.sqrt(max(abs(x) for x in l)) + 6.0) if any(l) else 6.0
        elif not 8 * R_MIN < r_max < np.inf:
            # the probe ring at r_max / 4 must lie outside the inner rings
            raise ValueError(f"r_max must be finite and above {8 * R_MIN:g}, "
                             f"got {r_max}")
        n_phi = self.n_phi
        if n_phi is None:
            spread = max(l) - min(l)
            n_phi = 64 * max(1, int(spread))
        if self.n_r is None or self.n_r < 1 or n_phi < 1:
            raise ValueError(f"grid needs n_r >= 1 and n_phi >= 1, got "
                             f"n_r={self.n_r}, n_phi={n_phi}")
        if self.n_r % 2:
            raise ValueError(f"Simpson's rule needs an even n_r, got {self.n_r}")
        return GridSpec(r_max, int(self.n_r), int(n_phi))

    def radial_rule(self, doublings: int = 0):
        """Simpson nodes r and weights (jacobian included) on the u-line.

        Built once per panel count and shared, so both arrays are read-only.
        """
        return _simpson_rule(self.n_r * (2 ** doublings))

    def phi_nodes(self) -> np.ndarray:
        n = self.n_phi
        return (np.arange(n) + 0.5) * (2.0 * np.pi / n)


@lru_cache(maxsize=RULE_CACHE)
def _simpson_rule(n: int):
    u = np.linspace(R_MIN / (1.0 + R_MIN), 1.0 - TAIL_EPS, n + 1)
    h = (u[-1] - u[0]) / n
    w = np.full(n + 1, 2.0)
    w[1::2] = 4.0
    w[0] = w[-1] = 1.0
    w *= h / 3.0
    r = u / (1.0 - u)
    w /= (1.0 - u) ** 2
    r.setflags(write=False)
    w.setflags(write=False)
    return r, w


@dataclass(frozen=True)
class TermField:
    """One component as pair terms over mode indices (j <= jp).

    The field keeps the exponent rows of the last few phi grids it was
    evaluated on (grid_rows), so maps that share it share them too.
    """

    l: tuple[int, ...]
    js: np.ndarray
    jps: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray

    def __post_init__(self):
        # phi grid bytes -> read-only (p, dp); not a dataclass field, so
        # replace() and == ignore it
        object.__setattr__(self, "_kept", {})

    def rows(self, phi):
        """Pair terms summed per envelope-free radial exponent, in term order.

        Returns (p, dp), each of shape (2 max|l| + 1, n_phi): row e sums the
        angular factors alpha cos(D phi) + beta sin(D phi) of the terms with
        |l_j| + |l_j'| = e, and dp their phi-derivatives, so that without the
        Gaussian envelope m = sum_e r^e p[e].  Amplitudes that cancel (the
        lambda-3 third of equal-weight |l| pairs) leave exact zeros.
        """
        phi = np.asarray(phi, dtype=float)
        p = np.zeros((1 + 2 * max(abs(x) for x in self.l), phi.size))
        dp = np.zeros_like(p)
        for j, jp, a, b in zip(self.js, self.jps, self.alpha, self.beta):
            delta = self.l[jp] - self.l[j]
            c, s = np.cos(delta * phi), np.sin(delta * phi)
            e = abs(self.l[j]) + abs(self.l[jp])
            p[e] += a * c + b * s
            dp[e] += delta * (-a * s + b * c)
        return p, dp

    def grid_rows(self, phi):
        """rows(phi), built once per phi grid and then shared read-only.

        The memo holds the rows of at most ROW_GRIDS grids; a further grid
        starts it over.  It is never changed in place, only replaced by a
        new dict, so threads sharing the field need no lock: two of them
        may both build a grid's rows, and one may drop an entry the other
        stored, but each gets equal rows.
        """
        phi = np.asarray(phi, dtype=float)
        key = phi.tobytes()
        kept = self._kept
        rows = kept.get(key)
        if rows is None:
            rows = self.rows(phi)
            for table in rows:
                table.setflags(write=False)
            kept = dict(kept) if len(kept) < ROW_GRIDS else {}
            kept[key] = rows
            object.__setattr__(self, "_kept", kept)
        return rows

    def evaluate(self, r, phi):
        """Return (m, dm/dr, dm/dphi) on the outer-product grid, envelope-free.

        The common Gaussian envelope exp(-2 r^2) of every term is left out
        (m here is the expectation divided by it), so the values stay
        representable at any radius; the envelope is positive per radius
        and drops out of the normalized map and of the area density.
        """
        r = np.atleast_1d(np.asarray(r, dtype=float))
        p, dp = self.grid_rows(phi)
        e = np.arange(len(p))
        powers = r[:, None] ** e
        return powers @ p, (powers * (e / r[:, None])) @ p, powers @ dp


def term_field(source, matrix: np.ndarray) -> TermField:
    """Pair-term representation of the generator expectation.

    source is a QuditState or anything exposing l and coeff(matrix); the
    density-matrix route plugs in through the same coefficient contract.
    Terms with amplitudes at most TERM_TOL drop out.
    """
    coeff = source.coeff(matrix)
    d = len(source.l)
    js, jps, alpha, beta = [], [], [], []
    for j in range(d):
        if abs(coeff[j, j].real) > TERM_TOL:
            js.append(j); jps.append(j)
            alpha.append(coeff[j, j].real); beta.append(0.0)
        for jp in range(j + 1, d):
            a = 2.0 * coeff[j, jp].real
            b = -2.0 * coeff[j, jp].imag
            if abs(a) > TERM_TOL or abs(b) > TERM_TOL:
                js.append(j); jps.append(jp)
                alpha.append(a); beta.append(b)
    return TermField(tuple(source.l), np.array(js, dtype=int),
                     np.array(jps, dtype=int), np.array(alpha), np.array(beta))


class SharedSource:
    """A coefficient source that builds each component's term field once.

    Stands in for the QuditState or DensityCoeffs it wraps (l, d, coeff
    and every other attribute read through) while the maps of one call or
    pool chunk are built from it: triple_field and canonical_field take
    each component's TermField from it, and with the field the exponent
    rows it keeps per phi grid.  It holds the source's tables, so it lives
    only as long as the call that made it.
    """

    def __init__(self, source):
        self.source = source
        self.terms: dict = {}

    def __getattr__(self, name):
        return getattr(self.source, name)

    @classmethod
    def of(cls, source) -> "SharedSource":
        """source itself when it is shared already, else a new wrapper."""
        return source if isinstance(source, cls) else cls(source)

    def term(self, key, matrix: np.ndarray) -> TermField:
        """Term field of matrix, built on the first request for key."""
        t = self.terms.get(key)
        if t is None:
            t = self.terms.setdefault(key, term_field(self.source, matrix))
        return t


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

    terms are ordered (cos-like, sin-like, third) when a nice pair is
    present (map_layout's arrangement, an even rotation of the sorted
    triple, so orientation is unchanged), otherwise in sorted index order.
    sigma = +-1 is the orientation gauge applied as third -> sigma*|third|
    for root-type thirds; sigma = 0 means no fix.
    """

    l: tuple[int, ...]
    terms: tuple[TermField, TermField, TermField]
    sigma: float
    pair_modes: tuple[int, int] | None

    def evaluate(self, r, phi, fix: bool = True):
        """Stacked envelope-free S-tilde and partials, shape (3, nr, nphi) each."""
        m, mr, mp = map(np.stack, zip(*(t.evaluate(r, phi) for t in self.terms)))
        if fix and self.sigma != 0.0:
            # sign(+-0) = +1
            sgn = np.where(m[2] < 0.0, -self.sigma, self.sigma)
            m[2] *= sgn
            mr[2] *= sgn
            mp[2] *= sgn
        return m, mr, mp

    def unit(self, r, phi, fix: bool = True):
        """Normalized S and its partials via the tangent-projection rule.

        The envelope-free stacks are divided by the per-radius peak of |m|:
        the dropped envelope and the peak are positive per radius, so they
        drop out of S while every intermediate stays in floating-point
        range at any radius.
        """
        m, mr, mp = self.evaluate(r, phi, fix)
        peak = np.abs(m).max(axis=(0, 2))
        peak[peak == 0.0] = 1.0
        peak = peak[None, :, None]
        m /= peak
        mr /= peak
        mp /= peak
        nrm = np.sqrt(np.sum(m * m, axis=0))
        nrm = np.where(nrm == 0.0, 1.0, nrm)
        s = m / nrm
        sr = (mr - s * np.sum(s * mr, axis=0)) / nrm
        sp = (mp - s * np.sum(s * mp, axis=0)) / nrm
        return s, sr, sp

    def expansion(self, phi) -> "_Expansion":
        """The area density on phi as radial monomials times phi tables."""
        p, dp = map(np.stack, zip(*(t.grid_rows(phi) for t in self.terms)))
        live = np.flatnonzero(np.any(p, axis=(0, 2)) | np.any(dp, axis=(0, 2)))
        e_lo, e_hi = (int(live[0]), int(live[-1])) if live.size else (0, 0)
        p, dp = p[:, e_lo:e_hi + 1], dp[:, e_lo:e_hi + 1]
        # det = sum over rows a < b and c of (b - a) (P_a x P_b) . P'_c,
        # P_e the components' row e: the a = b terms cancel, and are left
        # out rather than summed to 0 in rounded arithmetic
        n = p.shape[1]
        rows = np.flatnonzero(np.any(p, axis=(0, 2)))
        a, b = (rows[i] for i in np.triu_indices(rows.size, 1))
        cross = np.cross(p[:, a], p[:, b], axis=0) * (b - a)[:, None]
        det = np.zeros((3 * n - 2, p.shape[-1]))
        # per phi node, (pairs x 3) @ (3 x rows c)
        terms = np.matmul(cross.transpose(2, 1, 0), dp.transpose(2, 0, 1))
        for s, pair in zip(a + b, terms.transpose(1, 2, 0)):
            det[s:s + n] += pair
        nrm = _poly_mul(p[0], p[0]) + _poly_mul(p[1], p[1]) + _poly_mul(p[2], p[2])
        # the determinant carries one 1/r from m_r
        return _Expansion(self.sigma, p.shape[-1], e_lo, e_hi,
                          *_live_rows(det, 3 * e_lo - 1),
                          *_live_rows(nrm, 2 * e_lo), *_live_rows(p[2], e_lo))

    def area_density(self, r, phi) -> np.ndarray:
        """Pullback area density S . (dS/dr x dS/dphi), shape (nr, nphi).

        S is the fixed map, the one wrapping_numeric integrates.  The
        density equals det[m, m_r, m_phi] / |m|^3 of the unnormalized
        field: the parts of m_r and m_phi along m drop out of the
        determinant, and any positive per-radius scale cancels.  A caller
        that evaluates many blocks on one phi grid builds
        self.expansion(phi) once instead.
        """
        return self.expansion(phi).density(np.asarray(r, dtype=float))


@dataclass(frozen=True)
class _Expansion:
    """Area density of one field on one phi grid as radial monomials.

    With m_k = sum_e r^e a_ke(phi) (the components' exponent rows),
    d_r m_k = sum_e e r^(e-1) a_ke and d_phi m_k = sum_e r^e a'_ke.  The
    determinant is multilinear in the components, so det[m, m_r, m_phi] =
    sum_E r^(E-1) G_E(phi), and |m|^2 = sum_F r^F H_F(phi).  Each table
    row pairs with the power of r in the matching ``*_exps`` entry; the
    third component's own rows give the sign for the origin fix of
    orientation gauge sigma.  e_lo and e_hi are the smallest and largest
    live exponents.
    """

    sigma: float
    n_phi: int
    e_lo: int
    e_hi: int
    det_exps: np.ndarray
    det_tables: np.ndarray
    nrm_exps: np.ndarray
    nrm_tables: np.ndarray
    third_exps: np.ndarray
    third_tables: np.ndarray

    def density(self, r: np.ndarray) -> np.ndarray:
        """Area density at the radii r on the expansion's phi grid.

        A block costs one matrix-vector product per radius and table, then
        a square root and a guarded divide; 0 where |m| = 0.  The origin fix
        flips the sign of the third row, and the determinant is linear in
        it, so the fixed density is sigma * sign(m_3) * det with
        sign(+-0) = +1.  The three intermediates are views of one fresh
        buffer, and the density is written over the cube.
        """
        det, nrm2, third = np.empty((3, r.size, self.n_phi))
        # per-radius scale r^-e_ref: with e_ref the largest live exponent
        # for r >= 1 and the smallest below, every radial factor is at
        # most 1/r, and the scale cancels in det / |m|^3
        e_ref = np.where(r >= 1.0, self.e_hi, self.e_lo)
        _radial_sum(r, self.det_exps, 3 * e_ref, self.det_tables, det)
        _radial_sum(r, self.nrm_exps, 2 * e_ref, self.nrm_tables, nrm2)
        if self.sigma != 0.0:
            _radial_sum(r, self.third_exps, e_ref, self.third_tables, third)
            flip = third < 0.0 if self.sigma > 0.0 else third >= 0.0
            np.negative(det, out=det, where=flip)
        # the expanded sum can round below 0 where |m| is about 0
        np.maximum(nrm2, 0.0, out=nrm2)
        cube = np.sqrt(nrm2)
        cube *= nrm2
        # an infinite cube gives the density 0 where |m| = 0
        cube[cube == 0.0] = np.inf
        return np.divide(det, cube, out=cube)


def _poly_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Product of two polynomials whose coefficients are phi tables."""
    out = np.zeros((len(a) + len(b) - 1, a.shape[1]))
    for i, row in enumerate(a):
        out[i:i + len(b)] += row * b
    return out


def _live_rows(tables: np.ndarray, e0: int):
    """Exponents e0 + i and rows i of the tables that are not all zero."""
    keep = np.flatnonzero(np.any(tables, axis=1))
    return e0 + keep, tables[keep]


def _radial_sum(r, exps, scale, tables, out) -> None:
    """out[i] = sum_k r_i^(exps_k - scale_i) tables[k].

    One matrix-vector product per radius, so the value of a row does not
    depend on the block it is evaluated in.
    """
    powers = r[:, None] ** (exps[None, :] - scale[:, None])
    if len(tables) == 1:
        # matmul takes an unvectorized loop for a single term
        np.multiply(powers, tables[0], out=out)
    else:
        np.matmul(powers[:, None, :], tables, out=out[:, None, :])


def map_layout(d: int, indices: tuple[int, int, int]):
    """Layout of the map on a sorted 1-based index triple, read off the basis.

    Returns (arrangement, pair_modes, sigma, third).  A nice pair sits at
    two adjacent sorted positions (partners hold adjacent indices), so the
    arrangement (cos-like, sin-like, third) is an even rotation of the
    sorted triple; without a pair it is the sorted order, pair_modes is
    None and sigma 0.  sigma is the orientation gauge of a root-type third,
    -1 for the qutrit (4,5) family and +1 otherwise, and 0 for a diagonal
    third.  third lists the third axis's terms (m, n, weight) at unit
    amplitudes: the nonzero diagonal entries (m = n), or the single term
    (m, n, sigma) of a root-type third.
    """
    if len(set(indices)) != 3:
        raise ValueError("triple needs three distinct indices")
    if indices[0] < 1 or indices[-1] > d * d - 1:
        bad = indices[0] if indices[0] < 1 else indices[-1]
        raise ValueError(f"basis index {bad} out of range 1..{d * d - 1} "
                         f"for d = {d}")
    basis = build_basis(d)
    pairs = _nice_pair_set(d)
    a = next((a for a in (0, 1) if (indices[a], indices[a + 1]) in pairs), None)
    if a is None:
        return (0, 1, 2), None, 0.0, ()
    arrangement = (a, a + 1, 2 - 2 * a)
    pair_modes = basis[indices[a] - 1].modes
    third = basis[indices[2 - 2 * a] - 1]
    if third.kind == "diag":
        diag = np.real(np.diag(third.matrix))
        return arrangement, pair_modes, 0.0, tuple(
            (m, m, float(x)) for m, x in enumerate(diag) if abs(x) > 1e-12)
    # the orientation gauge of the qutrit (4,5) family
    sigma = -1.0 if d == 3 and indices[a] == 4 else 1.0
    return arrangement, pair_modes, sigma, ((*third.modes, sigma),)


@cache
def _nice_pair_set(d: int) -> frozenset:
    return frozenset(nice_pairs(d))


def triple_field(state: QuditState, spec: TripleSpec) -> UnitField:
    """Build the arranged unit-field for a basis-index triple.

    A SharedSource state lends its components' term fields.
    """
    if spec.canonical is not None:
        raise ValueError("canonical triples build through canonical_field")
    arrangement, pair_modes, sigma, _ = map_layout(state.d, spec.indices)
    basis, source = build_basis(state.d), SharedSource.of(state)
    terms = tuple(source.term(i, basis[i - 1].matrix)
                  for i in (spec.indices[k] for k in arrangement))
    return UnitField(state.l, terms, sigma, pair_modes)


@dataclass(frozen=True)
class MapClass:
    """Boundary diagnostics of the (fixed) unit map."""

    kind: str               # "sphere" | "disk" | "degenerate"
    v_inner: float
    v_outer: float
    inner_point: bool
    outer_point: bool


def classify_map(field: UnitField, grid: GridSpec) -> MapClass:
    """Trend-based boundary classification.

    A radial end maps to a point when the phi-variance of S decays toward
    it (ratio < 0.5 between an end ring and one at twice/half the radius),
    a surviving trace makes the map disk-like, and an image with no area
    at all (phi-independent, or r-independent) is degenerate.
    """
    g = grid.resolve(field.l)
    phi = (np.arange(N_PROBE) + 0.5) * (2.0 * np.pi / N_PROBE)
    radii = {"in0": R_MIN, "in1": 2.0 * R_MIN,
             "mid0": 0.25 * g.r_max, "mid1": 0.5 * g.r_max, "out": g.r_max}
    # one evaluation for all rings: unit() treats every radius on its own
    s, _, _ = field.unit(np.array(list(radii.values())), phi)
    rings = {key: s[:, i, :] for i, key in enumerate(radii)}

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
