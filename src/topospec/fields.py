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
forms and the qutrit label catalogue in invariants all read it.  Its area
density det[m, m_r, m_phi] / |m|^3 is taken straight from the unnormalized
field; the normalized map and its tangent derivatives (``unit``) serve the
boundary classifier and stand as the reference for the density.  With the
Gaussian envelope dropped, each pair term is r^e times an angular factor,
so the density expands separably: the determinant and |m|^2 are short sums
of radial monomials times tables in phi, built once per (field, phi) and
kept per thread.  A block of radii then costs one small matrix-vector
product per radius and table, scaled per radius by a power of r that
keeps every factor in range and cancels in the quotient; its
intermediates live in a three-view per-thread workspace, and blocks of up
to BLOCK_POINTS points keep that workspace a few megabytes at any
azimuthal resolution.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from .basis import build_basis, nice_pairs
from .states import QuditState, radial_profile

# Points per block of area-density rows: wrapping_numeric streams its radial
# nodes in blocks of this many (r, phi) points, and the workspace keeps
# buffers up to this size between calls.
BLOCK_POINTS = 2 ** 16

# the area-density workspace and the last expansion, one per thread
_LOCAL = threading.local()


@dataclass(frozen=True)
class GridSpec:
    """Integration grid.  n_r counts Simpson panels, phi uses midpoints.

    The radial integral runs over the full annulus [r_min, inf) through the
    compactification u = r / (1 + r); boundary limits are approached only
    algebraically (the Gaussian envelopes cancel inside the normalized
    field), so a finite cutoff would leave visible truncation errors on
    slowly closing maps.  r_max only anchors the classifier probes.
    n_r None leaves the radial panel count to spectrum.evaluate_map, which
    picks it per map.
    """

    r_min: float = 1e-3
    r_max: float | None = None
    n_r: int | None = 4096
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
        if self.n_r is None or self.n_r < 1 or n_phi < 1:
            raise ValueError(f"grid needs n_r >= 1 and n_phi >= 1, got "
                             f"n_r={self.n_r}, n_phi={n_phi}")
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

    def evaluate(self, r, phi, scaled=False):
        """Return (m, dm/dr, dm/dphi) on the outer-product grid.

        scaled=True drops the common Gaussian envelope from every term
        (and from the radial derivative).  Normalized quantities built
        through the tangent-projection quotient rule are unaffected, and
        the scaled fields stay representable at any radius.
        """
        r = np.asarray(r, dtype=float)
        phi = np.asarray(phi, dtype=float)
        profiles = _profiles(self.l, set(self.js) | set(self.jps), r, scaled)
        m = np.zeros((r.size, phi.size))
        mr = np.zeros_like(m)
        mp = np.zeros_like(m)
        self._accumulate(r, phi, profiles, scaled, m, mr, mp, np.empty_like(m))
        return m, mr, mp

    def _accumulate(self, r, phi, profiles, scaled, m, mr, mp, tmp):
        """Add every pair term into the caller's m, mr, mp; tmp is scratch."""
        envelope = 0.0 if scaled else 4.0
        for j, jp, (e, ang, dang) in zip(self.js, self.jps, self._angular(phi)):
            prod = profiles[j] * profiles[jp]
            dprod = (e / r - envelope * r) * prod
            m += np.multiply.outer(prod, ang, out=tmp)
            mr += np.multiply.outer(dprod, ang, out=tmp)
            mp += np.multiply.outer(prod, dang, out=tmp)

    def _angular(self, phi):
        """Per pair term, in order: its envelope-free radial exponent
        |l_j| + |l_j'| and its angular factor with that factor's phi-derivative."""
        for j, jp, a, b in zip(self.js, self.jps, self.alpha, self.beta):
            delta = self.l[jp] - self.l[j]
            c, s = np.cos(delta * phi), np.sin(delta * phi)
            yield (abs(self.l[j]) + abs(self.l[jp]), a * c + b * s,
                   delta * (-a * s + b * c))


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
    arrangement: tuple[int, int, int]
    sigma: float
    pair_modes: tuple[int, int] | None

    def evaluate(self, r, phi, fix: bool = True, scaled: bool = False):
        """Stacked S-tilde and partials, shape (3, nr, nphi) each."""
        r = np.asarray(r, dtype=float)
        phi = np.asarray(phi, dtype=float)
        modes = set()
        for t in self.terms:
            modes |= set(t.js) | set(t.jps)
        profiles = _profiles(self.l, modes, r, scaled)
        m = np.zeros((3, r.size, phi.size))
        mr = np.zeros_like(m)
        mp = np.zeros_like(m)
        tmp = np.empty_like(m[0])
        for k, t in enumerate(self.terms):
            t._accumulate(r, phi, profiles, scaled, m[k], mr[k], mp[k], tmp)
        if fix and self.sigma != 0.0:
            sgn = np.sign(m[2], out=tmp)
            sgn[sgn == 0.0] = 1.0
            sgn *= self.sigma
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
        m, mr, mp = self.evaluate(r, phi, fix, scaled=True)
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

    def area_density(self, r, phi, fix: bool = True) -> np.ndarray:
        """Pullback area density S . (dS/dr x dS/dphi), shape (nr, nphi).

        Equals det[m, m_r, m_phi] / |m|^3 of the unnormalized field: the
        parts of m_r and m_phi along m drop out of the determinant, and any
        positive per-radius scale cancels.  Both the determinant and |m|^2
        are short sums of radial monomials times tables in phi (see
        ``_Expansion``), so a block costs one matrix-vector product per
        radius and table, then a square root and a guarded divide; 0 where
        |m| = 0.  The origin fix flips the sign of the third row, and the
        determinant is linear in it, so the fixed density is
        sigma * sign(m_3) * det with sign(+-0) = +1.  The tables of the
        last (field, phi) pair are kept per thread, and the block's
        intermediates live in a reused per-thread workspace, so the
        returned density is the only block-sized float array allocated per
        call.
        """
        r = np.asarray(r, dtype=float)
        phi = np.asarray(phi, dtype=float)
        ex = _expansion(self, phi)
        det, nrm2, third = _workspace(r.size, phi.size)
        # per-radius scale r^-e_ref: with e_ref the largest live exponent
        # for r >= 1 and the smallest below, every radial factor is at
        # most 1/r, and the scale cancels in det / |m|^3
        e_ref = np.where(r >= 1.0, ex.e_hi, ex.e_lo)
        _radial_sum(r, ex.det_exps, 3 * e_ref, ex.det_tables, det)
        _radial_sum(r, ex.nrm_exps, 2 * e_ref, ex.nrm_tables, nrm2)
        if fix and self.sigma != 0.0:
            _radial_sum(r, ex.third_exps, e_ref, ex.third_tables, third)
            flip = third < 0.0 if self.sigma > 0.0 else third >= 0.0
            np.negative(det, out=det, where=flip)
        # the expanded sum can round below 0 where |m| is about 0
        np.maximum(nrm2, 0.0, out=nrm2)
        cube = np.sqrt(nrm2)
        cube *= nrm2
        # an infinite cube gives the density 0 where |m| = 0
        cube[cube == 0.0] = np.inf
        return np.divide(det, cube, out=cube)


@dataclass(frozen=True)
class _Expansion:
    """Area density of one field on one phi grid as radial monomials.

    Grouping each component's pair terms by envelope-free radial exponent
    e = |l_j| + |l_j'| gives m_k = sum_e r^e a_ke(phi), d_r m_k =
    sum_e e r^(e-1) a_ke and d_phi m_k = sum_e r^e a'_ke.  The determinant
    is multilinear in the components, so det[m, m_r, m_phi] =
    sum_E r^(E-1) G_E(phi), and |m|^2 = sum_F r^F H_F(phi).  Each table
    row pairs with the power of r in the matching ``*_exps`` entry; the
    third component's own rows give the sign for the origin fix.  e_lo and
    e_hi are the smallest and largest live exponents.
    """

    e_lo: int
    e_hi: int
    det_exps: np.ndarray
    det_tables: np.ndarray
    nrm_exps: np.ndarray
    nrm_tables: np.ndarray
    third_exps: np.ndarray
    third_tables: np.ndarray


def _expansion(field: UnitField, phi: np.ndarray) -> _Expansion:
    """The expansion of field on phi, kept per thread for the next call.

    Every block and every doubling of one map asks for the same pair, so
    the cache holds only the last one; field is matched by identity.
    """
    cached = getattr(_LOCAL, "expansion", None)
    if cached is not None and cached[0] is field and np.array_equal(cached[1], phi):
        return cached[2]
    ex = _build_expansion(field, phi)
    _LOCAL.expansion = (field, phi.copy(), ex)
    return ex


def _build_expansion(field: UnitField, phi: np.ndarray) -> _Expansion:
    terms = [list(t._angular(phi)) for t in field.terms]
    size = 1 + max((e for ts in terms for e, _, _ in ts), default=0)
    # polynomials in r with phi-table coefficients, row e at exponent e;
    # each row sums its terms in term order, so amplitudes that cancel (the
    # lambda-3 third of equal-weight |l| pairs) leave exact zeros
    p = np.zeros((3, size, phi.size))
    dp = np.zeros_like(p)
    for k, ts in enumerate(terms):
        for e, ang, dang in ts:
            p[k, e] += ang
            dp[k, e] += dang
    live = np.flatnonzero(np.any(p, axis=(0, 2)) | np.any(dp, axis=(0, 2)))
    e_lo, e_hi = (int(live[0]), int(live[-1])) if live.size else (0, 0)
    p, dp = p[:, e_lo:e_hi + 1], dp[:, e_lo:e_hi + 1]
    q = p * np.arange(e_lo, e_hi + 1)[:, None]      # r * d_r
    det = (_poly_mul(p[0], _poly_mul(q[1], dp[2]) - _poly_mul(q[2], dp[1]))
           + _poly_mul(p[1], _poly_mul(q[2], dp[0]) - _poly_mul(q[0], dp[2]))
           + _poly_mul(p[2], _poly_mul(q[0], dp[1]) - _poly_mul(q[1], dp[0])))
    nrm = _poly_mul(p[0], p[0]) + _poly_mul(p[1], p[1]) + _poly_mul(p[2], p[2])
    # the determinant carries one 1/r from m_r
    return _Expansion(e_lo, e_hi, *_live_rows(det, 3 * e_lo - 1),
                      *_live_rows(nrm, 2 * e_lo), *_live_rows(p[2], e_lo))


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


def _workspace(rows: int, n_phi: int) -> np.ndarray:
    """Three (rows, n_phi) float64 views of one flat per-thread buffer.

    The buffer grows on demand and is kept for the next call while it
    holds at most BLOCK_POINTS points per view; larger requests get a
    buffer of their own.
    """
    size = 3 * rows * n_phi
    buf = getattr(_LOCAL, "buf", None)
    if buf is None or buf.size < size:
        buf = np.empty(size)
        if rows * n_phi <= BLOCK_POINTS:
            _LOCAL.buf = buf
    return buf[:size].reshape(3, rows, n_phi)


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
    if indices[0] < 1 or indices[-1] > d * d - 1:
        bad = indices[0] if indices[0] < 1 else indices[-1]
        raise ValueError(f"basis index {bad} out of range 1..{d * d - 1} "
                         f"for d = {d}")
    basis = build_basis(d)
    pairs = set(nice_pairs(d))
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


def triple_field(state: QuditState, spec: TripleSpec) -> UnitField:
    """Build the arranged unit-field for a basis-index triple."""
    if spec.canonical is not None:
        raise ValueError("canonical triples build through canonical_field")
    arrangement, pair_modes, sigma, _ = map_layout(state.d, spec.indices)
    basis = build_basis(state.d)
    terms = tuple(term_field(state, basis[spec.indices[k] - 1].matrix)
                  for k in arrangement)
    return UnitField(state.l, terms, arrangement, sigma, pair_modes)


@dataclass(frozen=True)
class MapClass:
    """Boundary diagnostics of the (fixed) unit map."""

    kind: str               # "sphere" | "disk" | "degenerate"
    v_inner: float
    v_outer: float
    inner_point: bool
    outer_point: bool


def classify_map(field: UnitField, grid: GridSpec, n_probe: int = 256) -> MapClass:
    """Trend-based boundary classification.

    A radial end maps to a point when the phi-variance of S decays toward
    it (ratio < 0.5 between an end ring and one at twice/half the radius),
    a surviving trace makes the map disk-like, and an image with no area
    at all (phi-independent, or r-independent) is degenerate.
    """
    g = grid.resolve(field.l)
    phi = (np.arange(n_probe) + 0.5) * (2.0 * np.pi / n_probe)
    radii = {"in0": g.r_min, "in1": 2.0 * g.r_min,
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
