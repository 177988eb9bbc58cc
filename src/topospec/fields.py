"""Bloch-vector component fields and unit-sphere triple maps.

Every generator expectation m_a(r, phi) = psi^dag T_a psi is a finite sum
of pair terms f_j(r) f_j'(r) (alpha cos(D phi) + beta sin(D phi)) with
D = l_j' - l_j, which gives exact radial and azimuthal derivatives for
free.  A UnitField bundles the three components of a triple in canonical
arrangement (cos-like, sin-like, third) with the origin fix m_3 -> sigma
|m_3| that repairs wedge discontinuities of root-type thirds; one rule,
_fix_sign, negates what is linear in m_3 where sigma sign(m_3) < 0.  The
layout of an index triple (its nice pair and arrangement, the orientation
gauge of a root-type third, and the third axis's terms at unit
amplitudes) is decided once, in map_layout, index slot 0 of the starred
qutrit maps included; triple_field builds every map from it, census and
canonical alike, and the closed forms in invariants read it.

The Gaussian envelope exp(-2 r^2) is common to every term and positive at
every radius, so it cancels in the normalized map and in its area density,
and no evaluator computes it: each pair term is r^e times an angular
factor, e = |l_j| + |l_j'|.  TermField.rows sums a component's terms per
exponent into one table row each, and every evaluator reads those rows.
UnitField.unit is the one entry point of the normalized map S: it stacks
the three components' rows once and takes one product with the powers of
r per kind it returns, m alone for the boundary classifier's S, or m,
m_r and m_phi for S and its partials.  TermField.evaluate, one
component's values and partials, is the per-term reference it is checked
against, and no evaluator calls it.
UnitField.expansion is the density's one entry point: the determinant and
|m|^2 are short sums of radial monomials times tables in phi, built once
per map and azimuthal grid, |m|^2 from each component's squared rows
(TermField.tables).  A block of radii then costs one small
matrix-vector product per radius and table, scaled per radius by a power
of r that keeps every factor in range and cancels in the quotient; the
expansion's row_sums streams radii in blocks of up to BLOCK_POINTS points,
which keeps the intermediates a few megabytes at any azimuthal
resolution.  A third of one exponent row has one sign per phi node at
every radius, so its origin fix is applied once, to the determinant
tables; only a multi-row third is summed and its sign read per point.

Real amplitudes make every component a pure cosine series (all beta = 0)
or a pure sine series (all alpha = 0), so the area density is even or odd
under phi -> 2 pi - phi.  UnitField.mirror_parity reads that from the
components' TermField.parity; wrapping_numeric then integrates an even
density over half a turn and sets an odd one to 0.  Complex amplitudes
(every reconstructed density among them) mix the two series and have no
parity.  The terms also give the density's period in phi
(UnitField.azimuthal_period): the gcd of their |D| (each component's
TermField.period), or of the third's alone when the pair only rotates
about the third axis, as a clean nice pair does; a diagonal third then
leaves the density constant in phi.  wrapping_numeric integrates one
symmetry cell of the midpoints, which the expansion takes as the first
nodes of its phi grid, sharing that grid's rows.

Only the triple's cross and determinant tables, the density blocks and the
classifier's values and normalized S on its rings are per map.  The rest is
shared: a SharedSource memo builds each component's TermField once for all
the maps of one call or pool chunk, and a TermField keeps one memo, for at
most ROW_GRIDS phi grids, of its exponent rows, their phi-derivatives and
its squared rows, built together and read through TermField.tables, once
per component per call of unit, expansion or evaluate; its parity and |D|
gcd are read once.  The Simpson rule of each panel count is built once
and kept.  Shared arrays are read-only.  The classifier places its five
probe rings from the charges alone, on one phi grid, so every map of a
source reads the same kept rows: it takes one product of the three
components' rows with the powers of the ring radii, reads every ring's
statistics from the result at once, and computes no partial.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property, lru_cache

import numpy as np

from .basis import build_basis, nice_pairs
from .states import QuditState, _whole

# Points per block of area-density rows: _Expansion.row_sums streams its
# radial nodes in blocks of this many (r, phi) points.
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

# Phi grids whose tables (exponent rows, their phi-derivatives and squared
# rows) a term field keeps in its memo.
ROW_GRIDS = 4


@dataclass(frozen=True)
class GridSpec:
    """Integration grid.  n_r counts Simpson panels (even), phi uses midpoints.

    The radial integral runs over the full annulus [R_MIN, inf) through the
    compactification u = r / (1 + r); boundary limits are approached only
    algebraically (the Gaussian envelopes cancel inside the normalized
    field), so a finite cutoff would leave visible truncation errors on
    slowly closing maps.  A field left None takes its default: n_r the
    per-map one that spectrum.evaluate_map fills in (512 panels for a
    canonical label, 256 for an index triple), n_phi 64 nodes per unit of
    charge spread (resolve).  So GridSpec() is the per-map default grid.
    A map singular at the origin integrates on 4 n_phi, set or default.
    """

    n_r: int | None = None
    n_phi: int | None = None

    def __post_init__(self):
        # the set sizes are checked here, so no grid holds a size that no
        # rule can take: n_r and n_phi integers >= 1 (not bool), n_r even
        for name, n in (("n_r", self.n_r), ("n_phi", self.n_phi)):
            if n is None:
                continue
            if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
                raise ValueError(f"grid needs an integer {name}, got {n}")
            if n < 1:
                raise ValueError(f"grid needs {name} >= 1, got {n}")
        if self.n_r is not None and self.n_r % 2:
            raise ValueError(f"Simpson's rule needs an even n_r, got {self.n_r}")

    def resolve(self, l) -> "GridSpec":
        """The grid with n_phi's default for the charges l filled in.

        n_r has no default here: a grid for wrapping_numeric names one.
        """
        if self.n_r is None:
            raise ValueError("grid needs an n_r; spectrum.evaluate_map fills "
                             "in the per-map default")
        n_phi = self.n_phi
        if n_phi is None:
            n_phi = 64 * int(max(1, max(l) - min(l)))
        return GridSpec(int(self.n_r), int(n_phi))

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

    The field keeps one memo: per phi grid, for the last few it was read
    on, its exponent rows, their phi-derivatives and its squared rows,
    built together and read through tables, so maps that share the field
    share them too.  Nothing is kept per radius.
    """

    l: tuple[int, ...]
    js: np.ndarray
    jps: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray

    def __post_init__(self):
        # the memo: phi grid bytes -> read-only (p, dp, squared rows); not a
        # dataclass field, so replace() and == ignore it
        object.__setattr__(self, "_kept", {})

    @cached_property
    def parity(self) -> int:
        """+1 for a cosine series (every beta = 0, even in phi), -1 for a
        sine series (every alpha = 0, odd), 0 when the terms mix both."""
        if not np.any(self.beta):
            return 1
        return -1 if not np.any(self.alpha) else 0

    @cached_property
    def period(self) -> int:
        """gcd of the terms' |D| = |l_j' - l_j|; 0 when every D is 0."""
        return math.gcd(*(abs(self.l[jp] - self.l[j])
                          for j, jp in zip(self.js.tolist(), self.jps.tolist())))

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

    def tables(self, phi):
        """(p, dp, squared rows) on phi, kept per phi grid and shared
        read-only: (p, dp) = rows(phi), and row F of the squared rows sums
        p[e] p[F - e] over e in increasing order, so the three components'
        squared rows add up to |m|^2 = sum_F r^F row F.  All three are built
        together on the first request for the grid.

        The memo holds the tables of at most ROW_GRIDS grids; a further one
        starts it over.  It is never changed in place, only replaced by a
        new dict, so threads sharing the field need no lock: two of them
        may both build an entry, and one may drop an entry the other
        stored, but each gets equal arrays.
        """
        phi = np.asarray(phi, dtype=float)
        key, kept = phi.tobytes(), self._kept
        tables = kept.get(key)
        if tables is None:
            p, dp = self.rows(phi)
            tables = (p, dp, _poly_mul(p, p))
            for a in tables:
                a.setflags(write=False)
            kept = dict(kept) if len(kept) < ROW_GRIDS else {}
            kept[key] = tables
            object.__setattr__(self, "_kept", kept)
        return tables

    def evaluate(self, r, phi):
        """Return (m, dm/dr, dm/dphi) on the outer-product grid, envelope-free.

        The common Gaussian envelope exp(-2 r^2) of every term is left out
        (m here is the expectation divided by it), so the values stay
        representable at any radius; the envelope is positive per radius
        and drops out of the normalized map and of the area density.  The
        values are fresh arrays, built from the kept rows of phi (tables).
        This is the per-term reference that UnitField.unit is checked
        against; no evaluator calls it.
        """
        r = np.atleast_1d(np.asarray(r, dtype=float))
        p, dp, _ = self.tables(phi)
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
    """A memo of one QuditState's or DensityCoeffs' term fields, with its l, d.

    The maps of one call or pool chunk are built from it: triple_field
    takes each component's TermField from it, and with the field the
    exponent rows it keeps per phi grid.  It holds the source's tables, so
    it lives only as long as the call that made it.
    """

    def __init__(self, source):
        self.source = source
        self.l, self.d = source.l, source.d
        self.terms: dict = {}

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

    @cached_property
    def _clean(self) -> bool:
        """True for a state with a diagonal amplitude matrix, the only
        sources the closed forms describe; decided once per wrapper."""
        amps = getattr(self.source, "amps", None)
        return amps is not None and not np.any(amps - np.diag(np.diag(amps)))


CANONICAL_LABELS = ["123", "45*", "67*",
                    "124", "125", "126", "127", "128",
                    "451", "452", "453", "456", "457",
                    "671", "672", "673", "674", "675"]


def canonical_label(label: str) -> str:
    label = {"45s": "45*", "67s": "67*"}.get(label, label)   # the aliases
    if label not in CANONICAL_LABELS:
        raise ValueError(f"unknown canonical label: {label!r}")
    return label


@dataclass(frozen=True)
class TripleSpec:
    """Three distinct 1-based whole-number basis indices, kept sorted as
    ints, defining a candidate map.

    canonical tags the triple as one of the 18 named qutrit maps
    (CANONICAL_LABELS), and only such a triple may hold index slot 0: the
    starred maps' combined diagonal, which map_layout and triple_field
    resolve like any index.  The label must spell the indices ('*' is 0).
    """

    indices: tuple[int, int, int]
    canonical: str | None = None

    def __post_init__(self):
        idx = tuple(sorted(_whole(self.indices, "basis indices")))
        if len(idx) != 3 or len(set(idx)) != 3:
            raise ValueError("triple needs three distinct indices")
        if self.canonical is None and min(idx) < 1:
            raise ValueError("basis indices are 1-based")
        if self.canonical is not None and (
                canonical_label(self.canonical) != self.canonical   # an alias
                or sorted(self.canonical.replace("*", "0")) != [str(i) for i in idx]):
            raise ValueError(f"canonical label {self.canonical!r} does not "
                             f"spell the indices {idx} ('*' is slot 0)")
        object.__setattr__(self, "indices", idx)

    @classmethod
    def parse(cls, name: str) -> "TripleSpec":
        """The one reader of map names: indices a,b,c (blanks drop out) or
        a-b-c, else a canonical label or alias; parse(spec.label) == spec.
        An index name that is no map's is refused with the name."""
        if "," in name or "-" in name:
            tokens = ([t for t in name.split(",") if t.strip()] if "," in name
                      else name.split("-"))
            try:
                return cls(tuple(map(float, tokens)))
            except ValueError as exc:
                raise ValueError(f"map name {name!r}: {exc}") from None
        label = canonical_label(name)
        return cls(tuple(0 if ch == "*" else int(ch) for ch in label), label)

    @property
    def label(self) -> str:
        return self.canonical or "-".join(map(str, self.indices))


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

    def unit(self, r, phi, fix: bool = True, partials: bool = True):
        """Normalized S and its partials via the tangent-projection rule.

        The components' kept exponent rows on phi (TermField.tables, one
        lookup per component) are stacked once, and each kind returned
        takes one product with the powers of r: m alone with
        partials=False, else m, m_r and m_phi, as one fresh (kind,
        component, nr, nphi) stack with the origin fix applied.
        Nothing is kept per radius.  The envelope-free stack is divided by
        the per-radius peak of |m|: the dropped envelope and the peak are
        positive per radius, so they drop out of S while every intermediate
        stays in floating-point range at any radius.
        """
        r = np.atleast_1d(np.asarray(r, dtype=float))
        p, dp, _ = zip(*(t.tables(phi) for t in self.terms))
        p = np.stack(p)
        e = np.arange(p.shape[1])
        powers = r[:, None] ** e
        m = powers @ p
        # the phi-derivative rows are stacked only when m_phi is returned
        stack = (np.array([m, (powers * (e / r[:, None])) @ p,
                           powers @ np.stack(dp)]) if partials else m[None])
        if fix and self.sigma != 0.0:
            _fix_sign(stack[:, 2], stack[0, 2], self.sigma)
        peak = np.abs(stack[0]).max(axis=(0, 2))
        peak[peak == 0.0] = 1.0
        stack /= peak[:, None]
        m, dm = stack[0], stack[1:]
        nrm = np.sqrt(np.sum(m * m, axis=0))
        nrm = np.where(nrm == 0.0, 1.0, nrm)
        s = m / nrm
        if not partials:
            return s
        sr, sp = (dm - s * np.sum(s * dm, axis=1)[:, None]) / nrm
        return s, sr, sp

    def mirror_parity(self) -> int:
        """Parity of the area density under phi -> 2 pi - phi, from the terms.

        A component whose terms all have beta = 0 is a cosine series (even
        in phi), one whose terms all have alpha = 0 a sine series (odd);
        the folded third sigma |m_3| is even whenever m_3 has a parity.
        The density det[m, m_r, m_phi] / |m|^3 then has parity
        -p_1 p_2 p_3, the phi-derivative row giving the minus sign.
        Returns +1 (even), -1 (odd), or 0 when some component mixes
        cosines and sines (complex amplitudes) and no parity is known.
        Each component's parity is read once, by its TermField.
        """
        parity = -1
        for k, t in enumerate(self.terms):
            if t.parity == 0:
                return 0
            if k < 2 or self.sigma == 0.0:
                parity *= t.parity
        return parity

    def azimuthal_period(self) -> int:
        """Period of the area density in phi, from the terms: the density
        is unchanged by phi -> phi + 2 pi / k, and k = 0 means that it does
        not depend on phi.

        A pair term turns with D = l_j' - l_j, so k is the gcd of |D| over
        the terms of the three components (0 when every D is 0), the gcd
        of the components' own TermField.period.  When the pair components
        are one term each on the same modes, with perpendicular (alpha,
        beta) of equal length, they are r^e times a unit vector turning at
        the rate D, maybe mirrored: the pair only rotates about the third
        axis, which leaves the density unchanged, so only the third's terms
        count.  Every nice-pair map of a clean state with real amplitudes
        is one (complex amplitudes may round the two terms off
        perpendicular, and then every term counts).  The folded third
        sigma |m_3| has the period of m_3.
        """
        terms = self.terms[2:] if self._rotating_pair() else self.terms
        return math.gcd(*(t.period for t in terms))

    def _rotating_pair(self) -> bool:
        """True when the first two components are one term each on the same
        modes, with perpendicular (alpha, beta) of equal length (exact)."""
        u, v = self.terms[:2]
        if u.js.size != 1 or v.js.size != 1 or u.js[0] != v.js[0] \
                or u.jps[0] != v.jps[0]:
            return False
        (a, b), (c, e) = (u.alpha[0], u.beta[0]), (v.alpha[0], v.beta[0])
        return a * c + b * e == 0.0 and a * a + b * b == c * c + e * e

    def expansion(self, phi, nodes: int | None = None) -> "_Expansion":
        """The area density on phi as radial monomials times phi tables.

        The density S . (dS/dr x dS/dphi) of the fixed map S is det[m, m_r,
        m_phi] / |m|^3 of the unnormalized field: the parts of m_r and m_phi
        along m drop out of the determinant, and any positive per-radius
        scale cancels.  With nodes given, the tables cover only the first
        nodes nodes of phi (a symmetry cell); the components' rows are still
        built once per phi grid and sliced, so cells share them.

        A third of one exponent row T has the sign of T(phi) at every
        radius, so its origin fix is applied to the determinant tables
        once, and the density applies none of its own.
        """
        p, dp, sq = zip(*(t.tables(phi) for t in self.terms))
        p, dp = (np.stack([rows[:, :nodes] for rows in kind])
                 for kind in (p, dp))
        live = np.flatnonzero(np.any(p, axis=(0, 2)) | np.any(dp, axis=(0, 2)))
        e_lo, e_hi = (int(live[0]), int(live[-1])) if live.size else (0, 0)
        p, dp = p[:, e_lo:e_hi + 1], dp[:, e_lo:e_hi + 1]
        # det = sum over rows a < b and c of (b - a) (P_a x P_b) . P'_c,
        # P_e the components' row e: the a = b terms cancel, and are left
        # out rather than summed to 0 in rounded arithmetic
        n = p.shape[1]
        rows = np.flatnonzero(np.any(p, axis=(0, 2)))
        a, b = (rows[i] for i in _row_pairs(rows.size))
        # P_a x P_b per pair and phi node, component last, as np.cross
        # computes it
        pa, pb = p[:, a], p[:, b]
        cross = np.empty((a.size, p.shape[-1], 3))
        for k in range(3):
            i, j = (k + 1) % 3, (k + 2) % 3
            np.multiply(pa[i], pb[j], out=cross[..., k])
            cross[..., k] -= pa[j] * pb[i]
        cross *= (b - a)[:, None, None]
        det = np.zeros((3 * n - 2, p.shape[-1]))
        # per phi node, (pairs x 3) @ (3 x rows c)
        terms = np.matmul(cross.transpose(1, 0, 2), dp.transpose(2, 0, 1))
        for s, pair in zip(a + b, terms.transpose(1, 2, 0)):
            det[s:s + n] += pair
        # |m|^2 from each component's squared rows, kept per phi grid: rows
        # outside e_lo..e_hi are 0 on these nodes and add only zeros
        sq = [rows[2 * e_lo:2 * e_hi + 1, :nodes] for rows in sq]
        nrm = sq[0] + sq[1] + sq[2]
        third_exps, third_tables = _live_rows(p[2], e_lo)
        sigma = self.sigma
        if sigma != 0.0 and third_exps.size <= 1:
            # sign(r^e T) = sign(T); with no live row, m_3 = 0 everywhere
            _fix_sign(det, third_tables.sum(axis=0), sigma)
            sigma = 0.0
        # the determinant carries one 1/r from m_r
        return _Expansion(sigma, p.shape[-1], e_lo, e_hi,
                          *_live_rows(det, 3 * e_lo - 1),
                          *_live_rows(nrm, 2 * e_lo), third_exps, third_tables)


@dataclass(frozen=True)
class _Expansion:
    """Area density of one field on one phi grid as radial monomials.

    With m_k = sum_e r^e a_ke(phi) (the components' exponent rows),
    d_r m_k = sum_e e r^(e-1) a_ke and d_phi m_k = sum_e r^e a'_ke.  The
    determinant is multilinear in the components, so det[m, m_r, m_phi] =
    sum_E r^(E-1) G_E(phi), and |m|^2 = sum_F r^F H_F(phi).  Each table
    row pairs with the power of r in the matching ``*_exps`` entry; the
    third component's own rows give the sign for the origin fix of
    orientation gauge sigma, which is 0 when no fix is left to apply per
    point (UnitField.expansion).  e_lo and e_hi are the smallest and
    largest live exponents.
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

        A block costs one matrix-vector product per radius and table (an
        outer product for a one-row table), then a square root and a
        guarded divide; 0 where |m| = 0.  The origin fix left to apply
        reads m_3 per point.  The three intermediates are views of one
        fresh buffer, and the density is written over the cube.
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
            _fix_sign(det, third, self.sigma)
        # the expanded sum can round below 0 where |m| is about 0
        np.maximum(nrm2, 0.0, out=nrm2)
        cube = np.sqrt(nrm2)
        cube *= nrm2
        # an infinite cube gives the density 0 where |m| = 0
        cube[cube == 0.0] = np.inf
        return np.divide(det, cube, out=cube)

    def row_sums(self, r: np.ndarray) -> np.ndarray:
        """Phi-summed area density at each radial node: zeros with no live
        determinant row, else streamed in blocks of about BLOCK_POINTS (r, phi)
        points (at least one row), the same size at every n_phi."""
        if not self.det_exps.size:
            return np.zeros(r.size)
        block = max(1, BLOCK_POINTS // self.n_phi)
        return np.concatenate([self.density(r[lo:lo + block]).sum(axis=1)
                               for lo in range(0, r.size, block)])


def _fix_sign(values: np.ndarray, third: np.ndarray, sigma: float) -> None:
    """Origin fix of values linear in the third: negate them in place where
    sigma sign(third) < 0, sign(+-0) = +1; third broadcasts against them."""
    np.negative(values, out=values,
                where=third < 0.0 if sigma > 0.0 else third >= 0.0)


@cache
def _row_pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """np.triu_indices(n, 1), built once per n and shared read-only."""
    pairs = np.triu_indices(n, 1)
    for index in pairs:
        index.setflags(write=False)
    return pairs


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
    depend on the block it is evaluated in; a single table is an outer
    product, one multiply per point as in the broadcast product.
    """
    powers = r[:, None] ** (exps[None, :] - scale[:, None])
    if len(tables) == 1:
        # matmul takes an unvectorized loop for a single term, and einsum
        # writes the outer product in about half the time of a broadcast
        # multiply
        np.einsum("i,j->ij", powers[:, 0], tables[0], out=out)
    else:
        np.matmul(powers[:, None, :], tables, out=out[:, None, :])


@cache
def map_layout(d: int, indices: tuple[int, int, int]):
    """Layout of the map on a sorted 1-based index triple, read off the basis.

    Kept per (d, indices): the layout is a pure function of them, made of
    tuples, and every triple of d = 7 (17296) takes about 3 MB.

    Returns (arrangement, pair_modes, sigma, third).  A nice pair sits at
    two adjacent sorted positions (partners hold adjacent indices), so the
    arrangement (cos-like, sin-like, third) is an even rotation of the
    sorted triple; without a pair it is the sorted order, pair_modes is
    None and sigma 0.  sigma is the orientation gauge of a root-type third,
    -1 for the qutrit (4,5) family and +1 otherwise, and 0 for a diagonal
    third.  third lists the third axis's terms (m, n, weight) at unit
    amplitudes: the nonzero diagonal entries (m = n), or the single term
    (m, n, sigma) of a root-type third.

    Index slot 0 exists at d = 3 only: (0, 4, 5) and (0, 6, 7) are the
    starred maps 45* and 67*, each its pair's usual map, with arrangement
    (1, 2, 0), sigma 0 and third ((i, i, 1.0), (j, j, -1.0)) on the pair's
    modes i, j.
    """
    if len(set(indices)) != 3:
        raise ValueError("triple needs three distinct indices")
    if d == 3 and indices in ((0, 4, 5), (0, 6, 7)):
        i, j = pair_modes = build_basis(3)[indices[1] - 1].modes
        return (1, 2, 0), pair_modes, 0.0, ((i, i, 1.0), (j, j, -1.0))
    _check_range(d, indices)
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


def _check_range(d: int, indices) -> None:
    """Raise unless every index of the sorted triple is a basis index of d."""
    if indices[0] < 1 or indices[-1] > d * d - 1:
        bad = indices[0] if indices[0] < 1 else indices[-1]
        raise ValueError(f"basis index {bad} out of range 1..{d * d - 1} "
                         f"for d = {d}")


@cache
def _nice_pair_set(d: int) -> frozenset:
    return frozenset(nice_pairs(d))


def triple_field(state: QuditState, spec: TripleSpec) -> UnitField:
    """Build the arranged unit-field of a census triple or canonical map.

    Index slot 0 takes the starred map's combined diagonal, kept under the
    map's index triple.  A SharedSource state lends its components' term
    fields.
    """
    if spec.canonical is not None and state.d != 3:
        raise ValueError("canonical labels are defined for d = 3")
    arrangement, pair_modes, sigma, _ = map_layout(state.d, spec.indices)
    basis, source = build_basis(state.d), SharedSource.of(state)
    # slot 0: (+-lambda_3 + sqrt(3) lambda_8) / 2, + for 45* and - for 67*
    sign = 1.0 if spec.indices[1] == 4 else -1.0
    terms = tuple(source.term(i, basis[i - 1].matrix) if i else
                  source.term(spec.indices, 0.5 * (sign * basis[2].matrix
                                                   + np.sqrt(3.0) * basis[7].matrix))
                  for i in (spec.indices[k] for k in arrangement))
    return UnitField(state.l, terms, sigma, pair_modes)


# The classifier's ring grid, built once and shared read-only.
_PROBE_PHI = GridSpec(n_phi=N_PROBE).phi_nodes()
_PROBE_PHI.setflags(write=False)


@dataclass(frozen=True)
class MapClass:
    """Boundary diagnostics of the (fixed) unit map."""

    kind: str               # "sphere" | "disk" | "degenerate"
    v_inner: float
    v_outer: float
    inner_point: bool
    outer_point: bool


def classify_map(field: UnitField, grid: GridSpec | None = None) -> MapClass:
    """Trend-based boundary classification from S alone on five probe rings.

    A radial end maps to a point when the phi-variance of S decays toward
    it (ratio < 0.5 between an end ring and one at twice/half the radius),
    a surviving trace makes the map disk-like, and an image with no area
    at all (phi-independent, or r-independent) is degenerate.  The probe
    rings sit at R_MIN and 2 R_MIN and at a quarter, half and all of
    r_out = sqrt(max|l|) + 6, read off the charges alone; grid is ignored,
    and is accepted only for callers that still pass one.  S comes from
    field.unit(..., partials=False), one product of the rings' radial
    powers with the exponent rows each TermField keeps on the ring grid.
    """
    r_out = float(np.sqrt(max(abs(x) for x in field.l)) + 6.0)
    # rings in0, in1, mid0, mid1 and out, in one call: unit() treats every
    # radius on its own
    radii = np.array([R_MIN, 2.0 * R_MIN, 0.25 * r_out, 0.5 * r_out, r_out])
    s = field.unit(radii, _PROBE_PHI, partials=False)
    # the phi-variance of S per ring, summed over the components
    v_in, v_in1, v_mid0, v_out1, v_out = np.var(s, axis=2).sum(axis=0).tolist()
    tiny = 1e-12
    inner_point = v_in < tiny or (v_in1 > 0 and v_in / v_in1 < 0.5)
    outer_point = v_out < tiny or (v_out1 > 0 and v_out / v_out1 < 0.5)

    all_tiny = max(v_in, v_in1, v_mid0, v_out1, v_out) < tiny
    # ring pairs mid0-mid1, mid1-out and in0-mid0
    r_indep = float(np.max(np.abs(s[:, [2, 3, 0]] - s[:, [3, 4, 2]]))) < 1e-9
    if all_tiny or r_indep:
        kind = "degenerate"
    elif inner_point and outer_point:
        kind = "sphere"
    else:
        kind = "disk"
    return MapClass(kind, v_in, v_out, inner_point, outer_point)
