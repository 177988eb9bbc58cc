"""Component-field evaluation, unit maps, and boundary classification tests."""

import sys
import threading
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from topospec.basis import build_basis
from topospec.fields import (R_MIN, ROW_GRIDS, RULE_CACHE, GridSpec,
                             SharedSource, TripleSpec, UnitField, _simpson_rule,
                             classify_map, map_layout, term_field, triple_field)
from topospec.invariants import canonical_field
from topospec.states import inject_subspace, make_state, sample_perturbation

st_l3 = st.lists(st.integers(-4, 4), min_size=3, max_size=3, unique=True)
st_index = st.integers(1, 8)


def _direct_component(state, matrix, r, phi):
    psi = state.fields(r, phi)
    return np.einsum("krp,kn,nrp->rp", psi.conj(), matrix, psi).real


@given(st_l3, st_index)
@settings(max_examples=30, deadline=None)
def test_term_field_matches_direct_expectation(l, index):
    rng = np.random.default_rng(index)
    state = make_state(l, rng.normal(size=3) + 1j * rng.normal(size=3))
    matrix = build_basis(3)[index - 1].matrix
    field = term_field(state, matrix)
    r = np.array([0.3, 0.9, 1.7])
    phi = np.linspace(0.1, 6.0, 7)
    m, _, _ = field.evaluate(r, phi)
    # evaluate leaves out the Gaussian envelope that the direct field carries
    assert_allclose(m * np.exp(-2.0 * r * r)[:, None],
                    _direct_component(state, matrix, r, phi), atol=1e-12)


@given(st_l3, st_index)
@settings(max_examples=20, deadline=None)
def test_term_field_derivatives(l, index):
    state = make_state(l, np.ones(3))
    field = term_field(state, build_basis(3)[index - 1].matrix)
    r = np.array([0.8])
    phi = np.array([0.7])
    h = 1e-6
    m, mr, mp = field.evaluate(r, phi)
    m_rp = field.evaluate(r + h, phi)[0]
    m_rm = field.evaluate(r - h, phi)[0]
    m_pp = field.evaluate(r, phi + h)[0]
    m_pm = field.evaluate(r, phi - h)[0]
    assert_allclose(mr, (m_rp - m_rm) / (2 * h), rtol=1e-5, atol=1e-7)
    assert_allclose(mp, (m_pp - m_pm) / (2 * h), rtol=1e-5, atol=1e-7)


def test_unit_field_is_normalized_and_tangent():
    state = make_state((-1, 0, 1), np.ones(3))
    field = canonical_field(state, "123")
    r = np.linspace(0.05, 4.0, 9)
    phi = np.linspace(0.0, 2 * np.pi, 11)
    s, sr, sp = field.unit(r, phi)
    assert_allclose(np.sum(s * s, axis=0), 1.0, atol=1e-12)
    assert_allclose(np.sum(s * sr, axis=0), 0.0, atol=1e-10)
    assert_allclose(np.sum(s * sp, axis=0), 0.0, atol=1e-10)


def test_unit_field_survives_extreme_radii():
    # the envelope-free rescale keeps values finite far outside the waist
    state = make_state((-4, 0, 4), np.ones(3))
    field = canonical_field(state, "451")
    s, sr, sp = field.unit(np.array([1e-3, 50.0]), np.array([0.4]))
    assert np.all(np.isfinite(s)) and np.all(np.isfinite(sr))
    assert_allclose(np.sum(s * s, axis=0), 1.0, atol=1e-9)


def test_area_density_equals_unit_triple_product():
    state = inject_subspace(make_state((-3, 1, 4), np.ones(3)),
                            sample_perturbation(3, np.random.default_rng(0)))
    field = canonical_field(state, "451")
    r = np.array([1e-3, 0.3, 1.0, 2.5, 50.0])
    phi = np.linspace(0.0, 2 * np.pi, 17)
    s, sr, sp = field.unit(r, phi)
    expected = np.sum(s * np.cross(sr, sp, axis=0), axis=0)
    got = field.area_density(r, phi)
    assert got.shape == (r.size, phi.size)
    assert_allclose(got, expected, rtol=1e-9, atol=1e-12 * np.max(np.abs(expected)))


def _rational_density(field, r, phi):
    """det[m, m_r, m_phi] and |m|^2 in exact arithmetic on the float rows."""
    rows = [t.rows(phi) for t in field.terms]
    r = Fraction(float(r))
    out = []
    for k in range(phi.size):
        cols = []
        for p, dp in rows:
            e = range(len(p))
            cols.append([sum(r ** i * Fraction(p[i, k]) for i in e),
                         sum(i * r ** (i - 1) * Fraction(p[i, k]) for i in e),
                         sum(r ** i * Fraction(dp[i, k]) for i in e)])
        if field.sigma != 0.0 and (cols[2][0] < 0) == (field.sigma > 0.0):
            cols[2] = [-x for x in cols[2]]
        (a, ar, ap), (b, br, bp), (c, cr, cp) = cols
        det = a * (br * cp - cr * bp) + b * (cr * ap - ar * cp) + c * (ar * bp - br * ap)
        out.append(float(det) / float(a * a + b * b + c * c) ** 1.5)
    return np.array(out)


def test_area_density_keeps_relative_accuracy_where_the_third_vanishes():
    # at r = 1e6 the third axis dominates |m| except at its zeros, where the
    # determinant shrinks with it; its a = b terms cancel only exactly
    rng = np.random.default_rng(1464)
    state = make_state((-1, -2, 3), rng.normal(size=3) + 1j * rng.normal(size=3))
    field = canonical_field(state, "124")
    g = GridSpec(n_r=16).resolve(field.l)
    r = g.radial_rule(0)[0][-1:]
    phi = g.phi_nodes()
    assert_allclose(field.area_density(r, phi)[0],
                    _rational_density(field, r[0], phi), rtol=1e-12, atol=0.0)


def test_area_density_results_are_independent():
    # the arrays area_density returns stay the caller's
    first_field = canonical_field(make_state((-4, -3, 4), np.ones(3)), "124")
    other_field = canonical_field(make_state((-1, 0, 1), np.ones(3)), "453")
    r = np.linspace(0.2, 3.0, 9)
    phi = GridSpec(n_phi=32).phi_nodes()
    first = first_field.area_density(r, phi)
    kept = first.copy()
    second = other_field.area_density(np.linspace(0.1, 2.0, 5),
                                      GridSpec(n_phi=48).phi_nodes())
    assert second.shape == (5, 48)
    assert not np.shares_memory(first, second)
    assert np.array_equal(first, kept)
    assert np.array_equal(first_field.area_density(r, phi), kept)


def test_area_density_in_two_threads_matches_serial():
    # two threads interleave densities of different fields on different phi
    # grids; shared scratch state in the kernel would mix their blocks
    fields = [canonical_field(make_state((-4, -3, 4), np.ones(3)), "124"),
              canonical_field(make_state((-3, 1, 4), [1.0, 2.0, 3.0]), "453")]
    grids = [GridSpec(n_phi=96).phi_nodes(), GridSpec(n_phi=160).phi_nodes()]
    blocks = [np.linspace(0.05, 4.0, 40), np.linspace(0.5, 9.0, 25)]
    serial = [[f.area_density(r, phi) for r in blocks]
              for f, phi in zip(fields, grids)]
    got = [[], []]
    start = threading.Barrier(2)

    def run(k):
        ex = fields[k].expansion(grids[k])
        start.wait()
        for _ in range(40):
            for r in blocks:
                got[k].append(ex.density(r))
            got[k].append(fields[k].area_density(blocks[0], grids[k]))

    threads = [threading.Thread(target=run, args=(k,)) for k in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    for k in range(2):
        want = serial[k] + serial[k][:1]
        assert len(got[k]) == 40 * len(want)
        for i, a in enumerate(got[k]):
            assert np.array_equal(a, want[i % len(want)]), (k, i)


def test_area_density_interleaved_evaluations_reproduce_every_first_evaluation():
    # interleaving two fields of the same charges and two phi grids of the
    # same size must reproduce every first evaluation exactly: no
    # evaluation leaves state behind that changes the next one
    state = make_state((-4, -3, 4), np.ones(3))
    fields = [canonical_field(state, "124"), canonical_field(state, "125")]
    base = GridSpec(n_phi=64).phi_nodes()
    grids = [base, base + 0.1]
    r = np.linspace(0.05, 4.0, 7)
    combos = [(f, p) for f in range(2) for p in range(2)]
    # each reference comes from its own copy of the field and of the phi grid
    fresh = {c: replace(fields[c[0]]).area_density(r, grids[c[1]].copy())
             for c in combos}
    for _ in range(2):
        for c in combos[::3] + combos[1::3] + combos[2::3]:
            got = fields[c[0]].area_density(r, grids[c[1]])
            assert np.array_equal(got, fresh[c]), c


def test_area_density_of_a_vanishing_component_is_zero():
    # an empty component (separable state) and a third that cancels exactly
    r = np.linspace(0.01, 5.0, 11)
    phi = GridSpec(n_phi=128).phi_nodes()
    separable = canonical_field(make_state((-1, 0, 1), [1.0, 0.0, 0.0]), "123")
    assert len(separable.terms[0].js) == 0
    cancelled = canonical_field(make_state((2, -2, 0), np.ones(3)), "453")
    for field in (separable, cancelled):
        dens = field.area_density(r, phi)
        assert dens.shape == (r.size, phi.size)
        assert not np.any(dens)


def test_origin_fix_makes_third_single_signed():
    state = make_state((-1, 0, 1), np.ones(3))
    field = canonical_field(state, "124")
    assert field.sigma != 0.0
    phi = np.linspace(0.0, 2 * np.pi, 64, endpoint=False)
    m, _, _ = field.evaluate(np.array([0.7]), phi, fix=True)
    third = m[2, 0, :]
    assert np.all(third <= 1e-12) or np.all(third >= -1e-12)


def test_triple_spec_validation():
    import pytest
    with pytest.raises(ValueError):
        TripleSpec((1, 1, 2))
    with pytest.raises(ValueError):
        TripleSpec((0, 1, 2))
    assert TripleSpec((3, 1, 2)).indices == (1, 2, 3)
    assert TripleSpec((1, 2, 3)).label == "1-2-3"


def test_arrangement_keeps_orientation():
    # (1,2,3) arranges to identity; a pair found in another slot rotates evenly
    assert map_layout(3, (1, 2, 3))[0] == (0, 1, 2)
    perm = map_layout(3, (3, 4, 5))[0]
    parity = (perm[1] - perm[0]) * (perm[2] - perm[1]) * (perm[2] - perm[0])
    assert parity > 0


def test_classify_map_kinds():
    state = make_state((-1, 0, 1), np.ones(3))
    grid = GridSpec()
    assert classify_map(canonical_field(state, "123"), grid).kind == "sphere"
    assert classify_map(canonical_field(state, "124"), grid).kind == "disk"
    separable = make_state((-1, 0, 1), [1.0, 0.0, 0.0])
    assert classify_map(canonical_field(separable, "123"), grid).kind == "degenerate"


def test_classify_map_probes_all_rings_in_one_call(monkeypatch):
    state = make_state((-1, 0, 1), np.ones(3))
    calls = []
    inner = UnitField.unit

    def counting(self, r, phi, fix=True):
        calls.append(np.asarray(r).size)
        return inner(self, r, phi, fix)

    monkeypatch.setattr(UnitField, "unit", counting)
    assert classify_map(canonical_field(state, "123"), GridSpec()).kind == "sphere"
    assert calls == [5]


def test_shared_tables_are_read_only_and_bounded():
    # radial rules and exponent rows are shared across maps, so no caller
    # may write into them, and neither memo grows without bound
    r, w = GridSpec(n_r=64).radial_rule(1)
    assert r is GridSpec(n_r=128).radial_rule(0)[0]
    assert _simpson_rule.cache_info().maxsize == RULE_CACHE
    term = canonical_field(make_state((-1, 0, 1), np.ones(3)), "124").terms[0]
    phi = GridSpec(n_phi=32).phi_nodes()
    p, dp = term.grid_rows(phi)
    assert term.grid_rows(phi.copy())[0] is p
    for table in (r, w, p, dp):
        with pytest.raises(ValueError, match="read-only"):
            table[0] = 0.0
    for n_phi in range(33, 33 + 2 * ROW_GRIDS):
        term.grid_rows(GridSpec(n_phi=n_phi).phi_nodes())
        assert len(term._kept) <= ROW_GRIDS
    assert np.array_equal(term.grid_rows(phi)[0], p)


def test_shared_tables_in_four_threads_match_serial():
    # four threads (more than cores) share one source and its term fields,
    # cycling through more phi grids than a field keeps, with a short
    # switch interval: every row table and density must equal the serial one
    state = make_state((-3, 1, 4), [1.0, 2.0, 3.0])
    grids = [GridSpec(n_phi=n).phi_nodes() for n in range(40, 40 + ROW_GRIDS + 2)]
    want_rows = [term_field(state, build_basis(3)[3].matrix).rows(phi)
                 for phi in grids]
    r = np.linspace(0.1, 3.0, 5)
    want_dens = [canonical_field(state, "453").area_density(r, phi)
                 for phi in grids]
    shared = SharedSource(state)
    bad, sizes = [], []
    start = threading.Barrier(4)

    def run(k):
        start.wait()
        for i in range(60):
            j = (i + k) % len(grids)
            term = shared.term(4, build_basis(3)[3].matrix)
            p, dp = term.grid_rows(grids[j])
            sizes.append(len(term._kept))
            dens = canonical_field(shared, "453").area_density(r, grids[j])
            if not (np.array_equal(p, want_rows[j][0])
                    and np.array_equal(dp, want_rows[j][1])
                    and np.array_equal(dens, want_dens[j])):
                bad.append((k, i))

    threads = [threading.Thread(target=run, args=(k,)) for k in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not bad and len(sizes) == 240
    assert max(sizes) <= ROW_GRIDS
    assert len(shared.terms) == 3


def test_shared_source_fields_classify_like_fresh_ones():
    # classify_map's ring variances read the shared rows of the probe grid
    state = inject_subspace(make_state((-3, 1, 4), np.ones(3)),
                            sample_perturbation(3, np.random.default_rng(0)))
    shared = SharedSource(state)
    grid = GridSpec()
    for label in ("123", "45*", "453", "674"):
        assert (classify_map(canonical_field(shared, label), grid)
                == classify_map(canonical_field(state, label), grid)), label
    for k in range(1, 7):
        spec = TripleSpec((k, k + 1, 8))
        assert (classify_map(triple_field(shared, spec), grid)
                == classify_map(triple_field(state, spec), grid)), spec.label
    assert shared.terms[4] is canonical_field(shared, "457").terms[0]


def test_radial_rule_integrates_known_integral():
    g = GridSpec(r_max=8.0, n_r=512, n_phi=64)
    r, w = g.radial_rule()
    # integral of r^3 exp(-r^2) over the half line is 1/2
    assert_allclose(w @ (r**3 * np.exp(-r * r)), 0.5, atol=1e-6)


def test_grid_resolve_defaults():
    g = GridSpec().resolve((-3, 0, 3))
    assert g.r_max is not None and g.r_max > np.sqrt(3.0)
    assert g.n_phi == 64 * 6


@pytest.mark.parametrize("n_r", [1, 3, 255])
def test_grid_resolve_rejects_an_odd_n_r(n_r):
    # Simpson weights of an odd panel count miss a constant by up to a third
    with pytest.raises(ValueError, match=f"even n_r, got {n_r}"):
        GridSpec(n_r=n_r).resolve((-1, 0, 1))
    assert GridSpec(n_r=n_r + 1).resolve((-1, 0, 1)).n_r == n_r + 1


@pytest.mark.parametrize("r_max", [np.nan, np.inf, 0.0, -5.0, 8 * R_MIN])
def test_grid_resolve_rejects_an_r_max_inside_the_inner_rings(r_max):
    # the classifier's r_max / 4 ring must lie outside the 2 R_MIN ring
    with pytest.raises(ValueError, match="r_max must be finite and above"):
        GridSpec(r_max=r_max).resolve((-1, 0, 1))
    assert GridSpec(r_max=9 * R_MIN).resolve((-1, 0, 1)).r_max == 9 * R_MIN
