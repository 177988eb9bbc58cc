"""Wrapping-number evaluation, gluing, classification, and charge identity."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from topospec.fields import (BLOCK_POINTS, GridSpec, MapClass, TripleSpec,
                             UnitField, triple_field)
from topospec.invariants import (CANONICAL_LABELS, AnalyticWrap, _exponent_rule,
                                 _row_sums, _wrap_from_limits, accidental_predict,
                                 canonical_field, canonical_label, glue,
                                 lissajous_winding, monopole_charge_area,
                                 monopole_charge_planar, singularity_class,
                                 singularity_class_label,
                                 wrapping_analytic_d3,
                                 wrapping_analytic_triple,
                                 wrapping_analytic_usual, wrapping_numeric)
from topospec.states import make_state
from topospec.tomography import DensityCoeffs

st_l3 = st.lists(st.integers(-4, 4), min_size=3, max_size=3, unique=True)

# mode pairs of the starred canonical labels
STARRED_PAIRS = {"45*": (0, 2), "67*": (1, 2)}

# closed-form values of every canonical map at mode charges (-1, 0, 1)
FROZEN_M101 = {
    "123": -1.0, "45*": 0.0, "67*": 1.0,
    "124": -1.0, "125": -1.0, "126": 0.0, "127": 0.0, "128": 1.0,
    "451": -2.0, "452": -2.0, "453": -2.0 - 2.0 / np.sqrt(5.0),
    "456": -2.0, "457": -2.0,
    "671": 0.0, "672": 0.0, "673": -1.0, "674": -1.0, "675": -1.0,
}


def test_frozen_canonical_values():
    for label, expected in FROZEN_M101.items():
        got = wrapping_analytic_d3(label, (-1, 0, 1)).glued
        assert_allclose(got, expected, atol=1e-12, err_msg=label)


def test_canonical_label_aliases():
    assert canonical_label("45s") == "45*"
    assert canonical_label("678") == "67*"
    with pytest.raises(ValueError):
        canonical_label("999")


def test_glue_doubles_disks_only():
    disk = MapClass("disk", 0, 0, True, False)
    sphere = MapClass("sphere", 0, 0, True, True)
    assert glue(0.5, disk) == 1.0
    assert glue(0.5, sphere) == 0.5


def test_wrap_from_limits():
    assert _wrap_from_limits(2, -1.0, 1.0).glued == 2.0
    assert _wrap_from_limits(2, -1.0, 1.0).kind == "sphere"
    disk = _wrap_from_limits(2, 0.0, 1.0)
    assert disk.kind == "disk" and disk.glued == 2.0 * disk.raw
    with pytest.raises(ValueError):
        _wrap_from_limits(1, 0.0, 0.5)


def test_exponent_rule_ends_and_singular_flag():
    # (singular, degenerate, e0, einf) against the pair exponent 2
    assert _exponent_rule(2, [(0, -3.0), (4, 0.5)]) == (False, False, -1.0, 1.0)
    assert _exponent_rule(2, [(3, -1.0)]) == (True, False, 0.0, -1.0)
    assert _exponent_rule(2, [(1, 1.0)]) == (False, False, 1.0, 0.0)
    _, degenerate, e0, einf = _exponent_rule(2, [(0, -1.0), (2, 1.0)])
    assert not degenerate and e0 == -1.0 and einf == 1.0 / np.sqrt(5.0)
    assert _exponent_rule(2, [(2, 1.0)])[:2] == (False, True)
    assert _exponent_rule(2, [])[:2] == (False, True)


def test_qubit_ladder_analytic():
    # sign follows the mode whose ring shrinks first
    assert wrapping_analytic_usual((2, 1), (0, 1)).glued == 1.0
    assert wrapping_analytic_usual((1, 2), (0, 1)).glued == 1.0
    assert wrapping_analytic_usual((-3, 1), (0, 1)).glued == -4.0
    assert wrapping_analytic_usual((1, -1), (0, 1)).kind == "degenerate"


def test_numeric_matches_analytic_qutrit_exemplar():
    state = make_state((-1, 0, 1), np.ones(3))
    for label in ("123", "451", "124"):
        field = canonical_field(state, label)
        res = wrapping_numeric(field, GridSpec(n_r=256))
        assert res.converged
        assert_allclose(res.glued, FROZEN_M101[label], atol=0.05)


def test_singular_map_raw_is_half_integer():
    state = make_state((-1, 0, 1), np.ones(3))
    res = wrapping_numeric(canonical_field(state, "124"), GridSpec(n_r=256))
    assert res.singular
    assert res.map_class.kind == "disk"
    assert_allclose(res.raw, -0.5, atol=0.03)
    assert_allclose(res.glued, -1.0, atol=0.05)


def test_singular_regrid_keeps_tail_eps():
    # the 4x azimuthal regrid of singular maps must keep the radial cutoff
    state = make_state((-1, 0, 1), np.ones(3))
    field = canonical_field(state, "124")
    grid = GridSpec(n_r=64, tail_eps=1e-4)
    n_phi = grid.resolve(field.l).n_phi
    auto = wrapping_numeric(field, grid, singular=True)
    explicit = wrapping_numeric(field, GridSpec(n_r=64, n_phi=4 * n_phi,
                                                tail_eps=1e-4), singular=False)
    assert auto.raw == explicit.raw


def test_exact_cancellation_maps_stay_zero():
    # the lambda-3 third cancels exactly on these maps; reordering the term
    # accumulation breaks the cancellation and the convergence with it
    l = (2, -2, 0)
    state = make_state(l, np.ones(3))
    for label in ("453", "673"):
        res = wrapping_numeric(canonical_field(state, label), GridSpec(n_r=512),
                               singular=singularity_class_label(label, l))
        assert res.glued == 0.0, label
        assert res.converged, label


def test_nested_radial_rule_evaluates_each_node_once(monkeypatch):
    state = make_state((-1, 0, 1), np.ones(3))
    field = canonical_field(state, "124")
    grid = GridSpec(n_r=64)
    g = grid.resolve(field.l)
    phi = GridSpec(n_phi=4 * g.n_phi).phi_nodes()   # singular: 4x azimuth

    def direct(level):
        r, w = g.radial_rule(level)
        dens = field.area_density(r, phi).sum(axis=1)
        return float(w @ dens) * (2.0 * np.pi / phi.size) / (4.0 * np.pi)

    nodes = []
    inner = UnitField.area_density

    def counting(self, r, phi, fix=True):
        nodes.append(np.asarray(r).size)
        return inner(self, r, phi, fix)

    monkeypatch.setattr(UnitField, "area_density", counting)
    res = wrapping_numeric(field, grid)
    assert res.singular and res.converged and res.n_r_used == 2 * g.n_r
    assert sum(nodes) == 2 * g.n_r + 1
    assert abs(res.raw - direct(1)) <= 1e-12
    assert abs(res.quadrature_error - abs(direct(1) - direct(0))) <= 1e-12
    assert abs(wrapping_numeric(field, grid, max_doublings=0).raw - direct(0)) <= 1e-12


@pytest.mark.parametrize("n_r, n_phi", [(300, 512), (5, BLOCK_POINTS + 3)])
def test_row_sums_equal_one_shot_density(n_r, n_phi):
    # 301 rows at 128 rows per block; one row per block above BLOCK_POINTS
    field = canonical_field(make_state((-4, -3, 4), np.ones(3)), "124")
    r, _ = GridSpec(n_r=n_r).radial_rule(0)
    phi = GridSpec(n_phi=n_phi).phi_nodes()
    assert np.array_equal(_row_sums(field, r, phi),
                          field.area_density(r, phi).sum(axis=1))


def _source(kind, l, rng):
    if kind == "clean":
        return make_state(l, np.ones(3))
    if kind == "complex":
        return make_state(l, rng.normal(size=3) + 1j * rng.normal(size=3))
    a = rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9))
    rho = a @ a.conj().T
    return DensityCoeffs(tuple(l), rho / np.trace(rho).real)


@given(st_l3, st.sampled_from(CANONICAL_LABELS),
       st.sampled_from(["clean", "complex", "mixed"]), st.integers(0, 2 ** 16))
@settings(max_examples=60, deadline=None)
def test_level0_integral_matches_unit_triple_product(l, label, kind, seed):
    # the separable density against the normalized map's triple product
    field = canonical_field(_source(kind, l, np.random.default_rng(seed)), label)
    g = GridSpec(n_r=16).resolve(field.l)
    r, w = g.radial_rule(0)
    phi = g.phi_nodes()
    s, sr, sp = field.unit(r, phi)
    reference = np.sum(s * np.cross(sr, sp, axis=0), axis=0).sum(axis=1)
    scale = (2.0 * np.pi / phi.size) / (4.0 * np.pi)
    assert abs(w @ _row_sums(field, r, phi) - w @ reference) * scale <= 1e-9


def test_row_sums_of_mixed_source_equal_one_shot_density():
    # many-term tables of a mixed density, one row per block
    l = (-3, 1, 4)
    field = canonical_field(_source("mixed", l, np.random.default_rng(7)), "451")
    r, _ = GridSpec(n_r=4).radial_rule(0)
    phi = GridSpec(n_phi=BLOCK_POINTS // 2 + 1).phi_nodes()
    assert np.array_equal(_row_sums(field, r, phi),
                          field.area_density(r, phi).sum(axis=1))


def test_warm_singular_integral_allocates_little():
    field = canonical_field(make_state((-4, -3, 4), np.ones(3)), "124")
    grid = GridSpec(n_r=512)
    wrapping_numeric(field, grid)
    tracemalloc.start()
    try:
        res = wrapping_numeric(field, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.singular and res.converged
    assert peak < 16 * 2 ** 20


@given(st_l3, st.sampled_from(CANONICAL_LABELS))
@settings(max_examples=60, deadline=None)
def test_singularity_catalog_matches_field_content(l, label):
    state = make_state(l, np.ones(3))
    field = canonical_field(state, label)
    assert singularity_class(field) == singularity_class_label(label, l)


@given(st_l3)
@settings(max_examples=30, deadline=None)
def test_pure_index_triples_agree_with_labels(l):
    # plain canonical labels are index triples; a starred one is the usual
    # map of its pair
    for label in CANONICAL_LABELS:
        want = wrapping_analytic_d3(label, l)
        if label[2] == "*":
            got = wrapping_analytic_usual(l, STARRED_PAIRS[label])
        else:
            got = wrapping_analytic_triple(l, tuple(int(ch) for ch in label))
        assert got == want, label


def test_index_triple_beyond_the_basis_is_rejected():
    with pytest.raises(ValueError, match="basis index 20 out of range 1..8"):
        wrapping_analytic_triple((-1, 0, 1), (1, 2, 20), 3)
    with pytest.raises(ValueError, match="basis index 0 out of range 1..8"):
        wrapping_analytic_triple((-1, 0, 1), (0, 1, 2), 3)


def _sampled_winding(a, b, n=20000):
    """Winding of phi -> (cos(a phi), sin(b phi)) by angle unwrapping, and
    the curve's least distance from the origin."""
    phi = np.linspace(0.0, 2.0 * np.pi, n + 1)
    x, y = np.cos(a * phi), np.sin(b * phi)
    ang = np.unwrap(np.arctan2(y, x))
    return (ang[-1] - ang[0]) / (2.0 * np.pi), float(np.min(np.hypot(x, y)))


def test_lissajous_winding_basics():
    assert lissajous_winding(1, 1) == 1
    assert lissajous_winding(3, 3) == 3
    assert lissajous_winding(1, -1) == -1
    assert lissajous_winding(2, 0) == 0


def test_lissajous_winding_is_exact_and_zero_through_the_origin():
    for a in range(8):
        for b in range(-8, 9):
            wind, gap = _sampled_winding(a, b)
            if gap < 1e-6:
                # the curve runs through the origin: no winding number
                assert lissajous_winding(a, b) == 0, (a, b)
            else:
                assert gap > 1e-2 and lissajous_winding(a, b) == round(wind), (a, b)
                assert abs(wind - round(wind)) < 1e-6


def test_accidental_prediction_skips_curves_through_the_origin():
    # the Lissajous curve (cos 5 phi, sin -6 phi) meets the origin at
    # phi = pi / 2; the converged numeric wrapping of this map is 0
    assert accidental_predict((-4, -3, 2), (5, 6, 8)) is None
    assert wrapping_analytic_triple((-4, -3, 2), (5, 6, 8)) is None


def test_accidental_prediction_exists_only_under_degeneracy():
    assert accidental_predict((1, 2, 2), (1, 3, 5)) == -1.0
    assert accidental_predict((1, 2, 3), (1, 3, 5)) is None


def test_accidental_numeric_agreement():
    state = make_state((1, 2, 2), np.ones(3))
    field = triple_field(state, TripleSpec((1, 3, 5)))
    res = wrapping_numeric(field, GridSpec(n_r=256))
    assert res.converged
    assert_allclose(res.glued, -1.0, atol=0.05)


def _random_unit_field(rng, n=48):
    x = np.linspace(-1.5, 1.5, n)
    y = np.linspace(-1.5, 1.5, n)
    xx, yy = np.meshgrid(x, y, indexing="ij")
    field = np.empty((3, n, n))
    for k in range(3):
        field[k] = (rng.normal() * np.sin(2 * xx + rng.normal())
                    + rng.normal() * np.cos(yy + rng.normal())
                    + rng.normal() * xx * yy)
    field /= np.sqrt(np.sum(field * field, axis=0))
    dx = x[1] - x[0]
    return field, dx, dx


def test_monopole_forms_agree():
    rng = np.random.default_rng(5)
    for _ in range(3):
        field, dx, dy = _random_unit_field(rng)
        planar = monopole_charge_planar(field, dx, dy)
        area = monopole_charge_area(field, dx, dy)
        assert_allclose(area, planar, atol=1e-12)


def test_monopole_hedgehog_charge():
    n = 160
    span = np.linspace(-8.0, 8.0, n)
    xx, yy = np.meshgrid(span, span, indexing="ij")
    rr = np.sqrt(xx * xx + yy * yy)
    # stereographic hedgehog: one full cover of the sphere
    denom = 1.0 + rr * rr
    field = np.stack([2 * xx / denom, 2 * yy / denom, (1 - rr * rr) / denom])
    dx = span[1] - span[0]
    assert_allclose(monopole_charge_planar(field, dx, dx), 1.0, atol=0.02)


def test_monopole_rejects_bad_shape():
    with pytest.raises(ValueError):
        monopole_charge_planar(np.zeros((2, 4, 4)), 0.1, 0.1)
