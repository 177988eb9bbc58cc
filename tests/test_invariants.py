"""Wrapping-number evaluation, gluing, classification, and charge identity."""

import math
import re
import tracemalloc
from itertools import combinations, permutations, product

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from numpy.testing import assert_allclose

from topospec import invariants
from topospec.fields import (BLOCK_POINTS, R_MIN, GridSpec, MapClass,
                             TripleSpec, UnitField, _Expansion, classify_map,
                             map_layout, triple_field)
from topospec.invariants import (CANONICAL_LABELS,
                                 AnalyticWrap,
                                 _closed_forms, _end_analysis,
                                 _wrap_from_limits, accidental_predict,
                                 canonical_field, canonical_label, glue,
                                 lissajous_winding, monopole_charge_area,
                                 monopole_charge_planar, singularity_class,
                                 singularity_class_label,
                                 wrapping_analytic_d3,
                                 wrapping_analytic_triple,
                                 wrapping_analytic_usual, wrapping_numeric)
from topospec.spectrum import evaluate_map
from topospec.states import make_state

import sources

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
    assert canonical_label("67s") == "67*"
    # a plain label spells its index triple: 4-5-8 and 6-7-8 are not the
    # starred maps, so 458 and 678 name no canonical map
    for label in ("458", "678", "999"):
        with pytest.raises(ValueError, match="unknown canonical label"):
            canonical_label(label)


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


def test_end_analysis_ends_and_singular_flag():
    # (singular, degenerate, e0, einf) against the pair on modes (0, 1), of
    # exponent 2; third-axis terms (m, n, weight) grow like r^(|l_m| + |l_n|)
    l, pair = (1, -1, 0, 2), (0, 1)
    # exponents 0 and 4
    assert _end_analysis(l, pair, [(2, 2, -3.0), (3, 3, 0.5)]) == \
        (False, False, -1.0, 1.0)
    # one root-type term of exponent 3
    assert _end_analysis(l, pair, [(1, 3, -1.0)]) == (True, False, 0.0, -1.0)
    # exponent 1
    assert _end_analysis(l, pair, [(0, 2, 1.0)]) == (False, False, 1.0, 0.0)
    # exponents 0 and 2: a tie with the pair as r -> infinity
    _, degenerate, e0, einf = _end_analysis(l, pair, [(2, 2, -1.0), (0, 0, 1.0)])
    assert not degenerate and e0 == -1.0 and einf == 1.0 / np.sqrt(5.0)
    # exponent 2 alone
    assert _end_analysis(l, pair, [(0, 0, 1.0)])[:2] == (False, True)
    # two exponent-2 terms cancelling to no live term
    assert _end_analysis(l, pair, [(0, 0, 1.0), (1, 1, -1.0)])[:2] == (False, True)


def _assert_closed_forms_equal(charges, pair, third, per_map):
    """_closed_forms over charges equals per_map at each row, sign of zero
    included."""
    wraps = [per_map(l) for l in charges.tolist()]
    for got, want in zip(_closed_forms(charges, pair, third),
                         ([w.raw for w in wraps], [w.glued for w in wraps])):
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))


def test_closed_forms_over_a_box_equal_the_per_map_closed_forms():
    # repeated charges included: a pair on two equal charges is degenerate
    charges = np.array(list(product(range(-10, 11), repeat=3)))
    for label in CANONICAL_LABELS:
        _, pair, _, third = map_layout(3, TripleSpec.parse(label).indices)
        _assert_closed_forms_equal(charges, pair, third,
                                   lambda l: wrapping_analytic_d3(label, l))
    charges = np.array(list(permutations(range(-3, 4), 4)))
    layouts = [(idx, map_layout(4, idx)) for idx in combinations(range(1, 16), 3)]
    triples = [(idx, pair, third) for idx, (_, pair, _, third) in layouts
               if pair is not None]
    assert len(triples) == 78
    for idx, pair, third in triples:
        _assert_closed_forms_equal(charges, pair, third,
                                   lambda l: wrapping_analytic_triple(l, idx))


def test_closed_forms_past_an_int64_key_space_raise():
    # a 7-term third at offsets up to 600: the row keys (2 * 600 + 1)^7
    # outgrow an int64, so the box has no int keys and is refused
    idx = (1, 2, 48)
    _, pair, _, third = map_layout(7, idx)
    assert len(third) == 7
    rng = np.random.default_rng(0)
    big = np.array([rng.permutation([300, -300, 1, 2, 3, 4, 5])
                    for _ in range(40)])
    charges = np.concatenate([big, big[:5], [[300, -300, 1, 2, 3, 4, 5]],
                              list(permutations(range(-3, 4)))[:50]])
    with pytest.raises(ValueError):
        _closed_forms(charges, pair, third)


def test_closed_forms_over_d5_boxes_equal_the_per_map_closed_forms():
    # thirds of up to 5 terms, so rows of up to 5 exponent offsets
    layouts = [(idx, map_layout(5, idx)) for idx in combinations(range(1, 25), 3)]
    triples = [(idx, pair, third) for idx, (_, pair, _, third) in layouts
               if pair is not None]
    assert len(triples) == 220
    assert max(len(third) for _, _, third in triples) == 5
    for charges in (np.array(list(permutations(range(-2, 3), 5))),
                    np.array(list(product(range(-1, 2), repeat=5)))):
        for idx, pair, third in triples:
            _assert_closed_forms_equal(
                charges, pair, third,
                lambda l: wrapping_analytic_triple(l, idx))


def test_qubit_ladder_analytic():
    # sign follows the mode whose ring shrinks first
    assert wrapping_analytic_usual((2, 1), (0, 1)).glued == 1.0
    assert wrapping_analytic_usual((1, 2), (0, 1)).glued == 1.0
    assert wrapping_analytic_usual((-3, 1), (0, 1)).glued == -4.0
    assert wrapping_analytic_usual((1, -1), (0, 1)).kind == "degenerate"


def test_a_canonical_label_must_spell_its_indices():
    # 45* over 67*'s indices once returned 67*'s value under the label 45*
    state = make_state((-1, 0, 1), np.ones(3))
    with pytest.raises(ValueError, match=re.escape(
            "canonical label '45*' does not spell the indices (0, 6, 7)")):
        evaluate_map(state, TripleSpec((0, 6, 7), canonical="45*"))
    with pytest.raises(ValueError, match=re.escape(
            "canonical label '45*' does not spell the indices (1, 2, 3)")):
        TripleSpec((1, 2, 3), canonical="45*")
    for alias, label in {"45s": "45*", "67s": "67*"}.items():
        assert TripleSpec.parse(alias).label == label
        canonical_field(state, alias)


@pytest.mark.parametrize("modes", [(0, 5), (1, 1), (-1, 0), (2, 0)])
def test_usual_map_rejects_modes_that_are_not_a_pair_of_l(modes):
    message = re.escape(f"modes {modes} are not two distinct indices")
    with pytest.raises(ValueError, match=message):
        wrapping_analytic_usual((1, 2), modes)


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


def test_singular_regrid_matches_an_explicit_grid():
    # the 4x azimuthal regrid of singular maps must change n_phi alone
    state = make_state((-1, 0, 1), np.ones(3))
    field = canonical_field(state, "124")
    grid = GridSpec(n_r=64)
    n_phi = grid.resolve(field.l).n_phi
    auto = wrapping_numeric(field, grid)
    assert auto.singular
    explicit, _ = invariants._radial_ladder(
        field, GridSpec(n_r=64, n_phi=4 * n_phi), field.mirror_parity(), 2)
    assert auto.raw == explicit[-1]


def test_numeric_route_needs_an_n_r():
    field = canonical_field(make_state((-1, 0, 1), np.ones(3)), "123")
    with pytest.raises(ValueError, match="grid needs an n_r"):
        wrapping_numeric(field, GridSpec())


def test_exact_cancellation_maps_stay_zero():
    # the lambda-3 third cancels exactly on these maps; reordering the term
    # accumulation breaks the cancellation and the convergence with it
    l = (2, -2, 0)
    state = make_state(l, np.ones(3))
    for label in ("453", "673"):
        res = wrapping_numeric(canonical_field(state, label), GridSpec(n_r=512))
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
        dens = field.expansion(phi).density(r).sum(axis=1)
        return float(w @ dens) * (2.0 * np.pi / phi.size) / (4.0 * np.pi)

    nodes = []
    inner = _Expansion.density

    def counting(self, r):
        nodes.append(np.asarray(r).size)
        return inner(self, r)

    monkeypatch.setattr(_Expansion, "density", counting)
    res = wrapping_numeric(field, grid)
    assert res.singular and res.converged and res.n_r_used == 2 * g.n_r
    assert sum(nodes) == 2 * g.n_r + 1
    assert abs(res.raw - direct(1)) <= 1e-12
    assert abs(res.quadrature_error - abs(direct(1) - direct(0))) <= 1e-12
    assert abs(wrapping_numeric(field, grid, max_doublings=0).raw - direct(0)) <= 1e-12


def test_density_expansion_is_built_once_per_map(monkeypatch):
    calls = []
    inner = UnitField.expansion

    def counting(self, phi, *args):
        calls.append(np.asarray(phi).size)
        return inner(self, phi, *args)

    monkeypatch.setattr(UnitField, "expansion", counting)
    # map 451 of (-1, 0, 1) on 16 panels doubles twice
    field = canonical_field(make_state((-1, 0, 1), np.ones(3)), "451")
    res = wrapping_numeric(field, GridSpec(n_r=16))
    assert res.n_r_used == 4 * 16
    assert len(calls) == 1


def _full_turn(field, g, n_r_used, n_phi):
    """The wrapping integral on n_r_used panels, summed over every midpoint."""
    r, w = g.radial_rule(int(np.log2(n_r_used // g.n_r)))
    dens = field.expansion(GridSpec(n_phi=n_phi).phi_nodes()).density(r).sum(axis=1)
    return float(w @ dens) * (2.0 * np.pi / n_phi) / (4.0 * np.pi)


@pytest.mark.parametrize("n_phi", [96, 95, 100, 99])
@pytest.mark.parametrize("make_field, period", [
    (lambda: canonical_field(make_state((-1, 0, 1), np.ones(3)), "451"), 1),
    (lambda: canonical_field(sources.source(
        "perturbed", (-3, 1, 4), np.random.default_rng(0)), "124"), 1),
    (lambda: triple_field(sources.source(
        "perturbed", (-2, -1, 1, 0), np.random.default_rng(0)),
        TripleSpec((1, 2, 4))), 1),
    (lambda: canonical_field(make_state((-3, 1, 4), np.ones(3)), "451"), 4),
    (lambda: canonical_field(make_state((-5, 4, 5), np.ones(3)), "451"), 9),
    (lambda: canonical_field(make_state((-1, 0, 1), np.ones(3)), "453"), 0),
], ids=["clean-451", "perturbed-124", "perturbed-d4-1-2-4", "clean-451-k4",
        "clean-451-k9", "clean-453-k0"])
def test_even_map_on_half_a_turn_matches_the_full_turn(monkeypatch, make_field,
                                                       period, n_phi):
    # an even density is summed over the first half turn at twice the
    # weight; at an odd n_phi the full turn is kept.  Of those n nodes the
    # first n / gcd(k, n) are summed, k the azimuthal period: 100 and 96
    # give n = 50 and 48, which k = 4 and 9 do not divide, and k = 0 (a
    # density constant in phi) takes one node
    field = make_field()
    assert field.mirror_parity() == 1 and not singularity_class(field)
    assert field.azimuthal_period() == period
    sizes = []
    inner = UnitField.expansion

    def counting(self, phi, *args):
        sizes.append((np.asarray(phi).size, *args))
        return inner(self, phi, *args)

    monkeypatch.setattr(UnitField, "expansion", counting)
    grid = GridSpec(n_r=64, n_phi=n_phi)
    res = wrapping_numeric(field, grid)
    n = n_phi // 2 if n_phi % 2 == 0 else n_phi
    assert sizes == [(n, n // math.gcd(period, n))]
    direct = _full_turn(field, grid.resolve(field.l), res.n_r_used, n_phi)
    assert abs(res.raw - direct) <= 1e-12


@pytest.mark.parametrize("source", [
    make_state((-2, -1, 1, 0), np.ones(4)),
    sources.source("perturbed", (-2, -1, 1, 0), np.random.default_rng(0))],
    ids=["clean", "perturbed"])
def test_odd_map_is_exactly_zero_with_no_quadrature(monkeypatch, source):
    field = triple_field(source, TripleSpec((1, 3, 5)))
    assert field.mirror_parity() == -1
    grid = GridSpec(n_r=64)
    g = grid.resolve(field.l)
    # the full-turn sum it stands for cancels to rounding
    assert abs(_full_turn(field, g, g.n_r, g.n_phi)) <= 1e-12
    calls = []
    monkeypatch.setattr(_Expansion, "density", lambda self, r: calls.append(r))
    res = wrapping_numeric(field, grid)
    assert calls == []
    assert res.raw == 0.0 and res.glued == 0.0 and res.quadrature_error == 0.0
    assert res.converged and res.n_r_used == grid.n_r
    # the classifier still runs, so the map class stays what it was
    assert res.map_class == classify_map(field, grid)


@pytest.mark.parametrize("max_doublings", [2, 0])
def test_empty_determinant_reads_zero_with_no_block(monkeypatch, max_doublings):
    # map 126 of (-1, 0, 1) is even but has no live determinant row, so
    # every rung of the radial ladder would read exactly 0
    field = canonical_field(make_state((-1, 0, 1), np.ones(3)), "126")
    grid = GridSpec(n_r=64)
    g = grid.resolve(field.l)
    assert field.mirror_parity() == 1
    assert field.expansion(g.phi_nodes()).det_exps.size == 0
    assert not np.any(field.expansion(g.phi_nodes()).density(g.radial_rule(0)[0]))
    calls = []
    monkeypatch.setattr(_Expansion, "density", lambda self, r: calls.append(r))
    res = wrapping_numeric(field, grid, max_doublings=max_doublings)
    assert calls == []
    assert res.raw == 0.0 and np.copysign(1.0, res.raw) == 1.0
    if max_doublings:
        assert res.quadrature_error == 0.0 and res.converged
        assert res.n_r_used == 2 * grid.n_r
    else:
        assert res.quadrature_error == np.inf and not res.converged
        assert res.n_r_used == grid.n_r
    assert res.map_class == classify_map(field, grid)


@pytest.mark.parametrize("n_r, n_phi", [(300, 512), (6, BLOCK_POINTS + 3)])
def test_row_sums_equal_one_shot_density(n_r, n_phi):
    # 301 rows at 128 rows per block; one row per block above BLOCK_POINTS
    field = canonical_field(make_state((-4, -3, 4), np.ones(3)), "124")
    r, _ = GridSpec(n_r=n_r).radial_rule(0)
    phi = GridSpec(n_phi=n_phi).phi_nodes()
    assert np.array_equal(field.expansion(phi).row_sums(r),
                          field.expansion(phi).density(r).sum(axis=1))


@given(st_l3, st.sampled_from(CANONICAL_LABELS),
       st.sampled_from(["clean", "complex", "mixed"]), st.integers(0, 2 ** 16))
@settings(max_examples=60, deadline=None)
# a midpoint next to a zero of the third axis at the tail node r = 1e6
@example(l=[-1, -2, 3], label="124", kind="complex", seed=1464)
def test_level0_integral_matches_unit_triple_product(l, label, kind, seed):
    # the separable density against the normalized map's triple product
    field = canonical_field(sources.source(kind, l, np.random.default_rng(seed)),
                            label)
    g = GridSpec(n_r=16).resolve(field.l)
    r, w = g.radial_rule(0)
    phi = g.phi_nodes()
    s, sr, sp = field.unit(r, phi)
    reference = np.sum(s * np.cross(sr, sp, axis=0), axis=0).sum(axis=1)
    scale = (2.0 * np.pi / phi.size) / (4.0 * np.pi)
    assert abs(w @ field.expansion(phi).row_sums(r) - w @ reference) * scale <= 1e-9


@given(st_l3, st.sampled_from(CANONICAL_LABELS),
       st.sampled_from(["clean", "complex", "mixed"]), st.integers(0, 2 ** 16))
@settings(max_examples=30, deadline=None)
def test_unit_field_stacks_its_reference_components(l, label, kind, seed):
    # the production stacks against TermField.evaluate, the reference that
    # test_term_field_matches_direct_expectation ties to QuditState.fields
    field = canonical_field(sources.source(kind, l, np.random.default_rng(seed)),
                            label)
    r = np.array([1e-3, 0.4, 1.0, 2.5, 9.0])
    phi = GridSpec(n_phi=24).phi_nodes()
    got = field.evaluate(r, phi, fix=False)
    for k, term in enumerate(field.terms):
        for g, want in zip(got, term.evaluate(r, phi)):
            assert_allclose(g[k], want, rtol=1e-12,
                            atol=1e-12 * np.max(np.abs(want), initial=0.0))


@given(st.one_of(
    st.tuples(st_l3, st.sampled_from(CANONICAL_LABELS)),
    st.tuples(st.lists(st.integers(-4, 4), min_size=4, max_size=4, unique=True),
              st.sampled_from(list(combinations(range(1, 16), 3))))),
    st.sampled_from(["clean", "complex", "mixed"]), st.integers(0, 2 ** 16),
    st.lists(st.floats(R_MIN, 1e6), min_size=1, max_size=6),
    st.booleans(), st.integers(1, 41))
@settings(max_examples=60, deadline=None)
def test_unit_without_partials_is_the_s_of_the_full_call(lmap, kind, seed,
                                                         radii, fix, n_phi):
    # the classifier's S-only call stacks the kept rows, not evaluate's
    # values, and must still give the full call's S bit for bit, with the
    # per-radius peak division far out and with the origin fix on or off
    l, key = lmap
    source = sources.source(kind, l, np.random.default_rng(seed))
    field = (canonical_field(source, key) if isinstance(key, str)
             else triple_field(source, TripleSpec(key)))
    r, phi = np.array(radii), GridSpec(n_phi=n_phi).phi_nodes()
    assert np.array_equal(field.unit(r, phi, fix, partials=False),
                          field.unit(r, phi, fix)[0])


def test_row_sums_of_mixed_source_equal_one_shot_density():
    # many-term tables of a mixed density, one row per block
    l = (-3, 1, 4)
    field = canonical_field(sources.source("mixed", l, np.random.default_rng(7)), "451")
    r, _ = GridSpec(n_r=4).radial_rule(0)
    phi = GridSpec(n_phi=BLOCK_POINTS // 2 + 1).phi_nodes()
    assert np.array_equal(field.expansion(phi).row_sums(r),
                          field.expansion(phi).density(r).sum(axis=1))


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
    # map of its pair, and index slot 0 beside the pair as a triple
    for label in CANONICAL_LABELS:
        want = wrapping_analytic_d3(label, l)
        if label[2] == "*":
            got = wrapping_analytic_usual(l, STARRED_PAIRS[label])
        else:
            got = wrapping_analytic_triple(l, tuple(int(ch) for ch in label))
        assert got == want, label
        assert wrapping_analytic_triple(l, TripleSpec.parse(label).indices) == want


@pytest.mark.parametrize("fn, args, message", [
    # index 0 must not wrap around to the last generator
    (accidental_predict, ((-3, -2, -1), (0, 1, 7)), "basis index 0 out of range 1..8"),
    (accidental_predict, ((-3, -2, -1), (1, 5, 9)), "basis index 9 out of range 1..8"),
    # accidental_predict takes basis indices only: a starred map has a nice pair
    (accidental_predict, ((-1, 0, 1), (0, 4, 5)), "basis index 0 out of range 1..8"),
    (accidental_predict, ((-4, 0, 1, 3), (1, 3, 5), 3), "need 3 mode charges for d = 3, got 4"),
    # the charges must number d, not merely cover the triple's modes
    (wrapping_analytic_triple, ((-1, 0, 1, 2), (1, 2, 3), 3),
     "need 3 mode charges for d = 3, got 4"),
    (wrapping_analytic_triple, ((-1, 0), (1, 2, 3), 3), "need 3 mode charges for d = 3, got 2"),
    (wrapping_analytic_triple, ((-1, 0, 1), (0, 4, 5), 4), "need 4 mode charges for d = 4, got 3"),
    (wrapping_analytic_d3, ("45*", (-1, 0, 1, 2)), "need 3 mode charges for d = 3, got 4"),
    (singularity_class_label, ("124", (-1, 0)), "need 3 mode charges for d = 3, got 2"),
])
def test_closed_form_inputs_are_checked(fn, args, message):
    with pytest.raises(ValueError, match=message):
        fn(*args)


def test_index_triple_beyond_the_basis_is_rejected():
    with pytest.raises(ValueError, match="basis index 20 out of range 1..8"):
        wrapping_analytic_triple((-1, 0, 1), (1, 2, 20), 3)
    with pytest.raises(ValueError, match="basis index 0 out of range 1..8"):
        wrapping_analytic_triple((-1, 0, 1), (0, 1, 2), 3)


@pytest.mark.parametrize("indices", [(4, 5, 5), (1, 1, 2)])
def test_index_triple_with_a_repeated_index_is_rejected(indices):
    with pytest.raises(ValueError, match="triple needs three distinct indices"):
        wrapping_analytic_triple((-1, 0, 1), indices, 3)
    with pytest.raises(ValueError, match="triple needs three distinct indices"):
        map_layout(3, indices)


def _sampled_winding(a, b, n=20000):
    """Winding of phi -> (cos(a phi), sin(b phi)) by angle unwrapping, and
    the curve's least distance from the origin."""
    phi = np.linspace(0.0, 2.0 * np.pi, n + 1)
    x, y = np.cos(a * phi), np.sin(b * phi)
    ang = np.unwrap(np.arctan2(y, x))
    return (ang[-1] - ang[0]) / (2.0 * np.pi), float(np.min(np.hypot(x, y)))


# lissajous_winding as a crossing count, before its closed form: the
# closed form's reference
def _counted_winding(a: int, b: int) -> int:
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


def test_lissajous_winding_closed_form_matches_the_crossing_count():
    for a in range(60):
        for b in range(-60, 61):
            assert lissajous_winding(a, b) == _counted_winding(a, b), (a, b)


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


def test_accidental_prediction_skips_a_plain_nice_pair():
    # (1, 2, 3) at d = 3 is the cos and sin root of modes (0, 1) beside a
    # diagonal: the nice pair of map 123, not an accidental invariant
    assert accidental_predict((1, 2, 3), (1, 2, 3)) is None


@pytest.mark.parametrize("l", [(1, 1, 2), (2, 1, 2)])
def test_accidental_prediction_skips_equal_charges_on_a_root(l):
    # cos (0, 1), lambda_3 and sin (0, 2): a root whose two modes carry
    # equal charges does not turn with phi, so its Lissajous winding is 0
    assert accidental_predict(l, (1, 3, 5)) is None


def test_accidental_prediction_exists_only_under_degeneracy():
    assert accidental_predict((1, 2, 2), (1, 3, 5)) == -1.0
    assert accidental_predict((1, 2, 3), (1, 3, 5)) is None


@pytest.mark.parametrize("l, expected", [
    ((-4, -3, -1), None),   # the asym root's 5 undercuts the diagonal's 6 as r -> 0
    ((1, 3, -1), None),     # the diagonal ties the asym root's 2 as r -> 0
    ((3, 1, -3), None),     # the diagonal ties the asym root's 6 as r -> infinity
    ((1, 2, 2), -1.0),      # the diagonal leads both roots at both ends
])
def test_accidental_prediction_needs_the_diagonal_at_both_ends(l, expected):
    # cos (0, 1), lambda_3 and sin (0, 2): the Lissajous winding is nonzero,
    # so a missing prediction comes from the end analysis alone
    assert lissajous_winding(abs(l[0] - l[1]), l[0] - l[2]) != 0
    assert accidental_predict(l, (1, 3, 5)) == expected


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
