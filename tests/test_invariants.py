"""Wrapping-number evaluation, gluing, classification, and charge identity."""

import re
import tracemalloc
from itertools import combinations, permutations, product

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from numpy.testing import assert_allclose

from topospec.fields import (BLOCK_POINTS, GridSpec, MapClass, TripleSpec,
                             UnitField, _Expansion, classify_map, map_layout,
                             triple_field)
from topospec.invariants import (_ALIASES, _LABEL_SPECS, CANONICAL_LABELS,
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
from topospec.states import inject_subspace, make_state, sample_perturbation
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
        _, pair, _, third = map_layout(3, _LABEL_SPECS[label].indices)
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
    assert sorted(_LABEL_SPECS) == sorted(CANONICAL_LABELS)
    for alias, label in _ALIASES.items():   # as the CLI reads a label
        assert _LABEL_SPECS[canonical_label(alias)].label == label
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
    auto = wrapping_numeric(field, grid, singular=True)
    explicit = wrapping_numeric(field, GridSpec(n_r=64, n_phi=4 * n_phi),
                                singular=False)
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

    def counting(self, phi):
        calls.append(np.asarray(phi).size)
        return inner(self, phi)

    monkeypatch.setattr(UnitField, "expansion", counting)
    # map 451 of (-1, 0, 1) on 16 panels doubles twice
    field = canonical_field(make_state((-1, 0, 1), np.ones(3)), "451")
    res = wrapping_numeric(field, GridSpec(n_r=16))
    assert res.n_r_used == 4 * 16
    assert len(calls) == 1


def _perturbed(l, seed=0):
    return inject_subspace(make_state(l, np.ones(len(l))),
                           sample_perturbation(len(l), np.random.default_rng(seed)))


def _full_turn(field, g, n_r_used, n_phi):
    """The wrapping integral on n_r_used panels, summed over every midpoint."""
    r, w = g.radial_rule(int(np.log2(n_r_used // g.n_r)))
    dens = field.expansion(GridSpec(n_phi=n_phi).phi_nodes()).density(r).sum(axis=1)
    return float(w @ dens) * (2.0 * np.pi / n_phi) / (4.0 * np.pi)


@pytest.mark.parametrize("n_phi", [96, 95])
@pytest.mark.parametrize("make_field", [
    lambda: canonical_field(make_state((-1, 0, 1), np.ones(3)), "451"),
    lambda: canonical_field(_perturbed((-3, 1, 4)), "124"),
    lambda: triple_field(_perturbed((-2, -1, 1, 0)), TripleSpec((1, 2, 4))),
], ids=["clean-451", "perturbed-124", "perturbed-d4-1-2-4"])
def test_even_map_on_half_a_turn_matches_the_full_turn(monkeypatch, make_field,
                                                       n_phi):
    # an even density is summed over the first half turn at twice the
    # weight; at an odd n_phi the full turn is kept
    field = make_field()
    assert field.mirror_parity() == 1 and not singularity_class(field)
    sizes = []
    inner = UnitField.expansion

    def counting(self, phi):
        sizes.append(np.asarray(phi).size)
        return inner(self, phi)

    monkeypatch.setattr(UnitField, "expansion", counting)
    grid = GridSpec(n_r=64, n_phi=n_phi)
    res = wrapping_numeric(field, grid)
    assert sizes == [n_phi // 2 if n_phi % 2 == 0 else n_phi]
    direct = _full_turn(field, grid.resolve(field.l), res.n_r_used, n_phi)
    assert abs(res.raw - direct) <= 1e-12


@pytest.mark.parametrize("source", [make_state((-2, -1, 1, 0), np.ones(4)),
                                    _perturbed((-2, -1, 1, 0))],
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


@pytest.mark.parametrize("n_r, n_phi", [(300, 512), (5, BLOCK_POINTS + 3)])
def test_row_sums_equal_one_shot_density(n_r, n_phi):
    # 301 rows at 128 rows per block; one row per block above BLOCK_POINTS
    field = canonical_field(make_state((-4, -3, 4), np.ones(3)), "124")
    r, _ = GridSpec(n_r=n_r).radial_rule(0)
    phi = GridSpec(n_phi=n_phi).phi_nodes()
    assert np.array_equal(field.expansion(phi).row_sums(r),
                          field.expansion(phi).density(r).sum(axis=1))


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
# a midpoint next to a zero of the third axis at the tail node r = 1e6
@example(l=[-1, -2, 3], label="124", kind="complex", seed=1464)
def test_level0_integral_matches_unit_triple_product(l, label, kind, seed):
    # the separable density against the normalized map's triple product
    field = canonical_field(_source(kind, l, np.random.default_rng(seed)), label)
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
    field = canonical_field(_source(kind, l, np.random.default_rng(seed)), label)
    r = np.array([1e-3, 0.4, 1.0, 2.5, 9.0])
    phi = GridSpec(n_phi=24).phi_nodes()
    got = field.evaluate(r, phi, fix=False)
    for k, term in enumerate(field.terms):
        for g, want in zip(got, term.evaluate(r, phi)):
            assert_allclose(g[k], want, rtol=1e-12,
                            atol=1e-12 * np.max(np.abs(want), initial=0.0))


def test_row_sums_of_mixed_source_equal_one_shot_density():
    # many-term tables of a mixed density, one row per block
    l = (-3, 1, 4)
    field = canonical_field(_source("mixed", l, np.random.default_rng(7)), "451")
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
        assert wrapping_analytic_triple(l, _LABEL_SPECS[label].indices) == want


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
