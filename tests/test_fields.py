"""Component-field evaluation, unit maps, and boundary classification tests."""

import math
import re
import sys
import threading
from dataclasses import replace
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from topospec.basis import build_basis
from topospec.fields import (N_PROBE, R_MIN, ROW_GRIDS, RULE_CACHE, GridSpec,
                             MapClass, SharedSource, TermField, TripleSpec,
                             UnitField, _radial_sum, _simpson_rule,
                             classify_map, map_layout, term_field,
                             triple_field)
from topospec.invariants import CANONICAL_LABELS, canonical_field
from topospec.spectrum import enumerate_triples
from topospec.states import inject_subspace, make_state, sample_perturbation

import sources

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
    got = field.expansion(phi).density(r)
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
    assert_allclose(field.expansion(phi).density(r)[0],
                    _rational_density(field, r[0], phi), rtol=1e-12, atol=0.0)


def test_area_density_results_are_independent():
    # the arrays the density returns stay the caller's
    first_field = canonical_field(make_state((-4, -3, 4), np.ones(3)), "124")
    other_field = canonical_field(make_state((-1, 0, 1), np.ones(3)), "453")
    r = np.linspace(0.2, 3.0, 9)
    phi = GridSpec(n_phi=32).phi_nodes()
    first = first_field.expansion(phi).density(r)
    kept = first.copy()
    second = other_field.expansion(GridSpec(n_phi=48).phi_nodes()).density(
        np.linspace(0.1, 2.0, 5))
    assert second.shape == (5, 48)
    assert not np.shares_memory(first, second)
    assert np.array_equal(first, kept)
    assert np.array_equal(first_field.expansion(phi).density(r), kept)


def test_area_density_in_two_threads_matches_serial():
    # two threads interleave densities of different fields on different phi
    # grids; shared scratch state in the kernel would mix their blocks
    fields = [canonical_field(make_state((-4, -3, 4), np.ones(3)), "124"),
              canonical_field(make_state((-3, 1, 4), [1.0, 2.0, 3.0]), "453")]
    grids = [GridSpec(n_phi=96).phi_nodes(), GridSpec(n_phi=160).phi_nodes()]
    blocks = [np.linspace(0.05, 4.0, 40), np.linspace(0.5, 9.0, 25)]
    serial = [[f.expansion(phi).density(r) for r in blocks]
              for f, phi in zip(fields, grids)]
    got = [[], []]
    start = threading.Barrier(2)

    def run(k):
        ex = fields[k].expansion(grids[k])
        start.wait()
        for _ in range(40):
            for r in blocks:
                got[k].append(ex.density(r))
            got[k].append(fields[k].expansion(grids[k]).density(blocks[0]))

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
    fresh = {c: replace(fields[c[0]]).expansion(grids[c[1]].copy()).density(r)
             for c in combos}
    for _ in range(2):
        for c in combos[::3] + combos[1::3] + combos[2::3]:
            got = fields[c[0]].expansion(grids[c[1]]).density(r)
            assert np.array_equal(got, fresh[c]), c


def test_area_density_of_a_vanishing_component_is_zero():
    # an empty component (separable state) and a third that cancels exactly
    r = np.linspace(0.01, 5.0, 11)
    phi = GridSpec(n_phi=128).phi_nodes()
    separable = canonical_field(make_state((-1, 0, 1), [1.0, 0.0, 0.0]), "123")
    assert len(separable.terms[0].js) == 0
    cancelled = canonical_field(make_state((2, -2, 0), np.ones(3)), "453")
    for field in (separable, cancelled):
        dens = field.expansion(phi).density(r)
        assert dens.shape == (r.size, phi.size)
        assert not np.any(dens)


@given(st.one_of(
    st.tuples(st_l3, st.sampled_from(CANONICAL_LABELS)),
    st.tuples(st.lists(st.integers(-4, 4), min_size=4, max_size=4, unique=True),
              st.sampled_from(list(combinations(range(1, 16), 3))))),
    st.sampled_from(["clean", "perturbed", "complex", "mixed"]),
    st.integers(0, 2 ** 16))
@settings(max_examples=80, deadline=None)
def test_mirror_parity_matches_the_density_at_mirrored_angles(lmap, kind, seed):
    l, key = lmap
    source = sources.source(kind, l, np.random.default_rng(seed))
    field = (canonical_field(source, key) if isinstance(key, str)
             else triple_field(source, TripleSpec(key)))
    parity = field.mirror_parity()
    if kind in ("clean", "perturbed"):
        # real amplitudes: every component is a cosine or a sine series
        assert parity != 0
    elif not all(np.array_equal(t.js, t.jps) for t in field.terms):
        # complex amplitudes mix both in every off-diagonal component; only
        # a triple of diagonal generators (phi-independent) keeps a parity
        assert parity == 0
    if parity == 0:
        return
    r = np.array([0.05, 0.4, 1.1, 2.5])
    phi = np.random.default_rng(seed).uniform(0.0, 2.0 * np.pi, 16)
    dens = field.expansion(phi).density(r)
    mirrored = field.expansion(2.0 * np.pi - phi).density(r)
    scale = np.max(np.abs(dens))
    # a density that is rounding noise everywhere has no sign to compare
    if scale > 1e-12:
        assert_allclose(mirrored, parity * dens, rtol=1e-6, atol=1e-8 * scale)


@given(st.one_of(
    st.tuples(st_l3, st.sampled_from(CANONICAL_LABELS)),
    st.tuples(st.lists(st.integers(-4, 4), min_size=4, max_size=4, unique=True),
              st.sampled_from(list(combinations(range(1, 16), 3))))),
    st.sampled_from(["clean", "unequal", "complex", "perturbed",
                     "complex-perturbed", "mixed"]),
    st.integers(0, 2 ** 16))
@settings(max_examples=80, deadline=None)
def test_density_repeats_over_its_azimuthal_period(lmap, kind, seed):
    l, key = lmap
    source = sources.source(kind, l, np.random.default_rng(seed))
    field = (canonical_field(source, key) if isinstance(key, str)
             else triple_field(source, TripleSpec(key)))
    k = field.azimuthal_period()
    if kind in ("clean", "unequal") and field.pair_modes is not None:
        # a clean nice pair only rotates about the third axis; with complex
        # amplitudes its two terms are perpendicular only up to rounding
        third = field.terms[2]
        assert k == math.gcd(*(abs(l[jp] - l[j])
                               for j, jp in zip(third.js, third.jps)))
    r = np.array([0.05, 0.4, 1.1, 2.5])
    phi = np.random.default_rng(seed).uniform(0.0, 2.0 * np.pi, 16)
    dens = field.expansion(phi).density(r)
    # k = 0: constant in phi
    moved = (field.expansion(phi + 2.0 * np.pi / k).density(r) if k
             else np.broadcast_to(dens[:, :1], dens.shape))
    # the shifted angles D phi round differently per term, and where the
    # terms of m nearly cancel the density magnifies that (to about 2e-8
    # of the largest value, next to a small |m|); a wrong period moves it
    # by O(1).  A density that is rounding noise everywhere has no period
    # to compare.
    scale = np.max(np.abs(dens))
    if scale > 1e-12:
        assert_allclose(moved, dens, rtol=1e-6, atol=1e-7 * scale)


@given(st_l3, st.sampled_from(CANONICAL_LABELS),
       st.sampled_from(["clean", "unequal", "complex", "perturbed"]),
       st.integers(0, 2 ** 16))
@settings(max_examples=60, deadline=None)
def test_folded_origin_fix_equals_the_per_point_flip(l, label, kind, seed):
    # a one-row third's fix is folded into the determinant tables; the
    # density must be bitwise the one that flips each point by sign(m_3)
    source = sources.source(kind, l, np.random.default_rng(seed))
    field = canonical_field(source, label)
    phi = GridSpec(n_phi=96).phi_nodes()
    ex = field.expansion(phi)
    unfixed = replace(field, sigma=0.0).expansion(phi)
    if field.sigma == 0.0 or unfixed.third_exps.size > 1:
        # no fix, or one applied per point
        assert ex.sigma == field.sigma
        return
    assert ex.sigma == 0.0
    flipped = replace(unfixed, sigma=field.sigma)
    r = np.concatenate([GridSpec(n_r=16).radial_rule(0)[0], [R_MIN, 1.0]])
    if ex.det_exps.size:
        # (with no live row the density is never evaluated; its zeros
        # may differ in sign)
        assert ex.density(r).tobytes() == flipped.density(r).tobytes()


def test_one_row_radial_sum_is_the_broadcast_product():
    rng = np.random.default_rng(3)
    r, table = rng.uniform(0.01, 50.0, 40), rng.normal(size=(1, 33))
    exps, scale = np.array([5]), rng.integers(0, 9, r.size)
    out = np.empty((r.size, 33))
    _radial_sum(r, exps, scale, table, out)
    want = r[:, None] ** (exps[None, :] - scale[:, None]) * table[0]
    assert out.tobytes() == want.tobytes()


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


def test_a_spec_refuses_a_canonical_label_outside_the_18():
    # a made-up label that spells its indices once passed, and failed only
    # later, in map_layout, on index slot 0
    with pytest.raises(ValueError, match=re.escape("unknown canonical label: '12*'")):
        TripleSpec((0, 1, 2), canonical="12*")
    with pytest.raises(ValueError, match="does not spell the indices"):
        TripleSpec((0, 4, 5), canonical="45s")   # an alias is not a label


def test_parse_reads_back_every_label_the_tool_writes():
    for spec in enumerate_triples(3) + enumerate_triples(3, "full") + \
            enumerate_triples(4):
        assert TripleSpec.parse(spec.label) == spec
    assert TripleSpec.parse("1,2,4") == TripleSpec.parse("1,2,4.0") == \
        TripleSpec.parse("1-2-4") == TripleSpec((1, 2, 4))
    assert TripleSpec.parse("45s") == TripleSpec.parse("45*") == \
        TripleSpec((0, 4, 5), canonical="45*")
    # an index triple and a canonical label of the same indices differ
    assert TripleSpec.parse("124") != TripleSpec.parse("1-2-4")


@pytest.mark.parametrize("name, message", [
    ("999", "unknown canonical label: '999'"),
    ("458", "unknown canonical label: '458'"),
    ("1,2", "three distinct indices"),
    ("1-2", "three distinct indices"),
    ("0-1-2", "1-based"),
    ("-1,2,3", "1-based"),
    ("1,2,3.5", "whole numbers"),
    ("x,2,3", "could not convert"),
])
def test_parse_refuses_a_name_of_no_map(name, message):
    with pytest.raises(ValueError, match=message):
        TripleSpec.parse(name)


@pytest.mark.parametrize("name, message", [
    ("1--2-3", "could not convert string to float: ''"),
    ("1-2-x", "could not convert string to float: 'x'"),
    ("1,2", "triple needs three distinct indices"),
    ("1,2,3.5", "basis indices must be whole numbers"),
])
def test_an_index_name_of_no_map_is_named_in_its_error(name, message):
    with pytest.raises(ValueError) as info:
        TripleSpec.parse(name)
    assert str(info.value).startswith(f"map name {name!r}: {message}")


def test_starred_maps_are_slot_zero_layouts():
    # the pair's usual map: third axis +1 on the pair's first mode, -1 on its
    # second, no orientation gauge
    assert map_layout(3, (0, 4, 5)) == ((1, 2, 0), (0, 2), 0.0,
                                        ((0, 0, 1.0), (2, 2, -1.0)))
    assert map_layout(3, (0, 6, 7)) == ((1, 2, 0), (1, 2), 0.0,
                                        ((1, 1, 1.0), (2, 2, -1.0)))


@pytest.mark.parametrize("d, indices", [(3, (0, 1, 2)), (4, (0, 4, 5)),
                                        (3, (0, 5, 6))])
def test_slot_zero_is_only_a_starred_qutrit_map(d, indices):
    message = f"basis index 0 out of range 1..{d * d - 1} for d = {d}"
    with pytest.raises(ValueError, match=message):
        map_layout(d, indices)
    state = make_state(range(d), np.ones(d))
    label = f"{indices[1]}{indices[2]}*"   # a label that spells the indices
    if label not in CANONICAL_LABELS:
        # a made-up label is refused before any map is built
        message = f"unknown canonical label: '{re.escape(label)}'"
    with pytest.raises(ValueError, match=message):
        triple_field(state, TripleSpec(indices, canonical=label))


def test_a_canonical_spec_on_a_d4_state_is_rejected():
    state = make_state((-2, -1, 1, 0), np.ones(4))
    with pytest.raises(ValueError,
                       match="^canonical labels are defined for d = 3$"):
        triple_field(state, TripleSpec((1, 2, 3), canonical="123"))


def _direct_canonical_field(source, label):
    """A canonical map built without map_layout's slot 0: a plain label from
    its index triple, a starred one from its pair's two generators and the
    combined diagonal (sign lambda_3 + sqrt(3) lambda_8) / 2 as matrices."""
    if label[2] != "*":
        return triple_field(source, TripleSpec(tuple(int(ch) for ch in label)))
    basis = build_basis(3)
    sign = 1.0 if label[:2] == "45" else -1.0
    third = 0.5 * (sign * basis[2].matrix + np.sqrt(3.0) * basis[7].matrix)
    k = int(label[0])
    terms = (term_field(source, basis[k - 1].matrix),
             term_field(source, basis[k].matrix), term_field(source, third))
    return UnitField(source.l, terms, 0.0, basis[k - 1].modes)


@given(st_l3, st.sampled_from(["clean", "skewed", "perturbed", "complex",
                               "mixed"]),
       st.integers(0, 2 ** 16))
@settings(max_examples=40, deadline=None)
def test_every_canonical_label_builds_through_its_triple(l, kind, seed):
    # the starred maps' slot 0 gives the same terms, bit for bit, as the
    # combined diagonal built straight from the generators
    source = sources.source(kind, l, np.random.default_rng(seed))
    shared = SharedSource(source)
    for label, spec in zip(CANONICAL_LABELS, enumerate_triples(3)):
        want = _direct_canonical_field(source, label)
        for field in (triple_field(shared, spec), canonical_field(source, label)):
            assert (field.sigma, field.pair_modes) == (want.sigma, want.pair_modes)
            for got, ref in zip(field.terms, want.terms):
                for name in ("js", "jps", "alpha", "beta"):
                    assert np.array_equal(getattr(got, name), getattr(ref, name)), \
                        (label, name)


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
    # the rings sit at R_MIN, 2 R_MIN and a quarter, half and all of
    # sqrt(max|l|) + 6, whatever grid the caller passes
    calls = []
    inner = UnitField.unit

    def counting(self, r, phi, *args, **kwargs):
        calls.append(np.array(r))
        return inner(self, r, phi, *args, **kwargs)

    monkeypatch.setattr(UnitField, "unit", counting)
    qutrit = make_state((-1, 0, 1), np.ones(3))
    ququart = make_state((-2, -1, 1, 0), [1.0, 2.0, 1.0, 3.0])
    for field, kind in ((canonical_field(qutrit, "123"), "sphere"),
                        (triple_field(ququart, TripleSpec((1, 2, 15))), None)):
        calls.clear()
        got = classify_map(field, GridSpec())
        r = float(np.sqrt(max(abs(x) for x in field.l)) + 6.0)
        assert len(calls) == 1
        assert np.array_equal(calls[0], [R_MIN, 2 * R_MIN, r / 4, r / 2, r])
        assert kind is None or got.kind == kind
        assert classify_map(field, GridSpec(n_r=16, n_phi=8)) == got
        assert classify_map(field) == got
    # a component's rows on the ring grid are one table per source, whatever
    # the map: the 455 maps of a d = 4 census build at most its 15
    # components' tables
    tables = []
    rows = TermField.rows
    probe_phi = GridSpec(n_phi=N_PROBE).phi_nodes()

    def counting_rows(self, phi):
        if np.array_equal(phi, probe_phi):
            tables.append(self)
        return rows(self, phi)

    monkeypatch.setattr(TermField, "rows", counting_rows)
    shared = SharedSource(make_state((-2, -1, 1, 0), np.ones(4)))
    for spec in combinations(range(1, 16), 3):
        classify_map(triple_field(shared, TripleSpec(spec)))
    assert len(tables) <= 15


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
    # switch interval: every row table, value table and density must equal
    # the serial one
    state = make_state((-3, 1, 4), [1.0, 2.0, 3.0])
    grids = [GridSpec(n_phi=n).phi_nodes() for n in range(40, 40 + ROW_GRIDS + 2)]
    reference = term_field(state, build_basis(3)[3].matrix)
    want_rows = [reference.rows(phi) for phi in grids]
    r = np.linspace(0.1, 3.0, 5)
    want_values = [reference.evaluate(r, phi) for phi in grids]
    want_dens = [canonical_field(state, "453").expansion(phi).density(r)
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
            values = term.evaluate(r, grids[j])
            sizes.append(len(term._kept))
            dens = canonical_field(shared, "453").expansion(grids[j]).density(r)
            if not (np.array_equal(p, want_rows[j][0])
                    and np.array_equal(dp, want_rows[j][1])
                    and all(np.array_equal(a, b)
                            for a, b in zip(values, want_values[j]))
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


def _stacked_unit(field, r, phi):
    """UnitField.unit as three separate stacks, fixed and scaled each."""
    m, mr, mp = map(np.stack, zip(*(t.evaluate(r, phi) for t in field.terms)))
    if field.sigma != 0.0:
        sgn = np.where(m[2] < 0.0, -field.sigma, field.sigma)
        m[2] *= sgn
        mr[2] *= sgn
        mp[2] *= sgn
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


def _ring_by_ring_class(field):
    """classify_map with every ring's statistics taken on its own."""
    r_out = float(np.sqrt(max(abs(x) for x in field.l)) + 6.0)
    phi = (np.arange(256) + 0.5) * (2.0 * np.pi / 256)
    radii = {"in0": R_MIN, "in1": 2.0 * R_MIN,
             "mid0": 0.25 * r_out, "mid1": 0.5 * r_out, "out": r_out}
    s, _, _ = _stacked_unit(field, np.array(list(radii.values())), phi)
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


@given(st.one_of(
    st.tuples(st_l3, st.sampled_from(CANONICAL_LABELS)),
    st.tuples(st.lists(st.integers(-4, 4), min_size=4, max_size=4, unique=True),
              st.sampled_from(list(combinations(range(1, 16), 3))))),
    st.sampled_from(["clean", "complex", "mixed"]),
    st.integers(0, 2 ** 16))
@settings(max_examples=60, deadline=None)
def test_one_stack_classifier_equals_ring_by_ring_statistics(lmap, kind, seed):
    # classify_map and unit work on one (kind, component, r, phi) stack;
    # every value must equal the per-kind, per-ring arithmetic exactly
    l, key = lmap
    source = sources.source(kind, l, np.random.default_rng(seed))
    field = (canonical_field(source, key) if isinstance(key, str)
             else triple_field(source, TripleSpec(key)))
    assert classify_map(field, GridSpec()) == _ring_by_ring_class(field)
    r = np.array([R_MIN, 0.3, 1.0, 2.5, 50.0])
    phi = np.random.default_rng(seed).uniform(0.0, 2.0 * np.pi, 17)
    for got, want in zip(field.unit(r, phi), _stacked_unit(field, r, phi)):
        assert np.array_equal(got, want)


def test_radial_rule_integrates_known_integral():
    g = GridSpec(n_r=512, n_phi=64)
    r, w = g.radial_rule()
    # integral of r^3 exp(-r^2) over the half line is 1/2
    assert_allclose(w @ (r**3 * np.exp(-r * r)), 0.5, atol=1e-6)


def test_grid_resolve_defaults():
    g = GridSpec(n_r=64).resolve((-3, 0, 3))
    assert g.n_phi == 64 * 6


@pytest.mark.parametrize("name, value", [
    ("n_phi", 48.7), ("n_phi", True), ("n_phi", float("nan")),
    ("n_phi", np.float64(64.0)), ("n_r", 64.0), ("n_r", False), ("n_r", "64")])
def test_grid_rejects_a_size_that_is_not_an_integer(name, value):
    # 48.7 would be cut to 48 nodes and True read as one node
    with pytest.raises(ValueError, match=f"grid needs an integer {name}, got"):
        GridSpec(**{name: value})


def test_grid_takes_numpy_integer_sizes():
    g = GridSpec(n_r=np.int64(64), n_phi=np.int32(48)).resolve((-1, 0, 1))
    assert (g.n_r, g.n_phi) == (64, 48) and type(g.n_phi) is int


@pytest.mark.parametrize("n_r", [1, 3, 255])
def test_grid_resolve_rejects_an_odd_n_r(n_r):
    # Simpson weights of an odd panel count miss a constant by up to a third
    with pytest.raises(ValueError, match=f"even n_r, got {n_r}"):
        GridSpec(n_r=n_r).resolve((-1, 0, 1))
    assert GridSpec(n_r=n_r + 1).resolve((-1, 0, 1)).n_r == n_r + 1
