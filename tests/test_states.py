"""State construction, perturbation, and serialization tests."""

import json
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st
from numpy.testing import assert_allclose

from topospec.fields import TripleSpec
from topospec.invariants import (accidental_predict, singularity_class_label,
                                 wrapping_analytic_d3, wrapping_analytic_triple,
                                 wrapping_analytic_usual)
from topospec.states import (QuditState, SubspacePerturbation, inject_subspace,
                             load_state, make_state, radial_profile,
                             sample_perturbation, save_state, state_from_json,
                             state_to_json)
from topospec.tomography import projection_set, spectrum_from_density

st_l = st.lists(st.integers(-6, 6), min_size=2, max_size=5, unique=True)
st_amp = st.complex_numbers(min_magnitude=0.1, max_magnitude=2.0,
                            allow_infinity=False, allow_nan=False)


@st.composite
def st_state(draw):
    l = draw(st_l)
    c = draw(st.lists(st_amp, min_size=len(l), max_size=len(l)))
    return make_state(l, c)


@given(st_state())
def test_make_state_normalizes(state):
    assert_allclose(np.linalg.norm(state.c), 1.0, atol=1e-12)
    off = state.amps - np.diag(np.diag(state.amps))
    assert not np.any(off)


def test_make_state_rejects_bad_input():
    with pytest.raises(ValueError):
        make_state((1, 2), [1.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        make_state((1, 2), [0.0, 0.0])


@pytest.mark.parametrize("c", [[1.0, np.nan], [np.inf, 1.0], [1.0, complex(0, np.inf)]])
def test_make_state_rejects_non_finite_coefficients(c):
    with pytest.raises(ValueError, match="finite"):
        make_state((0, 1), c)


@pytest.mark.parametrize("l", [(-1.7, 0, 1), (0.5, 1, 2), (np.inf, 0, 1), (np.nan, 0, 1)])
def test_make_state_rejects_charges_that_are_not_whole(l):
    with pytest.raises(ValueError, match="whole numbers"):
        make_state(l, np.ones(3))


@pytest.mark.parametrize("c, norm", [([1e200] * 3, "inf"),
                                     ([1e-200] * 3, "0.0")])
def test_make_state_rejects_a_norm_that_is_not_a_positive_finite_float(c, norm):
    # the norm overflows or underflows, and neither may warn on the way
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError, match=f"c has norm {norm}"):
            make_state((-1, 0, 1), c)


def test_a_perturbation_whose_norm_overflows_is_rejected(tmp_path):
    # 1e308 weights overflow their mean to inf, and the mixed amplitudes
    # to nan, before the norm check; neither may warn on the way
    for weight in (1e200, 1e308):
        delta = np.full((3, 3), weight)
        np.fill_diagonal(delta, 0.0)
        path = tmp_path / "huge.json"
        save_state(path, make_state((-1, 0, 1), np.ones(3)),
                   SubspacePerturbation(delta))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValueError,
                               match="perturbed state has norm (inf|nan)"):
                load_state(path)


def test_make_state_accepts_whole_float_charges():
    assert make_state((-1.0, 0.0, 2.0), np.ones(3)).l == (-1, 0, 2)


# Every entry point that converts mode charges, given 1.7 as a charge.
NOT_WHOLE_CHARGES = {
    "make_state": lambda: make_state((-1, 0, 1.7), np.ones(3)),
    "wrapping_analytic_usual": lambda: wrapping_analytic_usual((-1, 0, 1.7), (0, 2)),
    "wrapping_analytic_d3": lambda: wrapping_analytic_d3("123", (-1, 0, 1.7)),
    "wrapping_analytic_triple":
        lambda: wrapping_analytic_triple((-1, 0, 1.7), (1, 2, 3)),
    "singularity_class_label":
        lambda: singularity_class_label("123", (-1, 0, 1.7)),
    "accidental_predict": lambda: accidental_predict((1, 1.7, 2), (1, 3, 5)),
    "projection_set": lambda: projection_set(3, (-1, 0, 1.7)),
    "spectrum_from_density":
        lambda: spectrum_from_density(np.eye(9) / 9, (-1, 0, 1.7)),
}

# Every entry point that converts basis indices, given 3.7 as an index.
NOT_WHOLE_INDICES = {
    "TripleSpec": lambda: TripleSpec((1, 2, 3.7)),
    "wrapping_analytic_triple":
        lambda: wrapping_analytic_triple((-1, 0, 1), (1, 2, 3.7)),
    "accidental_predict": lambda: accidental_predict((1, 2, 2), (1, 3.7, 5)),
}


@pytest.mark.parametrize("name", NOT_WHOLE_CHARGES)
def test_every_charge_conversion_rejects_a_charge_that_is_not_whole(name):
    with pytest.raises(ValueError, match=r"^mode charges must be whole numbers, "
                                         r"got \[.*1\.7.*\]$"):
        NOT_WHOLE_CHARGES[name]()


@pytest.mark.parametrize("name", NOT_WHOLE_INDICES)
def test_every_index_conversion_rejects_an_index_that_is_not_whole(name):
    with pytest.raises(ValueError, match=r"^basis indices must be whole numbers, "
                                         r"got \[.*3\.7.*\]$"):
        NOT_WHOLE_INDICES[name]()


def test_whole_float_charges_and_indices_are_read_as_ints():
    spec = TripleSpec((3.0, 1.0, 2.0))
    assert spec.indices == (1, 2, 3) and spec.label == "1-2-3"
    assert all(type(i) is int for i in spec.indices)
    assert (wrapping_analytic_usual((-1.0, 0.0, 2.0), (0, 2))
            == wrapping_analytic_usual((-1, 0, 2), (0, 2)))
    pset = projection_set(3, (-1.0, 0.0, 1.0))
    assert pset.subspace_l == (-1, 0, 1) and pset.labels[0] == "b-1"


def test_projection_set_counts_its_charges_by_the_charge_rule():
    with pytest.raises(ValueError,
                       match=r"^need 3 mode charges for d = 3, got 2$"):
        projection_set(3, (-1, 0))


# Every entry point that takes d beside the charges, given d = 0.
ZERO_D = {
    "wrapping_analytic_triple":
        lambda: wrapping_analytic_triple((-1, 0, 1), (1, 2, 3), 0),
    "accidental_predict": lambda: accidental_predict((1, 2, 2), (1, 3, 5), 0),
    "projection_set": lambda: projection_set(0, (-1, 0, 1)),
}


@pytest.mark.parametrize("name", ZERO_D)
def test_d_zero_is_a_size_that_no_charges_number(name):
    # only d = None takes the charges' count
    with pytest.raises(ValueError,
                       match=r"^need 0 mode charges for d = 0, got 3$"):
        ZERO_D[name]()


def test_fields_single_mode():
    state = make_state((3,), [1.0])
    r = np.array([0.5, 1.0, 2.0])
    phi = np.array([0.0, 1.2])
    psi = state.fields(r, phi)
    expected = np.einsum("r,p->rp", radial_profile(3, r), np.exp(3j * phi))
    assert_allclose(psi[0], expected, atol=1e-12)


@given(st_state())
def test_coeff_matches_direct_expectation(state):
    # psi^dag T psi evaluated pointwise must equal the pair-term contraction
    rng = np.random.default_rng(7)
    t = rng.normal(size=(state.d, state.d)) + 1j * rng.normal(size=(state.d, state.d))
    t = t + t.conj().T
    coeff = state.coeff(t)
    r = np.array([0.9])
    phi = np.array([0.4, 2.1])
    psi = state.fields(r, phi)[:, 0, :]
    direct = np.einsum("kp,kn,np->p", psi.conj(), t, psi).real
    profs = np.array([radial_profile(lj, r[0]) for lj in state.l])
    terms = np.einsum("j,jn,n,jp,np->p", profs, coeff, profs,
                      np.exp(-1j * np.outer(state.l, phi)),
                      np.exp(1j * np.outer(state.l, phi))).real
    assert_allclose(terms, direct, atol=1e-10)


def test_inject_zero_delta_is_identity():
    state = make_state((-1, 0, 1), np.ones(3))
    pert = SubspacePerturbation(np.zeros((3, 3)))
    out = inject_subspace(state, pert)
    assert_allclose(out.amps, state.amps, atol=1e-15)


def test_inject_populates_off_diagonal_and_normalizes():
    state = make_state((-1, 0, 1), np.ones(3))
    delta = np.zeros((3, 3))
    delta[1, 0] = 0.04
    out = inject_subspace(state, SubspacePerturbation(delta))
    assert out.amps[1, 0] != 0.0
    assert_allclose(np.linalg.norm(out.amps), 1.0, atol=1e-12)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_perturbation_rejects_non_finite_weights(bad):
    delta = np.zeros((3, 3))
    delta[0, 1] = bad
    with pytest.raises(ValueError, match="finite"):
        SubspacePerturbation(delta)


def test_perturbation_rejects_nonzero_diagonal():
    delta = np.eye(3) * 0.03
    with pytest.raises(ValueError):
        SubspacePerturbation(delta)


def test_perturbation_rejects_a_delta_that_is_not_square():
    with pytest.raises(ValueError, match="delta must be square"):
        SubspacePerturbation(np.zeros((2, 3)))


def test_inject_rejects_a_perturbation_of_another_size():
    state = make_state((-1, 0, 1), np.ones(3))
    with pytest.raises(ValueError,
                       match="perturbation size does not match state"):
        inject_subspace(state, SubspacePerturbation(np.zeros((2, 2))))


def test_inject_into_a_one_mode_state_is_identity():
    # one mode has no off-diagonal weights to average: delta_bar is 0
    # without a mean over an empty slice
    state = make_state((3,), [1.0])
    pert = SubspacePerturbation(np.zeros((1, 1)))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert pert.delta_bar == 0.0
        out = inject_subspace(state, pert)
    assert np.array_equal(out.amps, state.amps)


@given(st.integers(2, 5), st.integers(0, 2**32 - 1))
def test_sample_perturbation_bounds(d, seed):
    pert = sample_perturbation(d, np.random.default_rng(seed))
    off = pert.delta[~np.eye(d, dtype=bool)]
    assert np.all(off >= 0.025) and np.all(off <= 0.051)
    assert np.all(np.diag(pert.delta) == 0.0)


@given(st_state())
def test_json_round_trip(state):
    back = state_from_json(state_to_json(state))
    assert back.l == state.l
    assert_allclose(back.amps, state.amps, atol=1e-12)


def test_json_round_trip_with_perturbation():
    state = make_state((-3, 0, 3), np.ones(3))
    delta = np.zeros((3, 3))
    delta[0, 1] = 0.03
    pert = SubspacePerturbation(delta)
    back = state_from_json(state_to_json(state, pert))
    assert_allclose(back.amps, inject_subspace(state, pert).amps, atol=1e-12)


def test_json_rejects_unknown_keys():
    doc = state_to_json(make_state((0, 1), [1, 1]))
    doc["extra"] = True
    with pytest.raises(ValueError):
        state_from_json(doc)


@pytest.mark.parametrize("key", ["d", "l", "c"])
def test_json_rejects_a_missing_key(key):
    doc = state_to_json(make_state((-1, 0, 1), np.ones(3)))
    del doc[key]
    with pytest.raises(ValueError, match=f"missing state key: {key}"):
        state_from_json(doc)


@pytest.mark.parametrize("key", ["l", "c"])
def test_json_rejects_an_l_or_c_whose_length_is_not_d(key):
    doc = state_to_json(make_state((-1, 0, 1), np.ones(3)))
    doc[key] = doc[key][:2]
    with pytest.raises(ValueError, match=f"{key} length must equal d"):
        state_from_json(doc)


def test_json_rejects_a_perturbation_that_is_not_d_by_d():
    doc = state_to_json(make_state((-1, 0, 1), np.ones(3)))
    doc["perturbation"] = [[0.0, 0.03], [0.03, 0.0]]
    with pytest.raises(ValueError, match="perturbation must be d x d"):
        state_from_json(doc)


def test_json_names_a_ragged_perturbation_row():
    doc = {"d": 3, "l": [-1, 0, 1], "c": [[1, 0]] * 3,
           "perturbation": [[0, 0, 0], [0, 0], [0, 0, 0]]}
    with pytest.raises(ValueError, match=re.escape(
            "malformed state document: perturbation row 1 holds 2 numbers, "
            "not 3")):
        state_from_json(doc)


@pytest.mark.parametrize("doc", [5, "state", None])
def test_json_rejects_a_document_that_is_not_an_object(doc):
    with pytest.raises(ValueError, match="must be a JSON object"):
        state_from_json(doc)


@pytest.mark.parametrize("d", [3.7, 3.0, True, "3", None, [3]])
def test_json_rejects_a_d_that_is_not_an_integer(d):
    doc = state_to_json(make_state((-1, 0, 1), [1, 1, 1]))
    doc["d"] = d
    with pytest.raises(ValueError,
                       match=re.escape(f"d must be an integer, got {d!r}")):
        state_from_json(doc)


@pytest.mark.parametrize("bad", [
    {"l": [True, False, "2"], "c": [[1, 0], [1, 0], [True, 0]]},
    {"l": [True, 0, 1]},
    {"l": [-1, "0", 1]},
    {"c": [[1, 0], [1, 0], [True, 0]]},
    {"c": [[1, 0], [1, "0"], [1, 0]]},
    {"c": [[1, 0], [1, 0], ["1", 0]]},
    {"perturbation": [[0, True, 0], [0, 0, 0], [0, 0, 0]]},
    {"perturbation": [[0, "0.03", 0], [0, 0, 0], [0, 0, 0]]},
], ids=["bools-and-strings", "l-bool", "l-string", "c-bool", "c-imag-string",
        "c-real-string", "perturbation-bool", "perturbation-string"])
def test_json_rejects_booleans_and_strings_as_numbers(bad):
    doc = {"d": 3, "l": [-1, 0, 1], "c": [[1, 0], [1, 0], [1, 0]], **bad}
    with pytest.raises(ValueError, match="expected a real number, got"):
        state_from_json(doc)


def test_json_accepts_integers_and_floats_as_numbers():
    doc = {"d": 3, "l": [-1, 0.0, 1], "c": [[1, 0], [1.0, 0.0], [1, 0]],
           "perturbation": [[0, 0.03, 0], [0, 0, 0], [0, 0, 0]]}
    assert state_from_json(doc).l == (-1, 0, 1)


def test_save_load(tmp_path):
    path = tmp_path / "state.json"
    state = make_state((-1, 0, 1), [1, 2j, -1])
    save_state(path, state)
    back = load_state(path)
    assert isinstance(back, QuditState)
    assert_allclose(back.amps, state.amps, atol=1e-12)


def _one_pair_short(text):
    doc = json.loads(text)
    doc["c"].pop()
    return json.dumps(doc)


@pytest.mark.parametrize("cut, message", [
    (lambda text: text[:len(text) // 2], "Expecting"),
    (_one_pair_short, "c length must equal d"),
])
def test_load_state_names_the_file_it_refuses(tmp_path, cut, message):
    # a truncated file, and a document whose c is one pair short
    path = tmp_path / "state.json"
    save_state(path, make_state((-1, 0, 1), np.ones(3)))
    path.write_text(cut(path.read_text()))
    with pytest.raises(ValueError) as info:
        load_state(path)
    assert str(info.value).startswith(f"{path}: ")
    assert message in str(info.value)


def test_save_refuses_a_perturbed_state_without_its_perturbation(tmp_path):
    # the document stores the diagonal c, so the off-diagonal amplitudes
    # would be lost; saved as the clean state plus its perturbation, the
    # perturbed state reloads whole
    state = make_state((-1, 0, 1), np.ones(3))
    pert = sample_perturbation(3, np.random.default_rng(0))
    bumped = inject_subspace(state, pert)
    path = tmp_path / "state.json"
    with pytest.raises(ValueError, match="off-diagonal amplitudes"):
        save_state(path, bumped)
    assert not path.exists()
    save_state(path, state, pert)
    assert_allclose(load_state(path).amps, bumped.amps, rtol=0, atol=1e-15)
