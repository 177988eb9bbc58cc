"""State construction, perturbation, and serialization tests."""

import re

import numpy as np
import pytest
from hypothesis import given, strategies as st
from numpy.testing import assert_allclose

from topospec.states import (QuditState, SubspacePerturbation, inject_subspace,
                             load_state, make_state, radial_profile,
                             sample_perturbation, save_state, state_from_json,
                             state_to_json)

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


def test_make_state_accepts_whole_float_charges():
    assert make_state((-1.0, 0.0, 2.0), np.ones(3)).l == (-1, 0, 2)


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


def test_save_load(tmp_path):
    path = tmp_path / "state.json"
    state = make_state((-1, 0, 1), [1, 2j, -1])
    save_state(path, state)
    back = load_state(path)
    assert isinstance(back, QuditState)
    assert_allclose(back.amps, state.amps, atol=1e-12)
