"""Generator-basis construction and nice-pair tests."""

import numpy as np
import pytest
from hypothesis import given, strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from topospec.basis import build_basis, nice_pairs

st_d = st.integers(2, 6)


@given(st_d)
def test_basis_count(d):
    assert len(build_basis(d)) == d * d - 1


def test_a_basis_needs_two_modes():
    with pytest.raises(ValueError, match="^need d >= 2$"):
        build_basis(1)


@given(st_d)
def test_basis_hermitian_traceless(d):
    for b in build_basis(d):
        assert_allclose(b.matrix, b.matrix.conj().T)
        assert abs(np.trace(b.matrix)) < 1e-12


@given(st_d)
def test_basis_orthonormality(d):
    mats = [b.matrix for b in build_basis(d)]
    gram = np.array([[np.trace(a @ b).real for b in mats] for a in mats])
    assert_allclose(gram, 2.0 * np.eye(len(mats)), atol=1e-12)


def test_d2_is_pauli_triple():
    x, y, z = (b.matrix for b in build_basis(2))
    assert_array_equal(x, np.array([[0, 1], [1, 0]]))
    assert_array_equal(y, np.array([[0, -1j], [1j, 0]]))
    assert_array_equal(z.real, np.array([[1, 0], [0, -1]]))


def test_d3_printed_order():
    basis = build_basis(3)
    kinds = [b.kind for b in basis]
    assert kinds == ["sym", "asym", "diag", "sym", "asym", "sym", "asym", "diag"]
    assert basis[2].matrix[0, 0].real == 1.0        # first diagonal at slot 3
    assert_allclose(basis[7].matrix.real * np.sqrt(3.0),
                    np.diag([1.0, 1.0, -2.0]), atol=1e-12)
    assert [b.modes for b in basis if b.kind != "diag"] == \
        [(0, 1), (0, 1), (0, 2), (0, 2), (1, 2), (1, 2)]


def test_nice_pairs_d3():
    assert nice_pairs(3) == [(1, 2), (4, 5), (6, 7)]


@given(st_d)
def test_nice_pairs_cover_every_mode_pair(d):
    pairs = nice_pairs(d)
    assert len(pairs) == d * (d - 1) // 2
    basis = build_basis(d)
    for sym_idx, asym_idx in pairs:
        assert basis[sym_idx - 1].kind == "sym"
        assert basis[asym_idx - 1].kind == "asym"
        assert basis[sym_idx - 1].modes == basis[asym_idx - 1].modes


@given(st_d)
def test_cartan_weyl_split(d):
    basis = build_basis(d)
    assert sum(b.kind == "diag" for b in basis) == d - 1
    pairs = nice_pairs(d)
    assert len(pairs) == d * (d - 1) // 2
    for sym_idx, asym_idx in pairs:
        # the pair is E + E^dag and -i(E - E^dag) for the root E = |i><j|
        e = np.zeros((d, d), dtype=complex)
        e[basis[sym_idx - 1].modes] = 1.0
        assert_allclose(basis[sym_idx - 1].matrix, e + e.conj().T)
        assert_allclose(basis[asym_idx - 1].matrix, -1j * (e - e.conj().T))


def test_build_basis_is_built_once_and_read_only():
    basis = build_basis(4)
    assert isinstance(basis, tuple)
    assert build_basis(4) is basis
    for b in basis:
        assert not b.matrix.flags.writeable
    with pytest.raises(ValueError):
        basis[0].matrix[0, 1] = 2.0
