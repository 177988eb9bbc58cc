"""The defect ledger: each open correctness defect as a strict xfail.

Each case asserts the right answer, and its reason names the ROADMAP item
that owns the defect.  A change that mends a case drops its marker; a case
that starts to pass by accident fails the suite, so an unplanned move of a
known-wrong value is told apart from a fix.
"""

import numpy as np
import pytest

from topospec.fields import TripleSpec
from topospec.invariants import QUAD_TOL
from topospec.spectrum import RELATIONS, evaluate_map
from topospec.states import inject_subspace, make_state, sample_perturbation


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1: a folded perturbed "
                   "map is misread near its m = 0 points and flagged converged")
def test_perturbed_fold_is_not_reported_converged():
    state = inject_subspace(make_state((-3, 1, 4), np.ones(3)),
                            sample_perturbation(3, np.random.default_rng(0)))
    assert not evaluate_map(state, TripleSpec.parse("457")).converged


@pytest.mark.xfail(strict=True, reason="ROADMAP item 2: the closed forms' "
                   "tie latitude assumes equal amplitudes")
def test_skewed_closed_form_agrees_with_the_quadrature_or_is_absent():
    e = evaluate_map(make_state((-3, 0, 3), (1, 2, 3)), TripleSpec.parse("453"))
    assert e.analytic is None or abs(e.analytic - e.glued) <= QUAD_TOL


@pytest.mark.xfail(strict=True, reason="ROADMAP item 3: the probe classifier "
                   "calls a sphere a disk and glues it")
def test_skewed_673_is_a_sphere_at_minus_one():
    e = evaluate_map(make_state((-1, 0, 1), (1, 2, 3)), TripleSpec.parse("673"))
    assert e.map_class == "sphere" and abs(e.glued + 1.0) <= QUAD_TOL


@pytest.mark.xfail(strict=True, reason="ROADMAP item 4: only the radial "
                   "grid is refined, so a map unresolved in phi reads converged")
def test_unresolved_azimuthal_map_is_flagged_or_whole():
    e = evaluate_map(make_state((-2, -1, 0, 1, 2), np.ones(5)),
                     TripleSpec((1, 7, 10)))
    assert not e.converged or abs(e.glued - 1.0) <= QUAD_TOL


# Spectra of ROADMAP item 23's draw (one default_rng(1) over 60 clean, 60
# unequal and 60 complex d = 3 states) that break a linear relation by a
# whole number with the relation's three maps flagged converged; c is the
# drawn state's unit amplitudes.
RELATION_CASES = {
    "unequal (0, 2, -3)": (
        (0, 2, -3),
        (0.5716276571274885, 0.8118425930045673, 0.11896817133401232),
        "67* + 451 - 124"),
    "unequal (2, -3, 4)": (
        (2, -3, 4),
        (0.6772793536420201, 0.2010598170059637, 0.7077200202875257),
        "123 - 456 + 674"),
    "complex (-4, -1, 2)": (
        (-4, -1, 2),
        (-0.637859461203332 - 0.7199191581065147j,
         -0.24773998035961367 - 0.0834726245189219j,
         0.02200758074009749 - 0.07761831627851257j),
        "67* + 451 - 124"),
    "unequal (3, 0, -1)": (
        (3, 0, -1),
        (0.8226809131216244, 0.5434855023545319, 0.1667921578366697),
        "67* + 451 - 124"),
    "unequal (2, 3, 0)": (
        (2, 3, 0),
        (0.697383502516371, 0.21463777422741442, 0.6838032438448214),
        "123 - 456 + 674"),
    "unequal (1, -4, 0)": (
        (1, -4, 0),
        (0.21863574002398362, 0.553456269367895, 0.8036694414257253),
        "671 - 45* - 126"),
    "unequal (-1, 0, 1)": (
        (-1, 0, 1),
        (0.33371668747770894, 0.8935198649375763, 0.3004254041535774),
        "67* + 451 - 124"),
    "complex (-3, 3, 2)": (
        (-3, 3, 2),
        (-0.1401400055218917 - 0.013427862702584701j,
         -0.043892829865482444 - 0.6380087967663869j,
         -0.5361682329909659 + 0.5326558851848132j),
        "671 - 45* - 126"),
    "complex (-4, 0, 3)": (
        (-4, 0, 3),
        (-0.050899188571503315 - 0.24157945279773452j,
         -0.40341181632583867 - 0.1401850777434617j,
         -0.5708075719601485 - 0.656379773308423j),
        "671 - 45* - 126"),
    "complex (-2, 0, -1)": (
        (-2, 0, -1),
        (0.05262226146463326 - 0.22988144320949813j,
         0.5008523279332959 - 0.3160276478545163j,
         -0.4642665017258708 - 0.6149109743994069j),
        "671 - 45* - 126"),
    "complex (-4, -3, -1)": (
        (-4, -3, -1),
        (0.19945754471928498 - 0.13606959638066574j,
         0.7657709365535963 - 0.3037759615941106j,
         0.3475087302949017 - 0.37716637317181906j),
        "123 - 456 + 674"),
}


@pytest.mark.xfail(strict=True, reason="ROADMAP items 3 and 23: the probe "
                   "classifier reads a nice pair with a diagonal third as a "
                   "disk, so a linear relation breaks by a whole number")
@pytest.mark.parametrize("case", RELATION_CASES)
def test_relation_holds_on_a_diagonal_amplitude_spectrum(case):
    l, c, relation = RELATION_CASES[case]
    state = make_state(l, c)
    residual = sum(k * evaluate_map(state, TripleSpec.parse(label)).glued
                   for label, k in dict(RELATIONS)[relation])
    assert abs(residual) <= 0.05
