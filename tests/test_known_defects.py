"""The defect ledger: each open correctness defect as a strict xfail.

Each case asserts the right answer, and its reason names the ROADMAP item
that owns the defect.  A change that mends a case drops its marker; a case
that starts to pass by accident fails the suite, so an unplanned move of a
known-wrong value is told apart from a fix.
"""

import numpy as np
import pytest

from topospec.fields import TripleSpec
from topospec.invariants import _LABEL_SPECS, QUAD_TOL
from topospec.spectrum import evaluate_map
from topospec.states import inject_subspace, make_state, sample_perturbation


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1: a folded perturbed "
                   "map is misread near its m = 0 points and flagged converged")
def test_perturbed_fold_is_not_reported_converged():
    state = inject_subspace(make_state((-3, 1, 4), np.ones(3)),
                            sample_perturbation(3, np.random.default_rng(0)))
    assert not evaluate_map(state, _LABEL_SPECS["457"]).converged


@pytest.mark.xfail(strict=True, reason="ROADMAP item 2: the closed forms' "
                   "tie latitude assumes equal amplitudes")
def test_skewed_closed_form_agrees_with_the_quadrature_or_is_absent():
    e = evaluate_map(make_state((-3, 0, 3), (1, 2, 3)), _LABEL_SPECS["453"])
    assert e.analytic is None or abs(e.analytic - e.glued) <= QUAD_TOL


@pytest.mark.xfail(strict=True, reason="ROADMAP item 3: the probe classifier "
                   "calls a sphere a disk and glues it")
def test_skewed_673_is_a_sphere_at_minus_one():
    e = evaluate_map(make_state((-1, 0, 1), (1, 2, 3)), _LABEL_SPECS["673"])
    assert e.map_class == "sphere" and abs(e.glued + 1.0) <= QUAD_TOL


@pytest.mark.xfail(strict=True, reason="ROADMAP item 4: only the radial "
                   "grid is refined, so a map unresolved in phi reads converged")
def test_unresolved_azimuthal_map_is_flagged_or_whole():
    e = evaluate_map(make_state((-2, -1, 0, 1, 2), np.ones(5)),
                     TripleSpec((1, 7, 10)))
    assert not e.converged or abs(e.glued - 1.0) <= QUAD_TOL
