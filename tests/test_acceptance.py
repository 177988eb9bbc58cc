"""Acceptance criteria: one test per criterion, tolerances as stated.

Each test prints a single summary line once its assertions pass, so a
verbose run shows one pass/fail verdict per criterion.  Runtime-bounded
criteria assert their own elapsed time.  The per-machine wrinkle: this
box exposes a single core, so the two stated multi-core budgets are
checked by measuring the full workload here (d=5) and a timed random
sample scaled to the full census and the stated core count (d=7).
"""

import csv
import time
from itertools import permutations
from pathlib import Path
from statistics import median

import numpy as np
from numpy.testing import assert_allclose

from topospec import (CANONICAL_LABELS, GridSpec, TripleSpec, accidental_predict,
                      canonical_field, compute_spectrum, default_workers,
                      dependency_scan, enumerate_triples, independent_count,
                      inject_subspace, make_state, metrics,
                      monopole_charge_area, monopole_charge_planar,
                      projection_count, projection_set, read_spectrum_values,
                      reconstruct, similarity, simulate_coincidences,
                      singularity_class_label,
                      triple_count, triple_field, wrapping_analytic_d3,
                      wrapping_analytic_usual, wrapping_numeric)
from topospec.states import SubspacePerturbation

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def _report(n: int, text: str) -> None:
    print(f"ACCEPTANCE {n:2d} PASS: {text}")


def _grid_for(l, n_r: int = 256) -> GridSpec:
    spread = max(l) - min(l)
    return GridSpec(n_r=n_r, n_phi=16 * max(1, spread))


def _analytic_vector(l) -> np.ndarray:
    return np.array([wrapping_analytic_d3(lab, l).glued
                     for lab in CANONICAL_LABELS])


def _canonical_spectrum(l, c=None, **kwargs):
    state = make_state(l, np.ones(3) if c is None else c)
    kwargs.setdefault("grid", _grid_for(l))
    kwargs.setdefault("workers", 1)
    return compute_spectrum(state, "canonical18", **kwargs)


def test_criterion_01_qubit_ladder():
    t0 = time.perf_counter()
    targets = []
    for n in range(1, 16):
        targets += [((n, 0), n), ((-n, 0), -n)]
    assert len(targets) == 30
    seen = set()
    for (l0, l1), expected in targets:
        analytic = wrapping_analytic_usual((l0, l1), (0, 1)).glued
        assert analytic == expected
        state = make_state((l0, l1), np.ones(2))
        field = triple_field(state, TripleSpec((1, 2, 3)))
        res = wrapping_numeric(field, _grid_for((l0, l1)))
        assert abs(res.glued - expected) < 0.02, (l0, l1)
        seen.add(expected)
    elapsed = time.perf_counter() - t0
    assert {-1, 5, -8} <= seen
    assert elapsed < 30.0
    _report(1, f"30 ladder states within 0.02, |N| up to 15, "
               f"{elapsed:.1f}s < 30s")


def test_criterion_02_qutrit_exemplar():
    l = (-1, 0, 1)
    assert wrapping_analytic_d3("123", l).glued == -1.0
    sp = _canonical_spectrum(l, grid=GridSpec(n_r=512))
    e123 = sp.entry("123")
    assert abs(e123.glued - (-1.0)) < 0.05
    assert e123.map_class == "sphere"
    e124 = sp.entry("124")
    assert abs(abs(e124.raw) - 0.5) < 0.05          # half-integer raw
    assert abs(abs(e124.glued) - 1.0) < 0.05
    assert e124.map_class == "disk"
    assert sp.entry("453").map_class == "disk"
    _report(2, "(-1,0,1): 123 = -1 (sphere), 124 raw half-integer, "
               "glued magnitude 1, 124/453 disk-class")


def test_criterion_03_oracle_equivalence_sweep():
    t0 = time.perf_counter()
    positions = list(permutations(range(-4, 5), 3))
    assert len(positions) == 504
    workers = default_workers()
    worst = 0.0
    n_singular = 0
    n_singular_converged = 0
    for l in positions:
        sp = _canonical_spectrum(l, workers=workers)
        gap = np.abs(sp.values("glued") - sp.values("analytic"))
        worst = max(worst, float(gap.max()))
        assert gap.max() < 0.05, (l, sp.labels[int(gap.argmax())])
        for e in sp.entries:
            if e.singular:
                n_singular += 1
                n_singular_converged += e.converged
    elapsed = time.perf_counter() - t0
    assert n_singular > 0
    assert n_singular_converged / n_singular >= 0.95
    assert elapsed < 600.0
    _report(3, f"504 positions x 18 maps within 0.05 (worst {worst:.4f}), "
               f"{n_singular_converged}/{n_singular} singular converged, "
               f"{elapsed:.0f}s < 600s")


def test_criterion_04_counting_and_large_censuses():
    assert triple_count(3) == len(enumerate_triples(3, "full")) == 56
    assert triple_count(5) == 2024
    assert triple_count(7) == len(enumerate_triples(7, "full")) == 17296
    assert independent_count(3) == 9

    # d = 5: the full census, measured outright
    state5 = make_state((-2, -1, 0, 1, 2), np.ones(5))
    t0 = time.perf_counter()
    sp5 = compute_spectrum(state5, "full", workers=default_workers())
    t5 = time.perf_counter() - t0
    assert len(sp5.entries) == 2024
    assert t5 < 900.0

    # d = 7: a timed random sample scaled to the census on 8 cores
    state7 = make_state((-3, -2, -1, 0, 1, 2, 3), np.ones(7))
    triples = enumerate_triples(7, "full")
    rng = np.random.default_rng(17)
    sample = [triples[k] for k in rng.choice(len(triples), 400, replace=False)]
    grid = GridSpec(n_r=256)
    t0 = time.perf_counter()
    for spec in sample:
        field = triple_field(state7, spec)
        wrapping_numeric(field, grid)
    per_map = (time.perf_counter() - t0) / len(sample)
    t7_8core = per_map * len(triples) / 8.0
    assert t7_8core < 900.0
    _report(4, f"counts 56/2024/17296, 9 independents; d=5 full in {t5:.0f}s, "
               f"d=7 projected {t7_8core:.0f}s on 8 cores < 900s")


def test_criterion_05_dependency_structure():
    rep = dependency_scan(10)
    assert rep.rank == 9
    assert rep.n_samples == 7980
    for rel in rep.relations + rep.pairwise:
        assert rel.holds and rel.max_residual == 0.0, rel.name
    _report(5, "rank 9 over [-10,10]^3; 3 relations and 6 identities "
               "exact on all 7980 samples")


def test_criterion_06_scaling_law():
    a1 = _analytic_vector((-1, 0, 1))
    a3 = _analytic_vector((-3, 0, 3))
    assert_allclose(a3, 3.0 * a1, atol=1e-12)
    n1 = _canonical_spectrum((-1, 0, 1)).values("glued")
    n3 = _canonical_spectrum((-3, 0, 3)).values("glued")
    assert np.max(np.abs(n3 - 3.0 * n1)) < 0.1
    _report(6, "(-3,0,3) = 3 x (-1,0,1) entrywise (analytic exact, "
               "numeric within 0.1)")


def test_criterion_07_singularity_classifier():
    rng = np.random.default_rng(23)
    phi = (np.arange(128) + 0.5) * (2.0 * np.pi / 128)
    agree = 0
    for _ in range(50):
        label = CANONICAL_LABELS[rng.integers(len(CANONICAL_LABELS))]
        l = tuple(rng.choice(np.arange(-4, 5), 3, replace=False).tolist())
        state = make_state(l, np.ones(3))
        field = canonical_field(state, label)
        levels = []
        for r in (1e-3, 1e-2):
            s, sr, sp = field.unit(np.array([r]), phi, fix=False)
            dens = np.sum(s * np.cross(sr, sp, axis=0), axis=0)[0]
            levels.append(float(np.median(np.abs(dens))) / r)
        probed = levels[0] > 3.0 * levels[1] and levels[0] > 1e-6
        agree += probed == singularity_class_label(label, l)
    assert agree == 50
    _report(7, "probe of the planar integrand growth matches the "
               "classifier on 50/50 random cases")


def test_criterion_08_accidental_invariants():
    for l in ((1, 2, 2), (1, 4, 2), (1, 4, 6)):
        assert accidental_predict(l, (1, 3, 5)) == -1.0
        state = make_state(l, np.ones(3))
        field = triple_field(state, TripleSpec((1, 3, 5)))
        res = wrapping_numeric(field, _grid_for(l))
        assert abs(res.glued - (-1.0)) < 0.05, l
    _report(8, "triple (1,3,5) integrates to -1 within 0.05 at all three "
               "degenerate charge choices")


def test_criterion_09_coefficient_invariance():
    sp_max = _canonical_spectrum((-3, 0, 3))
    sp_non = _canonical_spectrum((-3, 0, 3), c=[0.3333, 0.2857, 0.3810])
    cos = similarity(sp_max.values("analytic"), sp_non.values("analytic")).cosine
    assert abs(cos - 1.0) < 1e-6
    gap = np.max(np.abs(sp_max.values("glued") - sp_max.values("analytic")))
    assert gap < 0.05
    # The tie-breaking latitude of the mixed-ladder disk maps moves with the
    # amplitude balance, so the skewed state is grounded against the clean
    # numeric column rather than the equal-amplitude closed form.
    cos_num = similarity(sp_max.values("glued"), sp_non.values("glued")).cosine
    assert cos_num > 0.999
    _report(9, f"maximally vs non-maximally entangled (-3,0,3): closed-form "
               f"spectra at cosine 1.000 within 1e-6 "
               f"(numeric columns {cos_num:.5f})")


def test_criterion_10_emergence_of_topology():
    l = (-1, 0, 1)
    base = make_state(l, np.ones(3))
    delta = np.zeros((3, 3))
    delta[1, 0] = 0.04
    assert 0.025 <= delta[1, 0] <= 0.051
    perturbed = inject_subspace(base, SubspacePerturbation(delta))
    grid = GridSpec(n_r=8192)
    sp = compute_spectrum(perturbed, "canonical18", grid=grid, workers=1,
                          max_doublings=3)
    assert not sp.non_converged
    analytic = _analytic_vector(l)
    glued = sp.values("glued")
    was_trivial = np.abs(analytic) < 1e-12
    emergent = np.abs(glued[was_trivial]) > 0.1
    assert emergent.any()
    stable_gap = np.max(np.abs(glued[~was_trivial] - analytic[~was_trivial]))
    assert stable_gap < 0.1
    cos = similarity(analytic, glued).cosine
    assert cos < 0.9999
    labels = np.array(CANONICAL_LABELS)
    names = ", ".join(labels[was_trivial][emergent])
    _report(10, f"injection 0.04 wakes {names} above 0.1, keeps nonzero "
                f"entries within {stable_gap:.3f}, cosine {cos:.4f} < 1")


def test_criterion_11_monopole_identity():
    rng = np.random.default_rng(29)
    n = 48
    span = np.linspace(-1.5, 1.5, n)
    dx = span[1] - span[0]
    xx, yy = np.meshgrid(span, span, indexing="ij")
    worst = 0.0
    for _ in range(20):
        field = np.empty((3, n, n))
        for k in range(3):
            field[k] = (rng.normal() * np.sin(2 * xx + rng.normal())
                        + rng.normal() * np.cos(yy + rng.normal())
                        + rng.normal() * xx * yy)
        field /= np.sqrt(np.sum(field * field, axis=0))
        gap = abs(monopole_charge_planar(field, dx, dx)
                  - monopole_charge_area(field, dx, dx))
        worst = max(worst, gap)
        assert gap < 1e-12
    _report(11, f"both charge discretizations agree on 20 random fields "
                f"(worst gap {worst:.1e} < 1e-12)")


def test_criterion_12_tomography_round_trip():
    assert projection_count(2) ** 2 == 36
    assert projection_count(3) ** 2 == 225
    for d, l in ((2, (0, 1)), (3, (-1, 0, 1))):
        state = make_state(l, np.ones(d))
        pset = projection_set(d, l)
        assert pset.projectors.shape == (projection_count(d), d)
        vec = np.asarray(state.amps, dtype=complex).reshape(-1)
        target = np.outer(vec, vec.conj())

        C = simulate_coincidences(state, pset, noise=None)
        noiseless_f = metrics(target, reconstruct(C, pset).rho).fidelity
        assert noiseless_f > 0.999

        fids = []
        for seed in range(20):
            C = simulate_coincidences(state, pset, total_counts=1e4,
                                      noise="poisson",
                                      rng=np.random.default_rng(seed))
            fids.append(metrics(target, reconstruct(C, pset).rho).fidelity)
        assert median(fids) > 0.9, d
    _report(12, "noiseless F > 0.999 and Poisson-1e4 median F > 0.9 over "
                "20 seeds for d = 2 and 3; census sizes 36 and 225")


def test_criterion_13_similarity_fixtures():
    targets = {
        (-1, 0, 1): (0.92, 0.98),
        (-3, 0, 3): (0.93, 0.99),
        (-5, 4, 5): (0.78, 0.99),
    }
    achieved = []
    for l, (res_t, cos_t) in targets.items():
        path = FIXTURES / "measured_{}_{}_{}.csv".format(*l)
        labels, values = read_spectrum_values(path)
        assert labels == CANONICAL_LABELS
        scores = similarity(_analytic_vector(l), values)
        assert abs(scores.residual - res_t) < 0.01, l
        assert abs(scores.cosine - cos_t) < 0.01, l
        achieved.append(f"({scores.residual:.3f}, {scores.cosine:.3f})")
    _report(13, "fixtures score " + ", ".join(achieved)
               + " against (0.92,0.98), (0.93,0.99), (0.78,0.99)")
