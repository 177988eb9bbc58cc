"""Tests of the benchmark itself: metric names, output checks, seeding, tracing."""

import json
import re
import time
from pathlib import Path

import numpy as np
import pytest

import topospec.spectrum as spectrum
import topospec.states as states
from topospec.fields import GridSpec, TripleSpec, classify_map, triple_field
from topospec.invariants import (CANONICAL_LABELS, wrapping_analytic_d3,
                                 wrapping_analytic_triple)
from topospec.spectrum import SpectrumEntry, TopologicalSpectrum

from perfbench import harness, tracing
from perfbench import workloads as wl

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent
                        / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]*")


def test_metric_names_are_valid_and_match_the_harness():
    declared = BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]
    for m in declared:
        assert NAME.fullmatch(m["name"]) and len(m["name"]) <= 64, m
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", m["unit"]), m
    assert len({m["name"] for m in declared}) == len(declared)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == harness.END_TO_END
    assert ({m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
            == {k: unit for k, (unit, _) in tracing.LAYER_METRICS.items()})
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(wl.WORKLOADS)


def _exact_spectrum(l):
    entries = []
    for label in CANONICAL_LABELS:
        v = wrapping_analytic_d3(label, l).glued
        entries.append(SpectrumEntry(label, "sphere", v, v + 1e-3, v,
                                     False, abs(v) < 0.1, True, 1e-4))
    return TopologicalSpectrum(3, "canonical18", tuple(entries))


def test_output_check_rejects_one_entry_shifted_by_a_tenth():
    l = (-1, 0, 1)
    spec = _exact_spectrum(l)
    sweep = wl.WORKLOADS["canonical-sweep"]
    good = sweep.judge([(l, spec)])
    assert not good.problems and good.failed_operations == 0

    entries = list(spec.entries)
    e = entries[5]
    entries[5] = SpectrumEntry(e.triple_label, e.map_class, e.raw, e.glued + 0.1,
                               e.analytic, e.singular, e.trivial, e.converged,
                               e.quadrature_error)
    bad = sweep.judge([(l, TopologicalSpectrum(3, "canonical18", tuple(entries)))])
    assert bad.failed_units == 1 and bad.failed_operations == 1
    assert e.triple_label in bad.problems[0]


def test_output_check_rejects_a_census_out_of_order():
    l = (-1, 0, 1)
    spec = _exact_spectrum(l)
    out = wl.Outcome()
    wl.judge_closed_forms(spec, list(reversed(CANONICAL_LABELS)), "x", out)
    assert out.problems


@pytest.mark.parametrize("name", ["canonical-sweep", "census-d4", "tomo-run"])
def test_seed_changes_seeded_inputs(name):
    w = wl.WORKLOADS[name]
    n = 6
    assert w.draw(1, n) == w.draw(1, n)
    assert w.draw(1, n)[1:] != w.draw(2, n)[1:]


def test_seed_leaves_deps_scan_input_alone():
    w = wl.WORKLOADS["deps-scan"]
    assert w.draw(1, 3) == w.draw(2, 3) == [wl.DEPS_L_RANGE] * 3


def test_sweep_draws_the_anchor_then_one_position_per_cost_slice():
    positions = wl.WORKLOADS["canonical-sweep"].draw(7, 10)
    assert positions[0] == wl.SWEEP_ANCHOR
    assert len(set(positions)) == 10
    assert len(wl.SWEEP_BY_COST) == 503
    assert all(len(set(p)) == 3 and max(map(abs, p)) <= 4 for p in positions)
    assert wl.WORKLOADS["tomo-run"].draw(7, 3)[0] == wl.TOMO_ANCHOR_SEED


def test_traced_self_times_stay_within_the_traced_wall():
    rec = tracing.Recorder()
    original = spectrum.wrapping_numeric
    with tracing.traced(rec):
        t0 = time.perf_counter()
        state = states.make_state((-1, 0, 1), np.ones(3))
        spec = spectrum.compute_spectrum(state, "canonical18", workers=1,
                                         grid=GridSpec(n_r=16, n_phi=16))
        wall = time.perf_counter() - t0
    assert spectrum.wrapping_numeric is original
    assert len(spec.entries) == 18

    metrics = tracing.layer_metrics(rec, {"traced_wall": wall,
                                          "untraced_wall_1": wall,
                                          "untraced_wall_pool": wall,
                                          "workers": 2})
    assert metrics["invariants.wrapping_numeric.calls"][0] == 18
    assert metrics["fields.unit.calls"][0] > 0
    assert metrics["states.calls"][0] == 1
    self_times = {k: value for k, (value, _) in metrics.items()
                  if k.endswith("self_s") or k == "spectrum.artifacts_s"}
    assert all(0.0 <= v <= wall for v in self_times.values()), self_times
    assert sum(self_times.values()) == pytest.approx(wall, rel=1e-9)


def _census_spectrum(l, shift):
    """Closed-form census entries of a clean d = 4 state; shift[label] moves
    an entry's glued value by that much and calls its map a disk."""
    entries = []
    for label, indices in zip(wl.CENSUS_LABELS, wl.CENSUS_INDICES):
        ana = wrapping_analytic_triple(l, indices, 4)
        v = 0.0 if ana is None else ana.glued
        kind = "disk" if label in shift else "sphere"
        entries.append(SpectrumEntry(label, kind, v, v + shift.get(label, 0.0),
                                     None if ana is None else v,
                                     False, abs(v) < 0.1, True, 1e-4))
    return TopologicalSpectrum(4, "full", tuple(entries))


def test_census_draw_keeps_the_spread_mix_and_reaches_every_ordering():
    census = wl.WORKLOADS["census-d4"]
    seen = set()
    for seed in range(200):
        drawn = census.draw(seed, 5)
        assert sorted(max(p) - min(p) for p in drawn) == [3, 3, 4, 4, 4]
        seen.update(drawn)
    assert seen == set(wl.CENSUS_BY_SPREAD[3] + wl.CENSUS_BY_SPREAD[4])
    assert len(seen) == 120
    assert any(p in wl.CENSUS_CLASSIFIER_MISSES for p in census.draw(1, 2))


def test_census_classifier_misses_count_as_failed_operations_only_where_known():
    census = wl.WORKLOADS["census-d4"]
    known, other = (-2, -1, 1, 0), (-2, -1, 2, 1)
    assert known in wl.CENSUS_CLASSIFIER_MISSES
    assert other not in wl.CENSUS_CLASSIFIER_MISSES
    doubled = {"3-4-15": -3.0}      # the defect: a sphere map glued as a disk
    assert wrapping_analytic_triple(known, (3, 4, 15), 4).glued == -3.0

    out = census.judge([(known, _census_spectrum(known, doubled))])
    assert not out.problems and out.failed_units == 0
    assert out.failed_operations == 1 and len(out.known_misses) == 1
    assert max(out.gaps) < wl.GAP_BOUND

    label = next(lab for lab, idx in zip(wl.CENSUS_LABELS, wl.CENSUS_INDICES)
                 if wrapping_analytic_triple(other, idx, 4) is not None)
    out = census.judge([(other, _census_spectrum(other, {label: 0.1}))])
    assert out.failed_units == 1 and label in out.problems[0]


@pytest.mark.xfail(strict=True,
                   reason="classify_map calls these sphere maps disk and doubles "
                          "the glued value (ROADMAP item 3); census-d4 counts "
                          "such misses as failed operations")
def test_spread3_census_classifier_defect():
    l = (-2, -1, 1, 0)
    state = states.make_state(l, np.ones(4))
    for indices in ((1, 2, 15), (3, 4, 15)):
        field = triple_field(state, TripleSpec(indices))
        assert (classify_map(field, GridSpec()).kind
                == wrapping_analytic_triple(l, indices, 4).kind == "sphere")


def test_run_all_fails_when_a_workload_is_killed(monkeypatch, capsys):
    def killed(cmd, **kwargs):
        return harness.subprocess.CompletedProcess(cmd, -9, stdout="")
    monkeypatch.setattr(harness.subprocess, "run", killed)
    args = harness.parse_args(["--workload", "all", "--seed", "0", "--seconds", "1"])
    assert harness.run_all(args) == 1
    assert set(json.loads(capsys.readouterr().out).values()) == {None}


def test_refuses_a_host_with_fewer_cores_than_workers(monkeypatch):
    monkeypatch.setattr(harness, "nproc", lambda: harness.POOL_WORKERS - 1)
    with pytest.raises(SystemExit) as exc:
        harness.parse_args(["--workload", "deps-scan", "--seed", "0", "--seconds", "1"])
    assert exc.value.code != 0
