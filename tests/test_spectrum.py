"""Census enumeration, spectrum assembly, dependences, and serialization."""

import contextlib
import faulthandler
import json
import multiprocessing
import os
import signal
import threading
import time
from collections import Counter
from xml.etree import ElementTree

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from topospec import fields, invariants, spectrum
from topospec.fields import GridSpec, TermField, TripleSpec
from topospec.invariants import (CANONICAL_LABELS, QUAD_TOL, canonical_field,
                                 singularity_class)
from topospec.spectrum import (PAIRWISE_IDENTITIES, RELATIONS,
                               compute_spectrum, dependency_scan,
                               enumerate_triples, evaluate_map,
                               independent_count,
                               normalize_mode, read_spectrum_values,
                               similarity, spectrum_to_dict, svg_bar_chart,
                               triple_count, write_spectrum_csv,
                               write_spectrum_json)
from topospec.states import inject_subspace, make_state, sample_perturbation
from topospec.tomography import DensityCoeffs

SMALL_GRID = GridSpec(n_r=256, n_phi=64)


def _spectrum_m101(**kwargs):
    state = make_state((-1, 0, 1), np.ones(3))
    return compute_spectrum(state, "canonical18", grid=SMALL_GRID,
                            workers=1, **kwargs)


def test_triple_counts():
    assert triple_count(3) == 56
    assert triple_count(5) == 2024
    assert triple_count(7) == 17296


def test_independent_counts():
    assert independent_count(2) == 1
    assert independent_count(3) == 9
    assert independent_count(4) == 42


def test_normalize_mode():
    assert normalize_mode(None, 3) == "canonical18"
    assert normalize_mode(None, 5) == "full"
    assert normalize_mode("canonical18", 3) == "canonical18"
    assert normalize_mode("full", 3) == "full"
    with pytest.raises(ValueError):
        normalize_mode("Canonical", 3)
    with pytest.raises(ValueError):
        normalize_mode("canonical18", 5)
    with pytest.raises(ValueError):
        normalize_mode("bogus", 3)


def test_enumerate_full_census():
    triples = enumerate_triples(3, "full")
    assert len(triples) == 56
    assert triples[0].indices == (1, 2, 3)
    assert triples[-1].indices == (6, 7, 8)


def test_enumerate_canonical_order():
    labels = [t.label for t in enumerate_triples(3, "canonical18")]
    assert labels == CANONICAL_LABELS


def test_spectrum_matches_analytic_column():
    sp = _spectrum_m101()
    assert sp.labels == CANONICAL_LABELS
    assert not sp.non_converged
    assert_allclose(sp.values("glued"), sp.values("analytic"), atol=0.05)
    assert len(sp.nontrivial) == 13


def test_photon_swap_negates():
    a = _spectrum_m101()
    b = _spectrum_m101(photon_swap=True)
    assert_allclose(b.values("glued"), -a.values("glued"), atol=1e-12)
    assert_allclose(b.values("analytic"), -a.values("analytic"), atol=1e-12)


def test_spectrum_entry_lookup():
    sp = _spectrum_m101()
    assert sp.entry("124").singular
    with pytest.raises(KeyError):
        sp.entry("999")


def test_dependency_scan_small():
    rep = dependency_scan(3)
    assert rep.rank == 9
    assert all(r.holds for r in rep.relations)
    assert all(r.holds for r in rep.pairwise)
    assert len(rep.relations) == len(RELATIONS) == 3
    assert len(rep.pairwise) == len(PAIRWISE_IDENTITIES) == 6


def test_dependency_scan_makes_no_per_sample_closed_form_calls(monkeypatch):
    def per_map(*args):
        raise AssertionError("per-map closed form called")
    monkeypatch.setattr(invariants, "_closed_form", per_map)
    rep = dependency_scan(3)
    assert rep.rank == 9 and rep.n_samples == 210
    assert all(r.holds for r in rep.relations + rep.pairwise)


def test_dependency_scan_rejects_small_range():
    with pytest.raises(ValueError):
        dependency_scan(2)


def test_similarity_identities():
    a = np.array([1.0, -2.0, 0.5, 0.0])
    same = similarity(a, a)
    assert_allclose((same.residual, same.cosine), (1.0, 1.0), atol=1e-12)
    scaled = similarity(a, 3.0 * a)
    assert_allclose(scaled.cosine, 1.0, atol=1e-12)
    assert scaled.residual < 1.0


def test_similarity_rejects_degenerate_input():
    with pytest.raises(ValueError):
        similarity(np.zeros(3), np.ones(3))
    with pytest.raises(ValueError):
        similarity(np.ones(3), np.ones(4))
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="finite"):
            similarity(np.array([1.0, bad, 0.5]), np.ones(3))
        with pytest.raises(ValueError, match="finite"):
            similarity(np.ones(3), np.array([1.0, 0.5, bad]))


@given(st.lists(st.floats(-5, 5), min_size=4, max_size=12))
@settings(max_examples=40)
def test_similarity_cosine_bounded(values):
    a = np.asarray(values)
    if np.sum(np.abs(a)) == 0:
        return
    s = similarity(a, a + 0.1)
    if np.sum(np.abs(a + 0.1)) == 0:
        return
    assert -1.0 - 1e-12 <= s.cosine <= 1.0 + 1e-12


def test_csv_round_trip(tmp_path):
    sp = _spectrum_m101()
    path = tmp_path / "spectrum.csv"
    write_spectrum_csv(sp, path)
    labels, values = read_spectrum_values(path)
    assert labels == CANONICAL_LABELS
    assert_allclose(values, sp.values("glued"), rtol=1e-10)


def test_value_csv_round_trip(tmp_path):
    path = tmp_path / "bare.csv"
    path.write_text("triple_label,value\n123,-1.5\n45*,0.25\n")
    labels, values = read_spectrum_values(path)
    assert labels == ["123", "45*"]
    assert_allclose(values, [-1.5, 0.25])


@pytest.mark.parametrize("l, mode, grid", [
    ((-4, -3, 4), "canonical18", SMALL_GRID),
    ((-2, -1, 1, 0), "full", GridSpec(n_r=64)),
])
def test_spectrum_independent_of_worker_count(l, mode, grid):
    state = make_state(l, np.ones(len(l)))
    one = compute_spectrum(state, mode, grid=grid, workers=1)
    two = compute_spectrum(state, mode, grid=grid, workers=2)
    assert one.entries == two.entries


def _table_source(kind, l):
    d = len(l)
    rng = np.random.default_rng(17)
    if kind == "clean":
        return make_state(l, np.ones(d))
    if kind == "complex":
        return make_state(l, rng.normal(size=d) + 1j * rng.normal(size=d))
    if kind == "perturbed":
        return inject_subspace(make_state(l, np.ones(d)),
                               sample_perturbation(d, rng))
    a = rng.normal(size=(d * d, d * d)) + 1j * rng.normal(size=(d * d, d * d))
    rho = a @ a.conj().T
    return DensityCoeffs(tuple(l), rho / np.trace(rho).real)


@pytest.mark.parametrize("kind", ["clean", "complex", "perturbed", "density"])
@pytest.mark.parametrize("l, mode, grid", [
    ((-3, 1, 4), "canonical18", None),
    ((-3, 1, 4), "full", None),
    ((-2, -1, 1, 2), "full", GridSpec(n_r=64)),
])
def test_shared_component_tables_equal_fresh_per_map_entries(kind, l, mode,
                                                             grid, deadline):
    # a census shares each component's term field and exponent rows across
    # its maps (per chunk when pooled); every entry must equal the one
    # evaluate_map builds from scratch for that map alone
    source = _table_source(kind, l)
    fresh = [evaluate_map(source, spec, grid)
             for spec in enumerate_triples(len(l), mode)]
    for workers in (1, 2):
        got = compute_spectrum(source, mode, grid=grid, workers=workers).entries
        assert len(got) == len(fresh)
        for g, f in zip(got, fresh):
            assert g == f, (workers, f.triple_label)


def test_census_builds_each_component_table_once(monkeypatch):
    # one term field per component and one exponent-row table per
    # component and phi grid over a whole serial d = 4 census (455 maps;
    # built per map, these were 1365 term fields and 2730 tables)
    terms, tables = Counter(), Counter()
    term_field, rows = fields.term_field, TermField.rows

    def counting_term_field(source, matrix):
        terms[matrix.tobytes()] += 1
        return term_field(source, matrix)

    def counting_rows(self, phi):
        tables[id(self), np.asarray(phi, dtype=float).tobytes()] += 1
        return rows(self, phi)

    monkeypatch.setattr(fields, "term_field", counting_term_field)
    monkeypatch.setattr(TermField, "rows", counting_rows)
    compute_spectrum(make_state((-2, -1, 1, 2), np.ones(4)), "full", workers=1)
    assert len(terms) == 15 and set(terms.values()) == {1}
    assert set(tables.values()) == {1}
    assert len({key[0] for key in tables}) == 15


class _InProcessPool:
    """Stands in for the process pool: runs each task at once, in order,
    and records every chunk's labels and the term fields it builds."""

    def __init__(self):
        self.chunks, self.builds = [], []

    def map(self, fn, *iterables):
        out = []
        for args in zip(*iterables):
            self.chunks.append([spec.label for spec in args[1]])
            self.builds.append(Counter())
            out.append(fn(*args))
        return out


@pytest.mark.parametrize("n_specs, workers", [(455, 2), (455, 3), (2, 3)])
def test_pool_deals_one_round_robin_chunk_per_worker(monkeypatch, n_specs,
                                                     workers):
    # worker k takes specs[k::workers] as one task, so it builds each
    # component's term field once for its whole share
    state = make_state((-2, -1, 1, 2), np.ones(4))
    specs = enumerate_triples(4, "full")[:n_specs]
    options = dict(grid=GridSpec(n_r=64), max_doublings=2, photon_swap=False)
    serial = spectrum._evaluate_chunk(state, specs, options)
    pool = _InProcessPool()
    term_field = fields.term_field

    def counting_term_field(source, matrix):
        pool.builds[-1][matrix.tobytes()] += 1
        return term_field(source, matrix)

    monkeypatch.setattr(fields, "term_field", counting_term_field)
    monkeypatch.setattr(spectrum, "_shared_pool", lambda workers: pool)
    got = spectrum._evaluate_pooled(state, specs, options, workers)
    n = min(workers, n_specs)
    assert pool.chunks == [[spec.label for spec in specs[k::n]]
                           for k in range(n)]
    assert got == serial
    for chunk, built in zip(pool.chunks, pool.builds):
        indices = {int(i) for label in chunk for i in label.split("-")}
        assert set(built.values()) == {1} and len(built) == len(indices)


class _CountingState:
    """A state that counts the reads of its amplitude matrix; term fields
    go through the wrapped state's coeff and add none."""

    def __init__(self, state):
        self.state, self.l, self.d, self.reads = state, state.l, state.d, 0

    @property
    def amps(self):
        self.reads += 1
        return self.state.amps

    def coeff(self, matrix):
        return self.state.coeff(matrix)


@pytest.mark.parametrize("mode", ["canonical18", "full"])
def test_cleanliness_is_decided_once_per_call_or_chunk(monkeypatch, mode):
    # one read per SharedSource: the serial call's, and each pool chunk's
    state = make_state((-1, 0, 1), np.ones(3))
    want = compute_spectrum(state, mode, grid=SMALL_GRID, workers=1).entries
    serial = _CountingState(state)
    assert compute_spectrum(serial, mode, grid=SMALL_GRID, workers=1).entries == want
    assert serial.reads == 1
    pool, pooled = _InProcessPool(), _CountingState(state)
    monkeypatch.setattr(spectrum, "_shared_pool", lambda workers: pool)
    assert compute_spectrum(pooled, mode, grid=SMALL_GRID, workers=3).entries == want
    assert len(pool.chunks) == pooled.reads == 3
    if mode == "canonical18":
        assert all(e.analytic is not None for e in want)


@pytest.mark.parametrize("kind", ["perturbed", "density"])
def test_analytic_column_is_empty_for_a_source_that_is_not_clean(kind):
    source = _table_source(kind, (-1, 0, 1))
    for mode in ("canonical18", "full"):
        sp = compute_spectrum(source, mode, grid=SMALL_GRID, workers=1)
        assert all(e.analytic is None for e in sp.entries)


@pytest.mark.parametrize("value", ["two", "0", "-3", "1.5", " "])
def test_default_workers_rejects_a_bad_thread_cap(monkeypatch, value):
    monkeypatch.setenv("TOPOSPEC_THREADS", value)
    with pytest.raises(ValueError, match="TOPOSPEC_THREADS"):
        spectrum.default_workers()
    with pytest.raises(ValueError, match="TOPOSPEC_THREADS"):
        compute_spectrum(make_state((-1, 0, 1), np.ones(3)), grid=SMALL_GRID)


@pytest.mark.parametrize("value, want", [("1", 1), ("10000", None), ("", None)])
def test_default_workers_caps_the_cores(monkeypatch, value, want):
    monkeypatch.setenv("TOPOSPEC_THREADS", value)
    assert spectrum.default_workers() == (want or os.cpu_count() or 1)


POOL_TIMEOUT = 60       # seconds; every pool test finishes in a few


@pytest.fixture
def deadline():
    """Ends the test run with a traceback dump if a pool test hangs."""
    faulthandler.dump_traceback_later(2 * POOL_TIMEOUT, exit=True)
    yield
    faulthandler.cancel_dump_traceback_later()


def _worker_pids() -> set[int]:
    return {p.pid for p in multiprocessing.active_children()}


def _qutrit_and_reference(l=(-1, 0, 1)):
    state = make_state(l, np.ones(3))
    return state, compute_spectrum(state, grid=SMALL_GRID, workers=1).entries


def test_pooled_calls_reuse_one_pool_and_its_workers(deadline):
    state, one = _qutrit_and_reference()
    first = compute_spectrum(state, grid=SMALL_GRID, workers=2)
    pool, pids = spectrum._pool[0], _worker_pids()
    second = compute_spectrum(state, grid=SMALL_GRID, workers=2)
    assert len(pids) == 2
    assert spectrum._pool[0] is pool and _worker_pids() == pids
    assert first.entries == second.entries == one


def test_another_worker_count_replaces_the_pool(deadline):
    state, one = _qutrit_and_reference()
    compute_spectrum(state, grid=SMALL_GRID, workers=2)
    pool, pids = spectrum._pool[0], _worker_pids()
    three = compute_spectrum(state, grid=SMALL_GRID, workers=3)
    assert spectrum._pool[0] is not pool and spectrum._pool[1] == 3
    assert len(_worker_pids()) == 3 and not pids & _worker_pids()
    assert three.entries == one


@pytest.mark.parametrize("when", ["between", "during"])
def test_a_killed_worker_leaves_the_next_call_correct(deadline, when):
    state, one = _qutrit_and_reference((-4, -3, 4))
    compute_spectrum(state, grid=SMALL_GRID, workers=2)
    victim = min(_worker_pids())
    if when == "between":
        os.kill(victim, signal.SIGKILL)
    else:
        census = make_state((-2, -1, 1, 0), np.ones(4))
        grid = GridSpec(n_r=64)
        ref = compute_spectrum(census, "full", grid=grid, workers=1).entries
        # the pooled census takes about 0.4 s on two cores
        timer = threading.Timer(0.1, os.kill, (victim, signal.SIGKILL))
        timer.start()
        try:
            hit = compute_spectrum(census, "full", grid=grid, workers=2)
        finally:
            timer.join(POOL_TIMEOUT)
        assert not timer.is_alive()
        assert hit.entries == ref
    after = compute_spectrum(state, grid=SMALL_GRID, workers=2)
    assert after.entries == one
    assert victim not in _worker_pids() and len(_worker_pids()) == 2


def test_a_call_that_raised_replaces_the_pool(deadline):
    state, one = _qutrit_and_reference()
    compute_spectrum(state, grid=SMALL_GRID, workers=2)
    pool, pids = spectrum._pool[0], _worker_pids()
    with pytest.raises(ValueError, match="n_phi"):
        compute_spectrum(state, grid=GridSpec(n_r=64, n_phi=0), workers=2)
    assert spectrum._pool is None and not pids & _worker_pids()
    again = compute_spectrum(state, grid=SMALL_GRID, workers=2)
    assert spectrum._pool[0] is not pool and again.entries == one


def _send_pooled_spectrum(state, conn):
    conn.send(compute_spectrum(state, grid=SMALL_GRID, workers=2).entries)
    conn.close()


# the test forks on purpose while the pool's manager thread runs
@pytest.mark.filterwarnings("ignore:This process .* is multi-threaded")
def test_forked_child_runs_its_own_pool_and_exits(deadline):
    state, one = _qutrit_and_reference()
    compute_spectrum(state, grid=SMALL_GRID, workers=2)
    pool, pids = spectrum._pool[0], _worker_pids()
    ctx = multiprocessing.get_context("fork")
    recv, send = ctx.Pipe(duplex=False)
    child = ctx.Process(target=_send_pooled_spectrum, args=(state, send))
    child.start()
    send.close()
    try:
        assert recv.poll(POOL_TIMEOUT)
        got = recv.recv()
        child.join(POOL_TIMEOUT)
        assert not child.is_alive() and child.exitcode == 0
    finally:
        if child.is_alive():
            child.kill()
        recv.close()
    assert got == one
    assert spectrum._pool[0] is pool and _worker_pids() == pids
    assert compute_spectrum(state, grid=SMALL_GRID, workers=2).entries == one


def _send_worker_pids_then_wait(state, conn):
    compute_spectrum(state, grid=SMALL_GRID, workers=2)
    conn.send(_worker_pids())
    conn.close()
    threading.Event().wait(POOL_TIMEOUT)


def _running(pid: int) -> bool:
    """Whether pid names a process that has not exited (a zombie has)."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except (FileNotFoundError, ProcessLookupError):
        return False


@pytest.mark.skipif(not os.path.exists("/proc/self/stat"),
                    reason="reads process states from /proc")
@pytest.mark.filterwarnings("ignore:This process .* is multi-threaded")
def test_workers_exit_when_their_owner_is_killed(deadline):
    state = make_state((-1, 0, 1), np.ones(3))
    ctx = multiprocessing.get_context("fork")
    recv, send = ctx.Pipe(duplex=False)
    owner = ctx.Process(target=_send_worker_pids_then_wait, args=(state, send))
    owner.start()
    send.close()
    pids = set()
    try:
        assert recv.poll(POOL_TIMEOUT)
        pids = recv.recv()
        assert len(pids) == 2 and all(_running(pid) for pid in pids)
        owner.kill()
        give_up = time.monotonic() + 10.0
        while any(_running(pid) for pid in pids) and time.monotonic() < give_up:
            time.sleep(0.05)
        assert not any(_running(pid) for pid in pids)
    finally:
        owner.kill()
        for pid in pids:
            if _running(pid):
                with contextlib.suppress(ProcessLookupError):
                    os.kill(pid, signal.SIGKILL)
        # the workers hold the owner's sentinel open, so join after them
        owner.join(POOL_TIMEOUT)
        recv.close()
    assert owner.exitcode == -signal.SIGKILL


def test_skewed_clean_state_takes_singular_flag_from_term_content():
    # the label catalog assumes equal amplitudes: at c = (1, 2, 3) the
    # lambda-3 thirds of 453 and 673 keep a live r^2 term, one above the
    # pair exponent, that cancels only when c_1 = c_2
    state = make_state((-1, 1, 0), (1, 2, 3))
    sp = compute_spectrum(state, workers=1)
    for e in sp.entries:
        field = canonical_field(state, e.triple_label)
        assert e.singular == singularity_class(field), e.triple_label
    assert sp.entry("453").singular and sp.entry("673").singular


def test_evaluate_map_default_grid_follows_the_spec():
    state = make_state((-1, 0, 1), np.ones(3))
    labelled = evaluate_map(state, enumerate_triples(3)[0])
    indexed = evaluate_map(state, TripleSpec((1, 2, 3)))
    assert labelled.triple_label == "123" and indexed.triple_label == "1-2-3"
    assert labelled.n_r_used in (512, 1024, 2048)
    assert indexed.n_r_used in (256, 512, 1024)
    assert labelled.glued == compute_spectrum(state, workers=1).entry("123").glued


def test_json_artifact(tmp_path):
    sp = _spectrum_m101()
    path = tmp_path / "spectrum.json"
    write_spectrum_json(sp, path, meta={"seed": 3})
    doc = json.loads(path.read_text())
    assert doc["d"] == 3 and doc["mode"] == "canonical18"
    assert doc["meta"]["seed"] == 3
    assert doc["meta"]["non_converged"] == []
    assert [e["triple_label"] for e in doc["entries"]] == CANONICAL_LABELS
    for got, entry in zip(doc["entries"], sp.entries):
        assert got["converged"] is entry.converged is True
        assert got["quadrature_error"] == entry.quadrature_error
        assert 0.0 <= got["quadrature_error"] <= QUAD_TOL
        assert got["n_r_used"] == entry.n_r_used
        assert got["n_r_used"] in (2 * SMALL_GRID.n_r, 4 * SMALL_GRID.n_r)


def test_json_artifact_without_doubling_has_no_error_estimate():
    doc = spectrum_to_dict(_spectrum_m101(max_doublings=0))
    assert all(e["converged"] is False for e in doc["entries"])
    assert all(e["quadrature_error"] is None for e in doc["entries"])
    assert all(e["n_r_used"] == SMALL_GRID.n_r for e in doc["entries"])
    json.dumps(doc, allow_nan=False)


def test_svg_chart(tmp_path):
    sp = _spectrum_m101()
    path = tmp_path / "spectrum.svg"
    svg_bar_chart(sp.labels, sp.values("glued"),
                  [e.trivial for e in sp.entries], path, title="demo")
    text = path.read_text()
    assert text.startswith("<svg")
    assert text.count("<rect") >= len(sp.entries)


def test_svg_chart_escapes_its_text(tmp_path):
    path = tmp_path / "chart.svg"
    svg_bar_chart(["a<b", "c&d"], [1.0, -1.0], [False, False], path,
                  title="R&D <x>")
    texts = [el.text for el in ElementTree.parse(path).getroot()
             if el.tag.endswith("text")]
    assert texts[0] == "R&D <x>"
    assert texts[1:3] == ["a<b", "c&d"]
