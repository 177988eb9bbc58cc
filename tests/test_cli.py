"""End-to-end command-line workflows against golden artifact shapes."""

import argparse
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

import topospec
from topospec import cli
from topospec.cli import EXIT_INPUT, EXIT_NUMERIC, EXIT_OK, main
from topospec.fields import R_MIN, TAIL_EPS, GridSpec, TripleSpec
from topospec.invariants import CANONICAL_LABELS, QUAD_TOL
from topospec.spectrum import (MODES, RelationCheck, compute_spectrum,
                               dependency_scan, evaluate_map,
                               read_spectrum_values)
from topospec.states import inject_subspace, load_state, sample_perturbation
from topospec.tomography import (NOISE_MODELS, epsilon_from_crosstalk,
                                 projection_set, read_coincidences_csv,
                                 simulate_coincidences, write_coincidences_csv)

CSV_HEADER = "triple_label,map_class,raw,glued,analytic,singular,trivial"


def _make_state(tmp_path, l="-1,0,1", c="1,1,1", name="state.json"):
    path = tmp_path / name
    assert main(["state", "make", "--l", l, "--c", c,
                 "--out", str(path)]) == EXIT_OK
    return path


def _run_cli(tmp_path, *args):
    """topospec run as `python -m topospec.cli` in a fresh interpreter."""
    env = dict(os.environ,
               PYTHONPATH=str(Path(topospec.__file__).resolve().parents[1]))
    return subprocess.run([sys.executable, "-m", "topospec.cli", *args],
                          env=env, cwd=tmp_path, capture_output=True,
                          text=True, timeout=120)


def test_state_make_writes_json(tmp_path, capsys):
    path = _make_state(tmp_path)
    doc = json.loads(path.read_text())
    assert doc["d"] == 3 and doc["l"] == [-1, 0, 1]
    assert "wrote d=3 state" in capsys.readouterr().out


def test_state_make_with_perturbation(tmp_path):
    path = tmp_path / "perturbed.json"
    assert main(["state", "make", "--l", "-3,0,3", "--c", "1,1,1",
                 "--perturb", "--seed", "5", "--out", str(path)]) == EXIT_OK
    doc = json.loads(path.read_text())
    assert "perturbation" in doc
    assert np.asarray(doc["perturbation"]).shape == (3, 3)


def test_state_make_with_an_overflowing_norm_writes_no_file(tmp_path, capsys):
    path = tmp_path / "huge.json"
    assert main(["state", "make", "--l", "-1,0,1", "--c", "1e200,1e200,1e200",
                 "--out", str(path)]) == EXIT_INPUT
    assert "c has norm inf" in capsys.readouterr().err
    assert not path.exists()


def test_state_make_reads_whole_number_charges_as_the_library_does(tmp_path):
    ints = _make_state(tmp_path, name="ints.json")
    floats = _make_state(tmp_path, l="-1,0,1.0", name="floats.json")
    assert floats.read_bytes() == ints.read_bytes()


@pytest.mark.parametrize("c", ["-1j,1,1", "-1+2j,1,1", "-.5,1,1"])
def test_state_make_reads_an_amplitude_list_that_opens_with_a_minus(tmp_path,
                                                                     c):
    # such a list was once taken for an option string: "expected one argument"
    spaced = _make_state(tmp_path, c=c, name="spaced.json")
    joined = tmp_path / "joined.json"
    assert main(["state", "make", "--l", "-1,0,1", f"--c={c}",
                 "--out", str(joined)]) == EXIT_OK
    assert spaced.read_bytes() == joined.read_bytes()


def test_state_make_names_the_whole_number_rule_and_writes_no_file(tmp_path,
                                                                   capsys):
    path = tmp_path / "half.json"
    assert main(["state", "make", "--l", "-1,0,1.5", "--c", "1,1,1",
                 "--out", str(path)]) == EXIT_INPUT
    assert "mode charges must be whole numbers" in capsys.readouterr().err
    assert not path.exists()


def test_spectrum_compute_artifacts(tmp_path, capsys):
    state = _make_state(tmp_path)
    csv_path = tmp_path / "spectrum.csv"
    json_path = tmp_path / "spectrum.json"
    svg_path = tmp_path / "spectrum.svg"
    code = main(["spectrum", "compute", str(state), "--grid-nr", "256",
                 "--grid-nphi", "64", "--workers", "1",
                 "--out", str(csv_path), "--json", str(json_path),
                 "--svg", str(svg_path)])
    assert code == EXIT_OK
    lines = csv_path.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 19
    labels, values = read_spectrum_values(csv_path)
    assert labels == CANONICAL_LABELS
    doc = json.loads(json_path.read_text())
    assert doc["mode"] == "canonical18"
    assert doc["meta"]["non_converged"] == []
    assert svg_path.read_text().startswith("<svg")
    assert "18 maps" in capsys.readouterr().out


def test_spectrum_compute_names_its_non_converged_maps(tmp_path, capsys):
    # the perturbed qutrit of the README leaves maps unconverged: exit 2,
    # and one stderr line lists exactly those maps
    path = tmp_path / "bumped.json"
    assert main(["state", "make", "--l", "-1,0,1", "--c", "1,1,1", "--perturb",
                 "--seed", "5", "--out", str(path)]) == EXIT_OK
    capsys.readouterr()
    code = main(["spectrum", "compute", str(path), "--workers", "1",
                 "--out", str(tmp_path / "bumped.csv")])
    assert code == EXIT_NUMERIC
    bad = compute_spectrum(load_state(path), workers=1).non_converged
    assert bad
    assert capsys.readouterr().err.splitlines() == [
        f"non-converged maps: {', '.join(bad)}"]


def test_spectrum_swap_photons_negates(tmp_path):
    state = _make_state(tmp_path)
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    base = ["--grid-nr", "256", "--grid-nphi", "64", "--workers", "1"]
    assert main(["spectrum", "compute", str(state), *base,
                 "--out", str(a)]) == EXIT_OK
    assert main(["spectrum", "compute", str(state), *base, "--swap-photons",
                 "--out", str(b)]) == EXIT_OK
    _, va = read_spectrum_values(a)
    _, vb = read_spectrum_values(b)
    assert_allclose(vb, -va, atol=1e-12)


def test_compare_identical_and_json(tmp_path, capsys):
    state = _make_state(tmp_path)
    csv_path = tmp_path / "spectrum.csv"
    assert main(["spectrum", "compute", str(state), "--grid-nr", "256",
                 "--grid-nphi", "64", "--workers", "1",
                 "--out", str(csv_path)]) == EXIT_OK
    out_json = tmp_path / "scores.json"
    code = main(["spectrum", "compare", str(csv_path), str(csv_path),
                 "--json", str(out_json)])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "residual=1.000000" in out and "cosine=1.000000" in out
    doc = json.loads(out_json.read_text())
    assert_allclose([doc["residual"], doc["cosine"]], [1.0, 1.0], atol=1e-12)


def test_compare_length_mismatch_is_input_error(tmp_path, capsys):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    a.write_text("triple_label,value\n123,1.0\n124,0.5\n")
    b.write_text("triple_label,value\n123,1.0\n")
    assert main(["spectrum", "compare", str(a), str(b)]) == EXIT_INPUT
    assert "error" in capsys.readouterr().err


def test_compare_length_mismatch_is_similarity_s_error_without_a_warning(
        tmp_path, capsys):
    # labels differ too, but the length check comes first
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    a.write_text("triple_label,value\n123,1.0\n124,0.5\n")
    b.write_text("triple_label,value\n125,1.0\n")
    assert main(["spectrum", "compare", str(a), str(b)]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err == "topospec: error: spectrum vectors differ in length\n"


def test_compare_of_differently_labelled_spectra_warns_and_compares(tmp_path,
                                                                   capsys):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    a.write_text("triple_label,value\n123,1.0\n124,0.5\n")
    b.write_text("triple_label,value\n123,1.0\n125,0.5\n")
    assert main(["spectrum", "compare", str(a), str(b)]) == EXIT_OK
    captured = capsys.readouterr()
    assert "warning: spectra carry different labels" in captured.err
    assert "residual=1.000000 cosine=1.000000" in captured.out


@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_compare_non_finite_value_is_input_error(tmp_path, bad):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    a.write_text("triple_label,value\na,1.0\nb,0.5\n")
    b.write_text(f"triple_label,value\na,1.0\nb,{bad}\n")
    proc = _run_cli(tmp_path, "spectrum", "compare", str(a), str(b))
    assert proc.returncode == EXIT_INPUT
    assert f"topospec: error: {b}: b has the non-finite value" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert "residual=" not in proc.stdout


@pytest.mark.parametrize("row", ["124", "124,", "124,abc"])
def test_compare_missing_or_non_numeric_value_is_input_error(tmp_path, row):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    a.write_text("triple_label,value\n123,1\n124,0.5\n")
    b.write_text(f"triple_label,value\n123,1\n{row}\n")
    proc = _run_cli(tmp_path, "spectrum", "compare", str(a), str(b))
    assert proc.returncode == EXIT_INPUT
    assert f"topospec: error: {b}: 124 has the non-numeric value" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert "residual=" not in proc.stdout


def test_invariant_eval_canonical(tmp_path, capsys):
    state = _make_state(tmp_path)
    code = main(["invariant", "eval", str(state), "123",
                 "--grid-nr", "256", "--grid-nphi", "64"])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "class=sphere" in out and "analytic=-1" in out


def test_invariant_eval_indices(tmp_path, capsys):
    state = _make_state(tmp_path)
    code = main(["invariant", "eval", str(state), "1,2,4",
                 "--grid-nr", "256", "--grid-nphi", "64"])
    assert code == EXIT_OK
    assert "singular=True" in capsys.readouterr().out


def test_invariant_eval_reads_whole_number_indices_as_the_library_does(
        tmp_path, capsys):
    state = _make_state(tmp_path)
    values = []
    for triple in ("1,2,4", "1,2,4.0"):
        capsys.readouterr()
        assert main(["invariant", "eval", str(state), triple,
                     "--grid-nr", "256", "--grid-nphi", "64"]) == EXIT_OK
        label, line = capsys.readouterr().out.split(": ", 1)
        assert label == triple
        values.append(line)
    assert values[0] == values[1]


def test_invariant_eval_reads_the_labels_spectrum_compute_writes(tmp_path,
                                                                capsys):
    # spectrum compute --mode full labels the map of indices 1,2,4 "1-2-4"
    state = _make_state(tmp_path)
    lines = []
    for triple in ("1,2,4", "1-2-4"):
        capsys.readouterr()
        assert main(["invariant", "eval", str(state), triple,
                     "--grid-nr", "256", "--grid-nphi", "64"]) == EXIT_OK
        label, line = capsys.readouterr().out.split(": ", 1)
        assert label == triple
        lines.append(line)
    assert lines[0] == lines[1]
    assert "class=" in lines[0] and "err=" in lines[0]


def test_invariant_eval_names_the_whole_number_rule(tmp_path, capsys):
    state = _make_state(tmp_path)
    capsys.readouterr()
    assert main(["invariant", "eval", str(state), "1,2,3.7"]) == EXIT_INPUT
    assert "basis indices must be whole numbers" in capsys.readouterr().err


@pytest.mark.parametrize("triple, mode, label", [("453", "canonical18", "453"),
                                                 ("45*", "canonical18", "45*"),
                                                 ("67s", "canonical18", "67*"),
                                                 ("1,2,4", "full", "1-2-4")])
def test_invariant_eval_matches_spectrum_entry(tmp_path, capsys, triple, mode,
                                              label):
    # both run on the default grid of the map's kind
    state = _make_state(tmp_path)
    capsys.readouterr()
    assert main(["invariant", "eval", str(state), triple]) == EXIT_OK
    out = capsys.readouterr().out
    e = compute_spectrum(load_state(state), mode, workers=1).entry(label)
    for text in (f"class={e.map_class}", f"raw={e.raw:.6f}",
                 f"glued={e.glued:.6f}", f"singular={e.singular}",
                 f"converged={e.converged}", f"err={e.quadrature_error:.2e}"):
        assert text in out


@pytest.mark.parametrize("flag", ["--mode", "--workers"])
def test_invariant_eval_offers_no_census_flags(tmp_path, capsys, flag):
    state = _make_state(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["invariant", "eval", str(state), "123", flag, "full"])
    assert exc.value.code == EXIT_INPUT
    assert "unrecognized arguments" in capsys.readouterr().err


def _exit_code(argv) -> int:
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("flags", [["--grid-nphi", "0"], ["--grid-nphi", "-8"],
                                   ["--grid-nr", "0"], ["--workers", "0"],
                                   ["--workers", "-2"]])
def test_non_positive_grid_and_workers_are_input_errors(tmp_path, capsys, flags):
    state = _make_state(tmp_path)
    capsys.readouterr()
    argv = ["spectrum", "compute", str(state), "--out", str(tmp_path / "s.csv"),
            *flags]
    if "--workers" not in flags:
        argv += ["--workers", "1"]
    assert _exit_code(argv) == EXIT_INPUT
    err = capsys.readouterr().err
    assert "error" in err and "Traceback" not in err
    assert not (tmp_path / "s.csv").exists()


@pytest.mark.parametrize("command", ["spectrum", "tomo"])
@pytest.mark.parametrize("value", ["two", "0", "-2"])
def test_a_bad_thread_cap_is_an_input_error(tmp_path, monkeypatch, command,
                                            value):
    # only a positive integer caps the default worker count; anything else
    # is refused by name before any output is written
    state = _make_state(tmp_path)
    out = tmp_path / "out"
    monkeypatch.setenv("TOPOSPEC_THREADS", value)
    if command == "spectrum":
        args = ["spectrum", "compute", str(state), "--out", str(out)]
    else:
        args = ["tomo", "run", str(state), "--out-dir", str(out)]
    proc = _run_cli(tmp_path, *args)
    assert proc.returncode == EXIT_INPUT
    assert (f"topospec: error: TOPOSPEC_THREADS must be a positive integer, "
            f"got '{value}'" in proc.stderr)
    assert "Traceback" not in proc.stderr
    assert not out.exists()


@pytest.mark.parametrize("command", ["spectrum", "tomo"])
@pytest.mark.parametrize("value", ["1.5", "0", "two"])
def test_a_bad_worker_flag_gets_the_library_rule(tmp_path, capsys, command,
                                                 value):
    # --workers is read by the library's worker-count rule, in its words,
    # before any output is written
    state = _make_state(tmp_path)
    out = tmp_path / "out"
    if command == "spectrum":
        args = ["spectrum", "compute", str(state), "--out", str(out)]
    else:
        args = ["tomo", "run", str(state), "--out-dir", str(out)]
    capsys.readouterr()
    assert main([*args, "--workers", value]) == EXIT_INPUT
    assert (f"topospec: error: --workers must be a positive integer, "
            f"got '{value}'" in capsys.readouterr().err)
    assert not out.exists()


def test_json_records_the_workers_that_ran(tmp_path):
    state = _make_state(tmp_path)
    json_path = tmp_path / "spectrum.json"
    assert main(["spectrum", "compute", str(state), "--grid-nr", "64",
                 "--workers", "1", "--out", str(tmp_path / "s.csv"),
                 "--json", str(json_path)]) in (EXIT_OK, EXIT_NUMERIC)
    assert json.loads(json_path.read_text())["meta"]["workers"] == 1


def test_grid_flag_without_grid_nr_keeps_the_radial_default(tmp_path):
    # 512 radial panels for canonical labels, doubled at most twice
    state = _make_state(tmp_path)
    json_path = tmp_path / "spectrum.json"
    assert main(["spectrum", "compute", str(state), "--grid-nphi", "64",
                 "--out", str(tmp_path / "s.csv"),
                 "--json", str(json_path)]) in (EXIT_OK, EXIT_NUMERIC)
    entries = json.loads(json_path.read_text())["entries"]
    assert len(entries) == 18
    assert all(e["n_r_used"] <= 2048 for e in entries)


def test_invariant_eval_rejects_an_index_beyond_the_basis(tmp_path):
    state = _make_state(tmp_path)
    proc = _run_cli(tmp_path, "invariant", "eval", str(state), "1,2,20")
    assert proc.returncode == EXIT_INPUT
    assert "basis index 20 out of range 1..8" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("label", ["453", "123", "45*", "67s"])
def test_invariant_eval_rejects_a_canonical_label_off_d3(tmp_path, label):
    # a canonical label spells a qutrit index triple; on a d = 4 state it
    # would name another map under the qutrit map's label
    state = _make_state(tmp_path, l="-2,-1,1,0", c="1,1,1,1")
    proc = _run_cli(tmp_path, "invariant", "eval", str(state), label)
    assert proc.returncode == EXIT_INPUT
    assert ("topospec: error: canonical labels are defined for d = 3"
            in proc.stderr)
    assert "Traceback" not in proc.stderr
    assert "converged=" not in proc.stdout


@pytest.mark.parametrize("bad", [{"c": [1, 1, 1]}, {"d": None},
                                 {"perturbation": {"a": 1}}],
                         ids=["c-not-pairs", "d-null", "perturbation-not-numbers"])
@pytest.mark.parametrize("command", [["spectrum", "compute"],
                                     ["invariant", "eval"]])
def test_malformed_state_document_is_input_error(tmp_path, bad, command):
    doc = {"d": 3, "l": [-1, 0, 1], "c": [[1, 0], [1, 0], [1, 0]], **bad}
    state = tmp_path / "bad.json"
    state.write_text(json.dumps(doc))
    extra = ["123"] if command[0] == "invariant" else []
    proc = _run_cli(tmp_path, *command, str(state), *extra)
    assert proc.returncode == EXIT_INPUT
    assert "topospec: error:" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("doc", [
    '{"d": 3, "l": [-1, 0, 1], "c": [[1, 0], [1, 0], [1, 0]], '
    '"perturbation": [[0, null, 0], [0, 0, 0], [0, 0, 0]]}',
    '{"d": 3, "l": [-1, 0, 1], "c": [[1, 0], [NaN, 0], [1, 0]]}',
    '{"d": 3, "l": [-1, 0, 1], "c": [[1, 0], [Infinity, 0], [1, 0]]}',
    '{"d": 3, "l": [-1.7, 0, 1], "c": [[1, 0], [1, 0], [1, 0]]}',
    '{"d": Infinity, "l": [-1, 0, 1], "c": [[1, 0], [1, 0], [1, 0]]}',
], ids=["perturbation-null", "c-nan", "c-infinity", "l-fractional", "d-infinity"])
def test_bad_number_in_state_document_is_input_error(tmp_path, doc):
    state = tmp_path / "bad.json"
    state.write_text(doc)
    proc = _run_cli(tmp_path, "invariant", "eval", str(state), "123")
    assert proc.returncode == EXIT_INPUT
    assert "topospec: error:" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert "converged=True" not in proc.stdout


def test_invariant_eval_rejects_unknown_label(tmp_path, capsys):
    state = _make_state(tmp_path)
    assert main(["invariant", "eval", str(state), "garbage"]) == EXIT_INPUT
    assert "unknown canonical label" in capsys.readouterr().err


def test_missing_state_file_is_input_error(tmp_path, capsys):
    assert main(["spectrum", "compute",
                 str(tmp_path / "nope.json")]) == EXIT_INPUT
    assert "error" in capsys.readouterr().err


def test_unknown_subcommand_exits_with_input_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bogus"])
    assert exc.value.code == EXIT_INPUT


def _subcommands(parser):
    return next(action.choices for action in parser._actions
                if isinstance(action, argparse._SubParsersAction))


def test_parser_offers_exactly_the_documented_commands(capsys):
    parser = cli.build_parser()
    pairs = [(group, name)
             for group, group_parser in _subcommands(parser).items()
             for name in _subcommands(group_parser)]
    assert pairs == [("state", "make"), ("spectrum", "compute"),
                     ("spectrum", "compare"), ("invariant", "eval"),
                     ("deps", "scan"), ("tomo", "run")]
    for argv in ([], *([group] for group, _ in pairs), *map(list, pairs)):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--help"])
        assert exc.value.code == EXIT_OK
        assert capsys.readouterr().out.startswith("usage: topospec")


def test_census_and_noise_choices_are_the_library_s():
    groups = _subcommands(cli.build_parser())

    def choices(group, name, dest):
        parser = _subcommands(groups[group])[name]
        return next(a.choices for a in parser._actions if a.dest == dest)

    assert choices("spectrum", "compute", "mode") is MODES
    assert choices("tomo", "run", "mode") is MODES
    assert choices("tomo", "run", "noise") is NOISE_MODELS


@pytest.mark.parametrize("triple", ["1,2", "1,2,3,4", "1,1,2,3"])
def test_invariant_eval_needs_three_distinct_indices(tmp_path, capsys, triple):
    state = _make_state(tmp_path)
    capsys.readouterr()
    assert main(["invariant", "eval", str(state), triple]) == EXIT_INPUT
    assert "three distinct indices" in capsys.readouterr().err


def test_invariant_eval_names_a_map_name_it_cannot_read(tmp_path, capsys):
    state = _make_state(tmp_path)
    capsys.readouterr()
    assert main(["invariant", "eval", str(state), "1--2-3"]) == EXIT_INPUT
    assert "map name '1--2-3': " in capsys.readouterr().err


def test_invariant_eval_names_a_truncated_state_file(tmp_path, capsys):
    state = _make_state(tmp_path)
    state.write_text(state.read_text()[:8])
    capsys.readouterr()
    assert main(["invariant", "eval", str(state), "123"]) == EXIT_INPUT
    assert f"topospec: error: {state}: Expecting" in capsys.readouterr().err


def test_deps_scan_reports_rank(capsys):
    assert main(["deps", "scan", "--l-range", "3"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "rank over l in [-3, 3]^3" in out and ": 9" in out
    assert out.count("holds") == 9


def test_deps_scan_exits_numeric_on_a_violated_relation(monkeypatch, capsys):
    report = dependency_scan(3)
    broken = RelationCheck(report.relations[0].name, 0.5, False)
    monkeypatch.setattr(cli, "dependency_scan", lambda l_range: replace(
        report, relations=(broken,) + report.relations[1:]))
    assert main(["deps", "scan", "--l-range", "3"]) == EXIT_NUMERIC
    out = capsys.readouterr().out
    assert "VIOLATED" in out and out.count("holds") == 8


def test_tomo_run_round_trip(tmp_path, capsys):
    state = _make_state(tmp_path, l="0,1", c="1,1")
    out_dir = tmp_path / "tomo"
    code = main(["tomo", "run", str(state), "--noise", "none",
                 "--seed", "3", "--grid-nr", "256", "--grid-nphi", "64",
                 "--workers", "1", "--out-dir", str(out_dir)])
    assert code == EXIT_OK
    for name in ("coincidences.csv", "density.json", "metrics.json",
                 "spectrum.csv"):
        assert (out_dir / name).exists()
    scores = json.loads((out_dir / "metrics.json").read_text())
    assert scores["fidelity"] > 0.999
    assert scores["concurrence"] is not None
    out = capsys.readouterr().out
    assert "fidelity=" in out
    meta = json.loads((out_dir / "density.json").read_text())["meta"]
    assert meta["seed"] == 3
    assert meta["stop"] in ("gradient", "stall", "no_step") and meta["converged"]
    trace = meta["chi2_trace"]
    assert all(b <= a for a, b in zip(trace, trace[1:]))
    assert trace[-1] == meta["chi2"]


def _tomo_run(state, out, *flags):
    """Exit code, density meta and metrics of a `tomo run` on one worker."""
    code = main(["tomo", "run", str(state), *flags, "--workers", "1",
                 "--out-dir", str(out)])
    return (code, json.loads((out / "density.json").read_text())["meta"],
            json.loads((out / "metrics.json").read_text()))


AUTO_ZERO_WARNING = ("warning: --epsilon auto read 0 from the dark basis "
                     "settings, so the fit is not thresholded")


def test_tomo_run_auto_epsilon_of_clean_poisson_counts_is_zero(tmp_path,
                                                               capsys):
    # a clean state leaves the off-diagonal basis settings dark; the
    # unthresholded fit's spectrum may leave maps unconverged (exit 2)
    state = _make_state(tmp_path)
    _, meta, scores = _tomo_run(state, tmp_path / "tomo", "--noise",
                                "poisson", "--seed", "7", "--epsilon", "auto")
    assert meta["epsilon"] == scores["epsilon"] == 0.0
    assert AUTO_ZERO_WARNING in capsys.readouterr().err


def test_tomo_run_auto_epsilon_reads_the_written_crosstalk(tmp_path, capsys):
    state = _make_state(tmp_path)
    out = tmp_path / "tomo"
    code, meta, scores = _tomo_run(state, out, "--noise", "crosstalk",
                                   "--seed", "7", "--epsilon", "auto")
    assert code == EXIT_OK
    assert "warning" not in capsys.readouterr().err
    eps = epsilon_from_crosstalk(read_coincidences_csv(out / "coincidences.csv"),
                                 projection_set(3, (-1, 0, 1)))
    assert eps > 0.0
    assert meta["epsilon"] == scores["epsilon"] == eps


def test_every_json_artifact_has_the_one_layout(tmp_path):
    state = _make_state(tmp_path, l="0,1", c="1,1")
    grid = ["--grid-nr", "256", "--grid-nphi", "64", "--workers", "1"]
    spec = tmp_path / "spectrum.csv"
    assert main(["spectrum", "compute", str(state), *grid, "--out", str(spec),
                 "--json", str(tmp_path / "spectrum.json")]) == EXIT_OK
    assert main(["spectrum", "compare", str(spec), str(spec),
                 "--json", str(tmp_path / "scores.json")]) == EXIT_OK
    assert main(["tomo", "run", str(state), "--seed", "3", *grid,
                 "--out-dir", str(tmp_path / "tomo")]) == EXIT_OK
    paths = sorted(tmp_path.rglob("*.json"))
    assert [p.name for p in paths] == ["scores.json", "spectrum.json",
                                       "state.json", "density.json",
                                       "metrics.json"]
    for path in paths:
        text = path.read_text()
        assert text == json.dumps(json.loads(text), indent=1) + "\n", path


def test_tomo_run_perturb_counts_replay_from_the_library(tmp_path):
    path = _make_state(tmp_path)
    counts = {}
    for flags in ((), ("--perturb",)):
        out = tmp_path / f"tomo{len(flags)}"
        _tomo_run(path, out, "--noise", "poisson", "--seed", "5", *flags)
        counts[flags] = (out / "coincidences.csv").read_text()
    rng = np.random.default_rng(5)
    state = inject_subspace(load_state(path), sample_perturbation(3, rng))
    C = simulate_coincidences(state, projection_set(3, state.l),
                              total_counts=1e4, noise="poisson", rng=rng)
    write_coincidences_csv(C, tmp_path / "replay.csv")
    assert counts[("--perturb",)] == (tmp_path / "replay.csv").read_text()
    assert counts[()] != counts[("--perturb",)]


@pytest.mark.parametrize("counts", ["nan", "inf", "-1", "0"])
def test_tomo_run_rejects_a_bad_count_budget(tmp_path, counts):
    state = _make_state(tmp_path, l="0,1", c="1,1")
    proc = _run_cli(tmp_path, "tomo", "run", str(state), "--counts", counts,
                    "--noise", "poisson", "--out-dir", str(tmp_path / "x"))
    assert proc.returncode == EXIT_INPUT
    assert ("topospec: error: count budget must be finite and > 0"
            in proc.stderr)
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "x").exists()


def test_tomo_run_epsilon_validation(tmp_path, capsys):
    state = _make_state(tmp_path, l="0,1", c="1,1")
    assert main(["tomo", "run", str(state), "--epsilon", "-0.5",
                 "--out-dir", str(tmp_path / "x")]) == EXIT_INPUT
    assert "nonnegative" in capsys.readouterr().err


@pytest.mark.parametrize("eps", ["nan", "inf", "-0.5", "abc"])
def test_tomo_run_rejects_an_unusable_epsilon_before_the_fit(tmp_path, eps):
    state = _make_state(tmp_path, l="0,1", c="1,1")
    out = tmp_path / "x"
    proc = _run_cli(tmp_path, "tomo", "run", str(state), "--epsilon", eps,
                    "--out-dir", str(out))
    assert proc.returncode == EXIT_INPUT
    assert (f"topospec: error: epsilon must be finite and nonnegative, "
            f"got {eps}" in proc.stderr)
    assert "Traceback" not in proc.stderr
    assert not (out / "density.json").exists()
    assert not (out / "metrics.json").exists()
    assert not out.exists()


def test_tomo_run_rejects_repeated_charges_before_making_the_out_dir(tmp_path):
    state = _make_state(tmp_path, l="1,1,2")
    out = tmp_path / "x"
    proc = _run_cli(tmp_path, "tomo", "run", str(state), "--out-dir", str(out))
    assert proc.returncode == EXIT_INPUT
    assert "topospec: error: subspace_l entries must be distinct" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not out.exists()


def test_invariant_eval_rejects_an_odd_grid_nr(tmp_path):
    state = _make_state(tmp_path)
    proc = _run_cli(tmp_path, "invariant", "eval", str(state), "123",
                    "--grid-nr", "255")
    assert proc.returncode == EXIT_INPUT
    assert "topospec: error: Simpson's rule needs an even n_r, got 255" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert "glued=" not in proc.stdout


@pytest.mark.parametrize("l, c, flags, message", [
    ("-2,-1,1,0", "1,1,1,1", ["--mode", "canonical18"],
     "canonical18 mode needs d = 3"),
    ("-1,0,1", "1,1,1", ["--grid-nr", "3"],
     "Simpson's rule needs an even n_r, got 3"),
    ("-1,0,1", "1,1,1", ["--grid-nphi", "0"], "grid needs n_phi >= 1, got 0"),
])
def test_tomo_run_checks_its_flags_before_making_the_out_dir(tmp_path, capsys,
                                                             l, c, flags,
                                                             message):
    state = _make_state(tmp_path, l=l, c=c)
    out = tmp_path / "x"
    capsys.readouterr()
    assert main(["tomo", "run", str(state), *flags, "--workers", "1",
                 "--out-dir", str(out)]) == EXIT_INPUT
    assert f"topospec: error: {message}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", [["spectrum", "compute"],
                                     ["invariant", "eval"], ["tomo", "run"]])
def test_rmax_is_not_a_flag(tmp_path, capsys, command):
    # the classifier places its probe rings from the charges alone
    state = _make_state(tmp_path)
    argv = [*command, str(state), "--rmax", "8"]
    if command[0] == "invariant":
        argv.insert(3, "123")
    assert _exit_code(argv) == EXIT_INPUT
    assert "unrecognized arguments: --rmax 8" in capsys.readouterr().err


@pytest.mark.parametrize("flags, grid", [
    ([], {"n_r": None, "n_phi": None}),
    (["--grid-nr", "64", "--grid-nphi", "32"], {"n_r": 64, "n_phi": 32}),
])
def test_json_records_the_grid_and_version(tmp_path, flags, grid):
    # a null grid field is the per-map default
    state = _make_state(tmp_path)
    json_path = tmp_path / "spectrum.json"
    assert main(["spectrum", "compute", str(state), *flags, "--workers", "1",
                 "--out", str(tmp_path / "s.csv"),
                 "--json", str(json_path)]) in (EXIT_OK, EXIT_NUMERIC)
    meta = json.loads(json_path.read_text())["meta"]
    assert meta["grid"] == grid
    assert meta["r_min"] == R_MIN and meta["tail_eps"] == TAIL_EPS
    assert meta["quad_tol"] == QUAD_TOL
    assert meta["version"] == topospec.__version__


def test_a_grid_without_n_r_keeps_the_per_map_radial_default(tmp_path, capsys):
    # GridSpec(n_phi=...) and --grid-nphi both start map 123 on 512 panels
    state = _make_state(tmp_path)
    qutrit, spec = load_state(state), TripleSpec.parse("123")
    grid = GridSpec(n_phi=128)
    e = evaluate_map(qutrit, spec, grid)
    assert e.n_r_used == evaluate_map(qutrit, spec).n_r_used == 1024
    assert compute_spectrum(qutrit, grid=grid, workers=1).entry("123") == e
    capsys.readouterr()
    assert main(["invariant", "eval", str(state), "123",
                 "--grid-nphi", "128"]) == EXIT_OK
    out = capsys.readouterr().out
    for text in (f"class={e.map_class}", f"raw={e.raw:.6f}",
                 f"glued={e.glued:.6f}", f"converged={e.converged}",
                 f"err={e.quadrature_error:.2e}"):
        assert text in out
