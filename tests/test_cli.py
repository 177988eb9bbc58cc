"""End-to-end command-line workflows against golden artifact shapes."""

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
from topospec.invariants import CANONICAL_LABELS
from topospec.spectrum import (RelationCheck, compute_spectrum,
                               dependency_scan, read_spectrum_values)
from topospec.states import load_state

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


@pytest.mark.parametrize("label", ["453", "123"])
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


@pytest.mark.parametrize("counts", ["nan", "inf", "-1", "0"])
def test_tomo_run_rejects_a_bad_count_budget(tmp_path, counts):
    state = _make_state(tmp_path, l="0,1", c="1,1")
    proc = _run_cli(tmp_path, "tomo", "run", str(state), "--counts", counts,
                    "--noise", "poisson", "--out-dir", str(tmp_path / "x"))
    assert proc.returncode == EXIT_INPUT
    assert ("topospec: error: count budget must be finite and > 0"
            in proc.stderr)
    assert "Traceback" not in proc.stderr


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


@pytest.mark.parametrize("rmax", ["nan", "inf", "0", "-5"])
def test_invariant_eval_rejects_an_unusable_rmax(tmp_path, rmax):
    state = _make_state(tmp_path)
    proc = _run_cli(tmp_path, "invariant", "eval", str(state), "123",
                    "--rmax", rmax)
    assert proc.returncode == EXIT_INPUT
    assert "topospec: error: r_max must be finite and above 0.008" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert "converged=True" not in proc.stdout
