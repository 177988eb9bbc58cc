"""The frozen spectra of scripts/freeze_spectra.py, recomputed.

Labels, classes and flags must match the file exactly and values within
1e-12, so a change that moves any entry shows here; one that means to
regenerates the file (python3 scripts/freeze_spectra.py).
"""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "freeze_spectra", ROOT / "scripts" / "freeze_spectra.py")
freeze = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(freeze)

FROZEN = json.loads((ROOT / "tests" / "data" / "frozen_spectra.json").read_text())
VALUES = ("raw", "glued", "analytic")


def test_the_file_holds_the_whole_set():
    assert list(FROZEN) == list(freeze.SPECTRA)
    for rows in FROZEN.values():
        assert all(list(row) == list(freeze.FIELDS) for row in rows)


@pytest.mark.parametrize("name", list(freeze.SPECTRA))
def test_spectrum_matches_the_frozen_file(name):
    got, want = freeze.entries(name), FROZEN[name]
    assert [e["label"] for e in got] == [e["label"] for e in want]
    for g, w in zip(got, want):
        assert {k: v for k, v in g.items() if k not in VALUES} == \
            {k: v for k, v in w.items() if k not in VALUES}, w["label"]
        for key in VALUES:
            if w[key] is None:
                assert g[key] is None, (w["label"], key)
            else:
                assert abs(g[key] - w[key]) <= 1e-12 * max(1.0, abs(w[key])), \
                    (w["label"], key, g[key], w[key])
