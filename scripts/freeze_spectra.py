"""Write tests/data/frozen_spectra.json: a fixed set of spectra, computed serially.

The set covers the quadrature on clean, skewed, perturbed and mixed
qutrit states and one d = 4 census.  tests/test_frozen_spectra.py
recomputes it and holds every entry to the file: labels, classes and
flags equal, values within 1e-12.  A change that means to move values
regenerates the file and says which entries moved and why.

Run from the repository root:

    python3 scripts/freeze_spectra.py
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

import numpy as np

from topospec import (compute_spectrum, inject_subspace, make_state,
                      sample_perturbation)
from topospec.tomography import spectrum_from_density

OUT = Path(__file__).resolve().parent.parent / "tests" / "data" / "frozen_spectra.json"

# The entry fields kept in the file, as the file names them.
FIELDS = {"label": "triple_label", "class": "map_class", "raw": "raw",
          "glued": "glued", "analytic": "analytic", "singular": "singular",
          "converged": "converged", "n_r_used": "n_r_used"}


def _mixed_density() -> np.ndarray:
    """0.97 of the clean (-1,0,1) state and 0.03 of a seeded full-rank density."""
    psi = make_state((-1, 0, 1), np.ones(3)).amps.reshape(-1)
    pure = np.outer(psi, psi.conj()) / np.vdot(psi, psi).real
    rng = np.random.default_rng(0)
    a = rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9))
    noise = a @ a.conj().T
    return 0.97 * pure + 0.03 * noise / np.trace(noise).real


def _perturbed(l, seed: int):
    state = make_state(l, np.ones(len(l)))
    return inject_subspace(state, sample_perturbation(len(l), np.random.default_rng(seed)))


# name -> the spectrum it holds, each computed on one worker
SPECTRA = {
    "(-1,0,1)": lambda: compute_spectrum(make_state((-1, 0, 1), np.ones(3)), workers=1),
    "(-4,-3,4)": lambda: compute_spectrum(make_state((-4, -3, 4), np.ones(3)), workers=1),
    "(-3,1,4)": lambda: compute_spectrum(make_state((-3, 1, 4), np.ones(3)), workers=1),
    "(-1,0,1) c=(1,2,3)": lambda: compute_spectrum(make_state((-1, 0, 1), (1, 2, 3)),
                                                   workers=1),
    "(-3,1,4) perturbed seed 0": lambda: compute_spectrum(_perturbed((-3, 1, 4), 0),
                                                          workers=1),
    "(-1,0,1) mixed 0.97": lambda: spectrum_from_density(_mixed_density(), (-1, 0, 1),
                                                         workers=1),
    "(-2,-1,1,0) census": lambda: compute_spectrum(make_state((-2, -1, 1, 0), np.ones(4)),
                                                   mode="full", workers=1),
}


def entries(name: str) -> list[dict]:
    """The kept fields of every entry of one named spectrum, freshly computed."""
    return [{key: getattr(e, attr) for key, attr in FIELDS.items()}
            for e in SPECTRA[name]().entries]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=OUT)
    args = parser.parse_args(argv)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    # one entry per line, so a moved value shows as one changed line
    blocks = []
    for name in SPECTRA:
        rows = ",\n".join("  " + json.dumps(e) for e in entries(name))
        blocks.append(f" {json.dumps(name)}: [\n{rows}\n ]")
    args.out.write_text("{\n" + ",\n".join(blocks) + "\n}\n")
    print(f"wrote {len(SPECTRA)} spectra to {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
