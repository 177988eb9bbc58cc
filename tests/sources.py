"""One factory for the coefficient sources the tests build.

source(kind, l, rng) gives a state or density over the charges l, drawing
from rng in a fixed order per kind:

- clean: equal amplitudes, no draw;
- skewed: amplitudes 1, 2, ..., d, no draw;
- unequal: real amplitudes uniform in [0.2, 2);
- complex: complex normal amplitudes, real parts then imaginary parts;
- perturbed: the clean state under a sampled subspace perturbation;
- complex-perturbed: unequal moduli with uniform phases, then perturbed;
- mixed: a random full-rank unit-trace density, as DensityCoeffs.
"""

import numpy as np

from topospec.states import inject_subspace, make_state, sample_perturbation
from topospec.tomography import DensityCoeffs


def source(kind, l, rng):
    d = len(l)
    if kind == "clean":
        return make_state(l, np.ones(d))
    if kind == "skewed":
        return make_state(l, np.arange(1.0, d + 1.0))
    if kind in ("unequal", "complex-perturbed"):
        c = rng.uniform(0.2, 2.0, d)
        if kind == "unequal":
            return make_state(l, c)
        state = make_state(l, c * np.exp(2j * np.pi * rng.uniform(size=d)))
        return inject_subspace(state, sample_perturbation(d, rng))
    if kind == "complex":
        return make_state(l, rng.normal(size=d) + 1j * rng.normal(size=d))
    if kind == "perturbed":
        return inject_subspace(make_state(l, np.ones(d)),
                               sample_perturbation(d, rng))
    if kind == "mixed":
        a = rng.normal(size=(d * d, d * d)) + 1j * rng.normal(size=(d * d, d * d))
        rho = a @ a.conj().T
        return DensityCoeffs(tuple(l), rho / np.trace(rho).real)
    raise ValueError(f"unknown source kind: {kind!r}")
