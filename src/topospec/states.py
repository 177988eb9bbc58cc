"""Qudit states carried by azimuthal-mode superpositions.

A state is stored as a mode-amplitude matrix amps[j, k]: the weight of the
radial/azimuthal profile of mode j inside qudit component k.  A clean
superposition is diagonal; subspace perturbations populate the
off-diagonal entries.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np


def radial_profile(l: int, r: np.ndarray) -> np.ndarray:
    """r^|l| exp(-r^2), the waist-plane ring profile of azimuthal index l."""
    r = np.asarray(r, dtype=float)
    return r ** abs(int(l)) * np.exp(-r * r)


@dataclass(frozen=True)
class QuditState:
    """d-level state with mode labels l and amplitude matrix amps[j, k]."""

    l: tuple[int, ...]
    amps: np.ndarray

    @property
    def d(self) -> int:
        return len(self.l)

    @property
    def c(self) -> np.ndarray:
        """Diagonal coefficients (the clean-superposition part)."""
        return np.diag(self.amps).copy()

    def fields(self, r: np.ndarray, phi: np.ndarray):
        """Component fields psi_k(r, phi) on an outer-product grid."""
        r = np.atleast_1d(np.asarray(r, dtype=float))
        phi = np.atleast_1d(np.asarray(phi, dtype=float))
        profs = np.stack([radial_profile(lj, r) for lj in self.l])
        spirals = np.exp(1j * np.outer(self.l, phi))
        # psi[k] = sum_j amps[j,k] f_j(r) e^{i l_j phi}
        return np.einsum("jk,jr,jp->krp", self.amps, profs, spirals)

    def coeff(self, matrix: np.ndarray) -> np.ndarray:
        """Hermitian pair-term coefficients of one generator expectation."""
        return self.amps.conj() @ matrix @ self.amps.T


@dataclass(frozen=True)
class SubspacePerturbation:
    """Cross-mode injection weights delta[j, k] (zero diagonal)."""

    delta: np.ndarray

    def __post_init__(self):
        d = np.asarray(self.delta, dtype=float)
        if d.ndim != 2 or d.shape[0] != d.shape[1]:
            raise ValueError("delta must be square")
        if not np.all(np.isfinite(d)):
            raise ValueError("delta must be finite")
        if np.any(np.abs(np.diag(d)) > 0):
            raise ValueError("delta diagonal must be zero")
        object.__setattr__(self, "delta", d)

    @property
    def delta_bar(self) -> float:
        d = self.delta.shape[0]
        if d < 2:
            return 0.0
        off = self.delta[~np.eye(d, dtype=bool)]
        return float(np.mean(off))


def make_state(l, c) -> QuditState:
    """Clean superposition of whole-number charges l, finite c normalized."""
    charges = np.asarray(l, dtype=float)
    if not np.all(np.isfinite(charges) & (charges == np.round(charges))):
        raise ValueError(f"mode charges must be whole numbers, got {charges.tolist()}")
    l = tuple(int(x) for x in charges)
    c = np.asarray(c, dtype=np.complex128)
    if c.ndim != 1 or len(c) != len(l):
        raise ValueError("c must be a vector matching l")
    if not np.all(np.isfinite(c)):
        raise ValueError("c must be finite")
    nrm = np.linalg.norm(c)
    if nrm == 0:
        raise ValueError("c must not be all zero")
    return QuditState(l, np.diag(c / nrm))


def inject_subspace(state: QuditState, pert: SubspacePerturbation) -> QuditState:
    """Mix foreign mode profiles into every component.

    Component k becomes (1 - delta_bar) psi_k plus sum_{j != k} delta[j,k]
    times the profile of mode j.  delta = 0 reproduces the input exactly.
    """
    if pert.delta.shape[0] != state.d:
        raise ValueError("perturbation size does not match state")
    amps = (1.0 - pert.delta_bar) * state.amps + pert.delta
    nrm = np.linalg.norm(amps)
    return QuditState(state.l, amps / nrm)


PERTURB_LO, PERTURB_HI = 0.025, 0.051   # range of sampled injection weights


def sample_perturbation(d: int, rng: np.random.Generator) -> SubspacePerturbation:
    delta = rng.uniform(PERTURB_LO, PERTURB_HI, size=(d, d))
    np.fill_diagonal(delta, 0.0)
    return SubspacePerturbation(delta)


_STATE_KEYS = {"d", "l", "c", "perturbation"}


def state_to_json(state: QuditState, pert: SubspacePerturbation | None = None) -> dict:
    doc = {
        "d": state.d,
        "l": list(state.l),
        "c": [[float(z.real), float(z.imag)] for z in state.c],
    }
    if pert is not None:
        doc["perturbation"] = [[float(x) for x in row] for row in pert.delta]
    return doc


def state_from_json(doc: dict) -> QuditState:
    """Parse the state document, rejecting unknown keys and malformed values."""
    if not isinstance(doc, dict):
        raise ValueError("state document must be a JSON object")
    unknown = set(doc) - _STATE_KEYS
    if unknown:
        raise ValueError(f"unknown state keys: {sorted(unknown)}")
    for key in ("d", "l", "c"):
        if key not in doc:
            raise ValueError(f"missing state key: {key}")
    d = doc["d"]
    if not isinstance(d, int) or isinstance(d, bool):
        raise ValueError(f"d must be an integer, got {d!r}")
    try:
        l = [float(x) for x in doc["l"]]
        c = [complex(re, im) for re, im in doc["c"]]
        delta = (np.asarray(doc["perturbation"], dtype=float)
                 if "perturbation" in doc else None)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"malformed state document: {exc}") from None
    if len(l) != d:
        raise ValueError("l length must equal d")
    if len(c) != d:
        raise ValueError("c length must equal d")
    state = make_state(l, c)
    if delta is not None:
        if delta.shape != (d, d):
            raise ValueError("perturbation must be d x d")
        state = inject_subspace(state, SubspacePerturbation(delta))
    return state


def load_state(path) -> QuditState:
    with open(path) as fh:
        return state_from_json(json.load(fh))


def save_state(path, state: QuditState, pert: SubspacePerturbation | None = None):
    with open(path, "w") as fh:
        json.dump(state_to_json(state, pert), fh, indent=2)
        fh.write("\n")
