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


def _whole(values, what: str) -> tuple[int, ...]:
    """values as ints, if each is a finite whole number; what names them."""
    x = list(map(float, values))
    if not all(map(float.is_integer, x)):
        raise ValueError(f"{what} must be whole numbers, got {x}")
    return tuple(map(int, x))


def _charges(l, d: int | None = None) -> tuple[tuple[int, ...], int]:
    """The mode charges l as ints, and d, which defaults to their count."""
    l = _whole(l, "mode charges")
    d = d or len(l)
    if len(l) != d:
        raise ValueError(f"need {d} mode charges for d = {d}, got {len(l)}")
    return l, d


def make_state(l, c) -> QuditState:
    """Normalized clean superposition: whole-number charges l, finite c to match."""
    l, _ = _charges(l)
    c = np.asarray(c, dtype=np.complex128)
    if c.ndim != 1 or len(c) != len(l):
        raise ValueError("c must be a vector matching l")
    if not np.all(np.isfinite(c)):
        raise ValueError("c must be finite")
    return QuditState(l, np.diag(_normalized(c, "c")))


def _normalized(amps: np.ndarray, name: str) -> np.ndarray:
    """amps over their norm, which must be a positive finite float: a norm
    that overflows or underflows has no unit vector to give."""
    with np.errstate(over="ignore"):
        nrm = float(np.linalg.norm(amps))
    if not 0.0 < nrm < np.inf:
        raise ValueError(f"{name} has norm {nrm}; a state needs a positive "
                         "finite norm")
    return amps / nrm


def inject_subspace(state: QuditState, pert: SubspacePerturbation) -> QuditState:
    """Mix foreign mode profiles into every component.

    Component k becomes (1 - delta_bar) psi_k plus sum_{j != k} delta[j,k]
    times the profile of mode j.  delta = 0 reproduces the input exactly;
    weights that overflow are left to the norm check.
    """
    if pert.delta.shape[0] != state.d:
        raise ValueError("perturbation size does not match state")
    with np.errstate(over="ignore", invalid="ignore"):
        amps = (1.0 - pert.delta_bar) * state.amps + pert.delta
    return QuditState(state.l, _normalized(amps, "the perturbed state"))


PERTURB_LO, PERTURB_HI = 0.025, 0.051   # range of sampled injection weights


def sample_perturbation(d: int, rng: np.random.Generator) -> SubspacePerturbation:
    delta = rng.uniform(PERTURB_LO, PERTURB_HI, size=(d, d))
    np.fill_diagonal(delta, 0.0)
    return SubspacePerturbation(delta)


def state_to_json(state: QuditState, pert: SubspacePerturbation | None = None) -> dict:
    """The state document: l, the diagonal c and the perturbation, if any."""
    if pert is None and np.any(state.amps - np.diag(state.c)):
        raise ValueError("state has off-diagonal amplitudes; pass its perturbation")
    doc = {"d": state.d, "l": list(state.l), "c": _pairs(state.c)}
    if pert is not None:
        doc["perturbation"] = [[float(x) for x in row] for row in pert.delta]
    return doc


def _real(x) -> float:
    """x as a float when it is a JSON number; booleans and strings are not."""
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise TypeError(f"expected a real number, got {x!r}")
    return float(x)


def _pairs(values) -> list[list[float]]:
    """Complex values as the [re, im] pairs that every JSON document holds."""
    return [[float(z.real), float(z.imag)] for z in values]


def _complexes(pairs) -> list[complex]:
    """[re, im] pairs as complex values; each pair is two JSON real numbers."""
    try:
        return [complex(_real(re), _real(im)) for re, im in pairs]
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"malformed [re, im] pairs: {exc}") from None


def _document(doc, kind: str, required: tuple, optional: tuple = ()) -> dict:
    """doc, if it is a JSON object that holds every required key and no key
    outside required and optional; kind names the document in the error."""
    if not isinstance(doc, dict):
        raise ValueError(f"{kind} document must be a JSON object")
    unknown = set(doc) - {*required, *optional}
    if unknown:
        raise ValueError(f"unknown {kind} keys: {sorted(unknown)}")
    for key in required:
        if key not in doc:
            raise ValueError(f"missing {kind} key: {key}")
    return doc


def state_from_json(doc: dict) -> QuditState:
    """Parse the state document, rejecting unknown keys and malformed values."""
    d = _document(doc, "state", ("d", "l", "c"), ("perturbation",))["d"]
    if not isinstance(d, int) or isinstance(d, bool):
        raise ValueError(f"d must be an integer, got {d!r}")
    try:
        l = [_real(x) for x in doc["l"]]
        c = _complexes(doc["c"])
        delta = ([[_real(x) for x in row] for row in doc["perturbation"]]
                 if "perturbation" in doc else None)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"malformed state document: {exc}") from None
    if len(l) != d:
        raise ValueError("l length must equal d")
    if len(c) != d:
        raise ValueError("c length must equal d")
    state = make_state(l, c)
    if delta is not None:
        if len(delta) != d:
            raise ValueError("perturbation must be d x d")
        for k, row in enumerate(delta):
            if len(row) != d:
                raise ValueError(f"malformed state document: perturbation row "
                                 f"{k} holds {len(row)} numbers, not {d}")
        state = inject_subspace(state, SubspacePerturbation(np.array(delta)))
    return state


def load_state(path) -> QuditState:
    return _read_json(path, state_from_json)


def save_state(path, state: QuditState, pert: SubspacePerturbation | None = None):
    _write_json(path, state_to_json(state, pert))


def _read_json(path, parse):
    """parse(doc) of the JSON document in the file at path; a ValueError,
    from the JSON text or from parse, is raised with the path in front."""
    try:
        with open(path) as fh:
            return parse(json.load(fh))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _write_json(path, doc: dict) -> None:
    """Write doc as JSON: indent 1, finite numbers only, a final newline.
    A document it rejects leaves no file behind."""
    text = json.dumps(doc, indent=1, allow_nan=False) + "\n"
    with open(path, "w") as fh:
        fh.write(text)
