"""Projective coincidence tomography for biphoton mode states.

Simulation and fit share one measurement model: with P the per-photon
projector rows (basis kets plus four-phase two-mode superpositions), the
density G^dag G has rates sum_r |P G_r P^T|^2 over the rows G_r of G read
as d x d, G being a state's conjugate amplitudes, a density's rho^1/2 or
the fit's factor.  Counts follow a named noise model (none, poisson,
crosstalk); the fit minimizes chi-square along an L-BFGS direction, with
optional entry thresholding, and feeds the spectrum pipeline.
"""

from __future__ import annotations

import csv
import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .fields import GridSpec
from .spectrum import TopologicalSpectrum, _fmt, compute_spectrum
from .states import (_charges, _complexes, _document, _pairs, _read_json,
                     _write_json)

THETAS = (0.0, 0.5 * np.pi, np.pi, 1.5 * np.pi)

# noise name -> (Poisson sampling, crosstalk width in mode-charge units)
NOISE_MODELS = {"none": (False, None), "poisson": (True, None),
                "crosstalk": (True, 2.0)}
CROSSTALK_AMP = 0.01      # leak peak, as a fraction of the mean basis rate
GRAD_TOL = 1e-8           # chi-square gradient norm that ends the fit
FLOOR = 1e-9              # smallest rate a chi-square term is divided by
LBFGS_MEMORY = 8          # (s, y) step pairs the L-BFGS direction is built from


@dataclass(frozen=True)
class ProjectionSet:
    """Per-photon projector census over a mode subspace.

    Holds the d basis kets first, then for every mode pair the four
    equal-weight superpositions with phases 0, pi/2, pi, 3pi/2.  The same
    census is used on both photons, giving K^2 coincidence settings.
    """

    d: int
    subspace_l: tuple[int, ...]
    projectors: np.ndarray        # K x d complex unit rows
    labels: tuple[str, ...]

    @property
    def K(self) -> int:
        return self.projectors.shape[0]


def projection_count(d: int) -> int:
    return 4 * math.comb(d, 2) + d


def projection_set(d: int, subspace_l) -> ProjectionSet:
    """Basis kets plus the four-phase pair superpositions, in census order,
    over d distinct whole-number mode charges subspace_l."""
    subspace_l, _ = _charges(subspace_l, d)
    if len(set(subspace_l)) != d:
        raise ValueError("subspace_l entries must be distinct")
    rows = list(np.eye(d, dtype=complex))
    labels = [f"b{ln}" for ln in subspace_l]
    for n in range(d):
        for m in range(n + 1, d):
            for k, theta in enumerate(THETAS):
                v = np.zeros(d, dtype=complex)
                v[n] = 1.0
                v[m] = np.exp(1j * theta)
                rows.append(v / np.sqrt(2.0))
                labels.append(f"p{subspace_l[n]}_{subspace_l[m]}_t{k}")
    proj = np.array(rows)
    assert proj.shape[0] == projection_count(d)
    return ProjectionSet(d, subspace_l, proj, tuple(labels))


def _joint_amplitudes(P: np.ndarray, G: np.ndarray) -> np.ndarray:
    """P G_r P^T for every row G_r of G read as d x d, shape (rows, K, K):
    the overlaps of the joint projectors p_m x p_n with the conjugate rows."""
    d = P.shape[1]
    return P @ G.reshape(-1, d, d) @ P.T


@dataclass(frozen=True)
class CoincidenceMatrix:
    counts: np.ndarray            # K x K nonnegative
    labels: tuple[str, ...]
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        c = np.asarray(self.counts, dtype=float)
        if c.ndim != 2 or c.shape[0] != c.shape[1]:
            raise ValueError("counts must be a square matrix")
        if len(self.labels) != c.shape[0]:
            raise ValueError("one label per measurement setting is required")
        # NaN fails every comparison, so it is caught here, not below
        bad = np.argwhere(~np.isfinite(c))
        if bad.size:
            m, n = bad[0]
            raise ValueError(f"counts must be finite, got {c[m, n]} at setting "
                             f"({self.labels[m]}, {self.labels[n]})")
        if np.any(c < 0):
            raise ValueError("counts must be nonnegative")
        object.__setattr__(self, "counts", c)


def simulate_coincidences(source, pset: ProjectionSet, total_counts: float = 1e4,
                          noise: str | None = None,
                          rng: np.random.Generator | None = None) -> CoincidenceMatrix:
    """Forward-model coincidence counts for a state or density matrix.

    The ideal rate of setting (m, n) is the squared overlap of the joint
    projector p_m x p_n with the joint state (summed over the rows of
    rho^1/2 for a density), times total_counts.  noise names a NOISE_MODELS
    entry (only None is "none"): "crosstalk" adds a Gaussian mode-distance
    leak inside the basis block, and "poisson" and "crosstalk" then sample
    every entry.  total_counts must be finite and positive.
    """
    if not (np.isfinite(total_counts) and total_counts > 0):
        raise ValueError(f"count budget must be finite and > 0, "
                         f"got {total_counts}")
    try:
        poisson, sigma = NOISE_MODELS["none" if noise is None else noise]
    except KeyError:
        raise ValueError(f"unknown noise model: {noise!r}") from None
    if hasattr(source, "amps"):
        G = np.asarray(source.amps, dtype=complex).conj()
        if G.shape != (pset.d, pset.d):
            raise ValueError("state size does not match the census")
    else:
        rho = np.asarray(source, dtype=complex)
        if rho.shape != (pset.d ** 2, pset.d ** 2):
            raise ValueError("density matrix size does not match the census")
        G = _sqrtm_psd(rho)
    rates = np.sum(np.abs(_joint_amplitudes(pset.projectors, G)) ** 2, axis=0)
    meta = {"total_counts": float(total_counts), "noise": "none"}
    if sigma:
        d = pset.d
        ls = np.array(pset.subspace_l, dtype=float)
        base = CROSSTALK_AMP * float(np.mean(np.diag(rates[:d, :d])))
        dl = ls[:, None] - ls[None, :]
        leak = base * np.exp(-dl ** 2 / (2.0 * sigma ** 2))
        np.fill_diagonal(leak, 0.0)
        rates[:d, :d] += leak
        meta["crosstalk_sigma"] = sigma
    counts = rates * float(total_counts)
    if poisson:
        rng = rng or np.random.default_rng()
        counts = rng.poisson(counts).astype(float)
        meta["noise"] = "poisson+crosstalk" if sigma else "poisson"
    return CoincidenceMatrix(counts, pset.labels, meta)


def check_epsilon(epsilon) -> float:
    """The density threshold as a float, if it is finite and nonnegative."""
    try:
        value = float(epsilon)
    except (TypeError, ValueError):
        value = math.nan
    if not (math.isfinite(value) and value >= 0):
        raise ValueError(f"epsilon must be finite and nonnegative, got {epsilon}")
    return value


def _check_settings(C: CoincidenceMatrix, pset: ProjectionSet) -> None:
    """Refuse counts read by position whose settings are not pset's labels."""
    if tuple(C.labels) != pset.labels:
        raise ValueError("settings must follow the projection set's labels")


def epsilon_from_crosstalk(C: CoincidenceMatrix, pset: ProjectionSet) -> float:
    """Threshold estimate: worst forbidden basis coincidence, as a fraction.

    Off-diagonal basis-block settings are dark for conjugate-mode pairs, so
    whatever shows up there measures the leak floor; dividing by the basis
    diagonal total puts it on the density-matrix entry scale.
    """
    _check_settings(C, pset)
    d = pset.d
    block = C.counts[:d, :d]
    diag_total = float(np.trace(block))
    if diag_total <= 0:
        return 0.0
    off = block[~np.eye(d, dtype=bool)]
    return float(np.max(off)) / diag_total if off.size else 0.0


@dataclass(frozen=True)
class BiphotonDensity:
    """Joint density matrix over the d^2 two-photon mode basis."""

    rho: np.ndarray

    def __post_init__(self):
        rho = np.asarray(self.rho, dtype=complex)
        if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
            raise ValueError("rho must be square")
        if not np.allclose(rho, rho.conj().T, atol=1e-9):
            raise ValueError("rho must be Hermitian")
        if abs(np.trace(rho).real - 1.0) > 1e-8:
            raise ValueError("rho must have unit trace")
        if float(np.linalg.eigvalsh(rho).min()) < -1e-8:
            raise ValueError("rho must be positive semidefinite")
        object.__setattr__(self, "rho", rho)

    def __array__(self, dtype=None, copy=None):
        """rho itself, so np.asarray reads a density as its matrix."""
        rho = np.asarray(self.rho, dtype=dtype)
        return rho.copy() if copy else rho


def _psd_eigh(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues, clipped at 0, and eigenvectors of m's Hermitian part."""
    lam, u = np.linalg.eigh(0.5 * (m + m.conj().T))
    return np.clip(lam, 0.0, None), u


def _psd_project(rho: np.ndarray) -> np.ndarray:
    lam, u = _psd_eigh(rho)
    if lam.sum() == 0.0:
        raise ValueError("density projection collapsed to zero")
    rho = (u * lam) @ u.conj().T
    return rho / np.trace(rho).real


@dataclass(frozen=True)
class ReconstructionResult:
    rho: BiphotonDensity
    chi2: float
    n_iter: int
    grad_norm: float
    stop: str                     # "gradient", "stall", "no_step" or "budget"
    chi2_trace: tuple[float, ...]  # accepted chi-square values, first to last

    @property
    def converged(self) -> bool:
        """Only a budget spent while the fit still improved is unconverged."""
        return self.stop != "budget"


def _factored_inversion(P: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Least-squares density for rates y: the design is D x D, with full-rank
    D[m, a*d + a'] = conj(P[m, a]) P[m, a'], so it is pinv(D) Y pinv(D)^T."""
    K, d = P.shape
    Dp = np.linalg.pinv((P.conj()[:, :, None] * P[:, None, :]).reshape(K, d * d))
    R = (Dp @ y.reshape(K, K) @ Dp.T).reshape(d, d, d, d)
    return R.transpose(0, 2, 1, 3).reshape(d * d, d * d)


def _chi_square(P: np.ndarray, y: np.ndarray, G: np.ndarray):
    """Forward pass: amplitudes X, rate sum S, rates p, floored p, chi-square."""
    X = _joint_amplitudes(P, G)
    t = np.sum(np.abs(X) ** 2, axis=0).reshape(-1)
    S = t.sum()
    p = t / S
    pc = np.maximum(p, FLOOR)
    return X, S, p, pc, float(np.sum((y - p) ** 2 / pc))


def _chi_square_gradient(P: np.ndarray, y: np.ndarray, X, S, p, pc) -> np.ndarray:
    """Chi-square gradient in G from a forward pass: 2 P^H (Q o X_r) conj(P)."""
    resid = y - p
    g = -2.0 * resid / pc - np.where(p > FLOOR, resid ** 2 / pc ** 2, 0.0)
    Q = ((g - float(g @ p)) / S).reshape(X.shape[1:])
    return 2.0 * (P.conj().T @ (Q * X) @ P.conj()).reshape(len(X), -1)


def _lbfgs_direction(grad: np.ndarray, pairs) -> np.ndarray:
    """Two-loop recursion: minus the inverse-Hessian estimate times grad.

    grad and the steps are real views of complex matrices, so a dot product
    is Re<a, b>.  pairs holds (s, y, 1 / s.y) oldest first, each with
    s.y > 0; with none the direction is the starting step -0.1 grad.
    """
    q = grad.copy()
    alphas = []
    for s, y, rho in reversed(pairs):
        a = rho * (s @ q)
        q -= a * y
        alphas.append(a)
    if pairs:
        s, y, _ = pairs[-1]
        q *= (s @ y) / (y @ y)
    else:
        q *= 0.1
    for (s, y, rho), a in zip(pairs, reversed(alphas)):
        q += (a - rho * (y @ q)) * s
    return -q


def reconstruct(C: CoincidenceMatrix, pset: ProjectionSet, epsilon: float = 0.0,
                max_iters: int = 10_000) -> ReconstructionResult:
    """Chi-square fit of a PSD unit-trace density to measured coincidences.

    The density is parameterized as G^dag G / Tr(G^dag G), its rates are
    read through the joint amplitudes that simulation uses, G starts from
    the least-squares density with its eigenvalues clipped at 0 and raised
    by 1e-4, and G moves along an L-BFGS direction (Liu & Nocedal, Math.
    Prog. 45, 503 (1989)) built from the exact chi-square gradient and the
    last LBFGS_MEMORY steps, with Re<a, b> as the inner product on complex
    G.  The first
    step, and any step whose direction is not downhill, is -0.1 grad with
    the memory cleared.  Each line search starts at the full step and
    halves it until chi-square does not increase, so accepted values never
    increase.  The fit stops ("stop") at a gradient norm below GRAD_TOL,
    when no step of any size improves the fit, when the fit value has
    stalled at relative machine precision for many consecutive iterations,
    or when max_iters runs out; only that last, a budget exhausted while
    still making progress, reports non-convergence.
    Afterwards entries at or below epsilon are zeroed and the matrix is
    projected back to the physical set; epsilon = 0 leaves the optimizer
    output untouched.
    """
    epsilon = check_epsilon(epsilon)
    _check_settings(C, pset)
    counts = C.counts.reshape(-1).astype(float)
    total = counts.sum()
    if total <= 0:
        raise ValueError("coincidence matrix is all zero")
    P = pset.projectors
    y = counts / total

    lam, u = _psd_eigh(_factored_inversion(P, y))
    lam += 1e-4
    lam /= lam.sum()
    G = (u * np.sqrt(lam)).conj().T

    X, S, p, pc, chi = _chi_square(P, y, G)
    trace = [chi]
    pairs = deque(maxlen=LBFGS_MEMORY)
    G_prev = grad_prev = None
    gnorm = np.inf
    stop = "budget"
    it = 0
    stall = 0
    for it in range(1, max_iters + 1):
        grad = _chi_square_gradient(P, y, X, S, p, pc)
        gnorm = float(np.linalg.norm(grad))
        if gnorm < GRAD_TOL:
            stop = "gradient"
            break
        grad = grad.view(np.float64).reshape(-1)
        if G_prev is not None:
            s_k = (G - G_prev).view(np.float64).reshape(-1)
            y_k = grad - grad_prev
            sy = float(s_k @ y_k)
            if sy > 0.0:
                pairs.append((s_k, y_k, 1.0 / sy))
        direction = _lbfgs_direction(grad, pairs)
        if float(grad @ direction) >= 0.0:
            pairs.clear()
            direction = _lbfgs_direction(grad, pairs)
        direction = direction.view(complex).reshape(G.shape)
        G_prev, grad_prev = G, grad
        chi_prev = chi
        step = 1.0
        while step > 1e-16:
            cand = G + step * direction
            X2, S2, p2, pc2, chi2 = _chi_square(P, y, cand)
            if chi2 <= chi:
                G, X, S, p, pc, chi = cand, X2, S2, p2, pc2, chi2
                break
            step *= 0.5
        else:
            stop = "no_step"
            break
        trace.append(chi)
        if chi_prev - chi <= 1e-12 * max(chi, 1e-30):
            stall += 1
            if stall >= 25:
                stop = "stall"
                break
        else:
            stall = 0
    H = G.conj().T @ G
    rho = H / np.trace(H).real
    if epsilon > 0.0:
        rho = np.where(np.abs(rho) <= epsilon, 0.0, rho)
        rho = _psd_project(rho)
    return ReconstructionResult(BiphotonDensity(rho), chi * total, it, gnorm,
                                stop, tuple(c * total for c in trace))


# ---------------------------------------------------------------------------
# metrics

def _sqrtm_psd(m: np.ndarray) -> np.ndarray:
    # eigenvalues below n eps lam_max are rounding residue of zeros, whose roots
    # (1e-8 for 1e-16) would lift a pure density's fidelity and zero rates
    lam, u = _psd_eigh(m)
    lam[lam < lam.size * np.finfo(float).eps * lam[-1]] = 0.0
    return (u * np.sqrt(lam)) @ u.conj().T


def fidelity(rho_t: np.ndarray, rho_m: np.ndarray) -> float:
    """Uhlmann fidelity between two density matrices."""
    a = _sqrtm_psd(np.asarray(rho_t, dtype=complex))
    inner = _sqrtm_psd(a @ np.asarray(rho_m, dtype=complex) @ a)
    return float(np.real(np.trace(inner)) ** 2)


def purity(rho: np.ndarray) -> float:
    rho = np.asarray(rho, dtype=complex)
    return float(np.real(np.trace(rho @ rho)))


def concurrence(rho: np.ndarray) -> float:
    """Two-qubit-pair entanglement monotone from the spin-flipped overlap."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (4, 4):
        raise ValueError("concurrence is defined for a 4 x 4 density matrix")
    sy = np.array([[0.0, -1j], [1j, 0.0]])
    flip = np.kron(sy, sy)
    lam = np.linalg.eigvals(rho @ flip @ rho.conj() @ flip)
    lam = np.sqrt(np.clip(np.real(lam), 0.0, None))
    lam = np.sort(lam)[::-1]
    return float(max(0.0, lam[0] - lam[1] - lam[2] - lam[3]))


@dataclass(frozen=True)
class Metrics:
    fidelity: float
    purity: float
    concurrence: float | None


def metrics(rho_t, rho_m) -> Metrics:
    """Reconstruction quality: fidelity to target, purity, pair concurrence.

    Purity and concurrence describe the measured matrix; concurrence only
    exists for the two-mode biphoton (4 x 4) case and is None otherwise.
    """
    rho_t, rho_m = np.asarray(rho_t), np.asarray(rho_m)
    if rho_t.shape != rho_m.shape:
        raise ValueError("density matrices differ in size")
    conc = concurrence(rho_m) if rho_m.shape == (4, 4) else None
    return Metrics(fidelity(rho_t, rho_m), purity(rho_m), conc)


# ---------------------------------------------------------------------------
# density-matrix spectrum route

@dataclass(frozen=True)
class DensityCoeffs:
    """Coefficient source backed by a joint density matrix.

    Exposes the same l/coeff contract as a pure state, letting every
    field constructor run unchanged on mixed or reconstructed states.
    """

    l: tuple[int, ...]
    rho: np.ndarray

    @property
    def d(self) -> int:
        return len(self.l)

    def coeff(self, matrix: np.ndarray) -> np.ndarray:
        d = self.d
        rho4 = self.rho.reshape(d, d, d, d)
        return np.einsum("ab,cbda->dc", matrix, rho4)


def spectrum_from_density(rho, l, mode: str | None = None,
                          grid: GridSpec | None = None,
                          workers: int | None = None) -> TopologicalSpectrum:
    """Topological spectrum carried by a joint density matrix.

    The spatial profiles follow the first photon's whole-number mode
    charges l; rho must be d^2 x d^2 for d = len(l), its Hermitian part used.
    workers takes compute_spectrum's default and rule.
    """
    rho = np.asarray(rho, dtype=complex)
    l, d = _charges(l)
    if rho.shape != (d * d, d * d):
        raise ValueError("density matrix size does not match l")
    rho = 0.5 * (rho + rho.conj().T)
    return compute_spectrum(DensityCoeffs(l, rho), mode=mode, grid=grid,
                            workers=workers)


# ---------------------------------------------------------------------------
# artifacts

def write_coincidences_csv(C: CoincidenceMatrix, path) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["setting", *C.labels])
        for lab, row in zip(C.labels, C.counts):
            w.writerow([lab, *map(_fmt, row)])


def read_coincidences_csv(path) -> CoincidenceMatrix:
    """Counts of a CSV whose header and first column name one settings list."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or len(rows) < 2:
        raise ValueError(f"{path}: empty coincidence file")
    labels = tuple(rows[0][1:])
    if [row[:1] for row in rows[1:]] != [[lab] for lab in labels]:
        raise ValueError(f"{path}: the first column must name the header's "
                         f"settings in the header's order")
    counts = []
    for lab, row in zip(labels, rows[1:]):
        if len(row) != len(rows[0]):
            raise ValueError(f"{path}: row {lab!r} holds {len(row) - 1} counts, "
                             f"not {len(labels)}")
        try:
            counts.append([float(x) for x in row[1:]])
        except ValueError as exc:
            raise ValueError(f"{path}: row {lab!r}: {exc}") from None
    return CoincidenceMatrix(np.array(counts), labels, {"source": str(path)})


def density_to_json(rho: BiphotonDensity | np.ndarray, meta: dict | None = None) -> dict:
    return {"rho": list(map(_pairs, np.asarray(rho))), "meta": dict(meta or {})}


def density_from_json(doc: dict) -> BiphotonDensity:
    """Parse the density document (rho, optional meta), rejecting unknown
    keys and malformed values; its pairs follow the state document's rule."""
    rho = _document(doc, "density", ("rho",), ("meta",))["rho"]
    if not isinstance(rho, list):
        raise ValueError(f"malformed density document: rho is {rho!r}, not rows")
    rows = [_complexes(row) for row in rho]
    for k, row in enumerate(rows):
        if len(row) != len(rows):
            raise ValueError(f"malformed density document: rho row {k} holds "
                             f"{len(row)} pairs, not {len(rows)}")
    return BiphotonDensity(np.array(rows))


def save_density(path, rho, meta: dict | None = None) -> None:
    _write_json(path, density_to_json(rho, meta))


def load_density(path) -> BiphotonDensity:
    return _read_json(path, density_from_json)
