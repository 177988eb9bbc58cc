"""Spectrum assembly over candidate triples.

Enumerates index triples (full census or the named qutrit list), evaluates
every map numerically with the analytic column alongside, checks the
dependency structure of the named qutrit maps, scores spectrum similarity,
and serializes spectra to CSV/JSON plus a dependency-free SVG bar chart.

The maps of one census share what does not depend on the map: a serial
call, or each pool worker's round-robin share of the maps (one chunk per
worker), evaluates its maps through one SharedSource, so each component's
term field and its exponent rows per phi grid (the classifier's ring grid
among them) are built once there, as is whether the source is clean, and
dropped with the call or chunk.  Each map still builds its own cross and
determinant tables, density blocks and classifier probe values through
evaluate_map, on one grid: GridSpec's fields left None take the per-map
defaults, whether the caller passed no grid or GridSpec().

Pooled spectra share one worker pool per process: the first call with more
than one worker starts it (start method fork) and later calls with the same
worker count reuse it until the interpreter exits.  A worker whose owner
dies without shutting the pool down (SIGKILL) exits on its own.
"""

from __future__ import annotations

import csv
import html
import math
import numbers
import os
import threading
import time
from dataclasses import asdict, dataclass, replace
from itertools import combinations, permutations, repeat

import numpy as np

from .fields import (CANONICAL_LABELS, GridSpec, SharedSource, TripleSpec,
                     map_layout, triple_field)
from .invariants import (_closed_forms, wrapping_analytic_triple,
                         wrapping_numeric)
from .states import QuditState, _write_json

TRIVIAL_THRESHOLD = 0.1
MODES = ("full", "canonical18")     # the census modes normalize_mode accepts


def normalize_mode(mode: str | None, d: int) -> str:
    """The census mode, one of MODES; None picks canonical18 at d = 3."""
    if mode is None:
        return "canonical18" if d == 3 else "full"
    if mode not in MODES:
        raise ValueError(f"unknown mode: {mode!r}")
    if mode == "canonical18" and d != 3:
        raise ValueError("canonical18 mode needs d = 3")
    return mode


def triple_count(d: int) -> int:
    """Number of candidate maps in a full census."""
    return math.comb(d * d - 1, 3)


def independent_count(d: int) -> int:
    """The paper's count of linearly independent invariants, d(d-1)(d-2)(d+3)/4.

    It is checked only at d = 3, as the rank 9 of the canonical-18 closed
    forms (dependency_scan).  The rank of the closed-form values of every
    nice-pair index triple over all distinct charges in a box reads 41 at
    d = 4 in [-3,3]^4 and [-5,5]^4 (the formula gives 42), and 109 at d = 5
    in [-3,3]^5 (the formula gives 120), so beyond d = 3 the count is the
    paper's claim, not a measured rank.  The product formula vanishes at
    d = 2 through its (d-2) factor, yet the qubit map is a genuine
    invariant, so that dimension is counted by hand.
    """
    if d < 2:
        raise ValueError("need d >= 2")
    if d == 2:
        return 1
    return d * (d - 1) * (d - 2) * (d + 3) // 4


def enumerate_triples(d: int, mode: str | None = None) -> list[TripleSpec]:
    """Candidate triples in deterministic order.

    Full mode lists every index combination lexicographically; the named
    qutrit mode lists the 18 canonical maps, the two starred entries
    holding the combined diagonal third in index slot 0.
    """
    mode = normalize_mode(mode, d)
    if mode == "full":
        return [TripleSpec(c) for c in combinations(range(1, d * d), 3)]
    return [TripleSpec.parse(lab) for lab in CANONICAL_LABELS]


@dataclass(frozen=True)
class SpectrumEntry:
    triple_label: str
    map_class: str
    raw: float
    glued: float
    analytic: float | None
    singular: bool
    trivial: bool
    converged: bool
    quadrature_error: float
    # radial panels of the final estimate; a map whose density is odd
    # under phi -> 2 pi - phi is 0 with no quadrature, and reports the
    # starting grid's n_r
    n_r_used: int | None = None


@dataclass(frozen=True)
class TopologicalSpectrum:
    d: int
    mode: str
    entries: tuple[SpectrumEntry, ...]

    @property
    def labels(self) -> list[str]:
        return [e.triple_label for e in self.entries]

    def values(self, column: str = "glued") -> np.ndarray:
        out = []
        for e in self.entries:
            v = getattr(e, column)
            out.append(np.nan if v is None else float(v))
        return np.array(out)

    def entry(self, name: str) -> SpectrumEntry:
        try:
            label = TripleSpec.parse(name).label
            return next(e for e in self.entries if e.triple_label == label)
        except (ValueError, StopIteration):
            raise KeyError(name) from None

    @property
    def nontrivial(self) -> list[SpectrumEntry]:
        return [e for e in self.entries if not e.trivial]

    @property
    def non_converged(self) -> list[str]:
        return [e.triple_label for e in self.entries if not e.converged]


def evaluate_map(source, spec: TripleSpec, grid: GridSpec | None = None,
                 max_doublings: int = 2,
                 photon_swap: bool = False) -> SpectrumEntry:
    """Spectrum entry of one candidate map: the one per-map code path.

    source is a QuditState or DensityCoeffs, or a fields.SharedSource of
    one, through which the maps of a census share their component tables.
    Every spec, census triple or canonical label, builds its field through
    triple_field and its closed form through wrapping_analytic_triple.
    A grid whose n_r is None (no grid, or GridSpec()) takes the per-map
    radial default, 512 panels for a canonical qutrit label and 256 for
    an index triple, and keeps its n_phi.  wrapping_numeric reads the
    singular flag off the field's own term content.  The analytic
    column is filled only for clean (diagonal-amplitude) sources, where
    the closed forms apply.  photon_swap negates every value.
    """
    if grid is None or grid.n_r is None:
        grid = replace(grid or GridSpec(),
                       n_r=512 if spec.canonical is not None else 256)
    source = SharedSource.of(source)
    field = triple_field(source, spec)
    ana = (wrapping_analytic_triple(source.l, spec.indices, source.d)
           if source._clean else None)
    res = wrapping_numeric(field, grid, max_doublings=max_doublings)
    sign = -1.0 if photon_swap else 1.0
    glued = sign * res.glued
    return SpectrumEntry(spec.label, res.map_class.kind, sign * res.raw, glued,
                         None if ana is None else sign * ana.glued, res.singular,
                         abs(glued) < TRIVIAL_THRESHOLD, res.converged,
                         res.quadrature_error, res.n_r_used)


def _evaluate_chunk(source, specs, options: dict) -> list[SpectrumEntry]:
    """Entries of a run of specs; every input comes in the arguments.

    The specs' maps share each component's term field and exponent rows
    through one SharedSource: the caller's, or a new one for the chunk.
    """
    source = SharedSource.of(source)
    return [evaluate_map(source, spec, **options) for spec in specs]


# The process's worker pool: (executor, workers, pid, close).  Pooled calls
# take the lock, so one pool serves one call at a time.
_pool: tuple | None = None
_pool_lock = threading.Lock()


def _shared_pool(workers: int):
    """The pool of this process, started on first use and kept until exit.

    A pool is reused only for the same worker count and only by the process
    that started it: a forked child starts its own and never touches its
    parent's.
    """
    global _pool
    if _pool is not None and _pool[1:3] == (workers, os.getpid()):
        return _pool[0]
    _close_pool()
    # imported on first use, so that one-shot commands and serial callers
    # do not pay for them in `import topospec`
    from concurrent.futures import ProcessPoolExecutor
    from multiprocessing import get_context, util
    executor = ProcessPoolExecutor(workers, mp_context=get_context("fork"),
                                   initializer=_exit_with_parent,
                                   initargs=(os.getpid(),))
    # The executor's own exit hook joins the workers at interpreter exit,
    # but a multiprocessing child first joins its children and closes its
    # queues (at exit priority 10), so it would wait on idle workers
    # forever.  This finalizer runs before both and stops them.
    close = util.Finalize(None, executor.shutdown,
                          kwargs={"cancel_futures": True}, exitpriority=20)
    _pool = (executor, workers, os.getpid(), close)
    return executor


def _exit_with_parent(parent: int) -> None:
    """Pool initializer: end this worker once parent is no longer its parent.

    A worker holds its queues' write ends itself, so an owner killed
    outright (SIGKILL) would leave it waiting for tasks forever; a daemon
    thread polls the parent pid and exits the worker when it changes.
    """
    def watch():
        while os.getppid() == parent:
            time.sleep(0.5)
        os._exit(1)

    threading.Thread(target=watch, daemon=True).start()


def _close_pool() -> None:
    """Shut this process's pool down; a parent's pool is only forgotten."""
    global _pool
    if _pool is not None and _pool[2] == os.getpid():
        _pool[3]()
    _pool = None


def _evaluate_pooled(source, specs, options: dict, workers: int) -> list[SpectrumEntry]:
    """Entries in enumeration order, one round-robin share per worker.

    Worker k of n = min(workers, len(specs)) takes specs[k::n] as one
    chunk, so it builds the source's tables once for all its maps, and
    the costly singular maps, which sit next to each other in enumeration
    order, spread over the workers.

    Any exception shuts the pool down before it propagates, so the next
    call starts a fresh one.  A pool that broke (a worker died, perhaps
    between calls) is replaced and the call runs once more on the new one.
    """
    from concurrent.futures.process import BrokenProcessPool
    n = min(workers, len(specs))
    chunks = [specs[k::n] for k in range(n)]
    with _pool_lock:
        for last in (False, True):
            pool = _shared_pool(workers)
            try:
                parts = list(pool.map(_evaluate_chunk, repeat(source), chunks,
                                      repeat(options)))
            except BaseException as exc:
                _close_pool()
                if last or not isinstance(exc, BrokenProcessPool):
                    raise
            else:
                entries = [None] * len(specs)
                for k, part in enumerate(parts):
                    entries[k::n] = part
                return entries


def worker_count(workers: int | str | None = None, name: str = "workers") -> int:
    """The pool size: workers, or all cores capped by TOPOSPEC_THREADS if set.

    The one rule for the argument, the CLI's --workers and the variable:
    each is a positive integer or the decimal text of one, and anything
    else is a ValueError that names it.
    """
    if workers is None:
        cores = os.cpu_count() or 1
        cap = os.environ.get("TOPOSPEC_THREADS")
        return min(cores, worker_count(cap, "TOPOSPEC_THREADS")) if cap else cores
    whole = (workers.strip().isdecimal() if isinstance(workers, str) else
             isinstance(workers, numbers.Integral) and not isinstance(workers, bool))
    if not whole or int(workers) < 1:
        raise ValueError(f"{name} must be a positive integer, got {workers!r}")
    return int(workers)


def default_workers() -> int:
    """All cores, capped by TOPOSPEC_THREADS under worker_count's rule."""
    return worker_count()


def compute_spectrum(state: QuditState, mode: str | None = None,
                     grid: GridSpec | None = None, workers: int | None = None,
                     max_doublings: int = 2,
                     photon_swap: bool = False) -> TopologicalSpectrum:
    """Evaluate every candidate map of the state, in parallel.

    Entries keep enumeration order regardless of worker scheduling; each
    goes through evaluate_map, which also picks the default grid.
    photon_swap flips the orientation convention, negating the whole
    spectrum.

    With more than one worker the maps run on the process's shared pool.
    The first such call starts it with the fork start method; later calls
    reuse it.  It is replaced when the worker count differs, when the
    caller is a forked child of the process that started it, or after a
    call that raised; a call that finds its pool broken (a worker died)
    runs once more on a fresh one.  Each worker takes one task, which
    carries the source, the options and the worker's round-robin share of
    the specs, so it builds the source's tables once for the whole share
    and keeps no state between calls.
    """
    mode = normalize_mode(mode, state.d)
    specs = enumerate_triples(state.d, mode)
    workers = worker_count(workers)
    options = dict(grid=grid, max_doublings=max_doublings,
                   photon_swap=photon_swap)
    if workers == 1 or len(specs) <= 2:
        entries = _evaluate_chunk(state, specs, options)
    else:
        entries = _evaluate_pooled(state, specs, options, workers)
    return TopologicalSpectrum(state.d, mode, tuple(entries))


# ---------------------------------------------------------------------------
# dependency structure

RELATIONS = (
    ("123 - 456 + 674", (("123", 1.0), ("456", -1.0), ("674", 1.0))),
    ("671 - 45* - 126", (("671", 1.0), ("45*", -1.0), ("126", -1.0))),
    ("67* + 451 - 124", (("67*", 1.0), ("451", 1.0), ("124", -1.0))),
)

PAIRWISE_IDENTITIES = (("124", "125"), ("126", "127"), ("451", "452"),
                       ("456", "457"), ("671", "672"), ("674", "675"))


@dataclass(frozen=True)
class RelationCheck:
    name: str
    max_residual: float
    holds: bool


@dataclass(frozen=True)
class DependencyReport:
    l_range: int
    n_samples: int
    rank: int
    relations: tuple[RelationCheck, ...]
    pairwise: tuple[RelationCheck, ...]


def dependency_scan(l_range: int) -> DependencyReport:
    """Rank of the canonical-map value vectors over an index box.

    Takes every distinct mode triple in [-l_range, l_range]^3, in
    itertools.permutations order, as one charge array and evaluates each
    canonical label's closed form over the whole box at once; each column
    equals that label's per-map closed form (wrapping_analytic_d3) row by
    row.  Reports the rank of the 18-column matrix and checks the three
    linear dependences and six cos/sin equalities exactly on every sample.
    """
    if l_range < 3:
        raise ValueError("need l_range >= 3")
    charges = np.array(list(permutations(range(-l_range, l_range + 1), 3)))
    mat = np.column_stack([_closed_forms(charges, *map_layout(3, spec.indices)[1::2])[1]
                           for spec in enumerate_triples(3)])
    col = dict(zip(CANONICAL_LABELS, mat.T))

    def check(name: str, residual: np.ndarray) -> RelationCheck:
        worst = float(np.abs(residual).max())
        return RelationCheck(name, worst, worst == 0.0)

    relations = tuple(check(name, sum(c * col[lab] for lab, c in combo))
                      for name, combo in RELATIONS)
    pairwise = tuple(check(f"{a} = {b}", col[a] - col[b])
                     for a, b in PAIRWISE_IDENTITIES)
    rank = int(np.linalg.matrix_rank(mat))
    return DependencyReport(l_range, len(charges), rank, relations, pairwise)


# ---------------------------------------------------------------------------
# similarity

@dataclass(frozen=True)
class SimilarityScores:
    residual: float
    cosine: float


def similarity(a, e) -> SimilarityScores:
    """Residual and cosine scores between two spectrum vectors.

    residual = 1 - sum(|a| - |e|)^2 / sum|a|; cosine is taken between the
    L1-normalized vectors.  Zero vectors have no direction, so they are
    rejected, and so are non-finite values and scores that overflow.
    """
    a = np.asarray(a, dtype=float)
    e = np.asarray(e, dtype=float)
    if a.shape != e.shape:
        raise ValueError("spectrum vectors differ in length")
    l1_a = np.sum(np.abs(a))
    l1_e = np.sum(np.abs(e))
    if not (0.0 < l1_a < np.inf and 0.0 < l1_e < np.inf):
        raise ValueError("similarity needs finite spectra, not all zero")
    with np.errstate(over="ignore"):
        residual = 1.0 - float(np.sum((np.abs(a) - np.abs(e)) ** 2) / l1_a)
        ah = a / l1_a
        eh = e / l1_e
        cosine = float(ah @ eh / (np.linalg.norm(ah) * np.linalg.norm(eh)))
    if not (np.isfinite(residual) and np.isfinite(cosine)):
        raise ValueError(f"similarity scores overflow: residual {residual}, "
                         f"cosine {cosine}")
    return SimilarityScores(residual, cosine)


# ---------------------------------------------------------------------------
# artifacts

CSV_COLUMNS = ("triple_label", "map_class", "raw", "glued", "analytic",
               "singular", "trivial")


def _fmt(x: float) -> str:
    return format(float(x), ".12g")


def write_spectrum_csv(spectrum: TopologicalSpectrum, path) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(CSV_COLUMNS)
        for e in spectrum.entries:
            w.writerow([e.triple_label, e.map_class, _fmt(e.raw), _fmt(e.glued),
                        "" if e.analytic is None else _fmt(e.analytic),
                        str(e.singular).lower(), str(e.trivial).lower()])


def spectrum_to_dict(spectrum: TopologicalSpectrum, meta: dict | None = None) -> dict:
    """JSON document of a spectrum; each entry holds every SpectrumEntry field."""
    entries = [asdict(e) for e in spectrum.entries]
    for entry in entries:
        # no doubling leaves an infinite error, which JSON lacks
        if not math.isfinite(entry["quadrature_error"]):
            entry["quadrature_error"] = None
    out = {"d": spectrum.d, "mode": spectrum.mode, "entries": entries,
           "meta": dict(meta or {})}
    out["meta"].setdefault("non_converged", spectrum.non_converged)
    return out


def write_spectrum_json(spectrum: TopologicalSpectrum, path,
                        meta: dict | None = None) -> None:
    _write_json(path, spectrum_to_dict(spectrum, meta))


def read_spectrum_values(path) -> tuple[list[str], np.ndarray]:
    """Labels and value column of a spectrum CSV.

    Accepts both the library schema (glued column) and bare comparison
    vectors with a value column.
    """
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh, restval="")
        if reader.fieldnames is None:
            raise ValueError(f"{path}: empty spectrum file")
        col = "glued" if "glued" in reader.fieldnames else "value"
        if col not in reader.fieldnames or "triple_label" not in reader.fieldnames:
            raise ValueError(f"{path}: need triple_label and glued/value columns")
        labels, values = [], []
        for row in reader:
            labels.append(row["triple_label"])
            try:
                values.append(float(row[col]))
            except ValueError:
                raise ValueError(f"{path}: {labels[-1]} has the non-numeric "
                                 f"value {row[col]!r}") from None
            if not math.isfinite(values[-1]):
                raise ValueError(f"{path}: {labels[-1]} has the non-finite "
                                 f"value {row[col]!r}")
    return labels, np.array(values)


def svg_bar_chart(labels, values, trivial, path, title: str = "") -> None:
    """Minimal self-contained bar chart of glued values.

    Trivial entries are grayed out.  Censuses wider than 160 bars are cut
    down to their nontrivial entries to stay readable.
    """
    labels = list(labels)
    values = [float(v) for v in values]
    trivial = list(trivial)
    if len(labels) > 160:
        keep = [k for k, t in enumerate(trivial) if not t]
        title = (title + " " if title else "") + \
            f"(nontrivial {len(keep)} of {len(labels)})"
        labels = [labels[k] for k in keep]
        values = [values[k] for k in keep]
        trivial = [False] * len(keep)
    n = max(1, len(labels))
    width, height, pad = 960, 420, 48
    span = max(1e-9, max(abs(v) for v in values) if values else 1.0)
    plot_h = (height - 2 * pad) / 2
    zero_y = pad + plot_h
    bar_w = (width - 2 * pad) / n
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
             f'height="{height}" viewBox="0 0 {width} {height}">',
             f'<rect width="{width}" height="{height}" fill="white"/>']
    if title:
        parts.append(f'<text x="{width / 2:.1f}" y="24" text-anchor="middle" '
                     f'font-family="sans-serif" font-size="15">{html.escape(title)}</text>')
    parts.append(f'<line x1="{pad}" y1="{zero_y:.1f}" x2="{width - pad}" '
                 f'y2="{zero_y:.1f}" stroke="#444" stroke-width="1"/>')
    for k, (lab, v, triv) in enumerate(zip(labels, values, trivial)):
        h = abs(v) / span * plot_h
        x = pad + k * bar_w
        y = zero_y - h if v >= 0 else zero_y
        color = "#b0b0b0" if triv else ("#3b6ea5" if v >= 0 else "#a54242")
        parts.append(f'<rect x="{x + 0.1 * bar_w:.2f}" y="{y:.2f}" '
                     f'width="{0.8 * bar_w:.2f}" height="{h:.2f}" fill="{color}"/>')
        if n <= 40:
            tx = x + 0.5 * bar_w
            ty = height - pad + 14
            parts.append(f'<text x="{tx:.1f}" y="{ty:.1f}" text-anchor="end" '
                         f'font-family="sans-serif" font-size="9" '
                         f'transform="rotate(-55 {tx:.1f} {ty:.1f})">{html.escape(lab)}</text>')
    for v in (span, -span):
        yv = zero_y - v / span * plot_h
        parts.append(f'<text x="{pad - 6}" y="{yv + 4:.1f}" text-anchor="end" '
                     f'font-family="sans-serif" font-size="10">{v:+.3g}</text>')
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts) + "\n")
