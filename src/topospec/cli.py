"""Command-line surface for the spectrum pipeline.

Subcommands cover state authoring, spectrum computation and comparison,
single-map evaluation, the dependency scan, and the tomography round
trip.  Exit codes: 0 on success, 1 on bad input, 2 when a quadrature or
reconstruction fails to converge or a dependency check is violated.
"""

from __future__ import annotations

import argparse
import re
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
from .fields import R_MIN, TAIL_EPS, GridSpec, TripleSpec
from .invariants import QUAD_TOL
from .spectrum import (MODES, compute_spectrum, dependency_scan,
                       evaluate_map, normalize_mode, read_spectrum_values,
                       similarity, svg_bar_chart, worker_count,
                       write_spectrum_csv, write_spectrum_json)
from .states import (_write_json, inject_subspace, load_state, make_state,
                     sample_perturbation, save_state)
from .tomography import (NOISE_MODELS, check_epsilon, epsilon_from_crosstalk,
                         metrics, projection_set, reconstruct, save_density,
                         simulate_coincidences, spectrum_from_density,
                         write_coincidences_csv)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NUMERIC = 2


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors exit with the input-error code,
    and which reads a token that opens with a dash and then a digit or a
    point ("-1,0,1", "-1j,1,1", "-.5,1,1") as a value: no option does."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-[\d.]")

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


def _add_grid_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--grid-nr", type=int, default=None,
                   help="radial Simpson panels")
    p.add_argument("--grid-nphi", type=int, default=None,
                   help="azimuthal nodes")


def _add_census_flags(p: argparse.ArgumentParser) -> None:
    """The grid flags plus the census and pool size of a whole spectrum."""
    _add_grid_flags(p)
    p.add_argument("--mode", choices=MODES, default=None,
                   help="census to evaluate (default: canonical18 for d=3)")
    p.add_argument("--workers", default=None,
                   help="parallel workers, a positive integer (default: all "
                        "cores, capped by TOPOSPEC_THREADS)")


def _parse_list(text: str, kind) -> list:
    """The comma-separated numbers of text as kind; the library applies its
    own rules to them (whole-number charges and indices)."""
    return [kind(tok.replace(" ", "")) for tok in text.split(",") if tok.strip()]


# ---------------------------------------------------------------------------
# commands

def _cmd_state_make(args) -> int:
    l = _parse_list(args.l, float)
    c = _parse_list(args.c, complex)
    state = make_state(l, c)
    pert = None
    if args.perturb:
        rng = np.random.default_rng(args.seed)
        pert = sample_perturbation(state.d, rng)
    save_state(args.out, state, pert)
    print(f"wrote d={state.d} state to {args.out}"
          + (" (with subspace perturbation)" if pert else ""))
    return EXIT_OK


def _cmd_spectrum_compute(args) -> int:
    state = load_state(args.state)
    workers = worker_count(args.workers, "--workers")
    grid = GridSpec(args.grid_nr, args.grid_nphi)
    spec = compute_spectrum(state, mode=args.mode, grid=grid,
                            workers=workers, photon_swap=args.swap_photons)
    write_spectrum_csv(spec, args.out)
    # a grid field that is null took the per-map default; r_min and
    # tail_eps place the radial rule's first and last node
    meta = {"state_file": str(args.state), "workers": workers,
            "photon_swap": bool(args.swap_photons), "grid": asdict(grid),
            "r_min": R_MIN, "tail_eps": TAIL_EPS,
            "quad_tol": QUAD_TOL, "version": __version__}
    if args.json:
        write_spectrum_json(spec, args.json, meta)
    if args.svg:
        svg_bar_chart(spec.labels, [e.glued for e in spec.entries],
                      [e.trivial for e in spec.entries], args.svg,
                      title=f"d={spec.d} {spec.mode} spectrum")
    bad = spec.non_converged
    print(f"d={spec.d} mode={spec.mode}: {len(spec.entries)} maps, "
          f"{len(spec.nontrivial)} nontrivial -> {args.out}")
    if bad:
        print(f"non-converged maps: {', '.join(bad)}", file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_OK


def _cmd_spectrum_compare(args) -> int:
    labels_a, values_a = read_spectrum_values(args.spectrum_a)
    labels_b, values_b = read_spectrum_values(args.spectrum_b)
    scores = similarity(values_a, values_b)
    if labels_a != labels_b:
        print("warning: spectra carry different labels; comparing by position",
              file=sys.stderr)
    print(f"residual={scores.residual:.6f} cosine={scores.cosine:.6f}")
    if args.json:
        _write_json(args.json, {**asdict(scores), "n": len(values_a)})
    return EXIT_OK


def _cmd_invariant_eval(args) -> int:
    state = load_state(args.state)
    e = evaluate_map(state, TripleSpec.parse(args.triple),
                     GridSpec(args.grid_nr, args.grid_nphi),
                     photon_swap=args.swap_photons)
    ana_txt = "n/a" if e.analytic is None else format(e.analytic, ".6g")
    print(f"{args.triple}: class={e.map_class} raw={e.raw:.6f} "
          f"glued={e.glued:.6f} analytic={ana_txt} "
          f"singular={e.singular} converged={e.converged} "
          f"err={e.quadrature_error:.2e}")
    return EXIT_OK if e.converged else EXIT_NUMERIC


def _cmd_deps_scan(args) -> int:
    report = dependency_scan(args.l_range)
    print(f"rank over l in [-{report.l_range}, {report.l_range}]^3 "
          f"({report.n_samples} triples): {report.rank}")
    checks = [("relation", rel) for rel in report.relations] + \
        [("identity", rel) for rel in report.pairwise]
    for kind, rel in checks:
        print(f"  {kind} {rel.name}: max residual {rel.max_residual:.1e} "
              f"({'holds' if rel.holds else 'VIOLATED'})")
    if all(rel.holds for _, rel in checks):
        return EXIT_OK
    return EXIT_NUMERIC


def _cmd_tomo_run(args) -> int:
    state = load_state(args.state)
    mode = normalize_mode(args.mode, state.d)
    grid = GridSpec(args.grid_nr, args.grid_nphi)
    rng = np.random.default_rng(args.seed)
    if args.perturb:
        state = inject_subspace(state, sample_perturbation(state.d, rng))
    eps = None if args.epsilon == "auto" else check_epsilon(args.epsilon)
    pset = projection_set(state.d, state.l)
    workers = worker_count(args.workers, "--workers")
    C = simulate_coincidences(state, pset, total_counts=args.counts,
                              noise=args.noise, rng=rng)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    C.meta["seed"] = args.seed
    write_coincidences_csv(C, out / "coincidences.csv")

    if eps is None:
        eps = epsilon_from_crosstalk(C, pset)
        if eps == 0.0:
            print("warning: --epsilon auto read 0 from the dark basis "
                  "settings, so the fit is not thresholded", file=sys.stderr)
    res = reconstruct(C, pset, epsilon=eps)
    psi = state.amps.reshape(-1)
    rho_t = np.outer(psi, psi.conj())
    score = metrics(rho_t, res.rho)
    save_density(out / "density.json", res.rho,
                 {"seed": args.seed, "noise": C.meta["noise"],
                  "epsilon": eps, "chi2": res.chi2, "n_iter": res.n_iter,
                  "converged": res.converged, "stop": res.stop,
                  "chi2_trace": list(res.chi2_trace)})
    _write_json(out / "metrics.json", {**asdict(score), "chi2": res.chi2,
                                       "epsilon": eps, "seed": args.seed})

    spec = spectrum_from_density(res.rho, state.l, mode=mode, grid=grid,
                                 workers=workers)
    write_spectrum_csv(spec, out / "spectrum.csv")
    conc = "n/a" if score.concurrence is None else f"{score.concurrence:.4f}"
    print(f"fidelity={score.fidelity:.6f} purity={score.purity:.4f} "
          f"concurrence={conc} chi2={res.chi2:.4g} epsilon={eps:.4g}")
    print(f"artifacts in {out}/: coincidences.csv density.json metrics.json "
          f"spectrum.csv")
    if not res.converged or spec.non_converged:
        return EXIT_NUMERIC
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser wiring

def build_parser() -> _Parser:
    parser = _Parser(prog="topospec",
                     description="Topological spectra of mode-entangled "
                                 "photon pairs.")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)
    groups = {name: sub.add_parser(name, help=text).add_subparsers(
                  dest="subcommand", required=True, parser_class=_Parser)
              for name, text in (("state", "state file utilities"),
                                 ("spectrum", "compute or compare spectra"),
                                 ("invariant", "evaluate a single map"),
                                 ("deps", "dependency analysis"),
                                 ("tomo", "tomography round trip"))}

    def command(group, name, help, fn):
        p = groups[group].add_parser(name, help=help)
        p.set_defaults(fn=fn)
        return p

    p_make = command("state", "make", "write a state JSON file",
                     _cmd_state_make)
    p_make.add_argument("--l", required=True,
                        help="comma-separated mode charges, e.g. -1,0,1")
    p_make.add_argument("--c", required=True,
                        help="comma-separated complex amplitudes, e.g. 1,1,1")
    p_make.add_argument("--perturb", action="store_true",
                        help="attach a random subspace perturbation")
    p_make.add_argument("--seed", type=int, default=None)
    p_make.add_argument("--out", required=True)

    p_comp = command("spectrum", "compute", "evaluate every candidate map",
                     _cmd_spectrum_compute)
    p_comp.add_argument("state", help="state JSON file")
    _add_census_flags(p_comp)
    p_comp.add_argument("--swap-photons", action="store_true",
                        help="flip the orientation sign of the whole spectrum")
    p_comp.add_argument("--out", default="spectrum.csv")
    p_comp.add_argument("--json", default=None, help="also write JSON")
    p_comp.add_argument("--svg", default=None, help="also write a bar chart")

    p_cmp = command("spectrum", "compare",
                    "similarity scores between two spectra",
                    _cmd_spectrum_compare)
    p_cmp.add_argument("spectrum_a")
    p_cmp.add_argument("spectrum_b")
    p_cmp.add_argument("--json", default=None)

    p_eval = command("invariant", "eval", "wrapping number of one triple",
                     _cmd_invariant_eval)
    p_eval.add_argument("state")
    p_eval.add_argument("triple",
                        help="canonical label (123, 45*, ...) or a,b,c or a-b-c")
    _add_grid_flags(p_eval)
    p_eval.add_argument("--swap-photons", action="store_true")

    command("deps", "scan", "rank and relations over an index box",
            _cmd_deps_scan).add_argument("--l-range", type=int, default=4)

    p_run = command("tomo", "run", "simulate, reconstruct, score, re-spectrum",
                    _cmd_tomo_run)
    p_run.add_argument("state")
    _add_census_flags(p_run)
    p_run.add_argument("--counts", type=float, default=1e4,
                       help="total coincidence budget scale")
    p_run.add_argument("--noise", choices=NOISE_MODELS, default="none")
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--epsilon", default="0",
                       help="density threshold, or 'auto' to take it from "
                            "the dark basis coincidences")
    p_run.add_argument("--perturb", action="store_true",
                       help="inject a random subspace perturbation first")
    p_run.add_argument("--out-dir", default="tomo_out")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError, KeyError) as exc:
        print(f"topospec: error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
