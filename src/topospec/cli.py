"""Command-line surface for the spectrum pipeline.

Subcommands cover state authoring, spectrum computation and comparison,
single-map evaluation, the dependency scan, and the tomography round
trip.  Exit codes: 0 on success, 1 on bad input, 2 when a quadrature or
reconstruction fails to converge or a dependency check is violated.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

import numpy as np

from .fields import GridSpec, TripleSpec
from .invariants import canonical_label
from .spectrum import (compute_spectrum, default_workers, dependency_scan,
                       enumerate_triples, evaluate_map, read_spectrum_values,
                       similarity, svg_bar_chart, write_spectrum_csv,
                       write_spectrum_json)
from .states import (load_state, make_state, sample_perturbation, save_state,
                     inject_subspace)
from .tomography import (check_epsilon, epsilon_from_crosstalk, metrics,
                         projection_set, reconstruct, save_density,
                         simulate_coincidences, spectrum_from_density,
                         write_coincidences_csv)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NUMERIC = 2


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors exit with the input-error code.

    Also lets charge lists that open with a negative number ("-1,0,1")
    pass as values instead of being read as option strings.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\d[\d,.eE+-]*$")

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text}")
    return value


def _add_grid_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--grid-nr", type=int, default=None,
                   help="radial Simpson panels")
    p.add_argument("--grid-nphi", type=int, default=None,
                   help="azimuthal nodes")
    p.add_argument("--rmax", type=float, default=None,
                   help="outer probe radius for map classification")


def _add_census_flags(p: argparse.ArgumentParser) -> None:
    """The grid flags plus the census and pool size of a whole spectrum."""
    _add_grid_flags(p)
    p.add_argument("--mode", choices=("full", "canonical18"), default=None,
                   help="census to evaluate (default: canonical18 for d=3)")
    p.add_argument("--workers", type=_positive_int, default=None,
                   help="parallel workers (default: all cores, capped by "
                        "TOPOSPEC_THREADS)")


def _grid_from_args(args) -> GridSpec | None:
    """The grid the flags ask for; an unset flag keeps the per-map default."""
    if args.grid_nr is None and args.grid_nphi is None and args.rmax is None:
        return None
    return GridSpec(r_max=args.rmax, n_r=args.grid_nr, n_phi=args.grid_nphi)


def _parse_int_list(text: str) -> list[int]:
    return [int(tok) for tok in text.split(",") if tok.strip()]


def _parse_complex_list(text: str) -> list[complex]:
    return [complex(tok.replace(" ", "")) for tok in text.split(",") if tok.strip()]


# ---------------------------------------------------------------------------
# commands

def _cmd_state_make(args) -> int:
    l = _parse_int_list(args.l)
    c = _parse_complex_list(args.c)
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
    workers = args.workers or default_workers()
    spec = compute_spectrum(state, mode=args.mode, grid=_grid_from_args(args),
                            workers=workers, photon_swap=args.swap_photons)
    write_spectrum_csv(spec, args.out)
    meta = {"state_file": str(args.state), "workers": workers,
            "photon_swap": bool(args.swap_photons)}
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
    if len(values_a) != len(values_b):
        raise ValueError("spectra have different lengths")
    if labels_a != labels_b:
        print("warning: spectra carry different labels; comparing by position",
              file=sys.stderr)
    scores = similarity(values_a, values_b)
    print(f"residual={scores.residual:.6f} cosine={scores.cosine:.6f}")
    if args.json:
        with open(args.json, "w") as fh:
            json.dump({"residual": scores.residual, "cosine": scores.cosine,
                       "n": len(values_a)}, fh, indent=1)
            fh.write("\n")
    return EXIT_OK


def _cmd_invariant_eval(args) -> int:
    state = load_state(args.state)
    if "," in args.triple:
        indices = tuple(_parse_int_list(args.triple))
        if len(indices) != 3:
            raise ValueError("triple must name three basis indices")
        spec = TripleSpec(indices)
    else:
        label = canonical_label(args.triple)
        spec = next(t for t in enumerate_triples(3) if t.canonical == label)
    e = evaluate_map(state, spec, _grid_from_args(args),
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
    for rel in report.relations:
        print(f"  relation {rel.name}: max residual {rel.max_residual:.1e} "
              f"({'holds' if rel.holds else 'VIOLATED'})")
    for rel in report.pairwise:
        print(f"  identity {rel.name}: max residual {rel.max_residual:.1e} "
              f"({'holds' if rel.holds else 'VIOLATED'})")
    if all(rel.holds for rel in report.relations + report.pairwise):
        return EXIT_OK
    return EXIT_NUMERIC


def _cmd_tomo_run(args) -> int:
    state = load_state(args.state)
    rng = np.random.default_rng(args.seed)
    if args.perturb:
        state = inject_subspace(state, sample_perturbation(state.d, rng))
    eps = None if args.epsilon == "auto" else check_epsilon(args.epsilon)
    pset = projection_set(state.d, state.l)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    C = simulate_coincidences(state, pset, total_counts=args.counts,
                              noise=args.noise, rng=rng)
    C.meta["seed"] = args.seed
    write_coincidences_csv(C, out / "coincidences.csv")

    if eps is None:
        eps = epsilon_from_crosstalk(C, pset)
    res = reconstruct(C, pset, epsilon=eps)
    psi = state.amps.reshape(-1)
    rho_t = np.outer(psi, psi.conj())
    score = metrics(rho_t, res.rho)
    save_density(out / "density.json", res.rho,
                 {"seed": args.seed, "noise": C.meta["noise"],
                  "epsilon": eps, "chi2": res.chi2, "n_iter": res.n_iter,
                  "converged": res.converged, "stop": res.stop,
                  "chi2_trace": list(res.chi2_trace)})
    with open(out / "metrics.json", "w") as fh:
        json.dump({"fidelity": score.fidelity, "purity": score.purity,
                   "concurrence": score.concurrence, "chi2": res.chi2,
                   "epsilon": eps, "seed": args.seed}, fh, indent=1)
        fh.write("\n")

    spec = spectrum_from_density(res.rho, state.l, mode=args.mode,
                                 grid=_grid_from_args(args),
                                 workers=args.workers)
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

    p_state = sub.add_parser("state",
                             help="state file utilities")
    state_sub = p_state.add_subparsers(dest="subcommand", required=True,
                                   parser_class=_Parser)
    p_make = state_sub.add_parser("make",
                                  help="write a state JSON file")
    p_make.add_argument("--l", required=True,
                        help="comma-separated mode charges, e.g. -1,0,1")
    p_make.add_argument("--c", required=True,
                        help="comma-separated complex amplitudes, e.g. 1,1,1")
    p_make.add_argument("--perturb", action="store_true",
                        help="attach a random subspace perturbation")
    p_make.add_argument("--seed", type=int, default=None)
    p_make.add_argument("--out", required=True)
    p_make.set_defaults(fn=_cmd_state_make)

    p_spec = sub.add_parser("spectrum",
                            help="compute or compare spectra")
    spec_sub = p_spec.add_subparsers(dest="subcommand", required=True,
                                 parser_class=_Parser)
    p_comp = spec_sub.add_parser("compute",
                                 help="evaluate every candidate map")
    p_comp.add_argument("state", help="state JSON file")
    _add_census_flags(p_comp)
    p_comp.add_argument("--swap-photons", action="store_true",
                        help="flip the orientation sign of the whole spectrum")
    p_comp.add_argument("--out", default="spectrum.csv")
    p_comp.add_argument("--json", default=None, help="also write JSON")
    p_comp.add_argument("--svg", default=None, help="also write a bar chart")
    p_comp.set_defaults(fn=_cmd_spectrum_compute)

    p_cmp = spec_sub.add_parser("compare",
                                help="similarity scores between two spectra")
    p_cmp.add_argument("spectrum_a")
    p_cmp.add_argument("spectrum_b")
    p_cmp.add_argument("--json", default=None)
    p_cmp.set_defaults(fn=_cmd_spectrum_compare)

    p_inv = sub.add_parser("invariant",
                           help="evaluate a single map")
    inv_sub = p_inv.add_subparsers(dest="subcommand", required=True,
                               parser_class=_Parser)
    p_eval = inv_sub.add_parser("eval",
                                help="wrapping number of one triple")
    p_eval.add_argument("state")
    p_eval.add_argument("triple",
                        help="canonical label (123, 45*, ...) or indices a,b,c")
    _add_grid_flags(p_eval)
    p_eval.add_argument("--swap-photons", action="store_true")
    p_eval.set_defaults(fn=_cmd_invariant_eval)

    p_deps = sub.add_parser("deps",
                            help="dependency analysis")
    deps_sub = p_deps.add_subparsers(dest="subcommand", required=True,
                                 parser_class=_Parser)
    p_scan = deps_sub.add_parser("scan",
                                 help="rank and relations over an index box")
    p_scan.add_argument("--l-range", type=int, default=4)
    p_scan.set_defaults(fn=_cmd_deps_scan)

    p_tomo = sub.add_parser("tomo",
                            help="tomography round trip")
    tomo_sub = p_tomo.add_subparsers(dest="subcommand", required=True,
                                 parser_class=_Parser)
    p_run = tomo_sub.add_parser("run",
                                help="simulate, reconstruct, score, re-spectrum")
    p_run.add_argument("state")
    _add_census_flags(p_run)
    p_run.add_argument("--counts", type=float, default=1e4,
                       help="total coincidence budget scale")
    p_run.add_argument("--noise", choices=("none", "poisson", "crosstalk"),
                       default="none")
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--epsilon", default="0",
                       help="density threshold, or 'auto' to take it from "
                            "the dark basis coincidences")
    p_run.add_argument("--perturb", action="store_true",
                       help="inject a random subspace perturbation first")
    p_run.add_argument("--out-dir", default="tomo_out")
    p_run.set_defaults(fn=_cmd_tomo_run)

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
