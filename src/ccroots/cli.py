"""Command-line front end with reproducible file-based workflows.

Every command reads/writes plain files (JSON for structured data, CSV for
traces, binary PPM for images) and drops a `<output>.manifest.json` next to
its outputs recording the command line, seed, library versions, a timestamp,
and SHA-256 digests of all input and output files.  With a fixed seed and
fixed inputs, all outputs are byte-deterministic; the manifest is too except
for its timestamp field.

Exit codes: 0 success (including mathematically negative findings such as
unmatched roots), 2 usage/parse/IO errors, 3 capability limits (dimension or
path-count caps), 4 numerical failure (no homotopy path converged, or a
truncation trajectory that never reached the full equations).
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import os
import re
import sys

import numpy as np
import scipy

from . import __version__
from .basins import (PixelBudgetError, PolynomialParseError, basin_scan, parse_univariate,
                     render_ppm, slice_scan)
from .ccpoly import PolynomialSystem, cc_system_for_rank, quadratize
from .excitations import full_rank
from .kp import (
    KPState,
    energy_error_bundle,
    kp_problem,
    kp_track,
    refine_lambda0,
    solve_lambda0,
    trajectory_csv,
)
from .model import (
    IntegralFormatError,
    ModelSpec,
    SectorError,
    SymmetryError,
    build_hubbard,
    build_pairing,
    load_integrals,
    model_from_dict,
    model_to_dict,
)
from .oracle import DimensionCapError, fci_solve, intermediately_normalizable, match_roots
from .tracker import PathBudgetError, TrackOptions, solve_all

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_CAPABILITY = 3
EXIT_NUMERICAL = 4

class CliError(Exception):
    """Carries the process exit code alongside the message."""

    def __init__(self, message: str, code: int = EXIT_USAGE):
        super().__init__(message)
        self.code = code


# ---------------------------------------------------------------------------
# small file/format helpers


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _ensure_parent(path: str) -> None:
    parent = os.path.dirname(os.path.abspath(path))
    os.makedirs(parent, exist_ok=True)


def _write_text(path: str, text: str) -> None:
    _ensure_parent(path)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _write_bytes(path: str, data: bytes) -> None:
    _ensure_parent(path)
    with open(path, "wb") as fh:
        fh.write(data)


def _read_text(path: str, what: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise CliError(f"cannot read {what} {path!r}: {exc}") from exc


def _read_json(path: str, what: str) -> dict:
    text = _read_text(path, what)
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise CliError(f"{what} {path!r} is not valid JSON: {exc}") from exc


def _json_text(data) -> str:
    return json.dumps(data, indent=2) + "\n"


def _write_manifest(primary: str, argv: list, seed: int | None,
                    inputs: list, outputs: list) -> str:
    manifest = {
        "command": ["ccroots"] + list(argv),
        "seed": seed,
        "versions": {
            "ccroots": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "python": ".".join(map(str, sys.version_info[:3])),
        },
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "inputs": {p: _sha256(p) for p in sorted(set(inputs))},
        "outputs": {p: _sha256(p) for p in sorted(set(outputs))},
    }
    path = primary + ".manifest.json"
    _write_text(path, _json_text(manifest))
    return path


def _check_seed_and_workers(args) -> None:
    if args.seed < 0:
        raise CliError(f"--seed must be a non-negative integer, got {args.seed}")
    if args.workers is not None and args.workers < 1:
        raise CliError(f"worker count must be >= 1, got {args.workers}")


def _parse_floats(text: str, n: int, what: str) -> list:
    parts = text.split(",")
    if len(parts) != n:
        raise CliError(f"{what} needs {n} comma-separated values, got {text!r}")
    try:
        return [float(p) for p in parts]
    except ValueError as exc:
        raise CliError(f"{what}: {exc}") from exc


def _parse_ints(text: str, n: int, what: str) -> list:
    parts = text.split(",")
    if len(parts) != n:
        raise CliError(f"{what} needs {n} comma-separated integers, got {text!r}")
    try:
        return [int(p) for p in parts]
    except ValueError as exc:
        raise CliError(f"{what}: {exc}") from exc


def _load_model(path: str) -> ModelSpec:
    data = _read_json(path, "model file")
    try:
        return model_from_dict(data)
    except (KeyError, ValueError, TypeError, SectorError, SymmetryError) as exc:
        raise CliError(f"model file {path!r} is malformed: {exc}") from exc


def _load_system(path: str) -> PolynomialSystem:
    text = _read_text(path, "system file")
    try:
        return PolynomialSystem.from_json(text)
    except (json.JSONDecodeError, KeyError, ValueError, TypeError) as exc:
        raise CliError(f"system file {path!r} is malformed: {exc}") from exc


# ---------------------------------------------------------------------------
# subcommands


def cmd_model(args, argv) -> int:
    inputs = []
    reference = None
    if args.reference is not None:
        occ = _parse_ints(args.reference, len(args.reference.split(",")),
                          "--reference")
        if len(set(occ)) != len(occ) or any(q < 0 for q in occ):
            raise CliError(f"--reference must list distinct non-negative "
                           f"spin orbitals, got {args.reference!r}")
        reference = 0
        for q in occ:
            reference |= 1 << q

    try:
        if args.hubbard is not None:
            if args.nelec is None:
                raise CliError("--hubbard requires --nelec UP,DN")
            sites_s, t_s, u_s = (args.hubbard.split(",") + ["", ""])[:3]
            if args.hubbard.count(",") != 2:
                raise CliError(f"--hubbard needs SITES,T,U, got {args.hubbard!r}")
            n_up, n_dn = _parse_ints(args.nelec, 2, "--nelec")
            model = build_hubbard(int(sites_s), float(t_s), float(u_s),
                                  n_up, n_dn, reference=reference)
        elif args.pairing is not None:
            if args.pairing.count(",") != 3:
                raise CliError(f"--pairing needs LEVELS,SPACING,G,PAIRS, "
                               f"got {args.pairing!r}")
            lv_s, sp_s, g_s, pr_s = args.pairing.split(",")
            model = build_pairing(int(lv_s), float(sp_s), float(g_s),
                                  int(pr_s), reference=reference)
            if args.nelec is not None:
                n_up, n_dn = _parse_ints(args.nelec, 2, "--nelec")
                if (n_up, n_dn) != (model.n_up, model.n_dn):
                    raise CliError(f"--nelec {args.nelec} contradicts "
                                   f"--pairing with {pr_s} pairs")
        else:
            inputs.append(args.integrals)
            n_up = n_dn = None
            if args.nelec is not None:
                n_up, n_dn = _parse_ints(args.nelec, 2, "--nelec")
            model = load_integrals(args.integrals, n_up=n_up, n_dn=n_dn,
                                   reference=reference)
    except (ValueError, SectorError, SymmetryError, IntegralFormatError) as exc:
        raise CliError(str(exc)) from exc
    except OSError as exc:
        raise CliError(f"cannot read integrals: {exc}") from exc

    _write_text(args.output, _json_text(model_to_dict(model)))
    _write_manifest(args.output, argv, None, inputs, [args.output])
    print(f"wrote {args.output}: {model.label}, {model.n_so} spin orbitals, "
          f"sector dimension {model.sector_dimension()}")
    return EXIT_OK


def cmd_system(args, argv) -> int:
    model = _load_model(args.model)
    if args.rank == "full":
        rank = full_rank(model)
    else:
        try:
            rank = int(args.rank)
        except ValueError as exc:
            raise CliError(f"--rank must be an integer or 'full', "
                           f"got {args.rank!r}") from exc
    if args.quadratize and rank != 2:
        raise CliError("--quadratize requires --rank 2 "
                       "(the pair-minor lift is defined for the "
                       "singles-plus-doubles graph)")
    try:
        cc = cc_system_for_rank(model, rank)
        system = quadratize(cc) if args.quadratize else cc.polynomials
    except SectorError as exc:
        raise CliError(str(exc)) from exc

    _write_text(args.output, system.to_json() + "\n")
    _write_manifest(args.output, argv, None, [args.model], [args.output])
    bounds = system.metadata.get("bounds", {})
    print(f"wrote {args.output}: {system.n_eqs} equations in "
          f"{system.n_vars} variables, bounds {bounds}")
    return EXIT_OK


def cmd_solve(args, argv) -> int:
    _check_seed_and_workers(args)
    system = _load_system(args.system)
    options = TrackOptions(rng_seed=args.seed, record_trace=args.trace_dir is not None)
    try:
        sol = solve_all(system, options)
    except PathBudgetError as exc:
        raise CliError(str(exc), EXIT_CAPABILITY) from exc
    except ValueError as exc:
        raise CliError(f"system file {args.system!r} is malformed: {exc}") from exc

    outputs = [args.output]
    _write_text(args.output, _json_text(sol.to_dict()))
    if args.trace_dir is not None:
        os.makedirs(args.trace_dir, exist_ok=True)
        width = max(4, len(str(max(sol.n_paths - 1, 0))))
        for p in sol.paths:
            rows = ["lambda," + ",".join(
                f"re(x{k}),im(x{k})" for k in range(system.n_vars))]
            for lam, x in p.trace or []:
                rows.append(",".join([repr(float(lam))] + [
                    f"{float(v.real)!r},{float(v.imag)!r}" for v in x]))
            path = os.path.join(args.trace_dir, f"path_{p.index:0{width}d}.csv")
            _write_text(path, "\n".join(rows) + "\n")
            outputs.append(path)
    _write_manifest(args.output, argv, args.seed, [args.system], outputs)

    counts = sol.status_counts()
    print(f"tracked {sol.n_paths} paths: {counts}; "
          f"{len(sol.solutions)} distinct solutions -> {args.output}")
    if counts["converged"] == 0:
        print("no path converged", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


def cmd_kp(args, argv) -> int:
    _check_seed_and_workers(args)
    model = _load_model(args.model)
    if args.rho < 2:
        raise CliError(f"--rho must be at least 2, got {args.rho} "
                       "(rank-1 truncation has no quadratic low block)")
    try:
        prob = kp_problem(model, args.rho)
    except SectorError as exc:
        raise CliError(str(exc)) from exc

    options = TrackOptions(rng_seed=args.seed)
    inputs = [args.model]
    state_label: str | int
    try:
        state_index = int(args.state)
        is_index = True
    except ValueError:
        is_index = False

    if is_index:
        try:
            states = solve_lambda0(prob, use_homotopy_starts=args.homotopy_starts,
                                   track_options=options)
        except PathBudgetError as exc:
            raise CliError(str(exc), EXIT_CAPABILITY) from exc
        if not states:
            print("no lam=0 state found", file=sys.stderr)
            return EXIT_NUMERICAL
        if not 0 <= state_index < len(states):
            raise CliError(f"--state {state_index} out of range: "
                           f"{len(states)} lam=0 states available")
        state0 = states[state_index]
        state_label = state_index
    else:
        inputs.append(args.state)
        data = _read_json(args.state, "state file")
        try:
            t = np.array([complex(re, im) for re, im in data["t"]])
            guess = KPState.from_full(prob.amplitude_split, t, 0.0)
        except (KeyError, TypeError, ValueError, SectorError) as exc:
            raise CliError(f"state file {args.state!r} is malformed: {exc}") from exc
        state0 = refine_lambda0(prob, guess)
        if state0 is None:
            print("lam=0 Newton did not converge from the provided state",
                  file=sys.stderr)
            return EXIT_NUMERICAL
        state_label = args.state

    try:
        traj = kp_track(prob, state0, options)
    except ValueError as exc:
        raise CliError(str(exc)) from exc

    csv_path = args.output + ".trajectory.csv"
    json_path = args.output + ".bundle.json"
    _write_text(csv_path, trajectory_csv(prob, traj))

    report = {
        "model": model.label,
        "rho": prob.rho,
        "n_low": len(prob.low),
        "n_high": len(prob.high),
        "state": state_label,
        "endpoint_status": traj.endpoint_status,
        "steps": traj.steps,
        "lambda_reached": traj.samples[-1][0],
        "lambda0_state": {"t": [[v.real, v.imag] for v in state0.t_full]},
        "endpoint": None,
        "bundle": None,
    }
    if traj.endpoint is not None:
        report["endpoint"] = {
            "t": [[v.real, v.imag] for v in traj.endpoint.t_full],
            "energy": [traj.endpoint_energy.real, traj.endpoint_energy.imag],
            "residual": traj.endpoint_residual,
            "jacobian_sigma_min": traj.jacobian_sigma_min,
            "degenerate": traj.degenerate,
        }
    if traj.endpoint_status == "reached_full":
        bundle = energy_error_bundle(prob, state0, traj.endpoint.t_full)
        report["bundle"] = bundle.as_dict()
    _write_text(json_path, _json_text(report))
    _write_manifest(args.output, argv, args.seed, inputs, [csv_path, json_path])

    print(f"{traj.endpoint_status} after {traj.steps} steps "
          f"(lambda {report['lambda_reached']:g}) -> {csv_path}, {json_path}")
    if traj.endpoint_status != "reached_full":
        return EXIT_NUMERICAL
    return EXIT_OK


def cmd_fractal(args, argv) -> int:
    window = tuple(_parse_floats(args.window, 4, "--window"))
    if args.res < 1:
        raise CliError(f"--res must be >= 1, got {args.res}")
    if args.max_iters < 1:
        raise CliError(f"--max-iters must be >= 1, got {args.max_iters}")
    inputs = []
    try:
        if args.poly is not None:
            coeffs, _var = parse_univariate(args.poly)
            grid = basin_scan(coeffs, window, args.res,
                              max_iters=args.max_iters, label=args.poly)
        else:
            inputs.append(args.system)
            system = _load_system(args.system)
            if args.slice is None:
                raise CliError("--system requires --slice DIR[|BASE]")
            parts = args.slice.split("|")
            if len(parts) > 2:
                raise CliError("--slice takes DIR or DIR|BASE")
            direction = _parse_floats(parts[0], system.n_vars,
                                      "--slice direction")
            base = (_parse_floats(parts[1], system.n_vars, "--slice base")
                    if len(parts) == 2 else [0.0] * system.n_vars)
            grid = slice_scan(system, base, direction, window, args.res,
                              max_iters=args.max_iters, label=args.slice)
    except PolynomialParseError as exc:
        raise CliError(f"cannot parse polynomial: {exc}") from exc
    except PixelBudgetError as exc:
        raise CliError(str(exc), EXIT_CAPABILITY) from exc
    except ValueError as exc:
        raise CliError(str(exc)) from exc

    _write_bytes(args.output, render_ppm(grid))
    _write_manifest(args.output, argv, None, inputs, [args.output])
    print(f"wrote {args.output}: {grid.nx}x{grid.ny}, {len(grid.roots)} roots, "
          f"{int((grid.root_index >= 0).sum())}/{grid.nx * grid.ny} pixels converged")
    return EXIT_OK


def cmd_verify(args, argv) -> int:
    if not 0 < args.tol < np.inf:
        raise CliError(f"--tol must be a positive finite number, got {args.tol}")
    model = _load_model(args.model)
    data = _read_json(args.solutions, "solutions file")
    try:
        entries = data["solutions"]
        energies = []
        for k, s in enumerate(entries):
            if s.get("energy") is None:
                raise CliError(f"solution {k} carries no energy; only systems "
                               "generated by this package embed one")
            energies.append(complex(s["energy"][0], s["energy"][1]))
    except (KeyError, TypeError, IndexError, AttributeError) as exc:
        raise CliError(f"solutions file {args.solutions!r} is malformed: "
                       f"{exc}") from exc

    try:
        fci = fci_solve(model)
    except DimensionCapError as exc:
        raise CliError(str(exc), EXIT_CAPABILITY) from exc

    normal = [k for k in range(fci.dim) if intermediately_normalizable(fci, k)]
    refs = np.array([fci.energies[k] for k in normal], dtype=complex)
    matches = match_roots(np.array(energies, dtype=complex), refs)

    matched, unmatched_solutions = [], []
    used = set()
    for i, j, dist in matches:
        if j is not None and dist <= args.tol:
            matched.append({"solution": i, "eigenstate": normal[j],
                            "energy": [energies[i].real, energies[i].imag],
                            "distance": dist})
            used.add(j)
        else:
            unmatched_solutions.append(i)
    unmatched_eigenstates = [normal[j] for j in range(len(normal))
                             if j not in used]

    report = {
        "model": model.label,
        "tolerance": args.tol,
        "fci_dimension": fci.dim,
        "normalizable_states": [
            {"index": k, "energy": float(fci.energies[k])} for k in normal],
        "matched": matched,
        "unmatched_solutions": unmatched_solutions,
        "unmatched_eigenstates": unmatched_eigenstates,
        "all_matched": not unmatched_solutions and not unmatched_eigenstates,
    }
    _write_text(args.output, _json_text(report))
    _write_manifest(args.output, argv, None, [args.model, args.solutions],
                    [args.output])
    print(f"matched {len(matched)}/{len(energies)} solutions to "
          f"{len(normal)} normalizable eigenstates -> {args.output}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ccroots",
        description="Coupled-cluster polynomial systems: generation, "
                    "complete root enumeration, eigenstate certification, "
                    "truncation homotopies, and Newton-basin images.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("model", help="build a model and write it as JSON",
                       description="Define a model Hamiltonian (bundled "
                       "Hubbard chain or pairing model, or an integral file) "
                       "and serialize it with its particle sector.")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--hubbard", metavar="SITES,T,U",
                     help="Hubbard chain: site count, hopping, on-site U")
    src.add_argument("--pairing", metavar="LEVELS,SPACING,G,PAIRS",
                     help="pairing model: doubly degenerate levels, level "
                     "spacing, pair coupling g, number of pairs")
    src.add_argument("--integrals", metavar="PATH",
                     help="integral table file (see README for the format)")
    p.add_argument("--nelec", metavar="UP,DN",
                   help="electron count per spin (required with --hubbard)")
    p.add_argument("--reference", metavar="ORB,ORB,...",
                   help="occupied spin orbitals of the reference determinant "
                   "(default: lowest-index filling)")
    p.add_argument("-o", "--output", required=True, help="model JSON path")
    p.set_defaults(func=cmd_model)

    p = sub.add_parser("system", help="generate the CC polynomial system",
                       description="Project the exponential ansatz at a "
                       "truncation rank into an exact polynomial system; "
                       "optionally lift rank-2 systems to quadratic form.")
    p.add_argument("--model", required=True, help="model JSON path")
    p.add_argument("--rank", default="full",
                   help="max excitation rank, or 'full' (default)")
    p.add_argument("--quadratize", action="store_true",
                   help="emit the quadratic lift (rank 2 only)")
    p.add_argument("-o", "--output", required=True, help="system JSON path")
    p.set_defaults(func=cmd_system)

    p = sub.add_parser("solve", help="track every homotopy path of a system",
                       description="Total-degree homotopy continuation: "
                       "tracks one path per start root and reports every "
                       "endpoint (converged, clustered, diverged, failed).")
    p.add_argument("--system", required=True, help="system JSON path")
    p.add_argument("--seed", type=int, default=0,
                   help="seed of the random homotopy constant (default 0)")
    p.add_argument("--trace-dir", metavar="DIR",
                   help="also write one CSV of accepted (lambda, x) samples "
                   "per path")
    p.add_argument("--workers", type=int, default=None,
                   help="ignored: tracking is serial (accepted for "
                   "compatibility; must be a positive integer)")
    p.add_argument("-o", "--output", required=True, help="solutions JSON path")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("kp", help="truncated-to-full cluster homotopy",
                       description="Solve the rank-rho truncated equations "
                       "plus auxiliary block at lambda=0, continue to "
                       "lambda=1, and report the energy-error bundle of the "
                       "reached full-cluster root.")
    p.add_argument("--model", required=True, help="model JSON path")
    p.add_argument("--rho", type=int, required=True,
                   help="truncation rank (>= 2)")
    p.add_argument("--state", default="0",
                   help="lambda=0 state: an index into the states sorted by "
                   "energy (default 0 = lowest), or a JSON file with "
                   '{"t": [[re,im],...]} over the full graph')
    p.add_argument("--homotopy-starts", action="store_true",
                   help="seed stage 1 from every homotopy root of the "
                   "truncated system instead of a single Newton run from 0")
    p.add_argument("--seed", type=int, default=0,
                   help="seed used when --homotopy-starts tracks the "
                   "truncated system (default 0)")
    p.add_argument("--workers", type=int, default=None,
                   help="ignored: tracking is serial (accepted for "
                   "compatibility; must be a positive integer)")
    p.add_argument("-o", "--output", required=True,
                   help="output prefix: writes PREFIX.trajectory.csv and "
                   "PREFIX.bundle.json")
    p.set_defaults(func=cmd_kp)

    p = sub.add_parser("fractal", help="render Newton basins as a PPM image",
                       description="Newton-basin scan of a univariate "
                       "polynomial, or of a multivariate system restricted "
                       "to a complex line. Polynomial grammar: integer, "
                       "decimal, or complex '(a+bj)' coefficients; one "
                       "variable name; operators + - * and ^ or **; "
                       "juxtaposition like '2z' allowed; whitespace free.")
    # let option values like "-2,2,-2,2" parse as values, not flags
    p._negative_number_matcher = re.compile(r"^-[\d.,eE+\-]+$")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--poly", metavar="TEXT",
                     help="univariate polynomial, e.g. 'z^3 - 1'")
    src.add_argument("--system", metavar="PATH", help="system JSON path")
    p.add_argument("--slice", metavar="DIR[|BASE]",
                   help="with --system: comma-separated direction (and "
                   "optional base point) defining the complex line "
                   "base + z*direction. Heuristic: Newton runs on the "
                   "direction-projected scalar residual, whose basins need "
                   "not reflect roots of the full system.")
    p.add_argument("--window", default="-2,2,-2,2",
                   metavar="REMIN,REMAX,IMMIN,IMMAX",
                   help="complex window (default -2,2,-2,2)")
    p.add_argument("--res", type=int, default=300,
                   help="pixels per side (default 300)")
    p.add_argument("--max-iters", type=int, default=64,
                   help="Newton iteration cap per pixel (default 64)")
    p.add_argument("-o", "--output", required=True, help="PPM path")
    p.set_defaults(func=cmd_fractal)

    p = sub.add_parser("verify", help="match solution energies to FCI states",
                       description="Diagonalize the model exactly, keep the "
                       "intermediately normalizable eigenstates, and match "
                       "solution energies to eigenvalues greedily; unmatched "
                       "entries on either side are reported, not failed.")
    p.add_argument("--model", required=True, help="model JSON path")
    p.add_argument("--solutions", required=True, help="solutions JSON path")
    p.add_argument("--tol", type=float, default=1e-8,
                   help="energy match tolerance (default 1e-8)")
    p.add_argument("-o", "--output", required=True, help="report JSON path")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, argv)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
