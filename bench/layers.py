"""Per-layer metrics of the traced run.

The traced pass runs the workload's CLI chain once more with a span around
every ``cli.main`` call.  For its duration the library functions that
``ccroots.cli`` imported are rebound, in that module only, to wrappers that
record a span and keep the return value, so each library span nests inside
its CLI span and ``cli.overhead_s.<cmd>`` is the CLI span's self time.
``ccroots.tracker.track_path`` and ``newton_refine`` are wrapped the same way
so that ``solve_all``'s own calls give the per-path spans; ``track_path``
runs with ``record_trace=True`` to count accepted steps, and the trace is
dropped again before ``solve_all`` sees the result.  The traced pass's
artifacts must equal the untraced pass's byte for byte.

After the chain, the benchmark calls the layers the chain reaches only
indirectly (assembly, excitation graph and matrices, JSON codec, compiled
evaluator, Workspace, kp maps) on the same files and states.  A metric of a
layer the workload does not call is reported as 0.
"""

from __future__ import annotations

import json
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

CLI_COMMANDS = ("model", "system", "solve", "verify", "kp", "fractal")
LAYERS = ("cli", "model", "excitations", "ccpoly", "tracker", "oracle", "kp",
          "basins", "bench")

# library functions ccroots.cli calls, by layer
_CLI_CALLS = {
    "model": ("build_hubbard", "build_pairing", "load_integrals",
              "model_from_dict", "model_to_dict"),
    "ccpoly": ("cc_system_for_rank", "quadratize"),
    "tracker": ("solve_all",),
    "oracle": ("fci_solve", "intermediately_normalizable", "match_roots"),
    "kp": ("kp_problem", "solve_lambda0", "refine_lambda0", "kp_track",
           "trajectory_csv", "energy_error_bundle"),
    "basins": ("parse_univariate", "basin_scan", "slice_scan", "render_ppm"),
}

PER_LAYER = {
    "model.assemble_s": "s", "model.sector_dim": "count",
    "excitations.graph_s": "s", "excitations.matrices_s": "s",
    "excitations.n_amplitudes": "count",
    "ccpoly.generate_s": "s", "ccpoly.quadratize_s": "s", "ccpoly.terms": "count",
    "ccpoly.to_json_s": "s", "ccpoly.from_json_s": "s", "ccpoly.compile_s": "s",
    "ccpoly.eval_us": "us", "ccpoly.jac_us": "us",
    "ccpoly.eval_batch_us_per_pt": "us", "ccpoly.jac_batch_us_per_pt": "us",
    "ccpoly.ws_t_operator_us": "us", "ccpoly.ws_residuals_us": "us",
    "ccpoly.ws_jacobian_ms": "ms",
    "tracker.solve_s": "s",
    "tracker.paths.converged": "count", "tracker.paths.clustered": "count",
    "tracker.paths.diverged": "count", "tracker.paths.failed": "count",
    "tracker.useful_frac": "ratio",
    "tracker.steps.converged": "count", "tracker.steps.diverged": "count",
    "tracker.steps.failed": "count", "tracker.rejected_frac": "ratio",
    "tracker.path_s.converged.p50": "s", "tracker.path_s.diverged.p50": "s",
    "tracker.path_s.diverged.p95": "s", "tracker.step_us": "us",
    "tracker.merge_s": "s", "tracker.refine_us": "us",
    "oracle.fci_s": "s", "oracle.match_s": "s",
    "kp.problem_s": "s", "kp.lambda0_s": "s", "kp.track_s": "s",
    "kp.steps": "count", "kp.rejected_steps": "count", "kp.step_ms": "ms",
    "kp.residual_us": "us", "kp.jacobian_ms": "ms", "kp.dlam_us": "us",
    "kp.bundle_s": "s", "kp.csv_s": "s",
    "basins.slice_s": "s", "basins.scan_s": "s", "basins.newton_iters": "count",
    "basins.converged_frac": "ratio", "basins.render_s": "s",
    **{f"cli.{c}_s": "s" for c in CLI_COMMANDS},
    **{f"cli.overhead_s.{c}": "s" for c in CLI_COMMANDS},
    **{f"self_s.{layer}": "s" for layer in LAYERS},
    "trace.overhead_frac": "ratio",
}

_P95_MIN_SAMPLES = 200      # at least 10 samples beyond the 95th percentile
_VISITED_STRIDE = 10        # keep every 10th accepted tracker sample
_MICRO_CALLS = 30


def _median_call(fn, *args, calls: int = _MICRO_CALLS) -> float:
    """Median wall time of single calls, after one untimed call."""
    fn(*args)
    times = []
    for _ in range(calls):
        t = time.perf_counter()
        fn(*args)
        times.append(time.perf_counter() - t)
    return float(np.median(times))


def instrument(tracer, visited: list) -> None:
    """Rebind the CLI's library calls and the tracker's per-path calls."""
    import ccroots.cli as cli
    import ccroots.tracker as tracker

    for layer, names in _CLI_CALLS.items():
        for name in names:
            tracer.patch(cli, name, tracer.wrap(f"{layer}.{name}", getattr(cli, name)))
    tracer.patch(tracker, "newton_refine",
                 tracer.wrap("tracker.newton_refine", tracker.newton_refine))
    track_path = tracker.track_path

    def traced_track_path(system, degrees, index, gamma, options):
        res = tracer.call("tracker.track_path", track_path, system, degrees, index,
                          gamma, replace(options, record_trace=True))
        # samples strictly inside (0, 1) are accepted steps; lam = 1 is the
        # start and lam = 0 the endpoint polish
        inner = [x for lam, x in res.trace if 0.0 < lam < 1.0]
        tracer.results.setdefault("tracker.accepted", []).append(len(inner))
        visited.extend(inner[::_VISITED_STRIDE])
        if not options.record_trace:
            res.trace = None
        return res

    tracer.patch(tracker, "track_path", traced_track_path)


def _tracker_metrics(tracer, visited: list, m: dict) -> None:
    sols = tracer.results.get("tracker.solve_all", [])
    paths = tracer.results.get("tracker.track_path", [])
    if not sols:
        return
    for status, n in sols[-1].status_counts().items():
        m[f"tracker.paths.{status}"] += n
    m["tracker.useful_frac"] = (m["tracker.paths.converged"]
                                + m["tracker.paths.clustered"]) / sols[-1].n_paths
    durations = tracer.durations("tracker.track_path")
    by_status = {}
    for p, d in zip(paths, durations):
        by_status.setdefault(p.status, []).append(d)
        m[f"tracker.steps.{p.status}"] += p.steps
    steps = sum(p.steps for p in paths)
    m["tracker.rejected_frac"] = 1.0 - sum(tracer.results["tracker.accepted"]) / steps
    for status in ("converged", "diverged"):
        if by_status.get(status):
            m[f"tracker.path_s.{status}.p50"] = float(np.median(by_status[status]))
    if len(by_status.get("diverged", [])) >= _P95_MIN_SAMPLES:
        m["tracker.path_s.diverged.p95"] = float(np.percentile(by_status["diverged"], 95))
    m["tracker.solve_s"] = tracer.total("tracker.solve_all")
    m["tracker.step_us"] = 1e6 * sum(durations) / steps
    m["tracker.merge_s"] = tracer.self_time_of("tracker.solve_all")
    refine = tracer.durations("tracker.newton_refine")
    m["tracker.refine_us"] = 1e6 * float(np.mean(refine)) if refine else 0.0

    system = sols[-1].system
    points = visited[:: max(1, len(visited) // 200)]
    if not points:
        return
    m["ccpoly.eval_us"] = 1e6 * float(np.median(
        [_median_call(system.evaluate, x, calls=5) for x in points]))
    m["ccpoly.jac_us"] = 1e6 * float(np.median(
        [_median_call(system.jacobian, x, calls=5) for x in points]))


def _kp_metrics(tracer, m: dict) -> None:
    from ccroots.kp import KPState, kp_dlam, kp_jacobian, kp_residual

    trajs = tracer.results.get("kp.kp_track", [])
    if not trajs:
        return
    m["kp.problem_s"] = tracer.total("kp.kp_problem")
    m["kp.lambda0_s"] = tracer.total("kp.solve_lambda0") + tracer.total("kp.refine_lambda0")
    m["kp.track_s"] = tracer.total("kp.kp_track")
    m["kp.steps"] = sum(t.steps for t in trajs)
    m["kp.rejected_steps"] = sum(t.steps - (len(t.samples) - 1) for t in trajs)
    m["kp.step_ms"] = 1e3 * m["kp.track_s"] / m["kp.steps"]
    m["kp.bundle_s"] = tracer.total("kp.energy_error_bundle")
    m["kp.csv_s"] = tracer.total("kp.trajectory_csv")

    prob, traj = tracer.results["kp.kp_problem"][-1], trajs[-1]
    with tracer.span("bench.kp_maps"):
        lam, t_low, t_high = traj.samples[len(traj.samples) // 2]
        state = KPState(prob.amplitude_split, t_low, t_high, lam)
        m["kp.residual_us"] = 1e6 * _median_call(kp_residual, prob, state)
        m["kp.jacobian_ms"] = 1e3 * _median_call(kp_jacobian, prob, state, calls=10)
        m["kp.dlam_us"] = 1e6 * _median_call(kp_dlam, prob, state)
    with tracer.span("bench.workspace"):
        ws, t = prob.ws, traj.endpoint.t_full
        m["ccpoly.ws_t_operator_us"] = 1e6 * _median_call(ws.t_operator, t)
        m["ccpoly.ws_residuals_us"] = 1e6 * _median_call(ws.residuals, t)
        m["ccpoly.ws_jacobian_ms"] = 1e3 * _median_call(ws.jacobian, t, calls=10)


def _basins_metrics(tracer, wl, pass_dir: Path, m: dict) -> None:
    from ccroots.ccpoly import PolynomialSystem

    grids = (tracer.results.get("basins.slice_scan", [])
             + tracer.results.get("basins.basin_scan", []))
    if not grids:
        return
    m["basins.slice_s"] = tracer.total("basins.slice_scan")
    m["basins.scan_s"] = tracer.total("basins.basin_scan")
    m["basins.render_s"] = tracer.total("basins.render_ppm")
    m["basins.newton_iters"] = sum(int(g.iterations.sum()) for g in grids)
    m["basins.converged_frac"] = (sum(int((g.root_index >= 0).sum()) for g in grids)
                                  / sum(g.nx * g.ny for g in grids))

    # one batched call at the size of a slice scan's first Newton iteration
    system = PolynomialSystem.from_json((pass_dir / wl.systems()[0]).read_text())
    direction, base = (np.array([float(v) for v in part.split(",")])
                       for part in wl.params["slices"][0].split("|"))
    z = tracer.results["basins.slice_scan"][0].pixel_centers().ravel()
    x = base[None, :] + z[:, None] * direction[None, :]
    with tracer.span("bench.batch_eval"):
        m["ccpoly.eval_batch_us_per_pt"] = 1e6 * _median_call(
            system.evaluate, x, calls=3) / len(z)
        m["ccpoly.jac_batch_us_per_pt"] = 1e6 * _median_call(
            system.jacobian, x, calls=3) / len(z)


def _replay(tracer, wl, pass_dir: Path, m: dict) -> None:
    """Library calls for the layers the CLI chain reaches only indirectly."""
    from ccroots.ccpoly import PolynomialSystem
    from ccroots.excitations import build_graph, excitation_matrix, full_rank
    from ccroots.model import assemble_hamiltonian, model_from_dict

    with tracer.span("bench.replay"):
        for model_file, rank in wl.models():
            model = model_from_dict(json.loads((pass_dir / model_file).read_text()))
            basis = model.basis()
            tracer.call("model.assemble_hamiltonian", assemble_hamiltonian, model, basis)
            graph = tracer.call("excitations.build_graph", build_graph, model,
                                full_rank(model) if rank == "full" else rank)
            with tracer.span("excitations.excitation_matrices"):
                for mu in graph.indices:
                    excitation_matrix(graph, mu, basis)
            m["model.sector_dim"] = max(m["model.sector_dim"], len(basis))
            m["excitations.n_amplitudes"] = max(m["excitations.n_amplitudes"], len(graph))
        for system_file in wl.systems():
            text = (pass_dir / system_file).read_text()
            system = tracer.call("ccpoly.from_json", PolynomialSystem.from_json, text)
            tracer.call("ccpoly.to_json", system.to_json)
            m["ccpoly.terms"] += sum(len(eq.terms) for eq in system.equations)
            x = np.full(system.n_vars, 0.1 + 0.05j)
            with tracer.span("ccpoly.compile"):
                first = time.perf_counter()
                system.evaluate(x)
                first = time.perf_counter() - first
            m["ccpoly.compile_s"] += first - _median_call(system.evaluate, x)
    m["model.assemble_s"] = tracer.total("model.assemble_hamiltonian")
    m["excitations.graph_s"] = tracer.total("excitations.build_graph")
    m["excitations.matrices_s"] = tracer.total("excitations.excitation_matrices")
    m["ccpoly.to_json_s"] = tracer.total("ccpoly.to_json")
    m["ccpoly.from_json_s"] = tracer.total("ccpoly.from_json")


def traced_pass(wl, tracer, run_pass, pass_dir: Path, untraced_s: float) -> tuple:
    """Run one traced pass; return (pass record, per-layer metrics)."""
    m = dict.fromkeys(PER_LAYER, 0.0)
    visited = []
    tracer.pass_id = 1
    instrument(tracer, visited)
    try:
        record = run_pass(wl, pass_dir, tracer)
    finally:
        tracer.unpatch()
    if not record["ok"]:
        return record, m

    m["ccpoly.generate_s"] = tracer.total("ccpoly.cc_system_for_rank")
    m["ccpoly.quadratize_s"] = tracer.total("ccpoly.quadratize")
    m["oracle.fci_s"] = tracer.total("oracle.fci_solve")
    m["oracle.match_s"] = (tracer.total("oracle.intermediately_normalizable")
                           + tracer.total("oracle.match_roots"))
    for cmd in CLI_COMMANDS:
        m[f"cli.{cmd}_s"] = tracer.total(f"cli.{cmd}")
        m[f"cli.overhead_s.{cmd}"] = tracer.self_time_of(f"cli.{cmd}")
    chain_s = sum(m[f"cli.{cmd}_s"] for cmd in CLI_COMMANDS)
    m["trace.overhead_frac"] = chain_s / untraced_s - 1.0

    _tracker_metrics(tracer, visited, m)
    _kp_metrics(tracer, m)
    _basins_metrics(tracer, wl, pass_dir, m)
    _replay(tracer, wl, pass_dir, m)
    for layer, s in tracer.layer_self_times().items():
        m[f"self_s.{layer}"] = s
    return record, m
