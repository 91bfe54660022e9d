"""Acceptance gate: one test (and one printed pass line) per advertised
guarantee of the package.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the pass lines.

The checks and their oracles:
  1. untruncated cluster roots == intermediately normalizable spectrum
     (Hubbard dimer, through the command line, under a wall-clock budget),
  2. root-count bound ladder 64/36/16 with the quadratic bound realized by
     exactly 16 tracked paths, cross-checked by a 10^4-start Newton sweep,
  3. the quadratic lift reproduces the energy-subtracted projected residuals
     at random points,
  4. the commutator series of a two-body Hamiltonian terminates at order 4,
  5. analytic Jacobians (cluster and truncation-homotopy) agree with central
     finite differences,
  6. the z^3 - 1 Newton scan registers exactly the three cube roots of unity
     and is byte-deterministic,
  7. the rank-2 truncation homotopy reaches the untruncated theory and its
     error bundle vanishes at the boundary rank,
  8. solution sets are seed-independent and single-seed runs are
     byte-identical,
  9. every intermediately normalizable eigenvector of every bundled model
     yields cluster amplitudes that the homotopy solver finds.
"""

import json
import os
import subprocess
import sys
import time

import numpy as np

import ccroots
from ccroots.basins import basin_scan, parse_univariate, render_ppm
from ccroots.ccpoly import cc_system_for_rank, quadratize, root_bounds
from ccroots.excitations import full_rank
from ccroots.kp import energy_error_bundle, kp_jacobian, kp_problem, kp_residual, kp_track, solve_lambda0
from ccroots.model import build_hubbard, build_pairing, load_integrals
from ccroots.oracle import cluster_from_ci, fci_solve, intermediately_normalizable
from ccroots.tracker import TrackOptions, solve_all

HERE = os.path.dirname(os.path.abspath(__file__))
PACKAGE_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(ccroots.__file__)))
BUNDLED_DIR = os.path.join(HERE, os.pardir, "demos", "models")


def bundled_models():
    names = sorted(p for p in os.listdir(BUNDLED_DIR) if p.endswith(".ints"))
    return [load_integrals(os.path.join(BUNDLED_DIR, p),
                           label=os.path.splitext(p)[0]) for p in names]


def run_cli(*args, cwd=None):
    # the subprocess imports the same copy of the package as these tests
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [PACKAGE_ROOT] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run(
        [sys.executable, "-m", "ccroots.cli"] + [str(a) for a in args],
        capture_output=True, text=True, cwd=cwd, env=env)


def random_amplitudes(rng, n, scale=1.0):
    return scale * (rng.standard_normal(n) + 1j * rng.standard_normal(n))


def ad_power_applied(ws, t, order):
    """ad_T^order(H) |ref>, by explicit sparse commutators."""
    T = ws.t_operator(t)
    A = ws.H
    for _ in range(order):
        A = A @ T - T @ A
    return A @ ws.e0


def lifted_point(cc, q, t):
    """Extend t by the pair-minor values the defining equations encode."""
    n_t = len(cc.graph)
    x = np.zeros(q.n_vars, dtype=complex)
    x[:n_t] = t
    for row in range(n_t, q.n_eqs):
        eq = q.equations[row]
        y_var, y_coef, rest = None, 1.0, 0j
        for mono, c in eq.terms.items():
            if len(mono) == 1 and mono[0][0] >= n_t and mono[0][1] == 1:
                y_var, y_coef = mono[0][0], c
            else:
                rest += c * np.prod([x[v] ** e for v, e in mono])
        x[y_var] = -rest / y_coef
    return x


def test_criterion_1_untruncated_roots_match_spectrum_via_cli(tmp_path):
    t0 = time.monotonic()
    steps = (
        ["model", "--hubbard", "2,1,4", "--nelec", "1,1",
         "-o", tmp_path / "m.json"],
        ["system", "--model", tmp_path / "m.json", "--rank", "full",
         "-o", tmp_path / "s.json"],
        ["solve", "--system", tmp_path / "s.json", "-o", tmp_path / "sol.json"],
        ["verify", "--model", tmp_path / "m.json",
         "--solutions", tmp_path / "sol.json", "-o", tmp_path / "rep.json"],
    )
    for args in steps:
        r = run_cli(*args)
        assert r.returncode == 0, r.stderr
    elapsed = time.monotonic() - t0

    with open(tmp_path / "rep.json") as fh:
        report = json.load(fh)
    assert report["all_matched"] is True
    assert len(report["matched"]) == 3
    assert all(m["distance"] < 1e-8 for m in report["matched"])
    assert report["unmatched_solutions"] == []
    assert report["unmatched_eigenstates"] == []
    assert elapsed < 10.0
    print(f"\ncriterion 1: PASS -- 3/3 states matched below 1e-8 "
          f"in {elapsed:.2f} s")


def test_criterion_2_quadratic_bound_realized_and_multistart_agrees():
    cc = cc_system_for_rank(build_hubbard(2, 1.0, 4.0, 1, 1), 2)
    bounds = root_bounds(cc.graph)
    assert (bounds.bezout_total, bounds.bezout_sd, bounds.quadratic) == (64, 36, 16)

    q = quadratize(cc)
    sol = solve_all(q, TrackOptions(rng_seed=0))
    counts = sol.status_counts()
    assert sol.n_paths == 16
    assert counts["clustered"] == 0
    assert counts["converged"] + counts["diverged"] + counts["failed"] == 16
    roots = [s.x for s in sol.solutions]

    # oracle: vectorized Newton from 10^4 Gaussian starts
    rng = np.random.default_rng(123)
    x = 2.0 * (rng.standard_normal((10_000, 4))
               + 1j * rng.standard_normal((10_000, 4)))
    with np.errstate(all="ignore"):
        for _ in range(80):
            r = q.evaluate(x)
            jac = q.jacobian(x)
            bad = ~np.isfinite(r).all(axis=-1)
            r[bad], jac[bad] = 0.0, np.eye(4)
            x = x - np.linalg.solve(jac, r[..., None])[..., 0]
        res = np.abs(q.evaluate(x)).max(axis=-1)
    hits = x[np.isfinite(res) & (res < 1e-10)]

    # every multistart hit is a tracked root, every tracked root is hit
    dist = np.abs(hits[:, None, :] - np.asarray(roots)[None, :, :]).max(axis=-1)
    assert (dist.min(axis=1) < 1e-6).all()
    assert (dist.min(axis=0) < 1e-6).all()
    assert len(roots) == 3
    print(f"criterion 2: PASS -- bounds (64, 36, 16), 16 paths, "
          f"{len(hits)} multistart hits land on the same 3 roots")


def test_criterion_3_quadratic_lift_reproduces_residuals():
    cc = cc_system_for_rank(build_hubbard(2, 1.0, 4.0, 1, 1), 2)
    q = quadratize(cc)
    ws = cc.workspace
    n_t = len(cc.graph)
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(100):
        t = random_amplitudes(rng, n_t)
        x = lifted_point(cc, q, t)
        vals = q.evaluate(x)
        wave = ws.expm_apply(ws.t_operator(t), ws.e0)
        hw = ws.H @ wave
        ci_res = (hw - hw[ws.ref_idx] * wave)[ws.target_idx]
        worst = max(worst, np.abs(vals[:n_t] - ci_res).max(),
                    np.abs(vals[n_t:]).max())
    assert worst < 1e-10
    print(f"criterion 3: PASS -- 100 lifted points, worst residual "
          f"deviation {worst:.2e}")


def test_criterion_4_commutator_series_terminates():
    worst = 0.0
    for model in bundled_models():
        cc = cc_system_for_rank(model, full_rank(model))
        ws = cc.workspace
        rng = np.random.default_rng(11)
        for _ in range(20):
            t = random_amplitudes(rng, len(cc.graph), scale=1.0)
            worst = max(worst, np.abs(ad_power_applied(ws, t, 5)).max())
    assert worst < 1e-12
    print(f"criterion 4: PASS -- 5-fold nested commutator norm <= "
          f"{worst:.2e} over bundled models")


def test_criterion_5_jacobians_match_central_differences():
    h = 1e-6

    # cluster Jacobian on the richer bundled model
    cc = cc_system_for_rank(build_pairing(2, 1.0, 0.5, 1), 2)
    ws = cc.workspace
    n = len(cc.graph)
    rng = np.random.default_rng(3)
    worst_cc = 0.0
    for _ in range(20):
        t = random_amplitudes(rng, n)
        j_an = ws.jacobian(t)
        j_fd = np.empty_like(j_an)
        for k in range(n):
            dt = np.zeros(n, dtype=complex)
            dt[k] = h
            j_fd[:, k] = (ws.residuals(t + dt) - ws.residuals(t - dt)) / (2 * h)
        rel = np.abs(j_an - j_fd).max() / max(np.abs(j_an).max(), 1.0)
        worst_cc = max(worst_cc, rel)
    assert worst_cc < 1e-6

    # truncation-homotopy Jacobian
    prob = kp_problem(build_pairing(4, 1.0, 0.33, 2), 2)
    n = len(prob.graph)
    worst_kp = 0.0
    for lam in (0.0, 0.37, 1.0):
        for _ in range(7):
            t = random_amplitudes(rng, n, scale=0.3)
            j_an = kp_jacobian(prob, prob.state(t, lam))
            j_fd = np.empty_like(j_an)
            for k in range(n):
                dt = np.zeros(n, dtype=complex)
                dt[k] = h
                j_fd[:, k] = (kp_residual(prob, prob.state(t + dt, lam))
                              - kp_residual(prob, prob.state(t - dt, lam))
                              ) / (2 * h)
            rel = np.abs(j_an - j_fd).max() / max(np.abs(j_an).max(), 1.0)
            worst_kp = max(worst_kp, rel)
    assert worst_kp < 1e-6
    print(f"criterion 5: PASS -- Jacobian vs central differences: "
          f"cluster {worst_cc:.2e}, homotopy {worst_kp:.2e}")


def test_criterion_6_newton_scan_registers_cube_roots():
    coeffs, _ = parse_univariate("z^3 - 1")
    window = (-2.0, 2.0, -2.0, 2.0)
    grid = basin_scan(coeffs, window, 81, max_iters=64, label="z^3 - 1")

    assert len(grid.roots) == 3
    expected = sorted([1.0 + 0.0j,
                       -0.5 + 0.5j * np.sqrt(3.0),
                       -0.5 - 0.5j * np.sqrt(3.0)], key=lambda z: (z.real, z.imag))
    got = sorted(grid.roots, key=lambda z: (z.real, z.imag))
    assert all(abs(a - b) < 1e-12 for a, b in zip(got, expected))

    # row 40 holds Im == 0; columns 41.. hold Re > 0 strictly
    idx_one = int(np.argmin(np.abs(np.asarray(grid.roots) - 1.0)))
    assert (grid.root_index[40, 41:] == idx_one).all()

    again = basin_scan(coeffs, window, 81, max_iters=64, label="z^3 - 1")
    assert render_ppm(grid) == render_ppm(again)
    print("criterion 6: PASS -- 3 cube roots to 1e-12, positive real axis "
          "maps to root 1, PPM bytes reproducible")


def test_criterion_7_truncation_homotopy_reaches_full_theory():
    model = build_pairing(4, 1.0, 0.33, 2)
    fci = fci_solve(model)

    prob = kp_problem(model, 2)
    states = solve_lambda0(prob)
    assert states, "lambda = 0 solve from zero starts must succeed"
    traj = kp_track(prob, states[0], TrackOptions(rng_seed=0))
    assert traj.endpoint_status == "reached_full"
    assert traj.endpoint_residual < 1e-8
    assert abs(traj.endpoint_energy - fci.energies[0]) < 1e-8
    bundle = energy_error_bundle(prob, states[0], traj.endpoint.t_full)

    # boundary consistency: truncating at the electron count truncates nothing
    prob4 = kp_problem(model, model.n_elec)
    states4 = solve_lambda0(prob4)
    traj4 = kp_track(prob4, states4[0], TrackOptions(rng_seed=0))
    bundle4 = energy_error_bundle(prob4, states4[0], traj4.endpoint.t_full)
    assert abs(bundle4.delta_e) < 1e-10
    assert bundle4.t_perp_norm < 1e-12
    print(f"criterion 7: PASS -- reached lambda = 1 with residual "
          f"{traj.endpoint_residual:.2e}, energy error "
          f"{abs(traj.endpoint_energy - fci.energies[0]):.2e}, "
          f"delta_E {bundle.delta_e.real:+.2e}; boundary rank gives "
          f"|delta_E| {abs(bundle4.delta_e):.2e}")


def test_criterion_8_seed_robustness_and_byte_determinism(tmp_path):
    system = cc_system_for_rank(build_hubbard(2, 1.0, 4.0, 1, 1), 2).polynomials

    sets = []
    for seed in (0, 1):
        sol = solve_all(system, TrackOptions(rng_seed=seed))
        sets.append(sorted((s.x for s in sol.solutions),
                           key=lambda x: (x[0].real, x[0].imag)))
    assert len(sets[0]) == len(sets[1]) == 3
    for a, b in zip(*sets):
        assert np.abs(a - b).max() < 1e-8

    (tmp_path / "s.json").write_text(system.to_json() + "\n")
    for name in ("a.json", "b.json"):
        r = run_cli("solve", "--system", tmp_path / "s.json", "--seed", "9",
                    "--workers", "1", "-o", tmp_path / name)
        assert r.returncode == 0, r.stderr
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
    print("criterion 8: PASS -- seeds 0/1 give the same 3 roots; one seed "
          "reproduces output bytes exactly")


def test_criterion_9_every_normalizable_eigenstate_is_found():
    lines = []
    for model in bundled_models():
        fci = fci_solve(model)
        assert fci.dim <= 100
        cc = cc_system_for_rank(model, full_rank(model))
        ws = cc.workspace
        sol = solve_all(cc.polynomials, TrackOptions(rng_seed=0))
        found = np.array([s.energy for s in sol.solutions])

        n_checked = 0
        for k in range(fci.dim):
            if not intermediately_normalizable(fci, k):
                continue
            t = cluster_from_ci(fci, k)
            residual = np.abs(ws.residuals(t)).max()
            assert residual < 1e-10
            assert np.abs(found - fci.energies[k]).min() < 1e-8
            n_checked += 1
        assert n_checked > 0
        lines.append(f"{model.label}: {n_checked} states")
    print(f"criterion 9: PASS -- {'; '.join(lines)}")
