"""Cluster-truncation homotopy: map structure, continuation, diagnostics.

Key structural facts checked here:
  * at lam = 1 the coupled map IS the full residual map (rank bookkeeping
    collapses the truncated rows onto the exact ones),
  * at lam = 0 the low rows depend on the low amplitudes only, making the
    system triangular (truncated solve, then auxiliary solve),
  * at every lam the coupled map equals its defining operator expression,
    multiplied out on the determinant basis,
  * the energy functional only reads amplitudes of rank <= 2, so both energy
    columns of a trajectory agree whenever rho >= 2.

Numbers for the picket-fence pairing model (4 levels, spacing 1, g = 0.33,
2 pairs, rho = 2) were frozen from a converged run cross-checked against the
dense diagonalization oracle.
"""

import csv
import io

import numpy as np
import pytest

from ccroots import cli
from ccroots.kp import (
    EnergyErrorBundle,
    KPState,
    _map,
    energy_error_bundle,
    kp_dlam,
    kp_jacobian,
    kp_problem,
    kp_residual,
    kp_track,
    overlap,
    refine_lambda0,
    solve_lambda0,
    trajectory_csv,
)
from ccroots.model import SectorError, build_hubbard, build_pairing
from ccroots.oracle import fci_solve
from ccroots.tracker import TrackOptions

SQRT2 = np.sqrt(2.0)

# frozen from a converged rho=2 run of pairing(4, 1.0, 0.33, 2), verified
# against fci_solve on the same model
PAIRING_E_TRUNC = 1.8492611609087892
PAIRING_T_PERP_NORM = 0.004095780553801761
PAIRING_E_FULL = 1.8498518351360727
PAIRING_DELTA_E = -0.0005906742272834276
PAIRING_OVERLAP = 1.0604704877286883
PAIRING_SIGMA_MIN = 1.1302998344923387


def pairing_problem(rho=2):
    return kp_problem(build_pairing(4, 1.0, 0.33, 2), rho)


def dimer_problem():
    return kp_problem(build_hubbard(2, 1.0, 4.0, 1, 1), 2)


def random_state(prob, rng, lam, scale=0.3):
    t = scale * (rng.standard_normal(len(prob.graph))
                 + 1j * rng.standard_normal(len(prob.graph)))
    return prob.state(t, lam)


# --- state plumbing ------------------------------------------------------------

def test_state_block_roundtrip():
    prob = pairing_problem()
    rng = np.random.default_rng(0)
    t = rng.standard_normal(35) + 1j * rng.standard_normal(35)
    state = prob.state(t, 0.5)
    np.testing.assert_array_equal(state.t_full, t)
    assert state.t_low.shape == (26,)
    assert state.t_high.shape == (9,)
    padded = state.low_padded()
    np.testing.assert_array_equal(padded[:26], t[:26])
    np.testing.assert_array_equal(padded[26:], 0)


def test_state_validation():
    prob = pairing_problem()
    with pytest.raises(SectorError):
        KPState(prob.amplitude_split, np.zeros(5), np.zeros(9), 0.0)
    with pytest.raises(ValueError):
        KPState(prob.amplitude_split, np.zeros(26), np.zeros(9), 1.5)
    with pytest.raises(ValueError):
        KPState(prob.amplitude_split, np.zeros(26), np.zeros(9), -0.1)


def test_problem_split_sizes():
    prob = pairing_problem(rho=2)
    assert prob.rho == 2
    assert len(prob.low) == 26 and len(prob.high) == 9
    boundary = pairing_problem(rho=4)
    assert len(boundary.high) == 0
    with pytest.raises(SectorError):
        kp_problem(build_pairing(4, 1.0, 0.33, 2), 1)


# --- the coupled map -------------------------------------------------------------

def test_lam1_recovers_full_residuals():
    for prob in (pairing_problem(2), pairing_problem(3), dimer_problem()):
        rng = np.random.default_rng(21)
        for _ in range(4):
            state = random_state(prob, rng, 1.0)
            full = prob.ws.residuals(state.t_full)
            scale = max(1.0, np.abs(full).max())
            np.testing.assert_allclose(kp_residual(prob, state), full,
                                       atol=1e-12 * scale)


def test_lam0_low_rows_ignore_high_amplitudes():
    prob = pairing_problem()
    rng = np.random.default_rng(3)
    t = 0.4 * (rng.standard_normal(35) + 1j * rng.standard_normal(35))
    r1 = kp_residual(prob, prob.state(t, 0.0))
    t2 = t.copy()
    t2[26:] = 10.0 * rng.standard_normal(9)
    r2 = kp_residual(prob, prob.state(t2, 0.0))
    np.testing.assert_allclose(r1[:26], r2[:26], atol=1e-14)
    # ... while at lam = 1 they do couple
    r1 = kp_residual(prob, prob.state(t, 1.0))
    r2 = kp_residual(prob, prob.state(t2, 1.0))
    assert np.abs(r1[:26] - r2[:26]).max() > 1e-3


def test_high_rows_are_lam_independent():
    prob = pairing_problem()
    rng = np.random.default_rng(4)
    t = 0.4 * (rng.standard_normal(35) + 1j * rng.standard_normal(35))
    r_at = {lam: kp_residual(prob, prob.state(t, lam)) for lam in (0.0, 0.5, 1.0)}
    np.testing.assert_allclose(r_at[0.0][26:], r_at[1.0][26:], atol=1e-13)
    np.testing.assert_allclose(r_at[0.5][26:], r_at[1.0][26:], atol=1e-13)
    d = kp_dlam(prob, prob.state(t, 0.5))
    np.testing.assert_array_equal(d[26:], 0)


def coupled_map_by_definition(prob, t, lam):
    """The module docstring's map, multiplied out on the determinant basis:
    low rows <Phi_mu| e^{-T0} H e^{T0} [1 + lam (e^{Tp} - 1)] |ref>, high rows
    <Phi_mu| e^{-T} H e^{T} |ref>."""
    ws = prob.ws
    low, high = list(prob.low), list(prob.high)
    t0 = t.copy()
    t0[high] = 0.0
    T0, Tp, T = ws.t_operator(t0), ws.t_operator(t - t0), ws.t_operator(t)
    v = ws.e0 + lam * (ws.expm_apply(Tp, ws.e0) - ws.e0)
    low_vec = ws.expm_apply(-T0, ws.H @ ws.expm_apply(T0, v))
    out = ws.expm_apply(-T, ws.H @ ws.expm_apply(T, ws.e0))[ws.target_idx]
    out[low] = low_vec[ws.target_idx[low]]
    return out


def test_coupled_map_matches_its_definition():
    for prob in (pairing_problem(2), pairing_problem(3), dimer_problem()):
        rng = np.random.default_rng(17)
        for _ in range(2):
            t = random_state(prob, rng, 0.0).t_full
            by_lam = {lam: coupled_map_by_definition(prob, t, lam)
                      for lam in (0.0, 0.37, 1.0)}
            scale = max(1.0, max(np.abs(r).max() for r in by_lam.values()))
            for lam, want in by_lam.items():
                np.testing.assert_allclose(kp_residual(prob, prob.state(t, lam)),
                                           want, rtol=0, atol=1e-12 * scale)
            # the definition is affine in lam, so its slope is the end difference
            np.testing.assert_allclose(kp_dlam(prob, prob.state(t, 0.37)),
                                       by_lam[1.0] - by_lam[0.0],
                                       rtol=0, atol=1e-12 * scale)


def test_jacobian_and_dlam_against_central_differences():
    prob = pairing_problem()
    rng = np.random.default_rng(11)
    h = 1e-6
    for lam in (0.0, 0.37, 1.0):
        state = random_state(prob, rng, lam)
        t = state.t_full
        j_an = kp_jacobian(prob, state)
        j_fd = np.empty_like(j_an)
        for k in range(35):
            dt = np.zeros(35, dtype=complex)
            dt[k] = h
            rp = kp_residual(prob, prob.state(t + dt, lam))
            rm = kp_residual(prob, prob.state(t - dt, lam))
            j_fd[:, k] = (rp - rm) / (2 * h)
        scale = max(1.0, np.abs(j_an).max())
        np.testing.assert_allclose(j_an, j_fd, atol=2e-6 * scale)
    # dH/dlam by differencing lam at fixed t
    state = random_state(prob, rng, 0.5)
    t = state.t_full
    d_an = kp_dlam(prob, state)
    d_fd = (kp_residual(prob, prob.state(t, 0.5 + h))
            - kp_residual(prob, prob.state(t, 0.5 - h))) / (2 * h)
    np.testing.assert_allclose(d_an, d_fd, atol=1e-7)


# --- lam = 0 solves ----------------------------------------------------------------

def test_lambda0_truncated_solve_frozen_values():
    prob = pairing_problem()
    states = solve_lambda0(prob)
    assert len(states) == 1
    state = states[0]
    assert state.lam == 0.0
    assert np.abs(kp_residual(prob, state)).max() < 1e-11
    assert prob.ws.energy(state.t_full).real == pytest.approx(PAIRING_E_TRUNC,
                                                              abs=1e-9)
    assert np.linalg.norm(state.t_high) == pytest.approx(PAIRING_T_PERP_NORM,
                                                         abs=1e-9)


def test_lambda0_homotopy_starts_find_every_dimer_state():
    prob = dimer_problem()
    states = solve_lambda0(prob, use_homotopy_starts=True)
    assert len(states) == 3
    energies = [prob.ws.energy(s.t_full).real for s in states]
    np.testing.assert_allclose(
        energies, [2.0 - 2.0 * SQRT2, 4.0, 2.0 + 2.0 * SQRT2], atol=1e-8)
    # default single-start Newton from zero lands on one of them
    assert len(solve_lambda0(prob)) == 1


def test_refine_lambda0_from_noisy_guess():
    prob = pairing_problem()
    exact = solve_lambda0(prob)[0]
    rng = np.random.default_rng(8)
    noisy = prob.state(exact.t_full + 1e-3 * rng.standard_normal(35), 0.0)
    refined = refine_lambda0(prob, noisy)
    assert refined is not None
    np.testing.assert_allclose(refined.t_full, exact.t_full, atol=1e-9)


# --- continuation to lam = 1 ---------------------------------------------------------

def test_pairing_trajectory_reaches_full_theory():
    prob = pairing_problem()
    state0 = solve_lambda0(prob)[0]
    traj = kp_track(prob, state0)
    assert traj.endpoint_status == "reached_full"
    assert traj.endpoint_residual < 1e-12
    fci = fci_solve(prob.model)
    assert traj.endpoint_energy.real == pytest.approx(fci.energies[0], abs=1e-10)
    assert traj.endpoint_energy.real == pytest.approx(PAIRING_E_FULL, abs=1e-9)
    assert traj.jacobian_sigma_min == pytest.approx(PAIRING_SIGMA_MIN, abs=1e-6)
    assert not traj.degenerate
    # the endpoint equals the oracle's cluster amplitudes for the ground state
    from ccroots.oracle import cluster_from_ci
    np.testing.assert_allclose(traj.endpoint.t_full, cluster_from_ci(fci, 0),
                               atol=1e-10)
    # samples: initial state plus one per accepted step, lam strictly up
    lams = [lam for lam, _, _ in traj.samples]
    assert lams[0] == 0.0 and lams[-1] == 1.0
    assert all(b > a for a, b in zip(lams, lams[1:]))
    assert len(traj.samples) == traj.steps + 1     # no rejected steps here


def test_boundary_rho_trajectory_is_constant():
    # rho = n_elec: nothing is truncated, the homotopy is the identity
    prob = pairing_problem(rho=4)
    state0 = solve_lambda0(prob)[0]
    traj = kp_track(prob, state0)
    assert traj.endpoint_status == "reached_full"
    drift = max(np.abs(np.concatenate([tl, th]) - state0.t_full).max()
                for _, tl, th in traj.samples)
    assert drift < 1e-12
    bundle = energy_error_bundle(prob, state0, traj.endpoint.t_full)
    assert abs(bundle.delta_e) < 1e-10
    assert bundle.t_perp_norm < 1e-12


def test_track_requires_solved_start():
    prob = pairing_problem()
    rng = np.random.default_rng(5)
    with pytest.raises(ValueError, match="start state residual"):
        kp_track(prob, random_state(prob, rng, 0.0))


def test_track_step_budget_failure_is_reported():
    prob = pairing_problem()
    state0 = solve_lambda0(prob)[0]
    traj = kp_track(prob, state0, TrackOptions(max_steps=2))
    assert traj.endpoint_status == "failed"
    assert traj.endpoint is None
    assert traj.samples[-1][0] < 1.0


# --- overlaps and the energy-error bundle ---------------------------------------------

def test_overlap_basics():
    model = build_pairing(4, 1.0, 0.33, 2)
    rng = np.random.default_rng(2)
    zero = np.zeros(35)
    assert overlap(model, zero, zero) == pytest.approx(1.0)
    t = 0.3 * (rng.standard_normal(35) + 1j * rng.standard_normal(35))
    # <ref| e^T ref> = 1: the exponential is intermediately normalized
    assert overlap(model, zero, t) == pytest.approx(1.0)
    s = 0.3 * (rng.standard_normal(35) + 1j * rng.standard_normal(35))
    assert overlap(model, s, t) == pytest.approx(np.conj(overlap(model, t, s)))
    with pytest.raises(SectorError):
        overlap(model, np.zeros(34), t)


def test_energy_error_bundle_frozen_values():
    prob = pairing_problem()
    state0 = solve_lambda0(prob)[0]
    traj = kp_track(prob, state0)
    bundle = energy_error_bundle(prob, state0, traj.endpoint.t_full)
    assert isinstance(bundle, EnergyErrorBundle)
    assert bundle.delta_e.real == pytest.approx(PAIRING_DELTA_E, abs=1e-9)
    assert abs(bundle.delta_e.imag) < 1e-12
    assert bundle.t_perp_norm == pytest.approx(PAIRING_T_PERP_NORM, abs=1e-9)
    assert bundle.overlap.real == pytest.approx(PAIRING_OVERLAP, abs=1e-6)
    assert not bundle.orthogonal
    d = bundle.as_dict()
    assert set(d) == {"delta_e", "t_perp_norm", "overlap", "orthogonal"}
    assert d["delta_e"][0] == pytest.approx(PAIRING_DELTA_E, abs=1e-9)


def test_orthogonal_states_warn():
    # comparing the dimer ground state against the t of the E = 4 root:
    # those exponential states are orthogonal and the bundle must say so
    prob = dimer_problem()
    states = solve_lambda0(prob, use_homotopy_starts=True)
    ground, middle = states[0], states[1]
    with pytest.warns(RuntimeWarning, match="orthogonal"):
        bundle = energy_error_bundle(prob, ground, middle.t_full)
    assert bundle.orthogonal
    assert abs(bundle.overlap) < 1e-8


# --- trajectory CSV --------------------------------------------------------------------

def test_trajectory_csv_layout():
    prob = pairing_problem()
    state0 = solve_lambda0(prob)[0]
    traj = kp_track(prob, state0)
    text = trajectory_csv(prob, traj)
    rows = list(csv.reader(io.StringIO(text)))
    header = rows[0]
    assert header[0] == "lambda"
    assert header[1] == "re(t[0->4])"
    assert header[-3:] == ["residual_norm", "energy_low", "energy_full"]
    assert len(header) == 1 + 2 * 35 + 3
    assert len(rows) == 1 + len(traj.samples)
    for row in rows[1:]:
        assert len(row) == len(header)
        e_low = complex(row[-2])
        e_full = complex(row[-1])
        assert abs(e_low - e_full) < 1e-10        # energy reads rank <= 2 only
    assert float(rows[1][0]) == 0.0
    assert float(rows[-1][0]) == 1.0
    assert complex(rows[-1][-1]).real == pytest.approx(PAIRING_E_FULL, abs=1e-9)


# --- the map and the CSV against the forms they replaced -------------------------------

def reference_residual_vector(ws, t):
    """e^{-T} H e^{T} |ref> with -T built as its own matrix."""
    T = ws.t_operator(t)
    return ws.expm_apply(-T, ws.H @ ws.expm_apply(T, ws.e0))


def reference_residuals_and_jacobian(ws, t):
    """Every Jacobian column, and -T built as its own matrix."""
    T = ws.t_operator(t)
    u = ws.expm_apply(T, ws.e0)
    hu = ws.H @ u
    y = ws.H @ ws.excite(u).T - ws.excite(hu).T
    T = -T
    return ws.expm_apply(T, hu)[ws.target_idx], ws.expm_apply(T, y)[ws.target_idx]


def reference_map(prob, t, lam):
    """The coupled map with J(t0) over all K columns."""
    low = list(prob.low)
    block = np.ix_(low, low)
    r, J = reference_residuals_and_jacobian(prob.ws, t)
    r0, J0 = reference_residuals_and_jacobian(prob.ws, prob.state(t, lam).low_padded())
    dlam = r - r0
    dlam[list(prob.high)] = 0.0
    r[low] = (1.0 - lam) * r0[low] + lam * r[low]
    J[low, :] *= lam
    J[block] += (1.0 - lam) * J0[block]
    return r, J, dlam


def reference_trajectory_csv(prob, traj):
    """Four residual vectors per sample: the map at t and t0, then each energy."""
    ws = prob.ws
    names = prob.graph.names()
    header = ["lambda"] + [f"{p}({n})" for n in names for p in ("re", "im")]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header + ["residual_norm", "energy_low", "energy_full"])
    for lam, t_low, t_high in traj.samples:
        state = KPState(prob.amplitude_split, t_low, t_high, lam)
        t, t0 = state.t_full, state.low_padded()
        low = list(prob.low)
        r0 = reference_residual_vector(ws, t0)[ws.target_idx]
        r = reference_residual_vector(ws, t)[ws.target_idx]
        r[low] = (1.0 - lam) * r0[low] + lam * r[low]
        e_low = complex(reference_residual_vector(ws, t0)[ws.ref_idx])
        e_full = complex(reference_residual_vector(ws, t)[ws.ref_idx])
        row = [repr(float(lam))]
        for k in range(len(names)):
            row += [repr(float(t[k].real)), repr(float(t[k].imag))]
        writer.writerow(row + [repr(float(np.abs(r).max(initial=0.0))), repr(e_low),
                               repr(e_full)])
    return buf.getvalue()


KP_PROBLEMS = {
    "pairing4_rho2": lambda: pairing_problem(2),
    "pairing4_rho3": lambda: pairing_problem(3),
    "pairing5_rho2": lambda: kp_problem(build_pairing(5, 1.0, 0.4, 2), 2),
    "dimer": dimer_problem,
    "hubbard4_rho2": lambda: kp_problem(build_hubbard(4, 1.0, 4.0, 2, 2), 2),
}


@pytest.mark.parametrize("name", sorted(KP_PROBLEMS))
def test_map_matches_reference_bit_for_bit(name):
    prob = KP_PROBLEMS[name]()
    ws = prob.ws
    rng = np.random.default_rng(sorted(KP_PROBLEMS).index(name))
    n_low = len(prob.low)
    for lam in (0.0, 0.37, 1.0):
        t = random_state(prob, rng, lam).t_full
        t[rng.random(len(t)) < 0.2] = 0.0
        for got, want in zip(_map(prob, t, lam), reference_map(prob, t, lam)):
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
        # a subset of Jacobian columns is those columns of the full Jacobian
        r, J = reference_residuals_and_jacobian(ws, t)
        for columns in (slice(n_low), slice(None), np.array([len(t) - 1, 0, 2 % len(t)])):
            r_sub, J_sub = ws.residuals_and_jacobian(t, columns)
            assert r_sub.tobytes() == r.tobytes()
            assert J_sub.tobytes() == np.ascontiguousarray(J[:, columns]).tobytes()
        assert ws.residual_vector(t).tobytes() == reference_residual_vector(ws, t).tobytes()


@pytest.mark.parametrize("name", sorted(KP_PROBLEMS))
def test_trajectory_csv_matches_reference_bytes(name):
    prob = KP_PROBLEMS[name]()
    state0 = solve_lambda0(prob)[0]
    for options in (TrackOptions(), TrackOptions(max_steps=3)):
        traj = kp_track(prob, state0, options)
        assert len(traj.samples) > 1
        assert trajectory_csv(prob, traj) == reference_trajectory_csv(prob, traj)


# --- the kp and Workspace contract that bench/layers.py measures ----------------------

def test_kp_maps_and_workspace_keep_their_call_forms(tmp_path):
    prob = pairing_problem()
    K, dim = len(prob.graph), prob.ws.dim
    rng = np.random.default_rng(23)
    t = 0.3 * (rng.standard_normal(K) + 1j * rng.standard_normal(K))
    lam = 0.37
    state = KPState(prob.amplitude_split, t[list(prob.low)], t[list(prob.high)], lam)
    r, J, dlam = kp_residual(prob, state), kp_jacobian(prob, state), kp_dlam(prob, state)
    assert r.shape == dlam.shape == (K,) and J.shape == (K, K)
    # the value-only route and the fused map agree bit for bit
    H, J_map, dlam_map = _map(prob, t, lam)
    assert np.array_equal(r, H) and np.array_equal(J, J_map)
    assert np.array_equal(dlam, dlam_map)

    ws = prob.ws
    assert ws.t_operator(t).shape == (dim, dim)
    assert ws.residuals(t).shape == (K,) and ws.jacobian(t).shape == (K, K)
    assert ws.residual_vector(t, path="expm").shape == (dim,)

    model = str(tmp_path / "pairing.json")
    assert cli.main(["model", "--pairing", "4,1.0,0.33,2", "-o", model]) == 0
    assert cli.main(["kp", "--model", model, "--rho", "2", "--workers", "1",
                     "-o", str(tmp_path / "run")]) == 0
