"""Homotopy between a rank-truncated cluster operator and the full one.

The amplitude vector over the full excitation graph is split at rank rho into
a low block t0 (rank <= rho) and a complementary block tp.  The coupled map

    low rows:   <Phi_mu| e^{-T0} H e^{T0} [ 1 + lam (e^{Tp} - 1) ] |ref>
    high rows:  <Phi_mu| e^{-T} H e^{T} |ref>,  T = T0 + Tp

interpolates between a triangular pair of problems at lam = 0 (the truncated
CC equations in t0 alone, then the auxiliary high-rank equations in tp) and
the full CC residuals at lam = 1: operators of rank above the bra's cannot
de-excite it, so <Phi_mu| e^{-Tp} = <Phi_mu| exactly for every low-rank mu,
which makes the lam = 1 low rows equal the full residuals.  Tracking lam
upward carries a truncated-model root to the full-model root it shadows.

The same fact and e^{T0} e^{Tp} = e^{T} (excitation operators commute) make
the map a straight line in lam between two calls of the one CC residual map
r = Workspace.residuals, at t and at t0 (t with tp zeroed):

    low rows:   (1 - lam) r(t0) + lam r(t)        high rows:  r(t)

Its Jacobian is lam J(t) plus (1 - lam) J(t0) in the [low, low] block, and its
lam-derivative is r(t) - r(t0) on the low rows and zero on the high rows; one
Workspace.residuals_and_jacobian pass at t and one at t0, for J(t0)'s low
columns only (the low block leads in rank-major order), give all three.
"""

from __future__ import annotations

import csv
import io
import logging
import warnings
from dataclasses import dataclass, field

import numpy as np

from .ccpoly import Workspace, generate_system
from .excitations import AmplitudeSplit, ExcitationGraph, build_graph, full_rank, split
from .model import ModelSpec, SectorError
from .oracle import sigma_min
from .tracker import TrackOptions, _continue, newton, solve_all

log = logging.getLogger(__name__)

_ENDPOINT_TOL = 1e-8
_SIGMA_DEGENERATE_TOL = 1e-8
_OVERLAP_WARNING_TOL = 1e-8
_START_RESIDUAL_TOL = 1e-8
_LAMBDA0_MAX_ITERS = 60


@dataclass
class KPState:
    """Point of the coupled map: low/high amplitude blocks at one lam."""

    amplitude_split: AmplitudeSplit
    t_low: np.ndarray
    t_high: np.ndarray
    lam: float

    def __post_init__(self):
        self.t_low = np.asarray(self.t_low, dtype=complex)
        self.t_high = np.asarray(self.t_high, dtype=complex)
        sp = self.amplitude_split
        if self.t_low.shape != (len(sp.low),) or self.t_high.shape != (len(sp.high),):
            raise SectorError("amplitude block sizes do not match the split")
        if not 0.0 <= self.lam <= 1.0:
            raise ValueError(f"lam must lie in [0, 1], got {self.lam}")

    @classmethod
    def from_full(cls, sp: AmplitudeSplit, t: np.ndarray, lam: float) -> "KPState":
        t = np.asarray(t, dtype=complex)
        if t.shape != (len(sp.graph),):
            raise SectorError(f"expected {len(sp.graph)} amplitudes, got {t.size}")
        return cls(sp, t[list(sp.low)], t[list(sp.high)], lam)

    @property
    def t_full(self) -> np.ndarray:
        """Concatenation in graph order (low and high interleave by position)."""
        t = np.zeros(len(self.amplitude_split.graph), dtype=complex)
        t[list(self.amplitude_split.low)] = self.t_low
        t[list(self.amplitude_split.high)] = self.t_high
        return t

    def low_padded(self) -> np.ndarray:
        """The low block alone, zero-padded to the full graph."""
        return KPState(self.amplitude_split, self.t_low, np.zeros_like(self.t_high), 0.0).t_full


@dataclass
class KPProblem:
    """Workspace plus the rank split defining the cluster homotopy."""

    model: ModelSpec
    graph: ExcitationGraph
    amplitude_split: AmplitudeSplit
    ws: Workspace

    @property
    def rho(self) -> int:
        return self.amplitude_split.rho

    @property
    def low(self) -> tuple:
        return self.amplitude_split.low

    @property
    def high(self) -> tuple:
        return self.amplitude_split.high

    def state(self, t: np.ndarray, lam: float) -> KPState:
        return KPState.from_full(self.amplitude_split, t, lam)


def kp_problem(model: ModelSpec, rho: int, rank_max: int | None = None) -> KPProblem:
    """Build the homotopy for a model, defaulting to the full-rank graph."""
    graph = build_graph(model, rank_max if rank_max is not None else full_rank(model))
    sp = split(graph, rho)
    if list(sp.low) != list(range(len(sp.low))):
        raise AssertionError("rank-major graph order expected")
    return KPProblem(model, graph, sp, Workspace(model, graph))


def _check_state(prob: KPProblem, state: KPState) -> None:
    if state.amplitude_split.graph is not prob.graph and (
            state.amplitude_split.low != prob.amplitude_split.low
            or state.amplitude_split.high != prob.amplitude_split.high):
        raise SectorError("state split does not match the problem split")


def _low_padded(prob: KPProblem, t: np.ndarray) -> np.ndarray:
    """t0: t with its high block zeroed (the low block leads, rank-major)."""
    return np.concatenate((t[:len(prob.low)], np.zeros(len(prob.high), dtype=t.dtype)))


def _blend(prob: KPProblem, r: np.ndarray, r0: np.ndarray, lam: float) -> np.ndarray:
    """The coupled map from the residuals r at t and r0 at t0, in place of r."""
    n_low = len(prob.low)
    r[:n_low] = (1.0 - lam) * r0[:n_low] + lam * r[:n_low]
    return r


def _map(prob: KPProblem, t: np.ndarray, lam: float) -> tuple:
    """(H, J, dH/dlam) of the coupled map: one pass at t, one at t0 for J's low columns."""
    ws, n_low = prob.ws, len(prob.low)
    r, J = ws.residuals_and_jacobian(t)
    r0, J0 = ws.residuals_and_jacobian(_low_padded(prob, t), slice(n_low))
    dlam = r - r0
    dlam[n_low:] = 0.0
    J[:n_low] *= lam
    J[:n_low, :n_low] += (1.0 - lam) * J0[:n_low]
    return _blend(prob, r, r0, lam), J, dlam


def kp_residual(prob: KPProblem, state: KPState) -> np.ndarray:
    """Residual of the coupled map at the state, in graph order."""
    _check_state(prob, state)
    t = state.t_full
    return _blend(prob, prob.ws.residuals(t), prob.ws.residuals(_low_padded(prob, t)), state.lam)


def kp_jacobian(prob: KPProblem, state: KPState) -> np.ndarray:
    """Analytic Jacobian of the coupled map with respect to the amplitudes."""
    _check_state(prob, state)
    return _map(prob, state.t_full, state.lam)[1]


def kp_dlam(prob: KPProblem, state: KPState) -> np.ndarray:
    """Derivative of the coupled map with respect to lam (high rows vanish)."""
    _check_state(prob, state)
    return _map(prob, state.t_full, state.lam)[2]


def _block_newton(ws: Workspace, t: np.ndarray, idx: list, start: np.ndarray,
                  tol: float) -> np.ndarray | None:
    """Newton on the residual rows idx in the amplitudes idx, the rest of t fixed."""
    def at(x):
        tt = t.copy()
        tt[idx] = x
        return tt

    def fun_and_jac(x):
        r, J = ws.residuals_and_jacobian(at(x))
        return r[idx], J[np.ix_(idx, idx)]

    x, ok, _, _ = newton(fun_and_jac, start, tol, _LAMBDA0_MAX_ITERS)
    return at(x) if ok else None


def _two_stage(prob: KPProblem, low_start: np.ndarray, high_start: np.ndarray,
               tol: float) -> np.ndarray | None:
    """Triangular lam = 0 solve: truncated equations, then auxiliary ones."""
    t = np.zeros(len(prob.graph), dtype=complex)
    t = _block_newton(prob.ws, t, list(prob.low), low_start, tol)
    if t is not None and prob.high:
        t = _block_newton(prob.ws, t, list(prob.high), high_start, tol)
    return t


def refine_lambda0(prob: KPProblem, guess: KPState,
                   tol: float = 1e-12) -> KPState | None:
    """Two-stage lam = 0 Newton from an arbitrary start state, or None."""
    _check_state(prob, guess)
    t = _two_stage(prob, guess.t_low, guess.t_high, tol)
    return None if t is None else prob.state(t, 0.0)


def solve_lambda0(prob: KPProblem, use_homotopy_starts: bool = False,
                  tol: float = 1e-12,
                  track_options: TrackOptions | None = None) -> list:
    """All lam = 0 states reachable from the chosen stage-1 starts.

    Stage 1 solves the truncated CC equations in t0: a single Newton run
    from t0 = 0 by default, or one run from every homotopy root of the
    truncated polynomial system when `use_homotopy_starts` is set.  Stage 2
    completes each stage-1 root through the auxiliary equations (Newton in
    tp from 0; the lam = 0 high rows are square in tp once t0 is fixed).
    Distinct converged states are returned sorted by Re of the CC energy;
    per-candidate Newton failures are logged and dropped.
    """
    starts = [np.zeros(len(prob.low), dtype=complex)]
    if use_homotopy_starts:
        sub_cc = generate_system(prob.model, build_graph(prob.model, prob.rho))
        sol = solve_all(sub_cc.polynomials, track_options or TrackOptions())
        starts = [s.x for s in sol.solutions]

    states = []
    for i, s0 in enumerate(starts):
        t = _two_stage(prob, s0, np.zeros(len(prob.high), dtype=complex), tol)
        if t is None:
            log.info("lam=0 Newton failed from start %d", i)
            continue
        if any(np.abs(t - other.t_full).max(initial=0.0) < 1e-8 for other in states):
            continue
        states.append(prob.state(t, 0.0))
    states.sort(key=lambda s: (round(prob.ws.energy(s.t_full).real, 10),
                               round(prob.ws.energy(s.t_full).imag, 10)))
    return states


@dataclass
class KPTrajectory:
    """Accepted continuation samples plus the refined lam = 1 endpoint.

    `endpoint_status` is "reached_full" only when the final full-residual
    max-norm is below 1e-8; the smallest singular value of the full CC
    Jacobian at the endpoint certifies (non)degeneracy.
    """

    samples: list = field(default_factory=list)   # (lam, t_low, t_high)
    endpoint_status: str = "failed"               # reached_full | diverged | failed
    endpoint: KPState | None = None
    endpoint_residual: float = float("inf")
    endpoint_energy: complex = complex("nan")
    jacobian_sigma_min: float = float("nan")
    degenerate: bool = False
    steps: int = 0


def kp_track(prob: KPProblem, state0: KPState,
             options: TrackOptions | None = None) -> KPTrajectory:
    """Continue one lam = 0 state to lam = 1 and polish on the full residuals.

    The predictor-corrector loop is the tracker's shared continuation core;
    samples are recorded at every accepted step, so lam is strictly
    increasing across them.
    """
    _check_state(prob, state0)
    r0 = float(np.abs(kp_residual(prob, state0)).max(initial=0.0))
    if r0 > _START_RESIDUAL_TOL:
        raise ValueError(f"start state residual {r0:.3e} exceeds {_START_RESIDUAL_TOL:.0e}")

    options = options or TrackOptions()
    ws = prob.ws
    low, high = list(prob.low), list(prob.high)
    t0 = state0.t_full
    traj = KPTrajectory(samples=[(float(state0.lam), t0[low].copy(), t0[high].copy())])

    def on_accept(lam, t):
        traj.samples.append((lam, t[low].copy(), t[high].copy()))
        log.debug("lam=%.6f displacement from start %.3e", lam,
                  float(np.abs(t - t0).max(initial=0.0)))

    outcome, t, _, traj.steps = _continue(
        lambda t, lam: _map(prob, t, lam), t0, float(state0.lam), 1.0, options,
        on_accept=on_accept)
    if outcome == "diverged":
        traj.endpoint_status = "diverged"
    if outcome != "reached":
        return traj

    t, _, _, res = newton(ws.residuals_and_jacobian, t, options.refine_tol,
                          options.refine_max_iters)
    traj.endpoint = prob.state(t, 1.0)
    traj.endpoint_residual = res
    traj.endpoint_energy = ws.energy(t)
    if res < _ENDPOINT_TOL:
        traj.endpoint_status = "reached_full"
        traj.jacobian_sigma_min = sigma_min(ws.jacobian(t))
        traj.degenerate = bool(traj.jacobian_sigma_min < _SIGMA_DEGENERATE_TOL)
    return traj


def overlap(model: ModelSpec, t_a: np.ndarray, t_b: np.ndarray,
            graph_a: ExcitationGraph | None = None,
            graph_b: ExcitationGraph | None = None) -> complex:
    """Inner product of two exponentially parameterized states.

    Evaluates <e^{T(t_a)} ref | e^{T(t_b)} ref> by the finite nilpotent
    series, conjugating the left factor.  Graphs default to the full-rank
    graph of the model; both must live over the model's particle sector.
    """
    if graph_a is None or graph_b is None:
        full = build_graph(model, full_rank(model))
        graph_a = full if graph_a is None else graph_a
        graph_b = full if graph_b is None else graph_b
    t_a = np.asarray(t_a, dtype=complex)
    t_b = np.asarray(t_b, dtype=complex)
    if t_a.shape != (len(graph_a),) or t_b.shape != (len(graph_b),):
        raise SectorError("amplitude length does not match its graph")
    ws_a = Workspace(model, graph_a)
    ws_b = ws_a if graph_b is graph_a else Workspace(model, graph_b)
    ua = ws_a.expm_apply(ws_a.t_operator(t_a), ws_a.e0)
    ub = ws_b.expm_apply(ws_b.t_operator(t_b), ws_b.e0)
    return complex(np.vdot(ua, ub))


@dataclass
class EnergyErrorBundle:
    """Diagnostic comparing a lam = 0 state with a full-cluster root."""

    delta_e: complex        # E_CC(low block alone) - E_CC(t_full)
    t_perp_norm: float      # Euclidean norm of the auxiliary-equation block
    overlap: complex        # <e^{T(low block)} ref | e^{T(t_full)} ref>
    orthogonal: bool        # |overlap| below the representability tolerance

    def as_dict(self) -> dict:
        return {
            "delta_e": [self.delta_e.real, self.delta_e.imag],
            "t_perp_norm": self.t_perp_norm,
            "overlap": [self.overlap.real, self.overlap.imag],
            "orthogonal": self.orthogonal,
        }


def energy_error_bundle(prob: KPProblem, state_low: KPState,
                        t_full: np.ndarray) -> EnergyErrorBundle:
    """Truncation-energy error, auxiliary-block norm, and state overlap.

    `state_low` should solve the lam = 0 equations and `t_full` the full CC
    equations.  A (near-)zero overlap means the two exponential states are
    orthogonal — they represent different eigenstates and the energy
    difference carries no meaning — so a RuntimeWarning is emitted and the
    `orthogonal` flag set.
    """
    _check_state(prob, state_low)
    ws = prob.ws
    t_full = np.asarray(t_full, dtype=complex)
    t_low = state_low.low_padded()
    ua = ws.expm_apply(ws.t_operator(t_low), ws.e0)
    ub = ws.expm_apply(ws.t_operator(t_full), ws.e0)
    ov = complex(np.vdot(ua, ub))
    orthogonal = bool(abs(ov) < _OVERLAP_WARNING_TOL)
    if orthogonal:
        warnings.warn(
            "truncated and full cluster states are numerically orthogonal; "
            "the energy comparison is not meaningful", RuntimeWarning,
            stacklevel=2)
    return EnergyErrorBundle(
        delta_e=ws.energy(t_low) - ws.energy(t_full),
        t_perp_norm=float(np.linalg.norm(state_low.t_high)),
        overlap=ov,
        orthogonal=orthogonal,
    )


def trajectory_csv(prob: KPProblem, traj: KPTrajectory) -> str:
    """Render a trajectory as CSV.

    Columns: lam, re/im of every amplitude (graph order), the max-norm of
    the coupled-map residual, the energy of the low block alone, and the
    energy of the full amplitude vector.  The energy columns hold complex
    literals in Python syntax ("(a+bj)"), parseable with complex().
    """
    ws = prob.ws
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["lambda"] + [f"{part}({name})" for name in prob.graph.names()
                                  for part in ("re", "im")]
                    + ["residual_norm", "energy_low", "energy_full"])
    for lam, t_low, t_high in traj.samples:
        t = KPState(prob.amplitude_split, t_low, t_high, lam).t_full
        # one residual vector at t and one at t0 give the residual and both energies
        v, v0 = ws.residual_vector(t), ws.residual_vector(_low_padded(prob, t))
        res = float(np.abs(_blend(prob, v[ws.target_idx], v0[ws.target_idx], lam))
                    .max(initial=0.0))
        writer.writerow([repr(float(lam))] + [repr(float(p)) for z in t for p in (z.real, z.imag)]
                        + [repr(res), repr(complex(v0[ws.ref_idx])), repr(complex(v[ws.ref_idx]))])
    return buf.getvalue()
