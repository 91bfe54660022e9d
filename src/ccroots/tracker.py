"""All-roots polynomial homotopy continuation.

The target system F is deformed into a total-degree start system
G_i = x_i^{d_i} - 1 through H(x, lam) = (1 - lam) F(x) + gamma lam G(x),
tracked from lam = 1 to lam = 0 along every start root.  A random complex
gamma on the unit circle makes the paths smooth away from lam = 0 with
probability one; endpoints are polished against F itself and merged into
distinct solutions with multiplicities.  H, its Jacobian and dH/dlam come
from one product on F's and G's monomial table (`linear_homotopy`), and the
continuation core solves a point's predictor tangent once, for all retries.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .ccpoly import PolynomialSystem, poly_from_json_terms

_MAX_PATHS = 1_000_000


class PathBudgetError(ValueError):
    """Start-system size exceeds the tracking budget."""


@dataclass(frozen=True)
class TrackOptions:
    """Continuation controls; defaults suit the desk-scale bundled models."""

    step_init: float = 0.05
    step_min: float = 1e-9
    step_max: float = 0.1
    corrector_tol: float = 1e-10
    corrector_max_iters: int = 5
    divergence_norm: float = 1e8
    at_infinity_norm: float = 1e4
    endgame_growth: float = 10.0
    endgame_start: float = 0.01
    endgame_factor: float = 0.5
    endpoint_lambda: float = 1e-12
    refine_tol: float = 1e-12
    refine_max_iters: int = 50
    dedupe_radius: float = 1e-6
    real_tol: float = 1e-8
    rng_seed: int = 0
    max_steps: int = 20000
    record_trace: bool = False


@dataclass
class PathResult:
    index: int
    status: str                 # converged | clustered | diverged | failed
    x: np.ndarray
    lambda_reached: float
    steps: int
    residual: float
    trace: list | None = None   # accepted (lam, x) samples when recorded


@dataclass
class Solution:
    x: np.ndarray
    path_index: int
    multiplicity: int
    is_real: bool
    residual: float
    energy: complex | None


@dataclass
class SolutionSet:
    system: PolynomialSystem
    options: TrackOptions
    gamma: complex
    n_paths: int
    paths: list
    solutions: list

    def status_counts(self) -> dict:
        counts = {"converged": 0, "clustered": 0, "diverged": 0, "failed": 0}
        for p in self.paths:
            counts[p.status] += 1
        return counts

    def to_dict(self) -> dict:
        return {
            "variables": list(self.system.var_names),
            "metadata": self.system.metadata,
            "gamma": [self.gamma.real, self.gamma.imag],
            "seed": self.options.rng_seed,
            # trace recording is an execution knob, kept out of the artifact
            "options": {k: v for k, v in asdict(self.options).items()
                        if k != "record_trace"},
            "degrees": [int(d) for d in self.system.degrees()],
            "bound_used": self.n_paths,
            "n_paths": self.n_paths,
            "status_counts": self.status_counts(),
            "solutions": [
                {
                    "x": [[float(v.real), float(v.imag)] for v in s.x],
                    "path": s.path_index,
                    "multiplicity": s.multiplicity,
                    "is_real": s.is_real,
                    "residual": float(s.residual),
                    "energy": (None if s.energy is None
                               else [s.energy.real, s.energy.imag]),
                }
                for s in self.solutions
            ],
        }


def gamma_from_seed(seed: int) -> complex:
    """Deterministic random point on the unit circle."""
    u = np.random.default_rng(seed).uniform()
    return complex(np.exp(2j * np.pi * u))


def start_root(degrees, path_index: int) -> np.ndarray:
    """Root of the total-degree start system for one path, mixed-radix order."""
    x = np.empty(len(degrees), dtype=complex)
    p = path_index
    for i, d in enumerate(degrees):
        p, r = divmod(p, d)
        x[i] = np.exp(2j * np.pi * r / d)
    return x


def linear_homotopy(table: tuple, c0: np.ndarray, c1: np.ndarray):
    """`homotopy(x, s)` for H = ((1 - s) C0 + s C1) m(x), m(x) the monomials of
    `table`, C0 and C1 one row per output: n values, then J row-major.  The
    matrix of one s, with dH/ds = (C1 - C0) m(x) as extra rows, is formed once,
    adding s C1 where it is nonzero: one product then gives H, J and dH/ds."""
    nn, n = len(c0), math.isqrt(len(c0))        # n + n^2 rows
    combined = np.vstack((c0, (c1 - c0)[:n]))       # rows contiguous, rewritten per s
    nonzero = np.flatnonzero(np.vstack((c1, np.zeros((n, c1.shape[1])))))
    c1_nonzero, at = c1[c1 != 0], [None]        # at: the s that `combined` holds
    power, factors = table
    combined_t = combined.T

    def homotopy(x, s):             # x complex; `_monomials` of one point inlined
        if at[0] != s:
            np.multiply(c0, 1.0 - s, out=combined[:nn])
            combined.reshape(-1)[nonzero] += s * c1_nonzero
            at[0] = s
        out = (x ** power).reshape(-1)[factors].prod(axis=-1) @ combined_t
        return out[:n], out[n:nn].reshape(n, n), out[nn:]

    return homotopy


def _max_abs(v) -> float:
    """`float(np.abs(v).max(initial=0.0))` in fewer numpy calls, NaN included:
    a sum of |v_i|, each non-negative, inf or NaN, is NaN exactly when one is."""
    a = np.abs(v).tolist()
    total = sum(a)
    return total if total != total else max(a, default=0.0)


def newton(fun_and_jac, x, tol: float, max_iters: int):
    """Newton's method on r(x) = 0; returns (x, converged, iterations, residual).

    `fun_and_jac(x)` returns (r, J), J = dr/dx, from one evaluation.
    Converged means max|r(x)| <= tol * max(1, max|x|); zero iterations are
    taken when x already satisfies it.  A singular Jacobian falls back to a
    least-squares step; a non-finite step stops the iteration unconverged.
    """
    x = np.asarray(x, dtype=complex).copy()
    for it in range(max_iters + 1):
        r, J = fun_and_jac(x)
        if (res := _max_abs(r)) <= tol * max(1.0, _max_abs(x)):
            return x, True, it, res
        if it == max_iters:
            break
        try:
            delta = np.linalg.solve(J, r)
        except np.linalg.LinAlgError:
            delta = np.linalg.lstsq(J, r, rcond=None)[0]
        if not np.isfinite(delta).all():
            break
        x = x - delta
    return x, False, it, res


def newton_refine(system: PolynomialSystem, x, tol: float = 1e-12,
                  max_iters: int = 50):
    """Polish x against the system; returns (x, converged, iterations, residual).

    Near a multiple root convergence is linear, hence the generous budget.
    """
    return newton(system.evaluate_and_jacobian, x, tol, max_iters)


def _continue(homotopy, x, s0: float, s1: float, options: TrackOptions,
              clamp=None, on_accept=None, stop_within: float = 0.0):
    """Predictor-corrector continuation of H(x, s) = 0 from s0 toward s1.

    `homotopy(x, s)` returns (H, J, dH/ds), J = dH/dx, from one evaluation.
    A step is an Euler predictor on the Davidenko equation J dx/ds = -dH/ds,
    whose tangent is solved once per point (a rejected step retries from the
    same one), then at most `corrector_max_iters` Newton corrections at the
    new s; it is accepted once a correction falls below `corrector_tol`.  The
    step grows by 1.5 (up to `step_max`) after three accepted steps in a row
    and halves on a rejection.  `clamp(s, ds)` may shorten a proposed step
    length, and `on_accept(s, x)` sees every accepted point.  Returns (outcome,
    x, s, steps): outcome is "reached" once |s1 - s| <= stop_within, "stalled"
    when the step falls below `step_min`, "max_steps" or "diverged" (max|x|
    above `divergence_norm`); steps counts the attempted steps.
    """
    solve, tol, iters = np.linalg.solve, options.corrector_tol, options.corrector_max_iters
    step_min, step_max, max_steps = options.step_min, options.step_max, options.max_steps
    down, s, step, successes, steps = s1 < s0, s0, options.step_init, 0, 0
    x_max, tangent = _max_abs(x), None      # tangent: -dx/ds at (x, s), solved on first use
    while abs(s1 - s) > stop_within:
        steps += 1
        if steps > max_steps:
            return "max_steps", x, s, steps
        ds = min(step, s - s1) if down else step
        ds = ds if clamp is None else clamp(s, ds)
        s_next = s - ds if down else min(s + ds, s1)
        ok = False
        try:
            if tangent is None:
                _, J, dh = homotopy(x, s)
                tangent = solve(J, dh)
            xc = x - tangent * (s_next - s)
            for _ in range(iters):
                h, J, _ = homotopy(xc, s_next)
                delta = solve(J, h)
                xc = xc - delta
                xc_max = _max_abs(xc)
                if ok := _max_abs(delta) <= tol * max(1.0, xc_max):
                    break
        except np.linalg.LinAlgError:
            ok = False
        # max|xc| is finite only when xc is; |xc_i| may overflow for finite xc_i
        if ok and (math.isfinite(xc_max) or np.isfinite(xc).all()):
            x, s, x_max, tangent = xc, s_next, xc_max, None
            if on_accept is not None:
                on_accept(s, x)
            successes += 1
            if successes >= 3:
                step, successes = min(step * 1.5, step_max), 0
        else:
            step, successes = step * 0.5, 0
            if step < step_min:
                return "stalled", x, s, steps
        if x_max > options.divergence_norm:
            return "diverged", x, s, steps
    return "reached", x, s, steps


def track_path(system: PolynomialSystem, degrees: np.ndarray, path_index: int,
               gamma: complex, options: TrackOptions) -> PathResult:
    """Track one start root from lam = 1 to 0 and polish the endpoint."""
    x = start_root(degrees, path_index)
    trace = [(1.0, x.copy())] if options.record_trace else None
    norm_at_endgame = None
    table, c_f, c_g = system.total_degree_table(degrees)
    homotopy = linear_homotopy(table, c_f, gamma * c_g)

    def clamp(lam, dlam):
        if lam <= options.endgame_start:
            return min(dlam, lam * (1.0 - options.endgame_factor))
        if lam - dlam < options.endgame_start:
            # never leap over the endgame region: land on its boundary so the
            # geometric shrink above takes over (a single stride to lam = 0
            # degenerates into an unguided Newton run on the target system,
            # which can hop between basins)
            return lam - options.endgame_start
        return dlam

    def on_accept(lam, xv):
        nonlocal norm_at_endgame
        if trace is not None:
            trace.append((lam, xv.copy()))
        if norm_at_endgame is None and lam <= options.endgame_start:
            norm_at_endgame = float(np.abs(xv).max())

    outcome, x, lam, n_steps = _continue(homotopy, x, 1.0, 0.0, options,
                                         clamp, on_accept, options.endpoint_lambda)
    # paths escaping to infinity grow like a (possibly small) negative power
    # of lam, so a hard norm threshold alone cannot classify them; sustained
    # growth across the endgame's thousandfold lam reduction is the reliable sign
    nx = float(np.abs(x).max())
    escaped = nx > options.at_infinity_norm or (
        norm_at_endgame is not None and nx > options.endgame_growth * max(1.0, norm_at_endgame))
    if outcome == "diverged" or escaped:
        return PathResult(path_index, "diverged", x, lam, n_steps, math.inf, trace)
    # near-singular endings (multiple roots) stall the fixed corrector budget
    # inside the endgame; the endpoint polish decides whether the path arrived
    from_stall = outcome == "stalled"
    if outcome == "max_steps" or (from_stall and lam > options.endgame_start):
        return PathResult(path_index, "failed", x, lam, n_steps, math.inf, trace)
    x_before = x
    x, converged, _, res = newton_refine(system, x, options.refine_tol,
                                         options.refine_max_iters)
    if not np.all(np.isfinite(x)) or float(np.abs(x).max()) > options.divergence_norm:
        return PathResult(path_index, "diverged", x, lam, n_steps, math.inf, trace)
    if from_stall and converged:
        # a stalled path is only polished in place; a polish that travels
        # a macroscopic distance has jumped into another path's basin and
        # must not claim that root (it would inflate its multiplicity)
        moved = float(np.abs(x - x_before).max())
        if moved > 0.05 * max(1.0, float(np.abs(x_before).max())):
            converged = False
    status = "converged" if converged else "failed"
    if trace is not None:
        if trace[-1][0] == 0.0:
            trace.pop()
        trace.append((0.0, x.copy()))
    return PathResult(path_index, status, x, lam, n_steps, res, trace)


def _solution_sort_key(sol: Solution):
    return tuple(v for xi in sol.x for v in (round(xi.real, 8), round(xi.imag, 8)))


def solve_all(system: PolynomialSystem, options: TrackOptions | None = None) -> SolutionSet:
    """Track every total-degree path of the system and merge the endpoints.

    The number of paths is the product of the actual equation degrees.  Every
    path is accounted for: converged endpoints are deduplicated within
    `dedupe_radius` (max norm); non-representative members of a cluster are
    relabelled "clustered" and counted in the representative's multiplicity.
    Paths are tracked serially, so results are deterministic for a fixed seed.
    """
    if system.n_vars == 0:
        raise ValueError("system has no variables")
    options = options or TrackOptions()
    degrees = np.array(system.degrees(), dtype=np.int64)
    if system.n_eqs != system.n_vars:
        raise ValueError(
            f"square system required: {system.n_eqs} equations, {system.n_vars} variables")
    if np.any(degrees < 1):
        raise ValueError("every equation must have degree >= 1 for a total-degree start")
    n_paths = int(np.prod([int(d) for d in degrees], dtype=object))
    if n_paths > _MAX_PATHS:
        raise PathBudgetError(
            f"{n_paths} start paths exceed the tracking budget {_MAX_PATHS}")
    energy = None                   # the energy, compiled like the equations
    if "energy" in system.metadata:
        energy = PolynomialSystem([poly_from_json_terms(system.metadata["energy"],
                                                        system.var_names)], system.var_names)
    gamma = gamma_from_seed(options.rng_seed)
    paths = [track_path(system, degrees, i, gamma, options) for i in range(n_paths)]

    solutions = []
    for p in paths:
        if p.status != "converged":
            continue
        for s in solutions:
            if float(np.abs(p.x - s.x).max()) < options.dedupe_radius:
                s.multiplicity += 1
                p.status = "clustered"
                break
        else:
            en = None if energy is None else complex(energy.evaluate(p.x)[0])
            solutions.append(Solution(
                x=p.x.copy(), path_index=p.index, multiplicity=1,
                is_real=bool(np.abs(p.x.imag).max() < options.real_tol),
                residual=p.residual, energy=en))
    solutions.sort(key=_solution_sort_key)
    return SolutionSet(system, options, gamma, n_paths, paths, solutions)
