"""Total-degree homotopy continuation: completeness, accounting, determinism.

Oracles:
  * scalar polynomials with known root sets (cube roots of unity, double
    roots),
  * the hand-eliminated Hubbard dimer roots (three isolated solutions),
  * a vectorized multistart Newton sweep, which must not find any root the
    continuation missed.
"""

import dataclasses
import json

import numpy as np
import pytest

from ccroots import cli, tracker
from ccroots.ccpoly import Polynomial, PolynomialSystem, cc_system_for_rank, quadratize
from ccroots.model import build_hubbard, build_pairing
from ccroots.tracker import (
    PathBudgetError,
    TrackOptions,
    _continue,
    gamma_from_seed,
    newton,
    newton_refine,
    solve_all,
    start_root,
)

SQRT2 = np.sqrt(2.0)
SQRT5 = np.sqrt(5.0)

DIMER_ROOTS = [
    np.array([-1.0 - SQRT2, 1.0 + SQRT2, -2.0 - 2.0 * SQRT2]),
    np.array([0.0, 0.0, -1.0]),
    np.array([-1.0 + SQRT2, 1.0 - SQRT2, -2.0 + 2.0 * SQRT2]),
]
DIMER_ENERGIES = [2.0 - 2.0 * SQRT2, 4.0, 2.0 + 2.0 * SQRT2]


def scalar_system(coeff_by_power, name="z"):
    terms = {}
    for power, c in coeff_by_power.items():
        key = () if power == 0 else ((0, power),)
        terms[key] = complex(c)
    return PolynomialSystem([Polynomial(terms)], [name])


def dimer_system():
    return cc_system_for_rank(build_hubbard(2, 1.0, 4.0, 1, 1), 2).polynomials


# --- start system machinery ---------------------------------------------------

def test_gamma_from_seed():
    g = gamma_from_seed(7)
    assert g == gamma_from_seed(7)
    assert abs(abs(g) - 1.0) < 1e-15
    assert gamma_from_seed(7) != gamma_from_seed(8)


def test_start_roots_mixed_radix():
    degrees = np.array([2, 3])
    roots = [start_root(degrees, i) for i in range(6)]
    for x in roots:
        np.testing.assert_allclose(x ** degrees, 1.0, atol=1e-14)
    # all distinct
    for i in range(6):
        for j in range(i + 1, 6):
            assert np.abs(roots[i] - roots[j]).max() > 0.5
    # index 0 is the all-ones corner
    np.testing.assert_allclose(roots[0], [1.0, 1.0], atol=1e-15)


def counting(monkeypatch, obj, names):
    """Replace obj's named callables by wrappers that log each call's name."""
    calls = []
    for name in names:
        def wrapped(*args, _fn=getattr(obj, name), _name=name):
            calls.append(_name)
            return _fn(*args)
        monkeypatch.setattr(obj, name, wrapped)
    return calls


def test_newton_refine_basics(monkeypatch):
    sys_ = scalar_system({2: 1.0, 0: -2.0})          # z^2 - 2
    calls = counting(monkeypatch, sys_, ["evaluate", "jacobian", "evaluate_and_jacobian"])
    x, ok, iters, res = newton_refine(sys_, [np.sqrt(2.0)])
    assert ok and iters == 0
    assert calls == ["evaluate_and_jacobian"]
    calls.clear()
    x, ok, iters, res = newton_refine(sys_, [1.3])
    assert ok
    assert x[0] == pytest.approx(np.sqrt(2.0), abs=1e-12)
    assert res < 1e-12
    # one fused evaluation per iteration plus the final convergence test
    assert iters > 0 and calls == ["evaluate_and_jacobian"] * (iters + 1)


# --- scalar homotopies ----------------------------------------------------------

def test_cube_roots_of_unity():
    result = solve_all(scalar_system({3: 1.0, 0: -1.0}), TrackOptions(rng_seed=3))
    assert result.n_paths == 3
    assert result.status_counts()["converged"] == 3
    key = lambda z: (round(z.real, 9), z.imag)
    got = sorted((complex(s.x[0]) for s in result.solutions), key=key)
    want = sorted((np.exp(2j * np.pi * k / 3) for k in range(3)), key=key)
    for g, w in zip(got, want):
        assert abs(g - w) < 1e-12


def test_double_root_clusters():
    # (z - 1)^2: both paths end at the same point; one representative with
    # multiplicity two, the other path labelled clustered
    opts = TrackOptions(rng_seed=1, dedupe_radius=1e-4)
    result = solve_all(scalar_system({2: 1.0, 1: -2.0, 0: 1.0}), opts)
    assert result.n_paths == 2
    counts = result.status_counts()
    assert counts["converged"] == 1 and counts["clustered"] == 1
    assert len(result.solutions) == 1
    sol = result.solutions[0]
    assert sol.multiplicity == 2
    assert abs(sol.x[0] - 1.0) < 1e-4


def test_unreachable_far_constant_gives_no_roots():
    # z^2 + 1e10 = 0 has roots at |z| = 1e5, beyond the at-infinity horizon;
    # no path converges (a CLI solve of this file exits with the
    # no-convergence code)
    result = solve_all(scalar_system({2: 1.0, 0: 1e10}), TrackOptions(rng_seed=0))
    assert result.status_counts()["converged"] == 0
    assert len(result.solutions) == 0


def test_statuses_partition_paths():
    for sys_, seed in ((scalar_system({3: 1.0, 0: -1.0}), 0),
                       (dimer_system(), 11),
                       (quadratize(cc_system_for_rank(
                           build_hubbard(2, 1.0, 4.0, 1, 1), 2)), 5)):
        result = solve_all(sys_, TrackOptions(rng_seed=seed))
        counts = result.status_counts()
        assert sum(counts.values()) == result.n_paths == len(result.paths)


# --- the compiled homotopy against the closure it replaced ------------------------

def reference_homotopy(system, degrees, gamma):
    """H = (1 - lam) F + gamma lam G, G_i = x_i^{d_i} - 1, from F and J and
    the start system's algebra, as track_path formed it before the table."""
    diag = np.arange(0, degrees.size ** 2, degrees.size + 1)
    lowered = degrees - 1

    def homotopy(xv, lv):
        f, J = system.evaluate_and_jacobian(xv)
        g = xv ** degrees - 1.0
        J = (1.0 - lv) * J
        J.flat[diag] += gamma * lv * (degrees * xv ** lowered)
        return (1.0 - lv) * f + gamma * lv * g, J, gamma * g - f

    return homotopy


def table_homotopy(system, degrees, gamma):
    table, c_f, c_g = system.total_degree_table(degrees)
    return tracker.linear_homotopy(table, c_f, gamma * c_g)


HOMOTOPY_SYSTEMS = {
    "cube": lambda: scalar_system({3: 1.0, 0: -1.0}),
    "dimer": dimer_system,
    "hubbard3": lambda: cc_system_for_rank(build_hubbard(3, 1.0, 4.0, 1, 1), 2).polynomials,
    # x0 + 2 x1 - 1 is of degree one, so its start equation is x0 - 1
    "degree_one": lambda: PolynomialSystem(
        [Polynomial({((0, 1),): 1.0, ((1, 1),): 2.0, (): -1.0}),
         Polynomial({((0, 1), (1, 1)): 3.0 - 1j, ((1, 1),): 0.5})], ["a", "b"]),
    # neither equation holds a pure power x_i^{d_i}
    "no_pure_power": lambda: PolynomialSystem(
        [Polynomial({((0, 1), (1, 2)): 1.5, ((0, 1),): -1.0}),
         Polynomial({((0, 1), (1, 1)): 2.0j, (): 0.25})], ["a", "b"]),
}


@pytest.mark.parametrize("name", sorted(HOMOTOPY_SYSTEMS))
def test_table_homotopy_matches_reference_closure(name):
    sys_ = HOMOTOPY_SYSTEMS[name]()
    degrees = np.array(sys_.degrees(), dtype=np.int64)
    rng = np.random.default_rng(sorted(HOMOTOPY_SYSTEMS).index(name))
    for _ in range(5):
        gamma = complex(np.exp(2j * np.pi * rng.uniform()))
        got_h = table_homotopy(sys_, degrees, gamma)
        want_h = reference_homotopy(sys_, degrees, gamma)
        a, b = rng.uniform(size=2)
        # as the tracker visits them: repeated, revisited and end values of lam
        for lam in (1.0, a, a, b, a, 0.0, 1.0):
            x = rng.standard_normal(sys_.n_vars) + 1j * rng.standard_normal(sys_.n_vars)
            for g, w in zip(got_h(x, lam), want_h(x, lam)):
                assert g.shape == w.shape
                assert np.abs(g - w).max() <= 1e-12 * max(1.0, np.abs(w).max())


def test_table_is_built_once_per_system_and_degrees():
    sys_ = dimer_system()
    first = sys_.total_degree_table([2, 2, 2])
    assert sys_.total_degree_table(np.array([2, 2, 2])) is first
    assert dimer_system().total_degree_table([2, 2, 2]) is not first
    # other start degrees give another start system
    degrees = np.array([3, 2, 2])
    assert sys_.total_degree_table(degrees) is not first
    x = np.array([0.3 + 0.1j, -0.2, 1.1j])
    for g, w in zip(table_homotopy(sys_, degrees, 1j)(x, 0.5),
                    reference_homotopy(sys_, degrees, 1j)(x, 0.5)):
        assert np.abs(g - w).max() <= 1e-12 * max(1.0, np.abs(w).max())


@pytest.mark.parametrize("system, rank, counts", [
    ((2, 1.0, 4.0, 1, 1), 2, {"converged": 3, "clustered": 0, "diverged": 5, "failed": 0}),
    ((3, 1.0, 0.5, 1), 1, {"converged": 9, "clustered": 0, "diverged": 44, "failed": 28}),
])
def test_status_counts_pinned(system, rank, counts):
    model = build_hubbard(*system) if len(system) == 5 else build_pairing(*system)
    result = solve_all(cc_system_for_rank(model, rank).polynomials, TrackOptions(rng_seed=0))
    assert result.status_counts() == counts


# --- the dimer: all roots, found and accounted -----------------------------------

def test_dimer_all_three_roots():
    result = solve_all(dimer_system(), TrackOptions(rng_seed=0))
    assert result.n_paths == 8                     # degrees [2, 2, 2]
    assert len(result.solutions) == 3
    for sol, want, energy in zip(result.solutions, DIMER_ROOTS, DIMER_ENERGIES):
        np.testing.assert_allclose(sol.x, want, atol=1e-8)
        assert sol.is_real
        assert sol.multiplicity == 1
        assert sol.energy == pytest.approx(energy, abs=1e-10)
        assert sol.residual < 1e-10


def test_dimer_quadratized_sixteen_paths():
    cc = cc_system_for_rank(build_hubbard(2, 1.0, 4.0, 1, 1), 2)
    result = solve_all(quadratize(cc), TrackOptions(rng_seed=0))
    assert result.n_paths == 16                    # 2^(n_s + 2 n_d)
    assert len(result.solutions) == 3
    for sol, want in zip(result.solutions, DIMER_ROOTS):
        np.testing.assert_allclose(sol.x[:3], want, atol=1e-8)
        # the auxiliary equals the pair minor t1*t2 on every root
        assert sol.x[3] == pytest.approx(sol.x[0] * sol.x[1], abs=1e-8)


def test_pairing_two_level_roots():
    cc = cc_system_for_rank(build_pairing(2, 1.0, 0.5, 1), 2)
    result = solve_all(cc.polynomials, TrackOptions(rng_seed=0))
    assert result.n_paths == 36                    # degrees [3, 3, 4]
    assert len(result.solutions) == 2
    roots = sorted(float(s.x[2].real) for s in result.solutions)
    np.testing.assert_allclose(roots, [-2.0 - SQRT5, -2.0 + SQRT5], atol=1e-8)
    for s in result.solutions:
        np.testing.assert_allclose(np.abs(s.x[:2]), 0, atol=1e-8)
    energies = sorted(s.energy.real for s in result.solutions)
    np.testing.assert_allclose(energies, [(1 - SQRT5) / 2, (1 + SQRT5) / 2],
                               atol=1e-8)


def test_multistart_newton_finds_nothing_extra():
    # vectorized Newton from 2000 Gaussian complex starts; every converged
    # endpoint must coincide with a continuation root
    sys_ = dimer_system()
    rng = np.random.default_rng(123)
    x = rng.standard_normal((2000, 3)) + 1j * rng.standard_normal((2000, 3))
    x *= 2.0
    for _ in range(60):
        r = sys_.evaluate(x)
        J = sys_.jacobian(x)
        try:
            delta = np.linalg.solve(J, -r[..., None])[..., 0]
        except np.linalg.LinAlgError:
            break
        bad = ~np.isfinite(delta).all(axis=-1)
        delta[bad] = 0
        x = x + delta
    res = np.abs(sys_.evaluate(x)).max(axis=-1)
    hits = x[res < 1e-10]
    continuation = solve_all(sys_, TrackOptions(rng_seed=0)).solutions
    for point in hits:
        dists = [np.abs(point - s.x).max() for s in continuation]
        assert min(dists) < 1e-6



def test_newton_singular_jacobian_takes_least_squares_step():
    # x^2 - 2 from x = 0: the Jacobian 2x vanishes, the least-squares step is
    # zero, and the budget runs out at the start point
    x, ok, iters, res = newton(lambda x: (x ** 2 - 2.0, np.diag(2.0 * x)),
                               [0.0], 1e-12, 5)
    assert not ok and iters == 5
    assert x[0] == 0.0 and res == 2.0


def test_newton_stops_on_non_finite_step():
    # a subnormal Jacobian overflows the step to infinity
    x, ok, iters, res = newton(lambda x: (x ** 2 - 2.0, np.array([[1e-310]])),
                               [0.0], 1e-12, 5)
    assert not ok and iters == 0
    assert x[0] == 0.0 and res == 2.0


def _sqrt_homotopy(x, s):
    # H(x, s) = x^2 - (1 + s): J = 2x and dH/ds = -1
    return x ** 2 - (1.0 + s), np.diag(2.0 * x), -np.ones(1, dtype=complex)


@pytest.mark.parametrize("s0, s1, x0, want", [(0.0, 1.0, 1.0, SQRT2),
                                              (1.0, 0.0, SQRT2, 1.0)])
def test_continue_both_directions(monkeypatch, s0, s1, x0, want):
    accepted = []
    solves = counting(monkeypatch, np.linalg, ["solve"])
    homotopy_calls = []

    def homotopy(x, s):
        homotopy_calls.append(s)
        return _sqrt_homotopy(x, s)

    outcome, x, s, steps = _continue(
        homotopy, np.array([x0], dtype=complex), s0, s1, TrackOptions(),
        on_accept=lambda s, x: accepted.append(s))
    # one homotopy call per linear solve: the predictor and each corrector iteration
    assert len(homotopy_calls) == len(solves) >= 2 * steps
    assert outcome == "reached" and s == s1
    assert x[0] == pytest.approx(want, abs=1e-10)
    sign = 1.0 if s1 > s0 else -1.0
    assert all(sign * (b - a) > 0 for a, b in zip([s0] + accepted, accepted))
    assert accepted[-1] == s1 and steps >= len(accepted)


def test_continue_step_budget_and_clamp():
    x0 = np.array([1.0], dtype=complex)
    outcome, _, s, steps = _continue(_sqrt_homotopy, x0, 0.0, 1.0,
                                     TrackOptions(max_steps=3))
    assert outcome == "max_steps" and steps == 4 and 0.0 < s < 1.0
    accepted = []
    outcome, _, _, _ = _continue(_sqrt_homotopy, x0, 0.0, 1.0, TrackOptions(),
                                 clamp=lambda s, ds: min(ds, 0.01),
                                 on_accept=lambda s, x: accepted.append(s))
    assert outcome == "reached" and len(accepted) >= 100

# --- the continuation core against the one it replaced ---------------------------

def reference_continue(homotopy, x, s0, s1, options, clamp=None, on_accept=None,
                       stop_within=0.0):
    """The core as it was before the tangent was reused: every attempted step
    solves its own predictor tangent, and h and dH/ds are negated before the
    solve."""
    down = s1 < s0
    s = s0
    step = options.step_init
    successes = 0
    steps = 0
    while abs(s1 - s) > stop_within:
        steps += 1
        if steps > options.max_steps:
            return "max_steps", x, s, steps
        ds = min(step, s - s1) if down else step
        if clamp is not None:
            ds = clamp(s, ds)
        s_next = s - ds if down else min(s + ds, s1)
        ok = False
        try:
            _, J, dh = homotopy(x, s)
            xc = x + np.linalg.solve(J, -dh) * (s_next - s)
            for _ in range(options.corrector_max_iters):
                h, J, _ = homotopy(xc, s_next)
                delta = np.linalg.solve(J, -h)
                xc = xc + delta
                if float(np.abs(delta).max(initial=0.0)) <= options.corrector_tol * max(
                        1.0, float(np.abs(xc).max(initial=0.0))):
                    ok = True
                    break
        except np.linalg.LinAlgError:
            ok = False
        if ok and np.all(np.isfinite(xc)):
            x, s = xc, s_next
            if on_accept is not None:
                on_accept(s, x)
            successes += 1
            if successes >= 3:
                step = min(step * 1.5, options.step_max)
                successes = 0
        else:
            step *= 0.5
            successes = 0
            if step < options.step_min:
                return "stalled", x, s, steps
        if float(np.abs(x).max(initial=0.0)) > options.divergence_norm:
            return "diverged", x, s, steps
    return "reached", x, s, steps


def recorded_track_path(monkeypatch, core, system, index, options):
    """track_path on the given core; returns the path and the core's record:
    its result, its homotopy calls, and how many of them solved a tangent at
    a point already tangent-solved (a retry after a rejection)."""
    record = {}

    def recorded(homotopy, x, s0, s1, opts, clamp=None, on_accept=None, stop_within=0.0):
        calls, tangents, at = [0], [], [s0]

        def counted(xv, s):
            calls[0] += 1
            if s == at[0]:              # corrector calls never sit at the current s
                tangents.append(s)
            return homotopy(xv, s)

        def accept(s, xv):
            at[0] = s
            on_accept(s, xv)

        out = core(counted, x, s0, s1, opts, clamp, accept, stop_within)
        record.update(out=out, calls=calls[0], repeats=len(tangents) - len(set(tangents)))
        return out

    monkeypatch.setattr(tracker, "_continue", recorded)
    degrees = np.array(system.degrees(), dtype=np.int64)
    path = tracker.track_path(system, degrees, index, gamma_from_seed(options.rng_seed),
                              options)
    return path, record


CORE_SYSTEMS = {   # every outcome with rejections: reached, stalled, diverged, max_steps
    "hubbard2": (lambda: cc_system_for_rank(build_hubbard(2, 1.0, 4.0, 1, 1), 2).polynomials,
                 range(8), TrackOptions(rng_seed=0)),
    "hubbard2_budget": (lambda: cc_system_for_rank(
        build_hubbard(2, 1.0, 4.0, 1, 1), 2).polynomials, range(8),
        TrackOptions(rng_seed=3, max_steps=25)),
    "hubbard3": (lambda: cc_system_for_rank(build_hubbard(3, 1.0, 4.0, 1, 1), 2).polynomials,
                 range(0, 256, 16), TrackOptions(rng_seed=0)),
    "pairing3_rank1": (lambda: cc_system_for_rank(build_pairing(3, 1.0, 0.5, 1), 1).polynomials,
                       range(0, 81, 9), TrackOptions(rng_seed=0)),
}


@pytest.mark.parametrize("name", sorted(CORE_SYSTEMS))
def test_continue_matches_reference_bit_for_bit(monkeypatch, name):
    make, indices, options = CORE_SYSTEMS[name]
    system = make()
    outcomes, saved = set(), 0
    for index in indices:
        want, ref = recorded_track_path(monkeypatch, reference_continue, system, index, options)
        got, new = recorded_track_path(monkeypatch, _continue, system, index, options)
        (w_out, w_x, w_s, w_steps), (g_out, g_x, g_s, g_steps) = ref["out"], new["out"]
        assert (g_out, g_s, g_steps) == (w_out, w_s, w_steps)
        assert g_x.tobytes() == w_x.tobytes()
        assert (got.status, got.steps, got.lambda_reached) == (
            want.status, want.steps, want.lambda_reached)
        assert got.x.tobytes() == want.x.tobytes()
        assert got.residual == want.residual or np.isnan(got.residual) and np.isnan(
            want.residual)
        # one homotopy call fewer for every step retried from the same point
        assert new["repeats"] == 0
        assert new["calls"] == ref["calls"] - ref["repeats"]
        outcomes.add(w_out)
        saved += ref["repeats"]
    assert saved > 0
    assert outcomes >= ({"max_steps"} if name.endswith("budget") else {"stalled", "diverged"})


def test_solve_all_on_the_reference_core_writes_the_same_artifact(monkeypatch):
    system = cc_system_for_rank(build_hubbard(2, 1.0, 4.0, 1, 1), 2).polynomials
    got = json.dumps(solve_all(system, TrackOptions(rng_seed=5)).to_dict())
    monkeypatch.setattr(tracker, "_continue", reference_continue)
    assert got == json.dumps(solve_all(system, TrackOptions(rng_seed=5)).to_dict())


def test_max_abs_is_numpys_max_including_nan_and_overflow():
    rng = np.random.default_rng(11)
    specials = [np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, 1.7e308]
    cases = [np.zeros(0, dtype=complex), np.array([complex(1.7e308, 1.7e308)]),
             np.array([complex(np.nan, np.inf), 1.0]), np.array([2.0, np.nan])]
    for _ in range(3000):
        n = int(rng.integers(1, 9))
        parts = rng.standard_normal((2, n)) * 10.0 ** rng.integers(-300, 300, (2, n))
        mask = rng.random((2, n)) < 0.15
        parts[mask] = rng.choice(specials, size=int(mask.sum()))
        cases.append(parts[0] + 0j)
        cases[-1].imag = parts[1]
    for v in cases:
        with np.errstate(all="ignore"):
            want = float(np.abs(v).max(initial=0.0))
            got = tracker._max_abs(v)
        assert type(got) is float
        assert got == want or (np.isnan(got) and np.isnan(want)), v


# --- determinism ------------------------------------------------------------------

def test_bitwise_determinism_and_worker_independence():
    sys_ = dimer_system()
    a = solve_all(sys_, TrackOptions(rng_seed=42))
    b = solve_all(sys_, TrackOptions(rng_seed=42))
    c = solve_all(sys_, TrackOptions(rng_seed=42))
    text_a = json.dumps(a.to_dict(), sort_keys=True)
    assert text_a == json.dumps(b.to_dict(), sort_keys=True)
    assert text_a == json.dumps(c.to_dict(), sort_keys=True)
    # trace recording is an execution knob, not part of the artifact
    d = solve_all(sys_, TrackOptions(rng_seed=42, record_trace=True))
    assert text_a == json.dumps(d.to_dict(), sort_keys=True)


def test_seed_changes_gamma_not_roots():
    sys_ = dimer_system()
    a = solve_all(sys_, TrackOptions(rng_seed=0))
    b = solve_all(sys_, TrackOptions(rng_seed=987654321))
    assert a.gamma != b.gamma
    assert len(a.solutions) == len(b.solutions) == 3
    for sa, sb in zip(a.solutions, b.solutions):
        np.testing.assert_allclose(sa.x, sb.x, atol=1e-8)


# --- tracing and failure accounting ------------------------------------------------

def test_trace_recording():
    sys_ = scalar_system({3: 1.0, 0: -1.0})
    result = solve_all(sys_, TrackOptions(rng_seed=0, record_trace=True))
    for p in result.paths:
        assert p.trace is not None
        lams = [lam for lam, _ in p.trace]
        assert lams[0] == 1.0
        assert all(l2 < l1 for l1, l2 in zip(lams, lams[1:]))
        if p.status == "converged":
            assert lams[-1] == 0.0
            np.testing.assert_allclose(p.trace[-1][1], p.x, atol=1e-12)
    plain = solve_all(sys_, TrackOptions(rng_seed=0))
    assert all(p.trace is None for p in plain.paths)


def test_path_budget_guard():
    eqs = [Polynomial({((k, 2),): 1.0, (): -1.0}) for k in range(21)]
    sys_ = PolynomialSystem(eqs, [f"x{k}" for k in range(21)])
    with pytest.raises(PathBudgetError):
        solve_all(sys_)                            # 2^21 paths > budget


def test_square_system_required():
    eqs = [Polynomial({((0, 1),): 1.0})]
    with pytest.raises(ValueError):
        solve_all(PolynomialSystem(eqs, ["x", "y"]))


def test_degree_zero_equation_rejected():
    sys_ = PolynomialSystem([Polynomial({(): 1.0})], ["x"])
    with pytest.raises(ValueError):
        solve_all(sys_)


def test_solution_artifact_fields():
    result = solve_all(dimer_system(), TrackOptions(rng_seed=0))
    data = result.to_dict()
    assert data["n_paths"] == 8 and data["bound_used"] == 8
    assert data["degrees"] == [2, 2, 2]
    assert "workers" not in data["options"]
    assert "record_trace" not in data["options"]
    assert data["seed"] == 0
    assert len(data["solutions"]) == 3
    for entry in data["solutions"]:
        assert set(entry) == {"x", "path", "multiplicity", "is_real",
                              "residual", "energy"}


def test_unknown_energy_variable_fails_before_any_path(monkeypatch):
    # an energy polynomial in a variable the system lacks is rejected up
    # front, not after every path has been tracked
    calls = []
    monkeypatch.setattr(tracker, "track_path", lambda *a: calls.append(a))
    sys_ = scalar_system({2: 1.0, 0: -4.0}, name="x")
    sys_.metadata["energy"] = [[1.0, 0.0, {"y": 1}]]
    with pytest.raises(ValueError, match="unknown variables"):
        solve_all(sys_)
    assert calls == []


# --- the per-path contract that bench/layers.py traces through -------------------

def test_solve_all_calls_module_level_track_path_and_newton_refine(monkeypatch):
    track_calls, refine_calls = [], []
    track_path, refine = tracker.track_path, tracker.newton_refine

    def counting_track_path(*args, **kwargs):
        track_calls.append((args, kwargs))
        return track_path(*args, **kwargs)

    def counting_refine(*args, **kwargs):
        refine_calls.append(args)
        return refine(*args, **kwargs)

    monkeypatch.setattr(tracker, "track_path", counting_track_path)
    monkeypatch.setattr(tracker, "newton_refine", counting_refine)
    sys_ = dimer_system()
    options = TrackOptions(rng_seed=3)
    result = solve_all(sys_, options)
    assert len(track_calls) == result.n_paths == 8
    for index, (args, kwargs) in enumerate(track_calls):
        assert kwargs == {} and len(args) == 5
        system, degrees, path_index, gamma, opts = args
        assert system is sys_ and opts is options
        assert list(degrees) == [2, 2, 2]
        assert path_index == index and gamma == result.gamma
    assert 0 < len(refine_calls) <= result.n_paths
    assert all(a[0] is sys_ for a in refine_calls)


def test_record_trace_via_dataclasses_replace():
    sys_ = dimer_system()
    options = dataclasses.replace(TrackOptions(rng_seed=3), record_trace=True)
    for p in solve_all(sys_, options).paths:
        assert len(p.trace) >= 2 and p.steps >= len(p.trace) - 2
        for lam, x in p.trace:
            assert isinstance(lam, float) and x.shape == (sys_.n_vars,)


def test_cli_solve_accepts_workers_one(tmp_path):
    (tmp_path / "sys.json").write_text(dimer_system().to_json())
    rc = cli.main(["solve", "--system", str(tmp_path / "sys.json"), "--workers", "1",
                   "-o", str(tmp_path / "sol.json")])
    assert rc == 0
    assert json.loads((tmp_path / "sol.json").read_text())["n_paths"] == 8
