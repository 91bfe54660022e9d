"""Exact polynomial form of the projected amplitude equations.

Oracles:
  * the Hubbard dimer equations worked out by hand (three equations in
    (t1, t2, d) with integer coefficients),
  * the matrix route e^{-T} H e^{T} |ref> evaluated with explicit sparse
    exponentials, independent of the symbolic expansion,
  * a dense reference expansion, one full vector per monomial, that the
    generated systems must match byte for byte,
  * central finite differences for Jacobians.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from ccroots.ccpoly import (
    Polynomial,
    PolynomialSystem,
    QuadratizationError,
    Workspace,
    _PairBlocks,
    _apply_h,
    _h_rows,
    _merge,
    _poly_terms_for_json,
    cc_system_for_rank,
    generate_system,
    mono_degree,
    mono_mul,
    poly_from_json_terms,
    quadratize,
    root_bounds,
)
from ccroots.excitations import build_graph, excitation_matrix, full_rank
from ccroots.model import (assemble_hamiltonian, build_hubbard, build_pairing,
                           load_integrals)
from ccroots.oracle import cluster_from_ci, fci_solve, intermediately_normalizable

MODELS_DIR = Path(__file__).resolve().parents[1] / "demos" / "models"

SQRT2 = np.sqrt(2.0)


def dimer_cc():
    return cc_system_for_rank(build_hubbard(2, 1.0, 4.0, 1, 1), 2)


def random_amplitudes(rng, n, scale=0.6):
    return scale * (rng.standard_normal(n) + 1j * rng.standard_normal(n))


def poly_evaluate(poly, x) -> complex:
    """One polynomial at x by walking its terms: the compiled tables' oracle."""
    x = np.asarray(x)
    total = 0j
    for mono, c in poly.terms.items():
        p = c
        for v, e in mono:
            p = p * x[v] ** e
        total += p
    return total


def ad_power_applied(ws, t, order):
    """ad_T^order(H) |ref>, by explicit sparse commutators; vanishes for order > 4."""
    T = ws.t_operator(t)
    A = ws.H
    for _ in range(order):
        A = A @ T - T @ A
    return A @ ws.e0


# --- Polynomial basics -------------------------------------------------------

def test_polynomial_evaluate_and_diff():
    # p = 2 x0^2 x1 - 3 x1 + 1.5
    p = Polynomial({((0, 2), (1, 1)): 2.0, ((1, 1),): -3.0, (): 1.5})
    x = np.array([1.0 + 1.0j, 2.0 - 0.5j])
    expected = 2.0 * x[0] ** 2 * x[1] - 3.0 * x[1] + 1.5
    assert poly_evaluate(p, x) == pytest.approx(expected)
    dp0 = p.diff(0)
    assert poly_evaluate(dp0, x) == pytest.approx(4.0 * x[0] * x[1])
    dp1 = p.diff(1)
    assert poly_evaluate(dp1, x) == pytest.approx(2.0 * x[0] ** 2 - 3.0)
    assert p.degree() == 3


def test_polynomial_pruning():
    p = Polynomial({(): 1.0, ((0, 1),): 1e-20})
    assert p.pruned().terms == {(): 1.0}


def test_system_degrees_and_names():
    p = Polynomial({((0, 2), (1, 1)): 2.0, ((1, 1),): -3.0, (): 1.5})
    s = PolynomialSystem([p, Polynomial({((0, 1),): 1.0})], ["x", "y"])
    assert s.degrees() == [3, 1]
    assert s.n_vars == 2 and s.n_eqs == 2
    assert s.var_names == ["x", "y"]


def random_sparse_polynomial(rng, n_vars, n_terms, max_exp=4):
    terms = {((0, max_exp),): 1.0 - 0.5j}
    for _ in range(n_terms):
        exps = rng.integers(0, max_exp + 1, n_vars) * (rng.random(n_vars) < 0.4)
        mono = tuple((v, int(e)) for v, e in enumerate(exps) if e)
        terms[mono] = complex(rng.standard_normal(), rng.standard_normal())
    return Polynomial(terms)


@pytest.mark.parametrize("batch", [(), (5,), (3, 4)])
def test_compiled_evaluator_matches_per_term_reference(batch):
    # the compiled F and J against poly_evaluate and Polynomial.diff,
    # with one all-zero and one constant equation among random sparse ones
    rng = np.random.default_rng(7)
    n_vars = 5
    eqs = [random_sparse_polynomial(rng, n_vars, 8) for _ in range(3)]
    eqs += [Polynomial(), Polynomial({(): 2.5 - 1.0j})]
    system = PolynomialSystem(eqs, [f"x{v}" for v in range(n_vars)])
    x = 0.8 * random_amplitudes(rng, int(np.prod(batch)) * n_vars).reshape(batch + (n_vars,))

    f = system.evaluate(x)
    jac = system.jacobian(x)
    assert f.shape == batch + (len(eqs),)
    assert jac.shape == batch + (len(eqs), n_vars)
    f_ref = np.empty_like(f)
    jac_ref = np.empty_like(jac)
    for idx in np.ndindex(*batch):
        for j, eq in enumerate(eqs):
            f_ref[idx + (j,)] = poly_evaluate(eq, x[idx])
            for v in range(n_vars):
                jac_ref[idx + (j, v)] = poly_evaluate(eq.diff(v), x[idx])
    np.testing.assert_allclose(f, f_ref, rtol=1e-12, atol=1e-12 * np.abs(f_ref).max())
    np.testing.assert_allclose(jac, jac_ref, rtol=1e-12, atol=1e-12 * np.abs(jac_ref).max())
    assert not f[..., 3].any() and not jac[..., 3:, :].any()
    assert np.all(f[..., 4] == 2.5 - 1.0j)


@pytest.mark.parametrize("batch", [(), (5,), (3, 4)])
def test_fused_evaluator_matches_per_term_reference(batch):
    # F and J from one table pass, on random sparse equations and on
    # x0^3 + x1, whose Jacobian has the monomial x0^2 that F lacks
    rng = np.random.default_rng(11)
    n_vars = 4
    eqs = [random_sparse_polynomial(rng, n_vars, 6) for _ in range(2)]
    eqs += [Polynomial({((0, 3),): 1.0, ((1, 1),): 1.0}), Polynomial({(): -2.0})]
    system = PolynomialSystem(eqs, [f"x{v}" for v in range(n_vars)])
    x = 0.8 * random_amplitudes(rng, int(np.prod(batch)) * n_vars).reshape(batch + (n_vars,))

    f, jac = system.evaluate_and_jacobian(x)
    assert f.shape == batch + (len(eqs),)
    assert jac.shape == batch + (len(eqs), n_vars)
    for idx in np.ndindex(*batch):
        for j, eq in enumerate(eqs):
            assert f[idx + (j,)] == pytest.approx(poly_evaluate(eq, x[idx]), rel=1e-12, abs=1e-12)
            for v in range(n_vars):
                assert jac[idx + (j, v)] == pytest.approx(
                    poly_evaluate(eq.diff(v), x[idx]), rel=1e-12, abs=1e-12)
    np.testing.assert_allclose(jac[..., 2, 0], 3.0 * x[..., 0] ** 2, rtol=1e-14)
    np.testing.assert_array_equal(system.jacobian(x), jac)
    np.testing.assert_allclose(system.evaluate(x), f, rtol=1e-14, atol=1e-14)


# --- generation against a dense reference ----------------------------------------

def dense_generate(cc):
    """e^{-T} H e^{T}|ref> expanded on one dense vector per monomial, level by
    level, degree-capped at 4: (equations, energy) for cc's model and graph."""
    ws = cc.workspace

    def apply_level(level, k, sign):
        out = {}
        for mono, vec in level.items():
            if mono_degree(mono) >= 4:
                continue
            xv = ws.excite(vec)
            for nu in np.flatnonzero(xv.any(axis=1)):   # X_nu that do not annihilate vec
                m2, w = mono_mul(mono, ((int(nu), 1),)), (sign / k) * xv[nu]
                out[m2] = out[m2] + w if m2 in out else w
        return {m: v for m, v in out.items() if np.any(v)}

    def exp_series(level, sign):
        total = dict(level)
        k = 1
        while level:
            level = apply_level(level, k, sign)
            for m, v in level.items():
                total[m] = total.get(m, 0) + v
            k += 1
        return total

    psi = exp_series({(): ws.e0.copy()}, 1.0)
    out = exp_series({m: w for m, v in psi.items() if np.any(w := ws.H @ v)}, -1.0)
    rows = np.append(ws.target_idx, ws.ref_idx)
    terms = [{} for _ in rows]
    for m, v in out.items():
        vals = v[rows]
        for r in np.flatnonzero(vals):
            terms[r][m] = vals[r]
    *eqs, energy = (Polynomial(d).pruned() for d in terms)
    return eqs, energy


@pytest.mark.parametrize("make, rank", [
    (lambda: build_pairing(5, 1.0, 0.37, 2), 2),      # holds t_nu^2 terms
    (lambda: build_hubbard(5, 1.0, 4.0, 2, 2), 2),
    (lambda: build_pairing(5, 1.0, 0.4, 2), 3),
    (lambda: build_hubbard(3, 1.0, 4.0, 1, 1), None),
    (lambda: build_hubbard(3, 1.0, 4.0, 2, 1), None),
    (lambda: build_hubbard(3, 1.0, 4.0, 1, 1, reference=0b100100), None),   # non-aufbau
    (lambda: build_hubbard(4, 1.0, 4.0, 2, 2), None),
    (lambda: build_pairing(4, 1.0, 0.5, 2), None),
], ids=["pairing5-r2", "hubbard5-r2", "pairing5-r3", "hubbard3-11", "hubbard3-21",
        "hubbard3-11-nonaufbau", "hubbard4-22", "pairing4"])
def test_generation_matches_dense_reference(make, rank):
    model = make()
    cc = cc_system_for_rank(model, rank or full_rank(model))
    eqs, energy = dense_generate(cc)
    names = cc.polynomials.var_names
    dense = PolynomialSystem(eqs, names, dict(cc.polynomials.metadata,
                                              energy=_poly_terms_for_json(energy, names)))
    assert dense.to_json() == cc.polynomials.to_json()
    # same terms in the same order, so per-term sums agree too
    assert [list(eq.terms) for eq in eqs] == [list(eq.terms) for eq in cc.polynomials.equations]
    assert list(energy.terms) == list(cc.energy_poly.terms)


def test_generation_keeps_squared_amplitudes():
    cc = cc_system_for_rank(build_pairing(5, 1.0, 0.37, 2), 2)
    squares = sum(any(e == 2 for _, e in m) for eq in cc.polynomials.equations for m in eq.terms)
    assert squares == 144


def test_merge_folds_left_from_zero_in_first_occurrence_order():
    keys = np.array([7, 7, 7, 3, 7], dtype=np.uint64)
    rows = np.array([0, 0, 0, 1, 2])
    vals = np.array([1.0, 1e-16, 1e-16, complex(-0.0, 2.0), 0.0], dtype=complex)
    idx, total = _merge(keys, rows, vals)
    # ((0 + 1) + 1e-16) + 1e-16 is exactly 1; summing the tail first is not
    assert idx.tolist() == [0, 3] and total.tolist() == [1.0, 2j]
    assert not np.signbit(total[1].real)     # the leading 0 turns -0.0 into 0.0


# --- dimer equations by hand -------------------------------------------------

def test_dimer_equations_match_hand_derivation():
    cc = dimer_cc()
    sys_ = cc.polynomials
    assert sys_.var_names == ["t[0->2]", "t[1->3]", "t[0,1->2,3]"]
    # variables: 0 = t1, 1 = t2, 2 = d
    expected = [
        {(): 1.0, ((0, 1),): -4.0, ((0, 2),): -1.0, ((2, 1),): 1.0},
        {(): -1.0, ((1, 1),): -4.0, ((1, 2),): 1.0, ((2, 1),): -1.0},
        {((0, 1), (1, 1)): -8.0, ((0, 1), (2, 1)): -2.0, ((1, 1), (2, 1)): 2.0},
    ]
    for eq, want in zip(sys_.equations, expected):
        got = {m: c for m, c in eq.terms.items()}
        assert set(got) == set(want)
        for m, c in want.items():
            assert got[m] == pytest.approx(c, abs=1e-13)
    e_terms = cc.energy_poly.terms
    assert e_terms[()] == pytest.approx(4.0)
    assert e_terms[((0, 1),)] == pytest.approx(1.0)
    assert e_terms[((1, 1),)] == pytest.approx(-1.0)


def test_dimer_roots_in_closed_form():
    # elimination by hand gives exactly three roots
    cc = dimer_cc()
    roots = [
        np.array([-1.0 - SQRT2, 1.0 + SQRT2, -2.0 - 2.0 * SQRT2]),
        np.array([0.0, 0.0, -1.0]),
        np.array([-1.0 + SQRT2, 1.0 - SQRT2, -2.0 + 2.0 * SQRT2]),
    ]
    energies = [2.0 - 2.0 * SQRT2, 4.0, 2.0 + 2.0 * SQRT2]
    for t, e in zip(roots, energies):
        np.testing.assert_allclose(np.abs(cc.polynomials.evaluate(t)), 0,
                                   atol=1e-12)
        assert cc.workspace.energy(t) == pytest.approx(e, abs=1e-12)


# --- dual-route residual checks ------------------------------------------------

@pytest.mark.parametrize("make", [
    lambda: cc_system_for_rank(build_hubbard(2, 1.0, 4.0, 1, 1), 2),
    lambda: cc_system_for_rank(build_pairing(2, 1.0, 0.5, 1), 2),
    lambda: cc_system_for_rank(build_hubbard(3, 1.0, 2.0, 2, 1), 2),
    lambda: cc_system_for_rank(build_pairing(3, 1.0, 0.4, 1), 2),
])
def test_polynomials_match_matrix_route(make):
    cc = make()
    ws = cc.workspace
    rng = np.random.default_rng(42)
    for _ in range(10):
        t = random_amplitudes(rng, len(cc.graph))
        via_poly = cc.polynomials.evaluate(t)
        via_bch = sum(ad_power_applied(ws, t, k) / math.factorial(k) for k in range(5))
        via_expm = ws.residual_vector(t, path="expm")
        scale = max(1.0, np.abs(via_expm).max())
        np.testing.assert_allclose(via_bch, via_expm, atol=1e-11 * scale)
        np.testing.assert_allclose(via_poly, via_expm[ws.target_idx],
                                   atol=1e-11 * scale)
        assert poly_evaluate(cc.energy_poly, t) == pytest.approx(ws.energy(t),
                                                           abs=1e-11 * scale)


def test_residual_map_has_one_route():
    ws = cc_system_for_rank(build_pairing(4, 1.0, 0.33, 2), 2).workspace
    t = random_amplitudes(np.random.default_rng(8), len(ws.graph))
    vec = ws.residual_vector(t)
    assert np.array_equal(ws.residuals(t), vec[ws.target_idx])
    assert ws.energy(t) == vec[ws.ref_idx]
    with pytest.raises(ValueError, match="unknown path"):
        ws.residual_vector(t, path="bch")


def test_commutator_series_terminates():
    # two-body H: the 5-fold nested commutator annihilates the reference
    for model in (build_hubbard(2, 1.0, 4.0, 1, 1),
                  build_pairing(4, 1.0, 0.33, 2)):
        cc = cc_system_for_rank(model, 2)
        ws = cc.workspace
        rng = np.random.default_rng(5)
        for _ in range(5):
            t = random_amplitudes(rng, len(cc.graph), scale=1.0)
            v = ad_power_applied(ws, t, 5)
            assert np.abs(v).max() < 1e-12
    # order 4 does NOT vanish in general (on a model big enough to host it)
    cc = cc_system_for_rank(build_pairing(4, 1.0, 0.33, 2), 2)
    rng = np.random.default_rng(5)
    t = random_amplitudes(rng, len(cc.graph), scale=1.0)
    assert np.abs(ad_power_applied(cc.workspace, t, 4)).max() > 1e-10


def test_degree_caps():
    cc = cc_system_for_rank(build_pairing(3, 1.0, 0.4, 1), 2)
    assert all(eq.degree() <= 4 for eq in cc.polynomials.equations)
    assert cc.energy_poly.degree() <= 2


def test_fci_amplitudes_are_roots():
    model = build_hubbard(2, 1.0, 4.0, 1, 1)
    cc = cc_system_for_rank(model, 2)
    res = fci_solve(model)
    for k in range(len(res.energies)):
        if not intermediately_normalizable(res, k):
            continue
        t = cluster_from_ci(res, k)
        assert np.abs(cc.polynomials.evaluate(t)).max() < 1e-10
        assert cc.workspace.energy(t) == pytest.approx(res.energies[k], abs=1e-10)


# --- Jacobians ----------------------------------------------------------------

def test_jacobian_against_central_differences():
    cc = cc_system_for_rank(build_pairing(3, 1.0, 0.4, 1), 2)
    rng = np.random.default_rng(9)
    h = 1e-6
    for _ in range(5):
        t = random_amplitudes(rng, len(cc.graph))
        j_an = cc.workspace.jacobian(t)
        j_poly = cc.polynomials.jacobian(t)
        np.testing.assert_allclose(j_an, j_poly, atol=1e-10)
        j_fd = np.empty_like(j_an)
        for k in range(len(t)):
            dt = np.zeros(len(t), dtype=complex)
            dt[k] = h
            j_fd[:, k] = (cc.workspace.residuals(t + dt)
                          - cc.workspace.residuals(t - dt)) / (2 * h)
        scale = max(1.0, np.abs(j_an).max())
        np.testing.assert_allclose(j_an, j_fd, atol=1e-6 * scale)


# --- signed excitation map -------------------------------------------------------

@pytest.mark.parametrize("model", [
    build_hubbard(3, 1.0, 2.0, 1, 1, reference=0b1100),   # not the aufbau reference
    build_pairing(4, 1.0, 0.33, 2),
], ids=["hubbard3-1100", "pairing4"])
def test_signed_map_matches_excitation_matrices(model):
    graph = build_graph(model, full_rank(model))
    ws = Workspace(model, graph)
    mats = [excitation_matrix(graph, mu, ws.basis) for mu in graph.indices]
    rng = np.random.default_rng(17)
    v = random_amplitudes(rng, ws.dim)
    xv = ws.excite(v)
    assert xv.shape == (len(graph), ws.dim)
    for k, x in enumerate(mats):
        assert np.array_equal(xv[k], x @ v)
    assert np.array_equal(ws.excite(np.stack([2 * v, v]))[1], xv)

    t = random_amplitudes(rng, len(graph))
    t[::3] = 0
    T = ws.t_operator(t)
    reference = sum(tk * x for tk, x in zip(t, mats))
    assert abs(T - reference).max() == 0
    assert T.nnz == np.count_nonzero(T.data)
    assert T.nnz == sum(x.nnz for tk, x in zip(t, mats) if tk != 0)
    # the fused residual-and-Jacobian pass gives both maps bit for bit
    r, J = ws.residuals_and_jacobian(t)
    assert np.array_equal(r, ws.residuals(t)) and np.array_equal(J, ws.jacobian(t))


def coo_t_operator(ws, t):
    """T = sum_k t_k X_k built from COO triplets: the reference for the
    precomputed-pattern build."""
    data = ws.x_phase * np.asarray(t, dtype=complex)[:, None]
    k, col = np.nonzero(data)
    return sp.csr_matrix((data[k, col], (ws.x_dst[k, col], col)), shape=(ws.dim, ws.dim))


@pytest.mark.parametrize("model", [
    build_pairing(5, 1.0, 0.4, 2),
    build_hubbard(3, 1.0, 2.0, 1, 1, reference=0b1100),
    build_hubbard(4, 1.0, 4.0, 2, 2),
], ids=["pairing5", "hubbard3-1100", "hubbard4-22"])
def test_t_operator_matches_coo_build(model):
    # the same CSR arrays as the COO route, zero amplitudes storing nothing
    ws = Workspace(model, build_graph(model, full_rank(model)))
    rng = np.random.default_rng(5)
    v = random_amplitudes(rng, ws.dim)
    for n in range(200):
        t = random_amplitudes(rng, len(ws.graph))
        t[rng.random(len(t)) < n / 200] = 0
        got, ref = ws.t_operator(t), coo_t_operator(ws, t)
        for name in ("data", "indices", "indptr"):
            a, b = getattr(got, name), getattr(ref, name)
            assert a.dtype == b.dtype and np.array_equal(a, b), name
        assert np.array_equal(got @ v, ref @ v)
        assert np.array_equal(ws.expm_apply(got, ws.e0), ws.expm_apply(ref, ws.e0))


# --- H's entries, read without scipy.sparse ------------------------------------

H_MODELS = [
    build_hubbard(2, 1.0, 4.0, 1, 1),
    build_hubbard(3, 1.0, 2.5, 1, 1),
    build_hubbard(3, 1.0, 4.0, 2, 1),
    build_hubbard(3, 1.0, 2.0, 1, 1, reference=0b100100),
    build_hubbard(4, 1.0, 13 / 7, 2, 2),
    build_hubbard(4, 0.7, 3.0, 3, 1),
    build_pairing(3, 1.0, 0.5, 1),
    build_pairing(4, 1.0, 0.33, 2),
    build_pairing(5, 1.0, 0.37, 2),
    build_pairing(5, 0.5, 1.2, 3),
    load_integrals(MODELS_DIR / "hubbard_dimer.ints"),
    load_integrals(MODELS_DIR / "pairing_2level.ints"),
]
H_IDS = ["hubbard2-11", "hubbard3-11", "hubbard3-21", "hubbard3-nonaufbau",
         "hubbard4-22", "hubbard4-31", "pairing3-1", "pairing4-2", "pairing5-2",
         "pairing5-3", "hubbard_dimer.ints", "pairing_2level.ints"]


@pytest.mark.parametrize("model", H_MODELS, ids=H_IDS)
def test_fci_dense_hamiltonian_equals_csr(model, monkeypatch):
    seen = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda h: seen.append(h) or eigh(h))
    fci_solve(model)
    ref = assemble_hamiltonian(model).toarray()
    assert seen[0].dtype == ref.dtype and np.array_equal(seen[0], ref)


@pytest.mark.parametrize("model", H_MODELS, ids=H_IDS)
def test_generation_reads_csc_columns_of_h(model):
    # H on every basis vector through _apply_h gives H.tocsc() column by
    # column: rows ascending, values unchanged
    ws = Workspace(model, build_graph(model, 1))
    keys, rows, vals = _apply_h(ws, (np.arange(ws.dim, dtype=np.uint64),
                                     np.arange(ws.dim), np.ones(ws.dim, dtype=complex)))
    hc = ws.H.tocsc()
    assert np.array_equal(np.searchsorted(keys, np.arange(ws.dim + 1)), hc.indptr)
    assert np.array_equal(rows, hc.indices)
    assert vals.dtype == hc.data.dtype and np.array_equal(vals, hc.data)


@pytest.mark.parametrize("model", H_MODELS, ids=H_IDS)
def test_quadratize_reads_csr_rows_of_h(model):
    ws = Workspace(model, build_graph(model, 1))
    rows = _h_rows(ws)
    assert len(rows) == ws.dim
    for i, (cols, vals) in enumerate(rows):
        ref = ws.H.getrow(i).tocoo()
        assert np.array_equal(cols, ref.col)
        assert vals.dtype == ref.data.dtype and np.array_equal(vals, ref.data)


def test_pair_phase_fails_loudly_on_annihilation():
    blocks = _PairBlocks(dimer_cc())
    single = next(iter(blocks.by_hp.values()))
    assert blocks.seq_phase((single,))[1] == 1
    with pytest.raises(QuadratizationError, match="annihilates"):
        blocks.seq_phase((single, single))


# --- root-count bounds ----------------------------------------------------------

def test_root_bounds_dimer():
    b = root_bounds(dimer_cc())
    assert (b.n_amplitudes, b.n_singles, b.n_doubles) == (3, 2, 1)
    assert b.bezout_total == 64
    assert b.bezout_sd == 36
    assert b.quadratic == 16
    d = b.as_dict()
    assert d["bezout_total"] == "64"
    assert d["quadratic"] == "16"


def test_root_bounds_large_graph_exact_integers():
    model = build_pairing(4, 1.0, 0.33, 2)
    b = root_bounds(build_graph(model, 2))
    assert (b.n_singles, b.n_doubles) == (8, 18)
    assert b.bezout_total == 4 ** 26
    assert b.bezout_sd == 3 ** 8 * 4 ** 18
    assert b.quadratic == 2 ** 44
    # beyond doubles only the total Bezout count applies
    b3 = root_bounds(build_graph(model, 3))
    assert b3.bezout_total == 4 ** 34
    assert b3.bezout_sd is None and b3.quadratic is None


# --- quadratization -------------------------------------------------------------

def test_quadratize_shape_and_degrees():
    cc = dimer_cc()
    q = quadratize(cc)
    assert q.var_names == ["t[0->2]", "t[1->3]", "t[0,1->2,3]", "y[0,1->2,3]"]
    assert q.n_eqs == q.n_vars == 4
    assert all(d <= 2 for d in q.degrees())
    assert q.metadata["kind"] == "cc-quadratized"
    assert q.metadata["n_original_vars"] == 3
    assert q.metadata["aux"] == {"y[0,1->2,3]": "t[0,1->2,3]"}


def lifted_point(cc, q, t):
    """Extend t by the pair-minor values the defining equations encode."""
    n_t = len(cc.graph)
    x = np.zeros(q.n_vars, dtype=complex)
    x[:n_t] = t
    # solve the (linear in y) defining equations for the auxiliaries
    for row in range(n_t, q.n_eqs):
        eq = q.equations[row]
        y_var = None
        rest = 0j
        for mono, c in eq.terms.items():
            if len(mono) == 1 and mono[0][0] >= n_t and mono[0][1] == 1:
                y_var = mono[0][0]
                y_coef = c
            else:
                rest += c * np.prod([x[v] ** e for v, e in mono])
        x[y_var] = -rest / y_coef
    return x


def test_quadratized_system_reproduces_energy_subtracted_residuals():
    # dual route: the quadratic equations at a lifted point equal the
    # matrix-route values <Phi_mu|(H - E) e^T|ref>, and the defining
    # equations vanish identically on the lift
    for model in (build_hubbard(2, 1.0, 4.0, 1, 1),
                  build_pairing(3, 1.0, 0.4, 1),
                  build_hubbard(3, 1.0, 2.0, 2, 1)):
        cc = cc_system_for_rank(model, 2)
        q = quadratize(cc)
        ws = cc.workspace
        n_t = len(cc.graph)
        rng = np.random.default_rng(17)
        for _ in range(10):
            t = random_amplitudes(rng, n_t)
            x = lifted_point(cc, q, t)
            vals = q.evaluate(x)
            np.testing.assert_allclose(np.abs(vals[n_t:]), 0, atol=1e-12)
            wave = ws.expm_apply(ws.t_operator(t), ws.e0)
            hw = ws.H @ wave
            e_val = hw[ws.ref_idx]
            ci_res = (hw - e_val * wave)[ws.target_idx]
            scale = max(1.0, np.abs(ci_res).max())
            np.testing.assert_allclose(vals[:n_t], ci_res, atol=1e-10 * scale)


def test_quadratized_and_original_share_roots():
    cc = dimer_cc()
    q = quadratize(cc)
    # every hand root of the original system lifts to a root of the
    # quadratized one, and conversely the lift projects back
    for t in ([-1.0 - SQRT2, 1.0 + SQRT2, -2.0 - 2.0 * SQRT2],
              [0.0, 0.0, -1.0],
              [-1.0 + SQRT2, 1.0 - SQRT2, -2.0 + 2.0 * SQRT2]):
        x = lifted_point(cc, q, np.asarray(t, dtype=complex))
        assert np.abs(q.evaluate(x)).max() < 1e-12
        # dimer: y[0,1->2,3] = t1*t2 (the second minor term is spin-forbidden)
        assert x[3] == pytest.approx(x[0] * x[1], abs=1e-13)


def test_quadratize_requires_singles_doubles_graph():
    model = build_pairing(4, 1.0, 0.33, 2)
    with pytest.raises(QuadratizationError):
        quadratize(cc_system_for_rank(model, 3))
    with pytest.raises(QuadratizationError):
        quadratize(cc_system_for_rank(model, 1))


# --- serialization ---------------------------------------------------------------

def test_json_roundtrip_and_determinism():
    cc = cc_system_for_rank(build_pairing(2, 1.0, 0.5, 1), 2)
    text = cc.polynomials.to_json()
    again = PolynomialSystem.from_json(text)
    assert again.var_names == cc.polynomials.var_names
    assert again.metadata == cc.polynomials.metadata
    rng = np.random.default_rng(1)
    for _ in range(5):
        t = random_amplitudes(rng, cc.polynomials.n_vars)
        np.testing.assert_allclose(again.evaluate(t), cc.polynomials.evaluate(t),
                                   atol=1e-14)
    assert again.to_json() == text
    # the serialization is valid JSON with the metadata block intact
    data = json.loads(text)
    assert data["metadata"]["kind"] == "cc"
    assert data["variables"] == cc.polynomials.var_names


@pytest.mark.parametrize("exponent", [1.5, -1, "2", True, float("nan")])
def test_json_exponent_must_be_a_non_negative_whole_number(exponent):
    with pytest.raises(ValueError, match="exponent"):
        poly_from_json_terms([[1.0, 0.0, {"x": exponent}]], ["x"])


@pytest.mark.parametrize("re_c, im_c", [(float("nan"), 0.0), (1.0, float("inf")),
                                         (float("-inf"), 0.0)])
def test_json_coefficient_must_be_finite(re_c, im_c):
    with pytest.raises(ValueError, match="non-finite coefficient"):
        poly_from_json_terms([[re_c, im_c, {"x": 1}], [1.0, 0.0, {}]], ["x"])


def test_json_whole_float_exponent_is_accepted():
    p = poly_from_json_terms([[2.0, 0.0, {"x": 2.0}], [1.0, 0.0, {}]], ["x"])
    assert p.terms == {((0, 2),): 2.0, (): 1.0}


def test_quadratized_json_roundtrip():
    q = quadratize(dimer_cc())
    again = PolynomialSystem.from_json(q.to_json())
    rng = np.random.default_rng(2)
    x = random_amplitudes(rng, q.n_vars)
    np.testing.assert_allclose(again.evaluate(x), q.evaluate(x), atol=1e-14)
    assert again.metadata["aux"] == q.metadata["aux"]


def test_full_rank_system_for_rank():
    model = build_pairing(2, 1.0, 0.5, 1)
    assert full_rank(model) == 2
    cc = cc_system_for_rank(model, 2)
    assert cc.polynomials.n_vars == 3
    assert cc.polynomials.degrees() == [3, 3, 4]
