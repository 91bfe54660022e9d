"""Full-CI oracle: exact spectra, normalizability, CI -> cluster logarithm.

The dimer spectrum has a closed form (the seniority-zero 2x2 block gives
2 +/- 2*sqrt(2), the broken-pair block gives 0 and 4), which pins the
diagonalization down independently of any coupled-cluster code.
"""

import itertools

import numpy as np
import pytest

from ccroots.ccpoly import cc_system_for_rank
from ccroots.excitations import build_graph
from ccroots.model import build_hubbard, build_pairing
from ccroots.oracle import (
    DimensionCapError,
    ci_coefficients,
    cluster_from_ci,
    fci_solve,
    intermediately_normalizable,
    match_roots,
    sigma_min,
)

SQRT2 = np.sqrt(2.0)


def test_dimer_spectrum_closed_form():
    res = fci_solve(build_hubbard(2, 1.0, 4.0, 1, 1))
    expected = sorted([2.0 - 2.0 * SQRT2, 0.0, 4.0, 2.0 + 2.0 * SQRT2])
    np.testing.assert_allclose(res.energies, expected, atol=1e-12)
    assert list(res.energies) == sorted(res.energies)


def test_dimer_normalizability():
    # the singlet-like combination with zero reference weight (energy 4 in
    # the triplet-free basis ordering... identified by weight, not position)
    res = fci_solve(build_hubbard(2, 1.0, 4.0, 1, 1))
    flags = [intermediately_normalizable(res, k) for k in range(4)]
    assert sum(flags) == 3
    bad = flags.index(False)
    assert abs(res.reference_weight(bad)) < 1e-12
    with pytest.raises(ValueError):
        ci_coefficients(res, bad)


def test_eigenvectors_orthonormal_and_exact():
    model = build_pairing(4, 1.0, 0.33, 2)
    res = fci_solve(model)
    assert res.dim == 36
    np.testing.assert_allclose(res.vectors.conj().T @ res.vectors,
                               np.eye(36), atol=1e-12)
    from ccroots.model import assemble_hamiltonian
    h = assemble_hamiltonian(model).toarray()
    for k in (0, 7, 35):
        np.testing.assert_allclose(h @ res.vectors[:, k],
                                   res.energies[k] * res.vectors[:, k],
                                   atol=1e-10)


def test_ci_coefficients_reference_component():
    res = fci_solve(build_pairing(2, 1.0, 0.5, 1))
    for k in range(res.dim):
        if intermediately_normalizable(res, k):
            c = ci_coefficients(res, k)
            assert c[res.ref_index] == pytest.approx(1.0)


def test_cluster_log_inverts_exponential():
    # t from the nilpotent logarithm reproduces the CI vector through e^T
    for model in (build_hubbard(2, 1.0, 4.0, 1, 1),
                  build_pairing(2, 1.0, 0.5, 1),
                  build_hubbard(3, 1.0, 2.0, 2, 1)):
        res = fci_solve(model)
        from ccroots.excitations import full_rank
        cc = cc_system_for_rank(model, full_rank(model))
        ws = cc.workspace
        for k in range(res.dim):
            if not intermediately_normalizable(res, k):
                continue
            t = cluster_from_ci(res, k)
            wave = ws.expm_apply(ws.t_operator(t), ws.e0)
            np.testing.assert_allclose(wave, ci_coefficients(res, k),
                                       atol=1e-9)


def test_cluster_amplitudes_solve_residuals():
    model = build_pairing(4, 1.0, 0.33, 2)
    res = fci_solve(model)
    cc = cc_system_for_rank(model, 4)
    t = cluster_from_ci(res, 0)
    assert np.abs(cc.workspace.residuals(t)).max() < 1e-10
    assert cc.workspace.energy(t) == pytest.approx(res.energies[0], abs=1e-10)


def test_cluster_from_ci_truncated_graph_prefix():
    model = build_pairing(4, 1.0, 0.33, 2)
    res = fci_solve(model)
    t_full = cluster_from_ci(res, 0)
    t_sd = cluster_from_ci(res, 0, graph=build_graph(model, 2))
    np.testing.assert_array_equal(t_sd, t_full[:26])


def test_pairing_noninteracting_cluster_amplitudes_vanish():
    # g = 0: the reference is the exact ground state, so t = 0
    model = build_pairing(3, 1.0, 0.0, 1)
    res = fci_solve(model)
    assert res.energies[0] == pytest.approx(0.0, abs=1e-14)
    t = cluster_from_ci(res, 0)
    np.testing.assert_allclose(np.abs(t), 0, atol=1e-12)


def test_match_roots_greedy():
    values = np.array([1.0 + 0j, 5.0, 1.1])
    refs = np.array([1.05, 4.9])
    out = match_roots(values, refs)
    assert len(out) == 3
    by_value = {i: (j, d) for i, j, d in out}
    assert by_value[0][0] == 0            # 1.0 -> 1.05
    assert by_value[1][0] == 1            # 5.0 -> 4.9
    assert by_value[2][0] is None         # 1.1 left over
    assert by_value[2][1] == np.inf
    assert by_value[0][1] == pytest.approx(0.05)


def test_match_roots_prefers_global_nearest():
    values = np.array([0.0 + 0j, 0.09])
    refs = np.array([0.1 + 0j])
    out = match_roots(values, refs)
    by_value = {i: j for i, j, _ in out}
    assert by_value[1] == 0               # 0.09 is closer to 0.1 than 0.0 is
    assert by_value[0] is None


def test_sigma_min():
    m = np.diag([3.0, 0.5])
    assert sigma_min(m) == pytest.approx(0.5)
    assert sigma_min(np.zeros((2, 2))) == pytest.approx(0.0)


def test_dimension_cap():
    model = build_pairing(4, 1.0, 0.33, 2)   # dim 36
    with pytest.raises(DimensionCapError):
        fci_solve(model, cap=10)
    big = build_hubbard(9, 1.0, 4.0, 5, 4)   # C(9,5)*C(9,4) = 15876 > 5000
    with pytest.raises(DimensionCapError):
        fci_solve(big)


def test_pairing_spectrum_matches_direct_sum_at_g0():
    model = build_pairing(4, 1.0, 0.0, 2)
    res = fci_solve(model)
    levels = np.arange(4.0)
    expected = sorted(
        levels[list(up)].sum() + levels[list(dn)].sum()
        for up in itertools.combinations(range(4), 2)
        for dn in itertools.combinations(range(4), 2))
    np.testing.assert_allclose(res.energies, expected, atol=1e-12)
