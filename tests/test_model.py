"""Determinant algebra, integral tables, and model Hamiltonians.

Reference values are either worked out by hand (the 4x4 Hubbard dimer
block is small enough to second-quantize on paper) or follow from limits
with obvious spectra (g = 0 pairing, t = 0 Hubbard).
"""

import itertools
import re

import numpy as np
import pytest

from ccroots.model import (
    IntegralFormatError,
    IntegralTable,
    ModelSpec,
    SectorError,
    SymmetryError,
    _h1_key,
    _h2_key,
    apply_string,
    assemble_hamiltonian,
    aufbau_reference,
    build_hubbard,
    build_pairing,
    count_up_dn,
    det_from_occupied,
    enumerate_determinants,
    model_from_dict,
    model_to_dict,
    occupied_orbitals,
    so_index,
    so_spin,
)


def h1_element(table, p, q):
    """h1[p, q] through the table's symmetry folding; 0 where absent."""
    return table.h1.get(_h1_key(p, q), 0.0)


def h2_element(table, p, q, r, s):
    """(pq|rs) through the table's symmetry folding; 0 where absent."""
    return table.h2.get(_h2_key(p, q, r, s), 0.0)


# Hubbard dimer, U=4, t=1, one electron per spin.  Basis (ascending bitmask):
# |0b0011> both on site 0, |0b0110> dn0 up1, |0b1001> up0 dn1, |0b1100> both
# on site 1.  Matrix derived by hand from the hopping signs.
DIMER_BASIS = [0b0011, 0b0110, 0b1001, 0b1100]
DIMER_H = np.array([
    [4.0, 1.0, -1.0, 0.0],
    [1.0, 0.0, 0.0, 1.0],
    [-1.0, 0.0, 0.0, -1.0],
    [0.0, 1.0, -1.0, 4.0],
])


def test_spin_orbital_indexing():
    assert so_index(0, 0) == 0
    assert so_index(0, 1) == 1
    assert so_index(3, 0) == 6
    assert [so_index(q // 2, so_spin(q)) for q in range(6)] == list(range(6))
    assert [so_spin(q) for q in range(6)] == [0, 1, 0, 1, 0, 1]


def test_occupied_roundtrip():
    det = det_from_occupied([0, 3, 5])
    assert det == 0b101001
    assert occupied_orbitals(det) == [0, 3, 5]
    assert count_up_dn(det) == (1, 2)


def test_det_from_occupied_rejects_duplicates():
    with pytest.raises(ValueError):
        det_from_occupied([1, 1])


def apply_one(det, annihilations, creations):
    """The array primitive on one determinant and one string: (det, phase) or None."""
    new, phase, gone = apply_string(np.array([det], dtype=np.uint64),
                                    [annihilations], [creations])
    return None if gone[0, 0] else (int(new[0, 0]), int(phase[0, 0]))


def test_fermionic_phases_by_hand():
    # a_2 on |0b0111>: two occupied orbitals below 2 -> phase +1
    assert apply_one(0b0111, (2,), ()) == (0b0011, 1)
    # a_0 needs no transpositions
    assert apply_one(0b0111, (0,), ()) == (0b0110, 1)
    # a_1 hops over orbital 0
    assert apply_one(0b0111, (1,), ()) == (0b0101, -1)
    assert apply_one(0b0101, (1,), ()) is None
    assert apply_one(0b0101, (), (1,)) == (0b0111, -1)
    assert apply_one(0b0111, (), (1,)) is None
    # anticommutation: a_p a_q = -a_q a_p on a state where both act
    d1, s1 = apply_one(0b1011, (0,), ())
    d1, s1b = apply_one(d1, (3,), ())
    d2, s2 = apply_one(0b1011, (3,), ())
    d2, s2b = apply_one(d2, (0,), ())
    assert d1 == d2
    assert s1 * s1b == -(s2 * s2b)


def test_enumerate_determinants_counts_and_order():
    dets = enumerate_determinants(8, 2, 2)
    assert len(dets) == 36          # C(4,2)^2
    assert dets == sorted(dets)
    assert len(set(dets)) == 36
    for det in dets:
        assert count_up_dn(det) == (2, 2)
    # empty and full sectors are single determinants
    assert enumerate_determinants(4, 0, 0) == [0]
    assert enumerate_determinants(4, 2, 2) == [0b1111]


def test_aufbau_reference():
    assert aufbau_reference(2, 1, 1) == 0b0011
    # orbitals 0(up0) 1(dn0) 2(up1) 3(dn1): 2 up -> 0,2; 1 dn -> 1
    assert aufbau_reference(4, 2, 1) == (1 << 0) | (1 << 2) | (1 << 1)


def test_integral_table_symmetry_folding():
    # h2 entries stated in any of the 8 equivalent orders collapse to one
    table = IntegralTable.from_entries(
        2, [(0, 1, 0.7)], [(0, 1, 0, 1, 0.3)])
    orbit = {(0, 1, 0, 1), (1, 0, 1, 0), (0, 1, 1, 0), (1, 0, 0, 1)}
    for p, q, r, s in orbit:
        assert h2_element(table, p, q, r, s) == pytest.approx(0.3)
    assert h1_element(table, 0, 1) == pytest.approx(0.7)
    assert h1_element(table, 1, 0) == pytest.approx(0.7)
    assert h1_element(table, 0, 0) == 0.0


def test_integral_table_conflict_detection():
    with pytest.raises(SymmetryError):
        IntegralTable.from_entries(2, [(0, 1, 0.5), (1, 0, -0.5)], [])
    with pytest.raises(SymmetryError):
        IntegralTable.from_entries(
            2, [], [(0, 1, 0, 1, 0.3), (1, 0, 1, 0, 0.4)])
    # exact restatements are tolerated
    IntegralTable.from_entries(2, [(0, 1, 0.5), (1, 0, 0.5)], [])


@pytest.mark.parametrize("h1, h2, core, entry", [
    ([(0, 1, float("nan"))], [], 0.0, "h1 entry (0,1)"),
    ([(0, 0, float("inf"))], [], 0.0, "h1 entry (0,0)"),
    ([], [(0, 1, 0, 1, float("-inf"))], 0.0, "h2 entry (0, 1, 0, 1)"),
    ([], [], float("nan"), "core energy"),
], ids=["h1-nan", "h1-inf", "h2-ninf", "core-nan"])
def test_integral_table_rejects_non_finite_values(h1, h2, core, entry):
    # a NaN used to slip past the symmetry check (every comparison is False)
    # and reach the Hamiltonian and the generated polynomials
    with pytest.raises(ValueError, match=re.escape(entry)):
        IntegralTable.from_entries(2, h1, h2, core)


def test_dimer_hamiltonian_matches_hand_matrix():
    model = build_hubbard(2, 1.0, 4.0, 1, 1)
    assert model.basis() == DIMER_BASIS
    h = assemble_hamiltonian(model).toarray()
    np.testing.assert_allclose(h, DIMER_H, atol=1e-14)


def test_hamiltonian_in_small_units_keeps_its_entries():
    # the entry cutoff scales with the integrals: t = 1e-16 is not noise
    small = assemble_hamiltonian(build_hubbard(2, 1e-16, 4e-16, 1, 1)).toarray()
    unit = assemble_hamiltonian(build_hubbard(2, 1.0, 4.0, 1, 1)).toarray()
    np.testing.assert_allclose(np.linalg.eigvalsh(small), 1e-16 * np.linalg.eigvalsh(unit),
                               rtol=1e-12, atol=1e-28)


def test_hamiltonian_hermitian_on_random_integrals():
    rng = np.random.default_rng(11)
    for _ in range(5):
        n = 3
        h1 = [(p, q, float(rng.standard_normal()))
              for p in range(n) for q in range(p, n)]
        h2 = []
        seen = set()
        for p, q, r, s in itertools.product(range(n), repeat=4):
            key = min((p, q, r, s), (q, p, s, r), (r, s, p, q), (s, r, q, p),
                      (q, p, r, s), (p, q, s, r), (s, r, p, q), (r, s, q, p))
            if key not in seen:
                seen.add(key)
                h2.append((*key, float(rng.standard_normal())))
        table = IntegralTable.from_entries(n, h1, h2)
        model = ModelSpec(table, 2, 1, aufbau_reference(n, 2, 1))
        hm = assemble_hamiltonian(model).toarray()
        np.testing.assert_allclose(hm, hm.conj().T, atol=1e-12)



def jordan_wigner_annihilators(n_so):
    """a_q on the 2**n_so Fock space, qubit q = bit q of the state index."""
    lower = np.array([[0.0, 1.0], [0.0, 0.0]])     # |1> -> |0>
    z = np.diag([1.0, -1.0])
    ops = []
    for q in range(n_so):
        m = np.ones((1, 1))
        for p in reversed(range(n_so)):             # kron's last factor is bit 0
            m = np.kron(m, np.eye(2) if p > q else lower if p == q else z)
        ops.append(m)
    return ops


@pytest.mark.parametrize("n_up,n_dn", [(1, 1), (2, 1), (3, 0)])
def test_hamiltonian_matches_jordan_wigner_on_random_integrals(n_up, n_dn):
    # independent phases: H built from Jordan-Wigner ladder matrices, with
    # seeded integrals that carry the full 8-fold symmetry and a core energy
    n = 3
    rng = np.random.default_rng(29)
    h1 = rng.standard_normal((n, n))
    h1 = h1 + h1.T
    g = rng.standard_normal((n,) * 4)
    g = g + g.transpose(1, 0, 2, 3)
    g = g + g.transpose(0, 1, 3, 2)
    g = g + g.transpose(2, 3, 0, 1)
    core = 0.37
    table = IntegralTable.from_entries(
        n, [(p, q, h1[p, q]) for p, q in itertools.product(range(n), repeat=2)],
        [(*idx, g[idx]) for idx in itertools.product(range(n), repeat=4)], core)
    model = ModelSpec(table, n_up, n_dn, aufbau_reference(n, n_up, n_dn))

    a = jordan_wigner_annihilators(2 * n)
    h = core * np.eye(2 ** (2 * n))
    for p, q in itertools.product(range(n), repeat=2):
        for s in (0, 1):
            h += h1[p, q] * a[2 * p + s].T @ a[2 * q + s]
    for p, q, r, ss in itertools.product(range(n), repeat=4):
        for s, t in itertools.product((0, 1), repeat=2):
            h += 0.5 * g[p, q, r, ss] * (a[2 * p + s].T @ a[2 * r + t].T
                                         @ a[2 * ss + t] @ a[2 * q + s])
    basis = model.basis()
    np.testing.assert_allclose(assemble_hamiltonian(model, basis).toarray(),
                               h[np.ix_(basis, basis)], rtol=0, atol=1e-12)

def test_sector_block_is_closed():
    model = build_hubbard(3, 1.0, 2.0, 2, 1)
    basis = model.basis()
    op = assemble_hamiltonian(model)
    assert op.toarray().shape == (len(basis), len(basis))
    for det in basis:
        assert count_up_dn(det) == (2, 1)


def test_apply_matches_dense():
    model = build_hubbard(3, 0.7, 1.3, 1, 2)
    op = assemble_hamiltonian(model)
    rng = np.random.default_rng(3)
    v = rng.standard_normal(model.sector_dimension()) \
        + 1j * rng.standard_normal(model.sector_dimension())
    np.testing.assert_allclose(op @ v, op.toarray() @ v, atol=1e-12)


def test_hubbard_limits():
    # t = 0: diagonal, eigenvalues are U * (number of doubly occupied sites)
    model = build_hubbard(2, 0.0, 4.0, 1, 1)
    h = assemble_hamiltonian(model).toarray()
    np.testing.assert_allclose(h, np.diag([4.0, 0.0, 0.0, 4.0]), atol=1e-14)
    # U = 0: spins decouple; ground energy is twice the 1-particle minimum
    model = build_hubbard(2, 1.0, 0.0, 1, 1)
    w = np.linalg.eigvalsh(assemble_hamiltonian(model).toarray())
    np.testing.assert_allclose(w.min(), -2.0, atol=1e-12)


def test_pairing_noninteracting_spectrum():
    # g = 0: every sector determinant is an eigenvector with the sum of its
    # occupied level energies
    model = build_pairing(4, 1.0, 0.0, 2)
    h = assemble_hamiltonian(model).toarray()
    levels = np.array([0.0, 1.0, 2.0, 3.0])
    expected = sorted(
        levels[list(up)].sum() + levels[list(dn)].sum()
        for up in itertools.combinations(range(4), 2)
        for dn in itertools.combinations(range(4), 2))
    np.testing.assert_allclose(np.sort(np.linalg.eigvalsh(h)), expected,
                               atol=1e-12)


def test_pairing_seniority_zero_reference():
    model = build_pairing(3, 1.0, 0.4, 1)
    assert model.n_up == model.n_dn == 1
    assert model.reference == 0b0011
    assert model.n_so == 6


def test_sector_validation():
    with pytest.raises(SectorError):
        build_hubbard(2, 1.0, 4.0, 3, 0)
    with pytest.raises(SectorError):
        ModelSpec(IntegralTable.from_entries(2, [], []), 1, 1,
                  reference=0b0101)  # two up electrons, sector says 1 up


def test_model_dict_roundtrip():
    model = build_pairing(3, 0.9, 0.35, 1)
    again = model_from_dict(model_to_dict(model))
    assert again.n_up == model.n_up
    assert again.n_dn == model.n_dn
    assert again.reference == model.reference
    assert again.label == model.label
    assert again.integrals.core_energy == model.integrals.core_energy
    assert again.integrals.h1 == model.integrals.h1
    assert again.integrals.h2 == model.integrals.h2
    np.testing.assert_allclose(assemble_hamiltonian(again).toarray(),
                               assemble_hamiltonian(model).toarray(),
                               atol=1e-15)


def test_model_from_dict_rejects_junk():
    with pytest.raises((KeyError, TypeError, ValueError)):
        model_from_dict({"nonsense": 1})
