"""Excitation graphs and sign-folded excitation operator matrices.

Counts are binomial-coefficient bookkeeping done by hand; the algebraic
properties (commutation, nilpotency, unit action on the reference) are
checked exactly on the integer matrices.
"""

import numpy as np
import pytest

from ccroots.excitations import (
    AmplitudeSplit,
    ExcitationIndex,
    build_graph,
    excitation_entries,
    excitation_matrix,
    full_rank,
    split,
)
from ccroots.model import SectorError, apply_string, build_hubbard, build_pairing


def reference_sign(mu, reference):
    """Raw phase of X_mu on the reference, the sign folded out of its matrix."""
    _, phase, gone = apply_string(np.array([reference], dtype=np.uint64),
                                  [mu.holes], [mu.particles])
    assert not gone[0, 0]
    return int(phase[0, 0])


def dimer():
    return build_hubbard(2, 1.0, 4.0, 1, 1)


def pairing42():
    return build_pairing(4, 1.0, 0.33, 2)


def test_full_rank():
    assert full_rank(dimer()) == 2
    assert full_rank(pairing42()) == 4
    assert full_rank(build_hubbard(3, 1.0, 2.0, 2, 1)) == 3
    # hole-limited side: 5 sites, 4+4 electrons -> only 2 virtuals
    assert full_rank(build_hubbard(5, 1.0, 2.0, 4, 4)) == 2


def test_dimer_graph_layout():
    g = build_graph(dimer(), 2)
    assert g.names() == ["t[0->2]", "t[1->3]", "t[0,1->2,3]"]
    assert g.rank_counts() == {1: 2, 2: 1}
    for k, mu in enumerate(g.indices):
        assert g.position(mu) == k


def test_spin_forbidden_singles_absent():
    # t[0->3] would flip a spin; it must not be enumerated
    g = build_graph(dimer(), 2)
    holes = [mu.holes for mu in g.indices if mu.rank == 1]
    parts = [mu.particles for mu in g.indices if mu.rank == 1]
    assert ((0,), (3,)) not in zip(holes, parts)
    assert ((1,), (2,)) not in zip(holes, parts)


def test_pairing42_graph_counts():
    # 2+2 electrons in 8 spin orbitals: 4 up-conserving + 4 down singles, and
    # by direct enumeration 18 doubles, 8 triples, 1 quadruple
    g = build_graph(pairing42(), 4)
    assert g.rank_counts() == {1: 8, 2: 18, 3: 8, 4: 1}
    assert len(g) == 35
    ccsd = build_graph(pairing42(), 2)
    assert len(ccsd) == 26
    assert ccsd.indices == g.indices[:26]  # rank-major prefix


def test_rank_major_lexicographic_order():
    g = build_graph(pairing42(), 3)
    ranks = [mu.rank for mu in g.indices]
    assert ranks == sorted(ranks)
    for rank in (1, 2, 3):
        level = [(mu.holes, mu.particles) for mu in g.indices if mu.rank == rank]
        assert level == sorted(level)


def test_rank_bounds_rejected():
    with pytest.raises(SectorError):
        build_graph(dimer(), 0)
    with pytest.raises(SectorError):
        build_graph(dimer(), 3)


def test_excitation_index_validation():
    with pytest.raises(ValueError):
        ExcitationIndex((1, 0), (2, 3))       # unsorted holes
    with pytest.raises(ValueError):
        ExcitationIndex((0,), (2, 3))         # length mismatch
    with pytest.raises(ValueError):
        ExcitationIndex((), ())
    mu = ExcitationIndex((0, 1), (2, 3))
    assert mu.rank == 2
    assert mu.name() == "t[0,1->2,3]"
    assert mu.target(0b0011) == 0b1100


def test_matrices_commute_and_are_nilpotent():
    model = pairing42()
    g = build_graph(model, 4)
    basis = model.basis()
    rng = np.random.default_rng(7)
    mats = {}

    def mat(k):
        if k not in mats:
            mats[k] = excitation_matrix(g, g.indices[k], basis).toarray()
        return mats[k]

    for _ in range(30):
        i, j = rng.integers(0, len(g), size=2)
        a, b = mat(int(i)), mat(int(j))
        np.testing.assert_array_equal(a @ b, b @ a)
    for k in rng.integers(0, len(g), size=10):
        x = mat(int(k))
        np.testing.assert_array_equal(x @ x, np.zeros_like(x))


def test_folded_sign_unit_action_on_reference():
    # X_mu |ref> = +|Phi_mu> with coefficient exactly one, for every mu
    for model in (dimer(), pairing42(), build_hubbard(3, 1.0, 2.0, 2, 1)):
        g = build_graph(model, full_rank(model))
        basis = model.basis()
        ref_idx = basis.index(model.reference)
        for mu in g.indices:
            x = excitation_matrix(g, mu, basis)
            col = x.toarray()[:, ref_idx]
            assert col[basis.index(mu.target(model.reference))] == 1
            assert np.count_nonzero(col) == 1


def test_reference_sign_squares_to_one():
    g = build_graph(pairing42(), 4)
    for mu in g.indices:
        assert reference_sign(mu, g.reference) in (-1, 1)



def jordan_wigner_annihilators(n_so):
    """a_q on the 2**n_so Fock space, qubit q = bit q of the state index."""
    lower = np.array([[0, 1], [0, 0]])              # |1> -> |0>
    z = np.diag([1, -1])
    ops = []
    for q in range(n_so):
        m = np.ones((1, 1), dtype=int)
        for p in reversed(range(n_so)):             # kron's last factor is bit 0
            m = np.kron(m, np.eye(2, dtype=int) if p > q else lower if p == q else z)
        ops.append(m)
    return ops


@pytest.mark.parametrize("n_up,n_dn", [(1, 1), (2, 1), (2, 2)])
def test_matrices_match_jordan_wigner_strings(n_up, n_dn):
    # X_mu = a+_{a_k} ... a+_{a_1} a_{i_k} ... a_{i_1} (holes annihilated
    # first, ascending), times its reference sign, on the sector block
    model = build_hubbard(3, 1.0, 2.0, n_up, n_dn)
    g = build_graph(model, full_rank(model))
    basis = model.basis()
    a = jordan_wigner_annihilators(model.n_so)
    for mu in g.indices:
        x = np.eye(2 ** model.n_so, dtype=int)
        for i in mu.holes:
            x = a[i] @ x
        for p in mu.particles:
            x = a[p].T @ x
        np.testing.assert_array_equal(excitation_matrix(g, mu, basis).toarray(),
                                      reference_sign(mu, g.reference) * x[np.ix_(basis, basis)])

def test_split_blocks():
    g = build_graph(pairing42(), 4)
    s = split(g, 2)
    assert isinstance(s, AmplitudeSplit)
    assert len(s.low) == 26 and len(s.high) == 9
    assert s.low == tuple(range(26))          # low block is a prefix
    assert s.high == tuple(range(26, 35))
    boundary = split(g, 4)
    assert len(boundary.high) == 0
    with pytest.raises(SectorError):
        split(g, 1)
    with pytest.raises(SectorError):
        split(g, 5)


@pytest.mark.parametrize("model", [dimer(), pairing42(), build_hubbard(3, 1.0, 2.0, 2, 1),
                                   build_hubbard(3, 1.0, 4.0, 1, 1, reference=0b001100)],
                         ids=["dimer", "pairing42", "hubbard3-21", "hubbard3-nonaufbau"])
def test_excitation_matrix_arrays_match_coo_build(model):
    # the CSR arrays built row-sorted from the entries equal scipy's COO -> CSR
    # build; on a shuffled basis the entries do not come row-sorted
    import scipy.sparse as sp

    g = build_graph(model, full_rank(model))
    shuffled = [model.basis()[i] for i in np.random.default_rng(3).permutation(len(model.basis()))]
    for basis in (model.basis(), shuffled):
        for mu in g.indices:
            rows, cols, phases = excitation_entries(g, mu, basis)
            want = sp.csr_matrix((phases, (rows, cols)), shape=(len(basis),) * 2, dtype=complex)
            got = excitation_matrix(g, mu, basis)
            for a, b in ((got.indptr, want.indptr), (got.indices, want.indices),
                         (got.data, want.data)):
                assert a.dtype == b.dtype and np.array_equal(a, b)
