"""The array primitive `model.apply_string` and the operators built on it.

Oracles: the scalar loops the array code replaced, kept here verbatim in
behaviour: one determinant and one operator string at a time for the phase,
a (row, col) dict summed in loop order for H, and one excitation and one
column at a time for the signed excitation map.  Every comparison is bit for
bit, dtypes included.  Models are drawn by hypothesis: Hubbard chains,
pairing models and seeded random integrals, in random sectors with random
(mostly non-aufbau) references.
"""

import re

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from ccroots.ccpoly import Workspace
from ccroots.excitations import build_graph, excitation_entries, excitation_map, full_rank
from ccroots.model import (DOWN, UP, IntegralTable, ModelSpec, SectorError, apply_string,
                           build_hubbard, build_pairing, det_from_occupied,
                           hamiltonian_entries, so_index)

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None,
                    suppress_health_check=[HealthCheck.too_slow])


# --- scalar oracles -------------------------------------------------------------

def scalar_apply(det, annihilations, creations):
    """a_q for q in annihilations, in order, then a†_q for q in creations:
    (new det, phase) or None when the string annihilates det."""
    phase = 1
    for orbitals, filled in ((annihilations, 1), (creations, 0)):
        for q in orbitals:
            if (det >> q & 1) != filled:
                return None
            if (det & ((1 << q) - 1)).bit_count() & 1:
                phase = -phase
            det ^= 1 << q
    return det, phase


def scalar_hamiltonian_entries(model, basis):
    """H's (rows, cols, values) from a dict summed column by column, core
    energy first, then string by string."""
    index = {d: i for i, d in enumerate(basis)}
    ints = model.integrals
    strings = [((so_index(q, s),), (so_index(p, s),), v)
               for (p, q), v in ints.h1.items() for s in (UP, DOWN)]
    strings += [((so_index(p, s),), (so_index(q, s),), v)
                for (p, q), v in ints.h1.items() if p != q for s in (UP, DOWN)]
    strings += [((so_index(q, s), so_index(ss, t)), (so_index(r, t), so_index(p, s)), 0.5 * v)
                for (p, q, r, ss), v in ints.h2_expanded()
                for s in (UP, DOWN) for t in (UP, DOWN)]
    entries = {}
    for col, det in enumerate(basis):
        if ints.core_energy:
            entries[(col, col)] = entries.get((col, col), 0.0) + ints.core_energy
        for annihilations, creations, v in strings:
            step = scalar_apply(det, annihilations, creations)
            if step is None:
                continue
            row = index.get(step[0])
            if row is None:
                raise SectorError(f"basis not closed: reached determinant {step[0]:#x}")
            entries[(row, col)] = entries.get((row, col), 0.0) + v * step[1]
    cut = 1e-15 * max(map(abs, [ints.core_energy, *ints.h1.values(), *ints.h2.values()]))
    ij = sorted(k for k, v in entries.items() if abs(v) > cut)
    rows, cols = np.array(ij, dtype=np.intp).reshape(-1, 2).T
    return rows, cols, np.array([entries[k] for k in ij], dtype=complex)


def scalar_excitation_entries(graph, mu, basis):
    """(rows, cols, phases) of X_mu, one column at a time, sign-folded."""
    index = {d: i for i, d in enumerate(basis)}
    step = scalar_apply(graph.reference, mu.holes, mu.particles)
    if step is None:
        raise SectorError(f"excitation {mu.name()} does not act on the reference")
    sigma = step[1]
    rows, cols, phases = [], [], []
    for col, det in enumerate(basis):
        step = scalar_apply(det, mu.holes, mu.particles)
        if step is None:
            continue
        row = index.get(step[0])
        if row is None:
            raise SectorError(f"basis not closed under {mu.name()}")
        rows.append(row)
        cols.append(col)
        phases.append(step[1] * sigma)
    return rows, cols, phases


def scalar_signed_map(graph, basis):
    """Workspace's x_dst and x_phase, one excitation at a time."""
    dim = len(basis)
    x_dst = np.full((len(graph), dim), dim, dtype=np.intp)
    x_phase = np.zeros((len(graph), dim))
    for k, mu in enumerate(graph.indices):
        rows, cols, phases = scalar_excitation_entries(graph, mu, basis)
        x_dst[k, cols], x_phase[k, cols] = rows, phases
    return x_dst, x_phase


def assert_same(a, b):
    """Equal values, shape and dtype, and equal bytes (so -0.0 != 0.0)."""
    a, b = np.asarray(a), np.asarray(b)
    assert a.dtype == b.dtype and a.shape == b.shape
    assert np.array_equal(a, b) and a.tobytes() == b.tobytes()


# --- models -----------------------------------------------------------------------

@st.composite
def references(draw, n_spatial, n_up, n_dn):
    """Any determinant of the sector, aufbau or not."""
    ups = draw(st.permutations(range(n_spatial)))[:n_up]
    dns = draw(st.permutations(range(n_spatial)))[:n_dn]
    return det_from_occupied([so_index(p, UP) for p in ups] + [so_index(p, DOWN) for p in dns])


def random_integrals(seed, n_spatial):
    """Seeded N(0, 1) one-body and N(0, 0.25) two-body integrals, one per
    symmetry orbit, a third of them zero, and a core energy that may be 0."""
    rng = np.random.default_rng(seed)
    h1 = [(p, q, rng.normal()) for p in range(n_spatial) for q in range(p, n_spatial)]
    pairs = [(p, q) for p in range(n_spatial) for q in range(p, n_spatial)]
    h2 = [(*a, *b, 0.5 * rng.normal() * (rng.random() > 1 / 3))
          for i, a in enumerate(pairs) for b in pairs[i:]]
    return IntegralTable.from_entries(n_spatial, h1, h2, rng.normal() * (rng.random() > 0.5))


@st.composite
def models(draw):
    kind = draw(st.sampled_from(["hubbard", "pairing", "random"]))
    n = draw(st.integers(2, 4 if kind != "random" else 3))
    if kind == "pairing":
        pairs = draw(st.integers(1, n))
        ref = draw(references(n, pairs, pairs))
        return build_pairing(n, 1.0, draw(st.sampled_from([0.0, 0.37, 1.5])), pairs, ref)
    n_up, n_dn = draw(st.integers(0, n)), draw(st.integers(0, n))
    assume(n_up + n_dn > 0)
    ref = draw(references(n, n_up, n_dn))
    if kind == "hubbard":
        return build_hubbard(n, 1.0, draw(st.sampled_from([0.0, 2.5, 4.0])), n_up, n_dn, ref)
    table = random_integrals(draw(st.integers(0, 2**32 - 1)), n)
    return ModelSpec(table, n_up, n_dn, ref, label="random")


@st.composite
def models_and_graphs(draw):
    model = draw(models())
    assume(full_rank(model) >= 1)
    return model, build_graph(model, draw(st.integers(1, full_rank(model))))


# --- the primitive ---------------------------------------------------------------

@st.composite
def string_batches(draw):
    """Determinants and a batch of strings of any lengths on up to 64 spin
    orbitals; orbitals may repeat within a string."""
    n_so = draw(st.sampled_from([4, 6, 10, 64]))
    dets = draw(st.lists(st.integers(0, 2**n_so - 1), min_size=1, max_size=8))
    orbitals = st.lists(st.integers(0, n_so - 1), max_size=3)
    strings = draw(st.lists(st.tuples(orbitals, orbitals), max_size=6))
    return dets, [a for a, _ in strings], [c for _, c in strings]


@PROPERTY
@given(string_batches())
def test_apply_string_matches_scalar_oracle(batch):
    dets, annihilations, creations = batch
    new, phase, gone = apply_string(np.array(dets, dtype=np.uint64), annihilations, creations)
    steps = [[scalar_apply(d, a, c) for d in dets] for a, c in zip(annihilations, creations)]
    assert_same(gone, np.array([[s is None for s in row] for row in steps],
                               dtype=bool).reshape(len(steps), len(dets)))
    live = [s for row in steps for s in row if s is not None]
    assert_same(new[~gone], np.array([d for d, _ in live], dtype=np.uint64))
    assert_same(phase[~gone], np.array([p for _, p in live], dtype=int))


# --- H ----------------------------------------------------------------------------

@PROPERTY
@given(models(), st.data())
def test_hamiltonian_entries_match_scalar_oracle(model, data):
    basis = model.basis()
    for b in (basis, data.draw(st.permutations(basis))):
        for got, want in zip(hamiltonian_entries(model, b), scalar_hamiltonian_entries(model, b)):
            assert_same(got, want)


@PROPERTY
@given(models(), st.data())
def test_non_closed_basis_raises_as_the_scalar_loop_does(model, data):
    basis = model.basis()
    assume(len(basis) > 1)
    basis = data.draw(st.permutations(basis))[data.draw(st.integers(1, min(3, len(basis) - 1))):]
    try:
        want = scalar_hamiltonian_entries(model, basis)
    except SectorError as exc:
        with pytest.raises(SectorError, match=f"^{re.escape(str(exc))}$"):
            hamiltonian_entries(model, basis)
    else:
        for got, w in zip(hamiltonian_entries(model, basis), want):
            assert_same(got, w)


def test_non_closed_basis_raises_sector_error():
    model = build_hubbard(3, 1.0, 4.0, 1, 1)
    basis = model.basis()
    with pytest.raises(SectorError, match="basis not closed: reached determinant 0x"):
        hamiltonian_entries(model, basis[1:])
    graph = build_graph(model, 2)
    mu = graph.indices[0]
    lost = [d for d in basis if d != mu.target(model.reference)]
    with pytest.raises(SectorError, match=re.escape(f"basis not closed under {mu.name()}")):
        excitation_entries(graph, mu, lost)


# --- the signed excitation map ----------------------------------------------------

@PROPERTY
@given(models_and_graphs())
def test_signed_map_and_t_pattern_match_scalar_oracle(model_graph):
    model, graph = model_graph
    ws = Workspace(model, graph)
    x_dst, x_phase = scalar_signed_map(graph, ws.basis)
    assert_same(ws.x_dst, x_dst)
    assert_same(ws.x_phase, x_phase)
    k, col = np.nonzero(x_phase)
    order = np.lexsort((col, x_dst[k, col]))
    assert_same(ws.t_k, k[order])
    assert_same(ws.t_col, col[order].astype(np.int32))
    assert_same(ws.t_row, x_dst[k, col][order])
    assert_same(ws.t_phase, x_phase[k, col][order])


@PROPERTY
@given(models_and_graphs(), st.data())
def test_excitation_entries_match_scalar_oracle_on_any_basis(model_graph, data):
    model, graph = model_graph
    basis = data.draw(st.permutations(model.basis()))
    if data.draw(st.booleans()) and len(basis) > 1:
        basis = basis[1:]                   # maybe not closed under some X_mu
    for mu in graph.indices:
        try:
            want = scalar_excitation_entries(graph, mu, basis)
        except SectorError as exc:
            with pytest.raises(SectorError, match=f"^{re.escape(str(exc))}$"):
                excitation_entries(graph, mu, basis)
            continue
        rows, cols, phases = excitation_entries(graph, mu, basis)
        assert_same(rows, np.array(want[0], dtype=np.intp))
        assert_same(cols, np.array(want[1], dtype=np.intp))
        assert_same(phases, np.array(want[2], dtype=float))


def test_excitation_map_checks_the_reference():
    model = build_hubbard(3, 1.0, 4.0, 1, 1)
    graph = build_graph(model, 2)
    mu = build_graph(build_hubbard(3, 1.0, 4.0, 1, 1, reference=0b001100), 2).indices[0]
    with pytest.raises(SectorError, match="does not act on the reference"):
        excitation_map(graph, [mu], np.array(model.basis(), dtype=np.uint64))
