"""Brute-force full-CI reference: exact eigenpairs on the determinant basis.

This module is the independent check against which the polynomial and
homotopy machinery is validated: eigenvalues come from dense diagonalization
only, and cluster amplitudes are obtained from CI vectors by the nilpotent
logarithm — no coupled-cluster residual code is involved.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .excitations import ExcitationGraph, build_graph, excitation_matrix, full_rank
from .model import ModelSpec, enumerate_determinants, hamiltonian_entries

_DIM_CAP = 5000
_REF_WEIGHT_TOL = 1e-8


class DimensionCapError(RuntimeError):
    """Sector dimension exceeds the dense-diagonalization cap."""


@dataclass(frozen=True)
class FCIResult:
    """Eigenpairs of the sector Hamiltonian, energies ascending."""

    model: ModelSpec
    basis: tuple
    energies: np.ndarray
    vectors: np.ndarray        # column k belongs to energies[k]

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def ref_index(self) -> int:
        return self.basis.index(self.model.reference)

    def reference_weight(self, k: int) -> complex:
        return complex(self.vectors[self.ref_index, k])


def fci_solve(model: ModelSpec, cap: int = _DIM_CAP) -> FCIResult:
    """Dense eigendecomposition of the sector Hamiltonian."""
    basis = enumerate_determinants(model.n_so, model.n_up, model.n_dn)
    if len(basis) > cap:
        raise DimensionCapError(
            f"sector dimension {len(basis)} exceeds cap {cap}")
    rows, cols, vals = hamiltonian_entries(model, basis)
    h = np.zeros((len(basis), len(basis)), dtype=complex)
    h[rows, cols] = vals
    energies, vectors = np.linalg.eigh(h)
    return FCIResult(model, basis, energies, vectors)


def intermediately_normalizable(res: FCIResult, k: int,
                                tol: float = _REF_WEIGHT_TOL) -> bool:
    """Whether eigenvector k has enough reference weight to divide by."""
    return abs(res.reference_weight(k)) > tol


def ci_coefficients(res: FCIResult, k: int) -> np.ndarray:
    """Eigenvector k scaled to coefficient 1 on the reference determinant."""
    c0 = res.reference_weight(k)
    if abs(c0) <= _REF_WEIGHT_TOL:
        raise ValueError(
            f"state {k} has reference weight {abs(c0):.3e}; "
            "it cannot be intermediately normalized")
    return res.vectors[:, k] / c0


def cluster_from_ci(res: FCIResult, k: int,
                    graph: ExcitationGraph | None = None) -> np.ndarray:
    """Cluster amplitudes of eigenstate k through the nilpotent logarithm.

    With c the intermediately normalized CI vector and C the operator
    sum_mu c_mu X_mu over the full excitation graph, the amplitudes are the
    components of log(1 + C)|ref> = sum_k (-1)^{k+1} C^k / k |ref>.  The sum
    terminates because C raises excitation rank.  Returned in graph order;
    `graph` defaults to the full-rank graph and, when a truncated graph is
    passed, the corresponding leading entries are returned.
    """
    model = res.model
    fg = build_graph(model, full_rank(model))
    c = ci_coefficients(res, k)
    index = {d: i for i, d in enumerate(res.basis)}

    C = None
    for mu in fg.indices:
        coeff = c[index[mu.target(model.reference)]]
        if coeff == 0:
            continue
        Xm = excitation_matrix(fg, mu, res.basis) * coeff
        C = Xm if C is None else C + Xm
    e0 = np.zeros(len(res.basis), dtype=complex)
    e0[index[model.reference]] = 1.0
    w = np.zeros_like(e0)
    term = e0
    if C is not None:                     # C can be empty when c = e0 exactly
        for n in range(1, model.n_elec + 1):
            term = C @ term
            if not np.any(term):
                break
            w = w + ((-1) ** (n + 1) / n) * term
    t_full = np.array([w[index[mu.target(model.reference)]] for mu in fg.indices])
    if graph is None:
        return t_full
    pos = {mu: i for i, mu in enumerate(fg.indices)}
    return np.array([t_full[pos[mu]] for mu in graph.indices])


def match_roots(values: np.ndarray, references: np.ndarray):
    """Greedy nearest matching of two complex value lists by |difference|.

    Returns a list of (value index, reference index, distance), one entry per
    value, each reference used at most once; values left over when references
    run out are matched to None.
    """
    values = np.asarray(values)
    references = np.asarray(references)
    pairs = sorted(((abs(v - r), i, j) for i, v in enumerate(values)
                    for j, r in enumerate(references)), key=lambda p: p[0])
    taken_v, taken_r = set(), set()
    out = {}
    for dist, i, j in pairs:
        if i in taken_v or j in taken_r:
            continue
        taken_v.add(i)
        taken_r.add(j)
        out[i] = (j, dist)
    return [(i, *(out.get(i) or (None, np.inf))) for i in range(len(values))]


def sigma_min(matrix: np.ndarray) -> float:
    """Smallest singular value; a zero test for Jacobian regularity."""
    return float(np.linalg.svd(np.asarray(matrix), compute_uv=False)[-1])
