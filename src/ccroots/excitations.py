"""Particle-hole excitation operators over a reference determinant.

Excitations move electrons from reference-occupied spin orbitals (holes) to
reference-virtual ones (particles), conserving the (n_up, n_dn) sector.  The
graph of a model lists every such excitation up to a rank cap, rank-major and
lexicographic in (holes, particles) within a rank.  Excitation operator
matrices carry a folded global sign so that X_mu |ref> = +|Phi_mu> exactly;
any two of them commute and products are nilpotent.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .model import (ModelSpec, SectorError, apply_string, csr_matrix, enumerate_determinants,
                    lookup, occupied_orbitals, so_spin)


@dataclass(frozen=True, order=True)
class ExcitationIndex:
    """holes/particles are ascending spin-orbital tuples of equal length."""

    holes: tuple
    particles: tuple

    def __post_init__(self):
        if len(self.holes) != len(self.particles) or not self.holes:
            raise ValueError("holes and particles must be non-empty, equal length")
        if tuple(sorted(self.holes)) != self.holes or tuple(sorted(self.particles)) != self.particles:
            raise ValueError("holes and particles must be sorted ascending")

    @property
    def rank(self) -> int:
        return len(self.holes)

    def name(self) -> str:
        return "t[{}->{}]".format(",".join(map(str, self.holes)),
                                  ",".join(map(str, self.particles)))

    def target(self, reference: int) -> int:
        """Determinant produced from the reference."""
        det = reference
        for i in self.holes:
            det &= ~(1 << i)
        for a in self.particles:
            det |= 1 << a
        return det


def _spin_up_count(orbs) -> int:
    return sum(1 for q in orbs if so_spin(q) == 0)


@dataclass(frozen=True)
class ExcitationGraph:
    """All sector-conserving excitations of a model up to rank_max."""

    reference: int
    n_so: int
    n_up: int
    n_dn: int
    rank_max: int
    indices: tuple

    def __len__(self):
        return len(self.indices)

    def position(self, mu: ExcitationIndex) -> int:
        return self._positions()[mu]

    def _positions(self):
        if not hasattr(self, "_pos_cache"):
            object.__setattr__(self, "_pos_cache", {mu: k for k, mu in enumerate(self.indices)})
        return self._pos_cache

    def rank_counts(self) -> dict:
        counts = {}
        for mu in self.indices:
            counts[mu.rank] = counts.get(mu.rank, 0) + 1
        return counts

    def names(self) -> list[str]:
        return [mu.name() for mu in self.indices]

    def positions_with_rank_le(self, rho: int) -> tuple:
        return tuple(k for k, mu in enumerate(self.indices) if mu.rank <= rho)


def full_rank(model: ModelSpec) -> int:
    return min(model.n_elec, model.n_so - model.n_elec)


def build_graph(model: ModelSpec, rank_max: int) -> ExcitationGraph:
    """Enumerate excitations of rank 1..rank_max from the model's reference."""
    cap = full_rank(model)
    if not 1 <= rank_max <= cap:
        raise SectorError(f"rank_max must be in 1..{cap}, got {rank_max}")
    occ = occupied_orbitals(model.reference)
    virt = [q for q in range(model.n_so) if not model.reference >> q & 1]
    indices = []
    for rank in range(1, rank_max + 1):
        level = []
        for holes in itertools.combinations(occ, rank):
            for parts in itertools.combinations(virt, rank):
                if _spin_up_count(holes) == _spin_up_count(parts):
                    level.append(ExcitationIndex(holes, parts))
        level.sort(key=lambda mu: (mu.holes, mu.particles))
        indices.extend(level)
    return ExcitationGraph(model.reference, model.n_so, model.n_up, model.n_dn,
                           rank_max, tuple(indices))


def excitation_map(graph: ExcitationGraph, mus, basis) -> tuple:
    """Rows and phases of each X_mu on every column of `basis` (uint64, any
    order), each (len(mus), len(basis)); row len(basis) and phase 0 where X_mu
    annihilates.  Column 0 of the one `apply_string` call is the reference,
    whose phase is folded out so that X_mu|ref> = +|Phi_mu>.
    """
    new, phase, gone = apply_string(np.append(np.uint64(graph.reference), basis),
                                    [mu.holes for mu in mus], [mu.particles for mu in mus])
    if gone[:, 0].any():
        raise SectorError(f"excitation {mus[gone[:, 0].argmax()].name()} "
                          "does not act on the reference")
    rows = np.where(gone[:, 1:], len(basis), lookup(basis, new[:, 1:]))
    if (rows < 0).any():
        raise SectorError(f"basis not closed under {mus[np.nonzero(rows < 0)[0][0]].name()}")
    return rows, np.where(gone[:, 1:], 0.0, phase[:, 1:] * phase[:, :1])


def excitation_entries(graph: ExcitationGraph, mu: ExcitationIndex, basis: list[int]) -> tuple:
    """(rows, cols, phases) of X_mu on basis, sign-folded so X_mu|ref> = +|Phi_mu>.

    X_mu annihilates holes (ascending), then creates particles (ascending).
    """
    rows, phases = excitation_map(graph, [mu], np.array(basis, dtype=np.uint64))
    cols = np.flatnonzero(phases[0])
    return rows[0, cols], cols, phases[0, cols]


def excitation_matrix(graph: ExcitationGraph, mu: ExcitationIndex,
                      basis: list[int] | None = None):
    """Matrix of X_mu on the sector basis, sign-folded so X_mu|ref> = +|Phi_mu>."""
    if basis is None:
        basis = enumerate_determinants(graph.n_so, graph.n_up, graph.n_dn)
    rows, cols, phases = excitation_entries(graph, mu, basis)
    order = np.argsort(rows)                # X_mu is injective: one entry per row at most
    indptr = np.searchsorted(rows[order], np.arange(len(basis) + 1))
    return csr_matrix((phases[order], cols[order], indptr), len(basis))


@dataclass(frozen=True)
class AmplitudeSplit:
    """Positions of the rank <= rho (low) and rank > rho (high) excitations."""

    graph: ExcitationGraph
    rho: int
    low: tuple
    high: tuple


def split(graph: ExcitationGraph, rho: int) -> AmplitudeSplit:
    """Split a full graph at rank rho (2 <= rho <= rank_max; boundary = no truncation)."""
    if not 2 <= rho <= graph.rank_max:
        raise SectorError(f"rho must be in 2..{graph.rank_max}, got {rho}")
    low = graph.positions_with_rank_le(rho)
    high = tuple(k for k in range(len(graph)) if k not in set(low))
    return AmplitudeSplit(graph, rho, low, high)
