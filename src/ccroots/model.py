"""Model Hamiltonians on small spin-orbital spaces.

Spin orbitals interleave spin into the spatial index: orbital ``2*p`` is
(spatial p, up) and ``2*p + 1`` is (spatial p, down).  A Slater determinant
is an occupation bitmask over spin orbitals (bit q set = orbital q occupied),
and determinant bases are kept in ascending bitmask order.  The fermionic
phase of creating/annihilating in orbital q on a determinant D is
``(-1)**(number of occupied orbitals of D with index < q)``; `apply_string`
is the one place it is computed, for H here and for the excitation
operators, on a batch of strings and a ``uint64`` array of determinants.
Operators are (rows, cols, values) entries on a basis in any order (see
`lookup`); only `csr_matrix` imports ``scipy.sparse``, so only ``kp`` loads it.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass

import numpy as np

UP = 0
DOWN = 1

_EVEN_BITS = 0x5555555555555555  # up spin orbitals live on even bits
_MAX_SPIN_ORBITALS = 64


class SectorError(ValueError):
    """Electron counts and orbital space are inconsistent."""


class SymmetryError(ValueError):
    """Conflicting values for symmetry-equivalent integral entries."""


class IntegralFormatError(ValueError):
    """Malformed integral file; message carries the line number."""


def so_index(spatial: int, spin: int) -> int:
    return 2 * spatial + spin


def so_spin(q: int) -> int:
    return q & 1


def occupied_orbitals(det: int) -> list[int]:
    """Ascending list of occupied spin-orbital indices."""
    occ = []
    q = 0
    while det:
        if det & 1:
            occ.append(q)
        det >>= 1
        q += 1
    return occ


def det_from_occupied(orbitals) -> int:
    det = 0
    for q in orbitals:
        if det >> q & 1:
            raise ValueError(f"orbital {q} listed twice")
        det |= 1 << q
    return det


def count_up_dn(det: int) -> tuple[int, int]:
    up = (det & _EVEN_BITS).bit_count()
    return up, det.bit_count() - up


def apply_string(dets, annihilations, creations) -> tuple:
    """Apply each of S strings to every determinant of a uint64 array: a_q for
    q in annihilations[s], in order, then a†_q for q in creations[s].  Returns
    (new dets, phases +-1, annihilated), each (S, len(dets)); where annihilated,
    det and phase mean nothing.  A string flips fixed bits and needs fixed
    values on the bits it touches; its phase is the parity of det on the XOR
    of its masks (bit - 1), corrected for the bits it flipped under each.
    """
    table = []                  # per string: flip, need, want, low, odd
    for ann, cre in zip(annihilations, creations):
        flip = need = want = low = odd = bad = 0
        for q, filled in [(int(q), 1) for q in ann] + [(int(q), 0) for q in cre]:
            bit, req = 1 << q, ((flip >> q & 1) ^ filled) << q   # det's bit q must be req
            bad |= bool(need & bit) and want & bit != req
            need, want, low = need | bit, want | req, low ^ (bit - 1)
            odd ^= (flip & (bit - 1)).bit_count() & 1   # bits flipped under the mask
            flip ^= bit
        table.append((flip, 0, 1, low, odd) if bad else (flip, need, want, low, odd))
    flip, need, want, low, odd = np.array(table, dtype=np.uint64).reshape(-1, 5).T[..., None]
    parity = (np.bitwise_count(dets & low) ^ odd) & 1
    return dets ^ flip, np.where(parity, -1, 1), dets & need != want


def lookup(basis: np.ndarray, dets) -> np.ndarray:
    """Position in `basis` (a uint64 array, any order) of each of `dets`, -1 where absent."""
    order = np.argsort(basis)
    at = order[np.searchsorted(basis, dets, sorter=order).clip(max=len(basis) - 1)]
    return np.where(basis[at] == dets, at, -1)


def _first_occurrence(keys) -> np.ndarray:
    """Index of each key's first occurrence, a position in first-occurrence order."""
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    return first[inverse]


def _merge(keys, rows, vals) -> tuple:
    """Sum the values of equal (key, row) pairs, each sum a left fold from 0 in
    input order, as dense vector sums run (np.add.reduceat would regroup).
    Returns the input index of each pair's first entry and its sum, sorted
    by (first occurrence of the key, row), zero sums dropped."""
    pos = _first_occurrence(keys)
    order = np.lexsort((rows, pos))
    start = np.flatnonzero(np.diff(pos[order], prepend=-1) | np.diff(rows[order], prepend=-1))
    size = np.diff(np.append(start, len(order)))
    total = np.zeros(len(start), dtype=complex)
    for j in range(size.max(initial=0)):
        live = np.flatnonzero(size > j)
        total[live] += vals[order[start[live] + j]]
    keep = total != 0
    return order[start[keep]], total[keep]


def enumerate_determinants(n_so: int, n_up: int, n_dn: int) -> list[int]:
    """All determinants of the (n_up, n_dn) sector, ascending bitmask order."""
    if n_so % 2 or n_so <= 0 or n_so > _MAX_SPIN_ORBITALS:
        raise SectorError(f"need an even spin-orbital count in 2..{_MAX_SPIN_ORBITALS}, got {n_so}")
    n_sp = n_so // 2
    if not (0 <= n_up <= n_sp and 0 <= n_dn <= n_sp):
        raise SectorError(f"sector ({n_up},{n_dn}) does not fit in {n_sp} spatial orbitals")
    ups = [det_from_occupied(2 * p for p in c) for c in itertools.combinations(range(n_sp), n_up)]
    dns = [det_from_occupied(2 * p + 1 for p in c) for c in itertools.combinations(range(n_sp), n_dn)]
    return sorted(u | d for u in ups for d in dns)


def aufbau_reference(n_spatial: int, n_up: int, n_dn: int) -> int:
    """Lowest-index fill: up electrons in spatials 0..n_up-1, down in 0..n_dn-1."""
    return det_from_occupied(itertools.chain((2 * p for p in range(n_up)),
                                             (2 * p + 1 for p in range(n_dn))))


def _h1_key(p: int, q: int) -> tuple[int, int]:
    return (p, q) if p <= q else (q, p)


def _h2_orbit(key):
    p, q, r, s = key
    return {(p, q, r, s), (q, p, r, s), (p, q, s, r), (q, p, s, r),
            (r, s, p, q), (s, r, p, q), (r, s, q, p), (s, r, q, p)}


def _h2_key(p: int, q: int, r: int, s: int) -> tuple[int, int, int, int]:
    return min(_h2_orbit((p, q, r, s)))


def _finite(v, what: str) -> float:
    v = float(v)
    if not np.isfinite(v):
        raise ValueError(f"{what} is not finite: {v}")
    return v


@dataclass(frozen=True)
class IntegralTable:
    """One- and two-electron integrals over spatial orbitals.

    h1 is symmetric and h2 carries the 8-fold permutational symmetry of real
    orbitals; both dicts store one canonical entry per symmetry orbit.  h2
    uses chemists' index order (pq|rs).
    """

    n_spatial: int
    h1: dict
    h2: dict
    core_energy: float = 0.0

    @classmethod
    def from_entries(cls, n_spatial, h1_entries, h2_entries, core_energy=0.0, tol=1e-10):
        """Build from (p,q,value) / (p,q,r,s,value) iterables, folding symmetry.

        Entries that disagree across a symmetry orbit by more than tol raise
        SymmetryError; a non-finite value raises ValueError.
        """
        h1 = {}
        for p, q, v in h1_entries:
            if not (0 <= p < n_spatial and 0 <= q < n_spatial):
                raise SectorError(f"h1 index ({p},{q}) outside 0..{n_spatial - 1}")
            v = _finite(v, f"h1 entry ({p},{q})")
            k = _h1_key(p, q)
            if k in h1 and abs(h1[k] - v) > tol:
                raise SymmetryError(f"h1 entry {k}: {h1[k]} vs {v}")
            h1[k] = v
        h2 = {}
        for p, q, r, s, v in h2_entries:
            for i in (p, q, r, s):
                if not 0 <= i < n_spatial:
                    raise SectorError(f"h2 index {(p, q, r, s)} outside 0..{n_spatial - 1}")
            v = _finite(v, f"h2 entry {(p, q, r, s)}")
            k = _h2_key(p, q, r, s)
            if k in h2 and abs(h2[k] - v) > tol:
                raise SymmetryError(f"h2 entry {k}: {h2[k]} vs {v}")
            h2[k] = v
        h1 = {k: v for k, v in h1.items() if v != 0.0}
        h2 = {k: v for k, v in h2.items() if v != 0.0}
        return cls(n_spatial, h1, h2, _finite(core_energy, "core energy"))

    def h2_expanded(self):
        """Yield every distinct (p,q,r,s) index with its value (orbit unfolded)."""
        for key, v in self.h2.items():
            for idx in _h2_orbit(key):
                yield idx, v


@dataclass(frozen=True)
class ModelSpec:
    """A model Hamiltonian plus its electron sector and reference determinant."""

    integrals: IntegralTable
    n_up: int
    n_dn: int
    reference: int
    label: str = "model"

    def __post_init__(self):
        n_sp = self.integrals.n_spatial
        if not (0 <= self.n_up <= n_sp and 0 <= self.n_dn <= n_sp):
            raise SectorError(f"sector ({self.n_up},{self.n_dn}) does not fit {n_sp} spatial orbitals")
        if self.n_up + self.n_dn == 0:
            raise SectorError("need at least one electron")
        if count_up_dn(self.reference) != (self.n_up, self.n_dn):
            raise SectorError("reference determinant is not in the requested sector")
        if self.reference >> 2 * n_sp:
            raise SectorError("reference occupies orbitals outside the space")

    @property
    def n_so(self) -> int:
        return 2 * self.integrals.n_spatial

    @property
    def n_elec(self) -> int:
        return self.n_up + self.n_dn

    def basis(self) -> list[int]:
        return enumerate_determinants(self.n_so, self.n_up, self.n_dn)

    def sector_dimension(self) -> int:
        from math import comb
        n_sp = self.integrals.n_spatial
        return comb(n_sp, self.n_up) * comb(n_sp, self.n_dn)


def build_hubbard(n_sites: int, t: float, u: float, n_up: int, n_dn: int,
                  reference: int | None = None) -> ModelSpec:
    """Open-chain Hubbard model: hopping -t on bonds, on-site repulsion u."""
    if n_sites < 1 or 2 * n_sites > _MAX_SPIN_ORBITALS:
        raise SectorError(f"site count {n_sites} unsupported")
    h1 = [(i, i + 1, -t) for i in range(n_sites - 1)]
    h2 = [(i, i, i, i, u) for i in range(n_sites)]
    table = IntegralTable.from_entries(n_sites, h1, h2)
    ref = aufbau_reference(n_sites, n_up, n_dn) if reference is None else reference
    return ModelSpec(table, n_up, n_dn, ref, label=f"hubbard(L={n_sites},t={t:g},U={u:g})")


def build_pairing(n_levels: int, spacing: float, g: float, n_pairs: int,
                  reference: int | None = None) -> ModelSpec:
    """Picket-fence pairing model: levels p*spacing, pair scattering -g.

    The -g (pq|pq) entries are stored with the full 8-fold symmetry of the
    integral table, which adds the symmetry-implied exchange images acting on
    broken-pair determinants; seniority stays conserved.
    """
    if n_levels < 1 or 2 * n_levels > _MAX_SPIN_ORBITALS:
        raise SectorError(f"level count {n_levels} unsupported")
    if not 0 <= n_pairs <= n_levels:
        raise SectorError(f"{n_pairs} pairs do not fit {n_levels} levels")
    h1 = [(p, p, spacing * p) for p in range(n_levels)]
    h2 = [(p, q, p, q, -g) for p in range(n_levels) for q in range(p, n_levels)]
    table = IntegralTable.from_entries(n_levels, h1, h2)
    ref = aufbau_reference(n_levels, n_pairs, n_pairs) if reference is None else reference
    return ModelSpec(table, n_pairs, n_pairs, ref,
                     label=f"pairing(n={n_levels},d={spacing:g},g={g:g},pairs={n_pairs})")


def csr_matrix(arg, n: int):
    """Complex n x n CSR matrix; the package's only import of scipy.sparse."""
    import scipy.sparse as sp
    return sp.csr_matrix(arg, shape=(n, n), dtype=complex)


def hamiltonian_entries(model: ModelSpec, basis: list[int]) -> tuple:
    """(rows, cols, values) of H on basis, sorted by (row, col), values complex.

    H = sum_pq h1[p,q] a†_pσ a_qσ
      + 1/2 sum_pqrs (pq|rs) a†_pσ a†_rτ a_sτ a_qσ  + core.

    The basis must be closed under H (any spin-conserving sector union is).
    Entries at or below 1e-15 of the largest absolute integral, core energy
    included, are dropped.
    """
    ints = model.integrals
    # the core energy is the empty string; a zero core adds 0.0 to a fold from 0
    strings = [((), (), ints.core_energy)]
    strings += [((so_index(q, s),), (so_index(p, s),), v)
                for (p, q), v in ints.h1.items() for s in (UP, DOWN)]
    strings += [((so_index(p, s),), (so_index(q, s),), v)
                for (p, q), v in ints.h1.items() if p != q for s in (UP, DOWN)]
    strings += [((so_index(q, s), so_index(ss, t)), (so_index(r, t), so_index(p, s)), 0.5 * v)
                for (p, q, r, ss), v in ints.h2_expanded()
                for s in (UP, DOWN) for t in (UP, DOWN)]
    annihilations, creations, coeffs = zip(*strings)
    dets = np.array(basis, dtype=np.uint64)
    new, phase, gone = apply_string(dets, annihilations, creations)
    col, k = np.nonzero(~gone.T)                 # by column, then by string
    row = lookup(dets, new[k, col])
    if (row < 0).any():
        lost = int(new[k, col][row < 0][0])
        raise SectorError(f"basis not closed: reached determinant {lost:#x}")
    idx, total = _merge(col, row, np.array(coeffs)[k] * phase[k, col])

    cut = 1e-15 * max(map(abs, [ints.core_energy, *ints.h1.values(), *ints.h2.values()]))
    keep = np.abs(total) > cut
    row, col, total = row[idx[keep]], col[idx[keep]], total[keep]
    order = np.lexsort((col, row))
    return row[order], col[order], total[order]


def assemble_hamiltonian(model: ModelSpec, basis: list[int] | None = None):
    """`hamiltonian_entries` on a basis (default: the model's sector) as CSR."""
    basis = model.basis() if basis is None else basis
    rows, cols, vals = hamiltonian_entries(model, basis)
    return csr_matrix((vals, (rows, cols)), len(basis))


# --- plain-text integral files ---------------------------------------------
#
#   # comment lines start with '#'
#   norb=<int> nup=<int> ndn=<int> core=<float>
#   <value> p q 0 0        one-electron h1[p-1,q-1]   (indices 1-based)
#   <value> p q r s        two-electron (pq|rs), chemists' order
#
# One entry per symmetry orbit suffices; load completes the 8-fold closure.

_HEADER_RE = re.compile(r"^norb=(\d+)\s+nup=(\d+)\s+ndn=(\d+)\s+core=(\S+)$")


def load_integrals(path, n_up: int | None = None, n_dn: int | None = None,
                   reference: int | None = None, label: str | None = None) -> ModelSpec:
    """Read an integral file; optional arguments override the header sector."""
    header = None
    h1_entries, h2_entries = [], []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if header is None:
                m = _HEADER_RE.match(line)
                if not m:
                    raise IntegralFormatError(f"{path}:{lineno}: expected header "
                                              f"'norb=<int> nup=<int> ndn=<int> core=<float>'")
                try:
                    header = (int(m.group(1)), int(m.group(2)), int(m.group(3)), float(m.group(4)))
                except ValueError as exc:
                    raise IntegralFormatError(f"{path}:{lineno}: bad header value ({exc})") from None
                continue
            parts = line.split()
            if len(parts) != 5:
                raise IntegralFormatError(f"{path}:{lineno}: expected '<value> p q r s', got {len(parts)} fields")
            try:
                v = float(parts[0])
                p, q, r, s = (int(x) for x in parts[1:])
            except ValueError as exc:
                raise IntegralFormatError(f"{path}:{lineno}: {exc}") from None
            if r == 0 and s == 0:
                if p < 1 or q < 1:
                    raise IntegralFormatError(f"{path}:{lineno}: one-electron indices must be >= 1")
                h1_entries.append((p - 1, q - 1, v))
            else:
                if min(p, q, r, s) < 1:
                    raise IntegralFormatError(f"{path}:{lineno}: two-electron indices must be >= 1")
                h2_entries.append((p - 1, q - 1, r - 1, s - 1, v))
    if header is None:
        raise IntegralFormatError(f"{path}: empty file, header line missing")
    norb, hdr_up, hdr_dn, core = header
    try:
        table = IntegralTable.from_entries(norb, h1_entries, h2_entries, core)
    except ValueError as exc:
        raise type(exc)(f"{path}: {exc}") from None
    n_up = hdr_up if n_up is None else n_up
    n_dn = hdr_dn if n_dn is None else n_dn
    ref = aufbau_reference(norb, n_up, n_dn) if reference is None else reference
    if label is None:
        label = str(path)
    return ModelSpec(table, n_up, n_dn, ref, label=label)


def save_integrals(model: ModelSpec, path) -> None:
    """Write the canonical (unique) integral entries, 17 significant digits."""
    ints = model.integrals
    with open(path, "w") as fh:
        fh.write(f"# {model.label}\n")
        fh.write(f"norb={ints.n_spatial} nup={model.n_up} ndn={model.n_dn} "
                 f"core={ints.core_energy:.17g}\n")
        for (p, q), v in sorted(ints.h1.items()):
            fh.write(f"{v:.17g} {p + 1} {q + 1} 0 0\n")
        for (p, q, r, s), v in sorted(ints.h2.items()):
            fh.write(f"{v:.17g} {p + 1} {q + 1} {r + 1} {s + 1}\n")


# --- JSON round trip for the CLI --------------------------------------------

def model_to_dict(model: ModelSpec) -> dict:
    ints = model.integrals
    return {
        "label": model.label,
        "n_spatial": ints.n_spatial,
        "n_up": model.n_up,
        "n_dn": model.n_dn,
        "core_energy": ints.core_energy,
        "reference": sorted(occupied_orbitals(model.reference)),
        "h1": [[p, q, v] for (p, q), v in sorted(ints.h1.items())],
        "h2": [[p, q, r, s, v] for (p, q, r, s), v in sorted(ints.h2.items())],
    }


def model_from_dict(data: dict) -> ModelSpec:
    table = IntegralTable.from_entries(
        data["n_spatial"],
        [(p, q, v) for p, q, v in data["h1"]],
        [(p, q, r, s, v) for p, q, r, s, v in data["h2"]],
        data.get("core_energy", 0.0))
    return ModelSpec(table, data["n_up"], data["n_dn"],
                     det_from_occupied(data["reference"]), label=data.get("label", "model"))
