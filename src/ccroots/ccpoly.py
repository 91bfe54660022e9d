"""Projected coupled-cluster equations as exact polynomial systems.

For amplitudes t over an excitation graph, the projected residuals
r_mu(t) = <Phi_mu| e^{-T} H e^{T} |Phi_0> are evaluated by applying the
nilpotent series of e^{T} and e^{-T} to vectors, and extracted as exact
polynomials of total degree <= 4: the commutator series of a two-body H,
sum_k (1/k!) ad_T^k(H), terminates at k = 4.  A CCSD-type system can be
rewritten as an equivalent quadratic system on the pair-product variety by
introducing one auxiliary variable per double excitation.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from json.encoder import encode_basestring_ascii

import numpy as np

from .excitations import ExcitationGraph, build_graph, excitation_map
from .model import (ModelSpec, _first_occurrence, _merge, csr_matrix, enumerate_determinants,
                    hamiltonian_entries)

_BCH_ORDER = 4          # nested commutators of a two-body H vanish past this
_PRUNE_REL = 1e-14      # coefficient prune threshold, relative per equation


class QuadratizationError(RuntimeError):
    """A degree >= 3 monomial resisted rewriting through pair auxiliaries."""


# --- monomials ---------------------------------------------------------------
# A monomial is a tuple of (variable, exponent) pairs sorted by variable.

def mono_degree(mono) -> int:
    return sum(e for _, e in mono)


def mono_mul(m1, m2):
    d = dict(m1)
    for v, e in m2:
        d[v] = d.get(v, 0) + e
    return tuple(sorted(d.items()))


def mono_sort_key(mono, n_vars):
    exps = [0] * n_vars
    for v, e in mono:
        exps[v] = e
    return (mono_degree(mono), tuple(exps))


class Polynomial:
    """Sparse multivariate polynomial: monomial -> complex coefficient."""

    def __init__(self, terms: dict | None = None):
        self.terms = dict(terms) if terms else {}

    def degree(self) -> int:
        return max((mono_degree(m) for m in self.terms), default=0)

    def diff(self, var) -> "Polynomial":
        out = {}
        for mono, c in self.terms.items():
            d = dict(mono)
            e = d.get(var, 0)
            if not e:
                continue
            d[var] -= 1
            if d[var] == 0:
                del d[var]
            m2 = tuple(sorted(d.items()))
            out[m2] = out.get(m2, 0j) + c * e
        return Polynomial(out)

    def pruned(self, rel_tol: float = _PRUNE_REL) -> "Polynomial":
        if not self.terms:
            return Polynomial()
        cut = rel_tol * max(abs(c) for c in self.terms.values())
        return Polynomial({m: c for m, c in self.terms.items() if abs(c) > cut})

    def sorted_terms(self, n_vars: int):
        return sorted(self.terms.items(), key=lambda mc: mono_sort_key(mc[0], n_vars))

    def add_scaled(self, other: "Polynomial", factor: complex) -> None:
        if factor == 0:
            return
        for mono, c in other.terms.items():
            self.terms[mono] = self.terms.get(mono, 0j) + factor * c

    def mul(self, other: "Polynomial") -> "Polynomial":
        out = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = mono_mul(m1, m2)
                out[m] = out.get(m, 0j) + c1 * c2
        return Polynomial(out)


def _monomial_table(polys: list, n_vars: int) -> tuple:
    """Every monomial of `polys` in graded-lex order, compiled for
    `_evaluate_table`: the power column 0..dmax, each monomial's factors
    x_v^e as flat (e, v) indices into the power table in variable order
    (padded with x_0^0 = 1), and a (monomials, len(polys)) coefficient matrix
    with one column per polynomial."""
    keyed = sorted({(mono_sort_key(m, n_vars), m) for p in polys for m in p.terms})
    row = {m: i for i, (_, m) in enumerate(keyed)}
    factors = np.zeros((len(row), max(map(len, row), default=0)), dtype=np.intp)
    for mono, i in row.items():
        factors[i, :len(mono)] = [e * n_vars + v for v, e in mono]
    coeffs = np.zeros((len(row), len(polys)), dtype=complex)
    for j, p in enumerate(polys):
        for mono, c in p.terms.items():
            coeffs[row[mono], j] = c
    dmax = max((e for mono in row for _, e in mono), default=0)
    return np.arange(dmax + 1)[:, None], factors, coeffs


def _monomials(table: tuple, x) -> np.ndarray:
    """Every monomial of a table at x (..., n_vars): (..., n_monomials), so
    `_monomials(table, x) @ table[2]` is every polynomial of the table.

    A monomial is the product of its own factors only: the unit powers the
    other variables would contribute change no finite product.  A single point
    is indexed without the ellipsis, whose handling costs more than the gather;
    both forms give the same array."""
    power, factors = table[:2]
    powers = np.asarray(x, dtype=complex)[..., None, :] ** power
    flat = powers.reshape(powers.shape[:-2] + (-1,))
    return (flat[factors] if flat.ndim == 1 else flat[..., factors]).prod(axis=-1)


def _with_jacobian(polys: list, n_vars: int) -> list:
    """The polynomials, then their partial derivatives row-major."""
    return polys + [p.diff(v) for p in polys for v in range(n_vars)]


class PolynomialSystem:
    """Square system of polynomials with named variables and metadata."""

    def __init__(self, equations: list, var_names: list, metadata: dict | None = None):
        self.equations = list(equations)
        self.var_names = list(var_names)
        self.metadata = dict(metadata or {})
        self._compiled = self._jac_compiled = self._homotopy_compiled = None  # built on first use

    @property
    def n_vars(self) -> int:
        return len(self.var_names)

    @property
    def n_eqs(self) -> int:
        return len(self.equations)

    def degrees(self) -> list:
        return [eq.degree() for eq in self.equations]

    def evaluate(self, x) -> np.ndarray:
        """Evaluate at x of shape (n_vars,) or batched (..., n_vars)."""
        if self._compiled is None:
            self._compiled = _monomial_table(self.equations, self.n_vars)
        return _monomials(self._compiled, x) @ self._compiled[2]

    def evaluate_and_jacobian(self, x) -> tuple:
        """F (..., n_eqs) and its Jacobian (..., n_eqs, n_vars) from one table pass."""
        if self._jac_compiled is None:
            self._jac_compiled = _monomial_table(_with_jacobian(self.equations, self.n_vars),
                                                 self.n_vars)
        out = _monomials(self._jac_compiled, x) @ self._jac_compiled[2]
        n = self.n_eqs
        return out[..., :n], out[..., n:].reshape(out.shape[:-1] + (n, self.n_vars))

    def jacobian(self, x) -> np.ndarray:
        """Jacobian at x; batched like evaluate, result (..., n_eqs, n_vars)."""
        return self.evaluate_and_jacobian(x)[1]

    def total_degree_table(self, degrees) -> tuple:
        """(table, C_F, C_G) of F and J, and of G_i = x_i^{d_i} - 1 and its
        Jacobian, on one monomial table; C_F and C_G have one row per output
        (n values, then J row-major) and one column per monomial."""
        key = tuple(int(d) for d in degrees)
        if self._homotopy_compiled is None or self._homotopy_compiled[0] != key:
            n = self.n_vars
            start = [Polynomial({((i, d),): 1.0, (): -1.0}) for i, d in enumerate(key)]
            power, factors, coeffs = _monomial_table(
                _with_jacobian(self.equations, n) + _with_jacobian(start, n), n)
            c_f, c_g = np.vsplit(np.ascontiguousarray(coeffs.T), 2)
            self._homotopy_compiled = key, ((power, factors), c_f, c_g)
        return self._homotopy_compiled[1]

    # serialization: term order is graded lexicographic in the exponent vector
    def to_dict(self) -> dict:
        return {"variables": list(self.var_names),
                "equations": [_poly_terms_for_json(eq, self.var_names)
                              for eq in self.equations],
                "metadata": self.metadata}

    def to_json(self) -> str:
        """Exactly `json.dumps(self.to_dict(), indent=2)`, with the terms written
        directly: the indenting encoder runs in pure Python."""
        eqs = [_terms_json(_poly_terms_for_json(eq, self.var_names)) for eq in self.equations]
        text = json.dumps({"variables": self.var_names, "equations": [],
                           "metadata": self.metadata}, indent=2)
        if not eqs:
            return text
        # JSON strings hold no raw newline and metadata keys sit deeper, so this is the key
        return text.replace('\n  "equations": []',
                            '\n  "equations": [\n' + ",\n".join(eqs) + "\n  ]", 1)

    @classmethod
    def from_dict(cls, data: dict) -> "PolynomialSystem":
        names = list(data["variables"])
        eqs = [poly_from_json_terms(terms, names) for terms in data["equations"]]
        return cls(eqs, names, data.get("metadata"))

    @classmethod
    def from_json(cls, text: str) -> "PolynomialSystem":
        return cls.from_dict(json.loads(text))


# --- evaluation workspace ----------------------------------------------------

class Workspace:
    """One (model, graph) pair: basis, H and the signed excitation map.

    X_k sends basis column c to row x_dst[k, c] with phase x_phase[k, c] = +-1;
    where X_k annihilates c the phase is 0 and x_dst is the discarded slot dim.
    """

    def __init__(self, model: ModelSpec, graph: ExcitationGraph):
        self.model = model
        self.graph = graph
        self.basis = enumerate_determinants(model.n_so, model.n_up, model.n_dn)
        self.index = {d: i for i, d in enumerate(self.basis)}
        self.dim = len(self.basis)
        self.ref_idx = self.index[model.reference]
        self.h_entries = hamiltonian_entries(model, self.basis)
        self.x_dst, self.x_phase = excitation_map(graph, graph.indices,
                                                  np.array(self.basis, dtype=np.uint64))
        self.target_idx = np.array([self.index[mu.target(model.reference)]
                                    for mu in graph.indices])
        k, col = np.nonzero(self.x_phase)         # T's CSR pattern, by (row, col)
        order = np.lexsort((col, self.x_dst[k, col]))
        self.t_k, self.t_col = k[order], col[order].astype(np.int32)   # scipy's index dtype
        self.t_row, self.t_phase = self.x_dst[k, col][order], self.x_phase[k, col][order]
        self.n_elec = model.n_elec
        self.e0 = np.zeros(self.dim, dtype=complex)
        self.e0[self.ref_idx] = 1.0

    def excite(self, v, columns=slice(None)) -> np.ndarray:
        """X_k v for every k in `columns` (default all): (..., dim) -> (..., K, dim)."""
        v = np.asarray(v, dtype=complex)
        dst, phase = self.x_dst[columns], self.x_phase[columns]
        out = np.zeros(v.shape[:-1] + (len(dst), self.dim + 1), dtype=complex)
        out[..., np.arange(len(dst))[:, None], dst] = phase * v[..., None, :]
        return out[..., :self.dim]

    @cached_property
    def H(self):
        """H as a CSR matrix, built on first use."""
        rows, cols, vals = self.h_entries
        return csr_matrix((vals, (rows, cols)), self.dim)

    def t_operator(self, t):
        """T = sum_k t_k X_k as CSR, on the precomputed pattern; zero
        amplitudes store nothing."""
        data = self.t_phase * np.asarray(t, dtype=complex)[self.t_k]
        keep = data != 0
        indptr = np.searchsorted(self.t_row[keep], np.arange(self.dim + 1)).astype(np.int32)
        return csr_matrix((data[keep], self.t_col[keep], indptr), self.dim)

    def expm_apply(self, T, v: np.ndarray, sign: int = 1) -> np.ndarray:
        """e^{sign T} v by the nilpotent series (T raises excitation rank), no -T built."""
        w = v.astype(complex)
        term = w
        for k in range(1, self.n_elec + 1):
            term = T @ term / (sign * k)
            if not np.any(term):
                break
            w = w + term
        return w

    def residual_vector(self, t, path: str = "expm") -> np.ndarray:
        """e^{-T} H e^{T} |ref> on the determinant basis, by the nilpotent series."""
        if path != "expm":
            raise ValueError(f"unknown path {path!r}")
        T = self.t_operator(t)
        return self.expm_apply(T, self.H @ self.expm_apply(T, self.e0), -1)

    def residuals(self, t) -> np.ndarray:
        """Projected residuals <Phi_mu| e^{-T} H e^{T} |ref> in graph order."""
        return self.residual_vector(t)[self.target_idx]

    def energy(self, t) -> complex:
        """CC energy <ref| e^{-T} H e^{T} |ref> (includes any core energy)."""
        return complex(self.residual_vector(t)[self.ref_idx])

    def residuals_and_jacobian(self, t, columns=slice(None)) -> tuple:
        """Residuals and their Jacobian from one T, e^{T}|ref> and H e^{T}|ref>.

        d r_mu / d t_nu = <Phi_mu| e^{-T} [H, X_nu] e^{T} |ref>, for the nu in
        `columns` (default all): each column alone, as bits of the full Jacobian.
        """
        T = self.t_operator(t)
        u = self.expm_apply(T, self.e0)
        hu = self.H @ u
        y = self.H @ self.excite(u, columns).T - self.excite(hu, columns).T
        return (self.expm_apply(T, hu, -1)[self.target_idx],
                self.expm_apply(T, y, -1)[self.target_idx])

    def jacobian(self, t) -> np.ndarray:
        """Analytic Jacobian d r_mu / d t_nu in graph order."""
        return self.residuals_and_jacobian(t)[1]


@dataclass
class CCSystem:
    """Generated CC polynomial system plus its provenance."""

    model: ModelSpec
    graph: ExcitationGraph
    polynomials: PolynomialSystem
    energy_poly: Polynomial
    _ws: Workspace | None = field(default=None, repr=False)

    @property
    def workspace(self) -> Workspace:
        if self._ws is None:
            self._ws = Workspace(self.model, self.graph)
        return self._ws


# --- exact polynomial extraction ---------------------------------------------
# A level of the e^{+-T} series is three arrays (key, col, val), one entry per
# nonzero (monomial, determinant), sorted by (first occurrence of the key,
# col).  A key is _BCH_ORDER sorted uint16 variable slots (_EMPTY if unused)
# viewed as one uint64; it is a multiset, as t_nu^2 occurs.

_EMPTY = 0xFFFF


def _excite_level(ws: Workspace, level: tuple, scale: float) -> tuple:
    """scale * T(level) over the keys below the degree cap; the products run
    in (source key, nu) order."""
    keys, cols, vals = level
    live = np.flatnonzero(keys.view(np.uint16).reshape(-1, _BCH_ORDER)[:, -1] == _EMPTY)
    nu, i = np.nonzero(ws.x_phase[:, cols[live]])
    order = np.argsort(_first_occurrence(keys)[live[i]], kind="stable")
    nu, i = nu[order], live[i[order]]
    slots = keys[i].view(np.uint16).reshape(-1, _BCH_ORDER)
    slots[:, -1] = nu                       # the last slot is empty below the cap
    slots.sort(axis=1)
    new, rows = slots.view(np.uint64).ravel(), ws.x_dst[nu, cols[i]]
    idx, total = _merge(new, rows, scale * (ws.x_phase[nu, cols[i]] * vals[i]))
    return new[idx], rows[idx], total


def _exp_series(ws: Workspace, level: tuple, sign: float) -> tuple:
    """e^{sign T} on a level; a monomial reached at several levels is summed
    in level order."""
    levels = [level]
    while len(levels[-1][0]):
        levels.append(_excite_level(ws, levels[-1], sign / len(levels)))
    keys, cols, vals = (np.concatenate(a) for a in zip(*levels))
    idx, total = _merge(keys, cols, vals)
    return keys[idx], cols[idx], total


def _apply_h(ws: Workspace, level: tuple) -> tuple:
    """H on a level through its CSC arrays, each sum over ascending columns."""
    h_rows, h_cols, h_vals = ws.h_entries
    order = np.lexsort((h_rows, h_cols))
    indptr = np.searchsorted(h_cols[order], np.arange(ws.dim + 1))
    indices, data = h_rows[order], h_vals[order]
    keys, cols, vals = level
    lo, n = indptr[cols], np.diff(indptr)[cols]
    i = np.repeat(np.arange(len(cols)), n)
    j = lo[i] + np.arange(n.sum()) - np.repeat(np.cumsum(n) - n, n)
    idx, total = _merge(keys[i], indices[j], data[j] * vals[i])
    return keys[i][idx], indices[j][idx], total


def generate_system(model: ModelSpec, graph: ExcitationGraph) -> CCSystem:
    """Extract every projected residual as an exact polynomial in t.

    The vector-valued polynomial e^{-T} H e^{T}|ref> is expanded over
    monomials, repeats included (t_nu^2 comes from nu in e^{T} times nu in
    e^{-T}); monomials above total degree 4 are never formed, which is exact
    because the commutator series of a two-body H terminates there.
    Coefficients below 1e-14 of each equation's largest are pruned.
    """
    ws = Workspace(model, graph)      # x_phase is K x dim, so K stays far below _EMPTY
    psi = _exp_series(ws, (np.full(_BCH_ORDER, _EMPTY, dtype=np.uint16).view(np.uint64),
                           np.array([ws.ref_idx]), np.ones(1, dtype=complex)), 1.0)
    keys, cols, vals = _exp_series(ws, _apply_h(ws, psi), -1.0)

    rows = np.append(ws.target_idx, ws.ref_idx)   # every equation, then the energy
    eq_of = np.full(ws.dim, -1)
    eq_of[rows] = np.arange(len(rows))
    sel = np.flatnonzero(eq_of[cols] >= 0)
    uniq, inverse = np.unique(keys[sel], return_inverse=True)
    monos = [tuple((v, s.count(v)) for v in sorted(set(s) - {_EMPTY}))
             for s in uniq.view(np.uint16).reshape(-1, _BCH_ORDER).tolist()]
    terms = [{} for _ in rows]
    for m, eq, v in zip(inverse.tolist(), eq_of[cols[sel]].tolist(), vals[sel]):
        terms[eq][monos[m]] = v
    *eqs, energy_poly = (Polynomial(d).pruned() for d in terms)

    names = graph.names()
    meta = {
        "kind": "cc",
        "model": model.label,
        "rank_max": graph.rank_max,
        "rank_counts": {str(r): c for r, c in sorted(graph.rank_counts().items())},
        "reference": [q for q in range(model.n_so) if model.reference >> q & 1],
        "energy": _poly_terms_for_json(energy_poly, names),
        "bounds": root_bounds(graph).as_dict(),
    }
    system = PolynomialSystem(eqs, names, meta)
    return CCSystem(model, graph, system, energy_poly, ws)


def _poly_terms_for_json(poly: Polynomial, names: list) -> list:
    return [[c.real, c.imag, {names[v]: e for v, e in mono}]
            for mono, c in poly.sorted_terms(len(names))]


def _number(x) -> str:
    """`json.dumps(x)` for a number, without the encoder's set-up."""
    if isinstance(x, float) and math.isfinite(x):
        return float.__repr__(x)
    return int.__repr__(x) if type(x) is int else json.dumps(x)


def _terms_json(terms: list) -> str:
    """One equation's terms as `json.dumps(..., indent=2)` writes them two levels deep."""
    items = []
    for re_c, im_c, mono in terms:
        m = ",\n".join(f"          {encode_basestring_ascii(v)}: {_number(e)}"
                       for v, e in mono.items())
        items.append(f"      [\n        {_number(re_c)},\n        {_number(im_c)},\n        "
                     + ("{\n" + m + "\n        }" if mono else "{}") + "\n      ]")
    return "    [\n" + ",\n".join(items) + "\n    ]" if items else "    []"


def poly_from_json_terms(terms: list, names: list) -> Polynomial:
    pos = {n: i for i, n in enumerate(names)}
    out = {}
    for re_c, im_c, mono in terms:
        c = complex(re_c, im_c)
        if not np.isfinite(c):
            raise ValueError(f"non-finite coefficient {c} in term {mono}")
        if any(type(e) not in (int, float) or e < 0 or e % 1 for e in mono.values()):
            raise ValueError(f"exponents must be non-negative whole numbers: {mono}")
        if not mono.keys() <= pos.keys():
            raise ValueError(f"unknown variables {sorted(mono.keys() - pos.keys())}")
        key = tuple(sorted((pos[n], int(e)) for n, e in mono.items()))
        out[key] = out.get(key, 0j) + c
    return Polynomial(out)


# --- root-count bounds --------------------------------------------------------

@dataclass(frozen=True)
class RootBounds:
    """Exact integer bounds on the number of CC roots (multiplicity counted)."""

    n_amplitudes: int
    n_singles: int
    n_doubles: int
    bezout_total: int
    bezout_sd: int | None
    quadratic: int | None

    def as_dict(self) -> dict:
        return {"n_amplitudes": self.n_amplitudes, "n_singles": self.n_singles,
                "n_doubles": self.n_doubles, "bezout_total": str(self.bezout_total),
                "bezout_sd": None if self.bezout_sd is None else str(self.bezout_sd),
                "quadratic": None if self.quadratic is None else str(self.quadratic)}


def root_bounds(obj) -> RootBounds:
    """Bezout-type bounds: 4^K always; 3^{n_s} 4^{n_d} and 2^{n_s + 2 n_d}
    for CCSD-type graphs (exact big integers)."""
    graph = obj.graph if isinstance(obj, CCSystem) else obj
    counts = graph.rank_counts()
    k = len(graph)
    n_s = counts.get(1, 0)
    n_d = counts.get(2, 0)
    total = 4 ** k
    if set(counts) <= {1, 2}:
        return RootBounds(k, n_s, n_d, total, 3 ** n_s * 4 ** n_d, 2 ** (n_s + 2 * n_d))
    return RootBounds(k, n_s, n_d, total, None, None)


# --- quadratization ------------------------------------------------------------

class _PairBlocks:
    """Pair-minor bookkeeping for the quadratization of a CCSD-type graph.

    The auxiliary variable of the double [i,j -> a,b] (indices sorted) is

        y[i,j->a,b] = t[i->a] t[j->b] - t[i->b] t[j->a]

    where a pairing that fails to conserve spin is not a graph variable and
    contributes zero.  For a hole pair and particle pair, `block` returns the
    auxiliary plus a reference matching such that the sum of both matched
    single products equals sign * y on the lift; phases of operator products
    are read off the workspace's signed excitation map, so no separate sign
    rules are needed.
    """

    def __init__(self, cc: CCSystem):
        graph = cc.graph
        self.ws = cc.workspace
        counts = graph.rank_counts()
        if set(counts) != {1, 2}:
            raise QuadratizationError(
                "quadratization needs a CCSD-type graph (ranks 1 and 2)")
        self.n_s, self.n_d = counts[1], counts[2]
        self.by_hp = {(mu.holes[0], mu.particles[0]): k
                      for k, mu in enumerate(graph.indices) if mu.rank == 1}
        self.double_pos = {(mu.holes, mu.particles): k
                           for k, mu in enumerate(graph.indices) if mu.rank == 2}

    def seq_phase(self, ops) -> tuple[int, int]:
        """Apply graph operators in sequence to the reference; return
        (basis index reached, accumulated phase +-1)."""
        idx, ph = self.ws.ref_idx, 1
        for k in ops:
            if not self.ws.x_phase[k, idx]:
                raise QuadratizationError(f"operator {k} annihilates determinant {idx}")
            idx, ph = int(self.ws.x_dst[k, idx]), ph * int(self.ws.x_phase[k, idx])
        return idx, ph

    def block(self, holes, particles):
        """Auxiliary of the 2x2 block, or None if no matching conserves spin.

        Returns (aux graph position, reference matching ops, sign) with
        sum over matchings m of phase(m) * product(m) = phase(ref) * sign * y
        on the lift.
        """
        (i, j), (a, b) = holes, particles
        direct = (self.by_hp.get((i, a)), self.by_hp.get((j, b)))
        crossed = (self.by_hp.get((i, b)), self.by_hp.get((j, a)))
        if None not in direct:
            kd = self.double_pos[(holes, particles)]
            return kd, direct, 1
        if None not in crossed:
            kd = self.double_pos[(holes, particles)]
            return kd, crossed, -1
        return None

    def aux_var(self, double_pos: int) -> int:
        return self.n_s + self.n_d + (double_pos - self.n_s)

    def defining_polys(self) -> list:
        out = []
        for k in sorted(self.double_pos.values()):
            mu = self.ws.graph.indices[k]
            (i, j), (a, b) = mu.holes, mu.particles
            terms = {((self.aux_var(k), 1),): 1.0 + 0j}
            d = (self.by_hp.get((i, a)), self.by_hp.get((j, b)))
            c = (self.by_hp.get((i, b)), self.by_hp.get((j, a)))
            if None not in d:
                key = tuple(sorted(((d[0], 1), (d[1], 1))))
                terms[key] = terms.get(key, 0j) - 1.0
            if None not in c:
                key = tuple(sorted(((c[0], 1), (c[1], 1))))
                terms[key] = terms.get(key, 0j) + 1.0
            out.append(Polynomial(terms))
        return out


def _pairs2(seq):
    return [((seq[i], seq[j]), tuple(x for n, x in enumerate(seq) if n not in (i, j)))
            for i in range(len(seq)) for j in range(i + 1, len(seq))]


def _wave_expansion(blocks: _PairBlocks) -> dict:
    """Coefficient of each determinant of rank <= 4 in e^T|ref>, written as a
    polynomial of degree <= 2 in the extended variables x = (t, y).

    Each rank-r coefficient is a sum over square-free excitation subsets;
    grouping the single-excitation matchings of a 2x2 block collapses them
    into one pair auxiliary (a Laplace expansion of the matching determinant
    along fixed hole rows), so the result is quadratic by construction.
    """
    ws = blocks.ws
    ref = ws.model.reference
    psi = {}

    def add(poly, d_idx, ops, a, b, sign=1):
        """poly += phase(ops) * sign * x_a x_b, where ops reach determinant d_idx."""
        idx, ph = blocks.seq_phase(ops)
        assert idx == d_idx
        m = mono_mul(((a, 1),), ((b, 1),))
        poly.terms[m] = poly.terms.get(m, 0j) + ph * sign

    for d_idx, det in enumerate(ws.basis):
        hol = [q for q in range(ws.model.n_so) if (ref >> q & 1) and not (det >> q & 1)]
        par = [q for q in range(ws.model.n_so) if (det >> q & 1) and not (ref >> q & 1)]
        r = len(par)
        if r > 4:
            continue
        poly = Polynomial()
        if r == 0:
            poly.terms[()] = 1.0 + 0j
        elif r == 1:
            s = blocks.by_hp.get((hol[0], par[0]))
            if s is not None:
                poly.terms[((s, 1),)] = 1.0 + 0j
        elif r == 2:
            key = (tuple(hol), tuple(par))
            kd = blocks.double_pos.get(key)
            if kd is not None:
                poly.terms[((kd, 1),)] = 1.0 + 0j
            blk = blocks.block(tuple(hol), tuple(par))
            if blk is not None:
                kd2, ops, sign = blk
                idx, ph = blocks.seq_phase(ops)
                assert idx == d_idx
                poly.terms[((blocks.aux_var(kd2), 1),)] = complex(ph * sign)
        elif r == 3:
            # single + double splits
            for i in range(3):
                for j in range(3):
                    s = blocks.by_hp.get((hol[i], par[j]))
                    if s is None:
                        continue
                    dh = tuple(x for x in hol if x != hol[i])
                    dp = tuple(x for x in par if x != par[j])
                    kd = blocks.double_pos.get((dh, dp))
                    if kd is None:
                        continue
                    add(poly, d_idx, (s, kd), s, kd)
            # three singles: expand along the smallest hole
            h1 = hol[0]
            for j in range(3):
                s = blocks.by_hp.get((h1, par[j]))
                if s is None:
                    continue
                blk = blocks.block((hol[1], hol[2]),
                                   tuple(x for x in par if x != par[j]))
                if blk is None:
                    continue
                kd, ops, sign = blk
                add(poly, d_idx, (s,) + ops, s, blocks.aux_var(kd), sign)
        elif r == 4:
            ha, hb = (hol[0], hol[1]), (hol[2], hol[3])
            # two doubles: the block holding the smallest hole is canonical
            for j in range(1, 4):
                dh_a = (hol[0], hol[j])
                dh_b = tuple(x for x in hol[1:] if x != hol[j])
                for pa, pb in _pairs2(par):
                    ka = blocks.double_pos.get((dh_a, pa))
                    kb = blocks.double_pos.get((dh_b, pb))
                    if ka is None or kb is None:
                        continue
                    add(poly, d_idx, (ka, kb), ka, kb)
            # two singles + one double, grouped by the singles' 2x2 block
            for sh, dh in _pairs2(hol):
                for sp, dp in _pairs2(par):
                    blk = blocks.block(sh, sp)
                    kd = blocks.double_pos.get((dh, dp))
                    if blk is None or kd is None:
                        continue
                    ka, ops, sign = blk
                    add(poly, d_idx, ops + (kd,), blocks.aux_var(ka), kd, sign)
            # four singles: Laplace expansion along the two smallest holes
            for pa, pb in _pairs2(par):
                blk_a = blocks.block(ha, pa)
                blk_b = blocks.block(hb, pb)
                if blk_a is None or blk_b is None:
                    continue
                ka, ops_a, sign_a = blk_a
                kb, ops_b, sign_b = blk_b
                add(poly, d_idx, ops_a + ops_b, blocks.aux_var(ka), blocks.aux_var(kb),
                    sign_a * sign_b)
        psi[d_idx] = poly
    return psi


def _h_rows(ws: Workspace) -> list:
    """H's rows as (cols, values) pairs, columns ascending in each."""
    rows, cols, vals = ws.h_entries
    cut = np.searchsorted(rows, np.arange(1, ws.dim))
    return list(zip(np.split(cols, cut), np.split(vals, cut)))


def quadratize(cc: CCSystem) -> PolynomialSystem:
    """Rewrite a CCSD-type system as an equivalent degree <= 2 system.

    The amplitude vector is extended by one auxiliary per double excitation,
    y[i,j->a,b] = t[i->a] t[j->b] - t[i->b] t[j->a].  In the extended
    variables the coefficient of every determinant in e^T|ref> has degree
    <= 2, so the energy-subtracted projections

        <Phi_mu| (H - E(t)) e^T |ref> = 0,   E(t) = <ref| H e^T |ref>

    form a quadratic system.  These equations generate the same polynomial
    ideal as the residuals r_mu (the change of form is an invertible
    unipotent combination), hence the same roots with the same
    multiplicities.  The n_d defining equations are appended: the output has
    n_s + 2 n_d variables and equations, all of degree <= 2.
    """
    graph = cc.graph
    blocks = _PairBlocks(cc)
    ws = cc.workspace
    psi = _wave_expansion(blocks)

    rows = _h_rows(ws)

    def h_psi(i):
        """<Phi_i| H e^T |ref>, summed over the row's ascending columns."""
        f = Polynomial()
        for d_idx, hval in zip(*rows[i]):
            f.add_scaled(psi[int(d_idx)], hval)
        return f

    energy = h_psi(ws.ref_idx)
    eqs = []
    for k in range(len(graph)):
        mu_idx = int(ws.target_idx[k])
        f = h_psi(mu_idx)
        f.add_scaled(energy.mul(psi[mu_idx]), -1.0)
        eqs.append(f.pruned())
    eqs.extend(blocks.defining_polys())

    n_s, n_d = blocks.n_s, blocks.n_d
    names = graph.names() + [graph.indices[k].name().replace("t[", "y[", 1)
                             for k in range(n_s, n_s + n_d)]
    meta = dict(cc.polynomials.metadata)
    meta["kind"] = "cc-quadratized"
    meta["n_original_vars"] = len(graph)
    meta["aux"] = {names[blocks.aux_var(k)]: graph.indices[k].name()
                   for k in range(n_s, n_s + n_d)}
    meta["energy"] = _poly_terms_for_json(energy, names)
    meta["bounds"] = root_bounds(graph).as_dict()
    return PolynomialSystem(eqs, names, meta)


def cc_system_for_rank(model: ModelSpec, rank_max: int) -> CCSystem:
    """Convenience: build the graph and generate the system in one step."""
    return generate_system(model, build_graph(model, rank_max))
