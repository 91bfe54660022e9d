"""Newton-iteration basins of attraction on a complex window.

Every pixel of the window is a Newton start; converged pixels are assigned to
a root registry that is filled in deterministic row-major scan order (or
pre-seeded, e.g. from a homotopy solution set, so colors match its root
numbering).  Scans and images run one block of pixel rows at a time, so a
grid costs 8 bytes per pixel and its image, plus one block.  For multivariate
systems a one-complex-dimensional slice x = base + z * direction is scanned by
Newton on the direction-projected residual; that reduction is a heuristic
diagnostic, not an all-roots method.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .ccpoly import PolynomialSystem

_DEFAULT_MAX_ITERS = 64
_DEFAULT_TOL = 1e-12
_DEFAULT_MATCH_RADIUS = 1e-6
_MAX_PIXELS = 2048 * 2048        # bounds a grid's int32 arrays and its image
# A block of pixel rows keeps 2 MB live (one core's L2 cache) over its step's bytes
# per point: Horner's 4 complex arrays (z, dz, p, p') give 32,768 pixels a block.
_BLOCK_BYTES = 2 * 1024 * 1024
_HORNER_POINT_BYTES = 64

# color palette for root indices (cycled); brightness encodes iteration count
_PALETTE = np.array([
    (220, 60, 60),    # red
    (70, 90, 230),    # blue
    (70, 200, 90),    # green
    (230, 200, 60),   # yellow
    (200, 80, 220),   # magenta
    (70, 210, 220),   # cyan
], dtype=float)


class PolynomialParseError(ValueError):
    """Raised with the offending token and position for bad polynomial text."""


class PixelBudgetError(ValueError):
    """Scan resolution exceeds the pixel budget."""


_TOKEN_RE = re.compile(r"""
    (?P<ws>\s+)
  | (?P<cnum>\(\s*[-+]?[\d.]+(?:[eE][-+]?\d+)?\s*[-+]\s*[\d.]+(?:[eE][-+]?\d+)?[jJ]\s*\))
  | (?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?[jJ]?)
  | (?P<var>[A-Za-z_]\w*)
  | (?P<pow>\^|\*\*)
  | (?P<mul>\*)
  | (?P<sign>[-+])
""", re.VERBOSE)


def parse_univariate(text: str):
    """Parse e.g. "z^3 - 1" or "(1+2j)*w^2 + 0.5*w" into ascending coefficients.

    Returns (coeffs, variable name); raises PolynomialParseError pointing at
    the offending token.
    """
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise PolynomialParseError(
                f"unexpected character {text[pos]!r} at position {pos}")
        if m.lastgroup != "ws":
            tokens.append((m.lastgroup, m.group(), pos))
        pos = m.end()
    if not tokens:
        raise PolynomialParseError("empty polynomial")

    var_name = None
    coeffs: dict[int, complex] = {}
    i = 0
    n = len(tokens)
    while i < n:
        sign = 1.0
        while i < n and tokens[i][0] == "sign":
            if tokens[i][1] == "-":
                sign = -sign
            i += 1
        if i >= n:
            raise PolynomialParseError("dangling sign at end of polynomial")
        coeff = complex(sign)
        exp = 0
        saw_factor = False
        expect_factor = True
        while i < n and (tokens[i][0] != "sign" or expect_factor):
            kind, tok, at = tokens[i]
            if kind in ("num", "cnum"):
                try:
                    value = complex(tok.replace(" ", "").strip("()")
                                    if kind == "cnum" else tok)
                except ValueError:
                    raise PolynomialParseError(
                        f"bad numeric literal {tok!r} at position {at}") from None
                coeff *= value
                i += 1
            elif kind == "var":
                if var_name is None:
                    var_name = tok
                elif tok != var_name:
                    raise PolynomialParseError(
                        f"second variable {tok!r} at position {at} "
                        f"(already using {var_name!r})")
                power = 1
                i += 1
                if i < n and tokens[i][0] == "pow":
                    i += 1
                    if i >= n or tokens[i][0] != "num" or not tokens[i][1].isdigit():
                        got = tokens[i][1] if i < n else "end of input"
                        raise PolynomialParseError(f"expected integer exponent, got {got!r}")
                    power = int(tokens[i][1])
                    i += 1
                exp += power
            elif kind == "mul":
                i += 1
                expect_factor = True
                continue
            else:
                raise PolynomialParseError(
                    f"unexpected token {tok!r} at position {at}")
            saw_factor = True
            expect_factor = False
        if not saw_factor:
            raise PolynomialParseError("empty term")
        coeffs[exp] = coeffs.get(exp, 0j) + coeff
    out = np.zeros(max(coeffs) + 1, dtype=complex)
    for e, c in coeffs.items():
        out[e] = c
    return out, (var_name or "z")


@dataclass
class BasinGrid:
    """Pixelwise Newton outcome on a window (row 0 = top, Im max)."""

    window: tuple               # (re_min, re_max, im_min, im_max)
    nx: int
    ny: int
    root_index: np.ndarray      # (ny, nx) int32, -1 where not converged
    iterations: np.ndarray      # (ny, nx) int32
    roots: list                 # registry, index order
    max_iters: int
    label: str = ""

    def __post_init__(self):
        re_min, re_max, im_min, im_max = self.window
        if not (np.isfinite(self.window).all() and re_min < re_max and im_min < im_max):
            raise ValueError(f"window needs finite, increasing bounds, got {self.window}")

    def _axes(self) -> tuple:               # centres' real parts by column, imag by row
        re_min, re_max, im_min, im_max = self.window
        return (re_min + (np.arange(self.nx) + 0.5) * (re_max - re_min) / self.nx,
                im_max - (np.arange(self.ny) + 0.5) * (im_max - im_min) / self.ny)

    def pixel_centers(self) -> np.ndarray:
        xs, ys = self._axes()
        return xs[None, :] + 1j * ys[:, None]

    def _row_blocks(self, point_bytes=_HORNER_POINT_BYTES):    # row slices, _BLOCK_BYTES each
        rows = max(1, _BLOCK_BYTES // (point_bytes * max(self.nx, 1)))
        return (slice(r, r + rows) for r in range(0, self.ny, rows))

    def root_pixel(self, z: complex):
        """Pixel (row, col) containing z, or None when outside the window."""
        re_min, re_max, im_min, im_max = self.window
        if not (re_min <= z.real <= re_max and im_min <= z.imag <= im_max):
            return None
        col = min(int((z.real - re_min) / (re_max - re_min) * self.nx), self.nx - 1)
        row = min(int((im_max - z.imag) / (im_max - im_min) * self.ny), self.ny - 1)
        return row, col


def _grid(window, resolution, roots, max_iters, label) -> BasinGrid:
    """An empty grid; `resolution` is pixels per side or (nx, ny)."""
    nx, ny = (resolution,) * 2 if isinstance(resolution, int) else map(int, resolution)
    if nx * ny > _MAX_PIXELS:
        raise PixelBudgetError(f"{nx}x{ny} pixels exceed the scan budget {_MAX_PIXELS}")
    if not 1 <= max_iters <= np.iinfo(np.int32).max:
        raise ValueError(f"max_iters must be in 1..{np.iinfo(np.int32).max}, got {max_iters}")
    return BasinGrid(tuple(window), nx, ny, None, None,
                     list(map(complex, roots or [])), max_iters, label)


def _registry_assign(z_final, converged, roots, match_radius):
    """Give each converged endpoint the first registry root within
    `match_radius`; the first unclaimed endpoint in row-major order is
    appended as the next root, so indices follow row-major order."""
    idx = np.full(z_final.shape, -1, dtype=np.int32)
    flat = idx.reshape(-1)
    pos = np.flatnonzero(converged)
    zc = z_final.reshape(-1)[pos]
    k = 0
    while pos.size:
        new = k == len(roots)
        if new:
            roots.append(complex(zc[0]))
        hit = np.abs(zc - roots[k]) < match_radius
        hit[0] |= new                   # a NaN endpoint still claims its own root
        flat[pos[hit]] = k
        pos, zc = pos[~hit], zc[~hit]
        k += 1
    return idx


def _scan(grid: BasinGrid, newton_step, tol: float, match_radius: float,
          point_bytes: int = _HORNER_POINT_BYTES) -> BasinGrid:
    """Vectorized Newton from every pixel center, one block of rows at a time;
    fills the grid's int32 arrays in place.

    `newton_step(za) -> dz` maps the still-active points to their Newton
    corrections with about `point_bytes` a point.  A point stops when |dz| <=
    tol max(1, |z|), converged if z is finite, or unconverged as soon as dz or
    z is not finite.  Blocks share the registry in row order, as one scan would.
    """
    max_iters, (xs, ys) = grid.max_iters, grid._axes()
    grid.root_index, grid.iterations = np.empty((2, grid.ny, grid.nx), dtype=np.int32)
    with np.errstate(all="ignore"):             # overflow stops a point, silently
        for rows in grid._row_blocks(point_bytes):
            za = (xs[None, :] + 1j * ys[rows, None]).reshape(-1)    # active points
            z = np.full(za.size, np.nan, dtype=complex)         # endpoints
            iters = np.full(za.size, max_iters, dtype=np.int32)
            pos = np.arange(za.size, dtype=np.int32)            # active pixels
            for it in range(max_iters):
                if not pos.size:
                    break
                dz = newton_step(za)
                za -= dz
                # False when dz is NaN, when z is not finite and when dz is small
                live = np.abs(dz) > tol * np.maximum(1.0, np.abs(za))
                if not live.all():
                    at = pos[~live]
                    z[at], iters[at] = za[~live], it + 1
                    pos, za = pos[live], za[live]
            converged = np.isfinite(z)
            iters[~converged] = max_iters
            grid.iterations[rows].flat = iters
            grid.root_index[rows].flat = _registry_assign(z, converged, grid.roots,
                                                          match_radius)
    return grid


def basin_scan(poly, window, resolution, roots=None,
               max_iters: int = _DEFAULT_MAX_ITERS, tol: float = _DEFAULT_TOL,
               match_radius: float = _DEFAULT_MATCH_RADIUS,
               label: str = "") -> BasinGrid:
    """Newton basins of a univariate polynomial (ascending coefficients)."""
    coeffs = np.asarray(poly, dtype=complex)
    if coeffs.ndim != 1 or len(coeffs := np.trim_zeros(coeffs, "b")) < 2:
        raise ValueError("need a univariate polynomial of degree >= 1")
    if not np.isfinite(coeffs).all():
        raise ValueError("polynomial coefficients must be finite")
    desc, ddesc = coeffs[::-1], (coeffs[1:] * np.arange(1, len(coeffs)))[::-1]
    grid = _grid(window, resolution, roots, max_iters, label)

    def horner(c, za):
        # np.polyval's y = y * za + c, in place, with no product by a leading 1
        # and no sum with a zero c: for finite z that changes at most a zero's sign
        y = za.copy() if c[0] == 1 and len(c) > 1 else np.full_like(za, c[0])
        for k, ck in enumerate(c[1:]):
            if k or c[0] != 1:
                y *= za
            if ck:
                y += ck
        return y

    def newton_step(za):
        return horner(desc, za) / horner(ddesc, za)

    return _scan(grid, newton_step, tol, match_radius)


def slice_scan(system: PolynomialSystem, base, direction, window, resolution,
               roots=None, max_iters: int = _DEFAULT_MAX_ITERS,
               tol: float = _DEFAULT_TOL,
               match_radius: float = _DEFAULT_MATCH_RADIUS,
               label: str = "") -> BasinGrid:
    """Heuristic basins of a multivariate system on a complex line.

    Newton runs on g(z) = <direction, F(base + z direction)> / |direction|^2;
    its roots need not correspond to roots of the full system.
    """
    base = np.asarray(base, dtype=complex)
    direction = np.asarray(direction, dtype=complex)
    if base.shape != (system.n_vars,) or direction.shape != (system.n_vars,):
        raise ValueError("base and direction must have one entry per variable")
    if not (np.isfinite(base).all() and np.isfinite(direction).all()):
        raise ValueError("base and direction must be finite")
    nrm2 = np.vdot(direction, direction)
    if abs(nrm2) == 0:
        raise ValueError("direction must be nonzero")
    grid = _grid(window, resolution, roots, max_iters, label or "slice")

    def newton_step(za):
        x = base[None, :] + za[:, None] * direction[None, :]
        f, J = system.evaluate_and_jacobian(x)
        g = (f @ direction.conj()) / nrm2
        dg = ((J @ direction) @ direction.conj()) / nrm2
        return g / dg

    # F and J hold n(n + 1) complex values a point, their monomials about as many
    with _one_blas_thread():
        return _scan(grid, newton_step, tol, match_radius,
                     point_bytes=32 * system.n_vars * (system.n_vars + 1))


@functools.cache
def _openblas():                    # numpy's bundled OpenBLAS, or None for another BLAS
    for lib in Path(np.__file__).parent.with_name("numpy.libs").glob("*openblas*"):
        dll = ctypes.CDLL(str(lib))
        if hasattr(dll, "scipy_openblas_set_num_threads64_"):
            return dll
    return None


@contextlib.contextmanager
def _one_blas_thread():
    """OpenBLAS on one thread inside the block, its thread count restored after.

    A slice step's products have a few thousand rows at most: waking the pool
    costs more than it saves, and its threads spin on after each call, so the
    scan's time would follow the load on the other cores."""
    dll = _openblas()
    threads = dll.scipy_openblas_get_num_threads64_() if dll else 1
    if threads > 1:
        dll.scipy_openblas_set_num_threads64_(1)
    try:
        yield
    finally:
        if threads > 1:
            dll.scipy_openblas_set_num_threads64_(threads)


def render_ppm(grid: BasinGrid) -> bytes:
    """Binary P6 image: hue = root index, brightness = iteration count
    (linear, fast convergence bright), black = not converged, white = pixels
    containing a registered root.  Each block of rows is one gather from a
    table of colors by hue (black first) and by the iteration counts present."""
    ny, nx = grid.ny, grid.nx
    header = f"P6\n{nx} {ny}\n255\n".encode()
    out = bytearray(len(header) + 3 * nx * ny)
    out[:len(header)] = header
    img = np.frombuffer(out, dtype=np.uint8, offset=len(header)).reshape(ny, nx, 3)
    colors = np.vstack([np.zeros(3), _PALETTE])     # root_index -1 (row 0): black
    hue = np.insert(np.arange(len(grid.roots), dtype=np.int32) % len(_PALETTE) + 1, 0, 0)
    for rows in grid._row_blocks():
        iters = grid.iterations[rows].reshape(-1)
        lo, hi = int(iters.min()), int(iters.max())
        # the counts lo..hi, or only those present when they are spread wider
        counts, col = ((np.arange(lo, hi + 1), iters - lo) if hi - lo < iters.size
                       else np.unique(iters, return_inverse=True))
        brightness = 1.0 - 0.75 * np.minimum(counts, grid.max_iters) / grid.max_iters
        table = (colors[:, None, :] * brightness[:, None]).astype(np.uint8).reshape(-1, 3)
        key = np.take(hue, grid.root_index[rows].reshape(-1) + 1) * len(counts) + col
        np.take(table, key, axis=0, out=img[rows].reshape(-1, 3), mode="clip")
    for root in grid.roots:             # last: a root's pixel may be in any block
        px = grid.root_pixel(root)
        if px is not None:
            img[px[0], px[1]] = (255, 255, 255)
    return bytes(out)


def write_ppm(grid: BasinGrid, path) -> None:
    with open(path, "wb") as fh:
        fh.write(render_ppm(grid))
