"""Newton-iteration basins of attraction on a complex window.

Every pixel of the window is a Newton start; converged pixels are assigned to
a root registry that is filled in deterministic row-major scan order (or
pre-seeded, e.g. from a homotopy solution set, so colors match its root
numbering).  For multivariate systems a one-complex-dimensional slice
x = base + z * direction is scanned by Newton on the direction-projected
residual; that reduction is a heuristic diagnostic, not an all-roots method.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .ccpoly import PolynomialSystem

_DEFAULT_MAX_ITERS = 64
_DEFAULT_TOL = 1e-12
_DEFAULT_MATCH_RADIUS = 1e-6
_MAX_PIXELS = 2048 * 2048        # bounds the per-pixel arrays a scan allocates

# color palette for root indices (cycled); brightness encodes iteration count
_PALETTE = [
    (220, 60, 60),    # red
    (70, 90, 230),    # blue
    (70, 200, 90),    # green
    (230, 200, 60),   # yellow
    (200, 80, 220),   # magenta
    (70, 210, 220),   # cyan
]


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

    def pixel_centers(self) -> np.ndarray:
        re_min, re_max, im_min, im_max = self.window
        xs = re_min + (np.arange(self.nx) + 0.5) * (re_max - re_min) / self.nx
        ys = im_max - (np.arange(self.ny) + 0.5) * (im_max - im_min) / self.ny
        return xs[None, :] + 1j * ys[:, None]

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


def _scan(grid: BasinGrid, newton_step, tol: float, match_radius: float) -> BasinGrid:
    """Vectorized Newton from every pixel center; fills the grid in place.

    `newton_step(za) -> dz` maps the still-active points to their Newton
    corrections; a non-finite correction freezes the point unconverged.
    """
    max_iters = grid.max_iters
    z = grid.pixel_centers().reshape(-1)
    iters = np.full(z.size, max_iters, dtype=np.int32)
    pos = np.arange(z.size, dtype=np.int32)         # still-active pixels
    for it in range(max_iters):
        if not pos.size:
            break
        za = z[pos]
        with np.errstate(all="ignore"):     # overflow is caught as non-finite
            dz = newton_step(za)
            bad = ~np.isfinite(dz)
            dz[bad] = 0.0
            za -= dz
            done = (np.abs(dz) <= tol * np.maximum(1.0, np.abs(za))) & ~bad
        z[pos] = za
        del dz, za                      # freed before compacting: lowers the peak
        iters[pos[done]] = it + 1
        pos = pos[~done]
    converged = np.isfinite(z)
    converged[pos] = False
    iters[~converged] = max_iters
    shape = (grid.ny, grid.nx)
    grid.root_index = _registry_assign(z.reshape(shape), converged.reshape(shape),
                                       grid.roots, match_radius)
    grid.iterations = iters.reshape(shape)
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
    dcoeffs = coeffs[1:] * np.arange(1, len(coeffs))
    desc = coeffs[::-1]
    ddesc = dcoeffs[::-1]
    grid = _grid(window, resolution, roots, max_iters, label)

    def newton_step(za):
        return np.polyval(desc, za) / np.polyval(ddesc, za)

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

    return _scan(grid, newton_step, tol, match_radius)


def render_ppm(grid: BasinGrid) -> bytes:
    """Binary P6 image: hue = root index, brightness = iteration count
    (linear, fast convergence bright), black = not converged, white = pixels
    containing a registered root."""
    ny, nx = grid.ny, grid.nx
    img = np.zeros((ny, nx, 3), dtype=np.uint8)
    idx = grid.root_index
    iters = grid.iterations
    brightness = 1.0 - 0.75 * np.minimum(iters, grid.max_iters) / grid.max_iters
    for k in range(len(grid.roots)):
        color = np.array(_PALETTE[k % len(_PALETTE)], dtype=float)
        mask = idx == k
        img[mask] = (color[None, :] * brightness[mask][:, None]).astype(np.uint8)
    for root in grid.roots:
        px = grid.root_pixel(root)
        if px is not None:
            img[px[0], px[1]] = (255, 255, 255)
    header = f"P6\n{nx} {ny}\n255\n".encode()
    return header + img.tobytes()


def write_ppm(grid: BasinGrid, path) -> None:
    with open(path, "wb") as fh:
        fh.write(render_ppm(grid))
