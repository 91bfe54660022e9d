"""Newton basin scans: parser, grid semantics, registry, P6 rendering.

Oracles: exact root locations (roots of unity, a factored quadratic on the
dimer slice), and deliberately naive per-pixel loops, for the scalar Newton
iteration and for the root registry, that the vectorized scan must
reproduce pixel for pixel.
"""

import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ccroots import basins
from ccroots.basins import (
    BasinGrid,
    PixelBudgetError,
    PolynomialParseError,
    _grid,
    _registry_assign,
    _scan,
    basin_scan,
    parse_univariate,
    render_ppm,
    slice_scan,
    write_ppm,
)
from ccroots.ccpoly import cc_system_for_rank
from ccroots.model import build_hubbard

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None,
                    suppress_health_check=[HealthCheck.too_slow])

CUBE_ROOTS = sorted((np.exp(2j * np.pi * k / 3) for k in range(3)),
                    key=lambda z: (round(z.real, 9), round(z.imag, 9)))


# --- parser -------------------------------------------------------------------

def test_parse_simple():
    coeffs, var = parse_univariate("z^3 - 1")
    np.testing.assert_array_equal(coeffs, [-1, 0, 0, 1])
    assert var == "z"


def test_parse_double_star_power():
    coeffs, var = parse_univariate("z**3 - 1")
    np.testing.assert_array_equal(coeffs, [-1, 0, 0, 1])


def test_parse_implicit_products_and_repeats():
    coeffs, _ = parse_univariate("2z^2")
    np.testing.assert_array_equal(coeffs, [0, 0, 2])
    coeffs, _ = parse_univariate("z*z - z + z")
    np.testing.assert_array_equal(coeffs, [0, 0, 1])


def test_parse_complex_coefficients():
    coeffs, var = parse_univariate("(1+2j)*w^2 + 0.5*w - 3")
    assert var == "w"
    np.testing.assert_array_equal(coeffs, [-3, 0.5, 1 + 2j])
    coeffs, _ = parse_univariate("1j*z - 2e-3")
    np.testing.assert_array_equal(coeffs, [-2e-3, 1j])


def test_parse_leading_signs():
    coeffs, _ = parse_univariate("-z^2 + +3")
    np.testing.assert_array_equal(coeffs, [3, 0, -1])


@pytest.mark.parametrize("text, needle", [
    ("z + q", "q"),
    ("z^", "exponent"),
    ("z^1.5", "1.5"),
    ("3 $", "$"),
    ("z -", "dangling"),
    ("", "empty"),
])
def test_parse_errors_name_the_offender(text, needle):
    with pytest.raises(PolynomialParseError) as err:
        parse_univariate(text)
    assert needle in str(err.value)


def test_constant_rejected_by_scan():
    coeffs, _ = parse_univariate("5")
    with pytest.raises(ValueError):
        basin_scan(coeffs, (-1, 1, -1, 1), 4)


def test_vanishing_leading_coefficients_trimmed_before_degree_check():
    coeffs, _ = parse_univariate("z - z + 1")
    np.testing.assert_array_equal(coeffs, [1, 0])
    with pytest.raises(ValueError, match="degree >= 1"):
        basin_scan(coeffs, (-1, 1, -1, 1), 4)
    grid = basin_scan([-1.0, 0.0, 1.0, 0.0], (-2, 2, -1, 1), 9)   # z^2 - 1
    assert sorted(z.real for z in grid.roots) == pytest.approx([-1.0, 1.0])


@pytest.mark.parametrize("window", [(1, 1, -1, 1), (2, -2, -2, 2), (-1, 1, 1, -1),
                                    (-1, np.inf, -1, 1), (np.nan, 1, -1, 1)])
def test_window_must_be_finite_and_increasing(window):
    sys_ = cc_system_for_rank(build_hubbard(2, 1.0, 4.0, 1, 1), 2).polynomials
    with pytest.raises(ValueError, match="window"):
        basin_scan([-1.0, 0.0, 1.0], window, 4)
    with pytest.raises(ValueError, match="window"):
        slice_scan(sys_, np.zeros(3), np.ones(3), window, 4)


# --- grid geometry ---------------------------------------------------------------

def test_pixel_centers_orientation():
    grid = basin_scan([-1.0, 0.0, 1.0], (-2, 2, -1, 1), (4, 2))
    centers = grid.pixel_centers()
    assert centers.shape == (2, 4)
    assert centers[0, 0] == pytest.approx(-1.5 + 0.5j)     # top-left, Im max
    assert centers[1, 3] == pytest.approx(1.5 - 0.5j)      # bottom-right


def test_root_pixel_mapping():
    grid = basin_scan([-1.0, 0.0, 0.0, 1.0], (-2, 2, -2, 2), 81)
    assert grid.root_pixel(1.0 + 0.0j) == (40, 60)
    assert grid.root_pixel(5.0 + 0.0j) is None


# --- z^3 - 1 ---------------------------------------------------------------------

def test_cube_root_basins():
    grid = basin_scan([-1.0, 0.0, 0.0, 1.0], (-2, 2, -2, 2), 81)
    assert len(grid.roots) == 3
    found = sorted(grid.roots, key=lambda z: (round(z.real, 9), round(z.imag, 9)))
    for g, w in zip(found, CUBE_ROOTS):
        assert abs(g - w) < 1e-12
    # the positive real axis belongs to the basin of the real root
    centers = grid.pixel_centers()
    real_root = next(k for k, r in enumerate(grid.roots) if abs(r - 1.0) < 1e-12)
    on_axis = (centers.imag == 0) & (centers.real > 0)
    assert on_axis.sum() == 40
    assert np.all(grid.root_index[on_axis] == real_root)
    # every pixel off the symmetry spines converged
    assert (grid.root_index >= 0).mean() > 0.99


def test_preseeded_registry_fixes_indices():
    seeds = [1.0 + 0j, CUBE_ROOTS[0], CUBE_ROOTS[1]]
    grid = basin_scan([-1.0, 0.0, 0.0, 1.0], (-2, 2, -2, 2), 41, roots=seeds)
    assert grid.roots[:3] == [complex(s) for s in seeds]
    assert len(grid.roots) == 3                  # nothing new appended
    centers = grid.pixel_centers()
    on_axis = (centers.imag == 0) & (centers.real > 0)
    assert np.all(grid.root_index[on_axis] == 0)


# --- naive per-pixel oracle --------------------------------------------------------

def naive_scan(coeffs, window, n, max_iters=64, tol=1e-12):
    """Scalar replica of the scan semantics, one pixel at a time."""
    coeffs = np.asarray(coeffs, dtype=complex)
    desc = coeffs[::-1]
    ddesc = (coeffs[1:] * np.arange(1, len(coeffs)))[::-1]
    re_min, re_max, im_min, im_max = window
    final = np.zeros((n, n), dtype=complex)
    iters = np.full((n, n), max_iters, dtype=int)
    conv = np.zeros((n, n), dtype=bool)
    for r in range(n):
        for c in range(n):
            z = (re_min + (c + 0.5) * (re_max - re_min) / n
                 + 1j * (im_max - (r + 0.5) * (im_max - im_min) / n))
            for it in range(max_iters):
                fz = np.polyval(desc, z)
                dfz = np.polyval(ddesc, z)
                if dfz == 0:
                    continue
                dz = fz / dfz
                z = z - dz
                if abs(dz) <= tol * max(1.0, abs(z)):
                    conv[r, c] = True
                    iters[r, c] = it + 1
                    break
            final[r, c] = z
    return final, iters, conv


def naive_registry_assign(z_final, converged, roots, match_radius):
    """Row-major scan, one pixel at a time: the first registry root within
    reach wins, and an endpoint no root claims is appended as a new root."""
    ny, nx = z_final.shape
    idx = np.full((ny, nx), -1, dtype=np.int32)
    for r in range(ny):
        for c in range(nx):
            if not converged[r, c]:
                continue
            z = z_final[r, c]
            for k, root in enumerate(roots):
                if abs(z - root) < match_radius:
                    idx[r, c] = k
                    break
            else:
                roots.append(complex(z))
                idx[r, c] = len(roots) - 1
    return idx


def assert_registry_matches_naive(z_final, converged, seeds, match_radius):
    roots, want_roots = list(seeds), list(seeds)
    idx = _registry_assign(z_final, converged, roots, match_radius)
    want = naive_registry_assign(z_final, converged, want_roots, match_radius)
    assert idx.dtype == np.int32
    np.testing.assert_array_equal(idx, want)
    np.testing.assert_array_equal(roots, want_roots)     # NaN == NaN here
    return idx, roots


def test_registry_without_converged_pixels():
    z = np.ones((3, 4), dtype=complex)
    idx, roots = assert_registry_matches_naive(z, np.zeros((3, 4), bool), [2j], 1e-6)
    assert (idx == -1).all()
    assert roots == [2j]


def test_registry_nan_endpoints_each_register():
    # a NaN endpoint matches no root, itself included, so each one is new
    z = np.array([[1.0, np.nan, 1.0], [np.nan, 1.0 + 1e-9, -1.0]], dtype=complex)
    idx, roots = assert_registry_matches_naive(z, np.ones(z.shape, bool), [], 1e-6)
    np.testing.assert_array_equal(idx, [[0, 1, 0], [2, 0, 3]])
    assert len(roots) == 4


def test_registry_overlapping_seeds_first_wins():
    # 0.5 lies within reach of both seeds; the earlier seed must claim it
    seeds = [0.0, 1.0]
    z = np.array([[0.5, 0.9, 0.1, 3.0, 3.2, 0.5]], dtype=complex)
    conv = np.array([[True, True, True, True, True, False]])
    idx, roots = assert_registry_matches_naive(z, conv, seeds, 0.6)
    np.testing.assert_array_equal(idx, [[0, 1, 0, 2, 2, -1]])
    assert roots == [0.0, 1.0, 3.0]


def test_registry_matches_naive_on_random_grid():
    # endpoints on a 0.1 lattice, each within reach of its four neighbours,
    # so the claiming order decides most pixels
    rng = np.random.default_rng(7)
    z = np.round(rng.normal(size=(60, 70)) + 1j * rng.normal(size=(60, 70)), 1)
    conv = rng.random((60, 70)) < 0.8
    _idx, roots = assert_registry_matches_naive(z, conv, [0.0, 0.1 + 0.1j], 0.12)
    assert len(roots) > 300


def assert_scan_matches_naive(coeffs, window, n, seeds):
    grid = basin_scan(coeffs, window, n, roots=seeds)
    final, iters, conv = naive_scan(coeffs, window, n)
    np.testing.assert_array_equal(grid.iterations, iters)
    np.testing.assert_array_equal(grid.root_index >= 0, conv)
    want_roots = list(map(complex, seeds))
    want = naive_registry_assign(final, conv, want_roots, 1e-6)
    np.testing.assert_array_equal(grid.root_index, want)
    assert grid.roots == want_roots
    return grid


def test_vectorized_scan_matches_naive_oracle():
    grid = assert_scan_matches_naive([-1.0, 0.0, 1.0],            # z^2 - 1
                                     (-1.6, 1.6, -1.2, 1.2), 11, [])
    # the centre pixel sits exactly on the critical point and never converges
    assert grid.root_index[5, 5] == -1
    assert grid.iterations[5, 5] == 64
    # z^3 - 1 with two roots pre-seeded: the third is appended after them
    grid = assert_scan_matches_naive([-1.0, 0.0, 0.0, 1.0],
                                     (-1.5, 1.5, -1.5, 1.5), 23, CUBE_ROOTS[1:])
    assert len(grid.roots) == 3 and abs(grid.roots[2] - CUBE_ROOTS[0]) < 1e-12


def test_unconverged_pixels_report_max_iters():
    # centers -2, 0, 2: a NaN step freezes the left pixel, the middle one
    # converges at once, and the right one passes the step test on an
    # endpoint that overflowed to infinity
    def newton_step(za):
        return np.where(za.real < -1, np.nan, np.where(za.real > 1, -1.7e308, 0.0))

    with np.errstate(over="ignore"):
        grid = _scan(_grid((-3, 3, -1, 1), (3, 1), None, 5, ""), newton_step, 1e-12, 1e-6)
    np.testing.assert_array_equal(grid.root_index, [[-1, 0, -1]])
    np.testing.assert_array_equal(grid.iterations, [[5, 1, 5]])
    assert grid.roots == [0j]



@pytest.mark.parametrize("text", ["z^300-1", "1e-300*z^2+1e300"])
def test_overflowing_newton_steps_scan_silently(text):
    # finite coefficients whose Newton steps overflow (polyval in the first,
    # the quotient in the second): numpy stays silent and the overflowed
    # pixels stay unconverged
    coeffs, _ = parse_univariate(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        grid = basin_scan(coeffs, (-2, 2, -2, 2), 16)
    unconverged = grid.root_index < 0
    assert unconverged.any()
    assert (grid.iterations[unconverged] == grid.max_iters).all()
    for root in grid.roots:                 # every root found is a true root
        assert abs(np.polyval(np.asarray(coeffs)[::-1], root)) < 1e-6

# --- the scan loop against the one it replaced -----------------------------------------

def reference_scan(grid, newton_step, tol, match_radius, point_bytes=None):
    """The scan as it was before its active points were kept compacted:
    gathered from and scattered back to the full array every iteration, the
    whole grid at once whatever the step's bytes per point."""
    max_iters = grid.max_iters
    z = grid.pixel_centers().reshape(-1)
    iters = np.full(z.size, max_iters, dtype=np.int32)
    pos = np.arange(z.size, dtype=np.int32)
    for it in range(max_iters):
        if not pos.size:
            break
        za = z[pos]
        with np.errstate(all="ignore"):
            dz = newton_step(za)
            bad = ~np.isfinite(dz)
            dz[bad] = 0.0
            za -= dz
            done = (np.abs(dz) <= tol * np.maximum(1.0, np.abs(za))) & ~bad
        z[pos] = za
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


def reference_basin_scan(coeffs, window, resolution, max_iters, roots=None):
    """Horner from zero, one multiply before the leading coefficient, on the
    reference loop."""
    coeffs = np.trim_zeros(np.asarray(coeffs, dtype=complex), "b")
    desc, ddesc = coeffs[::-1], (coeffs[1:] * np.arange(1, len(coeffs)))[::-1]

    def horner(c, za):
        y = np.zeros_like(za)
        for ck in c:
            y *= za
            y += ck
        return y

    grid = _grid(window, resolution, roots, max_iters, "")
    return reference_scan(grid, lambda za: horner(desc, za) / horner(ddesc, za),
                          1e-12, 1e-6)


def assert_same_grid(got, want):
    assert got.root_index.tobytes() == want.root_index.tobytes()
    assert got.iterations.tobytes() == want.iterations.tobytes()
    assert np.array(got.roots, dtype=complex).tobytes() == \
        np.array(want.roots, dtype=complex).tobytes()
    assert render_ppm(got) == render_ppm(want)


@pytest.mark.parametrize("coeffs, window, resolution, max_iters", [
    ([-1.0, 0.0, 0.0, 1.0], (-1.5, 1.5, -1.5, 1.5), 61, 64),      # centres on both axes
    ([-3j, 0.5, 0.0, 0.0, 2.0 - 1.0j], (-2, 2, -1.5, 2.5), (48, 40), 64),   # not monic
    ([1.0, 0.0, complex(-3.0, -0.0)], (-2, 2, -2, 2), 41, 32),   # a signed-zero lead
    ([-2.0, 0.0, 0.0, 0.0, 0.0, 1e-3], (-1e60, 1e60, -1e60, 1e60), 33, 64),   # overflow
    (np.r_[-1.0, np.zeros(299), 1.0], (-2, 2, -2, 2), 24, 64),    # z^300 - 1 overflows
    ([1e300, 0.0, 1e-300], (-2, 2, -2, 2), 16, 64),
], ids=["cube", "non_monic", "signed_zero", "huge_window", "z300", "tiny_lead"])
def test_basin_scan_matches_reference_pixel_for_pixel(coeffs, window, resolution, max_iters):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = basin_scan(coeffs, window, resolution, max_iters=max_iters)
        want = reference_basin_scan(coeffs, window, resolution, max_iters)
    assert_same_grid(got, want)


def test_slice_scan_matches_reference_pixel_for_pixel(monkeypatch):
    sys_ = cc_system_for_rank(build_hubbard(3, 1.0, 4.0, 1, 1), 2).polynomials
    rng = np.random.default_rng(3)
    base = rng.standard_normal(sys_.n_vars) + 1j * rng.standard_normal(sys_.n_vars)
    direction = rng.standard_normal(sys_.n_vars) + 0j
    args = (sys_, base, direction, (-3, 3, -2, 2), (45, 30))
    got = slice_scan(*args)
    monkeypatch.setattr(basins, "_scan", reference_scan)
    assert_same_grid(got, slice_scan(*args))


# --- streaming: blocks of rows against the whole grid at once ----------------------------

def reference_render_ppm(grid):
    """The image as rendered before blocks: one mask per root over the whole grid."""
    ny, nx = grid.ny, grid.nx
    img = np.zeros((ny, nx, 3), dtype=np.uint8)
    brightness = 1.0 - 0.75 * np.minimum(grid.iterations, grid.max_iters) / grid.max_iters
    for k in range(len(grid.roots)):
        color = np.array(basins._PALETTE[k % len(basins._PALETTE)], dtype=float)
        mask = grid.root_index == k
        img[mask] = (color[None, :] * brightness[mask][:, None]).astype(np.uint8)
    for root in grid.roots:
        px = grid.root_pixel(root)
        if px is not None:
            img[px[0], px[1]] = (255, 255, 255)
    return f"P6\n{nx} {ny}\n255\n".encode() + img.tobytes()


def rows_per_block(grid, point_bytes=basins._HORNER_POINT_BYTES):
    return max(1, basins._BLOCK_BYTES // (point_bytes * grid.nx))


def slice_point_bytes(system):
    n = system.n_vars
    return 32 * n * (n + 1)


def set_block_pixels(monkeypatch, pixels, point_bytes=basins._HORNER_POINT_BYTES):
    monkeypatch.setattr(basins, "_BLOCK_BYTES", pixels * point_bytes)


def assert_same_streamed_grid(got, want, point_bytes=basins._HORNER_POINT_BYTES):
    assert got.ny > rows_per_block(got, point_bytes)    # more than one block ran
    assert_same_grid(got, want)
    assert render_ppm(got) == reference_render_ppm(want)


@pytest.mark.parametrize("coeffs, window, resolution, block", [
    ([-1.0, 0.0, 0.0, 1.0], (-1.5, 1.5, -1.5, 1.5), 61, 61 * 4),       # 16 blocks
    (np.r_[-1.0, np.zeros(299), 1.0], (-2, 2, -2, 2), 24, 24 * 5),     # z^300 - 1
    ([-3j, 0.5, 0.0, 0.0, 2.0 - 1.0j], (-2, 2, -1.5, 2.5), (48, 40), 48 * 3 + 7),  # 3 rows
    ([-1.0, 0.0, 0.0, 1.0], (-2, 2, -2, 2), (50, 7), 16),              # a row per block
], ids=["cube", "z300", "rows_not_a_multiple", "row_wider_than_block"])
def test_multi_block_basin_scan_matches_whole_grid(monkeypatch, coeffs, window,
                                                   resolution, block):
    set_block_pixels(monkeypatch, block)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = basin_scan(coeffs, window, resolution)
        want = reference_basin_scan(coeffs, window, resolution, 64)
    assert_same_streamed_grid(got, want)


def lattice_step(za):
    """Newton steps onto the 0.1 lattice, where they stop: many distinct
    endpoints, each within a 0.12 reach of its four neighbours."""
    return za - (np.round(za.real, 1) + 1j * np.round(za.imag, 1))


def test_multi_block_registry_with_overlapping_seeds(monkeypatch):
    # the first seed claims pixels on both sides of a block boundary, its reach
    # overlaps the next two, and new roots are registered in every block
    set_block_pixels(monkeypatch, 40 * 4)
    seeds = [0.0, 0.1 + 0.1j, 0.05, 0.5j]
    args = ((-1.3, 1.3, -1.1, 1.1), (40, 30), seeds, 64, "")
    got = _scan(_grid(*args), lattice_step, 1e-12, 0.12)
    want = reference_scan(_grid(*args), lattice_step, 1e-12, 0.12)
    claimed_rows = np.nonzero(got.root_index == 0)[0]
    assert np.unique(claimed_rows // rows_per_block(got)).size > 1
    assert all((got.root_index == k).any() for k in range(len(seeds)))
    first_rows = [np.argmax(got.root_index.ravel() == k) // got.nx
                  for k in range(len(seeds), len(got.roots))]
    assert set(np.array(first_rows) // rows_per_block(got)) == set(range(8))
    assert_same_streamed_grid(got, want)


def test_root_found_in_a_later_block_lies_in_an_earlier_one(monkeypatch):
    # the top half converges to B in the bottom rows, the bottom half to A in
    # the top rows, so A is registered in a later block than the one holding
    # its pixel, which the top half colours with B's hue before A is known
    a, b = 0.5 + 0.9j, -0.5 - 0.9j

    def step(za):
        to_a = (np.abs(za - a) < 1e-9) | ((za.imag < 0) & (np.abs(za - b) >= 1e-9))
        return np.where(to_a, za - a, za - b)

    set_block_pixels(monkeypatch, 20 * 5)
    args = ((-1, 1, -1, 1), 20, None, 64, "")
    got = _scan(_grid(*args), step, 1e-12, 1e-6)
    want = reference_scan(_grid(*args), step, 1e-12, 1e-6)
    assert_same_streamed_grid(got, want)
    assert np.abs(np.array(got.roots) - [b, a]).max() < 1e-12
    row, col = got.root_pixel(got.roots[1])
    assert row < rows_per_block(got) and got.root_index[row, col] == 0
    data = render_ppm(got)
    off = len(b"P6\n20 20\n255\n") + 3 * (row * 20 + col)
    assert data[off:off + 3] == b"\xff\xff\xff"


@pytest.mark.parametrize("window, max_iters", [((-3, 3, -2, 2), 64), ((-40, 40, -40, 40), 12),
                                               ((-1e80, 1e80, -1e80, 1e80), 64)],
                         ids=["converging", "unconverged", "overflowing"])
def test_multi_block_slice_scan_matches_whole_grid(monkeypatch, window, max_iters):
    sys_ = cc_system_for_rank(build_hubbard(3, 1.0, 4.0, 1, 1), 2).polynomials
    rng = np.random.default_rng(3)
    base = rng.standard_normal(sys_.n_vars) + 1j * rng.standard_normal(sys_.n_vars)
    direction = rng.standard_normal(sys_.n_vars) + 0j
    args = (sys_, base, direction, window, (45, 30))
    set_block_pixels(monkeypatch, 45 * 4, slice_point_bytes(sys_))
    got = slice_scan(*args, max_iters=max_iters)
    monkeypatch.setattr(basins, "_scan", reference_scan)
    assert_same_streamed_grid(got, slice_scan(*args, max_iters=max_iters),
                              slice_point_bytes(sys_))


def test_non_finite_step_retires_the_point_at_once():
    # the same three pixels as above: the NaN pixel is evaluated once, not
    # until max_iters
    sizes = []

    def newton_step(za):
        sizes.append(za.size)
        return np.where(za.real < -1, np.nan, np.where(za.real > 1, -1.7e308, 0.0))

    with np.errstate(over="ignore"):
        grid = _scan(_grid((-3, 3, -1, 1), (3, 1), None, 5, ""), newton_step, 1e-12, 1e-6)
    assert sizes == [3, 1]
    np.testing.assert_array_equal(grid.root_index, [[-1, 0, -1]])
    np.testing.assert_array_equal(grid.iterations, [[5, 1, 5]])


def test_retiring_overflowed_points_saves_evaluations():
    coeffs = np.r_[-1.0, np.zeros(299), 1.0]                   # z^300 - 1
    desc, ddesc = coeffs[::-1], (coeffs[1:] * np.arange(1, 301))[::-1]
    evaluated = {"new": 0, "reference": 0}

    def counting(key):
        def newton_step(za):
            evaluated[key] += za.size
            return np.polyval(desc, za) / np.polyval(ddesc, za)
        return newton_step

    with np.errstate(all="ignore"):
        got = _scan(_grid((-2, 2, -2, 2), 40, None, 64, ""), counting("new"), 1e-12, 1e-6)
        want = reference_scan(_grid((-2, 2, -2, 2), 40, None, 64, ""), counting("reference"),
                              1e-12, 1e-6)
    assert_same_grid(got, want)
    assert evaluated["new"] < 0.9 * evaluated["reference"]


def test_scan_and_render_memory_is_bounded_by_the_grid():
    # a 512^2 scan runs in 8 blocks.  The grid keeps two int32 arrays (8 bytes
    # a pixel), the image its buffer and the returned bytes (6 bytes a pixel),
    # and a Newton iteration keeps under 128 bytes a pixel of one block live.
    # The whole-grid scan peaked at 82 bytes for every pixel.
    import tracemalloc

    coeffs, window, n = [-(0.6 + 0.8j), 0.0, 0.0, 0.0, 1.0], (-2, 2, -2, 2), 512
    render_ppm(basin_scan(coeffs, window, 8))
    tracemalloc.start()
    try:
        render_ppm(basin_scan(coeffs, window, n, max_iters=128))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < (8 + 6) * n * n + 128 * (basins._BLOCK_BYTES // basins._HORNER_POINT_BYTES)


@pytest.mark.parametrize("max_iters", [0, 2**31, 3_000_000_000])
def test_max_iters_outside_int32_rejected_by_scans(max_iters):
    sys_ = cc_system_for_rank(build_hubbard(2, 1.0, 4.0, 1, 1), 2).polynomials
    with pytest.raises(ValueError, match="max_iters"):
        basin_scan([-1.0, 0.0, 1.0], (-1, 1, -1, 1), 4, max_iters=max_iters)
    with pytest.raises(ValueError, match="max_iters"):
        slice_scan(sys_, np.zeros(3), np.ones(3), (-1, 1, -1, 1), 4, max_iters=max_iters)


# --- the Horner kernel and the color table against the references ------------------------

@st.composite
def polynomials(draw):
    """Degree 1 to 8: interior zeros, a leading 1 or not, and scales whose
    Newton steps overflow."""
    value = st.complex_numbers(min_magnitude=1e-3, max_magnitude=1e3, allow_nan=False,
                               allow_infinity=False)
    coeffs = draw(st.lists(st.one_of(st.just(0j), st.just(1 + 0j), value),
                           min_size=1, max_size=8))
    coeffs.append(draw(st.sampled_from([1 + 0j, 1 + 1j, 1 - 0j]) | value))
    return np.array(coeffs) * draw(st.sampled_from([1.0, 1.0, 1e-300, 1e300]))


@st.composite
def windows(draw):
    """Small and huge windows; a centre at 1.25e308 puts |z| past the float
    range, while (col + 0.5) * width stays finite at 24 pixels a side."""
    def bounds():
        centre, half = draw(st.sampled_from([(0.0, 1.5), (0.5, 2.0), (0.0, 1e60),
                                             (0.0, 1e305), (1.25e308, 1e306),
                                             (-1.25e308, 1e306)]))
        return centre - half, centre + half * draw(st.sampled_from([1.0, 0.5]))
    return bounds() + bounds()


@PROPERTY
@given(polynomials(), windows(), st.integers(1, 24), st.integers(1, 24),
       st.sampled_from([1, 2, 3, 8, 64]), st.lists(st.complex_numbers(max_magnitude=2),
                                                   max_size=3))
def test_horner_kernel_matches_reference(coeffs, window, nx, ny, max_iters, seeds):
    got = basin_scan(coeffs, window, (nx, ny), roots=seeds, max_iters=max_iters)
    want = reference_basin_scan(coeffs, window, (nx, ny), max_iters, roots=seeds)
    assert_same_grid(got, want)
    assert render_ppm(got) == reference_render_ppm(want)


@pytest.mark.parametrize("coeffs, converged", [
    ([-1.0, 1.0], True),            # z - 1: the first step lands on the root
    ([-1.0, 0.5], True),            # 0.5 z - 1: the same, not monic
    ([-1.0, 0.0, 1.0], False),      # z^2 - 1: p overflows, so the step is not finite
], ids=["linear", "linear_not_monic", "quadratic"])
def test_steps_whose_magnitude_overflows_match_reference(coeffs, converged):
    # |z| and the first |dz| overflow, though both are finite: an overflowed
    # |dz| must not retire a point
    window = (1.2e308, 1.4e308, -1.4e308, -1.2e308)
    got = basin_scan(coeffs, window, 4, max_iters=2000)
    assert (got.root_index >= 0).all() if converged else (got.root_index < 0).all()
    assert_same_grid(got, reference_basin_scan(coeffs, window, 4, 2000))


@PROPERTY
@given(st.data())
def test_color_table_matches_reference_render(data):
    nx, ny = data.draw(st.integers(1, 9)), data.draw(st.integers(1, 9))
    n_roots = data.draw(st.integers(0, 9))
    max_iters = data.draw(st.sampled_from([1, 7, 64, 2**31 - 1]) | st.integers(1, 2**31 - 1))
    counts = st.sampled_from([1, max_iters]) | st.integers(1, min(max_iters, 70)) | \
        st.integers(1, max_iters)
    root_index = data.draw(st.lists(st.integers(-1, n_roots - 1), min_size=nx * ny,
                                    max_size=nx * ny))
    iterations = data.draw(st.lists(counts, min_size=nx * ny, max_size=nx * ny))
    roots = data.draw(st.lists(st.complex_numbers(max_magnitude=3), min_size=n_roots,
                               max_size=n_roots))
    grid = BasinGrid((-2, 2, -2, 2), nx, ny,
                     np.array(root_index, dtype=np.int32).reshape(ny, nx),
                     np.array(iterations, dtype=np.int32).reshape(ny, nx), roots, max_iters)
    with pytest.MonkeyPatch.context() as mp:
        set_block_pixels(mp, data.draw(st.integers(1, nx * ny)))
        assert render_ppm(grid) == reference_render_ppm(grid)


def test_block_pixels_follow_the_steps_bytes_per_point(monkeypatch):
    # 2 MiB of step arrays a block: 3 rows of 300 pixels at the 8-variable
    # slice's 2,304 bytes a point, 54 rows of 600 at Horner's 64
    sys_ = cc_system_for_rank(build_hubbard(3, 1.0, 4.0, 1, 1), 2).polynomials
    sizes = []
    evaluate = sys_.evaluate_and_jacobian
    monkeypatch.setattr(sys_, "evaluate_and_jacobian",
                        lambda x: sizes.append(len(x)) or evaluate(x))
    slice_scan(sys_, np.zeros(8), np.ones(8), (-2, 2, -2, 2), (300, 7), max_iters=1)
    assert sizes == [900, 900, 300]
    grid = BasinGrid((-2, 2, -2, 2), 600, 600, None, None, [], 64)
    assert next(grid._row_blocks()) == slice(0, 54)


def test_slice_steps_run_blas_on_one_thread_and_restore_its_count(monkeypatch):
    # the pool's hand-offs cost more than a step's small products gain, and its
    # threads spin on between calls, so the scan's time would follow the
    # machine's load; the count comes back after a scan and after a failure
    dll = basins._openblas()
    if dll is None:
        pytest.skip("numpy links a BLAS other than its bundled OpenBLAS")
    sys_ = cc_system_for_rank(build_hubbard(2, 1.0, 4.0, 1, 1), 2).polynomials
    seen, evaluate = [], sys_.evaluate_and_jacobian

    def spy(x):
        seen.append(dll.scipy_openblas_get_num_threads64_())
        if len(seen) == 3:
            raise RuntimeError("third step")
        return evaluate(x)

    monkeypatch.setattr(sys_, "evaluate_and_jacobian", spy)
    before = dll.scipy_openblas_get_num_threads64_()
    dll.scipy_openblas_set_num_threads64_(2)
    try:
        slice_scan(sys_, np.zeros(3), np.ones(3), (-2, 2, -2, 2), 4, max_iters=2)
        assert dll.scipy_openblas_get_num_threads64_() == 2
        with pytest.raises(RuntimeError, match="third step"):
            slice_scan(sys_, np.zeros(3), np.ones(3), (-2, 2, -2, 2), 4, max_iters=2)
        assert dll.scipy_openblas_get_num_threads64_() == 2
    finally:
        dll.scipy_openblas_set_num_threads64_(before)
    assert seen == [1, 1, 1]


def test_largest_int32_max_iters_renders_in_little_memory():
    # the color table spans the iteration counts present, not 0..max_iters.
    # In the second grid, of (z - 1)(z - i), the middle pixel sits on the
    # critical point and stops at once with 2^31 - 1 iterations, while its
    # neighbours converge in 7.
    import tracemalloc

    grids = [basin_scan([-1.0, 0.0, 1.0], (-1, 1, -1, 1), 4, max_iters=2**31 - 1),
             basin_scan([1j, -(1 + 1j), 1.0], (0.125, 0.875, 0.25, 0.75), (3, 1),
                        max_iters=2**31 - 1)]
    np.testing.assert_array_equal(grids[1].root_index, [[0, -1, 1]])
    for grid in grids:
        tracemalloc.start()
        try:
            data = render_ppm(grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert data == reference_render_ppm(grid)
        assert peak < 16384


def test_largest_int32_max_iters_scans():
    grid = basin_scan([-1.0, 0.0, 1.0], (-1, 1, -1, 1), 4, max_iters=2**31 - 1)
    assert (grid.root_index >= 0).all()
    assert render_ppm(grid).startswith(b"P6\n4 4\n255\n")


# --- multivariate slice --------------------------------------------------------------

def test_dimer_slice_quadratic_closed_form():
    # along x = z*(1,1,1) the direction-projected dimer residual is
    # (r1+r2+r3)/3 = -8 z (1+z) / 3: roots exactly 0 and -1
    sys_ = cc_system_for_rank(build_hubbard(2, 1.0, 4.0, 1, 1), 2).polynomials
    grid = slice_scan(sys_, base=np.zeros(3), direction=np.ones(3),
                      window=(-2, 2, -2, 2), resolution=41)
    roots = sorted(grid.roots, key=lambda z: z.real)
    assert len(roots) == 2
    assert abs(roots[0] - (-1.0)) < 1e-12
    assert abs(roots[1] - 0.0) < 1e-12
    assert (grid.root_index >= 0).all()


def test_slice_scan_validates_shapes():
    sys_ = cc_system_for_rank(build_hubbard(2, 1.0, 4.0, 1, 1), 2).polynomials
    with pytest.raises(ValueError):
        slice_scan(sys_, base=np.zeros(2), direction=np.ones(3),
                   window=(-1, 1, -1, 1), resolution=4)
    with pytest.raises(ValueError):
        slice_scan(sys_, base=np.zeros(3), direction=np.zeros(3),
                   window=(-1, 1, -1, 1), resolution=4)
    for base, direction in [([0, np.nan, 0], [1, 1, 1]), ([0, 0, 0], [1, np.inf, 1])]:
        with pytest.raises(ValueError, match="finite"):
            slice_scan(sys_, base=np.array(base, float), direction=np.array(direction, float),
                       window=(-1, 1, -1, 1), resolution=4)


def test_non_finite_coefficient_rejected_by_scan():
    for bad in (np.inf, np.nan, complex(0, np.inf)):
        with pytest.raises(ValueError, match="finite"):
            basin_scan([-1.0, 0.0, bad], (-1, 1, -1, 1), 4)


def test_pixel_budget_rejected_by_scan():
    with pytest.raises(PixelBudgetError, match="budget"):
        basin_scan([-1.0, 0.0, 1.0], (-1, 1, -1, 1), 2049)


# --- PPM rendering ----------------------------------------------------------------

def test_ppm_bytes():
    grid = basin_scan([-1.0, 0.0, 0.0, 1.0], (-2, 2, -2, 2), 81)
    data = render_ppm(grid)
    header = b"P6\n81 81\n255\n"
    assert data.startswith(header)
    assert len(data) == len(header) + 3 * 81 * 81
    # byte determinism
    assert render_ppm(basin_scan([-1.0, 0.0, 0.0, 1.0], (-2, 2, -2, 2), 81)) == data
    # the registered real root's pixel is white
    row, col = grid.root_pixel(1.0 + 0j)
    off = len(header) + 3 * (row * 81 + col)
    assert data[off:off + 3] == b"\xff\xff\xff"


def test_ppm_black_where_unconverged():
    grid = basin_scan([-1.0, 0.0, 1.0], (-1.6, 1.6, -1.2, 1.2), 11)
    data = render_ppm(grid)
    header_len = len(b"P6\n11 11\n255\n")
    off = header_len + 3 * (5 * 11 + 5)
    assert data[off:off + 3] == b"\x00\x00\x00"


def test_write_ppm(tmp_path):
    grid = basin_scan([-1.0, 0.0, 1.0], (-1, 1, -1, 1), 8)
    path = tmp_path / "img.ppm"
    write_ppm(grid, path)
    assert path.read_bytes() == render_ppm(grid)
