"""Newton basin scans: parser, grid semantics, registry, P6 rendering.

Oracles: exact root locations (roots of unity, a factored quadratic on the
dimer slice), and deliberately naive per-pixel loops, for the scalar Newton
iteration and for the root registry, that the vectorized scan must
reproduce pixel for pixel.
"""

import warnings

import numpy as np
import pytest

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
