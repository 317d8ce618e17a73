"""Property tests of the tiled triangular sweeps of the dense spectral
calculus: both sweeps must agree with a dense triangular solve on the
band Cholesky factor, for every bandwidth from a diagonal factor to one
wider than the tile, and for the row ranges the congruence gives them."""

import numpy as np
import scipy.linalg
from hypothesis import example, given, settings, strategies as st

from formheat.spectral import (_TILE, _backward_sweep, _band_tiles,
                               _forward_sweep)


def band_factor(n, width, seed):
    """The LAPACK upper band Cholesky factor of a random diagonally
    dominant symmetric band matrix of order ``n`` and bandwidth
    ``width``, and the same factor as a dense upper triangular array."""
    rng = np.random.default_rng(seed)
    band = np.zeros((width + 1, n), order="F")
    band[:width] = rng.uniform(-1.0, 1.0, (width, n))
    for k in range(1, width + 1):    # entries beyond the top-left corner
        band[width - k, :k] = 0.0
    # at most 2 width off-diagonal entries of size below 1 in a row
    band[width] = 1.0 + 2.0 * width
    factor, info = scipy.linalg.lapack.dpbtrf(band, lower=0)
    assert info == 0
    rows, cols = np.triu_indices(n)
    inside = cols - rows <= width
    dense = np.zeros((n, n))
    dense[rows[inside], cols[inside]] = factor[
        width + rows[inside] - cols[inside], cols[inside]]
    return factor, dense


def row_ranges(tiles, layout, n, below):
    """First and last row of each tile's block: every row, the rows from
    the tile's first column on (the congruence's second sweep), or the
    rows inside a lower band ``below`` wide (its first sweep)."""
    if layout == "full":
        return [(0, n) for _ in tiles]
    if layout == "suffix":
        return [(start, n) for start, *_ in tiles]
    return [(0, min(n, stop + below)) for _, stop, *_ in tiles]


def relative_error(got, want):
    return np.linalg.norm(got - want) / max(np.linalg.norm(want), 1e-300)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(n=st.integers(1, 300), band=st.integers(0, 150),
       layout=st.sampled_from(["full", "suffix", "prefix"]),
       below=st.integers(0, 300), seed=st.integers(0, 2 ** 16))
@example(n=1, band=0, layout="full", below=0, seed=0)
@example(n=200, band=0, layout="prefix", below=7, seed=1)
@example(n=40, band=12, layout="suffix", below=0, seed=2)
@example(n=3 * _TILE + 17, band=20, layout="prefix", below=20, seed=3)
@example(n=300, band=_TILE + 36, layout="suffix", below=0, seed=4)
@example(n=300, band=150, layout="full", below=0, seed=5)
def test_tiled_sweeps_match_dense_triangular_solves(n, band, layout, below,
                                                    seed):
    width = min(band, n - 1)
    factor, dense = band_factor(n, width, seed)
    tiles = _band_tiles(factor)
    assert all(stop - start == max(width, _TILE)
               for start, stop, *_ in tiles[:-1])
    rhs = np.random.default_rng(seed + 1).standard_normal((n, n))
    if layout == "prefix":     # zero below the lower band, as P T P^T
        rhs = np.triu(rhs, -below)

    # X U = B, on each tile's rows only
    want = scipy.linalg.solve_triangular(dense, rhs.T, trans="T").T
    ranges = row_ranges(tiles, layout, n, below)
    blocks = [(first, np.asfortranarray(rhs[first:last, start:stop]))
              for (start, stop, *_), (first, last) in zip(tiles, ranges)]
    got = np.zeros((n, n))
    mask = np.zeros((n, n), dtype=bool)
    for (start, stop, *_), (first, block), solved in zip(
            tiles, blocks, _forward_sweep(tiles, iter(blocks))):
        assert solved is block
        got[first:first + len(block), start:stop] = solved
        mask[first:first + len(block), start:stop] = True
    assert relative_error(got, np.where(mask, want, 0.0)) <= 1e-13

    # X U^T = B, in place on every row
    want = scipy.linalg.solve_triangular(dense, rhs.T).T
    got = np.asfortranarray(rhs)
    _backward_sweep(tiles, got)
    assert relative_error(got, want) <= 1e-13
