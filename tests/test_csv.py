"""The table writers of `sampling._write_csv`, byte for byte against np.savetxt and Python's '%.12g'."""

import numpy as np
import pytest

from varband.kernel import ToyModel
from varband.sampling import _G12_ROWS, _g12_digits, _g12_rows, _write_csv
from varband.spectral import SpectralSet

COLUMNS = 8


def g12_reference(table):
    """The bytes np.savetxt(fmt="%.12g", delimiter=",", newline="\\r\\n") writes for a table."""
    return "".join(",".join("%.12g" % v for v in row) + "\r\n" for row in table.tolist()).encode()


def neighbours(values):
    """Each value and the floats just below and just above it."""
    values = np.asarray(values, dtype=float)
    return np.concatenate([values, np.nextafter(values, -np.inf), np.nextafter(values, np.inf)])


def property_values():
    """Over 10^6 values: random bits, log-uniform magnitudes, near-ties, carries, powers of ten."""
    rng = np.random.default_rng(20260419)
    signs = rng.choice([-1.0, 1.0], 350_000)
    twelve = rng.integers(10**11, 10**12, 70_000).astype(float)
    scales = 10.0 ** rng.integers(-25, 26, 70_000)
    ties = (twelve + 0.5) * scales
    carries = (10**12 - 0.5) * 10.0 ** np.arange(-40, 40)
    subnormals = np.concatenate([[5e-324, 2.2250738585072009e-308],
                                 rng.integers(1, 2**52, 1000).astype(np.uint64).view(float)])
    specials = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1.7976931348623157e308,
                         2.2250738585072014e-308, 999999999999.5, 99999999999.95,
                         9.999999999995e-5, 1e-4, 1e12, 123456789012.5])
    return np.concatenate([
        rng.integers(0, 2**64, 350_000, dtype=np.uint64).view(float),
        signs * 10.0 ** rng.uniform(-30, 30, 350_000),
        signs[:210_000] * neighbours(ties),
        neighbours(twelve * scales)[:120_000],
        neighbours(carries),
        neighbours(np.array([10.0**k for k in range(-323, 309)])),
        neighbours(subnormals),
        specials, -specials,
    ])


def test_matches_python_on_a_million_values():
    values = property_values()
    table = values[: values.size // COLUMNS * COLUMNS].reshape(-1, COLUMNS)
    assert table.size >= 10**6
    for block in np.array_split(table, 8):
        assert _g12_rows(block) == g12_reference(block)


@pytest.mark.parametrize("shape", [(1, 1), (5, 1), (1, 7), (3, 402)])
def test_every_table_shape_ends_rows_with_crlf(shape):
    rng = np.random.default_rng(sum(shape))
    table = rng.normal(scale=1e3, size=shape) * 10.0 ** rng.integers(-8, 14, shape)
    assert _g12_rows(table) == g12_reference(table)


def test_writer_matches_savetxt_across_blocks(tmp_path):
    rng = np.random.default_rng(7)
    rows = 4 * _G12_ROWS + 1  # full blocks and one row left over
    table = rng.normal(size=(rows, 9)) * 10.0 ** rng.integers(-6, 14, (rows, 9))
    table[3, 4], table[-1, 0], table[-1, 8] = np.nan, -0.0, np.inf
    header = ["x\\y"] + [f"c{j}" for j in range(8)]
    _write_csv(tmp_path / "fast.csv", header, table, fmt="%.12g")
    with open(tmp_path / "savetxt.csv", "w", newline="") as fh:
        np.savetxt(fh, table, fmt="%.12g", delimiter=",", newline="\r\n",
                   header=",".join(header), comments="")
    assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "savetxt.csv").read_bytes()


def test_kernel_grid_rarely_falls_back():
    # a bug that sent every value to Python's formatter would pass the byte checks
    xs = np.linspace(-10.0, 10.0, 401)
    K = ToyModel(1.0, 4.0, SpectralSet([[0.0, 2.0]]), x_max=10.0).kernel_matrix(xs, xs)
    _, _, ok = _g12_digits(np.abs(np.column_stack([xs, K])))
    assert np.mean(~ok) < 0.01


def savetxt_bytes(tmp_path, header, table, fmt):
    with open(tmp_path / "savetxt.csv", "w", newline="") as fh:
        np.savetxt(fh, table, fmt=fmt, delimiter=",", newline="\r\n",
                   header=",".join(header), comments="")
    return (tmp_path / "savetxt.csv").read_bytes()


def repr_tables():
    """Tables of random bits, specials, values either side of 1e16 and 1e-4, and integers."""
    rng = np.random.default_rng(20261019)
    bits = rng.integers(0, 2**64, 200_000, dtype=np.uint64).view(float).reshape(-1, 8)
    specials = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324,
                         1.7976931348623157e308, 2.2250738585072014e-308])
    edges = neighbours([1e16, -1e16, 1e-4, -1e-4, 1e15, 1e-5, 0.1, 1.0, 2.0**53])
    scaled = 10.0 ** rng.uniform(-6, 18, (2000, 4)) * rng.choice([-1.0, 1.0], (2000, 4))
    counts = np.arange(-50, 50).reshape(-1, 4)
    return {
        "random_bits": bits,
        "specials": np.concatenate([specials, -specials]).reshape(-1, 2),
        "edges": edges.reshape(-1, 3),
        "scaled": scaled,
        "integer_valued_columns": np.column_stack([counts.astype(float), scaled[:25, :2]]),
        "integer_dtype": counts,
        "one_row": bits[:1],
        "one_column": np.concatenate([specials, edges])[:, None],
        "one_value": np.array([[-0.0]]),
        "no_rows": np.empty((0, 3)),
    }


@pytest.mark.parametrize("name", sorted(repr_tables()))
def test_repr_writer_matches_savetxt(tmp_path, name):
    table = repr_tables()[name]
    header = [f"c{j}" for j in range(table.shape[1])]
    _write_csv(tmp_path / "fast.csv", header, table)
    assert (tmp_path / "fast.csv").read_bytes() == savetxt_bytes(tmp_path, header, table, "%s")
