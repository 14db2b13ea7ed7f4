"""The table writers write the same bytes as the per-row code they replaced.

The oracle below is that code: one `%.12g` row template applied row by row
to a Python list, the lines joined with newlines, for `write_table`, and the
`column_stack` of (t, order, level, energy, x, y, z) rows for
`write_frames_csv`.
"""
import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

import superlind as sl
from superlind._output import BLOCK_ROWS, write_table
from superlind.frames import bloch_vector

from lzutil import ladder_hamiltonian, lz_setup


def _oracle_text(comments, columns, rows) -> str:
    lines = [f"# {c}" for c in comments]
    lines.append(",".join(columns))
    template = ",".join(["%.12g"] * len(columns))
    lines += [template % tuple(row) for row in rows]
    return "\n".join(lines) + "\n"


def _oracle_frames_text(traj) -> str:
    comments = ["superlind frame trajectory", f"order = {traj.order}", f"points = {len(traj)}"]
    columns = ["t", "order", "level", "energy"]
    bloch = ()
    if traj.dim == 2:
        comments.append("bloch convention: x = 2 Re rho01, y = 2 Im rho10, z = rho00 - rho11")
        columns += ["x", "y", "z"]
        bloch = bloch_vector(np.einsum("kia,kja->kaij", traj.basis, traj.basis.conj()))
    k, n = traj.energies.shape
    rows = np.column_stack([np.repeat(traj.times, n), np.full(k * n, traj.order),
                            np.tile(np.arange(n), k), traj.energies.ravel(),
                            *(c.ravel() for c in bloch)]).tolist()
    return _oracle_text(comments, columns, rows)


_TINY = np.finfo(float).tiny
_EDGES = [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, -5e-324, _TINY / 3, _TINY,
          1e-5, np.nextafter(1e-5, 0.0), 1e-4, 1e12, np.nextafter(1e12, 0.0), 1e16,
          np.nextafter(1e16, 0.0), np.nextafter(1e16, np.inf), 999999999999.5, 0.1, 1 / 3,
          1.7976931348623157e308, 123456789012.5]

_numbers = st.one_of(
    st.sampled_from(_EDGES),
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(-1e-3, 1e-3),
    st.integers(-2**62, 2**62),
    st.booleans(),
)


@st.composite
def _tables(draw):
    width = draw(st.integers(1, 5))
    return width, draw(st.lists(st.lists(_numbers, min_size=width, max_size=width), max_size=40))


_FEEDS = {
    "list": lambda rows, width: rows,
    "ndarray": lambda rows, width: np.array(rows, dtype=float).reshape(-1, width),
    "generator": lambda rows, width: (tuple(r) for r in rows),
    "zip": lambda rows, width: zip(*([r[j] for r in rows] for j in range(width))),
}


@pytest.mark.parametrize("feed", list(_FEEDS))
@settings(max_examples=150, deadline=None)
@given(table=_tables())
def test_write_table_bytes_match_per_row_oracle(tmp_path_factory, feed, table):
    width, rows = table
    columns = [f"c{j}" for j in range(width)]
    out = tmp_path_factory.getbasetemp() / f"oracle-{feed}.csv"
    write_table(out, ["first", "second = 2"], columns, _FEEDS[feed](rows, width))
    assert out.read_text() == _oracle_text(["first", "second = 2"], columns, rows)


def test_write_table_bytes_across_blocks(tmp_path):
    """More rows than one block, with every edge value in the last partial block."""
    rng = np.random.default_rng(3)
    rows = rng.standard_normal((2 * BLOCK_ROWS + 17, 3)) * 10.0 ** rng.integers(-320, 300, (1, 3))
    rows[-len(_EDGES):, 0] = _EDGES
    want = _oracle_text(["blocks"], ["a", "b", "c"], rows.tolist())
    for feed in (rows, rows.tolist(), (tuple(r) for r in rows), zip(*rows.T)):
        out = tmp_path / "blocks.csv"
        write_table(out, ["blocks"], ["a", "b", "c"], feed)
        assert out.read_text() == want


@pytest.mark.parametrize("rows", [[], np.empty((0, 2)), iter(()), zip([], [])],
                         ids=["list", "ndarray", "generator", "zip"])
def test_write_table_zero_rows(tmp_path, rows):
    out = tmp_path / "empty.csv"
    write_table(out, ["c"], ["a", "b"], rows)
    assert out.read_text() == "# c\na,b\n"


def test_write_table_numpy_scalars(tmp_path):
    rows = [[np.uint64(2**64 - 1), 1.5], [np.float32(0.1), np.int64(-7)], [True, np.bool_(False)]]
    out = tmp_path / "mixed.csv"
    write_table(out, [], ["a", "b"], rows)
    assert out.read_text() == _oracle_text([], ["a", "b"], rows)


@pytest.mark.parametrize("rows,error", [
    ([[1.0, "2"]], TypeError),
    ([[1.0, None]], TypeError),
    ([[2**70, 1.0]], TypeError),
    ([[1.0, 2.0j]], TypeError),
    (np.ones((2, 2), dtype=complex), TypeError),
    ([[1.0, 2.0], [3.0]], ValueError),
    ([[1.0, 2.0, 3.0]], ValueError),
    ([1.0, 2.0], ValueError),
    ([[], []], ValueError),
], ids=["string", "none", "int-past-64-bits", "complex", "complex-array", "ragged", "wide", "flat", "no-columns"])
def test_bad_rows_raise_before_the_file_opens(tmp_path, rows, error):
    out = tmp_path / "bad.csv"
    with pytest.raises(error):
        write_table(out, ["c"], ["a", "b"], rows)
    assert not out.exists()


def test_write_table_to_stdout(capsys):
    rows = [[0.5, -0.0], [np.inf, 1e-7]]
    write_table(None, ["to stdout"], ["a", "b"], rows)
    assert capsys.readouterr().out == _oracle_text(["to stdout"], ["a", "b"], rows)


@pytest.fixture(scope="module")
def frame_trajectories():
    """N = 2 LZ at 1/v = 12 and the N = 3 affine ladder, orders 0 and 12; each
    holds more rows than one block."""
    H, _, times, lz0, _ = lz_setup(12.0)
    lz12 = sl.superadiabatic_frames(H, 12, times, base=lz0)
    H = ladder_hamiltonian()
    times = sl.adaptive_time_grid(H, -150.0, 150.0)
    ladder0 = sl.instantaneous_frames(H, times)
    ladder12 = sl.superadiabatic_frames(H, 12, times, base=ladder0)
    return {"lz-0": lz0, "lz-12": lz12, "ladder-0": ladder0, "ladder-12": ladder12}


@pytest.mark.parametrize("name", ["lz-0", "lz-12", "ladder-0", "ladder-12"])
def test_write_frames_csv_bytes_match_per_row_oracle(tmp_path, frame_trajectories, name):
    traj = frame_trajectories[name]
    assert traj.energies.size > BLOCK_ROWS
    out = tmp_path / f"{name}.csv"
    sl.write_frames_csv(traj, out)
    assert out.read_text() == _oracle_frames_text(traj)


def test_write_bloch_csv_bytes_match_per_row_oracle(tmp_path):
    rng = np.random.default_rng(5)
    psis = rng.standard_normal((50, 2)) + 1j * rng.standard_normal((50, 2))
    psis /= np.linalg.norm(psis, axis=1)[:, None]
    rhos = np.einsum("ki,kj->kij", psis, psis.conj())
    times = np.linspace(-3.0, 3.0, 50)
    out = tmp_path / "bloch.csv"
    sl.write_bloch_csv(out, times, rhos, header_lines=["case = random"])
    comments = ["superlind bloch time series", "case = random",
                "convention: x = 2 Re rho01, y = 2 Im rho10, z = rho00 - rho11"]
    rows = list(zip(times, *bloch_vector(rhos)))
    assert out.read_text() == _oracle_text(comments, ["t", "x", "y", "z"], rows)

