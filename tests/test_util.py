import io
import math

import numpy as np
import pytest

from confweight import DEFAULT_SEED, default_seed, pairwise_sum
from confweight.util import (CSV_BLOCK_ROWS, IndexedColumn, as_complex_array, fmt_g,
                            write_csv)


def test_default_seed_value():
    assert DEFAULT_SEED == 0x5EED
    assert default_seed() == 0x5EED


def test_default_seed_env_override(monkeypatch):
    monkeypatch.setenv("CW_SEED", "12345")
    assert default_seed() == 12345
    monkeypatch.setenv("CW_SEED", "0x10")
    assert default_seed() == 16


def test_pairwise_sum_matches_exact():
    vals = np.arange(1, 1001, dtype=float)
    assert pairwise_sum(vals) == pytest.approx(500500.0, rel=0, abs=0)


def test_pairwise_sum_deterministic_and_shaped():
    rng = np.random.default_rng(7)
    vals = rng.uniform(size=(37, 53))
    assert pairwise_sum(vals) == pairwise_sum(vals.copy())
    # pairwise tree keeps roundoff well under naive-sum growth
    assert abs(pairwise_sum(vals) - float(np.sum(vals, dtype=np.longdouble))) < 1e-9


def test_pairwise_sum_empty_and_single():
    assert pairwise_sum(np.array([])) == 0.0
    assert pairwise_sum(np.array([3.5])) == 3.5


def _block_sums(x, block):
    return np.array([pairwise_sum(x[i:i + block]) for i in range(0, x.size, block)])


@pytest.mark.parametrize("size, block", [(1, 1), (8, 2), (64, 64), (1024, 8), (4096, 1024)])
def test_pairwise_sum_of_power_of_two_block_sums_is_the_same_tree(size, block):
    x = np.random.default_rng(size + block).standard_normal(size) * 1e3
    assert pairwise_sum(_block_sums(x, block)) == pairwise_sum(x)


def test_pairwise_sum_block_identity_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hypothesis.settings(max_examples=60, deadline=None, database=None)
    @hypothesis.given(st.integers(0, 10).flatmap(lambda m: st.tuples(
        st.integers(0, m).map(lambda b: 1 << b),
        st.lists(st.floats(-1e100, 1e100), min_size=1 << m, max_size=1 << m))))
    def check(case):
        block, values = case
        x = np.array(values)
        assert pairwise_sum(_block_sums(x, block)) == pairwise_sum(x)

    check()


def _zero_padded(values, start, size):
    out = np.zeros(size)
    out[start:start + len(values)] = values
    return out


@pytest.mark.parametrize("values, start, size", [
    ([], 0, 0), ([], 3, 7), ([-0.0], 0, 1), ([-0.0], 0, 3), ([-0.0], 1, 2),
    ([-0.0, -0.0, -0.0], 0, 3), ([-0.0, -0.0], 4, 9), ([1.5, -2.0, 3.25], 5, 8),
    ([1e16, 1.0, -1e16], 1, 5), ([2.0] * 7, 6, 13),
])
def test_pairwise_sum_at_an_offset_edge_cases(values, start, size):
    got = pairwise_sum(np.array(values, dtype=float), start, size)
    assert got.hex() == pairwise_sum(_zero_padded(values, start, size)).hex()


def test_pairwise_sum_at_an_offset_has_the_bits_of_the_zero_padded_vector():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    floats = st.floats(-1e100, 1e100) | st.sampled_from([0.0, -0.0])

    @hypothesis.settings(max_examples=400, deadline=None, database=None)
    @hypothesis.given(st.data())
    def check(data):
        size = data.draw(st.integers(0, 300), "size")
        values = data.draw(st.lists(floats, max_size=size), "values")
        start = data.draw(st.integers(0, size - len(values)), "start")
        got = pairwise_sum(np.array(values, dtype=float), start, size)
        assert got.hex() == pairwise_sum(_zero_padded(values, start, size)).hex()

    check()


def test_write_csv_float_cells_round_trip():
    vals = np.array([0.1, -3.0, 1.0 / 3.0, 1e-300, 123456.789, np.pi])
    buf = io.StringIO()
    write_csv(buf, ("v",), (vals,))
    assert [float(cell) for cell in buf.getvalue().splitlines()[1:]] == vals.tolist()


@pytest.mark.parametrize("x, text", [
    (-4.0, "-4"), (0.5, "0.5"), (-0.0, "-0"), (1e-05, "1e-05"), (2e20, "2e+20"),
    (0.123457, "0.123457"), (0.123456789, "0.123456789"), (1.23456789, "1.23456789"),
    (1.0 / 3.0, "0.3333333333333333"), (math.inf, "inf")])
def test_fmt_g_keeps_the_g_text_only_when_it_reads_back(x, text):
    assert fmt_g(x) == text
    assert float(fmt_g(x)) == x


def test_fmt_g_reads_back_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hypothesis.settings(max_examples=500, deadline=None, database=None)
    @hypothesis.given(st.floats(allow_nan=False))
    def check(x):
        assert float(fmt_g(x)) == x

    check()


def test_as_complex_array_scalar_flag():
    arr, scalar = as_complex_array(1 + 2j)
    assert scalar and arr.shape == ()
    arr, scalar = as_complex_array(np.zeros(4, dtype=complex))
    assert not scalar and arr.shape == (4,)


def test_as_complex_array_rejects_nonfinite():
    with pytest.raises(ValueError):
        as_complex_array(complex("nan"))


def test_default_seed_rejects_garbage(monkeypatch):
    monkeypatch.setenv("CW_SEED", "banana")
    with pytest.raises(ValueError, match="CW_SEED"):
        default_seed()


def _cell(v) -> str:
    """The reference cell: 17 significant digits for a float, else its str."""
    return format(v, ".17g") if isinstance(v, float) else str(v)


def _reference_table(header, columns) -> str:
    """The reference CSV: one _cell call per cell, one row at a time."""
    rows = zip(*(np.ravel(c).tolist() for c in columns))
    return ",".join(header) + "\n" + "".join(",".join(_cell(v) for v in row) + "\n"
                                             for row in rows)


def test_write_csv_cells_match_the_reference_for_special_values():
    vals = np.array([-0.0, 0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308,
                     0.1, 1.0 / 3.0, np.nan, np.inf, -np.inf, 1e-300, 123456.789])
    cols = (vals, vals[::-1], -vals)
    buf = io.StringIO()
    write_csv(buf, ("a", "b", "c"), cols)
    assert buf.getvalue() == _reference_table(("a", "b", "c"), cols)
    lines = buf.getvalue().splitlines()
    assert lines[1] == "-0,123456.789,0"
    assert lines[3] == "4.9406564584124654e-324,-inf,-4.9406564584124654e-324"
    assert lines[8] == "nan,-1.7976931348623157e+308,nan"
    assert lines[9] == "inf,1.7976931348623157e+308,-inf"


_POWERS = [float(f"1e{e}") for e in range(-5, 18)]
_EDGES = [123456789012345.625, 99999999999999999.0, 1e-4, math.nextafter(1e-4, 0.0), 0.0,
          5e-324, 1.7976931348623157e308, math.inf, math.nan] + [
    math.nextafter(p, to) for p in _POWERS for to in (0.0, p, math.inf)]


@pytest.mark.parametrize("x", _EDGES, ids=repr)
def test_write_csv_float_cell_edges(x):
    # the edges of the fixed-notation range, powers of ten and their neighbours, and
    # the values "%.17g" writes in exponent form or as a word
    column = np.array([x, -x])
    buf = io.StringIO()
    write_csv(buf, ("v",), (column,))
    assert buf.getvalue() == _reference_table(("v",), (column,))


def test_write_csv_float_cells_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hypothesis.settings(max_examples=500, deadline=None, database=None)
    @hypothesis.given(st.lists(st.floats(), min_size=1, max_size=40))
    def check(values):
        column = np.array(values)
        buf = io.StringIO()
        write_csv(buf, ("v",), (column,))
        assert buf.getvalue() == _reference_table(("v",), (column,))

    check()


def test_write_csv_float32_cells_take_the_text_of_their_float64_value():
    column = np.array([0.1, 1.0 / 3.0, 1e-5, 3e38, -2.5, 0.0, np.inf], dtype=np.float32)
    buf = io.StringIO()
    write_csv(buf, ("v",), (column,))
    assert buf.getvalue() == _reference_table(("v",), (column.astype(float),))
    assert buf.getvalue().splitlines()[1] == "0.10000000149011612"


@pytest.mark.parametrize("rows", [0, 1, CSV_BLOCK_ROWS, CSV_BLOCK_ROWS + 1])
def test_write_csv_row_counts_around_the_block(rows):
    rng = np.random.default_rng(rows)
    z = rng.standard_normal(rows) + 1j * rng.standard_normal(rows)
    u = rng.standard_normal(rows)
    buf = io.StringIO()
    write_csv(buf, ("x", "y", "u"), (z.real, z.imag, u))
    text = buf.getvalue()
    assert text == _reference_table(("x", "y", "u"), (z.real, z.imag, u))
    assert text.count("\n") == 1 + rows


def test_write_csv_writes_blocks_straight_to_the_target():
    writes = []

    class Recorder(io.StringIO):
        def write(self, text):
            writes.append(text.count("\n"))
            return super().write(text)

    buf = Recorder()
    grid = np.arange(2.0 * CSV_BLOCK_ROWS + 1).reshape(-1, 1)  # 2-d columns ravel
    write_csv(buf, ("i", "j"), (grid, -grid))
    assert writes == [1, CSV_BLOCK_ROWS, CSV_BLOCK_ROWS, 1]  # the header, then each block
    assert buf.getvalue() == _reference_table(("i", "j"), (grid, -grid))


def test_write_csv_opens_a_path(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ("v",), (np.array([0.5, 2.0]),))
    assert path.read_bytes() == b"v\n0.5\n2\n"
    write_csv(str(path), ("v",), (np.array([]),))
    assert path.read_bytes() == b"v\n"


@pytest.mark.parametrize("column, cells", [
    (["pass", "FAIL", "mismatch.strip"], ["pass", "FAIL", "mismatch.strip"]),
    ([True, False], ["True", "False"]),
    ([0, -7, 2**40], ["0", "-7", "1099511627776"]),
])
def test_write_csv_writes_a_non_float_column_as_str(column, cells):
    vals = np.array([0.1, -0.0, 1.0 / 3.0])[:len(column)]
    buf = io.StringIO()
    write_csv(buf, ("k", "v"), (column, vals))
    assert buf.getvalue() == _reference_table(("k", "v"), (column, vals))
    assert [line.split(",")[0] for line in buf.getvalue().splitlines()[1:]] == cells


def test_write_csv_one_mixed_row():
    # float cells keep 17 digits beside str, bool and int cells, as numpy's text would not
    row = ([0.1], ["Converged"], [False], [8], ["3.0 2.5"], [float("inf")])
    header = ("value", "verdict", "flag", "levels", "level_values", "bound")
    buf = io.StringIO()
    write_csv(buf, header, row, "# k=v\n")
    assert buf.getvalue() == "# k=v\n" + _reference_table(header, row)
    assert buf.getvalue().splitlines()[2] == "0.10000000000000001,Converged,False,8,3.0 2.5,inf"


def _expanded(column: IndexedColumn) -> np.ndarray:
    return np.ravel(column.values)[np.ravel(column.index)]


SPECIAL = np.array([-0.0, 0.0, np.nan, np.inf, -np.inf, 5e-324, 0.1, 1.0 / 3.0])


@pytest.mark.parametrize("rows", [0, 1, CSV_BLOCK_ROWS, CSV_BLOCK_ROWS + 1])
def test_indexed_column_writes_the_text_of_its_expanded_column(rows):
    # indices repeat and come out of order; -0.0 sits beside 0.0
    rng = np.random.default_rng(rows)
    col = IndexedColumn(SPECIAL, rng.integers(0, SPECIAL.size, rows))
    plain = rng.standard_normal(rows)
    names = [f"k{i}" for i in range(rows)]
    buf = io.StringIO()
    write_csv(buf, ("u", "x", "k", "v"), (col, plain, names, col))
    expanded = _expanded(col)
    assert buf.getvalue() == _reference_table(("u", "x", "k", "v"),
                                              (expanded, plain, names, expanded))
    assert buf.getvalue().count("\n") == 1 + rows


def test_indexed_column_beside_float_columns_only():
    index = np.arange(2 * CSV_BLOCK_ROWS + 3)[::-1] % SPECIAL.size
    col = IndexedColumn(SPECIAL, index.reshape(-1, 1))  # 2-d indices ravel
    x = np.linspace(-1.0, 1.0, index.size)
    buf = io.StringIO()
    write_csv(buf, ("x", "u"), (x, col))
    assert buf.getvalue() == _reference_table(("x", "u"), (x, _expanded(col)))
    lines = buf.getvalue().splitlines()
    assert {line.split(",")[1] for line in lines[1:]} == {
        "-0", "0", "nan", "inf", "-inf", "4.9406564584124654e-324", "0.10000000000000001",
        "0.33333333333333331"}


def test_indexed_column_formats_each_value_once():
    formatted = []

    class Value(float):
        def __str__(self):
            formatted.append(float(self))
            return f"v{float(self):g}"

    values = np.array([Value(1.5), Value(-2.0)], dtype=object)
    col = IndexedColumn(values, np.array([1, 0, 0, 1, 1] * CSV_BLOCK_ROWS))
    buf = io.StringIO()
    write_csv(buf, ("v",), (col,))
    assert sorted(formatted) == [-2.0, 1.5]
    assert buf.getvalue().splitlines()[1:6] == ["v-2", "v1.5", "v1.5", "v-2", "v-2"]


def test_indexed_column_with_str_values():
    col = IndexedColumn(np.array(["pass", "FAIL"]), np.array([0, 1, 1, 0]))
    buf = io.StringIO()
    write_csv(buf, ("verdict", "v"), (col, np.array([0.1, -0.0, 2.0, 0.5])))
    assert buf.getvalue() == "verdict,v\npass,0.10000000000000001\nFAIL,-0\nFAIL,2\npass,0.5\n"


def test_a_tuple_column_is_a_plain_column():
    # verify's columns come from zip and are tuples; a pair of them is not values and indices
    cols = tuple(zip(*[("a", 0.5), ("b", -0.0)]))
    buf = io.StringIO()
    write_csv(buf, ("k", "v"), cols)
    assert buf.getvalue() == "k,v\na,0.5\nb,-0\n"


def test_distinct_keeps_every_bit_pattern():
    x = np.array([0.0, -0.0, 1.0, -0.0, 5e-324, 0.0, np.inf, 1.0, -np.inf])
    z = np.full(x.size, 2j)
    z.real = x
    col = IndexedColumn.distinct(z.real)  # a strided view
    assert col.values.size == 6
    assert _expanded(col).view(np.int64).tolist() == x.view(np.int64).tolist()
    assert IndexedColumn.distinct(np.empty(0)).values.size == 0
