import math
import os
import re
import sys
from fractions import Fraction
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bellmeter.counts import Column
from bellmeter.dataset import TableReader, _parse_cells, sidecar_path, write_table
from bellmeter.errors import SchemaViolationError

INT64 = st.one_of(st.sampled_from([0, 2**63 - 1, -(2**63)]), st.integers(-(2**63), 2**63 - 1))
# NaN only as the one NaN that repr() and float() give back: the TSV text has no NaN payload or sign
FLOAT64 = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, -2.2250738585072e-308]),
    st.floats(allow_nan=False, allow_subnormal=True),
)


def records(names, derived=()):
    """The Column records of `names`: derived if named in `derived`, else coordinates, written exactly."""
    return [Column(name, "derived" if name in derived else "coordinate") for name in names]


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    data=st.data(),
    kinds=st.lists(st.sampled_from(["i", "f"]), min_size=1, max_size=4),
    n_rows=st.integers(1, 9),
    block_rows=st.sampled_from([2, 4096]),
)
def test_dataset_roundtrip_keeps_dtype_and_bits(tmp_path_factory, data, kinds, n_rows, block_rows):
    columns = [f"{kind}{j}" for j, kind in enumerate(kinds)]
    arrays = [
        np.array(
            data.draw(st.lists(INT64 if kind == "i" else FLOAT64, min_size=n_rows, max_size=n_rows)),
            dtype=np.int64 if kind == "i" else np.float64,
        )
        for kind in kinds
    ]
    path, again = (tmp_path_factory.mktemp("roundtrip") / name for name in ("data.tsv", "again.tsv"))
    blocks = [[values[start : start + block_rows] for values in arrays] for start in range(0, n_rows, block_rows)]
    with patch("bellmeter.dataset._BLOCK_ROWS", block_rows):
        assert write_table(path, records(columns), blocks, {"k": 1}) == n_rows
        table = TableReader(path)
        back = list(table.blocks(columns))
        write_table(again, records(columns), back, {})
    assert table.columns == columns and table.metadata["k"] == 1
    assert [len(block[0]) for block in back] == [len(block[0]) for block in blocks]
    for j, written in enumerate(arrays):
        assert {block[j].dtype for block in back} == {written.dtype}
        read = np.concatenate([block[j] for block in back])
        assert read.view(np.int64).tolist() == written.view(np.int64).tolist()
    assert again.read_text() == path.read_text()


def test_dataset_column_is_float_when_one_cell_is_not_integer_text(tmp_path):
    # blocks of 2 rows: the first block of x parses as int64, the second as
    # float64, and each is written back as it was read
    path = tmp_path / "mixed.tsv"
    path.write_text("x\tn\n12\t1\n13\t2\n12.5\t3\n")
    with patch("bellmeter.dataset._BLOCK_ROWS", 2):
        (x1, n1), (x2, n2) = blocks = list(TableReader(path).blocks(["x", "n"]))
        write_table(tmp_path / "again.tsv", records(["x", "n"]), blocks, {})
    assert x1.dtype == np.int64 and x1.tolist() == [12, 13]
    assert x2.dtype == np.float64 and x2.tolist() == [12.5]
    assert n1.dtype == n2.dtype == np.int64 and n1.tolist() + n2.tolist() == [1, 2, 3]
    assert (tmp_path / "again.tsv").read_text() == path.read_text()


def test_dataset_rejects_mismatched_shapes_and_duplicate_names(tmp_path):
    path = tmp_path / "x.tsv"
    with pytest.raises(ValueError, match=r"a block of 2 columns of lengths \[1, 2\] for 2 names"):
        write_table(path, records(["x", "n"]), [[np.array([1, 3]), np.array([2])]], {})
    with pytest.raises(ValueError, match=r"a block of 1 columns of lengths \[2\] for 2 names"):
        write_table(path, records(["x", "n"]), [[np.array([1, 3])]], {})
    assert list(tmp_path.iterdir()) == []
    path.write_text("x\tn\tx\n1\t2\t3\n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: column 'x' appears twice$"):
        TableReader(path)


def test_a_zero_row_block_adds_no_line(tmp_path):
    path = tmp_path / "x.tsv"
    blocks = [[np.array([1, 2]), ["0.5", "1"]], [np.array([], dtype=np.int64), []], [np.array([3]), ["2"]]]
    assert write_table(path, records(["n", "y"], derived=["y"]), blocks, {}) == 3
    assert path.read_text() == "n\ty\n1\t0.5\n2\t1.0\n3\t2.0\n"


def test_a_write_takes_the_next_temporary_name_when_one_is_taken(tmp_path):
    path = tmp_path / "x.tsv"
    taken = tmp_path / f".x.tsv.{os.getpid()}-0.tmp"
    taken.write_text("another writer's")
    write_table(path, records(["n"]), [[np.array([1, 2])]], {})
    assert path.read_text() == "n\n1\n2\n"
    assert taken.read_text() == "another writer's"
    assert sorted(p.name for p in tmp_path.iterdir()) == [taken.name, "x.tsv", "x.tsv.meta.json"]


def test_dataset_read_names_a_sidecar_that_is_no_json_object(tmp_path):
    path = tmp_path / "x.tsv"
    write_table(path, records(["n"]), [[np.array([1])]], {"k": 1})
    assert TableReader(path).metadata["k"] == 1
    sidecar, name = sidecar_path(path), re.escape(str(sidecar_path(path)))
    sidecar.write_text("{bad")
    with pytest.raises(ValueError, match=f"^{name} is not JSON: "):
        TableReader(path)
    for value in ("[1, 2]", "3", "null"):
        sidecar.write_text(value)
        with pytest.raises(SchemaViolationError, match=f"^{name} holds no JSON object$"):
            TableReader(path)
    sidecar.write_text('{"columns": ["n"], "k": {"a": 1, "a": 1}}')
    with pytest.raises(SchemaViolationError, match=f"^{name}: duplicate key 'a'$"):
        TableReader(path)


def reference_parse(cells):
    """A column's cells as int() per cell gives them, in int64, or else as float() per cell gives them."""
    try:
        return np.array(list(map(int, cells)), dtype=np.int64)
    except (ValueError, OverflowError):
        return np.array(list(map(float, cells)))


def parse_outcome(parse, cells):
    """The dtype and bytes that `parse` gives for `cells`, or the class of the exception it raises."""
    try:
        values = parse(cells)
    except Exception as exc:
        return type(exc)
    return values.dtype, values.tobytes()


ARABIC_INDIC_DIGITS = str.maketrans("0123456789", "".join(map(chr, range(0x660, 0x66A))))


@st.composite
def integer_text(draw):
    # 19 to 25 digits overflow int64 from 9223372036854775808 on
    digits = str(draw(st.one_of(st.integers(0, 2**64), st.integers(10**18, 10**25 - 1))))
    if len(digits) > 1 and draw(st.booleans()):
        cut = draw(st.integers(1, len(digits) - 1))
        digits = digits[:cut] + "_" + digits[cut:]
    if draw(st.booleans()):
        digits = digits.translate(ARABIC_INDIC_DIGITS)
    pad = draw(st.sampled_from(["", " ", "  ", "\u2003"]))
    return pad + draw(st.sampled_from(["", "+", "-"])) + digits + pad


CELL = st.one_of(
    integer_text(),
    st.sampled_from(["12.0", "1e3", "nan", "", " ", "-0", "inf", "1__0", "_1", "1_", "+-1", "abc", "0x10"]),
    st.floats().map(repr),
)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(cells=st.lists(CELL, max_size=5))
@example(cells=["9223372036854775807", "-9223372036854775808"])
@example(cells=["1", "9223372036854775808"])
@example(cells=["12", "1_000", " \u0661\u0662 ", "+7"])
def test_numpy_parse_equals_int_per_cell_with_the_float_fallback(cells):
    assert parse_outcome(_parse_cells, cells) == parse_outcome(reference_parse, cells)


def test_an_integer_beyond_int64_makes_a_float_column():
    assert _parse_cells(["1", "9223372036854775807"]).dtype == np.int64
    for digits in range(19, 26):
        column = _parse_cells(["1", "9" * digits])
        assert column.dtype == np.float64 and column.tolist() == [1.0, float("9" * digits)]


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(cells=st.lists(st.one_of(CELL, st.text(max_size=4)), max_size=4))
def test_a_carried_cell_is_a_number_exactly_when_float_takes_it(cells):
    # TableReader.blocks checks a carried column with numpy's float64 parse
    def accepted(parse):
        try:
            parse()
        except ValueError:
            return False
        return True

    assert accepted(lambda: np.array(cells, dtype=np.float64)) == accepted(lambda: list(map(float, cells)))


def per_cell_blocks(path, parse, carry, block_rows):
    """TableReader.blocks as each cell parsed on its own gives it: every row split in full,
    a parse column as reference_parse gives it, a carry column's cells held to be finite, and the
    first bad row of a block named."""
    header, *lines = path.read_text(encoding="utf-8").split("\n")
    columns = header.split("\t")
    parsed, carried = [columns.index(name) for name in parse], [columns.index(name) for name in carry]
    blocks = []
    for start in range(0, len(lines), block_rows):
        numbered = enumerate(lines[start : start + block_rows], start=start + 2)
        rows = [(number, line.split("\t")) for number, line in numbered if line]
        for number, cells in rows:
            if len(cells) != len(columns):
                raise ValueError(f"{path}, line {number}: {len(cells)} cells, but the header has {len(columns)}")
            for j in sorted(parsed + carried):
                try:
                    value = float(cells[j])
                except ValueError:
                    raise ValueError(
                        f"{path}, line {number}, column {columns[j]!r}: {cells[j]!r} is not a number"
                    ) from None
                if j in carried and not math.isfinite(value):
                    raise ValueError(f"{path}, line {number}, column {columns[j]!r}: {cells[j]!r} is not a finite number")
        if rows:
            blocks.append(
                [reference_parse([cells[j] for _, cells in rows]) for j in parsed]
                + [[cells[j] for _, cells in rows] for j in carried]
            )
    return blocks


def block_outcome(read):
    """Per block, the dtype and bytes of each array and the text of each list; or the ValueError message."""
    try:
        blocks = list(read())
    except ValueError as exc:
        return str(exc)
    return [[column if isinstance(column, list) else (column.dtype, column.tobytes()) for column in block]
            for block in blocks]


def assert_blocks_are_parsed_per_cell(path, parse, carry, block_rows=4096):
    with patch("bellmeter.dataset._BLOCK_ROWS", block_rows):
        got = block_outcome(lambda: TableReader(path).blocks(parse, carry))
    assert got == block_outcome(lambda: per_cell_blocks(path, parse, carry, block_rows))
    return got


# no padding, padding that int() strips, and two separators that it does not
# strip, though numpy's tokenizer does
PAD = st.sampled_from(["", " ", "\xa0", "\x0b", "\x0c", "\x1c", "\x1f"])
# cells of a column of integer text, which numpy's tokenizer reads unless padded
# with the last two
INT_CELL = st.tuples(PAD, INT64.map(str), PAD).map("".join)
# any cell: among them, letters that numpy 2.4 reads as digits and a cell that
# makes its row one cell too wide
FREE_CELL = st.one_of(
    st.tuples(PAD, CELL, PAD).map("".join),
    st.sampled_from(["#1", '"1"', "Ǿ", "1Ǿ", "١", "1\t"]),
)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    data=st.data(),
    width=st.integers(1, 4),
    n_rows=st.integers(1, 5),
    block_rows=st.sampled_from([2, 4096]),
)
def test_blocks_parse_as_each_cell_on_its_own(tmp_path_factory, data, width, n_rows, block_rows):
    columns = [f"x{j}" for j in range(width)]
    kinds = data.draw(st.lists(st.sampled_from([INT_CELL, FREE_CELL]), min_size=width, max_size=width))
    rows = data.draw(st.lists(st.tuples(*kinds), min_size=n_rows, max_size=n_rows))
    lines = ["\t".join(row) for row in rows]
    blank = data.draw(st.integers(0, n_rows + 1))  # where a blank line goes, if anywhere
    lines[blank:blank] = [""] if blank <= n_rows else []
    order = data.draw(st.permutations(columns))
    cut = data.draw(st.integers(0, width))
    parse, rest = order[:cut], order[cut:]
    carry = rest[: data.draw(st.integers(0, len(rest)))]
    path = tmp_path_factory.mktemp("blocks") / "table.tsv"
    path.write_text("\t".join(columns) + "\n" + "\n".join(lines) + "\n", encoding="utf-8")
    assert_blocks_are_parsed_per_cell(path, parse, carry, block_rows)


def test_a_block_is_parsed_on_its_own(tmp_path):
    path = tmp_path / "table.tsv"
    path.write_text("x\tn\n12\t1\n13\t2\n13.0\t3\n14\t9223372036854775808\n")
    (x1, n1), (x2, n2) = assert_blocks_are_parsed_per_cell(path, ["x", "n"], [], block_rows=2)
    assert x1[0] == n1[0] == np.dtype(np.int64)
    # 13.0 makes its block's x float64, and 2^63 its block's n
    assert x2[0] == n2[0] == np.dtype(np.float64)
    assert np.frombuffer(x2[1]).tolist() == [13.0, 14.0] and np.frombuffer(n2[1]).tolist() == [3.0, 2.0**63]


def test_a_bad_count_in_a_later_block_names_its_line(tmp_path):
    path = tmp_path / "table.tsv"
    rows = [f"{k}\t{k}" for k in range(2, 6000)]
    rows[5000 - 2] = "0.5\t1e3x"  # line 5000: the header is line 1
    path.write_text("x\tn\n" + "\n".join(rows) + "\n")
    message = assert_blocks_are_parsed_per_cell(path, ["n"], ["x"])
    assert message == f"{path}, line 5000, column 'n': '1e3x' is not a number"


def nan_with_payload(payload):
    return np.array([0x7FF8000000000000 | payload], dtype=np.int64).view(np.float64)[0]


@pytest.mark.parametrize(
    "floats",
    [
        np.full(3000, 0.25),
        np.array([0.0, -0.0, 0.0]),
        np.array([-0.0, -0.0]),
        np.full(5, math.nan),
        np.array([math.nan, nan_with_payload(1), -math.nan]),
        np.array([1.5]),
        np.array([0.5, 0.75, 0.5]),  # its first and last value agree
        np.concatenate([np.full(1500, 0.5), [0.75], np.full(1500, 0.5)]),  # its ends agree, its middle not
    ],
    ids=["constant", "signed-zeros", "negative-zeros", "nan", "nan-payloads", "one-row", "ends-agree",
         "ends-agree-long"],
)
def test_a_float_column_is_written_as_per_cell_repr(tmp_path, floats):
    # a float column of one value is formatted once; the text is that of each cell's repr
    path = tmp_path / "data.tsv"
    ints = np.full(len(floats), 7, dtype=np.int64)
    write_table(path, records(["x", "n", "y"]), [[floats, ints, floats[::-1].copy()]], {})
    rows = zip(map(repr, floats.tolist()), map(str, ints.tolist()), map(repr, floats[::-1].tolist()))
    assert path.read_text() == "x\tn\ty\n" + "".join("\t".join(row) + "\n" for row in rows)


# a rounded column's values: signed zeros, subnormals, the largest float, NaN, infinities and any float
# values about which ".13" and "%.13g" disagree or come close to it: "%.13g" drops the ".0" of an
# integral value and writes 1e12 <= |x| < 1e13 without an exponent
PRINTF_EDGES = [1.0, 2.0**52, 999999999999.95, 1e12, 9999999999999.5, 1e13]
ROUNDED_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -1.5e-323, 2.2250738585072014e-308, sys.float_info.max,
                     -sys.float_info.max, math.nan, math.inf, -math.inf, 1.0000000000005, 9.9999999999995e22,
                     *PRINTF_EDGES]),
    st.floats(allow_subnormal=True),
)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(values=st.lists(ROUNDED_FLOATS, min_size=1, max_size=9))
@example(values=PRINTF_EDGES)
def test_a_rounded_cell_reads_back_as_float64_within_5e_13(tmp_path_factory, values):
    # the cell is the value at 13 significant digits, so its decimal lies within 5e-13 relative of the
    # value; read back, it is that decimal's nearest float64, which adds at most half an ulp
    path = tmp_path_factory.mktemp("rounded") / "data.tsv"
    write_table(path, records(["x", "y"], derived=["x"]), [[np.array(values), np.array(values)]], {})
    assert TableReader(path).metadata["rounded"] == {"digits": 13, "columns": ["x"]}
    (back,), = TableReader(path).blocks(["x"])
    assert back.dtype == np.float64
    cells = [line.split("\t")[0] for line in path.read_text().splitlines()[1:]]
    for value, cell, read in zip(values, cells, back.tolist()):
        assert cell == format(value, ".13")
        if math.isnan(value):
            assert math.isnan(read)
        elif math.isinf(value) or value == 0.0:
            assert math.copysign(1.0, read) == math.copysign(1.0, value) and read == value
        else:
            assert abs(Fraction(cell) - Fraction(value)) <= Fraction(5, 10**13) * abs(Fraction(value))
            assert read == float(cell) and abs(read - value) <= 5e-13 * abs(value) + math.ulp(read) / 2


@pytest.mark.parametrize(
    "floats",
    [
        np.full(3000, 0.1),
        np.array([0.0, -0.0, 0.0]),
        np.full(5, math.nan),
        np.full(4, 1 / 3),
        np.concatenate([np.full(1500, 1 / 3), [0.75], np.full(1500, 1 / 3)]),  # its ends agree, its middle not
        # a derived column is rounded whatever the block holds: an int array or numeric cell text
        np.array([3, 0, -7, 2**53 + 1, 2**63 - 1]),
        np.full(6, 12345678901234567),
        ["0.1", "-0", "13", "1_000", " 2.5e-3", "nan", "-inf", "1e400", "0.30000000000000004"],
        ["7"] * 3,
    ],
    ids=["constant", "signed-zeros", "nan", "constant-third", "ends-agree-long", "ints", "constant-ints", "text",
         "constant-text"],
)
def test_a_rounded_float_column_is_written_as_per_cell_text(tmp_path, floats):
    # a rounded column of one value is formatted once, with the text each cell would get, and every
    # rounded column is listed under the sidecar's `rounded`
    path = tmp_path / "data.tsv"
    exact = np.array([float(v) for v in floats])[::-1].copy()
    write_table(path, records(["x", "y"], derived=["x"]), [[floats, exact]], {})
    assert TableReader(path).metadata["rounded"] == {"digits": 13, "columns": ["x"]}
    rows = zip((format(float(v), ".13") for v in list(floats)), map(repr, exact.tolist()))
    assert path.read_text() == "x\ty\n" + "".join("\t".join(row) + "\n" for row in rows)


# numeric text as float() takes it: underscores, surrounding whitespace, signed zeros, NaN, overflow to
# infinity, subnormals, non-ASCII digits and integers that float64 holds only rounded
NUMERIC_TEXT = st.one_of(
    st.sampled_from(["1_0", " 2 ", "-0", "nan", "1e400", "-1e400", "1e-320", "\u0661\u0662", str(2**53 + 1),
                     str(-(2**64) - 1)]),
    st.integers(-(2**80), 2**80).map(str),
    st.floats(allow_subnormal=True).map(repr),
    st.builds("{}{}{}".format, st.sampled_from(["", " ", "\t"]), st.floats().map(str), st.sampled_from(["", "\n"])),
)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(texts=st.lists(NUMERIC_TEXT, min_size=1, max_size=9))
@example(texts=["1_0", " 2 ", "-0", "nan", "1e400", str(2**53 + 1)])
@example(texts=[str(2**63 + 1)] * 3)
def test_a_derived_column_of_numeric_text_is_written_as_the_floats_float_gives(tmp_path_factory, texts):
    directory = tmp_path_factory.mktemp("text")
    for name, values in (("text.tsv", texts), ("floats.tsv", np.array([float(t) for t in texts]))):
        write_table(directory / name, records(["x"], derived=["x"]), [[values]], {})
    assert (directory / "text.tsv").read_bytes() == (directory / "floats.tsv").read_bytes()


def test_cell_text_with_braces_is_written_as_it_is(tmp_path):
    # a block is written through one row template; cell text is an argument of it, never template
    # text, even in a column of one cell text
    path = tmp_path / "data.tsv"
    text = ["{", "}", "{0}", "{{"]
    block = [text, ["{}"] * 4, np.full(4, 0.5), np.full(4, 1 / 3)]
    write_table(path, records(["t", "b", "c", "x"], derived=["x"]), [block], {})
    assert path.read_text() == "t\tb\tc\tx\n" + "".join(f"{cell}\t{{}}\t0.5\t0.3333333333333\n" for cell in text)


def test_multimeter_points_keep_float_constant_columns():
    from bellmeter.experiment import ExperimentConfig
    from bellmeter.multimeter import run_multimeter_sweep

    points = run_multimeter_sweep([-45.0, 0.0, 45.0], 0.5, ExperimentConfig.ideal(seed=1), 1_000.0)
    for point in points:
        assert all(type(getattr(point, name)) is float for name in ("eta", "pi_theory", "fidelity_theory"))
