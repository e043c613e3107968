"""The binary container of the array artifacts: round trips of every section
dtype, and each way a damaged file is rejected naming its path."""

from __future__ import annotations

import math
import struct

import numpy as np
import pytest

from patchrank.container import STR, Format, Section

FORMAT = Format(
    "test artifact",
    b"PRTS",
    3,
    {
        "floats": Section("<f8", columns=3, finite=True),
        "singles": Section("<f4", columns=None),
        "longs": Section("<i8"),
        "ints": Section("<i4"),
        "bytes": Section("|i1"),
        "codes": Section("|u1"),
        "names": Section(STR),
    },
)

# The <f8 values JSON and text round trips are most likely to lose.
EDGE_FLOATS = [-0.0, 5e-324, 2.2250738585072014e-308 / 3, 1.7e308, -1.7e308, 0.1, 1 / 3, 0.0, 1.0]


def sections(**changes) -> dict:
    values = {
        "floats": np.array(EDGE_FLOATS).reshape(3, 3),
        "singles": np.array([[-0.0, 1e-45], [3.4e38, 0.5]], dtype=np.float32),
        "longs": np.array([-(2**63), 2**63 - 1, 0]),
        "ints": np.array([-(2**31), 2**31 - 1], dtype=np.int32),
        "bytes": np.array([-128, 127, 0], dtype=np.int8),
        "codes": np.array([0, 255], dtype=np.uint8),
        "names": ["", "naïve/ß.c", "CVE-2024-1", "a" * 9],
    }
    return values | changes


@pytest.fixture
def saved(tmp_path):
    path = tmp_path / "artifact.bin"
    FORMAT.save(path, **sections())
    return path


def test_round_trip_keeps_every_bit(saved):
    loaded = FORMAT.load(saved)
    for name, value in sections().items():
        if name == "names":
            assert loaded[name] == value
        else:
            assert loaded[name].dtype == np.dtype(FORMAT.sections[name].dtype), name
            assert loaded[name].shape == value.shape, name
            assert loaded[name].tobytes() == value.astype(loaded[name].dtype).tobytes(), name


def test_resave_is_byte_identical(saved, tmp_path):
    again = tmp_path / "again.bin"
    FORMAT.save(again, **FORMAT.load(saved))
    assert again.read_bytes() == saved.read_bytes()


def test_sections_are_8_byte_aligned(saved):
    loaded = FORMAT.load(saved)
    for name in ("floats", "singles", "longs", "ints"):
        assert loaded[name].ctypes.data % 8 == 0 or loaded[name].size == 0, name


def test_empty_sections_round_trip(tmp_path):
    path = tmp_path / "empty.bin"
    empty = {
        "floats": np.empty((0, 3)),
        "singles": np.empty((0, 7), dtype=np.float32),
        "longs": [],
        "ints": [],
        "bytes": [],
        "codes": [],
        "names": [],
    }
    FORMAT.save(path, **empty)
    loaded = FORMAT.load(path)
    assert loaded["floats"].shape == (0, 3)
    assert loaded["singles"].shape == (0, 7)
    assert loaded["names"] == []


def test_build_receives_the_sections(saved):
    assert FORMAT.load(saved, lambda **s: sorted(s)) == sorted(FORMAT.sections)


def test_build_errors_name_the_path(saved):
    def build(**_):
        raise ValueError("rows do not fit")

    with pytest.raises(ValueError, match="rows do not fit") as info:
        FORMAT.load(saved, build)
    assert str(saved) in str(info.value)


def set_rows(data: bytes, section: int, rows: int) -> bytes:
    """``data`` with section ``section``'s row count set to ``rows``."""
    at = 8 + 40 * section + 24
    return data[:at] + struct.pack("<Q", rows) + data[at + 8 :]


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda data: data[:-1], "truncated test artifact"),
        (lambda data: data[:40], "truncated test artifact"),
        (lambda data: data[:5], "truncated test artifact"),
        (lambda data: data + b"\0", "trailing bytes after the test artifact"),
        (lambda data: b"PRXX" + data[4:], "not a patchrank test artifact file"),
        (lambda data: data[:4] + struct.pack("<H", 2) + data[6:], "test artifact version 2"),
        (lambda data: set_rows(data, 2, 2**64 - 1), "section longs of 18446744073709551615"),
        (lambda data: set_rows(data, 6, 2**61), "section names of 2305843009213693952"),
        (lambda data: data[:6] + struct.pack("<H", 6) + data[8:], "sections \\["),
    ],
    ids=[
        "one byte short",
        "header cut",
        "magic only",
        "trailing byte",
        "wrong magic",
        "unknown version",
        "count overflow",
        "string count overflow",
        "section missing",
    ],
)
def test_damaged_file_rejected_naming_path(saved, edit, message):
    saved.write_bytes(edit(saved.read_bytes()))
    with pytest.raises(ValueError, match=message) as info:
        FORMAT.load(saved)
    assert str(saved) in str(info.value)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_value_in_a_finite_section_rejected(saved, value):
    floats = np.array(EDGE_FLOATS).reshape(3, 3)
    floats[2, 1] = value
    FORMAT.save(saved, **sections(floats=floats))
    with pytest.raises(ValueError, match="section floats: row 2 holds a non-finite value") as info:
        FORMAT.load(saved)
    assert str(saved) in str(info.value)


def test_non_finite_value_allowed_where_not_forbidden(saved):
    singles = np.array([[math.nan, math.inf]], dtype=np.float32)
    FORMAT.save(saved, **sections(singles=singles))
    assert np.isnan(FORMAT.load(saved)["singles"][0, 0])


@pytest.mark.parametrize(
    "changes, message",
    [
        ({"floats": np.zeros((3, 2))}, "section floats: 2 columns, expected 3"),
        ({"longs": np.zeros(3, dtype=np.int32)}, None),
    ],
    ids=["wrong width", "converted dtype"],
)
def test_width_is_checked_and_dtypes_converted(saved, changes, message):
    FORMAT.save(saved, **sections(**changes))
    if message is None:
        assert FORMAT.load(saved)["longs"].dtype == np.dtype("<i8")
        return
    with pytest.raises(ValueError, match=message):
        FORMAT.load(saved)


def test_other_dtype_rejected(saved):
    changed = FORMAT.sections | {"ints": Section("<i8")}
    other = Format(FORMAT.name, FORMAT.magic, FORMAT.version, changed)
    other.save(saved, **sections())
    with pytest.raises(ValueError, match="section ints: dtype <i8, expected <i4"):
        FORMAT.load(saved)


def test_string_offsets_checked(saved):
    data = bytearray(saved.read_bytes())
    entry = 8 + 40 * 6
    (rows,) = struct.unpack_from("<Q", data, entry + 24)
    # The names section's data is the last; its first end offset follows the
    # other sections' padded bytes.
    start = len(data) - ((8 * rows + struct.unpack_from("<Q", data, entry + 32)[0] + 7) // 8 * 8)
    struct.pack_into("<q", data, start + 8, -1)
    saved.write_bytes(bytes(data))
    with pytest.raises(ValueError, match="string offsets do not fit their bytes"):
        FORMAT.load(saved)


def test_invalid_utf8_rejected(saved, tmp_path):
    data = saved.read_bytes()
    at = data.index("naïve".encode("utf-8"))
    saved.write_bytes(data[:at] + b"\xff" + data[at + 1 :])
    with pytest.raises(ValueError) as info:
        FORMAT.load(saved)
    assert str(saved) in str(info.value)


def test_save_rejects_other_sections(tmp_path):
    with pytest.raises(ValueError, match="sections are"):
        FORMAT.save(tmp_path / "x.bin", floats=np.zeros((1, 3)))
