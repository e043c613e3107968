"""The binary container of every array artifact.

A file is, little-endian: the artifact's 4-byte magic, a ``uint16`` version
and a ``uint16`` section count; one 40-byte entry per section (its name as
16 bytes of NUL-padded ASCII, its dtype as 4, such as ``<f8``, and ``uint64``
rows and columns); then each section's bytes, zero-padded to a multiple of
8 so that every array is 8-byte aligned. Nothing follows the last section.
A 1-D section has one column. A string section (dtype ``str``) holds its
``rows`` strings' ``<i8`` end offsets, then ``columns`` bytes of UTF-8; it
loads as :class:`Strings`, whose strings are decoded when read.
"""

from __future__ import annotations

import struct
from collections.abc import Callable, Sequence
from pathlib import Path
from typing import NamedTuple

import numpy as np

STR = "str"
# Items a Rows iteration makes at a time.
ROWS_READ = 256
_HEAD = struct.Struct("<4sHH")
_ENTRY = struct.Struct("<16s4s4xQQ")


# How a Record's __init__ sets each of its fields, once.
set_field = object.__setattr__


class Record:
    """A record of the fields its class lists as ``__slots__``, which its
    ``__init__`` sets by :data:`set_field`: read-only after that, equal to a
    record of its class with equal fields, and hashed by them. Unlike a
    dataclass, it generates no code when its class is made."""

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(map(self.__getattribute__, self.__slots__))

    def _asdict(self) -> dict:
        return dict(zip(self.__slots__, self._values()))

    def _replace(self, **changes):
        """A copy with ``changes``, checked as ``__init__`` checks its fields."""
        return type(self)(**self._asdict() | changes)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __reduce__(self):  # so that copy and pickle rebuild it through __init__
        return type(self), self._values()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in self._asdict().items())
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__}.{name} is read-only")

    __delattr__ = __setattr__


class Section(NamedTuple):
    dtype: str  # a little-endian numpy dtype string, or STR
    columns: int | None = 1  # 1: a 1-D array; else a matrix this wide, None for any width
    finite: bool = False  # NaN and infinities are rejected on load


class Format(NamedTuple):
    """One artifact's magic, version and sections, in file order."""

    name: str  # as errors name the artifact: "truncated <name>"
    magic: bytes
    version: int
    sections: dict[str, Section]

    def save(self, path: str | Path, **arrays) -> None:
        """Write one value per section: a list of str for a string section,
        else anything numpy converts to the section's dtype and shape."""
        if arrays.keys() != self.sections.keys():
            raise ValueError(f"{self.name} sections are {list(self.sections)}, got {list(arrays)}")
        # Sections are written one at a time, and the table of their shapes last.
        entries = []
        with open(path, "wb") as fh:
            fh.seek(_HEAD.size + len(self.sections) * _ENTRY.size)
            for name, spec in self.sections.items():
                if spec.dtype == STR:
                    # Each string is written as it is encoded, after room for
                    # the end offsets, which are written once they are known.
                    strings = arrays[name]
                    table = fh.tell()
                    fh.seek(8 * len(strings), 1)
                    ends = np.cumsum([fh.write(s.encode("utf-8")) for s in strings], dtype="<i8")
                    after = fh.tell()
                    fh.seek(table)
                    fh.write(ends.tobytes())
                    fh.seek(after)
                    shape = (len(strings), int(ends[-1]) if len(ends) else 0)
                    size = after - table
                else:
                    array = np.ascontiguousarray(arrays[name], dtype=spec.dtype)
                    if array.ndim != (1 if spec.columns == 1 else 2):
                        raise ValueError(f"section {name}: array of shape {array.shape}")
                    shape = (len(array), array.shape[1] if array.ndim == 2 else 1)
                    size = fh.write(array.reshape(-1).view(np.uint8))  # the bytes, not a copy
                fh.write(bytes(-size % 8))
                entries.append(_ENTRY.pack(name.encode(), spec.dtype.encode(), *shape))
            fh.seek(0)
            fh.write(_HEAD.pack(self.magic, self.version, len(entries)))
            fh.writelines(entries)

    def load(self, source: str | Path | bytes, build: Callable | None = None):
        """``build(**sections)`` of a :meth:`save` file, given its path or its
        bytes, each string section a :class:`Strings`; without ``build``, the
        sections as a dict, each string section a list. A short file, another
        magic, version or section list, counts that do not fit the file, bytes
        that are not UTF-8, trailing bytes, a non-finite value in a finite
        section, or a ValueError of ``build`` raise a ValueError, which names
        the path if given one."""
        data = source if isinstance(source, bytes) else Path(source).read_bytes()
        try:
            sections = self._parse(data)
            if build is None:
                return {k: v.tolist() if type(v) is Strings else v for k, v in sections.items()}
            return build(**sections)
        except ValueError as exc:
            if data is source:
                raise
            raise ValueError(f"{source}: {exc}") from None

    def _parse(self, data: bytes) -> dict:
        if data[: len(self.magic)] != self.magic:
            raise ValueError(f"not a patchrank {self.name} file")
        if len(data) < _HEAD.size:
            raise ValueError(f"truncated {self.name}")
        _, version, count = _HEAD.unpack_from(data)
        if version != self.version:
            raise ValueError(f"unsupported {self.name} version {version}")
        offset = _HEAD.size + count * _ENTRY.size
        if len(data) < offset:
            raise ValueError(f"truncated {self.name}")
        entries = [_ENTRY.unpack_from(data, _HEAD.size + i * _ENTRY.size) for i in range(count)]
        names = [entry[0].rstrip(b"\0").decode("ascii", "replace") for entry in entries]
        if names != list(self.sections):
            raise ValueError(f"sections {names}, expected {list(self.sections)}")
        arrays = {}
        for (name, spec), (_, dtype, rows, columns) in zip(self.sections.items(), entries):
            dtype = dtype.rstrip(b"\0").decode("ascii", "replace")
            if dtype != spec.dtype:
                raise ValueError(f"section {name}: dtype {dtype}, expected {spec.dtype}")
            if spec.dtype != STR and spec.columns not in (None, columns):
                raise ValueError(f"section {name}: {columns} columns, expected {spec.columns}")
            size = 8 * rows + columns if dtype == STR else rows * columns * np.dtype(dtype).itemsize
            if offset + size > len(data):
                raise ValueError(
                    f"truncated {self.name}: section {name} of {rows} x {columns} {dtype} "
                    f"needs {size} bytes, {len(data) - offset} remain"
                )
            if dtype == STR:
                ends = np.frombuffer(data, "<i8", rows, offset)
                text = data[offset + 8 * rows : offset + 8 * rows + columns]
                arrays[name] = Strings(text, np.concatenate(([0], ends)))
            else:
                array = np.frombuffer(data, dtype, rows * columns, offset)
                arrays[name] = array if spec.columns == 1 else array.reshape(rows, columns)
                if spec.finite and not np.isfinite(array).all():
                    row = np.flatnonzero(~np.isfinite(array.reshape(rows, columns)).all(1))[0]
                    raise ValueError(f"section {name}: row {row} holds a non-finite value")
            offset += size + -size % 8
        if offset > len(data):
            raise ValueError(f"truncated {self.name}")
        if offset < len(data):
            raise ValueError(f"trailing bytes after the {self.name}")
        return arrays


class Rows(Sequence):
    """A read-only sequence whose item ``i`` is ``item(i)``, made when it is
    read, and whose items ``start`` to ``stop`` are ``items(start, stop)``, made
    together: a slice of step 1 reads them so, and an iteration ROWS_READ at a
    time, so that the items already iterated over can be freed. It equals any
    sequence of equal items."""

    def __init__(self, count: int, item: Callable, items: Callable | None = None):
        self._count, self._item = count, item
        self._items = items or (lambda start, stop: [item(j) for j in range(start, stop)])

    def __len__(self) -> int:
        return self._count

    def __getitem__(self, i):
        if not isinstance(i, slice):
            return self._item(range(self._count)[i])
        start, stop, step = i.indices(self._count)
        if step == 1:
            return self._items(start, max(start, stop))
        return [self._item(j) for j in range(start, stop, step)]

    def __iter__(self):
        for start in range(0, self._count, ROWS_READ):
            yield from self._items(start, min(start + ROWS_READ, self._count))

    def __eq__(self, other) -> bool:
        return isinstance(other, Sequence) and list(self) == list(other)


class Strings(Rows):
    """A string section: string ``i`` is the UTF-8 ``data[bounds[i]:bounds[i + 1]]``
    of a bytes-like ``data``, decoded when read. The bounds must ascend from 0
    to ``len(data)``, and every string be whole UTF-8, which is checked here."""

    def __init__(self, data, bounds: np.ndarray):
        if bounds[-1] != len(data) or np.any(np.diff(bounds) < 0):
            raise ValueError("string offsets do not fit their bytes")
        octets = np.frombuffer(data, np.uint8)
        if octets.max(initial=0) >= 0x80:  # not ASCII
            str(data, "utf-8")  # raises on bytes that are not UTF-8
            if np.any(octets[bounds[:-1][bounds[:-1] < len(data)]] & 0xC0 == 0x80):
                raise ValueError("a string starts inside a UTF-8 character")
        self.data, self.bounds = data, bounds
        super().__init__(len(bounds) - 1, self._decode, self._decoded)

    def _decode(self, i: int) -> str:
        return str(self.data[self.bounds.item(i) : self.bounds.item(i + 1)], "utf-8")

    def _decoded(self, start: int, stop: int) -> list[str]:
        cuts, data = self.bounds[start : stop + 1].tolist(), self.data
        return [str(data[a:b], "utf-8") for a, b in zip(cuts, cuts[1:])]

    def __eq__(self, other) -> bool:
        if type(other) is Strings:
            return self.data == other.data and np.array_equal(self.bounds, other.bounds)
        return super().__eq__(other)

    def tolist(self) -> list[str]:
        return self._decoded(0, len(self))

    def part(self, start: int, step: int) -> Strings:
        """The strings ``start::step``, as their own Strings."""
        lengths = np.diff(self.bounds)
        keep = np.zeros(len(lengths), dtype=bool)
        keep[start::step] = True
        data = np.frombuffer(self.data, np.uint8)[np.repeat(keep, lengths)].tobytes()
        return Strings(data, np.concatenate(([0], np.cumsum(lengths[keep]))))


def byte_array(strings: Sequence[str]) -> np.ndarray:
    """The UTF-8 bytes of ``strings`` as a numpy ``S`` array, which orders and
    compares them as Python does the strings, short of trailing NULs, which it
    drops. Of Strings, it is made without decoding them, zero-copy if all are
    of one width."""
    if type(strings) is not Strings:
        return np.array([s.encode("utf-8") for s in strings], dtype=bytes)
    lengths = np.diff(strings.bounds)
    width = max(int(lengths.max(initial=0)), 1)
    if np.all(lengths == width):
        return np.frombuffer(strings.data, f"S{width}")
    padded = np.zeros((len(lengths), width), dtype=np.uint8)
    padded[np.arange(width) < lengths[:, None]] = np.frombuffer(strings.data, np.uint8)
    return padded.view(f"S{width}").ravel()
