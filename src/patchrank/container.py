"""The binary container of every array artifact.

A file is, little-endian: the artifact's 4-byte magic, a ``uint16`` version
and a ``uint16`` section count; one 40-byte entry per section (its name as
16 bytes of NUL-padded ASCII, its dtype as 4, such as ``<f8``, and ``uint64``
rows and columns); then each section's bytes, zero-padded to a multiple of
8 so that every array is 8-byte aligned. Nothing follows the last section.
A 1-D section has one column. A string section (dtype ``str``) holds its
``rows`` strings' ``<i8`` end offsets, then ``columns`` bytes of UTF-8.
"""

from __future__ import annotations

import struct
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

import numpy as np

STR = "str"
_HEAD = struct.Struct("<4sHH")
_ENTRY = struct.Struct("<16s4s4xQQ")


@dataclass(frozen=True)
class Section:
    dtype: str  # a little-endian numpy dtype string, or STR
    columns: int | None = 1  # 1: a 1-D array; else a matrix this wide, None for any width
    finite: bool = False  # NaN and infinities are rejected on load


@dataclass(frozen=True)
class Format:
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

    def load(self, path: str | Path, build: Callable = dict):
        """``build(**sections)`` of a :meth:`save` file. A short file, another
        magic, version or section list, counts that do not fit the file,
        trailing bytes, a non-finite value in a finite section, or a
        ValueError of ``build`` raise a ValueError naming ``path``."""
        try:
            return build(**self._parse(Path(path).read_bytes()))
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None

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
                arrays[name] = _strings(data, offset, rows, columns)
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


def _strings(data: bytes, offset: int, rows: int, size: int) -> list[str]:
    bounds = np.concatenate(([0], np.frombuffer(data, "<i8", rows, offset)))
    if bounds[-1] != size or np.any(np.diff(bounds) < 0):
        raise ValueError("string offsets do not fit their bytes")
    text, cuts = data[offset + 8 * rows : offset + 8 * rows + size], bounds.tolist()
    return [text[a:b].decode("utf-8") for a, b in zip(cuts, cuts[1:])]
