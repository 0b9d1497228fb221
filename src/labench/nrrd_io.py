"""Attached-header NRRD reading and writing.

Supports the subset the challenge data actually uses: 3D grids, sample
types ``unsigned char`` / ``unsigned short`` / ``float``, ``raw`` or
``gzip`` encodings, little-endian payloads, and geometry given either as
``spacings`` or as diagonal ``space directions``. Header fields that
change where the payload starts or lives (``data file``, ``line skip``,
``byte skip``) are rejected, as are big-endian data and non-orthogonal
axes; other fields the reader does not use are ignored. A gzip payload
is inflated to at most one byte past the header-implied size, which
bounds the memory an oversized payload can take; a header that implies
2**63 bytes or more, which zlib cannot take as that bound, is a
DimensionMismatch before anything is inflated.

The payload raster order is x-fastest: the voxel ``[ix, iy, iz]`` of a
grid is payload sample ``ix + iy*nx + iz*nx*ny``.
"""

from __future__ import annotations

import re
import sys
import zlib
from pathlib import Path

import numpy as np

from .errors import (
    DimensionMismatch,
    IoFailure,
    MalformedHeader,
    MissingHeaderField,
    NotBinaryMask,
    NotNrrdFile,
    UnsupportedDimension,
    UnsupportedEncoding,
    UnsupportedEndian,
    UnsupportedField,
    UnsupportedSpaceDirections,
    UnsupportedType,
)
from .grids import Grid, Mask, Volume, checked_spacing

_MAGIC = re.compile(rb"^NRRD000[1-5]$")

_TYPE_TO_DTYPE = {
    "unsigned char": np.dtype(np.uint8),
    "uchar": np.dtype(np.uint8),
    "uint8": np.dtype(np.uint8),
    "uint8_t": np.dtype(np.uint8),
    "unsigned short": np.dtype(np.uint16),
    "unsigned short int": np.dtype(np.uint16),
    "ushort": np.dtype(np.uint16),
    "uint16": np.dtype(np.uint16),
    "uint16_t": np.dtype(np.uint16),
    "float": np.dtype(np.float32),
}

_DTYPE_TO_TYPE = {
    np.dtype(np.uint8): "unsigned char",
    np.dtype(np.uint16): "unsigned short",
    np.dtype(np.float32): "float",
}


def _parse_header(blob: bytes) -> tuple[dict[str, str], int]:
    """Parse the attached header; return (fields, payload offset)."""
    nl = blob.find(b"\n")
    if nl < 0 or not _MAGIC.match(blob[:nl].rstrip(b"\r")):
        raise NotNrrdFile("missing NRRD000N magic line")
    fields: dict[str, str] = {}
    pos = nl + 1
    while True:
        nl = blob.find(b"\n", pos)
        if nl < 0:
            raise MalformedHeader("header not terminated by a blank line")
        line = blob[pos:nl].rstrip(b"\r")
        pos = nl + 1
        if line == b"":
            return fields, pos
        if line.startswith(b"#"):
            continue
        text = line.decode("ascii", errors="replace")
        if ":=" in text:
            continue  # key-value metadata; not a field
        if ": " not in text:
            raise MalformedHeader(f"unparsable header line: {text!r}")
        key, value = text.split(": ", 1)
        fields[key.strip().lower()] = value.strip()


# fields that move or split the payload, in every spelling the format allows
_UNSUPPORTED_FIELDS = ("data file", "datafile", "line skip", "lineskip", "byte skip", "byteskip")


def _require(fields: dict[str, str], name: str) -> str:
    if name not in fields:
        raise MissingHeaderField(f"required header field {name!r} absent")
    return fields[name]


_VECTOR = re.compile(r"\(([^)]*)\)")


def _spacing_from_fields(fields: dict[str, str]) -> tuple[float, float, float]:
    if "spacings" in fields:
        parts = fields["spacings"].split()
        if len(parts) != 3:
            raise MalformedHeader(f"spacings must have 3 entries, got {fields['spacings']!r}")
        try:
            spacing = tuple(float(p) for p in parts)
        except ValueError as exc:
            raise MalformedHeader(f"unparsable spacings: {fields['spacings']!r}") from exc
    elif "space directions" in fields:
        vecs = _VECTOR.findall(fields["space directions"])
        if len(vecs) != 3:
            raise MalformedHeader(
                f"space directions must have 3 vectors, got {fields['space directions']!r}"
            )
        rows = []
        for vec in vecs:
            try:
                rows.append([float(c) for c in vec.split(",")])
            except ValueError as exc:
                raise MalformedHeader(f"unparsable space direction ({vec})") from exc
        for i, row in enumerate(rows):
            if len(row) != 3:
                raise MalformedHeader(f"space direction {i} is not a 3-vector")
            if any(row[j] != 0.0 for j in range(3) if j != i):
                raise UnsupportedSpaceDirections(
                    "only diagonal (axis-aligned) space directions are supported"
                )
        spacing = (rows[0][0], rows[1][1], rows[2][2])
    else:
        spacing = (1.0, 1.0, 1.0)
    return checked_spacing(spacing)


def read_nrrd(path, as_mask: bool) -> Grid:
    """Read an attached-header NRRD file into a Mask when ``as_mask`` is
    true, else into a Volume of the declared sample type.

    A mask may have any sample type, but a value other than 0 or 1 raises
    NotBinaryMask.
    """
    try:
        blob = Path(path).read_bytes()
    except OSError as exc:
        raise IoFailure(f"cannot read {path}: {exc}") from exc

    fields, offset = _parse_header(blob)

    type_name = _require(fields, "type").lower()
    if type_name not in _TYPE_TO_DTYPE:
        raise UnsupportedType(f"unsupported sample type {fields['type']!r}")
    dtype = _TYPE_TO_DTYPE[type_name]

    if _require(fields, "dimension") != "3":
        raise UnsupportedDimension(f"only 3-D grids supported, got dimension {fields['dimension']}")

    sizes_text = _require(fields, "sizes").split()
    try:
        sizes = tuple(int(s) for s in sizes_text)
    except ValueError as exc:
        raise MalformedHeader(f"unparsable sizes: {fields['sizes']!r}") from exc
    if len(sizes) != 3 or min(sizes) < 1:
        raise MalformedHeader(f"sizes must be 3 positive integers, got {fields['sizes']!r}")

    encoding = _require(fields, "encoding").lower()
    if encoding not in ("raw", "gzip", "gz"):
        raise UnsupportedEncoding(f"unsupported encoding {fields['encoding']!r}")

    endian = fields.get("endian", "little").lower()
    if endian != "little":
        raise UnsupportedEndian(f"only little-endian payloads supported, got {endian!r}")

    spacing = _spacing_from_fields(fields)

    for name in _UNSUPPORTED_FIELDS:
        if name in fields:
            raise UnsupportedField(f"header field {name!r} is not supported")

    expected = sizes[0] * sizes[1] * sizes[2] * dtype.itemsize
    if expected >= sys.maxsize:  # past what zlib can bound an inflate by, and what any file holds
        raise DimensionMismatch(f"header implies {expected} payload bytes, more than a file can hold")
    payload = memoryview(blob)[offset:]
    if encoding in ("gzip", "gz"):
        inflater = zlib.decompressobj(wbits=31)
        try:
            payload = inflater.decompress(payload, expected + 1)
        except zlib.error as exc:
            raise DimensionMismatch(f"gzip payload corrupt: {exc}") from exc
        if len(payload) > expected or inflater.unused_data:
            raise DimensionMismatch(f"gzip payload holds more than the {expected} bytes the header implies")
        if not inflater.eof:
            raise DimensionMismatch("gzip payload ends before its end-of-stream marker")
    if len(payload) != expected:
        raise DimensionMismatch(
            f"payload is {len(payload)} bytes, header implies {expected}"
        )

    arr = np.frombuffer(payload, dtype=dtype.newbyteorder("<"))
    arr = arr.astype(dtype, copy=False).reshape(sizes, order="F")

    if not as_mask:
        return Volume(arr, spacing)
    # a uint8 0 or 1 is already a bool byte; the check below proves that is all it holds
    bits = arr.view(bool) if dtype == np.uint8 else arr != 0
    # unsigned samples are non-negative, so a maximum of 1 leaves only 0 and 1
    if not (arr.max() <= 1 if dtype.kind == "u" else np.array_equal(arr == 1, bits)):
        raise NotBinaryMask(f"{path} is not a binary mask")
    return Mask(bits, spacing)


def write_nrrd(grid: Grid, path, encoding: str = "raw") -> None:
    """Write a Volume or Mask as an attached-header little-endian NRRD.

    Masks are stored as unsigned char 0/1. ``read_nrrd(write_nrrd(g))``
    reproduces ``g`` bit-exactly for both encodings; gzip output is
    byte-stable across runs and Python versions: zlib writes its header,
    with mtime 0 and OS byte 03, where ``gzip.compress``'s varies.
    """
    if encoding not in ("raw", "gzip"):
        raise UnsupportedEncoding(f"unsupported encoding {encoding!r}")

    if isinstance(grid, Mask):
        arr = grid.bits.view(np.uint8)
    else:
        arr = grid.data
    dtype = arr.dtype
    payload = arr.ravel(order="F").astype(dtype.newbyteorder("<"), copy=False)
    if encoding == "gzip":
        deflater = zlib.compressobj(6, zlib.DEFLATED, 31)
        payload = deflater.compress(payload) + deflater.flush()

    lines = [
        "NRRD0004",
        f"type: {_DTYPE_TO_TYPE[dtype]}",
        "dimension: 3",
        "sizes: {} {} {}".format(*grid.dims),
        "spacings: {!r} {!r} {!r}".format(*grid.spacing),
    ]
    if dtype.itemsize > 1:
        lines.append("endian: little")
    lines.append(f"encoding: {encoding}")
    header = ("\n".join(lines) + "\n\n").encode("ascii")

    try:
        with open(path, "wb") as fh:
            fh.write(header)
            fh.write(payload)
    except OSError as exc:
        raise IoFailure(f"cannot write {path}: {exc}") from exc
