import gzip
import tracemalloc
import zlib

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from labench.errors import (
    DimensionMismatch,
    LabenchError,
    MissingHeaderField,
    NonPositiveSpacing,
    NotBinaryMask,
    NotNrrdFile,
    UnsupportedEncoding,
    UnsupportedEndian,
    UnsupportedField,
    UnsupportedSpaceDirections,
)
from labench.grids import Mask, Volume
from labench.nrrd_io import read_nrrd, write_nrrd


def _write(path, header_lines, payload: bytes):
    path.write_bytes(("\n".join(header_lines) + "\n\n").encode() + payload)


def test_reads_challenge_geometry_header(tmp_path):
    # full challenge-sized payload is wasteful here; a sliced z keeps the
    # header shape (sizes + spacings parse) while staying tiny
    path = tmp_path / "scan.nrrd"
    payload = np.zeros(576 * 576 * 1, dtype="<u2").tobytes()
    _write(
        path,
        [
            "NRRD0004",
            "type: unsigned short",
            "dimension: 3",
            "sizes: 576 576 1",
            "spacings: 0.625 0.625 0.625",
            "endian: little",
            "encoding: raw",
        ],
        payload,
    )
    v = read_nrrd(path, as_mask=False)
    assert isinstance(v, Volume)
    assert v.dims == (576, 576, 1)
    assert v.spacing == (0.625, 0.625, 0.625)
    assert v.data.dtype == np.uint16


def test_single_voxel_volume(tmp_path):
    path = tmp_path / "one.nrrd"
    _write(
        path,
        ["NRRD0001", "type: float", "dimension: 3", "sizes: 1 1 1", "encoding: raw"],
        np.zeros(1, dtype="<f4").tobytes(),
    )
    v = read_nrrd(path, as_mask=False)
    assert isinstance(v, Volume)
    assert v.dims == (1, 1, 1)
    assert v.spacing == (1.0, 1.0, 1.0)
    assert v.data[0, 0, 0] == 0.0


def test_mask_round_trip_is_bit_exact(tmp_path, rng):
    bits = rng.random((32, 32, 8)) < 0.4
    m = Mask(bits, (0.625, 0.625, 0.625))
    path = tmp_path / "m.nrrd"
    write_nrrd(m, path)
    back = read_nrrd(path, as_mask=True)
    assert isinstance(back, Mask)
    assert back == m


@pytest.mark.parametrize("encoding", ["raw", "gzip"])
def test_uint8_mask_reads_as_a_bool_view_of_the_payload(tmp_path, rng, encoding):
    # once the maximum check proves a uint8 payload is 0/1, its bytes are
    # the bits: no comparison pass, and no copy of the grid
    data = (rng.random((24, 20, 12)) < 0.4).astype(np.uint8)
    path = tmp_path / "m.nrrd"
    write_nrrd(Volume(data), path, encoding=encoding)
    bits = read_nrrd(path, as_mask=True).bits
    assert bits.dtype == np.bool_ and np.array_equal(bits, data != 0)
    assert not bits.flags.writeable and bits.flags.f_contiguous
    assert bits.base is not None


def test_all_false_mask_payload_is_zero_bytes(tmp_path):
    path = tmp_path / "empty.nrrd"
    write_nrrd(Mask(np.zeros((4, 4, 4), dtype=bool)), path)
    blob = path.read_bytes()
    payload = blob.split(b"\n\n", 1)[1]
    assert payload == b"\x00" * 64


def test_header_carries_literal_spacing(tmp_path):
    v = Volume(np.zeros((2, 2, 2), dtype=np.uint8), (0.625, 0.625, 0.625))
    path = tmp_path / "v.nrrd"
    write_nrrd(v, path)
    header = path.read_bytes().split(b"\n\n", 1)[0].decode()
    assert "spacings: 0.625 0.625 0.625" in header
    assert "sizes: 2 2 2" in header


def test_gzip_and_raw_decode_identically(tmp_path, rng):
    data = rng.integers(0, 2**16, size=(9, 7, 5)).astype(np.uint16)
    v = Volume(data, (1.0, 2.0, 3.0))
    write_nrrd(v, tmp_path / "raw.nrrd", encoding="raw")
    write_nrrd(v, tmp_path / "gz.nrrd", encoding="gzip")
    raw, gz = (read_nrrd(tmp_path / name, as_mask=False) for name in ("raw.nrrd", "gz.nrrd"))
    assert raw == gz == v


def test_payload_raster_order_is_x_fastest(tmp_path):
    nx, ny, nz = 2, 3, 4
    flat = np.arange(nx * ny * nz, dtype=np.uint8)
    v = Volume(flat.reshape((nx, ny, nz), order="F"))
    # voxel [ix, iy, iz] is payload sample ix + iy*nx + iz*nx*ny
    assert all(
        v.data[ix, iy, iz] == ix + iy * nx + iz * nx * ny
        for ix in range(nx) for iy in range(ny) for iz in range(nz)
    )
    path = tmp_path / "order.nrrd"
    write_nrrd(v, path)
    payload = path.read_bytes().split(b"\n\n", 1)[1]
    assert np.array_equal(np.frombuffer(payload, dtype=np.uint8), flat)
    # and a payload read back lands on the same voxels
    assert read_nrrd(path, as_mask=False) == v


def test_caller_chooses_mask_or_volume(tmp_path):
    path = tmp_path / "g.nrrd"
    _write(
        path,
        ["NRRD0004", "type: unsigned char", "dimension: 3", "sizes: 2 2 1", "encoding: raw"],
        bytes([0, 1, 1, 0]),
    )
    bits = np.array([0, 1, 1, 0], dtype=bool).reshape((2, 2, 1), order="F")
    assert read_nrrd(path, as_mask=True) == Mask(bits)
    volume = read_nrrd(path, as_mask=False)
    assert isinstance(volume, Volume) and volume.data.dtype == np.uint8
    # values beyond {0,1} read as a volume, and cannot be read as a mask
    _write(
        path,
        ["NRRD0004", "type: unsigned char", "dimension: 3", "sizes: 2 2 1", "encoding: raw"],
        bytes([0, 2, 1, 0]),
    )
    assert isinstance(read_nrrd(path, as_mask=False), Volume)
    with pytest.raises(NotBinaryMask, match="is not a binary mask"):
        read_nrrd(path, as_mask=True)


@pytest.mark.parametrize(
    "values,binary",
    [
        ([0.0, 1.0, 1.0, 0.0], True),
        ([0.0, 0.3, 0.9, 0.0], False),
        ([0.0, -1.0, 1.0, 0.0], False),
        ([0.0, np.nan, 1.0, 0.0], False),
        ([0.0, 2.0, 1.0, 0.0], False),
    ],
    ids=["zero-one", "probabilities", "negative", "nan", "two"],
)
def test_float_grid_reads_as_mask_only_when_binary(tmp_path, values, binary):
    path = tmp_path / "f.nrrd"
    data = np.asarray(values, dtype=np.float32).reshape((2, 2, 1), order="F")
    write_nrrd(Volume(data), path)
    if binary:
        assert read_nrrd(path, as_mask=True) == Mask(data == 1)
    else:
        with pytest.raises(NotBinaryMask):
            read_nrrd(path, as_mask=True)


def test_space_directions_diagonal(tmp_path):
    path = tmp_path / "sd.nrrd"
    _write(
        path,
        [
            "NRRD0004",
            "type: unsigned char",
            "dimension: 3",
            "sizes: 1 1 1",
            "space directions: (0.625,0,0) (0,0.625,0) (0,0,0.625)",
            "encoding: raw",
        ],
        b"\x05",
    )
    v = read_nrrd(path, as_mask=False)
    assert v.spacing == (0.625, 0.625, 0.625)


def test_rejects_non_diagonal_space_directions(tmp_path):
    path = tmp_path / "sd.nrrd"
    _write(
        path,
        [
            "NRRD0004",
            "type: unsigned char",
            "dimension: 3",
            "sizes: 1 1 1",
            "space directions: (0.6,0.1,0) (0,0.6,0) (0,0,0.6)",
            "encoding: raw",
        ],
        b"\x05",
    )
    with pytest.raises(UnsupportedSpaceDirections):
        read_nrrd(path, as_mask=False)


@pytest.mark.parametrize(
    "mutate,error",
    [
        (lambda lines: ["XRRD0001"] + lines[1:], NotNrrdFile),
        (lambda lines: [l for l in lines if not l.startswith("type")], MissingHeaderField),
        (lambda lines: [l for l in lines if not l.startswith("sizes")], MissingHeaderField),
        (lambda lines: [l for l in lines if not l.startswith("encoding")], MissingHeaderField),
        (lambda lines: [l for l in lines if not l.startswith("dimension")], MissingHeaderField),
        (
            lambda lines: [l.replace("encoding: raw", "encoding: hex") for l in lines],
            UnsupportedEncoding,
        ),
        (
            lambda lines: lines[:-1] + ["endian: big", lines[-1]],
            UnsupportedEndian,
        ),
        (
            lambda lines: [l.replace("spacings: 1 1 1", "spacings: 0 1 1") for l in lines],
            NonPositiveSpacing,
        ),
        (lambda lines: lines + ["data file: payload.raw"], UnsupportedField),
        (lambda lines: lines + ["line skip: 0"], UnsupportedField),
        (lambda lines: lines + ["byte skip: -1"], UnsupportedField),
    ],
)
def test_header_errors(tmp_path, mutate, error):
    lines = [
        "NRRD0004",
        "type: unsigned char",
        "dimension: 3",
        "sizes: 2 2 2",
        "spacings: 1 1 1",
        "encoding: raw",
    ]
    path = tmp_path / "bad.nrrd"
    _write(path, mutate(lines), bytes(8))
    with pytest.raises(error):
        read_nrrd(path, as_mask=False)


def test_sign_flipped_spacing_fails_with_the_grids_rule_before_the_payload(tmp_path):
    path = tmp_path / "flipped.nrrd"
    _write(
        path,
        ["NRRD0004", "type: unsigned char", "dimension: 3", "sizes: 2 2 2", "encoding: raw",
         "space directions: (1,0,0) (0,-1,0) (0,0,1)"],
        bytes(3),  # a short payload: the header must be rejected first
    )
    with pytest.raises(NonPositiveSpacing) as exc:
        read_nrrd(path, as_mask=False)
    assert str(exc.value) == (
        "spacing must be three strictly positive finite values, got (1.0, -1.0, 1.0)"
    )


def test_payload_count_mismatch(tmp_path):
    path = tmp_path / "short.nrrd"
    _write(
        path,
        ["NRRD0004", "type: unsigned char", "dimension: 3", "sizes: 2 2 2", "encoding: raw"],
        bytes(7),
    )
    with pytest.raises(DimensionMismatch):
        read_nrrd(path, as_mask=False)
    _write(
        path,
        ["NRRD0004", "type: unsigned char", "dimension: 3", "sizes: 2 2 2", "encoding: raw"],
        bytes(9),
    )
    with pytest.raises(DimensionMismatch):
        read_nrrd(path, as_mask=False)


_GZIP_2x2x2 = ["NRRD0004", "type: unsigned char", "dimension: 3", "sizes: 2 2 2", "encoding: gzip"]


def test_gzip_payload_checks(tmp_path):
    path = tmp_path / "g.nrrd"
    for payload in (
        gzip.compress(bytes(7)),  # too short
        gzip.compress(bytes(9)),  # too long
        gzip.compress(bytes(8))[:-6],  # truncated inside the trailer
        gzip.compress(bytes(8))[:12],  # truncated inside the deflate stream
        gzip.compress(bytes(8)) + b"junk",  # data after the gzip stream
        b"\x1f\x8b" + bytes(16),  # corrupt
    ):
        _write(path, _GZIP_2x2x2, payload)
        with pytest.raises(DimensionMismatch):
            read_nrrd(path, as_mask=True)


def test_oversized_gzip_payload_is_rejected_in_bounded_memory(tmp_path):
    # a 2x2x2 grid whose payload inflates to 200 MB
    deflate = zlib.compressobj(9, zlib.DEFLATED, 31)
    chunk = bytes(1 << 20)
    payload = b"".join(deflate.compress(chunk) for _ in range(200)) + deflate.flush()
    path = tmp_path / "bomb.nrrd"
    _write(path, _GZIP_2x2x2, payload)
    tracemalloc.start()
    try:
        with pytest.raises(DimensionMismatch):
            read_nrrd(path, as_mask=True)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20


def test_raw_read_holds_one_copy_of_the_payload(tmp_path, rng):
    v = Volume(rng.normal(size=(96, 80, 48)).astype(np.float32))
    path = tmp_path / "v.nrrd"
    write_nrrd(v, path)
    tracemalloc.start()
    try:
        back = read_nrrd(path, as_mask=False)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(back.data, v.data)
    assert peak < 1.2 * path.stat().st_size


def test_c_ordered_mask_write_copies_the_grid_once(tmp_path, rng):
    bits = rng.random((128, 128, 64)) < 0.3
    path = tmp_path / "m.nrrd"
    tracemalloc.start()
    try:
        write_nrrd(Mask(bits), path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * bits.size
    assert np.array_equal(read_nrrd(path, as_mask=True).bits, bits)


def test_gzip_output_is_byte_stable(tmp_path, rng):
    data = rng.integers(0, 255, size=(6, 6, 6)).astype(np.uint8)
    v = Volume(data)
    write_nrrd(v, tmp_path / "a.nrrd", encoding="gzip")
    write_nrrd(v, tmp_path / "b.nrrd", encoding="gzip")
    assert (tmp_path / "a.nrrd").read_bytes() == (tmp_path / "b.nrrd").read_bytes()


def test_gzip_output_is_zlibs_own_stream(tmp_path, rng):
    # gzip.compress writes its own header, OS byte ff, on some Python
    # versions and zlib's, OS byte 03, on others; zlib's is the same on all
    data = rng.integers(0, 4, size=(7, 6, 5)).astype(np.uint8)
    write_nrrd(Volume(data), tmp_path / "v.nrrd", encoding="gzip")
    payload = (tmp_path / "v.nrrd").read_bytes().split(b"\n\n", 1)[1]
    assert payload[:10] == bytes.fromhex("1f8b0800000000000003")
    deflater = zlib.compressobj(6, zlib.DEFLATED, 31)
    assert payload == deflater.compress(data.ravel(order="F").tobytes()) + deflater.flush()


_dims = st.tuples(st.integers(1, 6), st.integers(1, 6), st.integers(1, 6))


@given(
    dims=_dims,
    dtype=st.sampled_from(["uint8", "uint16", "float32"]),
    encoding=st.sampled_from(["raw", "gzip"]),
    seed=st.integers(0, 2**31 - 1),
)
def test_round_trip_property(tmp_path_factory, dims, dtype, encoding, seed):
    rng = np.random.default_rng(seed)
    if dtype == "float32":
        data = rng.standard_normal(dims).astype(np.float32)
    else:
        info = np.iinfo(dtype)
        data = rng.integers(0, int(info.max) + 1, size=dims).astype(dtype)
    v = Volume(data, tuple(rng.uniform(0.1, 3.0, size=3)))
    path = tmp_path_factory.mktemp("rt") / "v.nrrd"
    write_nrrd(v, path, encoding=encoding)
    assert read_nrrd(path, as_mask=False) == v


@pytest.mark.parametrize("encoding", ["raw", "gzip"])
def test_sizes_past_what_zlib_can_bound_are_a_dimension_mismatch(tmp_path, encoding):
    # 10**20 bytes is past the 2**63 - 1 that bounds a gzip inflate, so the
    # header is rejected before the payload is read
    path = tmp_path / "huge.nrrd"
    payload = gzip.compress(bytes(8)) if encoding == "gzip" else bytes(8)
    _write(path, ["NRRD0004", "type: unsigned char", "dimension: 3", "sizes: 100000000000000000000 1 1",
                  f"encoding: {encoding}"], payload)
    with pytest.raises(DimensionMismatch):
        read_nrrd(path, as_mask=True)


_NUMBERS = ["0", "-0", "-1", "1e-320", "nan", "-nan", "inf", "-inf", "1e999", "0x10", "1_0", "", "one"]
_header_values = {
    "type": st.sampled_from(["unsigned char", "uchar", "unsigned short", "float", "double", "int", "block", ""]),
    "dimension": st.sampled_from(["3", "03", "2", "4", "-3", "three", ""]),
    "sizes": st.one_of(
        st.tuples(*[st.integers(1, 2**70)] * 3).map(lambda n: " ".join(map(str, n))),
        st.lists(st.integers(-(2**70), 2**70), min_size=0, max_size=4).map(lambda n: " ".join(map(str, n))),
        st.lists(st.sampled_from(["2", "-2", "0", "2.0", "1e3", "x", "9" * 5000]), min_size=3, max_size=3)
        .map(" ".join),
    ),
    "encoding": st.sampled_from(["raw", "gzip", "gz", "GZIP", "ascii", "hex", "bzip2", ""]),
    "endian": st.sampled_from(["little", "big", "LITTLE", "middle", ""]),
    "spacings": st.lists(st.sampled_from(["1", "0.5", *_NUMBERS]), min_size=2, max_size=4).map(" ".join),
    "space directions": st.lists(
        st.lists(st.sampled_from(["1", "0", *_NUMBERS]), min_size=2, max_size=4).map(lambda c: f"({','.join(c)})")
        | st.just("none"),
        min_size=2,
        max_size=4,
    ).map(" ".join),
    "data file": st.just("payload.raw"),
    "line skip": st.sampled_from(["0", "1", "-1"]),
    "byte skip": st.sampled_from(["0", "-1"]),
}
# the unsupported fields' unspaced spellings
_header_values.update({name.replace(" ", ""): _header_values[name] for name in ("data file", "line skip", "byte skip")})


@pytest.mark.parametrize("encoding", ["raw", "gzip"])
@pytest.mark.parametrize("field", sorted(_header_values))
@given(data=st.data(), as_mask=st.booleans())
def test_header_fuzz_raises_only_labench_errors(tmp_path_factory, field, encoding, data, as_mask):
    # the drawn value replaces (or joins) the field in a valid 2x2x2 mask
    # header over a raw or gzip payload; whatever it is, only a named error escapes
    header = {"type": "unsigned char", "dimension": "3", "sizes": "2 2 2", "spacings": "1 1 1",
              "encoding": encoding}
    header[field] = data.draw(_header_values[field], label=field)
    payload = bytes([0, 1] * 4)
    path = tmp_path_factory.mktemp("fuzz") / "f.nrrd"
    _write(path, ["NRRD0004", *(f"{k}: {v}" for k, v in header.items())],
           gzip.compress(payload) if encoding == "gzip" else payload)
    try:
        read_nrrd(path, as_mask=as_mask)
    except LabenchError:
        pass
