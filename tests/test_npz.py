"""The one-pass npz writer against the zipfile writer it replaced."""

import io
import zipfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from hlcouette import snapshots


def zipfile_npz(**arrays):
    """The reference: an npz written through zipfile and np.save's writer,
    with fixed timestamps, as snapshots._npz wrote it before it went
    one-pass.  snapshots._npz must give the same bytes."""
    def write(fh) -> None:
        with zipfile.ZipFile(fh, "w", zipfile.ZIP_STORED) as zf:
            for name, arr in arrays.items():
                arr = np.asarray(arr)
                info = zipfile.ZipInfo(name + ".npy", date_time=(1980, 1, 1, 0, 0, 0))
                info.file_size = arr.nbytes  # sizes the zip64 choice up front
                with zf.open(info, "w") as member:
                    np.lib.format.write_array(member, arr, allow_pickle=False)
    return write


def archive(writer) -> bytes:
    buf = io.BytesIO()
    writer(buf)
    return buf.getvalue()


DTYPES = st.one_of(st.just(np.dtype("<f8")), st.just(np.dtype("<i8")),
                   hnp.unicode_string_dtypes(endianness="<", min_len=1, max_len=8))
# 0-d, empty and small arrays
SHAPES = hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=5)


@st.composite
def members(draw):
    """An array in one of the layouts callers hand over: contiguous,
    Fortran-ordered (a transpose) or strided (every other element)."""
    arr = draw(hnp.arrays(DTYPES, SHAPES))
    layout = draw(st.sampled_from(["c", "fortran", "strided"]))
    if layout == "fortran":
        return arr.T
    if layout == "strided" and arr.ndim:
        return arr[..., ::2]
    return arr


ARCHIVES = st.dictionaries(st.from_regex(r"[a-z][a-z0-9_]{0,9}", fullmatch=True),
                           members(), min_size=1, max_size=5)
# None keeps the real limit; small limits drive every zip64 branch
LIMITS = st.one_of(st.none(), st.integers(min_value=0, max_value=3000))


def assert_round_trips(data: bytes, arrays: dict) -> None:
    with np.load(io.BytesIO(data)) as z:
        assert z.files == list(arrays)
        for key, arr in arrays.items():
            back = z[key]
            assert back.dtype == arr.dtype and back.shape == arr.shape
            assert back.tobytes() == np.ascontiguousarray(arr).tobytes()


@settings(deadline=None)
@given(arrays=ARCHIVES, limit=LIMITS)
def test_npz_matches_the_zipfile_writer(arrays, limit):
    with pytest.MonkeyPatch.context() as mp:
        if limit is not None:
            mp.setattr(zipfile, "ZIP64_LIMIT", limit)
            mp.setattr(snapshots, "ZIP64_LIMIT", limit)
        ours = archive(snapshots._npz(**arrays))
        try:
            reference = archive(zipfile_npz(**arrays))
        except RuntimeError:
            # zipfile chose no zip64 extra from the data size, then found
            # the member with its npy header over the limit; only a limit
            # below 1.05 times that size reaches this, never the real one
            reference = None
    if reference is not None:
        assert ours == reference
    assert_round_trips(ours, arrays)


def test_npz_matches_the_zipfile_writer_on_run_archives(tmp_path):
    rng = np.random.default_rng(7)
    p = rng.random((64, 256))
    arrays = {"fingerprint": np.array("a" * 64), "step": np.array(500),
              "p": p, "column": p[:, 3], "pt": p.T, "empty": np.zeros((0, 4)),
              "warnings": np.array('["stress_domain_truncation"]')}
    ours = tmp_path / "ours.npz"
    snapshots._atomic_write(ours, snapshots._npz(**arrays))
    assert ours.read_bytes() == archive(zipfile_npz(**arrays))
    assert_round_trips(ours.read_bytes(), arrays)
