"""Artifact I/O: CSV snapshots, series archives, checkpoints, summaries.

Every artifact carries the SHA-256 fingerprint of the effective config
that produced it.  Checkpoints store the exact solver state (scaled
units, float64 bit patterns preserved by npz) so a resumed run continues
bit-for-bit; loading verifies the fingerprint against the current config
before any state is trusted.

All writes go through a temporary file and an atomic rename, so a killed
run never leaves a truncated artifact behind.

Checkpoints, series.npz, failure_dump.npz and the density dumps are npz
archives written by _npz, the one npz writer.  It writes the zip by hand,
with every field the value Python's zipfile would write, for three
reasons: the timestamps are fixed (reruns of one config give
byte-identical files), each member is written in one pass (its CRC and
size are known before its local header, so nothing seeks back), and array
data goes to the file from the array's own buffer, with no bytes copy.
The layout is a stored zip:
- per array, in keyword order: a local header (version 20, no flags,
  ZIP_STORED, 1980-01-01 00:00, CRC-32, sizes, the name "<key>.npy"),
  then the npy 1.0 header and the raw data, as np.save writes them;
- a central directory entry per member (create_system 3, version 20,
  external_attr 0o600 << 16, the local header's offset);
- the end-of-central-directory record.
A member whose array holds more than ZIP64_LIMIT / 1.05 bytes carries a
zip64 extra field in its local header (version 45, sizes 0xFFFFFFFF);
sizes and offsets above ZIP64_LIMIT move to a zip64 extra in the central
directory, and a directory past the limits gets the zip64 end records.

A run's --out directory has one writer, a RunDirectory, which names
every file in it:
- snapshot_<step>.csv (y, u, tau, d) per snapshot and, with
  --dump-density, density_<step>.npz (general runs only);
- checkpoint_<step>.npz every checkpoint_every steps, on both paths;
- when the run returns: series.npz, checkpoint_final.npz (general runs
  only) and summary.json;
- when it fails: failure_dump.npz, if the failure carries a state
  (HlCouetteError.state): every failure in the step loop but a writer's
  does, and it is the last accepted state.
Steps are zero-padded to six digits.  A density archive holds the
members fingerprint, t, y, sigma and p, in that order; p[i, j] is the
density at gap node y[i] and stress cell centre sigma[j].  The snapshot
CSVs and the density archives are mapped back to dimensional units when
the directory has scales, so a density is in the units of the CSV beside
it; the other npz archives always hold the solver's scaled state.
The directory's lifecycle: the run calls it with the state of each
snapshot step and D of its rows (its snapshot_sink).  It writes the
density archive at once and keeps only the step's u, tau (the series'
entry there) and D for the CSV, so no density row outlives its step; the
time is the grid's time at that step.  The run calls the directory's
checkpoint with each RunState (its checkpoint_sink), which it writes
before the run goes on, so a checkpoint file is complete the moment its
sink call returns.  Once the run has returned, finish writes the
snapshot CSVs and the rest, with the result itself as the final
checkpoint; if anything raised, abort writes the failure dump (the
RunState the failure met) and the snapshot CSVs.  The CSVs wait
because a file created inside the step loop costs about 1 ms while
checkpoints are being written back.  Every file is written in the
calling process.
A writer error in abort is returned, not raised, so the run's own error
is the one that exits.  The four writers (write_snapshots, write_series,
write_summary, save_checkpoint) are module functions looked up at each
call, so a wrapper set on the module attribute sees every call;
write_snapshots returns the density archives written when their
snapshots were taken beside the CSVs it writes, so a wrapper that counts
the bytes of its files counts every snapshot file.
"""

from __future__ import annotations

import io
import json
import math
import os
import struct
import tempfile
import zipfile
import zlib
from dataclasses import fields
from pathlib import Path

import numpy as np

from .coupler import SERIES, Accumulators, RunResult, RunState
from .errors import ArtifactIOError
from .params import rescale_fields

FLOAT_FMT = "%.17g"  # round-trips float64 exactly

# The npz archive fields, each the value Python's zipfile writes.
ZIP64_LIMIT = (1 << 31) - 1  # sizes and offsets above it go to zip64 fields
_VERSION, _ZIP64_VERSION = 20, 45  # "version needed to extract"
_DOS_DATE = (1 << 5) | 1  # 1980-01-01; the DOS time field is 0
_EXTERNAL_ATTR = 0o600 << 16  # -rw-------
_LOCAL = "<4s2B4HL2L2H"
_CENTRAL = "<4s4B4HL2L5H2L"


def _atomic_write(path: Path, write) -> None:
    """Call write(fh) on a temporary file, then rename it over path."""
    tmp = None
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=path.suffix)
        with os.fdopen(fd, "wb") as fh:
            write(fh)
        os.replace(tmp, path)
    except OSError as exc:
        raise ArtifactIOError(f"cannot write {path}: {exc}") from exc
    finally:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)


def _text(text: str):
    return lambda fh: fh.write(text.encode())


def _fmt_rows(table: np.ndarray) -> str:
    """CSV lines of a 2-D table, each ending in a newline.

    One row template repeated over the rows takes a single % formatting
    pass over the whole table instead of one call per value.
    """
    n_rows, n_cols = table.shape
    row = ",".join([FLOAT_FMT] * n_cols) + "\n"
    return (row * n_rows) % tuple(table.ravel().tolist())


def _csv(fingerprint: str, t: float, header: str, table: np.ndarray) -> str:
    return (f"# fingerprint = {fingerprint}\n# t = {FLOAT_FMT % t}\n{header}\n"
            + _fmt_rows(table))


def write_fields_csv(path: str | Path, t: float, y: np.ndarray,
                     fields: dict[str, np.ndarray], fingerprint: str,
                     index_name: str = "y") -> None:
    """Node fields at one time as CSV with a commented header."""
    table = np.column_stack([np.asarray(y, dtype=float)]
                            + [np.asarray(v, dtype=float) for v in fields.values()])
    header = index_name + "," + ",".join(fields)
    _atomic_write(Path(path), _text(_csv(fingerprint, t, header, table)))


def read_fields_csv(path: str | Path) -> tuple[float, dict[str, np.ndarray]]:
    path = Path(path)
    try:
        raw = path.read_text().splitlines()
    except OSError as exc:
        raise ArtifactIOError(f"cannot read {path}: {exc}") from exc
    t = math.nan
    header: list[str] = []
    rows: list[list[float]] = []
    for line in raw:
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            if line[1:].split("=")[0].strip() == "t":
                t = float(line.split("=", 1)[1])
            continue
        if not header:
            header = line.split(",")
            continue
        rows.append([float(x) for x in line.split(",")])
    if not header or not rows:
        raise ArtifactIOError(f"no data rows in {path}")
    data = np.array(rows)
    out = {name: data[:, j].copy() for j, name in enumerate(header)}
    return t, out


def _npy(arr: np.ndarray) -> tuple[bytes, np.ndarray]:
    """The npy 1.0 header of arr and its data as bytes in file order.

    The data is a uint8 view of arr whenever arr is contiguous; like
    np.save, a Fortran-ordered array is stored in Fortran order and any
    other non-contiguous array is copied once into C order.
    """
    header = io.BytesIO()
    meta = np.lib.format.header_data_from_array_1_0(arr)
    np.lib.format.write_array_header_1_0(header, meta)
    data = arr.ravel(order="F" if meta["fortran_order"] else "C")
    return header.getvalue(), data.view(np.uint8)


def _npz(**arrays):
    """Writer of an npz archive: one stored npy member per keyword, in order.

    Each member is written in one pass, local header first, since its CRC
    and size are known before a byte is written; see the module docstring
    for the layout.
    """
    def write(fh) -> None:
        members = []  # (name, crc, size, offset, zip64) in archive order
        offset = 0
        for key, arr in arrays.items():
            arr = np.asarray(arr)
            name = (key + ".npy").encode("ascii")
            header, data = _npy(arr)
            size = len(header) + data.nbytes
            crc = zlib.crc32(data, zlib.crc32(header))
            # zipfile's choice, made from the array's bytes alone; where the
            # npy header tips the member over the limit, zipfile raises
            zip64 = arr.nbytes * 1.05 > ZIP64_LIMIT or size > ZIP64_LIMIT
            if zip64:
                version, stored = _ZIP64_VERSION, 0xFFFFFFFF
                extra = struct.pack("<HHQQ", 1, 16, size, size)
            else:
                version, stored, extra = _VERSION, size, b""
            local = struct.pack(_LOCAL, b"PK\x03\x04", version, 0, 0, 0, 0, _DOS_DATE,
                                crc, stored, stored, len(name), len(extra)) + name + extra
            fh.write(local + header)
            fh.write(data)
            members.append((name, crc, size, offset, zip64))
            offset += len(local) + size

        start = offset
        for name, crc, size, at, zip64 in members:
            big = [size, size] if size > ZIP64_LIMIT else []
            if at > ZIP64_LIMIT:
                big.append(at)
            extra = struct.pack(f"<HH{len(big)}Q", 1, 8 * len(big), *big) if big else b""
            version = _ZIP64_VERSION if zip64 or big else _VERSION
            stored = 0xFFFFFFFF if size > ZIP64_LIMIT else size
            entry = struct.pack(_CENTRAL, b"PK\x01\x02", version, 3, version, 0, 0,
                                0, 0, _DOS_DATE, crc, stored, stored, len(name),
                                len(extra), 0, 0, 0, _EXTERNAL_ATTR,
                                0xFFFFFFFF if at > ZIP64_LIMIT else at)
            fh.write(entry + name + extra)
            offset += len(entry) + len(name) + len(extra)

        count, length = len(members), offset - start
        if count > 0xFFFF or start > ZIP64_LIMIT or length > ZIP64_LIMIT:
            fh.write(struct.pack("<4sQ2H2L4Q", b"PK\x06\x06", 44, _ZIP64_VERSION,
                                 _ZIP64_VERSION, 0, 0, count, count, length, start))
            fh.write(struct.pack("<4sLQL", b"PK\x06\x07", 0, offset, 1))
            count, length, start = (min(count, 0xFFFF), min(length, 0xFFFFFFFF),
                                    min(start, 0xFFFFFFFF))
        fh.write(struct.pack("<4s4H2LH", b"PK\x05\x06", 0, 0, count, count,
                             length, start, 0))
    return write


class RunDirectory:
    """The one writer of a run's --out directory; see the module docstring."""

    def __init__(self, out_dir: str | Path, problem, fingerprint: str,
                 scales: tuple[float, float, float] | None = None,
                 dump_density: bool = False):
        self.out_dir = Path(out_dir)
        self.space_grid = problem.space_grid
        self.centers = problem.sigma_grid.centers
        self.fingerprint = fingerprint
        self.scales = scales
        self.dump_density = dump_density
        # (step, CSV fields, density archive or None) of each snapshot whose
        # CSV is not written
        self.taken: list[tuple[int, dict[str, np.ndarray], Path | None]] = []

    def __call__(self, state: RunState, d: np.ndarray) -> None:
        """Take the snapshot of state, whose rows have D d: write its density
        archive now, keep copies of its CSV fields."""
        step = state.step
        fields = {"u": state.u.copy(), "tau": state.series["tau"][step].copy(), "d": d.copy()}
        dpath = None
        if self.dump_density:
            dpath = self.out_dir / f"density_{step:06d}.npz"
            _atomic_write(dpath, _npz(fingerprint=np.array(self.fingerprint), **self._in_units(
                {"t": self.space_grid.time(step), "y": self.space_grid.y,
                 "sigma": self.centers, "p": state.p})))
        self.taken.append((step, fields, dpath))

    def checkpoint(self, state: RunState) -> None:
        """Write checkpoint_<step>.npz before the run goes on."""
        save_checkpoint(self.out_dir / f"checkpoint_{state.step:06d}.npz",
                        state, self.fingerprint)

    def finish(self, result: RunResult, summary: dict) -> list[Path]:
        """Write the artifacts of a run that returned; returns the snapshot
        paths (write_snapshots).

        Raises ArtifactIOError naming the first file that failed.
        """
        written = write_snapshots(self)
        write_series(self.out_dir / "series.npz", result, self.fingerprint)
        if result.kind == "general":
            save_checkpoint(self.out_dir / "checkpoint_final.npz", result,
                            self.fingerprint)
        write_summary(self.out_dir / "summary.json", summary)
        return written

    def abort(self, state: RunState | None = None
              ) -> tuple[Path | None, list[str]]:
        """Write what a failed run leaves; never raises a writer error.

        Dumps state, the state the failure met (HlCouetteError.state),
        when there is one, as a checkpoint that a resume and diagnose read,
        then writes the CSV of every snapshot taken.  Returns the dump's path
        (None if none was written) and the writer errors.
        """
        errors = []
        dump = None if state is None else self.out_dir / "failure_dump.npz"
        if dump is not None:
            try:
                save_checkpoint(dump, state, self.fingerprint)
            except ArtifactIOError as exc:
                dump, errors = None, [str(exc)]
        try:
            write_snapshots(self)
        except ArtifactIOError as exc:
            errors.append(str(exc))
        return dump, errors

    def _in_units(self, fields: dict) -> dict:
        """fields mapped back to dimensional units when the directory has
        scales; fields itself without them."""
        if self.scales is None:
            return fields
        return rescale_fields(fields, *self.scales, to_dimensionless=False)

    def _write(self, step: int, fields: dict[str, np.ndarray], dpath: Path | None
               ) -> list[Path]:
        """Write one snapshot's CSV; returns the paths of its files."""
        fields = self._in_units({"t": self.space_grid.time(step), "y": self.space_grid.y,
                                 **fields})
        path = self.out_dir / f"snapshot_{step:06d}.csv"
        write_fields_csv(path, fields.pop("t"), fields.pop("y"), fields, self.fingerprint)
        return [path] if dpath is None else [path, dpath]


def write_snapshots(directory: RunDirectory) -> list[Path]:
    """Write the CSV of every snapshot taken and not yet written.

    Returns the paths of those snapshots' files, each CSV followed by the
    density archive written when it was taken, in snapshot order.  Raises
    ArtifactIOError naming the first file that failed; the snapshots after
    it are not written, and none is written again by a later call.
    """
    taken, directory.taken = directory.taken, []
    return [path for snap in taken for path in directory._write(*snap)]


def write_series(path: str | Path, result: RunResult, fingerprint: str) -> None:
    """Per-step series archive (always in scaled units)."""
    _atomic_write(Path(path), _npz(
        fingerprint=np.array(fingerprint),
        kind=np.array(result.kind),
        times=result.times,
        **{f.archive or f.key: result.series[f.key] for f in SERIES}))


def _member(z, name: str):
    """An npz member as a fresh array, or a 0-d one as its Python scalar."""
    value = z[name]
    return value.item() if value.ndim == 0 else value


# what np.load raises on a file that is not an intact npz archive: a
# truncated one or a flipped byte (BadZipFile), a text file (ValueError),
# an empty one (EOFError)
_CORRUPT = (zipfile.BadZipFile, ValueError, EOFError)


def read_series(path: str | Path) -> dict:
    try:
        with np.load(Path(path)) as z:
            return {k: _member(z, k) for k in z.files}
    except OSError as exc:
        raise ArtifactIOError(f"cannot read {path}: {exc}") from exc
    except _CORRUPT as exc:
        raise ArtifactIOError(f"corrupt series {path}: {exc}") from exc


def _json_safe(value):
    """value with each non-finite float, which strict JSON cannot hold, as None."""
    if isinstance(value, dict):
        return {key: _json_safe(v) for key, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    return None if isinstance(value, float) and not math.isfinite(value) else value


def write_summary(path: str | Path, summary: dict) -> None:
    """summary as strict JSON, a non-finite float (an undefined bound) as null."""
    _atomic_write(Path(path), _text(json.dumps(_json_safe(summary), indent=2,
                                               sort_keys=True, allow_nan=False) + "\n"))


def read_summary(path: str | Path) -> dict:
    try:
        return json.loads(Path(path).read_text())
    except OSError as exc:
        raise ArtifactIOError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ArtifactIOError(f"corrupt summary {path}: {exc}") from exc


def save_checkpoint(path: str | Path, state: RunState, fingerprint: str) -> None:
    """Persist exact solver state for a bit-for-bit resume."""
    _atomic_write(Path(path), _npz(
        fingerprint=np.array(fingerprint),
        step=np.array(state.step),
        u=state.u, p=state.p,
        **{f.name: getattr(state.accum, f.name) for f in fields(Accumulators)},
        **{f.checkpoint_key: state.series[f.key] for f in SERIES},
        warnings=np.array(json.dumps(state.warnings))))


def load_checkpoint(path: str | Path,
                    expect_fingerprint: str | None = None) -> RunState:
    """Restore a checkpoint, verifying it matches the current config."""
    path = Path(path)
    try:
        with np.load(path) as z:
            fingerprint = z["fingerprint"].item()
            if expect_fingerprint is not None and fingerprint != expect_fingerprint:
                raise ArtifactIOError(
                    f"checkpoint {path} was produced by a different config "
                    f"(fingerprint {fingerprint[:12]}... vs {expect_fingerprint[:12]}...)")
            return RunState(
                step=_member(z, "step"), u=z["u"], p=z["p"],
                accum=Accumulators(**{f.name: _member(z, f.name)
                                      for f in fields(Accumulators)}),
                series={f.key: z[f.checkpoint_key] for f in SERIES},
                warnings=json.loads(_member(z, "warnings")))
    except OSError as exc:
        raise ArtifactIOError(f"cannot read checkpoint {path}: {exc}") from exc
    except KeyError as exc:
        raise ArtifactIOError(f"checkpoint {path} is missing field {exc}") from exc
    except _CORRUPT as exc:
        raise ArtifactIOError(f"corrupt checkpoint {path}: {exc}") from exc
