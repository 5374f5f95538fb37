"""Artifact I/O: CSV snapshots, series archives, checkpoints, summaries.

Every artifact carries the SHA-256 fingerprint of the effective config
that produced it.  Checkpoints store the exact solver state (scaled
units, float64 bit patterns preserved by npz) so a resumed run continues
bit-for-bit; loading verifies the fingerprint against the current config
before any state is trusted.

All writes go through a temporary file and an atomic rename, so a killed
run never leaves a truncated artifact behind.

Checkpoints, series.npz and failure_dump.npz are npz archives written by
_npz, the one npz writer.  It writes the zip by hand, with every field the
value Python's zipfile would write, for three reasons: the timestamps are
fixed (reruns of one config give byte-identical files), each member is
written in one pass (its CRC and size are known before its local header,
so nothing seeks back), and array data goes to the file from the array's
own buffer, with no bytes copy.  The layout is a stored zip:
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
- snapshot_<index>.csv (y, u, tau, d) per snapshot and, with
  --dump-density, density_<index>.csv (general runs only);
- checkpoint_<step>.npz every checkpoint_every steps;
- when the run returns: series.npz, checkpoint_final.npz (general runs
  only) and summary.json;
- when it fails: failure_dump.npz, if the failure carries the state of
  its step (the mass guard's does).
Indices and steps are zero-padded to six digits.  The CSVs are mapped
back to dimensional units when the directory has scales; the npz
archives always hold the solver's scaled state.  The directory's
lifecycle: the run calls it with each Snapshot (its snapshot_sink) and
calls its checkpoint with each RunState (its checkpoint_sink);
end_of_run follows once the run has returned; then finish writes the
rest, with the result itself as the final checkpoint, or, if anything
raised, abort writes the failure dump (the RunState of the failed step)
and the CSVs.
A writer error in abort is returned, not raised, so the run's own error
is the one that exits.  The four writers (write_snapshots, write_series,
write_summary, save_checkpoint) are module functions looked up at each
call, so a wrapper set on the module attribute sees every call.

Formatting the snapshot CSVs as %.17g text is pure Python work that one
core cannot speed up, so it is streamed to other cores while the run
integrates: the directory collects each snapshot into a pending batch.
- Batches: a snapshot counts 4 * n_y values (y, u, tau, d), plus the
  n_y * n_sigma of its density when one is dumped.  Once the pending
  batch holds MIN_SHARE_VALUES and a writer slot is free, a child that
  os.fork starts writes the batch.  There are usable CPUs - 1 slots,
  none without os.fork, and a slot is checked without blocking
  (waitpid with WNOHANG): nothing the run calls waits for a child.
  MIN_SHARE_VALUES is the fewest values that repay a fork (about 10 ms
  for a run-sized process), so small outputs (the standard scenario's
  11 snapshots) never fork and `taskset -c 0` makes every run serial.
- end_of_run hands the rest of the batch to a child once the run has
  returned, if the directory has forked before, whether or not a slot is
  free, so the children format while the caller evaluates.
  write_snapshots (called by finish and abort) writes what is still
  pending in the caller, reaps every child and returns every path in
  snapshot order.  The files and their bytes do not depend on which
  process wrote them.
- Why fork: a forked child already holds the snapshot arrays, so nothing
  is pickled.  Process pools pickle every job through a feeder thread that
  waits for the interpreter lock, which the caller holds through each
  multi-millisecond step, and importing multiprocessing costs resident
  memory even in runs that never fork.
- A child only builds tables and formats text.  It calls no BLAS or
  LAPACK routine, so the BLAS threads of the caller, which a forked child
  does not inherit, are never waited for: forking here is safe although
  the caller has threads.  It runs no code of the caller either: whatever
  happens, it leaves through os._exit.  The caller flushes stdout and
  stderr before every fork, so output still buffered mid-run is not
  written twice.
- A child that fails sends its message back through a pipe.
  write_snapshots reaps every child, then raises ArtifactIOError (exit
  code 6) naming the file that failed; _atomic_write leaves no temporary
  file behind.  A fork that fails leaves the batch pending for the
  caller to write, and no later fork is tried.
- Checkpoints are not streamed: save_checkpoint writes each one in the
  caller before the run goes on, so a checkpoint file is complete the
  moment its sink call returns.
"""

from __future__ import annotations

import io
import json
import math
import os
import struct
import sys
import tempfile
import zlib
from dataclasses import fields
from pathlib import Path

import numpy as np

from .coupler import SERIES, Accumulators, RunResult, RunState, Snapshot
from .errors import ArtifactIOError
from .params import rescale_fields

FLOAT_FMT = "%.17g"  # round-trips float64 exactly
MIN_SHARE_VALUES = 200_000  # about 0.12 s of formatting: repays a fork
_MESSAGE_MAX = 4096  # bytes of a child's error message (one atomic pipe write)

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


def write_density_csv(path: str | Path, t: float, y: np.ndarray,
                      centers: np.ndarray, p: np.ndarray, fingerprint: str) -> None:
    """Density matrix (rows = gap nodes, columns = stress cells) as CSV."""
    header = "y," + _fmt_rows(np.asarray(centers, dtype=float)[None, :])[:-1]
    table = np.column_stack([np.asarray(y, dtype=float), np.asarray(p, dtype=float)])
    _atomic_write(Path(path), _text(_csv(fingerprint, t, header, table)))


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


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _fork(write, batch: list) -> tuple[int, int]:
    """Start a child that calls write(batch); returns its pid and error pipe."""
    read_end, write_end = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_end)
        os.close(write_end)
        raise
    if pid == 0:  # the child: write the batch, report a failure, never return
        code = 1
        try:
            os.close(read_end)
            write(batch)
            code = 0
        except BaseException as exc:
            message = str(exc) if isinstance(exc, ArtifactIOError) else (
                f"cannot write {batch[0][1]} and after: {exc!r}")
            # within the pipe's capacity, so the write never waits for a reader
            os.write(write_end, message.encode(errors="replace")[:_MESSAGE_MAX])
        finally:
            os._exit(code)
    os.close(write_end)
    return pid, read_end


class RunDirectory:
    """The one writer of a run's --out directory; see the module docstring."""

    def __init__(self, out_dir: str | Path, problem, fingerprint: str,
                 scales: tuple[float, float, float] | None = None,
                 dump_density: bool = False):
        self.out_dir = Path(out_dir)
        self.y = problem.space_grid.y
        self.centers = problem.sigma_grid.centers
        self.fingerprint = fingerprint
        self.scales = scales
        self.dump_density = dump_density
        self.files: list = []    # (snapshot, fields path, density path), in order
        self._pending: list = []  # files no child has been given
        self._pending_values = 0
        self._slots = _usable_cpus() - 1 if hasattr(os, "fork") else 0
        self._children: list = []  # (pid, error pipe, batch) not reaped yet
        self._failures: list[str] = []
        self._forked = False

    def __call__(self, snap: Snapshot) -> None:
        dpath = (self.out_dir / f"density_{snap.index:06d}.csv"
                 if self.dump_density and snap.p is not None else None)
        item = (snap, self.out_dir / f"snapshot_{snap.index:06d}.csv", dpath)
        self.files.append(item)
        self._pending.append(item)
        self._pending_values += 4 * self.y.size + (0 if dpath is None else snap.p.size)
        if self._pending_values >= MIN_SHARE_VALUES and self._free_slot():
            self._hand_off()

    def checkpoint(self, state: RunState) -> None:
        """Write checkpoint_<step>.npz before the run goes on."""
        save_checkpoint(self.out_dir / f"checkpoint_{state.step:06d}.npz",
                        state, self.fingerprint)

    def end_of_run(self) -> None:
        """Hand the pending batch to a child, if this directory has forked."""
        if self._forked and self._pending:
            self._hand_off()

    def finish(self, result: RunResult, summary: dict) -> list[Path]:
        """Write the artifacts of a run that returned; returns the CSV paths.

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

        Dumps state, the state of the failure, when there is one, then
        writes every snapshot taken and reaps every child.  Returns the
        dump's path (None if none was written) and the writer errors.
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

    def _write(self, batch: list) -> None:
        for snap, path, dpath in batch:
            t, y, centers, p = snap.t, self.y, self.centers, snap.p
            fields = {"u": snap.u, "tau": snap.tau, "d": snap.d}
            if self.scales is not None:
                density = {} if dpath is None else {"sigma": centers, "p": p}
                dim = rescale_fields({"t": t, "y": y, **fields, **density},
                                     *self.scales, to_dimensionless=False)
                t, y, centers, p = dim["t"], dim["y"], dim.get("sigma"), dim.get("p")
                fields = {k: dim[k] for k in fields}
            write_fields_csv(path, t, y, fields, self.fingerprint)
            if dpath is not None:
                write_density_csv(dpath, t, y, centers, p, self.fingerprint)

    def _free_slot(self) -> bool:
        self._children = [c for c in self._children if not self._reap(c, os.WNOHANG)]
        return len(self._children) < self._slots

    def _hand_off(self) -> None:
        for stream in (sys.stdout, sys.stderr):
            if stream is not None:
                stream.flush()
        try:
            pid, pipe = _fork(self._write, self._pending)
        except OSError:  # no process to spare: write_snapshots writes the batch here
            self._slots = 0
            return
        self._children.append((pid, pipe, self._pending))
        self._forked = True
        self._pending, self._pending_values = [], 0

    def _reap(self, child: tuple, flags: int = 0) -> bool:
        """Reap a child that has ended (waiting for it unless flags say not)."""
        pid, pipe, batch = child
        done, status = os.waitpid(pid, flags)
        if not done:
            return False
        with os.fdopen(pipe, "rb") as fh:
            message = fh.read().decode(errors="replace")
        code = os.waitstatus_to_exitcode(status)
        if code != 0:
            self._failures.append(message or (
                f"cannot write {batch[0][1]} and after: "
                f"writer process exited with code {code}"))
        return True


def write_snapshots(directory: RunDirectory) -> list[Path]:
    """Write the snapshot CSVs still pending here, reap every child.

    Returns every CSV path of the directory in snapshot order; the bytes
    do not depend on which process wrote them.  Raises ArtifactIOError
    naming the file that failed, once every child is reaped.
    """
    pending = directory._pending
    directory._pending, directory._pending_values = [], 0
    try:
        directory._write(pending)
    finally:
        for child in directory._children:
            directory._reap(child)
        directory._children = []
    failures, directory._failures = directory._failures, []
    if failures:
        raise ArtifactIOError(failures[0])
    return [p for _, path, dpath in directory.files for p in (path, dpath)
            if p is not None]


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


def read_series(path: str | Path) -> dict:
    try:
        with np.load(Path(path)) as z:
            return {k: _member(z, k) for k in z.files}
    except OSError as exc:
        raise ArtifactIOError(f"cannot read {path}: {exc}") from exc


def write_summary(path: str | Path, payload: dict) -> None:
    _atomic_write(Path(path), _text(json.dumps(payload, indent=2, sort_keys=True) + "\n"))


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
