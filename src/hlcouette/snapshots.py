"""Artifact I/O: CSV snapshots, series archives, checkpoints, summaries.

Every artifact carries the SHA-256 fingerprint of the effective config
that produced it.  Checkpoints store the exact solver state (scaled
units, float64 bit patterns preserved by npz) so a resumed run continues
bit-for-bit; loading verifies the fingerprint against the current config
before any state is trusted.

All writes go through a temporary file and an atomic rename, so a killed
run never leaves a truncated artifact behind.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
import zipfile
from pathlib import Path

import numpy as np

from .coupler import SERIES, Accumulators, ResumePayload, RunResult, Snapshot
from .errors import ArtifactIOError
from .params import rescale_fields

FLOAT_FMT = "{:.17g}"  # round-trips float64 exactly


def _atomic_write(path: Path, write) -> None:
    """Call write(fh) on a temporary file, then rename it over path."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=path.suffix)
    try:
        with os.fdopen(fd, "wb") as fh:
            write(fh)
        os.replace(tmp, path)
    except OSError as exc:
        raise ArtifactIOError(f"cannot write {path}: {exc}") from exc
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _text(text: str):
    return lambda fh: fh.write(text.encode())


def _fmt_row(values) -> str:
    return ",".join(FLOAT_FMT.format(float(v)) for v in values)


def write_fields_csv(path: str | Path, t: float, y: np.ndarray,
                     fields: dict[str, np.ndarray], fingerprint: str,
                     index_name: str = "y") -> None:
    """Node fields at one time as CSV with a commented header."""
    path = Path(path)
    lines = [f"# fingerprint = {fingerprint}", f"# t = {FLOAT_FMT.format(t)}",
             index_name + "," + ",".join(fields)]
    columns = [np.asarray(y)] + [np.asarray(v) for v in fields.values()]
    for row in zip(*columns):
        lines.append(_fmt_row(row))
    _atomic_write(path, _text("\n".join(lines) + "\n"))


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
    path = Path(path)
    lines = [f"# fingerprint = {fingerprint}", f"# t = {FLOAT_FMT.format(t)}",
             "y," + _fmt_row(centers)]
    for yi, row in zip(np.asarray(y), np.asarray(p)):
        lines.append(FLOAT_FMT.format(float(yi)) + "," + _fmt_row(row))
    _atomic_write(path, _text("\n".join(lines) + "\n"))


def _npz(**arrays):
    """Writer of an npz archive whose members stream straight into the file.

    Hand-rolled so the zip member timestamps are fixed: reruns of the same
    config must produce byte-identical artifacts.
    """
    def write(fh) -> None:
        with zipfile.ZipFile(fh, "w", zipfile.ZIP_STORED) as zf:
            for name, arr in arrays.items():
                arr = np.asarray(arr)
                info = zipfile.ZipInfo(name + ".npy", date_time=(1980, 1, 1, 0, 0, 0))
                info.file_size = arr.nbytes  # sizes the zip64 choice up front
                with zf.open(info, "w") as member:
                    np.lib.format.write_array(member, arr, allow_pickle=False)
    return write


def _maybe_rescale(snap: Snapshot, scales: tuple[float, float, float] | None,
                   y: np.ndarray) -> tuple[float, np.ndarray, dict]:
    fields = {"u": snap.u, "tau": snap.tau, "d": snap.d}
    if scales is None:
        return snap.t, y, fields
    t0, length, sigma_c = scales
    out = rescale_fields({"t": snap.t, "y": y, **fields},
                         t0, length, sigma_c, to_dimensionless=False)
    return float(out["t"]), out["y"], {k: out[k] for k in fields}


def write_snapshots(out_dir: str | Path, result: RunResult, fingerprint: str,
                    scales: tuple[float, float, float] | None = None,
                    dump_density: bool = False) -> list[Path]:
    """Write one fields CSV per snapshot (plus density matrices on request).

    scales, when given, maps outputs back to dimensional units; solver
    state inside checkpoints is never rescaled.
    """
    out_dir = Path(out_dir)
    y = result.problem.space_grid.y
    centers = result.problem.sigma_grid.centers
    written: list[Path] = []
    for snap in result.snapshots:
        t_out, y_out, fields = _maybe_rescale(snap, scales, y)
        path = out_dir / f"snapshot_{snap.index:06d}.csv"
        write_fields_csv(path, t_out, y_out, fields, fingerprint)
        written.append(path)
        if dump_density and snap.p is not None:
            p_out, c_out = snap.p, centers
            if scales is not None:
                scaled = rescale_fields({"p": snap.p, "sigma": centers},
                                        *scales, to_dimensionless=False)
                p_out, c_out = scaled["p"], scaled["sigma"]
            dpath = out_dir / f"density_{snap.index:06d}.csv"
            write_density_csv(dpath, t_out, y_out, c_out, p_out, fingerprint)
            written.append(dpath)
    return written


def write_series(path: str | Path, result: RunResult, fingerprint: str) -> None:
    """Per-step series archive (always in scaled units)."""
    _atomic_write(Path(path), _npz(
        fingerprint=np.array(fingerprint),
        kind=np.array(result.kind),
        times=result.times,
        **{f.archive_key: getattr(result, f.attr) for f in SERIES}))


def read_series(path: str | Path) -> dict:
    try:
        with np.load(Path(path)) as z:
            return {k: (z[k].item() if z[k].ndim == 0 else z[k].copy()) for k in z.files}
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


def save_checkpoint(path: str | Path, payload: ResumePayload, fingerprint: str) -> None:
    """Persist exact solver state for a bit-for-bit resume."""
    s = payload.series
    _atomic_write(Path(path), _npz(
        fingerprint=np.array(fingerprint),
        step=np.array(payload.step),
        u=payload.u, p=payload.p,
        xi=payload.accum.xi, acc_d=payload.accum.acc_d,
        grad_sq=payload.accum.grad_sq,
        clipped_total=np.array(payload.accum.clipped_total),
        min_before_clip=np.array(payload.accum.min_before_clip),
        truncation_steps=np.array(payload.accum.truncation_steps),
        **{f.checkpoint_key: s[f.key] for f in SERIES},
        warnings=np.array(json.dumps(s.get("warnings", [])))))


def load_checkpoint(path: str | Path,
                    expect_fingerprint: str | None = None) -> ResumePayload:
    """Restore a checkpoint, verifying it matches the current config."""
    path = Path(path)
    try:
        with np.load(path) as z:
            fingerprint = z["fingerprint"].item()
            if expect_fingerprint is not None and fingerprint != expect_fingerprint:
                raise ArtifactIOError(
                    f"checkpoint {path} was produced by a different config "
                    f"(fingerprint {fingerprint[:12]}... vs {expect_fingerprint[:12]}...)")
            accum = Accumulators(
                xi=z["xi"].copy(), acc_d=z["acc_d"].copy(),
                grad_sq=z["grad_sq"].copy(),
                clipped_total=float(z["clipped_total"]),
                min_before_clip=float(z["min_before_clip"]),
                truncation_steps=int(z["truncation_steps"]))
            series = {f.key: z[f.checkpoint_key].copy() for f in SERIES}
            series["warnings"] = json.loads(z["warnings"].item())
            return ResumePayload(step=int(z["step"]), u=z["u"].copy(),
                                 p=z["p"].copy(), accum=accum, series=series)
    except OSError as exc:
        raise ArtifactIOError(f"cannot read checkpoint {path}: {exc}") from exc
    except KeyError as exc:
        raise ArtifactIOError(f"checkpoint {path} is missing field {exc}") from exc
