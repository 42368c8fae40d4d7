"""File formats: field CSV, JSON, trajectory dumps, sweep CSV.

* ScalarField CSV: header ``x,value``, one row per grid point, floats
  written with 17 significant digits (lossless for float64).
* JSON: keys sorted, one-space indent, so equal payloads write equal
  bytes; strict RFC 8259, so a NaN or an infinity is refused, never
  written.
* Trajectory dump: ``psi.npy``, psi at every step 0..steps as one
  (steps + 1, n) complex128 array, the rows exactly what the flow passed
  to its reader, plus ``manifest.json`` (schema 2) carrying dt, steps,
  the constants, the grid and the potential.  The dump is lossless, and
  P = |psi|^2 and S = hbar arg psi are left to the reader.
* Sweep CSV: ``lambda,I,meanA,Lambda,alpha_norm,status``; failed rows
  keep their multiplier and error name with empty value columns.
"""

from __future__ import annotations

import csv
import json
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .grid import ScalarField
from .legendre import SweepTable
from .states import PhysicalConstants


def _fmt(v: float) -> str:
    return format(float(v), ".17g")


def save_field_csv(field: ScalarField, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "value"])
        for x, v in zip(field.grid.x, field.values):
            writer.writerow([_fmt(x), _fmt(v)])


def save_json(payload: dict, path) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=1, allow_nan=False)


def dump_trajectory(psis: np.ndarray, potential: ScalarField,
                    constants: PhysicalConstants, dt: float, out_dir) -> Path:
    """Write ``psis``, the (steps + 1, n) complex array of psi at every step
    0..steps of a flow of step ``dt`` under ``potential``, as ``psi.npy``
    plus a manifest; returns the directory."""
    grid = potential.grid
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    np.save(out / "psi.npy", psis)
    manifest = {
        "schema": 2,
        "dt": dt,
        "steps": len(psis) - 1,
        "constants": asdict(constants),
        "grid": asdict(grid),
        "V": [float(v) for v in potential.values],
    }
    save_json(manifest, out / "manifest.json")
    return out


def save_sweep_csv(table: SweepTable, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["lambda", "I", "meanA", "Lambda", "alpha_norm", "status"])
        rows = [
            (r.lam, _fmt(r.I), _fmt(r.meanA), _fmt(r.Lambda_pot), _fmt(r.alpha_norm), "ok")
            for r in table.records
        ] + [(lam, "", "", "", "", err) for lam, err in table.failures]
        for row in sorted(rows, key=lambda r: float(r[0])):
            writer.writerow([_fmt(float(row[0]))] + list(row[1:]))
