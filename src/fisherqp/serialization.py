"""File formats: field CSV, JSON, trajectory dumps, sweep CSV.

* ScalarField CSV: header ``x,value``, one row per grid point, floats
  written with 17 significant digits (lossless for float64).
* JSON: keys sorted, one-space indent, so equal payloads write equal
  bytes; strict RFC 8259, so a NaN or an infinity is refused, never
  written.
* Trajectory dump: one ``x,P,S`` CSV per step plus ``manifest.json``
  (schema 1) carrying dt, steps, the constants, the grid and the
  potential.  P is the normalized |psi|^2 and S the Madelung phase read
  off psi (``phase_on_support``); the dump is the only place S is formed.
  S is anchored to 0 at step 0's density peak, then step to step.
* Sweep CSV: ``lambda,I,meanA,Lambda,alpha_norm,status``; failed rows
  keep their multiplier and error name with empty value columns.
"""

from __future__ import annotations

import csv
import json
from dataclasses import asdict
from pathlib import Path
from typing import Sequence

import numpy as np

from .grid import ScalarField
from .legendre import SweepTable
from .propagator import psi_density
from .states import Density, PhysicalConstants


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


def phase_on_support(psi: np.ndarray, density: Density, reference: np.ndarray) -> np.ndarray:
    """arg(psi) in radians, unwrapped along x over the support mask of
    ``density`` and extended constantly off it.

    The global constant is fixed by shifting by the multiple of 2 pi that
    brings arg(psi) at the density peak closest to ``reference`` (a phase
    field in radians) there.  Against the previous step's phase this
    aligns successive steps of a trajectory in time, provided one step
    turns the phase at the peak by less than pi.
    """
    idx = np.flatnonzero(density.support_mask)
    theta = np.unwrap(np.angle(psi[idx]))
    peak = int(np.argmax(density.values[idx]))
    theta += 2.0 * np.pi * np.round((reference[idx[peak]] - theta[peak]) / (2.0 * np.pi))
    out = np.empty(len(psi))
    out[idx] = theta
    out[: idx[0]] = theta[0]
    out[idx[-1] + 1 :] = theta[-1]
    return out


def dump_trajectory(psis: Sequence[np.ndarray], potential: ScalarField,
                    constants: PhysicalConstants, dt: float, out_dir) -> Path:
    """Write one ``x,P,S`` CSV per step of ``psis``, psi at every step
    0..steps of a flow of step ``dt`` under ``potential``, plus a manifest;
    returns the directory.

    Each step's S is aligned against the previous step's S at its own
    density peak, and step 0 against 0, so step 0's S at its density peak
    lies in (-pi hbar, pi hbar].
    """
    grid = potential.grid
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    xs = [_fmt(x) for x in grid.x.tolist()]
    theta = np.zeros(grid.n)
    for k, psi in enumerate(psis):
        density = psi_density(psi, grid)
        theta = phase_on_support(psi, density, theta)
        with open(out / f"step_{k:05d}.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["x", "P", "S"])
            writer.writerows(zip(xs, map(_fmt, density.values.tolist()),
                                 map(_fmt, (constants.hbar * theta).tolist())))
    manifest = {
        "schema": 1,
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
