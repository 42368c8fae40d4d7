"""File formats: field CSV, trajectory dumps, sweep CSV.

* ScalarField CSV: header ``x,value``, one row per grid point, floats
  written with 17 significant digits (lossless for float64).
* Trajectory dump: one CSV per step plus ``manifest.json`` carrying dt,
  steps, the constants, the grid and the potential.
* Sweep CSV: ``lambda,I,meanA,Lambda,alpha_norm,status``; failed rows
  keep their multiplier and error name with empty value columns.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

from .grid import Grid, ScalarField
from .legendre import SweepTable
from .propagator import Trajectory
from .states import PhysicalConstants


def _fmt(v: float) -> str:
    return format(float(v), ".17g")


def save_field_csv(field: ScalarField, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "value"])
        for x, v in zip(field.grid.x, field.values):
            writer.writerow([_fmt(x), _fmt(v)])


def constants_to_dict(constants: PhysicalConstants) -> dict:
    return {
        "hbar": constants.hbar,
        "mass": constants.mass,
        "omega": constants.omega,
        "boltzmann_k": constants.boltzmann_k,
        "temperature": constants.temperature,
    }


def constants_from_dict(data: dict) -> PhysicalConstants:
    return PhysicalConstants(
        hbar=float(data.get("hbar", 1.0)),
        mass=float(data.get("mass", 1.0)),
        omega=float(data.get("omega", 1.0)),
        boltzmann_k=float(data.get("boltzmann_k", 1.0)),
        temperature=float(data.get("temperature", 1.0)),
    )


def grid_to_dict(grid: Grid) -> dict:
    return {"xmin": grid.xmin, "xmax": grid.xmax, "n": grid.n}


def grid_from_dict(data: dict) -> Grid:
    return Grid(xmin=float(data["xmin"]), xmax=float(data["xmax"]), n=int(data["n"]))


def dump_trajectory(traj: Trajectory, out_dir) -> Path:
    """Write one state CSV per kept step plus a manifest; returns the directory."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for k, state in zip(traj.kept, traj.states):
        with open(out / f"step_{k:05d}.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["x", "P", "S"])
            for x, p, s in zip(
                traj.grid.x, state.density.values, state.phase.values
            ):
                writer.writerow([_fmt(x), _fmt(p), _fmt(s)])
    manifest = {
        "schema": 1,
        "dt": traj.dt,
        "steps": len(traj) - 1,
        "constants": constants_to_dict(traj.constants),
        "grid": grid_to_dict(traj.grid),
        "V": [float(v) for v in traj.potential.values],
    }
    with open(out / "manifest.json", "w") as fh:
        json.dump(manifest, fh, sort_keys=True, indent=1)
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
