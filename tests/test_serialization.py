import json

import numpy as np

from fisherqp import (
    Grid,
    PhysicalConstants,
    ScalarField,
    evolve,
    sweep,
)
from fisherqp import serialization as ser

from conftest import gaussian_density, madelung_psi

C = PhysicalConstants()


def test_field_csv_roundtrip(tmp_path):
    g = Grid(-8.0, 8.0, 513)
    rng = np.random.default_rng(5)
    f = ScalarField(g, rng.normal(size=g.n))
    path = tmp_path / "field.csv"
    ser.save_field_csv(f, path)
    back = np.loadtxt(path, delimiter=",", skiprows=1)
    assert np.array_equal(back[:, 0], g.x)
    assert np.array_equal(back[:, 1], f.values)  # 17 digits round-trips float64
    header = path.read_text().splitlines()[0]
    assert header == "x,value"


def test_trajectory_dump(tmp_path):
    g = Grid(-10.0, 10.0, 513)
    psis = []
    evolve(madelung_psi(gaussian_density(g)), g.zeros(), C, 1e-3, 8, 4,
           each=lambda k, psi: psis.append(psi.copy()))
    out = ser.dump_trajectory(psis, g.zeros(), C, 1e-3, tmp_path / "traj")
    csvs = sorted(out.glob("step_*.csv"))
    assert len(csvs) == 9
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["schema"] == 1
    assert manifest["steps"] == 8
    assert manifest["dt"] == 1e-3
    assert len(manifest["V"]) == g.n
    first = csvs[0].read_text().splitlines()
    assert first[0] == "x,P,S"
    assert len(first) == g.n + 1


def test_sweep_csv(tmp_path):
    g = Grid(-8.0, 8.0, 2049)
    table = sweep(g.from_function(lambda x: x * x), [-1.0, -4.0, 4.0], g)
    path = tmp_path / "sweep.csv"
    ser.save_sweep_csv(table, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "lambda,I,meanA,Lambda,alpha_norm,status"
    assert len(lines) == 4
    assert lines[-1].startswith("4") and lines[-1].endswith("EdgeLocalized")
    ok_rows = [ln for ln in lines[1:] if ln.endswith(",ok")]
    assert len(ok_rows) == 2
