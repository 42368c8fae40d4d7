import json
from functools import partial

import numpy as np

from fisherqp import (
    Grid,
    PhysicalConstants,
    ScalarField,
    evolve,
    sweep,
)
from fisherqp import serialization as ser
from fisherqp.reports import IdentityCheck
from fisherqp.suites import evolve_suite

from conftest import every_step, gaussian_density, madelung_psi

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
    # a dumping evolve writes psi.npy and the manifest, nothing else, and
    # row k of psi.npy is the psi evolve passes to its reader at step k,
    # bit for bit
    g = Grid(-10.0, 10.0, 513)
    V = g.from_function(lambda x: 0.5 * x**2)
    psi0 = madelung_psi(gaussian_density(g), 2.0 * g.x)
    _, psis = every_step(partial(evolve, psi0, V, C, 1e-3, 8, 4))
    artifacts = [item for item in evolve_suite(psi0, V, C, 1e-3, 8, 4, dump=True)
                 if not isinstance(item, IdentityCheck)]
    assert [name for name, _ in artifacts] == ["trajectory"]
    name, write = artifacts[0]
    out = write(tmp_path / name)
    assert sorted(path.name for path in out.iterdir()) == ["manifest.json", "psi.npy"]
    dumped = np.load(out / "psi.npy", allow_pickle=False)
    assert dumped.shape == (9, g.n)
    assert dumped.dtype == np.complex128
    assert dumped.tobytes() == np.array(psis).tobytes()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["schema"] == 2
    assert manifest["steps"] == 8
    assert manifest["dt"] == 1e-3
    assert manifest["grid"] == {"xmin": -10.0, "xmax": 10.0, "n": 513}
    assert manifest["V"] == V.values.tolist()


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
