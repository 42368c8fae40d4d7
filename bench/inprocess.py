"""Run a workload's operations in one process through ``fisherqp.cli.main``.

    python bench/inprocess.py PLAN RESULT [--trace SPANS]

PLAN is a JSON file with the expected package directory and a list of
operations, each an argv for ``fisherqp.cli.main``.  RESULT receives the
import time, the wall time of the whole batch and each operation's exit
code.  With ``--trace`` the public functions of every layer module are
wrapped before the batch runs; each call records a span (name, start, end,
parent, operation) in memory, the spans are written to SPANS at the end,
and the per-layer metrics derived from them go into RESULT.

Wrapping is by discovery, not by a fixed list, so functions that a later
change renames or deletes are simply not wrapped.  The few names that
derived metrics depend on are listed in ``NAMED`` and reported as absent
when missing; nothing here fails because of it.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import json
import os
import sys
import time
import traceback
from pathlib import Path

LAYERS = ("grid", "states", "functionals", "propagator", "extremizers",
          "legendre", "thermal", "reports", "serialization", "cli")

# names that derived per-layer metrics read; missing ones are reported absent
NAMED = {
    "evolve": ("propagator.evolve",),
    "stepping": ("propagator.propagate_wavefunction",),
    "dyn_checks": ("propagator.continuity_residual", "propagator.hj_residual",
                   "propagator.entropy_rate_check"),
    "epi": ("extremizers.epi_solve",),
    "maxent": ("extremizers.maxent_solve",),
    "epi_checks": ("extremizers.stationarity_residual", "extremizers.riccati_check",
                   "extremizers.epi_quantum_potential_check"),
    "sweep": ("legendre.sweep",),
    "verify": ("legendre.verify_euler", "legendre.verify_legendre"),
    "diffuse": ("thermal.fick_diffuse", "thermal.heat_equation_evolve"),
    "coherence": ("thermal.coherence_suite",),
}


def computed_bytes(obj) -> int:
    """Bytes of every distinct array reachable through dataclass fields and
    containers.  Computed from array sizes, not measured."""
    seen: set = set()
    total = 0
    stack = [obj]
    while stack:
        item = stack.pop()
        if id(item) in seen:
            continue
        seen.add(id(item))
        if hasattr(item, "nbytes") and hasattr(item, "dtype"):
            total += int(item.nbytes)
        elif isinstance(item, (list, tuple)):
            stack.extend(item)
        elif isinstance(item, dict):
            stack.extend(item.values())
        elif dataclasses.is_dataclass(item) and not isinstance(item, type):
            stack.extend(getattr(item, f.name) for f in dataclasses.fields(item))
    return total


def _steps(result) -> int:
    """Time steps in a trajectory-like result (snapshots minus one)."""
    times = getattr(result, "times", None)
    return (len(times) if times is not None else len(result)) - 1


class Tracer:
    """Spans and counters for one traced batch, kept in memory."""

    def __init__(self):
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.spans: list = []        # [name_id, start, end, parent, op]
        self.stack: list[int] = []
        self.op = -1
        self.counters: dict[str, float] = {}
        self.paths: set[str] = set()
        self.hook_errors: list[str] = []
        self.wrapped: set[str] = set()

    # -- recording ---------------------------------------------------------

    def span(self, name: str, fn, args, kwargs, hook=None):
        name_id = self.name_ids.get(name)
        if name_id is None:
            name_id = self.name_ids[name] = len(self.names)
            self.names.append(name)
        index = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        record = [name_id, 0.0, 0.0, parent, self.op]
        self.spans.append(record)
        self.stack.append(index)
        record[1] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            record[2] = time.perf_counter()
            self.stack.pop()
        if hook is not None:
            try:
                hook(self, args, kwargs, result)
            except Exception as exc:  # a counter must never break the run
                self.hook_errors.append(f"{name}: {type(exc).__name__}: {exc}")
        return result

    def add(self, key: str, value: float) -> None:
        self.counters[key] = self.counters.get(key, 0) + value

    def peak(self, key: str, value: float) -> None:
        self.counters[key] = max(self.counters.get(key, 0), value)

    # -- installing wrappers ----------------------------------------------

    def wrap(self, fn, name: str, hook=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return tracer.span(name, fn, args, kwargs, hook)

        self.wrapped.add(name)
        return wrapper

    def install(self) -> None:
        """Wrap every public function and method of each layer module, and
        rebind the wrappers wherever a module imported the originals."""
        replaced: dict[int, object] = {}
        for layer in LAYERS:
            module = importlib.import_module(f"fisherqp.{layer}")
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    name = f"{layer}.{attr}"
                    replaced[id(obj)] = self.wrap(obj, name, _hook_for(name))
                elif inspect.isclass(obj):
                    for meth, fn in list(vars(obj).items()):
                        if not meth.startswith("_") and inspect.isfunction(fn):
                            setattr(obj, meth, self.wrap(fn, f"{layer}.{attr}.{meth}"))
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "fisherqp" or mod_name.startswith("fisherqp.")):
                continue
            for attr, obj in list(vars(module).items()):
                if id(obj) in replaced and inspect.isfunction(obj):
                    setattr(module, attr, replaced[id(obj)])

    # -- metrics -----------------------------------------------------------

    def seconds(self, names) -> float:
        """Time inside calls to any of ``names``, counting nested calls once."""
        ids = {self.name_ids[n] for n in names if n in self.name_ids}
        total = 0.0
        for name_id, start, end, parent, _ in self.spans:
            if name_id in ids and not self._inside(parent, ids):
                total += end - start
        return total

    def _inside(self, index: int, ids: set) -> bool:
        while index >= 0:
            if self.spans[index][0] in ids:
                return True
            index = self.spans[index][3]
        return False

    def layer_totals(self) -> tuple[dict, dict]:
        """Per-layer self time (span minus its child spans) and call count."""
        child_time = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        self_s = {layer: 0.0 for layer in LAYERS}
        calls = {layer: 0 for layer in LAYERS}
        for k, (name_id, start, end, _, _) in enumerate(self.spans):
            layer = self.names[name_id].split(".", 1)[0]
            self_s[layer] += (end - start) - child_time[k]
            calls[layer] += 1
        return self_s, calls

    def metrics(self) -> tuple[dict, list]:
        self_s, calls = self.layer_totals()
        absent = sorted(n for names in NAMED.values() for n in names if n not in self.wrapped)

        def seconds(key):
            return self.seconds(NAMED[key])

        def per(total, count, scale):
            return total * scale / count if count else 0.0

        c = self.counters
        steps = c.get("propagator.steps", 0)
        solves = c.get("extremizers.solves", 0)
        step_s = seconds("stepping")
        stepping_wrapped = all(n in self.wrapped for n in NAMED["stepping"])
        split_s = seconds("evolve") - step_s if stepping_wrapped else 0.0
        m = {}
        for layer in LAYERS:
            m[f"{layer}.calls"] = (calls[layer], "count")
            m[f"{layer}.self_s"] = (self_s[layer], "s")
        m.update({
            "propagator.steps": (steps, "count"),
            "propagator.step_us": (per(step_s, steps, 1e6), "us"),
            "propagator.split_us": (per(split_s, steps + 1 if steps else 0, 1e6), "us"),
            "propagator.checks_ms": (seconds("dyn_checks") * 1e3, "ms"),
            "propagator.snapshot_bytes": (c.get("propagator.snapshot_bytes", 0), "B-computed"),
            "extremizers.solves": (solves, "count"),
            "extremizers.solve_ms": (per(seconds("epi"), solves, 1e3), "ms"),
            "extremizers.maxent_ms": (seconds("maxent") * 1e3, "ms"),
            "extremizers.residual_ms": (seconds("epi_checks") * 1e3, "ms"),
            "legendre.points": (c.get("legendre.points", 0), "count"),
            "legendre.failed_points": (c.get("legendre.failed_points", 0), "count"),
            "legendre.verify_ms": (seconds("verify") * 1e3, "ms"),
            "thermal.steps": (c.get("thermal.steps", 0), "count"),
            "thermal.step_us": (per(seconds("diffuse"), c.get("thermal.steps", 0), 1e6), "us"),
            "thermal.coherence_ms": (seconds("coherence") * 1e3, "ms"),
            "thermal.snapshot_bytes": (c.get("thermal.snapshot_bytes", 0), "B-computed"),
            "serialization.write_ms": (self.seconds(
                [n for n in self.names if n.startswith("serialization.")]) * 1e3, "ms"),
            "trace.spans": (len(self.spans), "count"),
            "trace.absent": (len(absent), "count"),
        })
        return m, absent


# result hooks: counters read off return values at the layer boundary

def _evolve_hook(tracer, args, kwargs, result):
    tracer.add("propagator.steps", _steps(result))
    tracer.peak("propagator.snapshot_bytes", computed_bytes(result))


def _diffuse_hook(tracer, args, kwargs, result):
    tracer.add("thermal.steps", _steps(result))
    tracer.peak("thermal.snapshot_bytes", computed_bytes(result))


def _sweep_hook(tracer, args, kwargs, result):
    failed = len(result.failures)
    tracer.add("legendre.points", len(result.records) + failed)
    tracer.add("legendre.failed_points", failed)


def _epi_hook(tracer, args, kwargs, result):
    tracer.add("extremizers.solves", 1)


def _paths_hook(tracer, args, kwargs, result):
    """Remember every path a serialization function was handed or returned."""
    for value in (*args, *kwargs.values(), result):
        if isinstance(value, (str, os.PathLike)):
            tracer.paths.add(os.fspath(value))


def _hook_for(name: str):
    if name in NAMED["evolve"]:
        return _evolve_hook
    if name in NAMED["diffuse"]:
        return _diffuse_hook
    if name in NAMED["sweep"]:
        return _sweep_hook
    if name in NAMED["epi"]:
        return _epi_hook
    if name.startswith("serialization."):
        return _paths_hook
    return None


def written_files(paths) -> tuple[int, int]:
    """Files and bytes under the given paths (files, or directories walked)."""
    files: dict[str, int] = {}
    for path in paths:
        p = Path(path)
        if p.is_file():
            files[str(p.resolve())] = p.stat().st_size
        elif p.is_dir():
            for f in p.rglob("*"):
                if f.is_file():
                    files[str(f.resolve())] = f.stat().st_size
    return len(files), sum(files.values())


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    plan_path, result_path = argv[0], argv[1]
    spans_path = argv[3] if len(argv) > 3 and argv[2] == "--trace" else None
    with open(plan_path) as fh:
        plan = json.load(fh)

    start = time.perf_counter()
    import fisherqp
    import fisherqp.cli
    import_s = time.perf_counter() - start
    package_dir = Path(fisherqp.__file__).resolve().parent
    if package_dir != Path(plan["package_dir"]).resolve():
        print(f"fisherqp resolved to {package_dir}, not {plan['package_dir']}", file=sys.stderr)
        return 2

    tracer = Tracer() if spans_path else None
    if tracer:
        tracer.install()
    main_fn = fisherqp.cli.main   # the wrapped one when tracing
    exit_codes = []
    start = time.perf_counter()
    for index, op in enumerate(plan["operations"]):
        if tracer:
            tracer.op = index
        try:
            code = main_fn(op["argv"])
        except SystemExit as exc:   # argparse refusing the argv
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:   # what would end a CLI process with exit code 1
            traceback.print_exc()
            code = 1
        exit_codes.append(code)
    batch_wall = time.perf_counter() - start

    result = {"import_s": import_s, "wall_s": batch_wall, "exit_codes": exit_codes,
              "fisherqp_file": fisherqp.__file__}
    if tracer:
        metrics, absent = tracer.metrics()
        files, nbytes = written_files(tracer.paths)
        metrics["serialization.files_written"] = (files, "count")
        metrics["serialization.bytes_written"] = (nbytes, "B")
        result.update(metrics=metrics, absent=absent, hook_errors=tracer.hook_errors)
        with open(spans_path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op"],
                       "names": tracer.names, "spans": tracer.spans}, fh)
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
