"""The benchmark's use of the package.

``perfbench/workloads.py`` and ``perfbench/tracing.py`` reach into ``p3wkb``
by name: solver and residual functions, ``EtaSeries.from_slots``, and the
Jet and chart methods the tracer wraps.  These tests import both files
read-only, so an API change that breaks the benchmark fails here without
running ``perfbench/selftest.py``.  Each module's ``__all__`` names its
public functions and classes, so star imports reach what the benchmark
imports by name."""

import importlib.util
import inspect
import pathlib
import sys
import types
from collections import defaultdict

import pytest

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


def _load(name: str):
    """perfbench/<name>.py as a module (the directory is not a package)."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module       # dataclasses look their module up here
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True   # no cache in perfbench/
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


@pytest.fixture(scope="module")
def workloads():
    return _load("workloads")


@pytest.mark.parametrize("index, family", [(0, "d6"), (1, "d7")])
def test_series_scalar_gate_accepts_the_solve_and_rejects_the_perturbed_one(workloads, index,
                                                                            family):
    series_scalar = workloads.SeriesScalar
    task = series_scalar.tasks(1, 4)[::3][index]
    assert (task.kind, task.args[2]) == (family, 4)
    out = series_scalar.run(task)
    assert series_scalar.check(task, out).ok
    assert not series_scalar.check(task, series_scalar.perturb(task, out)).ok


@pytest.mark.parametrize("index", range(14))
def test_borel_laplace_gate_accepts_the_sums_and_rejects_the_perturbed_one(workloads, index):
    # One round is one F and one G task per |Im z| / Re z band.
    borel_laplace = workloads.BorelLaplace
    task = borel_laplace.tasks(1, borel_laplace.round_size)[index]
    kind, z = task.args
    lo, hi = workloads.RATIO_BANDS[index // 2]
    assert kind == "FG"[index % 2] and lo <= abs(z.imag) / z.real <= hi
    out = borel_laplace.run(task)
    assert borel_laplace.check(task, out).ok
    assert not borel_laplace.check(task, borel_laplace.perturb(task, out)).ok


def test_traced_methods_exist_on_their_classes():
    tracing = _load("tracing")
    for module, cls, attr, _ in tracing.METHODS:
        owner = getattr(importlib.import_module(f"p3wkb.{module}"), cls)
        assert attr in owner.__dict__, f"{module}.{cls}.{attr}"


@pytest.mark.parametrize("module", ["algebra", "borel", "geometry", "numerics", "series",
                                    "voros", "walls"])
def test_all_names_the_public_functions_and_classes(module):
    mod = importlib.import_module(f"p3wkb.{module}")
    public = {name for name, obj in vars(mod).items()
              if not name.startswith("_") and (inspect.isfunction(obj) or inspect.isclass(obj))
              and obj.__module__ == mod.__name__}
    exported = {name for name in mod.__all__
                if inspect.isfunction(getattr(mod, name)) or inspect.isclass(getattr(mod, name))}
    assert exported == public


def test_oracle_hook_reads_the_diagnostics_the_oracle_writes():
    # The tracer's oracle hook reads diagnostic keys off every result; a key
    # the oracle stops writing must fail here, not vanish from the metrics.
    from p3wkb import voros
    tracing = _load("tracing")
    res = voros.voros_numeric_oracle(voros.EndpointSpec("d7", "zero_c", +1), 2 + 1j, n_max=2)
    tracer = types.SimpleNamespace(maxima=defaultdict(float))
    tracing.POST["voros.voros_numeric_oracle"](tracer, res)
    for key in ("leg_rel_err", "even_ratio"):
        assert tracer.maxima[f"voros.{key}"] == max(d[key] for d in res.diagnostics.values())
    assert tracer.maxima["voros.leg_rel_err"] > 0
