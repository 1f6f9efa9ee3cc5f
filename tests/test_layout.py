"""Names that code outside a module reads from it, checked where they live.

The benchmark's tracer wraps each ``(module, function)`` of
``perfbench/pb_trace.py``'s ``TARGETS`` by name, and the benchmark's
workloads read the scenario API through :mod:`toyfield.scenarios`.  A move
that breaks one fails here, not only in a traced benchmark run.
"""

import importlib
import importlib.util
import pkgutil
from pathlib import Path

import toyfield

PB_TRACE = Path(__file__).resolve().parents[1] / "perfbench" / "pb_trace.py"


def trace_targets() -> tuple:
    spec = importlib.util.spec_from_file_location("pb_trace_targets", PB_TRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


def all_modules() -> dict:
    return {info.name: importlib.import_module(f"toyfield.{info.name}")
            for info in pkgutil.iter_modules(toyfield.__path__)}


def test_every_traced_function_resolves_in_its_module():
    modules = all_modules()
    targets = trace_targets()
    assert targets
    missing = [f"{module}.{name}" for module, name in targets
               if not callable(getattr(modules.get(module), name, None))]
    assert missing == []


def test_the_scenario_api_resolves_through_the_catalogue():
    modules = all_modules()
    scenarios, circuits = modules["scenarios"], modules["circuits"]
    assert callable(scenarios.scenario_by_name)
    # one object at both sites, so a wrapper put on one is the other's too
    for name in ("run_scenario", "Scenario", "OutcomeDistribution"):
        assert getattr(scenarios, name) is getattr(circuits, name), name


def test_every_name_in_every_module_all_exists():
    modules = {"toyfield": toyfield, **{f"toyfield.{name}": module
                                        for name, module in all_modules().items()}}
    missing = [f"{name}.{item}" for name, module in modules.items()
               for item in getattr(module, "__all__", ()) if not hasattr(module, item)]
    assert missing == []
