"""Every callable the benchmark's tracer wraps still exists under `qfaulhaber`.

`perfbench/tracing.py` names its boundary targets and counted callables as
dotted paths below the package, and a traced benchmark run fails when one no
longer resolves.  This check reads that module's source with `ast` and
imports nothing from it (it imports the benchmark's workloads), so removing
or renaming a traced function fails here too.
"""
import ast
import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def traced_targets(source):
    """The dotted targets of BOUNDARIES and the keys of COUNTED."""
    targets = []
    for node in ast.parse(source).body:
        if not (isinstance(node, ast.Assign) and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)):
            continue
        if node.targets[0].id == "BOUNDARIES":
            for boundary in node.value.elts:
                targets += [ast.literal_eval(t) for t in boundary.args[1].elts]
        elif node.targets[0].id == "COUNTED":
            targets += [ast.literal_eval(key) for key in node.value.keys]
    return targets


def resolves(target):
    module_name, _, rest = target.partition(".")
    obj = importlib.import_module(f"qfaulhaber.{module_name}")
    for part in rest.split("."):
        obj = getattr(obj, part, None)
        if obj is None:
            return False
    return callable(obj)


def test_every_traced_target_resolves():
    targets = traced_targets(TRACING.read_text())
    assert {"laurent.LaurentPoly.__mul__", "lgv._pair_sum_with_steps",
            "lgv.paths_between", "cli._run_cases", "coeffs.interpolate_poly",
            "coeffs.invert_route_row", "coeffs.sample_points"} <= set(targets)
    assert [t for t in targets if not resolves(t)] == []


def test_guard_sees_a_missing_target():
    source = (
        'BOUNDARIES = (Boundary("a", ("lgv.paths_between", "lgv.gone"), ALL),)\n'
        'COUNTED = {"coeffs.sample_points": ALL, "cli.gone": ALL}\n'
    )
    targets = traced_targets(source)
    assert targets == ["lgv.paths_between", "lgv.gone", "coeffs.sample_points",
                       "cli.gone"]
    assert [t for t in targets if not resolves(t)] == ["lgv.gone", "cli.gone"]
