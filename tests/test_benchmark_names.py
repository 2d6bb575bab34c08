"""Every function the benchmark times still exists under the name it looks up.

perfbench/stage_runner.py wraps fermisim functions by "module.function" name;
its stage spans add up to the benchmark's set-up and measure times.  A rename
in fermisim would silently drop that work from the spans, so each name must
resolve to a fermisim function or QuantumState method.  The runner is read as
source and executed in a fresh namespace, which writes nothing under
perfbench/.
"""

import importlib
import inspect
from pathlib import Path

import pytest

from fermisim.state import QuantumState

RUNNER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "stage_runner.py"


def _runner_names() -> dict:
    namespace = {"__name__": "stage_runner"}
    exec(compile(RUNNER_PATH.read_text(), str(RUNNER_PATH), "exec"), namespace)
    return namespace


RUNNER = _runner_names()


@pytest.mark.parametrize("name", sorted(set(RUNNER["STAGES"] + RUNNER["LAYERS"])))
def test_traced_name_resolves_to_fermisim_code(name):
    module_name, function = name.split(".")
    module = importlib.import_module(f"fermisim.{module_name}")
    if module_name == "state" and function in RUNNER["STATE_METHODS"]:
        target = QuantumState.__dict__.get(function)
    else:
        target = getattr(module, function, None)
    assert inspect.isfunction(target), f"{name} does not name a function"
    assert target.__module__.startswith("fermisim."), f"{name} resolves to {target.__module__}"
