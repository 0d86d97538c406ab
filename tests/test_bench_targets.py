"""Every name the benchmark's span recorder wraps exists in the package.

``perfbench/spans.py`` wraps functions and methods by module and
qualified name when a traced benchmark run starts; a refactor that
deletes or renames one of them should fail here, not in the benchmark.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_targets():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


def test_every_wrapped_name_resolves():
    targets = load_targets()
    assert targets
    for _layer, modname, qual, _attrs in targets:
        obj = importlib.import_module(modname)
        *owners, name = qual.split(".")
        for owner in owners:
            obj = getattr(obj, owner)
        # Methods are wrapped through the class dict, not inherited.
        assert name in (vars(obj) if owners else dir(obj)), f"{modname}.{qual}"
        if name == "emit":
            # The access count is read from the second positional argument.
            params = list(inspect.signature(getattr(obj, name)).parameters)
            assert params[:3] == ["self", "kinds", "addrs"], f"{modname}.{qual}"
