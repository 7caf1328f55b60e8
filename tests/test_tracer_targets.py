"""The benchmark tracer wraps jetdiff functions by name: each name must resolve."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_tracer_target_is_a_jetdiff_callable():
    targets = load_tracer().TARGETS
    assert targets
    for name, (module, cls, attr) in targets.items():
        owner = importlib.import_module(f"jetdiff.{module}")
        if cls is not None:
            owner = getattr(owner, cls)
        assert callable(getattr(owner, attr, None)), name
