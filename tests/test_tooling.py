"""The benchmark's tracer names the package's layers by module and function
and looks them up at run time; every name it lists must exist."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def test_tracer_layers_resolve():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.LAYERS
    for mod, fn in tracer.LAYERS:
        module = importlib.import_module(f"{tracer.PACKAGE}.{mod}")
        assert callable(getattr(module, fn, None)), f"{tracer.PACKAGE}.{mod}.{fn} is gone"
