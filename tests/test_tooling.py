"""The repository's tools: the benchmark's tracer names the package's layers
by module and function and looks them up at run time, so every name it
lists must exist; the scripts' fixed-seed output is pinned."""

import hashlib
import importlib
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "bench" / "tracer.py"
ORACLE_AGREEMENT = ROOT / "scripts" / "oracle_agreement.py"


def test_tracer_layers_resolve():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.LAYERS
    for mod, fn in tracer.LAYERS:
        module = importlib.import_module(f"{tracer.PACKAGE}.{mod}")
        assert callable(getattr(module, fn, None)), f"{tracer.PACKAGE}.{mod}.{fn} is gone"


def test_oracle_agreement_output_pinned(capsys):
    # the paired recursive-vs-MAP table of the r = 1 chain at the default
    # seed, byte for byte
    spec = importlib.util.spec_from_file_location("oracle_agreement", ORACLE_AGREEMENT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    assert script.main(["--trials", "200"]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == "bcd4051ffddf9291834bcb4b7d3d86d6d4fc28728273fbec10636dd994cf55dc"
