"""The repository's tools: the benchmark's tracer names the package's layers
by module and function and looks them up at run time, so every name it
lists must exist and the Monte Carlo must run through the channel and the
final-stage layers; the scripts' fixed-seed output is pinned; the package's
modules import one another one way, at module top."""

import ast
import hashlib
import importlib
import importlib.util
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from kronnoma import BPSK, DetectionConfig, FactorChain, build_chain, detect_batch, find_combiners, run_monte_carlo

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "kronnoma"
TRACER = ROOT / "bench" / "tracer.py"
ORACLE_AGREEMENT = ROOT / "scripts" / "oracle_agreement.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_tracer_layers_resolve():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.LAYERS
    for mod, fn in tracer.LAYERS:
        module = importlib.import_module(f"{tracer.PACKAGE}.{mod}")
        assert callable(getattr(module, fn, None)), f"{tracer.PACKAGE}.{mod}.{fn} is gone"


def test_rate_is_one_function_under_every_name():
    # the tracer wraps `rate.sum_rate_recursive` together with the names
    # that `from .rate import` binds in combiner and cli; a local copy or a
    # wrapper under either name would escape that layer
    from kronnoma import cli, combiner, rate

    assert combiner.sum_rate_recursive is rate.sum_rate_recursive
    assert cli.sum_rate_recursive is rate.sum_rate_recursive


def _load_oracle_agreement():
    spec = importlib.util.spec_from_file_location("oracle_agreement", ORACLE_AGREEMENT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def test_oracle_agreement_output_pinned(capsys):
    # the paired recursive-vs-MAP table of the r = 1 chain at the default
    # seed, byte for byte
    script = _load_oracle_agreement()
    assert script.main(["--trials", "200"]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == "bcd4051ffddf9291834bcb4b7d3d86d6d4fc28728273fbec10636dd994cf55dc"


@pytest.mark.parametrize("argv, message", [
    (["--trials", "0"], "trial count must be at least 1"),
    (["--trials", "-1"], "trial count must be at least 1"),
    (["--snr-db", "0,x"], "could not convert string to float: 'x'"),
    (["--snr-db="], "SNR grid must be nonempty"),
    (["--snr-db", ","], "SNR grid must be nonempty"),
    (["--snr-db", "5,0"], "SNR grid must be strictly ascending"),
    (["--snr-db", "0,nan"], "SNR values must be finite"),
    (["--snr-db=4000"], "an SNR of 4000 dB exceeds the float range"),
    (["--seed", "-1"], "seed must fit in 64 bits"),
])
def test_oracle_agreement_refuses_bad_arguments(argv, message, capsys):
    # refused as `kronnoma simulate` refuses them: exit 2, one line, no table
    assert _load_oracle_agreement().main(["--trials", "2", *argv]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: {message}\n"


def test_oracle_agreement_takes_negative_points(capsys):
    # `--snr-db -3,0` reads as a value, as in the CLI
    assert _load_oracle_agreement().main(["--trials", "2", "--snr-db", "-3,0"]) == 0
    assert capsys.readouterr().out.splitlines()[1].split()[0] == "-3.0"


def test_oracle_agreement_usage_error_exit_2(capsys):
    # the script reads its flags through the CLI's option parser
    assert _load_oracle_agreement().main(["--trials", "x"]) == 2
    assert capsys.readouterr() == ("", "error: argument --trials: invalid int value: 'x'\n")


def test_tracer_books_the_final_stages(F12, P3):
    # the Monte Carlo forms its received values through synthesize_rx and
    # the kernel calls its final MAP and its cancellation through the
    # module's names, so a traced Monte Carlo run books all three layers
    tracer = _load_tracer()
    chain = FactorChain(F12, P3, 2)
    design = find_combiners(P3)
    summaries = {}
    for sic in (False, True):
        cfg = DetectionConfig(chain, design, BPSK, sic=sic)
        t = tracer.Tracer()
        t.install()
        try:
            run_monte_carlo(cfg, [1.0, 2.0], 8, seed=5)
        finally:
            t.uninstall()
        summaries[sic] = tracer.layer_summary(t.spans)
    for sic in (False, True):
        assert summaries[sic]["simkit.synthesize_rx.calls"] >= 1
    assert summaries[False]["detector.final_stage_map.calls"] >= 1
    assert summaries[True]["detector.final_stage_map.calls"] >= 1
    assert summaries[True]["detector.sic_enhanced_final.calls"] >= 1


def test_detect_batch_retains_only_its_result(F12, P3):
    # 300 trials of the 27x54 chain: the decided symbols (0.12 MiB) are
    # kept, the cascade outputs and the final-stage arrays are not
    chain = FactorChain(F12, P3, 3)
    cfg = DetectionConfig(chain, find_combiners(P3), BPSK)
    rng = np.random.default_rng(3)
    Y = rng.choice([-1.0, 1.0], size=(300, chain.K)) @ build_chain(chain).entries.T
    Y += rng.standard_normal(Y.shape)
    detect_batch(Y[:1], cfg)  # builds the configuration's plan
    tracemalloc.start()
    try:
        batch = detect_batch(Y, cfg)
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert batch.symbols.shape == (300, chain.K)
    assert retained <= 0.15 * 2**20


def test_imports_sit_at_module_top():
    # detector does not import simkit, so no module defers an import into a
    # function body or behind `if TYPE_CHECKING:` to break a cycle
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        top = {id(node) for node in tree.body}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if id(node) not in top:
                found.append(f"{path.name}:{node.lineno} imports below the module top")
            if any(alias.name == "TYPE_CHECKING" for alias in node.names):
                found.append(f"{path.name}:{node.lineno} imports TYPE_CHECKING")
    assert found == []


def test_cli_import_loads_no_argparse():
    # argparse and the gettext it pulls in cost every CLI process some
    # milliseconds to import and first use; the CLI parses its own table
    code = "import sys, kronnoma.cli; print(sorted({'argparse', 'gettext'} & set(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert proc.stdout == "[]\n"
