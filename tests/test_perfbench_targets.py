"""The functions perfbench's tracer wraps still exist under the names it uses,
and the program still has the shapes perfbench reads.

A renamed target leaves its span empty and zeroes a required count, which
otherwise shows only in a traced benchmark run. perfbench/ is read, not changed.
"""

import importlib
import inspect
import os
import sys
from pathlib import Path

import pytest

from susyinv.cli import main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# Importing selftest imports perfbench's run and worker, which extend sys.path
# and pin BLAS threads in os.environ; both are put back.
saved_path, saved_environ = sys.path[:], dict(os.environ)
sys.path.insert(0, str(PERFBENCH))
try:
    tracing = importlib.import_module("tracing")
    selftest = importlib.import_module("selftest")
finally:
    sys.path[:] = saved_path
    os.environ.clear()
    os.environ.update(saved_environ)


@pytest.mark.parametrize("module, qualname", [
    target for targets in tracing.SPANS.values() for target in targets])
def test_span_target_resolves(module, qualname):
    owner = importlib.import_module(f"susyinv.{module}")
    for attr in qualname.split("."):
        owner = getattr(owner, attr)
    assert callable(owner)


def test_holonomy_takes_the_frame_first():
    # The tracer counts frames by wrapping the first positional argument.
    from susyinv.dynamics import berry_holonomy

    first = next(iter(inspect.signature(berry_holonomy).parameters.values()))
    assert first.name == "frame"
    assert first.kind is inspect.Parameter.POSITIONAL_OR_KEYWORD


def traced(argv: list[str]) -> dict:
    """perfbench's metrics of one in-process CLI call, which must exit 0."""
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert main(argv) == 0
    finally:
        tracer.uninstall()
    return tracer.metrics()


def test_traced_phase_reaches_every_wrapped_layer(tmp_path, config_dir):
    # phase under the tracer: the loop workload's counts that phase makes.
    text = (config_dir / "phase_loop.ini").read_text()
    cfg = tmp_path / "loop.ini"
    cfg.write_text(text.replace("steps = 2000", "steps = 20"))
    metrics = traced(["phase", "--config", str(cfg), "--out", str(tmp_path / "out")])
    for name in ("operators.polar_calls", "construction.gauge_value_calls",
                 "dynamics.holonomy_frames", "config.load_calls"):
        assert name in tracing.REQUIRED_COUNTS["loop_sweep"]
        assert metrics[name] > 0, name


@pytest.fixture(scope="module")
def verify_metrics(tmp_path_factory, config_dir):
    """One traced ``verify`` of spin_default.ini, shared by the spin_grid count checks."""
    out = tmp_path_factory.mktemp("verify")
    return traced(["verify", "--config", str(config_dir / "spin_default.ini"),
                   "--out", str(out)])


def assert_required(metrics: dict, name: str) -> None:
    assert name in tracing.REQUIRED_COUNTS["spin_grid"]
    assert metrics[name] > 0, name


def test_traced_verify_calls_polar_unitary(verify_metrics):
    # spin_grid's only polar calls come from pair_spectra, which every
    # command's prescription calls once; a closed form inlined there would
    # zero a required count.
    assert_required(verify_metrics, "operators.polar_calls")


def test_traced_verify_builds_operators(verify_metrics):
    # The tracer counts Operator.__post_init__; spin_grid requires that count.
    assert_required(verify_metrics, "operators.operator_inits")


def test_traced_verify_calls_time_functions(verify_metrics):
    # The tracer wraps TimeFunction.__call__ as found in the class's own dict.
    assert_required(verify_metrics, "timefunc.calls")


# spin_grid's counts that its verify call makes: u_minus is build's alone, and
# cli.bytes_written is measured by the worker, not the tracer.
@pytest.mark.parametrize("name", [
    n for n in tracing.REQUIRED_COUNTS["spin_grid"]
    if n not in ("construction.u_minus_calls", "cli.bytes_written")])
def test_traced_verify_makes_spin_grid_count(verify_metrics, name):
    assert_required(verify_metrics, name)


@pytest.fixture(scope="module")
def osc_verify_metrics(tmp_path_factory, config_dir):
    """One traced ``verify`` of oscillator_default.ini, in its parity sectors."""
    out = tmp_path_factory.mktemp("osc_verify")
    return traced(["verify", "--config", str(config_dir / "oscillator_default.ini"),
                   "--out", str(out)])


@pytest.mark.parametrize("name", tracing.REQUIRED_COUNTS["osc_verify"])
def test_traced_oscillator_verify_makes_osc_verify_count(osc_verify_metrics, name):
    # The closed form, selected by family at call time, must stay a call the
    # tracer sees: a reference to it held elsewhere would zero closed_form_calls.
    assert osc_verify_metrics[name] > 0, name


def test_selftest_generator_holds(tmp_path, monkeypatch):
    # check_generator reads out.h_minus(t).entries at scalar t, so a scalar
    # time must still give an Operator. It writes its configs under the cwd.
    monkeypatch.chdir(tmp_path)
    assert selftest.check_generator() == []
