"""The benchmark tracer (perfbench/tracing.py) wraps forge functions and
methods by name. Installing it here fails fast when one of those names is
deleted or renamed."""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_on_every_name_and_uninstalls():
    tracer = load_tracing().Tracer()
    try:
        tracer.install()
        installed = list(tracer._installed)
        assert installed
        for owner, attr, original in installed:
            assert getattr(owner, attr) is not original
    finally:
        tracer.uninstall()
    for owner, attr, original in installed:
        assert getattr(owner, attr) is original
