"""The benchmark's tracer finds zml functions by name.  A name it cannot
resolve is skipped at run time and its per-layer metric reads 0, so every
name must resolve here."""
import importlib.util
from pathlib import Path

from zml import cli, dirichlet, moments, sieve, zeros, zeta

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_every_traced_function_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    modules = {"cli": cli, "dirichlet": dirichlet, "moments": moments,
               "sieve": sieve, "zeros": zeros, "zeta": zeta}
    assert tracer.WRAPPED
    missing = [f"{mod}.{attr}" for mod, attr, _, _ in tracer.WRAPPED
               if not callable(getattr(modules[mod], attr, None))]
    assert missing == []
