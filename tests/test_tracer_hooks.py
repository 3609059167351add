"""The benchmark's tracer replaces package attributes by name; each must exist.

A clean-up that drops an import no package code calls (the strategy
factories in ``cli``, say) would make every traced benchmark batch fail
while the rest of this suite stays green.
"""
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def test_every_traced_attribute_is_callable():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    hooks = [(module, attr) for module, attr, _span in tracer.ENTRY_POINTS + tracer.FACTORIES]
    assert hooks
    missing = [f"{m.__name__}.{attr}" for m, attr in hooks if not callable(getattr(m, attr, None))]
    assert missing == []
