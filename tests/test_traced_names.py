"""The benchmark's tracer wraps the simulator's functions by name and
reads 0 for a name the program no longer has; every name it asks for
must exist, or a per-layer metric silently stops measuring."""

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_exists():
    tracer = load_tracer().Tracer()
    asked = []
    tracer._patch = lambda owner, attr, *args: asked.append((owner, attr))
    tracer.install()
    assert len(asked) == 20
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr in asked if getattr(owner, attr, None) is None]
    assert missing == []
