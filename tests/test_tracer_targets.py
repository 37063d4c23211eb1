"""The benchmark tracer (`perfbench/tracer.py`) wraps library entry points by
name, so a renamed or deleted one would only fail a traced benchmark run.
"""

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def test_every_traced_entry_point_exists():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.TARGETS
    missing = [(getattr(owner, "__name__", owner), attr)
               for owner, attr, *_ in tracer.TARGETS if not callable(getattr(owner, attr, None))]
    assert not missing
