"""The benchmark's per-layer spans must keep finding mafkit's functions.

``bench/spans.py`` wraps each function named in its ``LAYERS`` table and
silently skips a name it cannot find, so a refactor that moves or renames
one would turn that layer's metrics into zeros. This reads the table as it
is and checks every entry against the package.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def test_bench_layers_resolve():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.LAYERS
    for name, (home, attrs) in spans.LAYERS.items():
        module = importlib.import_module(home)
        for attr in attrs:
            assert callable(getattr(module, attr, None)), f"{name}: no {home}.{attr}"
