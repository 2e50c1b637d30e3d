"""The names the benchmark's span tracer patches must exist.

``perfbench/spans.py`` replaces module attributes of the package by name
when a repetition is traced; a name deleted from the package would only
surface there, as a crash of ``perfbench/run.py --trace 1``.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_traced_name_resolves(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up by name
    monkeypatch.setitem(sys.modules, spec.name, spans)
    spec.loader.exec_module(spans)
    wrapped = spans.WRAPPED
    assert wrapped
    for module, attr, span in wrapped:
        assert callable(getattr(importlib.import_module(module), attr, None)), \
            f"{module}.{attr} (span {span}) is gone"
