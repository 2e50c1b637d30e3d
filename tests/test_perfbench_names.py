"""The names and call shapes the benchmark relies on must exist.

``perfbench/spans.py`` replaces module attributes of the package by name
when a repetition is traced; a name deleted from the package would only
surface there, as a crash of ``perfbench/run.py --trace 1``.  Likewise
``perfbench/workloads.py`` calls the public entry points positionally; a
changed signature would only surface as a crash of ``perfbench/run.py``.
"""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SPANS = ROOT / "perfbench" / "spans.py"


def _load(monkeypatch, path, name):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up by name, and workloads.py imports
    # check.py by its bare name
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves(monkeypatch):
    spans = _load(monkeypatch, SPANS, "perfbench_spans")
    wrapped = spans.WRAPPED
    assert wrapped
    for module, attr, span in wrapped:
        assert callable(getattr(importlib.import_module(module), attr, None)), \
            f"{module}.{attr} (span {span}) is gone"


def test_every_workload_call_binds(monkeypatch, tmp_path):
    # each entry point a workload calls is replaced by a stub that only
    # binds the arguments to the real signature, so nothing heavy runs;
    # the argv given to the CLI must also parse
    from slnoise import cli, ensemble

    calls = []

    def binding(module, attr, result=None):
        real = getattr(module, attr)

        def stub(*args, **kwargs):
            calls.append((attr, inspect.signature(real).bind(*args, **kwargs)))
            return result

        monkeypatch.setattr(module, attr, stub)

    binding(ensemble, "run_ensemble")
    binding(ensemble, "scan_lambda")
    binding(cli, "main", result=0)
    _load(monkeypatch, ROOT / "perfbench" / "check.py", "check")
    workloads = _load(monkeypatch, ROOT / "perfbench" / "workloads.py",
                      "perfbench_workloads")
    assert set(workloads.WORKLOADS) == {"long_window", "scheme_comparison",
                                        "lambda_scan"}
    for workload in workloads.WORKLOADS.values():
        workload.run(0, ROOT, tmp_path)
    assert [attr for attr, _ in calls] == ["run_ensemble", "main", "scan_lambda"]
    cli._build_parser().parse_args(calls[1][1].arguments["argv"])
