"""The benchmark tracer's bindings still name callables of the package.

``bench/spans.py`` wraps each ``(module, attribute)`` of its ``TRACED``
table for a traced run (``bench/run.py --trace 1``).  A refactor that
renames or removes one of those attributes would break that run, so the
table is read here, without patching anything.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _traced():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACED


@pytest.mark.parametrize("module, attribute, span", _traced(), ids=lambda v: str(v))
def test_traced_binding_is_callable(module, attribute, span):
    assert callable(getattr(importlib.import_module(module), attribute, None)), (
        f"{module}.{attribute} (span {span}) is not a callable"
    )
