"""The traced benchmark wraps package functions by name, so each must exist.

``perfbench/spans.py`` is read as text, never imported or run: its SPANS
list is a literal of (owner, attribute, span name) triples.
"""

import ast
import importlib
from pathlib import Path

SPANS_FILE = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def declared_spans():
    """The SPANS literal of the benchmark's span table."""
    for node in ast.parse(SPANS_FILE.read_text()).body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "SPANS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no SPANS list in {SPANS_FILE.name}")


def test_every_traced_span_resolves_on_the_package():
    spans = declared_spans()
    assert ("exterior", "build_X", "exterior.build_X") in spans
    for owner, attr, _ in spans:
        module_name, _, class_name = owner.partition(".")
        holder = importlib.import_module(f"mtfloer.{module_name}")
        if class_name:
            holder = getattr(holder, class_name)
            # a method is swapped in the class's own namespace
            assert attr in vars(holder), (owner, attr)
        assert callable(getattr(holder, attr)), (owner, attr)
