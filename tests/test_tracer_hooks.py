"""The benchmark's span tracer (perfbench/spans.py) patches kronlm functions
and Tape methods by name. This checks that every name it patches exists and
that uninstall puts each original back, so a rename breaks this suite and
not only a traced benchmark run."""

import importlib.util
from pathlib import Path

from kronlm.autodiff import Tape

SPANS_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_tracer_patches_existing_names_and_restores_them():
    spans = load_spans()
    for method in spans.TAPE_OP_KINDS:
        assert callable(vars(Tape).get(method)), f"Tape.{method} is not a Tape method"
    tracer = spans.Tracer("t")
    try:
        tracer.install()
        patches = list(tracer._patches)  # (owner, attr, original)
        assert patches
        for owner, attr, original in patches:
            assert getattr(owner, attr) is not original, (owner, attr)
    finally:
        tracer.uninstall()
    for owner, attr, original in patches:
        assert getattr(owner, attr) is original, (owner, attr)
