"""The benchmark's span tracer (perfbench/spans.py) patches kronlm functions
and Tape methods by name. This checks that every name it patches exists and
that uninstall puts each original back, and runs a traced generation, so a
rename or a changed signature breaks this suite and not only a traced
benchmark run."""

import importlib.util
from pathlib import Path

import numpy as np

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


def test_traced_greedy_generate_counts_only_full_window_passes(small_teacher):
    # the tracer replaces TinyGPTModel.forward with a (model, tokens) wrapper,
    # so a call of forward with a second argument fails every traced generation
    spans = load_spans()
    tracer = spans.Tracer("t")
    prompt = np.array([1, 2, 3, 4, 5])
    try:
        tracer.install()
        out = small_teacher.greedy_generate(prompt, 4)
    finally:
        tracer.uninstall()
    assert len(out) == 9
    assert tracer.counts["generate.window_tokens"] == len(prompt)
    assert tracer.counts["generate.tokens"] == 4
