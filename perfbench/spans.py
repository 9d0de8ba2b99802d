"""Span tracer for the benchmark's traced run.

Spans are recorded from outside the program: ``install`` replaces public
functions and ``Tape`` methods of ``kronlm`` with timing wrappers, and wraps
the vjp closure each ``Tape`` op registers on the node it returns. Nothing
under ``src/`` changes; ``uninstall`` puts every original back.

A span is (name, start, end, parent); spans of one benchmark run share the
run id. They are kept in memory and written out once, when the run ends. A
span's self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import gzip
import json
import os
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager

# Tape method -> op kind reported as autodiff.fwd.<kind> / autodiff.bwd.<kind>
TAPE_OP_KINDS = {
    "linear": "linear",
    "kron_linear": "kron_linear",
    "gather_rows": "embed",
    "kron_embed": "embed",
    "attn_scores": "attn",
    "masked_softmax": "attn",
    "attn_mix": "attn",
    "layernorm": "layernorm",
    "gelu": "gelu",
    "mse": "loss",
    "cross_entropy": "loss",
    "attn_kl": "loss",
    "add": "arith",
    "add_n": "arith",
    "scale": "arith",
    "sum": "arith",
    "affine_combination": "arith",
    "matmul": "arith",
}
OP_KINDS = ("linear", "kron_linear", "embed", "attn", "layernorm", "gelu", "loss", "arith")


class Tracer:
    """In-memory span store with a stack of open spans."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        # one entry per span, in flat arrays: per-span Python objects would
        # make the garbage collector rescan every recorded span
        self.names = []  # span name table
        self._name_ids = {}
        self.name_id = array("i")
        self.start = array("q")
        self.end_ns = array("q")
        self.parent = array("q")  # index of the parent span, -1 for a root
        self.counts = defaultdict(float)
        self.tapes = []  # tapes created since the last take_node_count()
        self.on = True
        self._stack = []
        self._patches = []

    def begin(self, name: str) -> int:
        idx = len(self.start)
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end_ns.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def end(self, idx: int) -> None:
        self.end_ns[idx] = time.perf_counter_ns()
        self._stack.pop()

    def parent_name(self) -> str | None:
        return self.names[self.name_id[self._stack[-1]]] if self._stack else None

    @contextmanager
    def paused(self):
        """Record nothing inside the block (used around output checks)."""
        self.on = False
        try:
            yield
        finally:
            self.on = True

    def take_node_count(self) -> int:
        n = sum(len(t.nodes) for t in self.tapes)
        self.tapes.clear()
        return n

    # ---- patching ----------------------------------------------------------

    def wrap(self, name, fn, after=None):
        def traced(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            idx = self.begin(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.end(idx)
            if after is not None:
                after(args, out)
            return out

        return traced

    def patch(self, owner, attr, name, after=None):
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, after))

    def _patch_tape_op(self, tape_cls, method, kind, after=None):
        original = getattr(tape_cls, method)
        fwd_name, bwd_name = f"autodiff.fwd.{kind}", f"autodiff.bwd.{kind}"

        def traced(*args, **kwargs):
            if not self.on:
                return original(*args, **kwargs)
            idx = self.begin(fwd_name)
            try:
                node = original(*args, **kwargs)
            finally:
                self.end(idx)
            if after is not None:
                after(args, node)
            vjp = node._vjp
            if vjp is not None:
                def timed_vjp(upstream):
                    j = self.begin(bwd_name)
                    try:
                        return vjp(upstream)
                    finally:
                        self.end(j)

                node._vjp = timed_vjp
            return node

        self._patches.append((tape_cls, method, original))
        setattr(tape_cls, method, traced)

    @contextmanager
    def installed(self):
        """Trace every kronlm layer boundary inside the block."""
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def install(self):
        """Wrap the layer boundaries of every kronlm module."""
        import kronlm.archive as archive
        import kronlm.autodiff as autodiff
        import kronlm.cli as cli
        import kronlm.corpus as corpus
        import kronlm.distill as distill
        import kronlm.kronecker as kronecker
        import kronlm.layers as layers
        import kronlm.model as model

        counts = self.counts

        def linear_done(args, out):  # args: tape, x, w[, bias]
            w = args[2].value
            counts["linear.flop"] += kronecker.dense_matmul_flops(args[1].value.shape[0], *w.shape)

        tape_cls = autodiff.Tape
        for method, kind in TAPE_OP_KINDS.items():
            self._patch_tape_op(tape_cls, method, kind, linear_done if method == "linear" else None)
        tape_init = tape_cls.__init__

        def init(tape, *args, **kwargs):
            tape_init(tape, *args, **kwargs)
            if self.on:
                self.tapes.append(tape)

        self._patches.append((tape_cls, "__init__", tape_init))
        tape_cls.__init__ = init

        def kron_matmul_done(args, out):
            pair, x = args[0], args[1]
            m1, n1 = pair.a.shape
            m2, n2 = pair.b.shape
            counts["kron_matmul.calls"] += 1
            counts["kron_matmul.flop"] += kronecker.kron_matmul_flops(x.shape[0], m1, n1, m2, n2)

        def nearest_kron_done(args, out):
            counts["nearest_kron.iters"] += out[1].power_iterations_used

        def forward_done(args, out):
            counts["forward.calls"] += 1

        def generate_done(args, out):
            counts["generate.tokens"] += len(out) - len(args[1])

        def write_done(args, out):
            counts["archive.write.bytes"] += os.path.getsize(args[0])

        def read_done(args, out):
            counts["archive.read.bytes"] += os.path.getsize(args[0])

        # autodiff: graph traversal outside the vjps
        self.patch(distill, "backward", "autodiff.backward")
        # kronecker: kernels as called from the tape, solver as called by compression
        self.patch(autodiff, "kron_matmul", "kronecker.kron_matmul", kron_matmul_done)
        self.patch(autodiff, "kron_matmul_grads", "kronecker.kron_matmul_grads")
        self.patch(model, "nearest_kron", "kronecker.nearest_kron", nearest_kron_done)
        self.patch(layers, "nearest_kron", "kronecker.nearest_kron", nearest_kron_done)
        # model
        forward = model.TinyGPTModel.forward
        timed_forward = self.wrap("model.forward", forward, forward_done)

        def traced_forward(m, tokens):
            if self.on and self.parent_name() == "model.greedy_generate":
                counts["generate.window_tokens"] += len(tokens)
            return timed_forward(m, tokens)

        self._patches.append((model.TinyGPTModel, "forward", forward))
        model.TinyGPTModel.forward = traced_forward
        self.patch(model.TinyGPTModel, "forward_tape", "model.forward_tape")
        self.patch(model.TinyGPTModel, "greedy_generate", "model.greedy_generate", generate_done)
        self.patch(cli, "compress_model", "model.compress_model")
        self.patch(model, "compress_model", "model.compress_model")
        # layers
        self.patch(model, "decompose_linear", "layers.decompose_linear")
        # distill
        for fn in ("train_step", "build_batch_loss", "clip_global_norm", "sample_batch",
                   "evaluate_lm"):
            self.patch(distill, fn, f"distill.{fn}")
        self.patch(distill.Adam, "step", "distill.adam_step")
        # archive
        self.patch(archive, "archive_write", "archive.write", write_done)
        self.patch(archive, "archive_read", "archive.read", read_done)
        for owner in (archive, cli):
            self.patch(owner, "load_model", "archive.load_model")
            self.patch(owner, "save_model", "archive.save_model")
        # cli
        self.patch(cli, "main", "cli.main")
        self.patch(cli, "cmd_compress", "cli.cmd_compress")
        # corpus
        self.patch(corpus, "load_corpus", "corpus.load_corpus")

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ---- results -------------------------------------------------------------

    def aggregate(self, root_prefix: str) -> dict:
        """{span name: [inclusive ns, self ns, calls]} over the spans whose root
        span's name starts with ``root_prefix``."""
        n = len(self.start)
        root = [0] * n
        child_ns = [0] * n
        for i in range(n):
            p = self.parent[i]
            root[i] = i if p < 0 else root[p]
            if p >= 0:
                child_ns[p] += self.end_ns[i] - self.start[i]
        keep = [name.startswith(root_prefix) for name in self.names]
        out = defaultdict(lambda: [0, 0, 0])
        for i in range(n):
            if keep[self.name_id[root[i]]]:
                agg = out[self.names[self.name_id[i]]]
                dur = self.end_ns[i] - self.start[i]
                agg[0] += dur
                agg[1] += dur - child_ns[i]
                agg[2] += 1
        return dict(out)

    def write(self, path) -> None:
        with gzip.open(path, "wt") as fh:
            for i in range(len(self.start)):
                fh.write(json.dumps({"run": self.run_id, "id": i, "parent": self.parent[i],
                                     "name": self.names[self.name_id[i]],
                                     "start_ns": self.start[i], "end_ns": self.end_ns[i]}))
                fh.write("\n")
