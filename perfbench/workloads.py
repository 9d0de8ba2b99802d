"""The three closed-loop workloads.

Each workload has a ``setup`` (program work before the timed loop, repeated
to time ``setup_s``), a list of ops that the runner calls in turn, one at a
time, and the checks that feed the failed count. One round runs every op
once, in list order.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Any, Callable

from kronlm import archive, cli, corpus, distill, model
from kronlm.tensor_core import Rng

import checks
from inputs import compress_schedule, shapes

LEARNING_RATE = 2.5e-4


@dataclass
class Op:
    name: str
    run: Callable[[], Any]
    check: Callable[[Any], bool]


@dataclass
class Arm:
    name: str
    net: Any
    weights: distill.DistillWeights
    optimizer: distill.Adam
    rng: Rng
    steps: int = 0


@dataclass
class Metric:
    """An end-to-end figure from the mean of the median times of some ops."""

    name: str
    ops: tuple
    unit: str
    per_second: float | None = None  # work per op; None reports seconds per op


class Workload:
    name = ""

    def __init__(self, inputs: Path, seed: int, quick: bool):
        self.inputs = inputs
        self.seed = seed
        self.shapes = shapes(self.name, seed, quick)

    def setup(self) -> None:
        raise NotImplementedError

    def ops(self) -> list:
        raise NotImplementedError

    def metrics(self) -> list:
        raise NotImplementedError

    def final_checks(self) -> dict:
        """{check name: passed} for checks made once, after the timed loop."""
        return {}


class TrainStudy(Workload):
    """distill.train_step at the acceptance-study shape, four ablation arms."""

    name = "train_study"
    ARMS = (("teacher_lm", "lm"), ("student_lm", "lm"), ("student_kd", "kd"),
            ("student_lmkd", "lm+kd"))

    def __init__(self, inputs: Path, seed: int, quick: bool):
        super().__init__(inputs, seed, quick)
        self.setup_hashes = []  # parameter hash after each set-up's warm-up

    def setup(self):
        self.arms, self.teacher = [], None  # free the previous setup's models
        self.train = corpus.load_corpus(self.inputs / "corpus.txt", val_ratio=0.05).train
        self.teacher = archive.load_model(self.inputs / "teacher.knz")
        student, _ = model.compress_model(
            self.teacher, compress_schedule(self.teacher.config), rng=Rng(self.seed))
        for i, (name, mode) in enumerate(self.ARMS):
            net = self.teacher.copy() if name == "teacher_lm" else student.copy()
            self.arms.append(Arm(name, net, distill.weights_for_mode(mode),
                                 distill.Adam(net.named_parameters(), lr=LEARNING_RATE),
                                 Rng(self.seed * 16 + i)))
        for arm in self.arms:  # warm-up
            self.step(arm)
        digest = hashlib.sha256()
        for arm in self.arms:
            digest.update(arm.net.state_hash().encode())
        self.setup_hashes.append(digest.hexdigest())

    def step(self, arm: Arm):
        batch = distill.sample_batch(self.train, self.shapes.batch, self.shapes.seq_len, arm.rng)
        teacher = self.teacher if arm.weights.needs_teacher() else None
        arm.steps += 1
        return distill.train_step(arm.net, teacher, batch, arm.weights, arm.optimizer,
                                  step_index=arm.steps)

    def ops(self):
        return [Op(f"train.{arm.name}", lambda arm=arm: self.step(arm), checks.losses_finite)
                for arm in self.arms]

    def metrics(self):
        tokens = self.shapes.batch * self.shapes.seq_len
        return [Metric(f"train.{name}.tok_s", (f"train.{name}",), "tokens/s", tokens)
                for name, _ in self.ARMS]

    def final_checks(self):
        return {"train.setup_hash_repeats": checks.hashes_agree(self.setup_hashes)}


class InferWide(Workload):
    """evaluate_lm and greedy_generate at GPT-2 width, teacher and student."""

    name = "infer_wide"
    MODELS = ("teacher", "student")

    def setup(self):
        self.nets = {}  # free the previous setup's models before loading again
        self.val = corpus.load_corpus(self.inputs / "corpus.txt").val
        teacher = archive.load_model(self.inputs / "teacher.knz")
        student, _ = model.compress_model(
            teacher, compress_schedule(teacher.config), rng=Rng(self.seed))
        self.nets = {"teacher": teacher, "student": student}
        self.prompt = self.val[: self.shapes.prompt_len]
        self.n_windows = (len(self.val) - 1) // self.shapes.seq_len
        self.cursor = {name: 0 for name in self.MODELS}
        for name in self.MODELS:  # warm-up
            self.evaluate(name)
            self.nets[name].greedy_generate(self.prompt, 1)

    def evaluate(self, name: str) -> float:
        t = self.shapes.seq_len
        start = t * (self.cursor[name] % self.n_windows)
        self.cursor[name] += 1
        return distill.evaluate_lm(self.nets[name], self.val[start : start + t + 1], t,
                                   max_windows=1)

    def generate(self, name: str):
        return self.nets[name].greedy_generate(self.prompt, self.shapes.gen_tokens)

    def ops(self):
        out = []
        for name in self.MODELS:
            out.append(Op(f"eval.{name}", lambda n=name: self.evaluate(n), math.isfinite))
        for name in self.MODELS:
            net = self.nets[name]
            out.append(Op(f"gen.{name}", lambda n=name: self.generate(n),
                          lambda ids, net=net: checks.greedy_matches_forward(net, self.prompt,
                                                                             ids)))
        return out

    def metrics(self):
        out = [Metric(f"eval.{n}.tok_s", (f"eval.{n}",), "tokens/s", self.shapes.seq_len)
               for n in self.MODELS]
        out += [Metric(f"gen.{n}.tok_s", (f"gen.{n}",), "tokens/s",
                       self.shapes.gen_tokens)
                for n in self.MODELS]
        return out

    def final_checks(self):
        ok = checks.ce_matches_materialized(self.nets["student"], self.val,
                                            self.shapes.seq_len, windows=2)
        return {"eval.student_matches_materialized": ok}


class CompressWide(Workload):
    """``kronlm compress --report`` in-process on GPT-2-width checkpoints, one
    command per teacher in a round."""

    name = "compress_wide"

    def __init__(self, inputs: Path, seed: int, quick: bool):
        super().__init__(inputs, seed, quick)
        self.output = inputs / "student.knz"
        self.report = inputs / "report.json"
        self.refs = json.loads((inputs / "refs.json").read_text())
        self.argvs = [["compress", "--input", str(inputs / f"teacher{k}.knz"),
                       "--output", str(self.output), "--report", str(self.report),
                       "--seed", str(seed)] for k in range(len(self.refs))]
        self.setups = 0

    def setup(self):
        self.compress(self.setups % len(self.argvs))  # warm-up, teachers in turn
        self.setups += 1

    def compress(self, k: int) -> int:
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(self.argvs[k])

    def check(self, k: int, code: int) -> bool:
        ref = self.refs[k]
        return (code == 0
                and checks.residuals_match(self.report, ref["residuals"])
                and checks.reloaded_hash_matches(self.output, ref["student_hash"]))

    def ops(self):
        return [Op(f"compress.teacher{k}", partial(self.compress, k), partial(self.check, k))
                for k in range(len(self.argvs))]

    def metrics(self):
        return [Metric("compress_s", tuple(op.name for op in self.ops()), "s")]


WORKLOADS = {w.name: w for w in (TrainStudy, InferWide, CompressWide)}
