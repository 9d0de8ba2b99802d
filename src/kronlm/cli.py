"""Command-line front end: compress | train | eval | bench.

train, compress and bench take --seed, an integer >= 0 (default 0). Every
command is deterministic for a fixed seed, apart from wall-clock fields in
metrics and benchmark output; compress and eval draw nothing random, so
neither output depends on a seed. Exit code 0 on success; failures print a
diagnostic to stderr and exit nonzero. An error about a file names the flag that gave it,
and every output's directory is checked before any work starts.

compress reads the teacher one tensor at a time and solves it or keeps it
for the student before it reads the next, so it holds the student and at
most one teacher tensor and its factors at a time, never the whole teacher.
The student is written only after the input's CRC has been checked; on any
error the previous output, if any, is left as it was.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from contextlib import contextmanager

from .archive import load_model, read_checkpoint, save_model
from .bench import DEFAULT_SHAPES, rows_to_csv, run_bench
from .corpus import load_corpus
from .distill import (
    PHASE_MODES,
    DistillWeights,
    TrainConfig,
    evaluate_lm,
    perplexity,
    run_phase,
    weights_for_mode,
)
from .errors import ArchiveError, KronlmError, PlanningError, ShapeError
from .layers import PLANNABLE_FACTORS, CompressionSchedule, check_blocks, check_embedding_factor
from .model import TinyGPTModel, compress_model, layer_tensors, param_layout, stored_factors


def _add_seed(parser):
    parser.add_argument("--seed", type=_whole, default=0, help="deterministic seed")


def _onoff(value: str) -> bool:
    if value not in ("on", "off"):
        raise argparse.ArgumentTypeError(f"expected on|off, got {value!r}")
    return value == "on"


def _count(value: str, low: int = 1) -> int:
    """A count flag: an integer of at least ``low``, in ASCII digits."""
    if not (value.isascii() and value.isdigit()) or int(value) < low:
        raise argparse.ArgumentTypeError(f"expected an integer >= {low}, got {value!r}")
    return int(value)


def _whole(value: str) -> int:
    """A seed or a factor flag: an integer of at least 0 (the planner checks a factor's range)."""
    return _count(value, low=0)


def _number(value: str) -> float:
    """``value`` as a float; NaN, which fails every range test, if it is none."""
    try:
        return float(value)
    except ValueError:
        return math.nan


def _rate(value: str) -> float:
    """A rate flag: a finite number above 0."""
    rate = _number(value)
    if not (math.isfinite(rate) and rate > 0):
        raise argparse.ArgumentTypeError(f"expected a finite number > 0, got {value!r}")
    return rate


def _ratio(value: str) -> float:
    """A ratio flag: a number strictly between 0 and 1."""
    ratio = _number(value)
    if not 0 < ratio < 1:
        raise argparse.ArgumentTypeError(f"expected a number in (0, 1), got {value!r}")
    return ratio


def _shapes(value: str) -> list:
    """Semicolon-separated tuples of positive m,n,m1,n1,m2,n2 with
    (m, n) = (m1*m2, n1*n2)."""
    shapes = []
    for chunk in value.split(";"):
        try:
            m, n, m1, n1, m2, n2 = (_count(x.strip()) for x in chunk.split(","))
            well_formed = (m, n) == (m1 * m2, n1 * n2)
        except (ValueError, argparse.ArgumentTypeError):  # not six integers >= 1
            well_formed = False
        if not well_formed:
            raise argparse.ArgumentTypeError(
                f"bad shape tuple {chunk!r}: need positive integers m,n,m1,n1,m2,n2 "
                "with m = m1*m2 and n = n1*n2")
        shapes.append((m, n, m1, n1, m2, n2))
    return shapes


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="kronlm")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compress", help="Kronecker-compress a checkpoint")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--report", default=None, help="write a JSON compression report here")
    p.add_argument("--layers", default="odd",
                   help="odd|even|all or a comma-separated block index list")
    p.add_argument("--factor", type=_whole, default=2)
    p.add_argument("--embedding", type=_onoff, default=True, metavar="on|off")
    p.add_argument("--embedding-factor", type=_whole, default=None)
    p.add_argument("--include-wo", type=_onoff, default=True, metavar="on|off")
    _add_seed(p)

    p = sub.add_parser("train", help="train a student against a frozen teacher")
    p.add_argument("--teacher", default=None)
    p.add_argument("--student", required=True)
    p.add_argument("--corpus", required=True, nargs="+")
    p.add_argument("--mode", default="lm+kd", choices=PHASE_MODES)
    p.add_argument("--steps", type=_count, default=None,
                   help="training steps (default: one pass over the training split, "
                        "its length // (batch * seq-len))")
    p.add_argument("--batch", type=_count, default=8)
    p.add_argument("--lr", type=_rate, default=2.5e-4)
    p.add_argument("--alphas", default=None,
                   help="a1,a2,a3,a4 loss weights overriding the mode defaults "
                        "(ignored by --mode none)")
    p.add_argument("--seq-len", type=_count, default=64)
    p.add_argument("--val-ratio", type=_ratio, default=0.1)
    p.add_argument("--output", default=None, help="trained checkpoint path (default: --student)")
    p.add_argument("--metrics", default=None, help="JSONL metrics history path (empty under --mode none)")
    _add_seed(p)

    p = sub.add_parser("eval", help="validation cross entropy and perplexity")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--corpus", required=True, nargs="+")
    p.add_argument("--json", action="store_true")
    p.add_argument("--seq-len", type=_count, default=64)
    p.add_argument("--val-ratio", type=_ratio, default=0.1)
    p.add_argument("--max-windows", type=_count, default=None)

    p = sub.add_parser("bench", help="dense vs factored matmul microbenchmark")
    p.add_argument("--shapes", type=_shapes, default=None,
                   help="semicolon-separated m,n,m1,n1,m2,n2 tuples (default: shape table)")
    p.add_argument("--rows", type=_count, default=32)
    p.add_argument("--repeats", type=_count, default=5)
    p.add_argument("--output", default=None, help="CSV path (default: stdout)")
    _add_seed(p)
    return parser


def _layer_selector(raw: str, n_layers: int):
    if raw in ("odd", "even", "all"):
        return raw
    try:
        blocks = tuple(_count(tok.strip(), low=0) for tok in raw.split(",") if tok.strip())
    except argparse.ArgumentTypeError as exc:
        raise PlanningError(f"bad --layers value {raw!r}: {exc}") from None
    try:
        check_blocks(blocks, n_layers)
    except PlanningError as exc:
        raise PlanningError(f"--layers {raw}: {exc}") from None
    return blocks


@contextmanager
def _reading(flag: str, path):
    """Name the flag and the file in an error from reading the checkpoint a
    flag gives (load_model or read_checkpoint) in the block."""
    try:
        yield
    except ArchiveError as exc:  # its message starts with the path
        raise type(exc)(f"{flag} {exc}") from None
    except OSError as exc:
        raise KronlmError(f"{flag} {path}: {exc.strerror or exc}") from None


def _load_model(flag: str, path) -> TinyGPTModel:
    """The checkpoint a flag names; a failure to read it names the flag and the file."""
    with _reading(flag, path):
        return load_model(path)


def _check_outputs(args, *flags) -> None:
    """Fail before any work if an output flag's path cannot be written: its
    directory is missing or read-only, or the path is a directory."""
    for flag in flags:
        path = getattr(args, flag[2:])
        if path is None:
            continue
        folder = os.path.dirname(os.path.abspath(path))
        if not os.path.isdir(folder):
            raise KronlmError(f"{flag} {path}: directory {folder} does not exist")
        if not os.access(folder, os.W_OK | os.X_OK):
            raise KronlmError(f"{flag} {path}: directory {folder} is not writable")
        if os.path.isdir(path):
            raise KronlmError(f"{flag} {path}: is a directory")


def _check_seq_len(seq_len: int, model: TinyGPTModel, path) -> None:
    if seq_len > model.config.max_seq_len:
        raise KronlmError(f"--seq-len {seq_len} exceeds max_seq_len "
                          f"{model.config.max_seq_len} of {path}")


def _compression_report(student: TinyGPTModel, reports) -> dict:
    """Per-tensor accounting for every stored tensor except the LM head,
    which is never compressed and excluded from the parameter totals. A
    factored weight is listed under its dense name, with its solve's leading
    singular value and the ratio s[1]/s[0] of the next one to it; biases and
    norm vectors are their own (uncompressed) entries."""
    reports = dict(reports)
    tensors = dict(student.named_parameters())
    entries = []
    for layer in param_layout(student.config):
        if layer.kind == "head":
            continue
        factors = stored_factors(layer, tensors)
        for k, (name, shape) in enumerate(layer_tensors(layer)):
            size = math.prod(shape)
            factored = factors is not None and k == 0  # the weight comes first
            rep = reports.get(name)  # a report exists for each factored weight only
            entries.append({
                "name": name,
                "original_shape": list(shape),
                "factor_shapes": [list(factors[:2]), list(factors[2:])] if factored else None,
                "params_before": size,
                "params_after": math.prod(factors[:2]) + math.prod(factors[2:]) if factored else size,
                "relative_residual": rep.relative_residual if rep is not None else 0.0,
            })
            if rep is not None:
                entries[-1].update(singular_value=rep.singular_value, sv_ratio=rep.sv_ratio)
    before = sum(e["params_before"] for e in entries)
    after = sum(e["params_after"] for e in entries)
    return {
        "tensors": entries,
        "totals": {
            "params_before": before,
            "params_after": after,
            "compression_factor": before / after,
        },
        "excluded_lm_head_params": tensors["lm_head.weight"].size,
    }


def _schedule(args, cfg) -> CompressionSchedule:
    """The schedule the compress flags ask for on a checkpoint of ``cfg``."""
    f = args.factor if args.embedding_factor is None else args.embedding_factor
    try:
        if args.embedding:
            check_embedding_factor(f, cfg.d_model)
    except PlanningError as exc:  # name the flag that set f
        flag = "--factor" if args.embedding_factor is None else "--embedding-factor"
        raise PlanningError(f"{flag} {f}: {exc}") from None
    return CompressionSchedule.for_dims(
        n_layers=cfg.n_layers,
        d_model=cfg.d_model,
        d_ff=cfg.d_ff,
        factor=args.factor,
        layers=_layer_selector(args.layers, cfg.n_layers),
        compress_embedding=args.embedding,
        embedding_factor=args.embedding_factor,
        include_wo=args.include_wo,
    )


def cmd_compress(args) -> int:
    if args.factor not in PLANNABLE_FACTORS:
        raise PlanningError(f"--factor {args.factor}: only the factors {PLANNABLE_FACTORS} "
                            "are plannable")
    _check_outputs(args, "--output", "--report")
    # the teacher is read one tensor at a time, never held whole
    with _reading("--input", args.input), read_checkpoint(args.input) as (cfg, tensors):
        student, reports = compress_model((cfg, tensors), _schedule(args, cfg))
    save_model(student, args.output)
    report = _compression_report(student, reports)
    if args.report:
        with open(args.report, "w") as fh:
            json.dump(report, fh, indent=2)
    totals = report["totals"]
    print(
        f"compressed {args.input} -> {args.output}: "
        f"{totals['params_before']} -> {totals['params_after']} params "
        f"(factor {totals['compression_factor']:.3f})"
    )
    return 0


def _corpus_flag(args) -> str:
    return "--corpus " + " ".join(str(p) for p in args.corpus)


def _load_corpus(args):
    """The corpus of --corpus and --val-ratio; a rejection names the flag and the files."""
    try:
        return load_corpus(args.corpus, val_ratio=args.val_ratio)
    except ShapeError as exc:
        raise ShapeError(f"{_corpus_flag(args)}: {exc}") from None
    except OSError as exc:
        raise KronlmError(f"{_corpus_flag(args)}: {exc.filename}: {exc.strerror or exc}") from None


def _check_split(tokens, split: str, args) -> None:
    """One window of --seq-len inputs and their targets must fit in the split."""
    if len(tokens) < args.seq_len + 1:
        raise ShapeError(f"{_corpus_flag(args)}: the {split} split holds {len(tokens)} "
                         f"tokens, fewer than --seq-len {args.seq_len} + 1")


def cmd_train(args) -> int:
    _check_outputs(args, "--output", "--metrics")
    w = weights_for_mode(args.mode)
    if args.alphas is not None:
        try:
            parts = [float(x) for x in args.alphas.split(",")]
            if len(parts) != 4:
                raise ValueError(f"need 4 comma-separated values, got {len(parts)}")
            alphas = DistillWeights(*parts)
        except ValueError as exc:
            raise KronlmError(f"bad --alphas {args.alphas!r}: {exc}") from None
        if w is not None:  # explicit --alphas override the mode's default weights entirely
            w = alphas
    if w is not None and w.needs_teacher() and args.teacher is None:
        asked = f"--alphas {args.alphas}" if args.alphas is not None else f"--mode {args.mode}"
        raise KronlmError(f"{asked} needs --teacher for the trace losses")
    student = _load_model("--student", args.student)
    corpus = _load_corpus(args)
    history = []
    if w is not None:  # mode none runs no step
        _check_split(corpus.train, "training", args)
        teacher = _load_model("--teacher", args.teacher) if w.needs_teacher() else None
        if teacher is not None:
            for field in ("n_layers", "n_heads", "d_model", "vocab_size"):
                want, found = getattr(student.config, field), getattr(teacher.config, field)
                if found != want:
                    raise KronlmError(f"--teacher {args.teacher}: {field} {found} differs from "
                                      f"the student's {want}")
            _check_seq_len(args.seq_len, teacher, args.teacher)
        _check_seq_len(args.seq_len, student, args.student)
        config = TrainConfig(batch_size=args.batch, learning_rate=args.lr, steps=args.steps,
                             seed=args.seed, seq_len=args.seq_len)
        history = run_phase(student, teacher, corpus.train, config, w, metrics_path=args.metrics)
    elif args.metrics:  # mode none: an empty history, so the path asked for exists
        open(args.metrics, "w").close()
    out_path = args.output or args.student
    save_model(student, out_path)
    if history:
        print(f"trained {len(history)} steps; final total loss {history[-1].L_total:.4f}")
    else:
        print("mode none: no training steps; checkpoint copied through")
    print(f"wrote {out_path}")
    return 0


def cmd_eval(args) -> int:
    model = _load_model("--checkpoint", args.checkpoint)
    _check_seq_len(args.seq_len, model, args.checkpoint)
    corpus = _load_corpus(args)
    _check_split(corpus.val, "validation", args)
    ce = evaluate_lm(model, corpus.val, seq_len=args.seq_len, max_windows=args.max_windows)
    pp = perplexity(ce)
    if args.json:
        print(json.dumps({"val_ce": ce, "perplexity": pp}))
    else:
        print(f"val_ce={ce:.6f} perplexity={pp:.4f}")
    return 0


def cmd_bench(args) -> int:
    _check_outputs(args, "--output")
    shapes = args.shapes or DEFAULT_SHAPES
    csv = rows_to_csv(run_bench(shapes, rows=args.rows, repeats=args.repeats, seed=args.seed))
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(csv)
        print(f"wrote {args.output}")
    else:
        sys.stdout.write(csv)
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "compress": cmd_compress,
        "train": cmd_train,
        "eval": cmd_eval,
        "bench": cmd_bench,
    }
    try:
        return handlers[args.command](args)
    except (KronlmError, OSError, ValueError) as exc:
        print(f"kronlm {args.command}: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
