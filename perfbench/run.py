"""kronlm benchmark: three closed-loop workloads, one command.

    python3 perfbench/run.py --workload train_study --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the program under test is ``src/kronlm``
of that checkout. Inputs are made from ``--seed`` in a child process. One
caller runs the workload's ops in rounds until ``--seconds`` of op time has
been measured, and checks every output. BLAS is pinned to one thread.

stdout ends with two JSON lines: a detail record (environment, every
end-to-end figure under its kronlm name with sample count and tail, the
checks) and, last, the result ``{"correct", "attempted", "failed",
"metrics"}``. ``--trace 0`` reports the end-to-end metrics of
BENCHMARK.json. ``--trace 1`` alternates untraced and traced quarters of
the time, reports the per-layer metrics, and writes the spans to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUPS = 3  # set-ups timed per untraced run; setup_s is their median
INPUTS_TIMEOUT_S = 300
# unit of a per-layer metric, by the last part of its name
PER_LAYER_UNITS = {"ms": "ms", "self_ms": "ms", "calls": "count", "gflop": "GFLOP",
                   "iters": "count", "bytes": "bytes", "overhead_pct": "%",
                   "nodes_per_step": "count", "window_tokens_per_gen_token": "count",
                   "spans_per_op": "count"}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--quick", action="store_true", help="shrunken shapes, for the tests")
    p.add_argument("--make-inputs", type=Path, default=None, help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


# ---- environment ---------------------------------------------------------------


def blas_threads():
    """Thread count the loaded OpenBLAS will use, or None if not found."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def cpu_quota():
    for path in ("/sys/fs/cgroup/cpu.max", "/sys/fs/cgroup/cpu/cpu.cfs_quota_us"):
        try:
            return Path(path).read_text().strip()
        except OSError:
            continue
    return None


def environment(inherited: dict) -> dict:
    import platform

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu_quota": cpu_quota(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_env_inherited": inherited,
        "blas_env": {k: os.environ.get(k) for k in BLAS_VARS},
        "blas_threads": blas_threads(),
    }


# ---- measuring -------------------------------------------------------------------


def summary(samples: list) -> dict:
    """Median, count, and the highest percentile with >= 10 samples beyond it,
    when that percentile lies above the median."""
    s = sorted(samples)
    out = {"median": statistics.median(s), "n": len(s)}
    if len(s) > 20:
        out["tail_pct"] = round(100.0 * (len(s) - 10) / len(s), 1)
        out["tail"] = s[len(s) - 11]
    return out


def run_loop(ops, seconds: float, tracer=None):
    """Closed loop: rounds of every op in turn until ``seconds`` of op time."""
    samples = {op.name: [] for op in ops}
    attempted = failed = 0
    errors = []
    busy = 0.0
    while busy < seconds:
        for op in ops:
            root = tracer.begin(f"bench.op.{op.name}") if tracer else None
            t0 = time.perf_counter()
            try:
                out = op.run()
                ok = True
            except Exception as exc:  # a failing op is counted, the run goes on
                ok = False
                errors.append(f"{op.name}: {type(exc).__name__}: {exc}")
            dt = time.perf_counter() - t0
            if tracer:
                tracer.end(root)
                tracer.counts["nodes"] += tracer.take_node_count()  # frees the op's tapes
            samples[op.name].append(dt)
            busy += dt
            if ok:
                with tracer.paused() if tracer else nullcontext():
                    ok = bool(op.check(out))
                if not ok:
                    errors.append(f"{op.name}: output check failed")
            attempted += 1
            failed += not ok
    return samples, attempted, failed, errors


def merge(parts: list) -> tuple:
    """Join run_loop results."""
    samples = {}
    for part in parts:
        for name, times in part[0].items():
            samples.setdefault(name, []).extend(times)
    return (samples, sum(p[1] for p in parts), sum(p[2] for p in parts),
            [e for p in parts for e in p[3]])


def round_ms(samples: dict) -> float:
    """One round at median speed: the sum of every op's median time."""
    return 1e3 * sum(statistics.median(v) for v in samples.values())


def layer_metrics(tracer, counts: dict, samples: dict, untraced: dict) -> tuple:
    """Per-layer metrics per op of the traced loop, plus the accounting.

    ``counts`` are the tracer's counts at the end of the traced loop."""
    from spans import OP_KINDS

    n_ops = sum(len(v) for v in samples.values())
    agg = tracer.aggregate("bench.op.")
    setup = tracer.aggregate("bench.setup")

    def per_op(span, field=1):  # field 0: inclusive ns, 1: self ns, 2: calls
        return agg.get(span, (0, 0, 0))[field] / n_ops

    def self_ms(span):
        return per_op(span) / 1e6

    m = {}
    for kind in OP_KINDS:
        m[f"autodiff.fwd.{kind}.ms"] = self_ms(f"autodiff.fwd.{kind}")
    for kind in OP_KINDS:
        m[f"autodiff.bwd.{kind}.ms"] = self_ms(f"autodiff.bwd.{kind}")
    m["autodiff.fwd.linear.gflop"] = counts["linear.flop"] / 1e9 / n_ops
    m["autodiff.backward.self_ms"] = self_ms("autodiff.backward")
    m["autodiff.nodes_per_step"] = counts["nodes"] / n_ops
    m["kronecker.kron_matmul.ms"] = self_ms("kronecker.kron_matmul")
    m["kronecker.kron_matmul.calls"] = counts["kron_matmul.calls"] / n_ops
    m["kronecker.kron_matmul.gflop"] = counts["kron_matmul.flop"] / 1e9 / n_ops
    m["kronecker.kron_matmul_grads.ms"] = self_ms("kronecker.kron_matmul_grads")
    m["kronecker.nearest_kron.ms"] = self_ms("kronecker.nearest_kron")
    m["kronecker.nearest_kron.iters"] = counts["nearest_kron.iters"] / n_ops
    m["model.forward.ms"] = per_op("model.forward", 0) / 1e6
    m["model.forward.calls"] = counts["forward.calls"] / n_ops
    m["model.forward.self_ms"] = self_ms("model.forward")
    m["model.forward_tape.ms"] = per_op("model.forward_tape", 0) / 1e6
    m["model.forward_tape.self_ms"] = self_ms("model.forward_tape")
    m["model.greedy_generate.self_ms"] = self_ms("model.greedy_generate")
    gen_tokens = counts["generate.tokens"]
    m["model.greedy_generate.window_tokens_per_gen_token"] = (
        counts["generate.window_tokens"] / gen_tokens if gen_tokens else 0.0)
    m["model.compress_model.self_ms"] = self_ms("model.compress_model")
    m["layers.decompose_linear.self_ms"] = self_ms("layers.decompose_linear")
    m["distill.train_step.self_ms"] = self_ms("distill.train_step")
    m["distill.build_batch_loss.self_ms"] = self_ms("distill.build_batch_loss")
    m["distill.adam_step.ms"] = self_ms("distill.adam_step")
    m["distill.clip_global_norm.ms"] = self_ms("distill.clip_global_norm")
    m["distill.sample_batch.ms"] = self_ms("distill.sample_batch")
    m["distill.evaluate_lm.self_ms"] = self_ms("distill.evaluate_lm")
    m["archive.write.ms"] = self_ms("archive.write")
    m["archive.write.bytes"] = counts["archive.write.bytes"] / n_ops
    m["archive.read.ms"] = self_ms("archive.read")
    m["archive.read.bytes"] = counts["archive.read.bytes"] / n_ops
    m["archive.load_model.self_ms"] = self_ms("archive.load_model")
    m["archive.save_model.self_ms"] = self_ms("archive.save_model")
    m["cli.main.self_ms"] = self_ms("cli.main")
    m["cli.cmd_compress.self_ms"] = self_ms("cli.cmd_compress")
    m["bench.op.self_ms"] = sum(v[1] for k, v in agg.items() if k.startswith("bench.op.")) \
        / n_ops / 1e6
    # set-up, traced once
    m["corpus.load_corpus.ms"] = setup.get("corpus.load_corpus", (0,))[0] / 1e6
    m["setup.archive.load_model.ms"] = setup.get("archive.load_model", (0,))[0] / 1e6
    m["setup.model.compress_model.ms"] = setup.get("model.compress_model", (0,))[0] / 1e6
    m["trace.overhead_pct"] = 100.0 * (round_ms(samples) / round_ms(untraced) - 1.0)
    m["trace.spans_per_op"] = sum(v[2] for v in agg.values()) / n_ops
    accounting = {
        "ops_traced": n_ops,
        "self_ms_sum_per_op": sum(v[1] for v in agg.values()) / n_ops / 1e6,
        "traced_ms_per_op": 1e3 * sum(map(sum, samples.values())) / n_ops,
        "untraced_ms_per_op": 1e3 * sum(map(sum, untraced.values()))
        / sum(len(v) for v in untraced.values()),
    }
    return m, accounting


def measure(args, inputs: Path) -> tuple:
    from spans import Tracer
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload](inputs, args.seed, args.quick)
    setup_s = []
    for _ in range(1 if args.trace else SETUPS):
        t0 = time.perf_counter()
        wl.setup()
        setup_s.append(time.perf_counter() - t0)
    ops = wl.ops()
    if args.trace:
        tracer = Tracer(run_id=f"{args.workload}-{args.seed}-{os.getpid()}")
        parts = {False: [], True: []}
        # untraced and traced quarters alternate, so that drift within a run
        # (its first seconds are slower) falls on both halves alike
        for traced in (False, True, False, True):
            with tracer.installed() if traced else nullcontext():
                parts[traced].append(run_loop(ops, args.seconds / 4, tracer if traced else None))
        counts = tracer.counts.copy()
        with tracer.installed():
            root = tracer.begin("bench.setup")
            wl.setup()
            tracer.end(root)
        _, attempted, failed, errors = merge(parts[False] + parts[True])
        samples, tsamples = merge(parts[False])[0], merge(parts[True])[0]
    else:
        samples, attempted, failed, errors = run_loop(ops, args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "ops": {name: summary(v) for name, v in samples.items()}}
    figures = {}
    for fig in wl.metrics():
        seconds_per_op = statistics.fmean(statistics.median(samples[op]) for op in fig.ops)
        s = summary([t for op in fig.ops for t in samples[op]])  # pooled, for n and tail
        scale = (lambda t: t) if fig.per_second is None else (lambda t: fig.per_second / t)
        figures[fig.name] = {"value": scale(seconds_per_op), "unit": fig.unit, "n": s["n"]}
        if "tail" in s:
            figures[fig.name].update(tail_pct=s["tail_pct"], tail_value=scale(s["tail"]))

    if args.trace:
        metrics, detail["accounting"] = layer_metrics(tracer, counts, tsamples, samples)
        OUT.mkdir(parents=True, exist_ok=True)
        spans_path = OUT / f"spans-{args.workload}-{args.seed}.jsonl.gz"
        tracer.write(spans_path)
        detail["spans_file"] = str(spans_path.relative_to(ROOT))
        metrics = {k: {"value": v, "unit": PER_LAYER_UNITS[k.rsplit(".", 1)[-1]]}
                   for k, v in metrics.items()}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup_s), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "round_ms": {"value": round_ms(samples), "unit": "ms"},
        }

    final = wl.final_checks()
    attempted += len(final)
    failed += sum(not ok for ok in final.values())
    errors += [f"{name}: check failed" for name, ok in final.items() if not ok]
    figures["setup_s"] = {"value": statistics.median(setup_s), "unit": "s", "n": len(setup_s),
                          "samples": setup_s}
    figures["peak_rss_mb"] = {"value": peak_rss_mb, "unit": "MB"}
    figures["fail_ratio"] = {"value": failed / attempted, "unit": "failed/attempted"}
    detail.update(figures=figures, checks=final, errors=errors[:20])
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return result, detail


def main(argv=None) -> int:
    args = parse_args(argv)
    inherited = {k: os.environ.get(k) for k in BLAS_VARS}
    for k in BLAS_VARS:  # before numpy is first imported
        os.environ[k] = "1"
    src = ROOT / "src"
    if not (src / "kronlm" / "__init__.py").is_file():
        print(f"perfbench: no kronlm sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import kronlm

    if Path(kronlm.__file__).resolve().parent != (src / "kronlm").resolve():
        print(f"perfbench: imported kronlm from {kronlm.__file__}, not {src}", file=sys.stderr)
        return 2
    from inputs import WORKLOADS, make_inputs

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if args.make_inputs is not None:
        make_inputs(args.workload, args.seed, args.quick, args.make_inputs)
        return 0

    env = environment(inherited)
    if env["blas_threads"] not in (None, 1):
        print(f"perfbench: BLAS runs {env['blas_threads']} threads; refusing to measure",
              file=sys.stderr)
        return 3
    inputs = OUT / f"inputs-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--make-inputs", str(inputs),
               "--workload", args.workload, "--seed", str(args.seed), "--seconds", "1"]
        subprocess.run(cmd + (["--quick"] if args.quick else []), check=True,
                       stdout=subprocess.DEVNULL, timeout=INPUTS_TIMEOUT_S)
        result, detail = measure(args, inputs)
    finally:
        shutil.rmtree(inputs, ignore_errors=True)
    detail["env"] = env
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
