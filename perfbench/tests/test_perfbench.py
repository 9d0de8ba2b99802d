"""Tests of the benchmark itself: quick runs of every workload, the metric
names against BENCHMARK.json, and each output check failing on an injected
fault.

    python3 -m pytest perfbench/tests -q
"""

import gzip
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import workloads
from inputs import WORKLOADS, make_inputs
from kronlm import autodiff, model

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload, trace, cwd=ROOT, seconds="0.5"):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
           "--seconds", seconds, "--trace", str(trace), "--quick"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_quick_run_reports_spec_metrics(workload):
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        out = run_bench(workload, trace)
        assert out.returncode == 0, out.stderr
        detail, result = (json.loads(line) for line in out.stdout.splitlines()[-2:])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert detail["figures"]["fail_ratio"]["value"] == 0.0
        spec = {m["name"]: m["unit"] for m in SPEC[key]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == spec
        assert all(np.isfinite(v["value"]) for v in result["metrics"].values())
        assert detail["env"]["blas_threads"] in (None, 1)
        if trace:
            acc = detail["accounting"]
            # self times add up to the traced op time
            assert acc["self_ms_sum_per_op"] == pytest.approx(acc["traced_ms_per_op"], rel=0.02)
            with gzip.open(ROOT / detail["spans_file"], "rt") as fh:
                span = json.loads(fh.readline())
            assert set(span) == {"run", "id", "parent", "name", "start_ns", "end_ns"}


def test_exact_counts_repeat():
    def counts():
        out = run_bench("infer_wide", 1)
        metrics = json.loads(out.stdout.splitlines()[-1])["metrics"]
        return {k: metrics[k]["value"] for k in
                ("model.greedy_generate.window_tokens_per_gen_token", "autodiff.nodes_per_step")}

    first = counts()
    assert first == counts()
    assert first["model.greedy_generate.window_tokens_per_gen_token"] > 1


def test_refuses_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    out = run_bench("train_study", 0, cwd=tmp_path)
    assert out.returncode != 0
    assert out.stdout == ""


def make_workload(name, tmp_path):
    make_inputs(name, 3, True, tmp_path)
    return workloads.WORKLOADS[name](tmp_path, 3, True)


def perturb_compression(monkeypatch):
    """Make every later compress_model return a slightly wrong student."""
    original = model.compress_model

    def perturbed(*args, **kwargs):
        student, reports = original(*args, **kwargs)
        factored = [b.wq for b in student.blocks if hasattr(b.wq, "factors")]
        factored[0].factors.a[0, 0] += 1e-3
        return student, reports

    monkeypatch.setattr(model, "compress_model", perturbed)
    monkeypatch.setattr("kronlm.cli.compress_model", perturbed)


def test_train_checks_catch_faults(tmp_path, monkeypatch):
    wl = make_workload("train_study", tmp_path)
    wl.setup()
    wl.setup()
    assert wl.final_checks() == {"train.setup_hash_repeats": True}
    assert all(op.check(op.run()) for op in wl.ops())

    # a repeat that does not reproduce the student
    perturb_compression(monkeypatch)
    wl.setup()
    assert wl.final_checks() == {"train.setup_hash_repeats": False}

    # a non-finite loss
    op = wl.ops()[-1]
    wl.arms[-1].net.blocks[1].wq.factors.a[:] = np.nan
    try:
        ok = op.check(op.run())
    except Exception:
        ok = False
    assert not ok


def test_infer_checks_catch_faults(tmp_path, monkeypatch):
    wl = make_workload("infer_wide", tmp_path)
    wl.setup()
    assert wl.final_checks() == {"eval.student_matches_materialized": True}
    gen_student = wl.ops()[-1]
    ids = gen_student.run()
    assert gen_student.check(ids)
    tampered = ids.copy()
    tampered[-1] = (tampered[-1] + 1) % 256
    assert not gen_student.check(tampered)

    kernel = autodiff.kron_matmul
    monkeypatch.setattr(autodiff, "kron_matmul", lambda pair, x: kernel(pair, x) * (1 + 1e-6))
    assert wl.final_checks() == {"eval.student_matches_materialized": False}


def test_compress_checks_catch_faults(tmp_path, monkeypatch):
    wl = make_workload("compress_wide", tmp_path)
    wl.setup()
    assert wl.check(0, 0)
    # a reported residual off by more than the tolerance
    report = json.loads(wl.report.read_text())
    entry = next(e for e in report["tensors"] if e["factor_shapes"])
    entry["relative_residual"] *= 1 + 1e-4
    wl.report.write_text(json.dumps(report))
    assert not checks.residuals_match(wl.report, wl.refs[0]["residuals"])
    # a flipped checkpoint byte
    assert wl.compress(0) == 0
    data = bytearray(wl.output.read_bytes())
    data[len(data) // 2] ^= 0x01
    wl.output.write_bytes(bytes(data))
    assert not wl.check(0, 0)
    # a student that differs from the reference compression
    perturb_compression(monkeypatch)
    assert wl.compress(1) == 0
    assert not wl.check(1, 0)
