"""Importing kronlm keeps freed heap memory in the process, so a training
step at the study shape, and a nearest-Kronecker solve at GPT-2 width,
page-fault nothing in afresh."""

import platform
import resource

import numpy as np
import pytest

import kronlm
from kronlm.distill import Adam, train_step, weights_for_mode
from kronlm.kronecker import nearest_kron
from kronlm.layers import CompressionSchedule
from kronlm.model import GPTConfig, TinyGPTModel, compress_model
from kronlm.tensor_core import Rng

glibc_only = pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                                reason="the malloc thresholds are set through glibc's mallopt")


@glibc_only
def test_import_sets_both_malloc_thresholds():
    assert kronlm.MALLOPT_RESULTS == (1, 1)


@glibc_only
def test_study_shape_lm_kd_step_takes_no_page_fault_storm():
    # without the thresholds this step takes thousands of minor faults
    cfg = GPTConfig(n_layers=4, n_heads=4, d_model=64, d_ff=256, vocab_size=256,
                    max_seq_len=128, seed=0)
    teacher = TinyGPTModel.init_random(cfg)
    student, _ = compress_model(teacher, CompressionSchedule.for_dims(4, 64, 256, factor=2))
    w = weights_for_mode("lm+kd")
    opt = Adam(student.named_parameters(), lr=1e-3)
    batches = Rng(1).integers(0, 256, size=(13, 8, 65)).astype(np.int64)
    for step in range(3):
        train_step(student, teacher, batches[step], w, opt, step_index=step)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for step in range(3, 13):
        train_step(student, teacher, batches[step], w, opt, step_index=step)
    per_step = (resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 10
    assert per_step < 200, per_step


@glibc_only
def test_gpt2_width_nearest_kron_takes_no_page_fault_storm():
    # a solve builds the rearrangement slab by slab and allocates nothing
    # above the mmap threshold; a thin SVD of c_fc's whole (1179648 x 2)
    # rearrangement once built a U as large as it: 9,217 minor faults per call
    for shape, factors in [((3072, 768), (1536, 768, 2, 1)),
                           ((768, 3072), (768, 1536, 1, 2)),
                           ((3072, 768), (1536, 384, 2, 2))]:
        w = Rng(2).normal(*shape)
        nearest_kron(w, *factors)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        nearest_kron(w, *factors)
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
        assert faults < 500, (factors, faults)
