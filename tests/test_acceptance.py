"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete. Criteria 8 and 9 train models on a synthetic >= 1 MB
corpus and dominate the runtime (several minutes of CPU); everything else is
fast and deterministic.
"""

import multiprocessing
import warnings

import numpy as np
import pytest

from conftest import synth_corpus_bytes
from kronlm.archive import archive_read, archive_write, load_model, save_model
from kronlm.autodiff import Tape
from kronlm.corpus import load_corpus
from kronlm.distill import (
    TrainConfig,
    build_batch_loss,
    evaluate_lm,
    perplexity,
    run_phase,
    train_step,
    weights_for_mode,
    Adam,
)
from kronlm.errors import ArchiveError
from kronlm.kronecker import (
    KroneckerPair,
    compression_factor,
    kron,
    kron_matmul,
    nearest_kron,
)
from kronlm.layers import (
    CompressionSchedule,
    DenseLinear,
    KroneckerEmbedding,
    KroneckerLinear,
)
from kronlm.model import GPTConfig, TinyGPTModel, compress_model, count_config_params
from kronlm.tensor_core import Rng

from test_autodiff import materialized_path_grads
from test_distill import attention_oracle, random_trace, trace_losses
from test_kronecker import brute_force_det
from test_layers import dense_forward, embed_lookup, kron_forward


def report(n: int, text: str):
    print(f"\nACCEPTANCE CRITERION {n}: PASS — {text}")


# -- 1: parameter-count reproduction ------------------------------------------------


def test_criterion_01_parameter_counts():
    gpt2_small = GPTConfig(
        n_layers=12, n_heads=12, d_model=768, d_ff=3072,
        vocab_size=50527, max_seq_len=1024, seed=0,
    )
    dense = count_config_params(gpt2_small, exclude_lm_head=True)
    schedule = CompressionSchedule.for_dims(12, 768, 3072, factor=2)
    compressed = count_config_params(gpt2_small, schedule, exclude_lm_head=True)
    assert abs(dense - 124e6) / 124e6 <= 0.02, dense
    assert abs(compressed - 83e6) / 83e6 <= 0.02, compressed
    report(1, f"uncompressed {dense / 1e6:.2f}M (target 124M), "
               f"compressed {compressed / 1e6:.2f}M (target 83M), both within 2%")


# -- 2: compression-factor example ----------------------------------------------------


def test_criterion_02_compression_factor_example():
    cf = compression_factor(1024, 1024, 512, 512, 2, 2)
    assert 3.9 <= cf <= 4.1
    report(2, f"1024x1024 -> (512x512, 2x2) gives factor {cf:.4f} in [3.9, 4.1]")


# -- 3: Kronecker algebra suite --------------------------------------------------------


def test_criterion_03_algebra_suite():
    rng = Rng(303)
    for _ in range(200):
        a, b = rng.normal(2, 3), rng.normal(3, 2)
        assert np.array_equal(kron(a, b).T, kron(a.T, b.T))
    for _ in range(200):
        a = rng.integers(-8, 9, size=(2, 2)).astype(float)
        b = rng.integers(-8, 9, size=(3, 2)).astype(float)
        c = rng.integers(-8, 9, size=(3, 2)).astype(float)
        assert np.array_equal(kron(a, b + c), kron(a, b) + kron(a, c))
    for _ in range(200):
        a, c = rng.normal(2, 3), rng.normal(3, 2)
        b, d = rng.normal(3, 2), rng.normal(2, 3)
        left = kron(a, b) @ kron(c, d)
        right = kron(a @ c, b @ d)
        assert np.linalg.norm(left - right) / max(np.linalg.norm(right), 1e-30) < 1e-9
    for _ in range(200):
        a = rng.normal(2, 2, scale=0.3) + 2 * np.eye(2)
        b = rng.normal(3, 3, scale=0.3) + 3 * np.eye(3)
        prod = kron(a, b) @ kron(np.linalg.inv(a), np.linalg.inv(b))
        assert np.max(np.abs(prod - np.eye(6))) < 1e-6
    for _ in range(200):
        a, b = rng.normal(2, 2), rng.normal(3, 3)
        lhs = brute_force_det(kron(a, b))  # 6x6 product, brute force
        rhs = brute_force_det(a) ** 3 * brute_force_det(b) ** 2
        assert abs(lhs - rhs) / max(abs(rhs), 1e-12) < 1e-6
    report(3, "transpose/distributivity/mixed-product/inverse/determinant, "
               "200 randomized instances each, determinant by brute force")


# -- 4: nearest-Kronecker optimality ---------------------------------------------------


def test_criterion_04_nearest_kron_optimality():
    rng = Rng(404)
    checked = 0
    for n, shapes in ((4, (2, 2, 2, 2)), (6, (3, 2, 2, 3))):
        for _ in range(25):
            w = rng.normal(n, n)
            pair, rep = nearest_kron(w, *shapes)
            cand = Rng(1000 + checked)
            m1, n1, m2, n2 = shapes
            best = min(
                np.linalg.norm(w - kron(cand.normal(m1, n1), cand.normal(m2, n2)))
                for _ in range(1000)
            )
            assert rep.residual_fro <= best + 1e-12, (n, checked)
            checked += 1
    for _ in range(10):
        a0, b0 = rng.normal(3, 2), rng.normal(2, 2)
        _, rep = nearest_kron(kron(a0, b0), 3, 2, 2, 2)
        assert rep.relative_residual <= 1e-6
    report(4, f"{checked} random 4x4/6x6 decompositions beat 1000 random candidates each; "
               "exactly-factorable inputs recover residual <= 1e-6")


# -- 5: factored-path equivalence -------------------------------------------------------


def test_criterion_05_factored_path_equivalence():
    rng = Rng(505)
    # every schedule shape at 1/64 of the published dims
    schedule = CompressionSchedule.for_dims(12, 768 // 64, 3072 // 64, factor=2)
    shape_sets = [schedule.shape_qkv, schedule.shape_wo, schedule.shape_cfc, schedule.shape_cproj]
    for m1, n1, m2, n2 in shape_sets:
        a, b = rng.normal(m1, n1), rng.normal(m2, n2)
        bias = rng.normal(m1 * m2)
        klayer = KroneckerLinear(KroneckerPair(a, b), bias=bias)
        dlayer = DenseLinear(weight=kron(a, b), bias=bias)
        x = rng.normal(50, n1 * n2)
        got, want = kron_forward(klayer, x), dense_forward(dlayer, x)
        assert np.max(np.abs(got - want)) / max(np.max(np.abs(want)), 1e-30) < 1e-9
    v, d, f = 790, 12, 2  # 50527-ish/64 vocabulary rows
    emb = KroneckerEmbedding(a_e=rng.normal(v, d // f), b_e=rng.normal(1, f))
    table = kron(emb.a_e, emb.b_e)
    ids = rng.integers(0, v, size=100)
    got = embed_lookup(emb, ids)
    want = table[ids]
    assert np.max(np.abs(got - want)) / max(np.max(np.abs(want)), 1e-30) < 1e-9
    report(5, "Tape.kron_linear and Tape.kron_embed match materialized oracles within 1e-9 "
               "on all schedule shapes at 1/64 scale")


# -- 6: gradient correctness -------------------------------------------------------------


def test_criterion_06_gradient_correctness():
    from kronlm.autodiff import backward
    from kronlm.kronecker import kron_matmul_grads

    cfg = GPTConfig(n_layers=2, n_heads=2, d_model=8, d_ff=16, vocab_size=16,
                    max_seq_len=10, seed=1)
    teacher = TinyGPTModel.init_random(cfg)
    schedule = CompressionSchedule.for_dims(2, 8, 16, factor=2)
    student, _ = compress_model(teacher, schedule)
    batch = Rng(3).integers(0, 16, size=(2, 8)).astype(np.int64)
    w = weights_for_mode("lm+kd")

    def total_loss():
        tape = Tape()
        params = {n: tape.leaf(a, n) for n, a in student.named_parameters()}
        nodes = student.forward_tape(tape, batch[:, :-1], params)
        total, _ = build_batch_loss(tape, nodes, teacher.forward(batch[:, :-1]),
                                    batch[:, 1:].reshape(-1), w)
        return tape, total

    tape, total = total_loss()
    grads = backward(tape, total)
    named = dict(student.named_parameters())
    rng = np.random.default_rng(0)
    names = list(named)
    h = 1e-5
    checked = 0
    worst = 0.0
    while checked < 24:
        name = names[int(rng.integers(0, len(names)))]
        arr = named[name]
        idx = tuple(int(rng.integers(0, s)) for s in arr.shape)
        orig = arr[idx]
        arr[idx] = orig + h
        _, tp = total_loss()
        arr[idx] = orig - h
        _, tm = total_loss()
        arr[idx] = orig
        fd = (float(tp.value) - float(tm.value)) / (2 * h)
        an = grads[name][idx]
        rel = abs(fd - an) / max(abs(fd), abs(an), 1e-8)
        worst = max(worst, rel)
        assert rel <= 1e-4, (name, idx, rel)
        checked += 1

    # factored gradients equal the materialized-path gradients
    rng2 = Rng(9)
    a, b = rng2.normal(6, 12), rng2.normal(2, 1)
    x = rng2.normal(4, 12)
    up = rng2.normal(4, 12)
    got = kron_matmul_grads(KroneckerPair(a, b), x, up)
    want = materialized_path_grads(a, b, x, up)
    for g, o in zip(got, want):
        assert np.max(np.abs(g - o)) / max(np.max(np.abs(o)), 1e-30) < 1e-9
    report(6, f"end-to-end gradient matches finite differences on {checked} sampled "
               f"parameters (worst rel err {worst:.2e} <= 1e-4); factored == materialized within 1e-9")


# -- 7: loss definitions -------------------------------------------------------------------


def test_criterion_07_loss_definitions():
    # the oracles check build_batch_loss, the one loss every training step uses
    student, (tt, _) = random_trace(Rng(70)), random_trace(Rng(71))
    ts = student[0]
    ids = np.array([1, 3, 0, 2])
    losses = trace_losses(student, tt, ids)

    d = ts.embedding_out - tt.embedding_out
    assert abs(losses["L_emb"] - np.mean(d * d)) < 1e-10

    assert abs(losses["L_att"] - attention_oracle(ts, tt)) < 1e-10

    expected_hid = sum(np.mean((a - b) ** 2) for a, b in zip(ts.hidden, tt.hidden))
    assert abs(losses["L_hid"] - expected_hid) < 1e-10

    z = ts.logits - ts.logits.max(axis=1, keepdims=True)
    logp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    expected_ce = -logp[np.arange(4), ids].mean()
    assert abs(losses["L_ce"] - expected_ce) < 1e-10

    # Eq.-5-style linear combination holds at every logged training step
    cfg = GPTConfig(n_layers=2, n_heads=2, d_model=8, d_ff=16, vocab_size=16,
                    max_seq_len=10, seed=4)
    teacher = TinyGPTModel.init_random(cfg)
    student, _ = compress_model(
        teacher, CompressionSchedule.for_dims(2, 8, 16, factor=2)
    )
    w = weights_for_mode("lm+kd")
    assert (w.alpha1, w.alpha2, w.alpha3, w.alpha4) == (0.5, 0.5, 0.5, 0.1)
    opt = Adam(student.named_parameters(), lr=1e-3)
    batch = Rng(6).integers(0, 16, size=(2, 9)).astype(np.int64)
    for step in range(10):
        m = train_step(student, teacher, batch, w, opt, step_index=step)
        combo = 0.5 * m.L_emb + 0.5 * m.L_att + 0.5 * m.L_hid + 0.1 * m.L_ce
        assert abs(m.L_total - combo) < 1e-9
    report(7, "component losses match formula oracles within 1e-10; weighted-sum "
               "identity holds at every step with weights (0.5, 0.5, 0.5, 0.1)")


# -- 8 and 9: the desk-scale training study ---------------------------------------------

STUDY_STEPS = 800
STUDY_CONFIG = dict(batch_size=8, learning_rate=1e-3, steps=STUDY_STEPS, seq_len=64)


@pytest.fixture(scope="module")
def training_study(tmp_path_factory):
    """Shared fixture: teacher trained from scratch, students trained per mode.

    The teacher and every student get the identical budget (steps, batch,
    learning rate, sequence length) with pinned seeds.
    """
    root = tmp_path_factory.mktemp("study")
    corpus_path = root / "corpus.txt"
    corpus_path.write_bytes(synth_corpus_bytes(1_200_000, seed=1))
    corpus = load_corpus(corpus_path, val_ratio=0.05)
    assert len(corpus.tokens) >= 1_000_000

    cfg = GPTConfig(n_layers=4, n_heads=4, d_model=64, d_ff=256, vocab_size=256,
                    max_seq_len=128, seed=0)
    tc = TrainConfig(seed=1, **STUDY_CONFIG)

    def held_out_ce(model):
        return evaluate_lm(model, corpus.val, seq_len=64, max_windows=80)

    teacher = TinyGPTModel.init_random(cfg)
    run_phase(teacher, None, corpus.train, tc, weights_for_mode("lm"))
    ce = {"teacher": held_out_ce(teacher)}
    teacher_hash = teacher.state_hash()

    schedule = CompressionSchedule.for_dims(4, 64, 256, factor=2)
    student0, _ = compress_model(teacher, schedule)
    ce["none"] = held_out_ce(student0)

    # the three arms are independent: train them in two worker processes,
    # longest first, and take each trained student back through a checkpoint
    save_model(teacher, root / "teacher.knz")
    save_model(student0, root / "student0.knz")
    modes = ("lm+kd", "kd", "lm")
    jobs = [(mode, root, corpus.train, tc) for mode in modes]
    with multiprocessing.get_context("spawn").Pool(2) as pool:
        teacher_hashes = pool.starmap(_train_arm, jobs)
    assert teacher_hashes == [teacher_hash] * len(modes)  # frozen across all phases
    students = {mode: load_model(root / f"{mode}.knz") for mode in modes}
    ce.update((mode, held_out_ce(s)) for mode, s in students.items())
    return {"ce": ce, "teacher": teacher, "students": students, "corpus": corpus}


def _train_arm(mode, root, train_tokens, tc):
    """Worker: train one student arm from the checkpoints in ``root``, write
    it to ``root/<mode>.knz`` and return the teacher's hash after training.
    The worker inherits the pinned BLAS thread count through the environment."""
    warnings.simplefilter("error", RuntimeWarning)  # as the suite's filterwarnings
    teacher = load_model(root / "teacher.knz")
    student = load_model(root / "student0.knz")
    run_phase(student, teacher, train_tokens, tc, weights_for_mode(mode))
    save_model(student, root / f"{mode}.knz")
    return teacher.state_hash()


@pytest.mark.study
def test_criterion_08_ablation_ordering(training_study):
    ce = training_study["ce"]
    assert ce["lm+kd"] <= 0.8 * ce["none"], ce
    assert ce["lm"] < ce["none"], ce
    assert ce["kd"] < ce["none"], ce
    margin = 100 * (1 - ce["lm+kd"] / ce["none"])
    report(8, "held-out LM loss ordering: "
               f"none {ce['none']:.3f}, lm {ce['lm']:.3f}, kd {ce['kd']:.3f}, "
               f"lm+kd {ce['lm+kd']:.3f}; lm+kd beats none by {margin:.0f}% (>= 20% required)")


@pytest.mark.study
def test_criterion_09_student_within_15pct_of_teacher(training_study):
    ce = training_study["ce"]
    ppl_teacher = perplexity(ce["teacher"])
    ppl_student = perplexity(ce["lm+kd"])
    ratio = ppl_student / ppl_teacher
    assert ratio <= 1.15, (ppl_student, ppl_teacher)
    report(9, f"compressed+ILKD student perplexity {ppl_student:.2f} vs its identically "
               f"trained dense teacher {ppl_teacher:.2f} (ratio {ratio:.3f} <= 1.15); "
               "full-scale benchmark results are out of scope at this model size")


@pytest.mark.study
def test_trained_models_well_below_uniform_perplexity(training_study):
    # byte vocabulary: an untrained model sits at ppl ~256; trained desk
    # models must at least halve that
    for tag in ("teacher", "lm", "kd", "lm+kd"):
        assert perplexity(training_study["ce"][tag]) < 0.5 * 256, tag


@pytest.mark.study
def test_kd_only_matches_teacher_traces_better_than_none(training_study):
    # KD training must pull the student's traces toward the teacher's far
    # beyond what decomposition alone gives. The hidden/attention components
    # carry this; the embedding component alone cannot improve, because the
    # nearest-Kronecker init is already that component's optimum and joint
    # training trades a sliver of it away.
    corpus = training_study["corpus"]
    teacher = training_study["teacher"]
    student_kd = training_study["students"]["kd"]
    schedule = CompressionSchedule.for_dims(4, 64, 256, factor=2)
    student_none, _ = compress_model(teacher, schedule)
    emb = {"kd": 0.0, "none": 0.0}
    att = {"kd": 0.0, "none": 0.0}
    hid = {"kd": 0.0, "none": 0.0}
    w = weights_for_mode("kd")
    for i in range(8):
        window = corpus.val[i * 64 : (i + 1) * 64 + 1].astype(np.int64)
        t_trace = teacher.forward(window[:-1])
        for tag, model in (("kd", student_kd), ("none", student_none)):
            tape = Tape()
            nodes = model.forward_tape(tape, window[:-1])
            _, losses = build_batch_loss(tape, nodes, t_trace, window[1:], w)
            emb[tag] += losses["L_emb"]
            att[tag] += losses["L_att"]
            hid[tag] += losses["L_hid"]
    assert hid["kd"] < hid["none"]
    assert att["kd"] < att["none"]
    combined = {t: 0.5 * (emb[t] + att[t] + hid[t]) for t in ("kd", "none")}
    assert combined["kd"] < 0.1 * combined["none"]
    # embedding stays in the close neighborhood of its decomposition floor
    assert emb["kd"] < 10 * max(emb["none"], 1e-9)


# -- 10: archive robustness -----------------------------------------------------------------


def test_criterion_10_archive_robustness(tmp_path):
    rng = np.random.default_rng(10)
    path = tmp_path / "fuzz.knz"
    for trial in range(100):
        tensors = []
        for k in range(int(rng.integers(0, 5))):
            rank = int(rng.integers(0, 4))
            dims = tuple(int(d) for d in rng.integers(1, 6, size=rank))
            dtype = np.float32 if rng.random() < 0.5 else np.float64
            name = f"t{trial}_{k}_" + "x" * int(rng.integers(0, 30))
            tensors.append((name, rng.standard_normal(dims).astype(dtype)))
        archive_write(path, tensors)
        back = archive_read(path)
        assert list(back) == [n for n, _ in tensors]
        for name, arr in tensors:
            assert back[name].tobytes() == arr.tobytes()
            assert back[name].dtype == arr.dtype and back[name].shape == arr.shape

    sample = tmp_path / "sample.knz"
    archive_write(sample, {"w": Rng(1).normal(3, 4), "b": Rng(2).normal(4).astype(np.float32)})
    data = bytearray(sample.read_bytes())
    corrupt = tmp_path / "corrupt.knz"
    detected = 0
    for pos in range(len(data)):
        mutated = bytearray(data)
        mutated[pos] ^= 0x5A
        corrupt.write_bytes(bytes(mutated))
        try:
            archive_read(corrupt)
        except ArchiveError:
            detected += 1
    assert detected == len(data)
    report(10, f"100 randomized archives round-trip bit-exact; all {detected} single-byte "
                "corruptions detected")
