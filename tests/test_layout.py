"""Property tests: the parameter layout agrees with every model it describes."""

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import stored_param_count
from kronlm.archive import load_model, save_model
from kronlm.layers import CompressionSchedule
from kronlm.model import (
    GPTConfig,
    TinyGPTModel,
    compress_model,
    count_config_params,
    layer_tensors,
    param_layout,
)


@st.composite
def configs_and_schedules(draw):
    n_heads = draw(st.integers(1, 2))
    cfg = GPTConfig(
        n_layers=draw(st.integers(1, 3)),
        n_heads=n_heads,
        d_model=2 * n_heads * draw(st.integers(1, 3)),  # even, so every factor plans
        d_ff=2 * draw(st.integers(1, 6)),
        vocab_size=draw(st.integers(2, 12)),
        max_seq_len=draw(st.integers(1, 6)),
        seed=draw(st.integers(0, 2**16)),
    )
    if draw(st.booleans()):
        return cfg, None
    schedule = CompressionSchedule.for_dims(
        cfg.n_layers, cfg.d_model, cfg.d_ff,
        factor=draw(st.sampled_from([2, 4])),
        layers=draw(st.sampled_from(["odd", "even", "all", ()])),
        compress_embedding=draw(st.booleans()),
        embedding_factor=draw(st.sampled_from([1, 2])),
        include_wo=draw(st.booleans()),
    )
    return cfg, schedule


@settings(max_examples=25, derandomize=True, database=None, deadline=None)
@given(configs_and_schedules())
def test_layout_matches_models_counts_and_checkpoints(tmp_path_factory, case):
    cfg, schedule = case
    model = TinyGPTModel.init_random(cfg)
    if schedule is not None:
        model, _ = compress_model(model, schedule)
    for exclude in (False, True):
        assert count_config_params(cfg, schedule, exclude) == stored_param_count(model, exclude)
    layout = [t for layer in param_layout(cfg)
              for t in layer_tensors(layer, schedule and schedule.factor_shapes(layer))]
    assert layout == [(name, arr.shape) for name, arr in model.named_parameters()]
    d = tmp_path_factory.mktemp("ckpt")
    save_model(model, d / "a.knz")
    save_model(load_model(d / "a.knz"), d / "b.knz")
    assert (d / "a.knz").read_bytes() == (d / "b.knz").read_bytes()
