"""Initialization, the optimizer update, and training dynamics."""

import math
import time

import numpy as np
import pytest

from conftest import count_tensors, make_params
from codesum.checkpoint import load, save
from codesum.corpus.dataset import MethodExample
from codesum.corpus.vocabulary import NAME_END, build_vocabulary
from codesum.decoder import suggest
from codesum.errors import (
    EmptyTrainingSet,
    InvalidConfig,
    NonFiniteGradient,
)
from codesum.evaluation import evaluate_model, score_suggestions
from codesum.model import (
    encode_snippet,
    next_state,
    param_shapes,
    step_fn,
    step_loss,
)
from codesum.trainer import (
    CLIP_NORM,
    EPSILON,
    INIT_SIGMA,
    MOMENTUM,
    RMS_DECAY,
    OptimizerState,
    TrainConfig,
    clip_global_norm,
    example_loss,
    init_params,
    masked_view,
    preset,
    sgd_update,
    target_counts,
    train,
)


def ex(name, body, file_path="f.java"):
    return MethodExample(name=name, body=body, file_path=file_path, project="p")


def tiny_cfg(**kw):
    base = dict(model_kind="copy_attention", D=4, k1=3, k2=3, w1=2, w2=2, w3=2,
                dropout_rate=0.0, epochs=3, eval_every=1, min_count=1, seed=0,
                learning_rate=1e-3)
    base.update(kw)
    return preset(base.pop("model_kind"), **base)


class TestPresets:
    def test_copy_preset(self):
        cfg = preset("copy_attention")
        assert (cfg.k1, cfg.k2, cfg.w1, cfg.w2, cfg.w3) == (32, 16, 18, 19, 2)
        assert cfg.dropout_rate == 0.4
        assert cfg.D == 128

    def test_conv_preset(self):
        cfg = preset("conv_attention")
        assert (cfg.k1, cfg.k2, cfg.w1, cfg.w2, cfg.w3) == (8, 8, 24, 29, 10)
        assert cfg.dropout_rate == 0.5
        assert cfg.D == 128

    def test_round_trip_dict(self):
        cfg = preset("conv_attention", epochs=7)
        again = TrainConfig.from_dict(cfg.to_dict())
        assert again == cfg

    def test_copy_preset_is_the_defaults(self):
        assert preset("copy_attention") == TrainConfig()

    def test_unknown_kind(self):
        with pytest.raises(InvalidConfig, match="model_kind"):
            preset("bogus")

    def test_validation(self):
        with pytest.raises(ValueError):
            preset("copy_attention", dropout_rate=1.0)
        with pytest.raises(ValueError):
            preset("copy_attention", state_kind="simple")

    @pytest.mark.parametrize("key, value", [
        ("seed", 1.5), ("w3", 2.0), ("epochs", True), ("D", "8"),
        ("dropout_rate", False), ("learning_rate", "1e-3"), ("learning_rate", None),
        ("stop_exact_at_1", "0.5"), ("model_kind", 1),
    ])
    def test_field_of_wrong_type(self, key, value):
        with pytest.raises(InvalidConfig, match=f"^{key} must be"):
            TrainConfig(**{key: value}).validate()

    @pytest.mark.parametrize("key, value", [
        ("learning_rate", 0), ("dropout_rate", np.float32(0.25)),
        ("seed", np.int64(3)), ("stop_exact_at_1", 1), ("stop_exact_at_1", None),
    ])
    def test_field_of_compatible_type(self, key, value):
        TrainConfig(**{key: value}).validate()


class TestInitParams:
    def vocab(self):
        return build_vocabulary(
            [ex(["get", "x"], ["{", "x", "}"]), ex(["get"], ["{", "}"])],
            min_count=1)

    def test_bias_is_log_frequency_with_smoothing(self):
        vocab = self.vocab()
        counts = target_counts([ex(["get", "x"], []), ex(["get"], [])])
        cfg = tiny_cfg()
        params = init_params(cfg, vocab, counts, np.random.default_rng(0))
        total = sum(counts.values())  # includes one end marker per name
        v = len(vocab)
        assert params.b.data[vocab.id("get")] == pytest.approx(
            math.log((2 + 1) / (total + v)))
        assert params.b.data[vocab.id("x")] == pytest.approx(
            math.log((1 + 1) / (total + v)))

    def test_unseen_token_bias_finite(self):
        vocab = self.vocab()
        params = init_params(tiny_cfg(), vocab, target_counts([]), np.random.default_rng(0))
        assert np.all(np.isfinite(params.b.data))
        assert params.b.data[vocab.pad_id] == pytest.approx(math.log(1 / len(vocab)))

    def test_equal_counts_equal_bias(self):
        vocab = self.vocab()
        counts = target_counts([ex(["get"], []), ex(["x"], [])])
        params = init_params(tiny_cfg(), vocab, counts, np.random.default_rng(0))
        assert params.b.data[vocab.id("get")] == params.b.data[vocab.id("x")]

    def test_bias_exponentials_sum_to_one(self):
        vocab = self.vocab()
        counts = target_counts([ex(["get", "x"], []), ex(["get"], [])])
        params = init_params(tiny_cfg(), vocab, counts, np.random.default_rng(0))
        assert np.exp(params.b.data).sum() == pytest.approx(1.0, abs=1e-6)

    def test_noise_scale(self):
        vocab = self.vocab()
        cfg = preset("copy_attention")  # K_l1 alone has 128*18*32 entries
        params = init_params(cfg, vocab, target_counts([]), np.random.default_rng(0))
        draws = params.K_l1.data.ravel()
        assert draws.size >= 10_000
        assert 0.08 <= draws.std() <= 0.12
        assert abs(draws.mean()) < 0.01
        assert INIT_SIGMA == 0.1

    def test_prelu_leaks_start_at_quarter(self):
        params = init_params(tiny_cfg(), self.vocab(), target_counts([]), np.random.default_rng(0))
        assert float(params.prelu_a1.data) == 0.25

    @pytest.mark.parametrize("model_kind", ["conv_attention", "copy_attention"])
    def test_every_builder_follows_param_shapes(self, model_kind, tmp_path):
        vocab = self.vocab()
        # distinct sizes, so a transposed dimension cannot pass unnoticed
        cfg = tiny_cfg(model_kind=model_kind, D=5, k1=4, k2=3, w1=6, w2=7, w3=2)
        copy = model_kind == "copy_attention"
        table = param_shapes(len(vocab), cfg.D, cfg.k1, cfg.k2, cfg.w1, cfg.w2,
                             cfg.w3, copy)

        def layout(p):
            return [(name, t.shape) for name, t in p.named_tensors()]

        params = init_params(cfg, vocab, target_counts([]), np.random.default_rng(3))
        assert layout(params) == table
        assert layout(masked_view(params, 0.5, np.random.default_rng(4))) == table
        assert layout(make_params(len(vocab), cfg.D, cfg.k1, cfg.k2, cfg.w1, cfg.w2,
                                  cfg.w3)) == param_shapes(
            len(vocab), cfg.D, cfg.k1, cfg.k2, cfg.w1, cfg.w2, cfg.w3, copy=True)
        save(params, vocab, cfg, tmp_path / "m.ckpt")
        assert layout(load(tmp_path / "m.ckpt")[0]) == table

        # Initialization and dropout draw one array per table entry, in order.
        ref = np.random.default_rng(3)
        for name, t in params.named_tensors():
            if name not in ("b", "prelu_a1"):
                want = ref.normal(0.0, INIT_SIGMA, size=t.shape)
                assert t.data.tobytes() == want.tobytes(), name
        view = masked_view(params, 0.5, np.random.default_rng(4))
        ref = np.random.default_rng(4)
        for (name, t), (_, dropped) in zip(params.named_tensors(), view.named_tensors()):
            mask = (ref.random(t.shape) >= 0.5) * 2.0
            assert dropped.data.tobytes() == (t.data * mask).tobytes(), name


def temporaries_sgd_update(params, grads, opt_state, cfg):
    """Reference: the update rule as plain expressions, a fresh array per term."""
    norm = clip_global_norm(grads, CLIP_NORM)
    for name, t in params.named_tensors():
        g, a, v = grads[name], opt_state.sq[name], opt_state.mom[name]
        a *= RMS_DECAY
        a += (1.0 - RMS_DECAY) * g * g
        s = g / np.sqrt(a + EPSILON)
        v *= MOMENTUM
        v += s
        t.data -= cfg.learning_rate * (s + MOMENTUM * v)
    return norm


class TestSgdUpdate:
    def one_param(self, value=1.0):
        params = make_params(8, d=2, k1=2, k2=2)
        for _, t in params.named_tensors():
            t.data[:] = 0.0
        params.h_init.data[:] = value
        return params

    def test_zero_gradient_keeps_parameters(self):
        params = make_params(8)
        before = {n: t.data.copy() for n, t in params.named_tensors()}
        state = OptimizerState.for_params(params)
        grads = {n: np.zeros_like(t.data) for n, t in params.named_tensors()}
        sgd_update(params, grads, state, tiny_cfg())
        for n, t in params.named_tensors():
            np.testing.assert_array_equal(t.data, before[n])

    def test_global_norm_clipping(self):
        grads = {"a": np.array([6.0, 8.0])}  # norm 10
        total = clip_global_norm(grads, 5.0)
        assert total == pytest.approx(10.0)
        np.testing.assert_allclose(grads["a"], [3.0, 4.0])

    def test_update_returns_the_norm_before_clipping(self):
        params = make_params(8)
        state = OptimizerState.for_params(params)
        grads = {n: np.zeros_like(t.data) for n, t in params.named_tensors()}
        grads["h_init"][:2] = [6.0 * CLIP_NORM, 8.0 * CLIP_NORM]  # norm 10 * CLIP_NORM
        assert sgd_update(params, grads, state, tiny_cfg()) == 10.0 * CLIP_NORM
        np.testing.assert_allclose(grads["h_init"][:2], [0.6 * CLIP_NORM, 0.8 * CLIP_NORM])

    def test_no_clip_below_threshold(self):
        grads = {"a": np.array([0.3, 0.4])}
        clip_global_norm(grads, 5.0)
        np.testing.assert_allclose(grads["a"], [0.3, 0.4])

    def test_two_steps_match_hand_computation(self):
        # Single scalar parameter.  The gradients' norms, 2 and 1, stay
        # below CLIP_NORM, so neither step is clipped.
        assert CLIP_NORM > 2.0
        lr, rho, mu, eps = 0.1, RMS_DECAY, MOMENTUM, EPSILON
        cfg = tiny_cfg(learning_rate=lr)
        params = make_params(8)
        names = [n for n, _ in params.named_tensors()]
        state = OptimizerState.for_params(params)
        theta0 = float(params.h_init.data[0])

        def grads_with(value):
            g = {n: np.zeros_like(t.data) for n, t in params.named_tensors()}
            g["h_init"][0] = value
            return g

        # step 1: g=2 -> a=(1-rho)*4; s=2/sqrt(a+eps); v=s; step=lr*(s+mu*v)
        sgd_update(params, grads_with(2.0), state, cfg)
        a1 = (1 - rho) * 4.0
        s1 = 2.0 / math.sqrt(a1 + eps)
        v1 = s1
        theta1 = theta0 - lr * (s1 + mu * v1)
        assert float(params.h_init.data[0]) == pytest.approx(theta1, rel=1e-12)

        # step 2: g=-1 -> a=rho*a1+(1-rho)*1; s=-1/sqrt(a+eps); v=mu*v1+s
        sgd_update(params, grads_with(-1.0), state, cfg)
        a2 = rho * a1 + (1 - rho) * 1.0
        s2 = -1.0 / math.sqrt(a2 + eps)
        v2 = mu * v1 + s2
        theta2 = theta1 - lr * (s2 + mu * v2)
        assert float(params.h_init.data[0]) == pytest.approx(theta2, rel=1e-12)
        assert set(names) == set(state.sq)

    def test_equals_the_rule_written_with_temporaries(self):
        # The scratch-array update runs the rule's operations in the same
        # order, so parameters and optimizer buffers stay byte-identical.
        rng = np.random.default_rng(5)
        got = make_params(9, d=3, rng=np.random.default_rng(1))
        want = make_params(9, d=3, rng=np.random.default_rng(1))
        got_state, want_state = OptimizerState.for_params(got), OptimizerState.for_params(want)
        cfg = tiny_cfg(learning_rate=0.01)
        for scale in (0.1, 3.0, 0.01, 10.0):  # some steps are clipped, some not
            grads = {n: rng.normal(size=t.shape) * scale for n, t in got.named_tensors()}
            sgd_update(got, {n: g.copy() for n, g in grads.items()}, got_state, cfg)
            temporaries_sgd_update(want, grads, want_state, cfg)
        for name, t in want.named_tensors():
            assert dict(got.named_tensors())[name].data.tobytes() == t.data.tobytes(), name
            assert got_state.sq[name].tobytes() == want_state.sq[name].tobytes(), name
            assert got_state.mom[name].tobytes() == want_state.mom[name].tobytes(), name

    def test_nonfinite_gradient_raises(self):
        params = make_params(8)
        state = OptimizerState.for_params(params)
        grads = {n: np.zeros_like(t.data) for n, t in params.named_tensors()}
        grads["E"][0, 0] = np.nan
        with pytest.raises(NonFiniteGradient):
            sgd_update(params, grads, state, tiny_cfg())

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_nonfinite_gradient_changes_nothing(self, bad):
        params = make_params(8)
        state = OptimizerState.for_params(params)
        before = {n: t.data.copy() for n, t in params.named_tensors()}
        grads = {n: np.full(t.shape, 10.0) for n, t in params.named_tensors()}
        grads["h_init"][1] = bad  # the norm would be clipped if it were finite
        with pytest.raises(NonFiniteGradient):
            sgd_update(params, grads, state, tiny_cfg())
        assert grads["E"][0, 0] == 10.0  # not scaled before the raise
        for name, t in params.named_tensors():
            assert t.data.tobytes() == before[name].tobytes(), name
            assert not np.any(state.sq[name]) and not np.any(state.mom[name]), name

    def test_step_norm_bound(self):
        # One clipped update from a fresh state cannot move farther than
        # lr * (1 + MOMENTUM) * CLIP_NORM / sqrt(EPSILON).
        cfg = tiny_cfg(learning_rate=0.05)
        params = make_params(8)
        state = OptimizerState.for_params(params)
        before = {n: t.data.copy() for n, t in params.named_tensors()}
        rng = np.random.default_rng(0)
        grads = {n: rng.normal(size=t.data.shape) * 1e6
                 for n, t in params.named_tensors()}
        sgd_update(params, grads, state, cfg)
        moved = math.sqrt(sum(
            float(((t.data - before[n]) ** 2).sum())
            for n, t in params.named_tensors()))
        bound = cfg.learning_rate * (1 + MOMENTUM) * CLIP_NORM / math.sqrt(EPSILON)
        assert moved <= bound


class TestDropoutMask:
    def test_masked_view_scales_survivors(self, rng):
        params = make_params(8)
        view = masked_view(params, 0.5, np.random.default_rng(0))
        ratio = view.E.data / np.where(params.E.data == 0, 1, params.E.data)
        kept = ratio[view.E.data != 0]
        np.testing.assert_allclose(kept, 2.0)

    def test_gradients_flow_to_leaves(self, rng):
        params = make_params(8)
        view = masked_view(params, 0.3, np.random.default_rng(1))
        from codesum.tensorcore import tsum

        tsum(view.E).backward()
        assert params.E.grad is not None
        # dropped entries receive zero gradient, survivors the scale
        scale = 1.0 / 0.7
        vals = set(np.unique(np.round(params.E.grad, 10)))
        assert vals <= {0.0, round(scale, 10)}

    @pytest.mark.parametrize("model_kind, n_params", [("copy_attention", 18),
                                                      ("conv_attention", 16)])
    def test_one_tensor_per_parameter(self, monkeypatch, model_kind, n_params):
        # A mask is an array next to its parameter: the product is the
        # only Tensor made, and the mask is not wrapped in one.
        cfg = tiny_cfg(model_kind=model_kind)
        vocab = build_vocabulary([ex(["get", "x"], ["{", "x", "}"])], min_count=1)
        params = init_params(cfg, vocab, target_counts([]), np.random.default_rng(3))
        made = count_tensors(monkeypatch)
        view = masked_view(params, 0.5, np.random.default_rng(4))
        assert len(list(params.named_tensors())) == n_params
        assert made == [t for _, t in view.named_tensors()]


class TestTraining:
    def corpus(self, n=12):
        names = [["get", "x"], ["set", "y"], ["run"]]
        out = []
        for i in range(n):
            nm = names[i % len(names)]
            out.append(ex(nm, ["{", *nm, f"u{i}", ";", "}"], file_path=f"f{i}.java"))
        return out

    def test_empty_training_set(self):
        with pytest.raises(EmptyTrainingSet):
            train([], [], tiny_cfg())

    def test_frozen_dynamics_with_zero_lr_and_dropout(self):
        examples = self.corpus(6)
        cfg = tiny_cfg(learning_rate=0.0, dropout_rate=0.0, epochs=3,
                       eval_every=10)
        result = train(examples, [], cfg)
        nlls = [e["train_nll"] for e in result.log]
        assert nlls[0] == pytest.approx(nlls[1]) == pytest.approx(nlls[2])

    def test_loss_decreases_when_training(self):
        examples = self.corpus(12)
        cfg = tiny_cfg(epochs=8, learning_rate=3e-3, eval_every=8)
        result = train(examples, [], cfg)
        nlls = [e["train_nll"] for e in result.log]
        assert nlls[-1] < nlls[0]

    def test_determinism_same_seed(self):
        examples = self.corpus(6)
        cfg = tiny_cfg(epochs=2, dropout_rate=0.25, seed=9, eval_every=5)
        a = train(examples, [], cfg)
        b = train(examples, [], cfg)
        assert [e["train_nll"] for e in a.log] == [e["train_nll"] for e in b.log]
        for (n1, t1), (n2, t2) in zip(a.params.named_tensors(), b.params.named_tensors()):
            assert n1 == n2
            np.testing.assert_array_equal(t1.data, t2.data)

    def test_example_loss_deterministic_without_dropout(self):
        examples = self.corpus(3)
        vocab = build_vocabulary(examples, min_count=1)
        cfg = tiny_cfg()
        params = init_params(cfg, vocab, target_counts(examples), np.random.default_rng(0))
        sn = encode_snippet(examples[0].body, vocab)
        l1 = float(example_loss(params, sn, examples[0].name, vocab, cfg).data)
        l2 = float(example_loss(params, sn, examples[0].name, vocab, cfg).data)
        assert l1 == l2

    @pytest.mark.parametrize("model_kind", ["conv_attention", "copy_attention"])
    def test_every_parameter_gets_a_gradient(self, model_kind):
        # A tensor the forward pass never reads would keep a zero gradient
        # yet still cost a dropout mask, optimizer buffers and a checkpoint slot.
        examples = self.corpus(3)
        vocab = build_vocabulary(examples, min_count=1)
        cfg = tiny_cfg(model_kind=model_kind)
        params = init_params(cfg, vocab, target_counts(examples), np.random.default_rng(0))
        sn = encode_snippet(examples[0].body, vocab)
        example_loss(params, sn, examples[0].name, vocab, cfg).backward()
        named = list(params.named_tensors())
        assert len(named) == {"conv_attention": 16, "copy_attention": 18}[model_kind]
        for name, t in named:
            assert t.grad is not None and np.any(t.grad != 0.0), name

    def test_nonfinite_loss_is_skipped_and_counted(self, monkeypatch):
        import codesum.trainer as trainer_mod

        real_step_loss = trainer_mod.step_loss

        def nan_for_u0(step, target, snippet, vocab, vocab_row):
            loss = real_step_loss(step, target, snippet, vocab, vocab_row)
            return loss * math.nan if "u0" in snippet.surface else loss

        monkeypatch.setattr(trainer_mod, "step_loss", nan_for_u0)
        examples = self.corpus(6)  # only examples[0] has "u0" in its body
        result = train(examples, [], tiny_cfg(epochs=2, eval_every=5))
        assert result.skipped_examples == 2  # once per epoch
        assert [e["skipped"] for e in result.log] == [1, 1]
        assert len(result.log) == 2
        assert all(math.isfinite(e["train_nll"]) for e in result.log)
        for _, t in result.params.named_tensors():
            assert np.all(np.isfinite(t.data))

    def test_nonfinite_gradient_is_skipped_and_counted(self, monkeypatch):
        import codesum.trainer as trainer_mod

        real_collect = trainer_mod._collect_grads
        calls = []

        def nan_on_first_call(params):
            grads = real_collect(params)
            calls.append(1)
            if len(calls) == 1:
                grads["E"][0, 0] = np.nan
            return grads

        monkeypatch.setattr(trainer_mod, "_collect_grads", nan_on_first_call)
        result = train(self.corpus(6), [], tiny_cfg(epochs=1, eval_every=5))
        assert result.skipped_examples == 1
        for _, t in result.params.named_tensors():
            assert np.all(np.isfinite(t.data))

    def test_skipped_last_example_still_flushes_the_window(self, monkeypatch):
        import codesum.trainer as trainer_mod

        real_loss = trainer_mod.example_loss
        real_update = trainer_mod.sgd_update
        losses, updates = [], []

        def nan_for_last(*args, **kwargs):
            losses.append(1)
            loss = real_loss(*args, **kwargs)
            return loss * math.nan if len(losses) == 6 else loss

        def counting_update(*args):
            updates.append(1)
            return real_update(*args)

        monkeypatch.setattr(trainer_mod, "example_loss", nan_for_last)
        monkeypatch.setattr(trainer_mod, "sgd_update", counting_update)
        result = train(self.corpus(6), [], tiny_cfg(epochs=1, minibatch=4, eval_every=5))
        assert result.skipped_examples == 1
        assert len(updates) == 2  # one full window of 4, then the open window of 1

    def test_epoch_with_no_applied_example_has_no_train_nll(self, monkeypatch):
        import codesum.trainer as trainer_mod

        real_collect = trainer_mod._collect_grads

        def all_nan(params):
            grads = real_collect(params)
            grads["E"][0, 0] = np.nan
            return grads

        monkeypatch.setattr(trainer_mod, "_collect_grads", all_nan)
        result = train(self.corpus(6), [], tiny_cfg(epochs=1, eval_every=5))
        assert result.skipped_examples == 6
        assert result.log[0]["skipped"] == 6
        assert result.log[0]["train_nll"] is None
        for key in ("grad_norm_mean", "grad_norm_max", "clipped_frac"):
            assert result.log[0][key] is None

    def test_uncopied_gradients_train_as_copied_ones(self, monkeypatch):
        import codesum.trainer as trainer_mod

        def copying_collect(params):
            """Reference: every gradient copied out of its leaf."""
            return {name: (t.grad.copy() if t.grad is not None else np.zeros_like(t.data))
                    for name, t in params.named_tensors()}

        # Windows of two sum one example's arrays into another's in place.
        cfg = tiny_cfg(epochs=2, minibatch=2, dropout_rate=0.4, eval_every=5)
        got = train(self.corpus(5), [], cfg)
        monkeypatch.setattr(trainer_mod, "_collect_grads", copying_collect)
        want = train(self.corpus(5), [], cfg)
        assert got.log[-1]["train_nll"] == want.log[-1]["train_nll"]
        for (name, a), (_, b) in zip(got.params.named_tensors(), want.params.named_tensors()):
            assert a.data.tobytes() == b.data.tobytes(), name

    def test_validation_early_stopping_runs(self):
        examples = self.corpus(9)
        cfg = tiny_cfg(epochs=4, eval_every=1, patience=2,
                       learning_rate=2e-3)
        result = train(examples[:6], examples[6:], cfg)
        assert result.log[0]["valid_f1_at_5"] is not None
        assert result.best_epoch >= 1

    def test_log_schema(self):
        examples = self.corpus(4)
        result = train(examples, examples[:2], tiny_cfg(epochs=1))
        entry = result.log[0]
        assert set(entry) == {"epoch", "train_nll", "valid_f1_at_5",
                              "valid_exact_at_1", "grad_norm_mean",
                              "grad_norm_max", "clipped_frac", "skipped",
                              "examples_per_s", "valid_seconds", "seconds"}
        assert 0.0 < entry["grad_norm_mean"] <= entry["grad_norm_max"]
        assert math.isfinite(entry["grad_norm_max"])
        assert 0.0 <= entry["clipped_frac"] <= 1.0
        assert entry["skipped"] == 0
        assert 0.0 < entry["examples_per_s"] < math.inf
        assert 0.0 < entry["valid_seconds"] <= entry["seconds"]

    def test_examples_per_s_leaves_out_validation(self, monkeypatch):
        import codesum.trainer as trainer_mod

        real_evaluate = trainer_mod.evaluate_model

        def slow_evaluate(*args, **kwargs):
            time.sleep(0.3)
            return real_evaluate(*args, **kwargs)

        monkeypatch.setattr(trainer_mod, "evaluate_model", slow_evaluate)
        examples = self.corpus(4)
        entry = train(examples, examples[:2], tiny_cfg(epochs=1)).log[0]
        assert len(examples) / entry["examples_per_s"] <= entry["seconds"] - 0.3

    def test_valid_seconds_is_the_validation_time(self, monkeypatch):
        import codesum.trainer as trainer_mod

        real_evaluate = trainer_mod.evaluate_model

        def slow_evaluate(*args, **kwargs):
            time.sleep(0.3)
            return real_evaluate(*args, **kwargs)

        monkeypatch.setattr(trainer_mod, "evaluate_model", slow_evaluate)
        examples = self.corpus(4)
        first, second = train(examples, examples[:2], tiny_cfg(epochs=2, eval_every=2)).log
        assert first["valid_f1_at_5"] is None and first["valid_seconds"] == 0.0
        assert second["valid_f1_at_5"] is not None
        train_seconds = len(examples) / second["examples_per_s"]
        assert 0.3 <= second["valid_seconds"] <= second["seconds"] - train_seconds

    def test_each_gradient_is_scanned_for_nan_once(self, monkeypatch):
        import codesum.trainer as trainer_mod

        examples = self.corpus(4)
        cfg = tiny_cfg(epochs=2, eval_every=5)
        e_shape = (len(build_vocabulary(examples, min_count=cfg.min_count)), cfg.D)
        scanned = []
        real_isfinite = np.isfinite

        def recording_isfinite(x, *args, **kwargs):
            if np.shape(x) == e_shape:
                scanned.append(1)
            return real_isfinite(x, *args, **kwargs)

        monkeypatch.setattr(trainer_mod.np, "isfinite", recording_isfinite)
        result = train(examples, [], cfg)
        monkeypatch.undo()
        assert result.skipped_examples == 0
        assert len(scanned) == 2 * len(examples)  # one scan of E per example

    def test_epoch_that_improves_and_reaches_exact_target_snapshots_once(self, monkeypatch):
        import codesum.trainer as trainer_mod

        snapshots = []
        real_snapshot = trainer_mod._snapshot

        def recording_snapshot(params):
            snapshots.append(real_snapshot(params))
            return snapshots[-1]

        monkeypatch.setattr(trainer_mod, "_snapshot", recording_snapshot)
        examples = self.corpus(6)
        # Any F1 improves on epoch 1, and any exact@1 reaches 0.
        result = train(examples[:4], examples[4:], tiny_cfg(epochs=3, stop_exact_at_1=0.0))
        assert len(result.log) == 1 and result.best_epoch == 1
        assert len(snapshots) == 1
        for name, t in result.params.named_tensors():
            assert t.data.tobytes() == snapshots[0][name].tobytes(), name

    @pytest.mark.parametrize("clip_norm, clipped", [(1e-9, 1.0), (1e9, 0.0)])
    def test_grad_norm_fields_summarize_the_updates(self, monkeypatch, clip_norm,
                                                    clipped):
        import codesum.trainer as trainer_mod

        real_update = trainer_mod.sgd_update
        norms = []

        def recording_update(*args):
            norms.append(real_update(*args))
            return norms[-1]

        monkeypatch.setattr(trainer_mod, "CLIP_NORM", clip_norm)
        monkeypatch.setattr(trainer_mod, "sgd_update", recording_update)
        result = train(self.corpus(5), [], tiny_cfg(epochs=2, minibatch=2))
        # Two full windows and the open window of one, per epoch.
        assert len(norms) == 6
        for entry, epoch_norms in zip(result.log, (norms[:3], norms[3:])):
            assert entry["grad_norm_mean"] == sum(epoch_norms) / 3
            assert entry["grad_norm_max"] == max(epoch_norms)
            assert entry["clipped_frac"] == clipped


def per_step_example_loss(params, snippet, name, vocab, cfg, rng=None, predicted=None):
    """Reference: every step re-runs both convolutions on the snippet,
    applies the vocabulary head to itself alone (T = 1) and gathers the
    embedding of its own target.  ``predicted()`` says whether a state
    update feeds the prediction instead; by default it draws as training
    does."""
    if predicted is None:
        def predicted():
            return rng is not None and cfg.dropout_rate > 0.0 \
                and rng.random() < cfg.dropout_rate
    step = step_fn(cfg.model_kind)
    targets = [*name, NAME_END]
    total = None
    h = params.h_init
    for t, target in enumerate(targets):
        out = step(snippet, h, params)
        loss = step_loss(out, target, snippet, vocab, out.vocab_row())
        total = loss if total is None else total + loss
        if t + 1 < len(targets):
            h = next_state(params, h, out.nhat) if predicted() \
                else next_state(params, h, token_id=vocab.id(target))
    return total


class TestScheduledSampling:
    """At the dropout rate, a training state update feeds the GRU the
    step's predicted embedding instead of the target's."""

    def build(self, dropout_rate):
        examples = TestTraining().corpus(3)
        vocab = build_vocabulary(examples, min_count=1)
        cfg = tiny_cfg(dropout_rate=dropout_rate)
        params = init_params(cfg, vocab, target_counts(examples), np.random.default_rng(2))
        return [(encode_snippet(e.body, vocab), e.name) for e in examples], vocab, cfg, params

    def test_rate_near_one_feeds_the_predictions(self):
        examples, vocab, cfg, params = self.build(1.0 - 1e-12)
        rng = np.random.default_rng(0)
        for snippet, name in examples:
            got = example_loss(params, snippet, name, vocab, cfg, rng=rng).data
            fed = per_step_example_loss(params, snippet, name, vocab, cfg,
                                        predicted=lambda: True).data
            forced = per_step_example_loss(params, snippet, name, vocab, cfg,
                                           predicted=lambda: False).data
            assert got.tobytes() == fed.tobytes() != forced.tobytes()

    @pytest.mark.parametrize("dropout_rate, with_rng", [(0.0, True), (0.4, False)])
    def test_no_draw_without_a_rate_or_an_rng(self, dropout_rate, with_rng):
        examples, vocab, cfg, params = self.build(dropout_rate)
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state
        for snippet, name in examples:
            got = example_loss(params, snippet, name, vocab, cfg,
                               rng=rng if with_rng else None).data
            forced = per_step_example_loss(params, snippet, name, vocab, cfg,
                                           predicted=lambda: False).data
            assert got.tobytes() == forced.tobytes()
        assert rng.bit_generator.state == before

    def test_one_draw_per_state_update(self):
        examples, vocab, cfg, params = self.build(0.4)
        rng, twin = np.random.default_rng(0), np.random.default_rng(0)
        for snippet, name in examples:
            example_loss(params, snippet, name, vocab, cfg, rng=rng)
            twin.random(len(name))  # a name of n subtokens has n state updates
            assert rng.bit_generator.state == twin.bit_generator.state


class TestEncodeOnce:
    """Training encodes each snippet once, as decoding does."""

    corpus = TestTraining.corpus

    def loss_and_grads(self, fn, params, snippet, name, vocab, cfg, seed):
        for _, t in params.named_tensors():
            t.zero_grad()
        view, rng = params, None
        if seed is not None:  # a fresh view: its nodes keep the gradient of a backward
            rng = np.random.default_rng(seed)
            view = masked_view(params, cfg.dropout_rate, rng)
        loss = fn(view, snippet, name, vocab, cfg, rng=rng)
        loss.backward()
        return loss.data.tobytes(), {n: t.grad.copy() for n, t in params.named_tensors()}

    @pytest.mark.parametrize("dropout", [False, True])
    @pytest.mark.parametrize("model_kind", ["conv_attention", "copy_attention"])
    def test_matches_per_step_encoding(self, model_kind, dropout):
        # Losses are bitwise equal.  The gradient of the shared encoding sums
        # the steps before the convolutions' backward instead of after, so
        # gradients may differ by rounding, bounded per tensor by its largest entry.
        examples = self.corpus(6)
        vocab = build_vocabulary(examples, min_count=1)
        cfg = tiny_cfg(model_kind=model_kind, D=6, k1=4, k2=3, w1=3, w2=2, w3=2,
                       dropout_rate=0.4 if dropout else 0.0)
        params = init_params(cfg, vocab, target_counts(examples), np.random.default_rng(1))
        for i, example in enumerate(examples):
            snippet = encode_snippet(example.body, vocab)
            seed = 100 + i if dropout else None
            got_loss, got = self.loss_and_grads(
                example_loss, params, snippet, example.name, vocab, cfg, seed)
            want_loss, want = self.loss_and_grads(
                per_step_example_loss, params, snippet, example.name, vocab, cfg, seed)
            assert got_loss == want_loss
            for name, g in want.items():
                assert np.abs(got[name] - g).max() <= 1e-12 * np.abs(g).max(), name

    def test_encode_runs_once_per_example(self, monkeypatch):
        import codesum.model as model_mod
        import codesum.trainer as trainer_mod

        calls = []

        def counting_encode(snippet, p):
            calls.append(1)
            return real_encode(snippet, p)

        real_encode = model_mod.encode
        # Both places an encoding can come from: the trainer, and a step
        # handed no encoding.
        monkeypatch.setattr(trainer_mod, "encode", counting_encode)
        monkeypatch.setattr(model_mod, "encode", counting_encode)
        examples = self.corpus(3)
        vocab = build_vocabulary(examples, min_count=1)
        cfg = tiny_cfg()
        params = init_params(cfg, vocab, target_counts(examples), np.random.default_rng(0))
        for example in examples:  # each has at least two steps, the end marker's included
            calls.clear()
            example_loss(params, encode_snippet(example.body, vocab), example.name, vocab, cfg)
            assert len(calls) == 1

    @pytest.mark.parametrize("model_kind", ["conv_attention", "copy_attention"])
    def test_table_is_gathered_twice_and_scored_once(self, monkeypatch, model_kind):
        import codesum.model as model_mod
        import codesum.trainer as trainer_mod

        examples = self.corpus(3)
        vocab = build_vocabulary(examples, min_count=1)
        cfg = tiny_cfg(model_kind=model_kind, dropout_rate=0.4)
        params = init_params(cfg, vocab, target_counts(examples), np.random.default_rng(0))
        rng = np.random.default_rng(0)
        seen = []

        def counting(label, fn):
            def wrapper(*args, **kwargs):
                if any(a is view.E for a in args):
                    seen.append(label)
                return fn(*args, **kwargs)
            return wrapper

        # Every name under which the model and the trainer look the ops up.
        for mod in (model_mod, trainer_mod):
            for op in ("rows", "matmul", "matvec"):
                if hasattr(mod, op):
                    monkeypatch.setattr(mod, op, counting(op, getattr(mod, op)))
        for example in examples:  # each has at least two steps
            view = masked_view(params, cfg.dropout_rate, rng)
            seen.clear()
            example_loss(view, encode_snippet(example.body, vocab), example.name, vocab, cfg,
                         rng=rng).backward()
            assert sorted(seen) == ["matvec", "rows", "rows"]

    def test_no_validation_set_takes_no_snapshot(self, monkeypatch):
        import codesum.trainer as trainer_mod

        snapshots = []
        real_snapshot = trainer_mod._snapshot

        def counting_snapshot(params):
            snapshots.append(1)
            return real_snapshot(params)

        monkeypatch.setattr(trainer_mod, "_snapshot", counting_snapshot)
        examples = self.corpus(6)
        result = train(examples, [], tiny_cfg(epochs=2))
        assert snapshots == [] and result.best_epoch == 2
        train(examples[:4], examples[4:], tiny_cfg(epochs=2))
        assert snapshots  # validation still keeps its best epoch

    @pytest.mark.parametrize("model_kind", ["conv_attention", "copy_attention"])
    def test_epoch_validation_is_evaluate_model(self, model_kind):
        examples = self.corpus(12)
        cfg = tiny_cfg(model_kind=model_kind, epochs=1, learning_rate=3e-2)
        result = train(examples[:6], examples[6:], cfg)
        # One validated epoch is the best, so the result carries its parameters.
        assert result.best_epoch == 1
        entry = result.log[0]
        report, _ = evaluate_model(result.params, result.vocab, examples[6:],
                                   model_kind=model_kind)
        assert (entry["valid_f1_at_5"], entry["valid_exact_at_1"]) == (
            report.f1_at_5, report.exact_at_1)
        # The per-example loop training used before it shared evaluate_model.
        rows = [score_suggestions(
            [s.name for s in suggest(encode_snippet(ex.body, result.vocab), result.params,
                                     result.vocab, k=5, model_kind=model_kind)], ex.name)
            for ex in examples[6:]]
        assert entry["valid_f1_at_5"] == float(np.mean([r["f1_at_5"] for r in rows]))
        assert entry["valid_exact_at_1"] == float(np.mean([r["exact_at_1"] for r in rows]))
