"""Model behavior: attention features, both step kinds, loss, states."""

import math
from collections import ChainMap
from dataclasses import replace

import numpy as np
import pytest

from conftest import make_params, make_snippet, make_vocab
from codesum.corpus.vocabulary import BODY_END, BODY_START, SPECIAL_TOKENS
from codesum.decoder import decode_view
from codesum.errors import DimensionMismatch, VariantDisabled
from codesum.model import (
    LOSS_FLOOR,
    UNK_PENALTY,
    ModelParams,
    attention_features,
    attention_weights,
    conv_attention_step,
    copy_attention_step,
    copy_table,
    encode,
    encode_snippet,
    merged_distribution,
    next_state,
    padding_split,
    step_fn,
    step_loss,
    step_loss_from_ids,
    vocab_head,
)
from codesum.tensorcore import Tensor, gradient_check, log, pick, rows, stack


class TestPadding:
    def test_total_padding_for_tuned_windows(self):
        left, right = padding_split(24, 29, 10)
        assert left + right == 60
        assert left - right in (0, 1)

    def test_attention_length_equals_snippet_length(self, rng):
        for w1, w2, w3 in [(1, 1, 1), (2, 3, 2), (4, 2, 5), (3, 3, 3)]:
            p = make_params(9, d=3, k1=2, k2=2, w1=w1, w2=w2, w3=w3, rng=rng)
            sn = make_snippet([1, 2, 3, 4, 8])
            feats = attention_features(encode(sn, p)[0], p.h_init, p)
            alpha = attention_weights(feats, p.K_att)
            assert alpha.shape == (5,)

    def test_windows_longer_than_snippet_still_work(self, rng):
        p = make_params(9, d=2, k1=2, k2=2, w1=6, w2=5, w3=4, rng=rng)
        sn = make_snippet([1, 2])
        alpha = attention_weights(attention_features(encode(sn, p)[0], p.h_init, p), p.K_att)
        assert alpha.shape == (2,)


class TestAttentionFeatures:
    def test_zero_state_zeroes_features(self, rng):
        p = make_params(9, rng=rng)
        sn = make_snippet([1, 2, 3])
        feats = attention_features(encode(sn, p)[0], Tensor(np.zeros(2)), p)
        np.testing.assert_allclose(feats.data, 0.0)

    def test_zero_state_gives_uniform_attention(self, rng):
        p = make_params(9, w1=2, w2=2, w3=2, rng=rng)
        sn = make_snippet([1, 2, 3, 4])
        out = copy_attention_step(sn, Tensor(np.zeros(2)), p)
        np.testing.assert_allclose(out.alpha.data, 0.25, atol=1e-12)
        np.testing.assert_allclose(out.kappa.data, 0.25, atol=1e-12)

    def test_state_width_checked(self, rng):
        p = make_params(9, rng=rng)
        with pytest.raises(DimensionMismatch):
            attention_features(encode(make_snippet([1, 2]), p)[0], Tensor(np.zeros(5)), p)

    def test_matches_straight_line_oracle(self, rng):
        # Recompute the whole pipeline with plain numpy, no shared code.
        p = make_params(9, d=2, k1=2, k2=2, w1=1, w2=1, w3=1, rng=rng)
        sn = make_snippet([1, 4, 7])
        h = rng.normal(size=2)
        feats = attention_features(encode(sn, p)[0], Tensor(h), p).data

        E = p.E.data
        emb = E[sn.ids]  # no padding signal with width-1 kernels
        l1 = np.zeros((3, 2))
        for pos in range(3):
            for o in range(2):
                l1[pos, o] = sum(emb[pos, i] * p.K_l1.data[i, 0, o] for i in range(2))
        leak = float(p.prelu_a1.data)
        l1 = np.where(l1 > 0, l1, leak * l1)
        l2 = np.zeros((3, 2))
        for pos in range(3):
            for o in range(2):
                l2[pos, o] = sum(l1[pos, i] * p.K_l2.data[i, 0, o] for i in range(2))
        l2 = l2 * h[None, :]
        expected = l2 / (np.sqrt((l2 ** 2).sum()) + 1e-8)
        np.testing.assert_allclose(feats, expected, atol=1e-10)


class TestEncodeOnce:
    @pytest.mark.parametrize("model_kind", ["conv_attention", "copy_attention"])
    def test_step_with_encoded_is_bitwise_equal(self, rng, model_kind):
        p = make_params(9, d=3, k1=3, k2=2, w1=2, w2=3, w3=2, rng=rng)
        sn = make_snippet([1, 4, 7, 2])
        step = step_fn(model_kind)
        encoded = encode(sn, p)
        for h in (p.h_init, Tensor(rng.normal(size=2))):
            want = step(sn, h, p)
            got = step(sn, h, p, encoded=encoded)
            for field in ("alpha", "nhat", "kappa", "lam"):
                a, b = getattr(want, field), getattr(got, field)
                assert (a is None) == (b is None)
                if a is not None:
                    assert a.data.tobytes() == b.data.tobytes(), field
            assert want.vocab_row().data.tobytes() == got.vocab_row().data.tobytes()


class TestArraySteps:
    """A decode's step: array state, array encoding, decode-view parameters."""

    @pytest.mark.parametrize("words, d", [(40, 5), (2446, 128)])
    @pytest.mark.parametrize("model_kind", ["conv_attention", "copy_attention"])
    def test_step_and_vocab_row_on_arrays_equal_the_tensor_forms_bitwise(
            self, rng, model_kind, words, d):
        from codesum.decoder import decode_view

        vocab = make_vocab([f"w{i}" for i in range(words)])
        p = make_params(len(vocab), d=d, k1=3, k2=4, w1=2, w2=3, w3=2, rng=rng)
        if model_kind == "conv_attention":
            p = ModelParams.from_named({n: t for n, t in p.named_tensors()
                                        if n not in ("K_copy", "K_lambda")})
        view = decode_view(p)
        sn = encode_snippet(["w1", "zzz", "w7", "w1"], vocab)
        step = step_fn(model_kind)
        encoded = encode(sn, p)
        arrays = tuple(t.data for t in encode(sn, view))
        for h in (p.h_init.data, rng.normal(size=4)):
            want = step(sn, Tensor(h), p, encoded)
            got = step(sn, h, view, arrays)
            for field in ("alpha", "nhat", "kappa", "lam"):
                a, b = getattr(want, field), getattr(got, field)
                assert (a is None) == (b is None)
                if a is not None:
                    assert not isinstance(b, Tensor), field
                    assert np.asarray(b).tobytes() == a.data.tobytes(), field
            row = got.vocab_row()
            assert type(row) is np.ndarray
            assert row.tobytes() == want.vocab_row().data.tobytes()
            assert merged_distribution(got, sn, vocab).probs.tobytes() == \
                merged_distribution(want, sn, vocab).probs.tobytes()

    def test_array_stack_head_equals_the_tensor_head_bitwise(self, rng):
        from codesum.decoder import decode_view

        p = make_params(60, d=7, rng=rng)
        nhats = rng.normal(size=(5, 7))
        got = vocab_head(nhats, decode_view(p))
        assert type(got) is np.ndarray
        assert got.tobytes() == vocab_head(Tensor(nhats), p).data.tobytes()


class TestVocabHead:
    @pytest.mark.parametrize("words, d", [(40, 5), (2446, 128)])
    @pytest.mark.parametrize("model_kind", ["conv_attention", "copy_attention"])
    def test_one_step_head_is_the_vector_formula_bitwise(self, rng, model_kind, words, d):
        # What a decode scores, against softmax(E @ nhat + b) as the step
        # computed it when the head was part of the step.
        vocab = make_vocab([f"w{i}" for i in range(words)])
        p = make_params(len(vocab), d=d, k1=3, k2=2, w1=2, w2=2, w3=2, rng=rng)
        sn = encode_snippet(["w1", "zzz", "w7"], vocab)
        for h in (p.h_init, Tensor(rng.normal(size=2))):
            out = step_fn(model_kind)(sn, h, p)
            logits = p.E.data @ out.nhat.data + p.b.data
            e = np.exp(logits - logits.max())
            assert out.vocab_row().data.tobytes() == (e / e.sum()).tobytes()

    @pytest.mark.parametrize("v, d", [(9, 3), (2453, 128)])
    def test_rows_of_a_stacked_head_equal_each_step_alone(self, rng, v, d):
        # So training's one head gives every step's loss bit for bit.
        p = make_params(v, d=d, rng=rng)
        nhats = [Tensor(rng.normal(size=d)) for _ in range(11)]
        head = vocab_head(stack(nhats), p)
        for t, nhat in enumerate(nhats):
            assert head.data[t].tobytes() == vocab_head(stack([nhat]), p).data[0].tobytes()

    def test_gradient(self, rng):
        p = make_params(6, d=3, rng=rng)
        nhats = Tensor(rng.normal(size=(3, 3)), requires_grad=True)

        def build():
            head = vocab_head(nhats, p)
            return -(log(pick(rows(head, 0), 4)) + log(pick(rows(head, 1), 0))
                     + log(pick(rows(head, 2), 4)))

        gradient_check(build, {"nhats": nhats, "E": p.E, "b": p.b})


class TestConvStep:
    def test_vocab_dist_sums_to_one(self, rng):
        p = make_params(11, rng=rng)
        out = conv_attention_step(make_snippet([1, 2, 3]), p.h_init, p)
        assert out.vocab_row().data.sum() == pytest.approx(1.0)
        assert out.kappa is None and out.lam is None

    def test_one_hot_attention_scores_by_embedding_alignment(self, rng):
        # With attention forced one-hot at position j and zero bias, the
        # distribution is softmax(E @ E[c_j]).
        p = make_params(9, w1=1, w2=1, w3=1, rng=rng)
        p.b.data[:] = 0.0
        sn = make_snippet([1, 4, 7])
        out = conv_attention_step(sn, p.h_init, p)
        alpha = out.alpha.data
        j = int(np.argmax(alpha))
        one_hot = np.zeros_like(alpha)
        one_hot[j] = 1.0
        nhat = one_hot @ p.E.data[sn.ids]
        logits = p.E.data @ nhat
        expected = np.exp(logits - logits.max())
        expected /= expected.sum()
        # verify the formula on the model's own nhat instead of the
        # one-hot surrogate
        nhat_model = alpha @ p.E.data[sn.ids]
        logits_model = p.E.data @ nhat_model
        dist = np.exp(logits_model - logits_model.max())
        dist /= dist.sum()
        np.testing.assert_allclose(out.vocab_row().data, dist, atol=1e-10)
        assert expected.argmax() == (p.E.data @ p.E.data[sn.ids[j]]).argmax()

    def test_deterministic(self, rng):
        p = make_params(9, rng=rng)
        sn = make_snippet([2, 5, 1])
        a = conv_attention_step(sn, p.h_init, p)
        b = conv_attention_step(sn, p.h_init, p)
        assert np.array_equal(a.vocab_row().data, b.vocab_row().data)
        assert np.array_equal(a.alpha.data, b.alpha.data)


class TestCopyStep:
    def test_all_fields_present_and_valid(self, rng):
        p = make_params(9, rng=rng)
        out = copy_attention_step(make_snippet([1, 2, 3, 4]), p.h_init, p)
        assert out.kappa.shape == (4,)
        assert out.kappa.data.sum() == pytest.approx(1.0)
        assert np.all(out.kappa.data >= 0)
        assert 0.0 < float(out.lam.data) < 1.0

    def test_merged_interpolates(self, rng):
        vocab = make_vocab(["a", "b"])
        p = make_params(len(vocab), rng=rng)
        sn = encode_snippet(["a", "zzz"], vocab)
        out = copy_attention_step(sn, p.h_init, p)
        merged = merged_distribution(out, sn, vocab)
        lam = float(out.lam.data)
        # mass of an out-of-vocab surface token comes only from kappa
        kappa = out.kappa.data
        assert merged["zzz"] == pytest.approx(lam * kappa[2])
        # an in-vocab token present in the snippet pools both heads
        a_id = vocab.id("a")
        assert merged["a"] == pytest.approx(
            (1 - lam) * out.vocab_row().data[a_id] + lam * kappa[1])
        assert sum(merged.values()) == pytest.approx(1.0, abs=1e-9)

    def test_merged_endpoints(self, rng):
        # Endpoint behavior of the interpolation, with lambda forced.
        vocab = make_vocab(["browser"])
        p = make_params(len(vocab), rng=rng)
        sn = encode_snippet(["browser"], vocab)
        out = copy_attention_step(sn, p.h_init, p)
        out.lam = Tensor(1e-12)
        merged = merged_distribution(out, sn, vocab)
        for idx, prob in enumerate(out.vocab_row().data):
            assert merged[vocab.token(idx)] == pytest.approx(float(prob), abs=1e-9)

        out.kappa = Tensor([0.0, 1.0, 0.0])
        out.lam = Tensor(1.0 - 1e-15)
        merged = merged_distribution(out, sn, vocab)
        assert merged["browser"] == pytest.approx(1.0, abs=1e-9)

    def test_merged_without_copy_head(self, rng):
        vocab = make_vocab(["a"])
        p = replace(make_params(len(vocab), rng=rng), K_copy=None, K_lambda=None)
        sn = encode_snippet(["a"], vocab)
        out = conv_attention_step(sn, p.h_init, p)
        merged = merged_distribution(out, sn, vocab)
        assert sum(merged.values()) == pytest.approx(1.0)
        assert set(merged) == set(vocab.id_to_token)

    def test_missing_copy_head_raises(self, rng):
        p = replace(make_params(9, rng=rng), K_copy=None, K_lambda=None)
        with pytest.raises(VariantDisabled):
            copy_attention_step(make_snippet([1, 2, 3]), p.h_init, p)


def dict_merged(step, snippet, vocab):
    """The dict loop that ``merged_distribution`` replaced, as the reference."""
    lam = float(step.lam.data) if step.lam is not None else 0.0
    out = {}
    for idx, prob in enumerate(step.vocab_row().data):
        key = vocab.token(idx)
        out[key] = out.get(key, 0.0) + (1.0 - lam) * float(prob)
    if step.kappa is not None:
        for pos, key in enumerate(snippet.surface):
            out[key] = out.get(key, 0.0) + lam * float(step.kappa.data[pos])
    return out


def per_call_merged(step, snippet, vocab):
    """(tokens, probs) as each call built its candidates before the copy
    table: the OoV map and the position list made anew every step."""
    lam = float(step.lam.data) if step.lam is not None else 0.0
    probs = (1.0 - lam) * np.asarray(step.vocab_row().data, dtype=np.float64)
    oov = {}
    index = ChainMap(vocab.token_to_id, oov)
    if step.kappa is not None:
        for token in snippet.surface:
            if token not in index:
                oov[token] = len(vocab) + len(oov)
        probs = np.concatenate([probs, np.zeros(len(oov))])
        kappa = np.asarray(step.kappa.data, dtype=np.float64)
        np.add.at(probs, [index[token] for token in snippet.surface], lam * kappa)
    return [*vocab.id_to_token, *oov], probs


class TestMergedDistribution:
    @pytest.mark.parametrize("model_kind", ["conv_attention", "copy_attention"])
    def test_one_copy_table_equals_the_per_call_form(self, rng, model_kind):
        vocab = make_vocab(["a", "b", "c"])
        p = make_params(len(vocab), d=3, k1=2, k2=2, w1=2, w2=1, w3=2, rng=rng,
                        scale=0.8)
        sn = encode_snippet(["zzz", "a", "yyy", "a", "zzz", "b", "zzz"], vocab)
        table = copy_table(sn, vocab)
        assert table.tokens == [*vocab.id_to_token, "zzz", "yyy"]
        assert table.positions.dtype == np.intp
        assert [table.tokens[i] for i in table.positions] == sn.surface
        for h in (p.h_init, Tensor(rng.normal(size=2)), Tensor(rng.normal(size=2))):
            out = step_fn(model_kind)(sn, h, p)
            want_tokens, want_probs = per_call_merged(out, sn, vocab)
            for merged in (merged_distribution(out, sn, vocab, table),
                           merged_distribution(out, sn, vocab)):
                assert merged.tokens == want_tokens
                assert merged.probs.tobytes() == want_probs.tobytes()
                assert all(merged.index[tok] == i for i, tok in enumerate(want_tokens))

    @pytest.mark.parametrize("model_kind", ["conv_attention", "copy_attention"])
    def test_equals_dict_loop_bitwise_and_in_order(self, rng, model_kind):
        # OoV strings, repeated surface tokens, and surface tokens that are
        # also vocabulary tokens ("a", "b" and the body sentinels).
        vocab = make_vocab(["a", "b", "c"])
        p = make_params(len(vocab), d=3, k1=2, k2=2, w1=2, w2=1, w3=2, rng=rng,
                        scale=0.8)
        sn = encode_snippet(["zzz", "a", "yyy", "a", "zzz", "b", "zzz"], vocab)
        for h in (p.h_init, Tensor(rng.normal(size=2))):
            out = step_fn(model_kind)(sn, h, p)
            merged = merged_distribution(out, sn, vocab)
            want = dict_merged(out, sn, vocab)
            assert list(merged) == list(want)
            assert [v.hex() for v in merged.values()] == [v.hex() for v in want.values()]
            assert ("zzz" in merged) == (model_kind == "copy_attention")

    def test_read_only(self, rng):
        vocab = make_vocab(["a"])
        p = make_params(len(vocab), rng=rng)
        sn = encode_snippet(["a", "zzz"], vocab)
        merged = merged_distribution(copy_attention_step(sn, p.h_init, p), sn, vocab)
        with pytest.raises(TypeError):
            merged["a"] = 0.5
        with pytest.raises(ValueError):
            merged.probs[0] = 0.5
        with pytest.raises(KeyError):
            merged["never-seen"]


class TestStepLoss:
    def test_in_vocab_target_absent_from_snippet(self, rng):
        vocab = make_vocab(["get", "size"])
        p = make_params(len(vocab), rng=rng)
        sn = encode_snippet(["size"], vocab)
        out = copy_attention_step(sn, p.h_init, p)
        loss = step_loss(out, "get", sn, vocab)
        lam = float(out.lam.data)
        r = out.vocab_row().data[vocab.id("get")]
        assert float(loss.data) == pytest.approx(-math.log((1 - lam) * r + LOSS_FLOOR))

    def test_oov_target_present_in_snippet_gets_penalty(self, rng):
        vocab = make_vocab(["wrap"])
        p = make_params(len(vocab), rng=rng)
        sn = encode_snippet(["x", "zlib", "y"], vocab)   # zlib, x, y all OoV
        out = copy_attention_step(sn, p.h_init, p)
        loss = step_loss(out, "zlib", sn, vocab)
        lam = float(out.lam.data)
        kappa = out.kappa.data
        r_unk = out.vocab_row().data[vocab.unk_id]
        expected = lam * kappa[2] + (1 - lam) * UNK_PENALTY * r_unk
        assert float(loss.data) == pytest.approx(-math.log(expected + LOSS_FLOOR))

    def test_hand_computed_marginal(self):
        # lambda = 0.5, kappa uniform over four positions, target at two
        # of them, vocabulary mass zero: P = 0.5 * 0.5 = 0.25.
        vocab = make_vocab(["t"])
        p = make_params(len(vocab))
        sn = encode_snippet(["t", "u", "t"], vocab)
        out = copy_attention_step(sn, p.h_init, p)
        out.lam = Tensor(0.5)
        out.kappa = Tensor(np.full(5, 0.2))
        loss = step_loss(out, "t", sn, vocab, Tensor(np.zeros(len(vocab))))
        assert float(loss.data) == pytest.approx(-math.log(0.5 * 0.4 + 0.25 * 0.0 + LOSS_FLOOR))

    def test_conv_loss_is_plain_nll(self, rng):
        vocab = make_vocab(["m"])
        p = make_params(len(vocab), rng=rng)
        sn = encode_snippet(["m"], vocab)
        out = conv_attention_step(sn, p.h_init, p)
        loss = step_loss(out, "m", sn, vocab)
        r = out.vocab_row().data[vocab.id("m")]
        assert float(loss.data) == pytest.approx(-math.log(r + LOSS_FLOOR))

    def test_marginalization_consistency(self, rng):
        # Summing the merged probability over every candidate target
        # equals one; the UNK penalty only rescales losses, never the
        # generative distribution.
        vocab = make_vocab(["a", "b"])
        p = make_params(len(vocab), rng=rng)
        sn = encode_snippet(["a", "oov1", "oov2", "b"], vocab)
        out = copy_attention_step(sn, p.h_init, p)
        merged = merged_distribution(out, sn, vocab)
        assert sum(merged.values()) == pytest.approx(1.0, abs=1e-9)


class TestEndToEndGradient:
    def test_tiny_config_full_loss(self, rng):
        # D=2, k1=k2=2, w1=w2=w3=1, |V|=6, Len(c)=4, two-step chain.
        p = make_params(6, d=2, k1=2, k2=2, w1=1, w2=1, w3=1, rng=rng)
        sn = make_snippet([0, 3, 4, 1], surface=["<S>", "tok", "only", "</S>"], pad_id=5)
        indicator = np.array([0.0, 1.0, 0.0, 0.0])

        def build():
            out1 = copy_attention_step(sn, p.h_init, p)
            loss1 = step_loss_from_ids(out1, 3, indicator, True)
            h1 = next_state(p, p.h_init, token_id=3)
            out2 = copy_attention_step(sn, h1, p)
            loss2 = step_loss_from_ids(out2, 1, np.zeros(4), False)
            return loss1 + loss2

        gradient_check(build, dict(p.named_tensors()))


class TestNextState:
    def test_teacher_forcing_uses_token_embedding(self, rng):
        p = make_params(9, rng=rng)
        h = next_state(p, p.h_init, token_id=3)
        # must equal a GRU step on E[3]
        from codesum.tensorcore import gru_step

        expected = gru_step(
            Tensor(p.E.data[3]), p.h_init, p.gru).data
        np.testing.assert_allclose(h.data, expected, atol=1e-12)

    def test_an_input_is_stepped_as_given(self, rng):
        p = make_params(9, rng=rng)
        x = Tensor(rng.normal(size=2))
        from codesum.tensorcore import gru_step

        want = gru_step(x, p.h_init, p.gru).data
        assert next_state(p, p.h_init, x).data.tobytes() == want.tobytes()

    @pytest.mark.parametrize("ids", [[], [3], [3, 0, 3, 8]])
    def test_ids_give_one_state_row_each(self, rng, ids):
        p = decode_view(make_params(9, rng=rng))  # arrays, as a decode steps
        states = next_state(p, p.h_init, token_id=np.array(ids, dtype=np.intp))
        assert type(states) is np.ndarray and states.shape == (len(ids), 2)
        for row, token_id in zip(states, ids):
            assert row.tobytes() == next_state(p, p.h_init, token_id=token_id).tobytes()


def test_encode_snippet_adds_sentinels():
    vocab = make_vocab(["a"])
    sn = encode_snippet(["a", "zz"], vocab)
    assert sn.surface == ["<S>", "a", "zz", "</S>"]
    assert sn.ids[0] == vocab.id(BODY_START)
    assert sn.ids[-1] == vocab.id(BODY_END)
    assert sn.ids[2] == vocab.unk_id
    assert len(SPECIAL_TOKENS) == 7
