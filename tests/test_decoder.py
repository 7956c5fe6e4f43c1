"""Search behavior, including equivalence with exhaustive enumeration."""

import math
from dataclasses import replace

import numpy as np
import pytest

from conftest import close, exhaustive_top_k, make_params, make_vocab, prefix
from codesum import decoder
from codesum.corpus.dataset import MethodExample
from codesum.corpus.vocabulary import NAME_END
from codesum.decoder import Best, SearchLimits, decode_view, expand, suggest
from codesum.evaluation import evaluate_model
from codesum.model import (
    ModelParams,
    StepOutput,
    copy_attention_step,
    encode,
    encode_snippet,
    merged_distribution,
    step_fn,
)
from codesum.tensorcore import Tensor, as_array


def tiny_setup(rng, extra_tokens=("a",), body=("a", "a"), scale=0.6):
    vocab = make_vocab(list(extra_tokens))
    params = make_params(len(vocab), d=3, k1=2, k2=2, w1=2, w2=1, w3=2,
                         rng=rng, scale=scale)
    snippet = encode_snippet(list(body), vocab)
    return vocab, params, snippet


def view_setup(rng, **kwargs):
    """``tiny_setup`` with the parameters as a decode reads them, the form
    ``expand`` takes."""
    vocab, params, snippet = tiny_setup(rng, **kwargs)
    return vocab, decode_view(params), snippet


def step_of(batch, params, snippet, model_kind="copy_attention"):
    """One step of a batch of partials over their stacked states, on the
    snippet's encoding as arrays: the step ``expand`` takes."""
    encoded = tuple(as_array(t) for t in encode(snippet, params))
    return step_fn(model_kind)(snippet, np.stack([p.state for p in batch]), params, encoded)


def best_at(bar=None, k=3):
    """The k best completions a search has seen: none, or k at ``bar``,
    which a batch's one or two completions above it do not move."""
    best = Best(k)
    for _ in range(0 if bar is None else k):
        best.add(bar)
    return best


class TestSearchLimits:
    @pytest.mark.parametrize("field, value", [
        ("max_steps", -1), ("heap_size", 0), ("heap_size", -1), ("successors", 0),
        ("successors", -1), ("max_name_len", 0), ("max_name_len", -1),
    ])
    def test_cap_that_would_corrupt_the_search_is_rejected(self, field, value):
        with pytest.raises(ValueError, match=rf"^{field} must be >= "):
            SearchLimits(**{field: value})

    @pytest.mark.parametrize("field, value", [
        ("max_steps", 0), ("heap_size", 1), ("successors", 1), ("max_name_len", 1),
    ])
    def test_smallest_cap_is_accepted(self, rng, field, value):
        limits = SearchLimits(**{field: value})
        assert getattr(limits, field) == value
        vocab, params, snippet = tiny_setup(rng, extra_tokens=("a", "b"))
        out = suggest(snippet, params, vocab, k=3, limits=limits)
        assert (out == []) == (field == "max_steps")
        assert all(0 < len(s.name) <= limits.max_name_len for s in out)


class TestExpand:
    def test_child_log_prob_adds_token_log_prob(self, rng):
        vocab, params, snippet = view_setup(rng)
        root = prefix((), -1.5, params.h_init)
        out = step_of([root], params, snippet)
        merged = merged_distribution(out.row(0), snippet, vocab)
        children, completed = expand([root], out, snippet, params, vocab,
                                     SearchLimits(successors=10_000), best_at())
        for child in children:
            tok = child.subtokens[-1]
            assert child.log_prob == pytest.approx(-1.5 + math.log(merged[tok]))
        for s in completed:
            assert s.name == [] or s.log_prob <= 0.0

    def test_successor_cap_one_is_greedy(self, rng):
        vocab, params, snippet = view_setup(rng)
        root = prefix((), 0.0, params.h_init)
        out = step_of([root], params, snippet)
        merged = merged_distribution(out.row(0), snippet, vocab)
        best_tok = max(sorted(merged), key=lambda t: merged[t])
        children, completed = expand([root], out, snippet, params, vocab,
                                     SearchLimits(successors=1), best_at())
        assert len(children) + len(completed) <= 1
        if children:
            assert children[0].subtokens == (best_tok,)

    def test_cap_beyond_alphabet_changes_nothing(self, rng):
        vocab, params, snippet = view_setup(rng)
        root = prefix(("x",), 0.0, params.h_init)
        out = step_of([root], params, snippet)
        merged = merged_distribution(out.row(0), snippet, vocab)
        a = expand([root], out, snippet, params, vocab,
                   SearchLimits(successors=len(merged)), best_at())
        b = expand([root], out, snippet, params, vocab,
                   SearchLimits(successors=10 * len(merged)), best_at())
        assert [c.subtokens for c in a[0]] == [c.subtokens for c in b[0]]
        assert len(a[1]) == len(b[1])

    def test_empty_name_completion_dropped(self, rng):
        vocab, params, snippet = view_setup(rng)
        root = prefix((), 0.0, params.h_init)
        out = step_of([root], params, snippet)
        _, completed = expand([root], out, snippet, params, vocab,
                              SearchLimits(successors=10_000), best_at())
        assert completed == []

    def test_length_cap_allows_only_end(self, rng):
        vocab, params, snippet = view_setup(rng)
        long_prefix = tuple("t" for _ in range(10))
        partial = prefix(long_prefix, -1.0, params.h_init)
        out = step_of([partial], params, snippet)
        children, completed = expand([partial], out, snippet, params, vocab,
                                     SearchLimits(successors=10_000, max_name_len=10),
                                     best_at())
        assert children == []
        assert len(completed) == 1
        assert completed[0].name == list(long_prefix)

    @pytest.mark.parametrize("order", ["dcbae", "abcde"])
    def test_ties_at_the_cut_break_by_token_string(self, rng, order):
        # One id order runs against string order, so a cut by position
        # keeps the wrong tied tokens in one of the two cases.
        vocab = make_vocab(list(order))
        params = make_params(len(vocab), d=3, rng=rng)
        snippet = encode_snippet(["a"], vocab)
        dist = np.full(len(vocab), 0.01)
        dist[vocab.id("e")] = 0.3
        dist[vocab.id(NAME_END)] = 0.2
        for tok in "dcba":
            dist[vocab.id(tok)] = 0.1  # ranks 3 to 6, across a cut at 4
        # A zero table leaves the head softmax(b), which keeps the ties.
        params.E.data[:] = 0.0
        params.b.data[:] = np.log(dist)
        params = decode_view(params)
        out = StepOutput(alpha=np.full((1, 3), 1 / 3), nhat=np.zeros((1, 3)), params=params)
        merged = merged_distribution(out.row(0), snippet, vocab)
        full_sort = sorted(merged.items(), key=lambda kv: (-kv[1], kv[0]))[:4]
        root = prefix(("x",), 0.0, params.h_init)
        children, completed = expand([root], out, snippet, params, vocab,
                                     SearchLimits(successors=4), best_at())
        assert [tok for tok, _ in full_sort] == ["e", NAME_END, "a", "b"]
        assert [c.subtokens[-1] for c in children] == ["e", "a", "b"]
        assert [s.name for s in completed] == [["x"]]

    @pytest.mark.parametrize("order", ["dcbae", "abcde"])
    def test_ties_inside_the_top_n_break_by_token_string(self, rng, order):
        # Exact ties at ranks 1-2 and 4-6, all above a cut at 7; one id
        # order runs against string order, so an order by id is wrong once.
        vocab = make_vocab(list(order))
        params = make_params(len(vocab), d=3, rng=rng)
        snippet = encode_snippet(["a"], vocab)
        dist = np.full(len(vocab), 0.001)
        dist[vocab.id("e")] = dist[vocab.id("c")] = 0.3
        dist[vocab.id(NAME_END)] = 0.15
        for tok in "dba":
            dist[vocab.id(tok)] = 0.05
        params.E.data[:] = 0.0
        params.b.data[:] = np.log(dist)
        params = decode_view(params)
        out = StepOutput(alpha=np.full((1, 3), 1 / 3), nhat=np.zeros((1, 3)), params=params)
        merged = merged_distribution(out.row(0), snippet, vocab)
        root = prefix(("x",), 0.0, params.h_init)
        children, completed = expand([root], out, snippet, params, vocab,
                                     SearchLimits(successors=7), best_at())
        assert [c.subtokens[-1] for c in children][:5] == ["c", "e", "a", "b", "d"]
        assert [s.name for s in completed] == [["x"]]
        full_sort = sorted(merged.items(), key=lambda kv: (-kv[1], kv[0]))[:7]
        assert [c.subtokens[-1] for c in children] == \
            [tok for tok, _ in full_sort if tok != NAME_END]

    def test_bar_drops_children_before_their_state(self, rng, monkeypatch):
        # A batch of two partials with their own states: one next_state
        # call gives every kept child of both its state, and no other.
        vocab, params, snippet = view_setup(rng, extra_tokens=("a", "b", "c"),
                                            body=("a", "zzz"))
        batch = [prefix(("x",), -0.5, params.h_init),
                 prefix(("y",), -0.6, rng.normal(size=params.h_init.shape))]
        out = step_of(batch, params, snippet)
        limits = SearchLimits(successors=10_000)
        all_children, all_completed = expand(batch, out, snippet, params, vocab, limits,
                                             best_at())
        bar = sorted(c.log_prob for c in all_children)[len(all_children) // 2]
        kept = [c for c in all_children if c.log_prob >= bar]
        assert 0 < len(kept) < len(all_children)
        assert {id(c.parent) for c in kept} == {id(p) for p in batch}

        calls = []
        real_next_state = decoder.next_state

        def counting_next_state(p, h_prev, *, token_id):
            calls.append((len(token_id), h_prev.shape))
            return real_next_state(p, h_prev, token_id=token_id)

        monkeypatch.setattr(decoder, "next_state", counting_next_state)
        children, completed = expand(batch, out, snippet, params, vocab, limits, best_at(bar))
        assert calls == [(len(kept), (len(kept), len(params.h_init)))]
        assert [(c.subtokens, c.log_prob) for c in children] == \
            [(c.subtokens, c.log_prob) for c in kept]
        for got, want in zip(children, kept):
            assert got.parent is want.parent
            assert got.state.tobytes() == want.state.tobytes()
        assert [(s.name, s.log_prob) for s in completed] == \
            [(s.name, s.log_prob) for s in all_completed if s.log_prob >= bar]

    def test_completions_raise_the_bar_before_children_get_states(self, rng):
        # With k = 1 the batch's one completion is the bar: no child below
        # it gets a state, although no bar stood before the batch.
        vocab, params, snippet = view_setup(rng, extra_tokens=("a", "b", "c"),
                                            body=("a", "zzz"))
        partial = prefix(("x",), -0.5, params.h_init)
        out = step_of([partial], params, snippet)
        limits = SearchLimits(successors=10_000)
        all_children, _ = expand([partial], out, snippet, params, vocab, limits, best_at())
        best = Best(1)
        children, completed = expand([partial], out, snippet, params, vocab, limits, best)
        (done,) = completed
        assert best.bar == done.log_prob
        assert children == [c for c in children if c.log_prob >= done.log_prob]
        assert [c.subtokens for c in children] == \
            [c.subtokens for c in all_children if c.log_prob >= done.log_prob]
        assert len(children) < len(all_children)

    def test_one_state_update_per_expansion_even_with_no_open_child(
            self, rng, monkeypatch):
        # One expand call is one batch: a single next_state call, of no
        # rows when every partial of the batch is at the length cap.
        vocab, params, snippet = view_setup(rng)
        batch = [prefix(("t", "t"), -1.0, params.h_init),
                 prefix(("t", "a"), -1.2, rng.normal(size=params.h_init.shape))]
        out = step_of(batch, params, snippet)
        calls = []
        real_next_state = decoder.next_state

        def recording_next_state(*args, **kwargs):
            state = real_next_state(*args, **kwargs)
            calls.append(state.shape)
            return state

        monkeypatch.setattr(decoder, "next_state", recording_next_state)
        children, completed = expand(batch, out, snippet, params, vocab,
                                     SearchLimits(max_name_len=2), best_at())
        assert children == [] and len(completed) == 2
        assert calls == [(0, len(params.h_init))]


class TestSuggest:
    def test_ordering_and_no_duplicates(self, rng):
        vocab, params, snippet = tiny_setup(rng, extra_tokens=("a", "b"))
        out = suggest(snippet, params, vocab, k=5)
        log_probs = [s.log_prob for s in out]
        assert log_probs == sorted(log_probs, reverse=True)
        names = [tuple(s.name) for s in out]
        assert len(names) == len(set(names))
        for s in out:
            assert s.name  # never empty
            assert s.log_prob <= 0.0

    def test_steps_recorded_per_subtoken_plus_end(self, rng):
        vocab, params, snippet = tiny_setup(rng)
        out = suggest(snippet, params, vocab, k=3)
        for s in out:
            assert len(s.steps) == len(s.name) + 1
            assert s.steps[-1].token == NAME_END
            for record in s.steps:
                assert record.alpha.shape == (len(snippet),)
                assert record.kappa.shape == (len(snippet),)
                assert 0.0 < record.lam < 1.0

    @pytest.mark.parametrize("model_kind", ["copy_attention", "conv_attention"])
    def test_a_suggestion_is_its_end_node(self, rng, model_kind):
        vocab, params, snippet = sharing_setup(rng, model_kind)
        out = suggest(snippet, params, vocab, k=5, model_kind=model_kind)
        assert len(out) == 5
        for s in out:
            assert s.token == NAME_END and s.state is None
            assert type(s.name) is list
            assert s.name == [r.token for r in s.steps][:-1]
            assert s.probability == math.exp(s.log_prob)

    def test_k_below_one_raises(self, rng):
        vocab, params, snippet = tiny_setup(rng)
        with pytest.raises(ValueError, match="k must be >= 1"):
            suggest(snippet, params, vocab, k=0)

    def test_unknown_state_kind_raises(self, rng):
        vocab, params, snippet = tiny_setup(rng)
        with pytest.raises(ValueError, match="unknown state kind 'simple'"):
            suggest(snippet, params, vocab, state_kind="simple")

    def test_empty_when_nothing_completes(self, rng):
        vocab, params, snippet = tiny_setup(rng)
        out = suggest(snippet, params, vocab, k=3,
                      limits=SearchLimits(max_steps=0))
        assert out == []

    def test_conv_model_suggestions_stay_in_vocabulary(self, rng):
        vocab, params, snippet = tiny_setup(
            rng, extra_tokens=("a",), body=("a", "zzz-oov"))
        out = suggest(snippet, params, vocab, k=5, model_kind="conv_attention")
        for s in out:
            for tok in s.name:
                assert tok in vocab

    def test_copy_model_can_emit_oov(self, rng):
        # With lambda pushed high and kappa peaked, an OoV body token
        # must be reachable.
        vocab, params, snippet = tiny_setup(rng, extra_tokens=(),
                                            body=("novel",))
        params.K_lambda.data[:] = 3.0  # saturates lambda near 1
        out = suggest(snippet, params, vocab, k=8,
                      limits=SearchLimits(successors=50))
        emitted = {tok for s in out for tok in s.name}
        assert "novel" in emitted

    def test_monotone_child_log_probs(self, rng):
        vocab, params, snippet = tiny_setup(rng)
        out = suggest(snippet, params, vocab, k=5)
        # any completed name's log prob is at most the best single-step mass
        step = copy_attention_step(snippet, params.h_init, params)
        best_first = max(merged_distribution(step, snippet, vocab).values())
        for s in out:
            assert s.log_prob <= math.log(best_first) + 1e-12

    def test_deterministic(self, rng):
        vocab, params, snippet = tiny_setup(rng, extra_tokens=("a", "b"))
        a = suggest(snippet, params, vocab, k=5)
        b = suggest(snippet, params, vocab, k=5)
        assert [(s.name, s.log_prob) for s in a] == [(s.name, s.log_prob) for s in b]

    def test_heap_size_bounds_the_open_partials(self, rng, monkeypatch):
        vocab, params, snippet = tiny_setup(rng, extra_tokens=("a", "b", "c"))
        sizes = []
        real_heappop = decoder.heapq.heappop

        def recording_heappop(heap):
            sizes.append(len(heap))
            return real_heappop(heap)

        monkeypatch.setattr(decoder.heapq, "heappop", recording_heappop)
        out = suggest(snippet, params, vocab, k=2, limits=SearchLimits(heap_size=3))
        monkeypatch.undo()

        assert out
        # The root's expansion alone pushes more than three children.
        assert len(sizes) > 3 and max(sizes) == 3

    @pytest.mark.parametrize("model_kind", ["copy_attention", "conv_attention"])
    def test_decode_builds_no_graph(self, rng, monkeypatch, model_kind):
        vocab, params, snippet = tiny_setup(rng, extra_tokens=("a", "b"),
                                            body=("a", "zzz"))
        if model_kind == "conv_attention":  # the conv model has no copy head
            params = ModelParams.from_named({n: t for n, t in params.named_tensors()
                                             if n not in ("K_copy", "K_lambda")})
        created = []
        real_init = Tensor.__init__

        def recording_init(self, *args, **kwargs):
            real_init(self, *args, **kwargs)
            created.append(self)

        monkeypatch.setattr(Tensor, "__init__", recording_init)
        out = suggest(snippet, params, vocab, k=5, model_kind=model_kind)
        monkeypatch.undo()

        assert out and created
        assert [t for t in created if t.requires_grad or t._backward is not None] == []
        for _, t in params.named_tensors():
            assert t.requires_grad
            assert t.grad is None

    @pytest.mark.parametrize("model_kind", ["copy_attention", "conv_attention"])
    def test_child_states_are_arrays_made_without_tensors(self, rng, monkeypatch,
                                                          model_kind):
        vocab, params, snippet = tiny_setup(rng, extra_tokens=("a", "b"),
                                            body=("a", "zzz"))
        if model_kind == "conv_attention":  # the conv model has no copy head
            params = ModelParams.from_named({n: t for n, t in params.named_tensors()
                                             if n not in ("K_copy", "K_lambda")})
        inside, states, created = [], [], []
        real_init, real_next_state = Tensor.__init__, decoder.next_state

        def recording_init(self, *args, **kwargs):
            real_init(self, *args, **kwargs)
            created.append(bool(inside))

        def recording_next_state(*args, **kwargs):
            inside.append(1)
            try:
                state = real_next_state(*args, **kwargs)
            finally:
                inside.pop()
            states.append(state)
            return state

        monkeypatch.setattr(Tensor, "__init__", recording_init)
        monkeypatch.setattr(decoder, "next_state", recording_next_state)
        out = suggest(snippet, params, vocab, k=5, model_kind=model_kind)
        monkeypatch.undo()

        assert out and states and created  # encode still runs on Tensors
        assert not any(created)  # ... and no next_state makes one
        assert {type(state) for state in states} == {np.ndarray}


KINDS = ["copy_attention", "conv_attention"]


@pytest.mark.parametrize("model_kind", KINDS)
def test_no_tensor_is_made_inside_expand_or_a_step(rng, monkeypatch, model_kind):
    vocab, params, snippet = sharing_setup(rng, model_kind)
    inside, created, steps = [], [], []
    real_init, real_expand, real_step_fn = Tensor.__init__, decoder.expand, decoder.step_fn

    def recording_init(self, *args, **kwargs):
        real_init(self, *args, **kwargs)
        created.append(bool(inside))

    def inside_of(fn):
        def wrapper(*args, **kwargs):
            inside.append(1)
            try:
                return fn(*args, **kwargs)
            finally:
                inside.pop()
        return wrapper

    def recording_step(snippet, h_prev, p, encoded):
        steps.append(type(h_prev))
        return inside_of(real_step_fn(model_kind))(snippet, h_prev, p, encoded)

    monkeypatch.setattr(Tensor, "__init__", recording_init)
    monkeypatch.setattr(decoder, "expand", inside_of(real_expand))
    monkeypatch.setattr(decoder, "step_fn", lambda kind: recording_step)
    out = suggest(snippet, params, vocab, k=5, model_kind=model_kind,
                  limits=SearchLimits(max_steps=30))
    monkeypatch.undo()

    assert out and len(steps) > 1 and set(steps) == {np.ndarray}
    assert created and not any(created)  # the view and encode make the Tensors


@pytest.mark.parametrize("model_kind", KINDS)
def test_step_records_only_for_popped_children_and_completions(rng, monkeypatch,
                                                               model_kind):
    vocab, params, snippet = sharing_setup(rng, model_kind)
    records, expansions = [], []
    real_record, real_expand = decoder.StepRecord, decoder.expand

    def recording_record(*args):
        records.append(real_record(*args))
        return records[-1]

    def recording_expand(batch, *args, **kwargs):
        children, completed = real_expand(batch, *args, **kwargs)
        expansions.append((len(batch), len(children), len(completed)))
        return children, completed

    monkeypatch.setattr(decoder, "StepRecord", recording_record)
    monkeypatch.setattr(decoder, "expand", recording_expand)
    want = suggest(snippet, params, vocab, k=5, model_kind=model_kind,
                   limits=SearchLimits(max_steps=30))
    monkeypatch.undo()

    # Every expanded partial but the root is a popped child; each
    # completion ends a name.
    popped = sum(n for n, _, _ in expansions) - 1
    n_children = sum(n for _, n, _ in expansions)
    n_completions = sum(n for _, _, n in expansions)
    assert len(records) <= popped + n_completions < n_children
    got = suggest(snippet, params, vocab, k=5, model_kind=model_kind,
                  limits=SearchLimits(max_steps=30))
    assert decoded(got) == decoded(want)


@pytest.mark.parametrize("model_kind", KINDS)
def test_evaluate_model_makes_no_step_record(rng, monkeypatch, model_kind):
    vocab, params, _ = sharing_setup(rng, model_kind)
    examples = [MethodExample(name=name, body=body, file_path="f.java", project="p")
                for name, body in [(["a", "b"], ["a", "b", "zzz"]), (["zzz"], ["c", "zzz"])]]
    records = []
    monkeypatch.setattr(decoder, "StepRecord", lambda *args: records.append(args))
    _, rows = evaluate_model(params, vocab, examples, model_kind=model_kind,
                             limits=SearchLimits(max_steps=30))
    assert all(row["suggestions"] for row in rows)
    assert records == []


@pytest.mark.parametrize("model_kind", KINDS)
def test_a_decode_view_decodes_as_its_parameters(rng, model_kind):
    vocab, params, snippet = sharing_setup(rng, model_kind)
    limits = SearchLimits(max_steps=30)
    want = suggest(snippet, params, vocab, k=5, model_kind=model_kind, limits=limits)
    got = suggest(snippet, decode_view(params), vocab, k=5, model_kind=model_kind,
                  limits=limits)
    assert want and decoded(got) == decoded(want)


def sharing_setup(rng, model_kind):
    """A model whose decodes emit some tokens from several parents."""
    vocab = make_vocab(["a", "b", "c", "d"])
    params = make_params(len(vocab), d=4, k1=2, k2=3, w1=2, w2=1, w3=2,
                         rng=rng, scale=0.8)
    if model_kind == "conv_attention":  # the conv model has no copy head
        params = ModelParams.from_named({n: t for n, t in params.named_tensors()
                                         if n not in ("K_copy", "K_lambda")})
    snippet = encode_snippet(["a", "b", "zzz", "a", "c"], vocab)
    return vocab, params, snippet


def decoded(suggestions):
    """Names, log-probs and every attention snapshot, as exact values."""
    return [(s.name, s.log_prob,
             [(r.token, r.alpha.tobytes(),
               None if r.kappa is None else r.kappa.tobytes(), r.lam)
              for r in s.steps])
            for s in suggestions]


class TestSharedGruProducts:
    """An expansion, one ``expand`` call over a batch of partials, advances
    the open children of every partial of the batch in one GRU step over
    their stacked embedding rows and their parents' state rows, with one
    vector-matrix product per row on each side."""

    limits = SearchLimits(max_steps=30)

    @pytest.mark.parametrize("model_kind", KINDS)
    def test_equals_a_decode_where_every_child_computes_its_own(
            self, rng, monkeypatch, model_kind):
        vocab, params, snippet = sharing_setup(rng, model_kind)
        got = suggest(snippet, params, vocab, k=5, model_kind=model_kind,
                      limits=self.limits)

        real_next_state = decoder.next_state
        child_tokens = []

        def plain_next_state(p, h_prev, *, token_id):
            # Each child's own state from its parent's, one at a time.
            child_tokens.extend(token_id.tolist())
            return np.array([real_next_state(p, h, token_id=t)
                             for h, t in zip(h_prev, token_id)]
                            ).reshape(len(token_id), h_prev.shape[-1])

        monkeypatch.setattr(decoder, "next_state", plain_next_state)
        want = suggest(snippet, params, vocab, k=5, model_kind=model_kind,
                       limits=self.limits)
        assert len(want) == 5
        assert len(child_tokens) > len(set(child_tokens))  # tokens repeat
        assert decoded(got) == decoded(want)

    @pytest.mark.parametrize("model_kind", KINDS)
    def test_one_batched_gru_step_per_expansion(self, rng, monkeypatch, model_kind):
        from codesum import model as model_module

        vocab, params, snippet = sharing_setup(rng, model_kind)
        view = decode_view(params)
        real_gru_step, calls = model_module.gru_step, []

        def recording_gru_step(x, h_prev, p):
            calls.append((x, h_prev, real_gru_step(x, h_prev, p)))
            return calls[-1][2]

        monkeypatch.setattr(model_module, "gru_step", recording_gru_step)
        expansions = []
        real_expand = decoder.expand

        def recording_expand(*args, **kwargs):
            before = len(calls)
            children, completed = real_expand(*args, **kwargs)
            expansions.append((children, calls[before:]))
            return children, completed

        monkeypatch.setattr(decoder, "expand", recording_expand)
        assert suggest(snippet, params, vocab, k=5, model_kind=model_kind,
                       limits=self.limits)
        assert len(expansions) > 1
        assert len(calls) == len(expansions)
        child_tokens = []
        for children, made in expansions:
            (inputs, parents, states), = made
            # An OOV child, copied from the snippet, feeds the unknown token.
            token_ids = [vocab.id(c.subtokens[-1]) for c in children]
            child_tokens.extend(token_ids)
            assert inputs.shape == (len(children), view.E.shape[1])
            assert inputs.tobytes() == view.E[token_ids].tobytes()
            for row, token_id in enumerate(token_ids):
                want = real_gru_step(view.E[token_id], parents[row], view.gru)
                assert states[row].tobytes() == want.tobytes()
        assert len(child_tokens) > len(set(child_tokens)) > 1

    @pytest.mark.parametrize("model_kind", KINDS)
    def test_one_stacked_update_per_expansion(self, rng, monkeypatch, model_kind):
        vocab, params, snippet = sharing_setup(rng, model_kind)
        max_len = 2
        # Per expansion: its partials' lengths, then each update's token
        # ids, parent state rows and states, then its open children.
        expansions = []
        real_expand, real_next_state = decoder.expand, decoder.next_state

        def recording_expand(batch, *args, **kwargs):
            updates = []
            expansions.append(([len(p.subtokens) for p in batch], updates))
            children, completed = real_expand(batch, *args, **kwargs)
            updates.append(children)
            return children, completed

        def recording_next_state(p, h_prev, *, token_id):
            states = real_next_state(p, h_prev, token_id=token_id)
            expansions[-1][1].append((token_id.tolist(), h_prev, states))
            return states

        monkeypatch.setattr(decoder, "expand", recording_expand)
        monkeypatch.setattr(decoder, "next_state", recording_next_state)
        assert suggest(snippet, params, vocab, k=5, model_kind=model_kind,
                       limits=SearchLimits(max_steps=30, max_name_len=max_len))
        assert len(expansions) > 1
        assert any(len(lengths) > 1 for lengths, _ in expansions)
        for lengths, ((token_ids, parents, states), children) in expansions:
            assert states.shape == parents.shape == (len(children), 3)
            # An OOV child, copied from the snippet, feeds the unknown token.
            assert token_ids == [vocab.id(c.subtokens[-1]) for c in children]
            for row, parent, child in zip(states, parents, children):
                assert child.state.tobytes() == row.tobytes()
                assert child.parent.state.tobytes() == parent.tobytes()
            if set(lengths) == {max_len}:
                assert children == []
        assert len({id(c.parent) for _, (_, children) in expansions for c in children}) > \
            len(expansions)  # children of several parents share an update
        assert any(set(lengths) == {max_len} for lengths, _ in expansions)  # zero-row updates
        emitted = {c.subtokens[-1] for _, (_, children) in expansions for c in children}
        assert ("zzz" in emitted) == (model_kind == "copy_attention")

    @pytest.mark.parametrize("model_kind", KINDS)
    def test_memo_does_not_outlive_a_call(self, rng, model_kind):
        vocab, params, snippet = sharing_setup(rng, model_kind)
        before = suggest(snippet, params, vocab, k=5, model_kind=model_kind,
                         limits=self.limits)
        for _, t in params.named_tensors():  # in place, as sgd_update does
            t.data -= 0.3 * rng.normal(size=t.shape)
        got = suggest(snippet, params, vocab, k=5, model_kind=model_kind,
                      limits=self.limits)
        fresh = ModelParams.from_named({n: Tensor(t.data.copy(), requires_grad=True)
                                        for n, t in params.named_tensors()})
        want = suggest(snippet, fresh, vocab, k=5, model_kind=model_kind,
                       limits=self.limits)
        assert decoded(got) == decoded(want)
        assert decoded(got) != decoded(before)


class TestBeamEqualsExhaustive:
    @pytest.mark.parametrize("model_kind", ["copy_attention", "conv_attention"])
    def test_single_model(self, rng, model_kind):
        vocab, params, snippet = tiny_setup(rng, extra_tokens=("a",),
                                            body=("a", "a"))
        limits = SearchLimits(max_steps=1_000_000, heap_size=10**9,
                              successors=10**9, max_name_len=3)
        got = suggest(snippet, params, vocab, k=5, model_kind=model_kind,
                      limits=limits)
        want = exhaustive_top_k(snippet, params, vocab, k=5, max_len=3,
                                model_kind=model_kind)
        assert [tuple(s.name) for s in got] == [tuple(name) for name, _ in want]
        for s, (_, lp) in zip(got, want):
            assert s.log_prob == pytest.approx(lp, abs=1e-9)

    UNBOUNDED = SearchLimits(max_steps=1_000_000, heap_size=10**9, successors=10**9,
                             max_name_len=2)

    def test_a_token_below_1e_300_scores_as_the_oracle(self, rng):
        # Every name holding `a` has a probability below 1e-300, yet above
        # zero: a child's log-probability is the log of its probability.
        vocab, params, snippet = tiny_setup(rng, extra_tokens=("a", "b", "c"),
                                            body=("a", "b", "c"))
        params.b.data[vocab.id("a")] = -700.0
        got = suggest(snippet, params, vocab, k=200, model_kind="conv_attention",
                      limits=self.UNBOUNDED)
        want = exhaustive_top_k(snippet, params, vocab, k=200, max_len=2,
                                model_kind="conv_attention")
        assert dict(want)[("a",)] < math.log(1e-300)
        assert [tuple(s.name) for s in got] == [name for name, _ in want]
        for s, (_, lp) in zip(got, want):
            assert s.log_prob == pytest.approx(lp, abs=1e-9)

    def test_a_token_of_probability_zero_opens_no_child(self, rng):
        vocab, params, snippet = tiny_setup(rng, extra_tokens=("a", "b", "c"),
                                            body=("a", "b", "c"))
        params.b.data[vocab.id("c")] = -1e4
        limits = replace(self.UNBOUNDED, successors=len(vocab))
        got = suggest(snippet, params, vocab, k=200, model_kind="conv_attention",
                      limits=limits)
        want = exhaustive_top_k(snippet, params, vocab, k=200, max_len=2,
                                model_kind="conv_attention")
        assert [tuple(s.name) for s in got] == [name for name, _ in want]
        assert got and not any("c" in s.name for s in got)

    def test_twenty_random_tiny_models(self):
        # Acceptance-style sweep at a smaller max length for speed here;
        # the full version runs in the acceptance suite.
        for seed in range(5):
            rng = np.random.default_rng(seed)
            vocab, params, snippet = tiny_setup(rng, extra_tokens=("a",),
                                                body=("a", "a"), scale=0.8)
            limits = SearchLimits(max_steps=1_000_000, heap_size=10**9,
                                  successors=10**9, max_name_len=2)
            got = suggest(snippet, params, vocab, k=5, limits=limits)
            want = exhaustive_top_k(snippet, params, vocab, k=5, max_len=2)
            assert [tuple(s.name) for s in got] == [tuple(n) for n, _ in want]
            for s, (_, lp) in zip(got, want):
                assert s.log_prob == pytest.approx(lp, abs=1e-9)


def recorded_search(monkeypatch, *args, **kwargs):
    """``suggest(*args, **kwargs)`` with the partials it pops, in order, and
    each batch it expands, with the number of pops made before it."""
    popped, batches = [], []
    real_pop, real_expand = decoder.heapq.heappop, decoder.expand

    def recording_pop(heap):
        item = real_pop(heap)
        popped.append(item[2])
        return item

    def recording_expand(batch, *rest):
        batches.append((len(popped), list(batch)))
        return real_expand(batch, *rest)

    with monkeypatch.context() as m:
        m.setattr(decoder.heapq, "heappop", recording_pop)
        m.setattr(decoder, "expand", recording_expand)
        found = suggest(*args, **kwargs)
    return found, popped, batches


class TestFrontier:
    """``suggest`` pops up to ``FRONTIER`` partials at or above the bar and
    expands them as one batch."""

    @pytest.mark.parametrize("model_kind", KINDS)
    def test_a_decode_pops_at_most_one_pruned_partial_per_batch(self, rng, monkeypatch,
                                                                model_kind):
        vocab, params, snippet = sharing_setup(rng, model_kind)
        params.b.data[vocab.id(NAME_END)] += 2.0  # names complete early and set a bar
        found, popped, batches = recorded_search(monkeypatch, snippet, params, vocab, k=3,
                                                 model_kind=model_kind)
        # Each batch is the run of pops before its expansion, less at most
        # one pop that found the rest of the heap below the bar.
        start, pruned = 0, []
        for end, batch in batches:
            assert [id(p) for p in popped[start:start + len(batch)]] == [id(p) for p in batch]
            pruned.append(end - start - len(batch))
            start = end
        pruned.append(len(popped) - start)  # after the last batch
        assert all(n in (0, 1) for n in pruned) and sum(pruned) >= 1
        assert len(popped) < SearchLimits().max_steps
        unbound = suggest(snippet, params, vocab, k=3, model_kind=model_kind,
                          limits=SearchLimits(max_steps=10**6))
        assert decoded(found) == decoded(unbound)

    @pytest.mark.parametrize("max_steps", [1, 2, 9, 10, 17])
    def test_max_steps_counts_expanded_partials(self, rng, monkeypatch, max_steps):
        vocab, params, snippet = sharing_setup(rng, "copy_attention")
        params.b.data[vocab.id(NAME_END)] -= 20.0  # nothing completes, so no bar
        _, _, batches = recorded_search(monkeypatch, snippet, params, vocab, k=3,
                                        limits=SearchLimits(max_steps=max_steps))
        sizes = [len(batch) for _, batch in batches]
        assert sum(sizes) == max_steps and sizes[0] == 1  # the root alone
        left = max_steps - 1
        for size in sizes[1:]:
            assert size == min(decoder.FRONTIER, left)
            left -= size

    def test_frontier_size_changes_no_number(self, monkeypatch):
        # Any pop order reaches the exact top k when no limit binds, and
        # every step and state row is its partial's own, bit for bit, so
        # names, their order and attention records are equal.  A head over
        # several rows moves log-probabilities within RTOL; with one
        # partial per batch every head has one row, and they are exact.
        limits = SearchLimits(max_steps=10**6, heap_size=10**9, successors=10**9,
                              max_name_len=2)
        for seed in range(20):
            rng = np.random.default_rng(300 + seed)
            kind = KINDS[seed % 2]
            vocab, params, snippet = tiny_setup(rng, body=("a",) * int(rng.integers(1, 4)),
                                                scale=float(rng.uniform(0.3, 1.5)))
            if kind == "conv_attention":
                params = ModelParams.from_named({n: t for n, t in params.named_tensors()
                                                 if n not in ("K_copy", "K_lambda")})
            runs = []
            for frontier in (1, 2, 8, 64):
                monkeypatch.setattr(decoder, "FRONTIER", frontier)
                got = suggest(snippet, params, vocab, k=5, model_kind=kind, limits=limits)
                runs.append([(s.name, s.log_prob.hex(), r) for s, (_, _, r) in
                             zip(got, decoded(got))])
            monkeypatch.undo()
            assert runs[0]
            for run in runs[1:]:
                assert [(name, r) for name, _, r in run] == [(name, r) for name, _, r in runs[0]]
                assert all(close(lp, want) for (_, lp, _), (_, want, _) in zip(run, runs[0]))
            want = exhaustive_top_k(snippet, params, vocab, k=5, max_len=2, model_kind=kind)
            assert [(name, lp) for name, lp, _ in runs[0]] == \
                [(list(name), lp.hex()) for name, lp in want]
