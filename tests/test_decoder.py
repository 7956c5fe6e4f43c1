"""Search behavior, including equivalence with exhaustive enumeration."""

import math

import numpy as np
import pytest

from conftest import make_params, make_vocab
from codesum import decoder
from codesum.corpus.vocabulary import NAME_END
from codesum.decoder import (PartialSuggestion, SearchLimits, decode_view, expand,
                             suggest)
from codesum.model import (
    ModelParams,
    StepOutput,
    copy_attention_step,
    encode_snippet,
    merged_distribution,
    next_state,
    step_fn,
)
from codesum.tensorcore import Tensor, input_products


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


def exhaustive_top_k(snippet, params, vocab, k, max_len, model_kind="copy_attention"):
    """Brute-force enumeration of every name up to ``max_len`` subtokens.

    Scores sequences with the same model functions but none of the
    search machinery.
    """
    step = step_fn(model_kind)
    alphabet = sorted(merged_distribution(
        step(snippet, params.h_init, params), snippet, vocab))
    results = []

    def walk(prefix, log_prob, state):
        out = step(snippet, state, params)
        merged = merged_distribution(out, snippet, vocab)
        for token, prob in merged.items():
            if prob <= 0.0:
                continue
            lp = log_prob + math.log(prob)
            if token == NAME_END:
                if prefix:
                    results.append((list(prefix), lp))
                continue
            if len(prefix) + 1 > max_len:
                continue
            nstate = next_state(params, state, token_id=vocab.id(token))
            walk(prefix + [token], lp, nstate)

    walk([], 0.0, params.h_init)
    dedup = {}
    for name, lp in results:
        key = tuple(name)
        if key not in dedup or lp > dedup[key]:
            dedup[key] = lp
    ranked = sorted(dedup.items(), key=lambda kv: (-kv[1], kv[0]))
    assert len(alphabet) <= 8
    return ranked[:k]


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
        out = copy_attention_step(snippet, params.h_init, params)
        merged = merged_distribution(out, snippet, vocab)
        root = PartialSuggestion(subtokens=(), log_prob=-1.5, state=params.h_init)
        children, completed = expand(root, out, snippet, params, vocab,
                                     SearchLimits(successors=10_000))
        for child in children:
            tok = child.subtokens[-1]
            assert child.log_prob == pytest.approx(-1.5 + math.log(merged[tok]))
        for s in completed:
            assert s.name == [] or s.log_prob <= 0.0

    def test_successor_cap_one_is_greedy(self, rng):
        vocab, params, snippet = view_setup(rng)
        out = copy_attention_step(snippet, params.h_init, params)
        merged = merged_distribution(out, snippet, vocab)
        best_tok = max(sorted(merged), key=lambda t: merged[t])
        root = PartialSuggestion(subtokens=(), log_prob=0.0, state=params.h_init)
        children, completed = expand(root, out, snippet, params, vocab,
                                     SearchLimits(successors=1))
        assert len(children) + len(completed) <= 1
        if children:
            assert children[0].subtokens == (best_tok,)

    def test_cap_beyond_alphabet_changes_nothing(self, rng):
        vocab, params, snippet = view_setup(rng)
        out = copy_attention_step(snippet, params.h_init, params)
        merged = merged_distribution(out, snippet, vocab)
        root = PartialSuggestion(subtokens=("x",), log_prob=0.0,
                                 state=params.h_init)
        a = expand(root, out, snippet, params, vocab,
                   SearchLimits(successors=len(merged)))
        b = expand(root, out, snippet, params, vocab,
                   SearchLimits(successors=10 * len(merged)))
        assert [c.subtokens for c in a[0]] == [c.subtokens for c in b[0]]
        assert len(a[1]) == len(b[1])

    def test_empty_name_completion_dropped(self, rng):
        vocab, params, snippet = view_setup(rng)
        out = copy_attention_step(snippet, params.h_init, params)
        root = PartialSuggestion(subtokens=(), log_prob=0.0, state=params.h_init)
        _, completed = expand(root, out, snippet, params, vocab,
                              SearchLimits(successors=10_000))
        assert completed == []

    def test_length_cap_allows_only_end(self, rng):
        vocab, params, snippet = view_setup(rng)
        out = copy_attention_step(snippet, params.h_init, params)
        long_prefix = tuple("t" for _ in range(10))
        partial = PartialSuggestion(subtokens=long_prefix, log_prob=-1.0,
                                    state=params.h_init)
        children, completed = expand(partial, out, snippet, params, vocab,
                                     SearchLimits(successors=10_000, max_name_len=10))
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
        out = StepOutput(alpha=Tensor(np.full(3, 1 / 3)), nhat=Tensor(np.zeros(3)),
                         params=params)
        merged = merged_distribution(out, snippet, vocab)
        full_sort = sorted(merged.items(), key=lambda kv: (-kv[1], kv[0]))[:4]
        root = PartialSuggestion(subtokens=("x",), log_prob=0.0, state=params.h_init)
        children, completed = expand(root, out, snippet, params, vocab,
                                     SearchLimits(successors=4))
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
        out = StepOutput(alpha=np.full(3, 1 / 3), nhat=np.zeros(3), params=params)
        merged = merged_distribution(out, snippet, vocab)
        root = PartialSuggestion(subtokens=("x",), log_prob=0.0, state=params.h_init)
        children, completed = expand(root, out, snippet, params, vocab,
                                     SearchLimits(successors=7))
        assert [c.subtokens[-1] for c in children][:5] == ["c", "e", "a", "b", "d"]
        assert [s.name for s in completed] == [["x"]]
        full_sort = sorted(merged.items(), key=lambda kv: (-kv[1], kv[0]))[:7]
        assert [c.subtokens[-1] for c in children] == \
            [tok for tok, _ in full_sort if tok != NAME_END]

    def test_bar_drops_children_before_their_state(self, rng, monkeypatch):
        vocab, params, snippet = view_setup(rng, extra_tokens=("a", "b", "c"),
                                            body=("a", "zzz"))
        out = copy_attention_step(snippet, params.h_init, params)
        root = PartialSuggestion(subtokens=("x",), log_prob=-0.5, state=params.h_init)
        limits = SearchLimits(successors=10_000)
        all_children, all_completed = expand(root, out, snippet, params, vocab, limits)
        bar = sorted(c.log_prob for c in all_children)[len(all_children) // 2]
        kept = [c for c in all_children if c.log_prob >= bar]
        assert 0 < len(kept) < len(all_children)

        rows = []
        real_next_state = decoder.next_state

        def counting_next_state(p, h_prev, *, xs, hs):
            rows.append([len(x) for x in xs])
            return real_next_state(p, h_prev, xs=xs, hs=hs)

        monkeypatch.setattr(decoder, "next_state", counting_next_state)
        children, completed = expand(root, out, snippet, params, vocab, limits, bar)
        assert rows == [[len(kept)] * 3]
        assert [(c.subtokens, c.log_prob) for c in children] == \
            [(c.subtokens, c.log_prob) for c in kept]
        for got, want in zip(children, kept):
            assert got.state.tobytes() == want.state.tobytes()
        assert [(s.name, s.log_prob) for s in completed] == \
            [(s.name, s.log_prob) for s in all_completed]

    def test_one_state_update_per_expansion_even_with_no_open_child(
            self, rng, monkeypatch):
        vocab, params, snippet = view_setup(rng)
        out = copy_attention_step(snippet, params.h_init, params)
        partial = PartialSuggestion(subtokens=("t", "t"), log_prob=-1.0,
                                    state=params.h_init)
        calls = []
        real_next_state = decoder.next_state

        def recording_next_state(*args, **kwargs):
            state = real_next_state(*args, **kwargs)
            calls.append(state.shape)
            return state

        monkeypatch.setattr(decoder, "next_state", recording_next_state)
        children, completed = expand(partial, out, snippet, params, vocab,
                                     SearchLimits(max_name_len=2))
        assert children == [] and len(completed) == 1
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

    def recording_expand(*args, **kwargs):
        children, completed = real_expand(*args, **kwargs)
        expansions.append((len(children), len(completed)))
        return children, completed

    monkeypatch.setattr(decoder, "StepRecord", recording_record)
    monkeypatch.setattr(decoder, "expand", recording_expand)
    want = suggest(snippet, params, vocab, k=5, model_kind=model_kind,
                   limits=SearchLimits(max_steps=30))
    monkeypatch.undo()

    # Every expansion but the root's pops one child; each completion ends a name.
    n_children = sum(n for n, _ in expansions)
    n_completions = sum(n for _, n in expansions)
    assert len(records) <= len(expansions) - 1 + n_completions < n_children
    got = suggest(snippet, params, vocab, k=5, model_kind=model_kind,
                  limits=SearchLimits(max_steps=30))
    assert decoded(got) == decoded(want)


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


def product_table(params):
    """Each token id keyed by the bytes of its input-side GRU products, so
    a stacked row of products names the token it was made for."""
    view = decode_view(params)
    table = {b"".join(x.tobytes() for x in input_products(row, view.gru)): t
             for t, row in enumerate(view.E)}
    assert len(table) == len(view.E)  # no two tokens share products
    return table


def row_tokens(table, xs):
    return [table[b"".join(x[j].tobytes() for x in xs)] for j in range(len(xs[0]))]


class TestSharedGruProducts:
    """Siblings share their parent's state-side GRU products, and an
    expansion takes its open children's input-side products in one
    batched product."""

    limits = SearchLimits(max_steps=30)

    @pytest.mark.parametrize("model_kind", KINDS)
    def test_equals_a_decode_where_every_child_computes_its_own(
            self, rng, monkeypatch, model_kind):
        vocab, params, snippet = sharing_setup(rng, model_kind)
        got = suggest(snippet, params, vocab, k=5, model_kind=model_kind,
                      limits=self.limits)

        real_next_state = decoder.next_state
        table, child_tokens = product_table(params), []

        def plain_next_state(p, h_prev, *, xs, hs):
            token_ids = row_tokens(table, xs)
            child_tokens.extend(token_ids)
            return np.array([real_next_state(p, h_prev, token_id=t) for t in token_ids]
                            ).reshape(len(token_ids), len(h_prev))

        monkeypatch.setattr(decoder, "next_state", plain_next_state)
        want = suggest(snippet, params, vocab, k=5, model_kind=model_kind,
                       limits=self.limits)
        assert len(want) == 5
        assert len(child_tokens) > len(set(child_tokens))  # tokens repeat
        assert decoded(got) == decoded(want)

    @pytest.mark.parametrize("model_kind", KINDS)
    def test_one_batched_input_product_per_expansion(
            self, rng, monkeypatch, model_kind):
        from codesum.tensorcore import gru as gru_module

        vocab, params, snippet = sharing_setup(rng, model_kind)
        view = decode_view(params)
        calls = {"input_products": [], "state_products": []}

        def recording(name, fn):
            def wrapper(x, p):
                products = fn(x, p)
                calls[name].append((x, products))
                return products
            return wrapper

        # The GRU module too, so products computed inside gru_step count.
        for module in (decoder, gru_module):
            for name in calls:
                monkeypatch.setattr(module, name, recording(name, getattr(module, name)))
        expansions = []
        real_expand = decoder.expand

        def recording_expand(partial, *args, **kwargs):
            before = {name: len(made) for name, made in calls.items()}
            children, completed = real_expand(partial, *args, **kwargs)
            expansions.append((partial, children, {name: made[before[name]:]
                                                   for name, made in calls.items()}))
            return children, completed

        monkeypatch.setattr(decoder, "expand", recording_expand)
        assert suggest(snippet, params, vocab, k=5, model_kind=model_kind,
                       limits=self.limits)
        assert len(expansions) > 1
        assert sum(len(made) for made in calls.values()) == 2 * len(expansions)
        child_tokens = []
        for partial, children, made in expansions:
            (inputs, products), = made["input_products"]
            (state, _), = made["state_products"]
            assert state is partial.state
            # An OOV child, copied from the snippet, feeds the unknown token.
            token_ids = [vocab.id(c.subtokens[-1]) for c in children]
            child_tokens.extend(token_ids)
            assert inputs.shape == (len(children), view.E.shape[1])
            assert inputs.tobytes() == view.E[token_ids].tobytes()
            for row, token_id in enumerate(token_ids):
                want = input_products(view.E[token_id], view.gru)
                assert [x[row].tobytes() for x in products] == [w.tobytes() for w in want]
        assert len(child_tokens) > len(set(child_tokens)) > 1

    @pytest.mark.parametrize("model_kind", KINDS)
    def test_one_stacked_update_per_expansion(self, rng, monkeypatch, model_kind):
        vocab, params, snippet = sharing_setup(rng, model_kind)
        max_len = 2
        # Per expansion: its prefix length, then each update's token ids and
        # states, then its open children.
        expansions = []
        real_expand, real_next_state = decoder.expand, decoder.next_state
        table = product_table(params)

        def recording_expand(partial, *args, **kwargs):
            updates = []
            expansions.append((len(partial.subtokens), updates))
            children, completed = real_expand(partial, *args, **kwargs)
            updates.append(children)
            return children, completed

        def recording_next_state(p, h_prev, *, xs, hs):
            states = real_next_state(p, h_prev, xs=xs, hs=hs)
            expansions[-1][1].append((row_tokens(table, xs), states))
            return states

        monkeypatch.setattr(decoder, "expand", recording_expand)
        monkeypatch.setattr(decoder, "next_state", recording_next_state)
        assert suggest(snippet, params, vocab, k=5, model_kind=model_kind,
                       limits=SearchLimits(max_steps=30, max_name_len=max_len))
        assert len(expansions) > 1
        for length, ((token_ids, states), children) in expansions:
            assert states.shape == (len(children), 3)
            # An OOV child, copied from the snippet, feeds the unknown token.
            assert token_ids == [vocab.id(c.subtokens[-1]) for c in children]
            for row, child in zip(states, children):
                assert child.state.tobytes() == row.tobytes()
            if length == max_len:
                assert children == []
        assert any(length == max_len for length, _ in expansions)  # zero-row updates
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
