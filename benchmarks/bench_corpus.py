"""Seeded synthetic Java corpus for the benchmark.

The generator writes Java source text: one class per file, each with a
field, a constructor and an ``@Override`` method (both of which the
extractor must drop) and a run of concrete methods.  Identifiers are
camelCase joins of words drawn from a Zipf distribution over a seeded
pseudo-word lexicon, so the vocabulary size and the out-of-vocabulary
rate follow from the corpus size the way they do on real projects.
Method names are a verb plus one or two "topic" nouns that the body
mentions with some probability, which makes part of every name
copyable from its body.

The dataset is then built the way ``codesum build-corpus`` builds it:
``extract_methods`` -> ``tokenize_method`` -> ``split_examples`` ->
``build_vocabulary``, so the corpus layer runs for real inside set-up.
Those functions are called through ``codesum.corpus`` so that the traced
run's hooks on that module see them.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from codesum import corpus as cc
from codesum.corpus import MethodExample, Vocabulary

VERBS = (
    "get", "set", "is", "has", "add", "remove", "create", "find", "update",
    "to", "read", "write", "load", "save", "parse", "build", "check", "handle",
    "compute", "init", "reset", "clear", "close", "open", "run", "process",
    "apply", "validate", "convert", "format", "send", "start", "stop", "make",
)
_TYPES = ("int", "long", "boolean", "String", "Object", "double", "List", "Map")
_JAVA_WORDS = {
    "abstract", "assert", "boolean", "break", "byte", "case", "catch", "char",
    "class", "const", "continue", "default", "do", "double", "else", "enum",
    "extends", "final", "finally", "float", "for", "goto", "if", "implements",
    "import", "instanceof", "int", "interface", "long", "native", "new",
    "package", "private", "protected", "public", "return", "short", "static",
    "strictfp", "super", "switch", "synchronized", "this", "throw", "throws",
    "transient", "try", "void", "volatile", "while", "true", "false", "null",
    "var", "record", "yield",
}
_ONSETS = ("b", "c", "d", "f", "g", "h", "k", "l", "m", "n", "p", "r", "s",
           "t", "v", "w", "z", "br", "ch", "cl", "dr", "fl", "gr", "pl", "pr",
           "sh", "sl", "st", "th", "tr")
_VOWELS = ("a", "e", "i", "o", "u", "ai", "ea", "io", "ou")
_CODAS = ("", "", "", "n", "r", "s", "t", "l", "m", "x", "ck", "nd", "st")


@dataclass(frozen=True)
class CorpusSpec:
    """Size and shape of one workload's synthetic corpus."""

    n_files: int
    methods_per_file: tuple[int, int]   # inclusive range
    statements: tuple[int, int]         # body statements per method, inclusive
    lexicon: int                        # distinct noun pseudo-words
    zipf: float                         # exponent of the noun rank distribution


@dataclass
class Corpus:
    """The dataset built from generated sources."""

    splits: dict[str, list[MethodExample]]
    vocab: Vocabulary
    bodies: dict[tuple, str]                # body_key(example) -> Java body text


# Every corpus draws its words from one fixed lexicon, so a checkpoint
# trained on one corpus meets the same language in another.
LEXICON_SEED = 2016
# Chance that a body identifier reuses one of its method name's nouns,
# which is what makes part of every name copyable from its body.
TOPIC_SHARE = 0.5


class _Words:
    """Pseudo-word lexicon (fixed by LEXICON_SEED) with Zipf-distributed draws."""

    def __init__(self, rng: np.random.Generator, size: int, exponent: float):
        lex = np.random.default_rng(LEXICON_SEED)
        seen: set[str] = set(VERBS) | _JAVA_WORDS
        words: list[str] = []
        while len(words) < size:
            n_syll = int(lex.integers(1, 4))
            w = "".join(
                _ONSETS[lex.integers(len(_ONSETS))] + _VOWELS[lex.integers(len(_VOWELS))]
                for _ in range(n_syll)) + _CODAS[lex.integers(len(_CODAS))]
            if len(w) >= 3 and w not in seen:
                seen.add(w)
                words.append(w)
        self.words = words
        ranks = np.arange(1, size + 1, dtype=np.float64)
        weights = ranks ** -exponent
        self.cdf = np.cumsum(weights / weights.sum())
        self.rng = rng

    def noun(self) -> str:
        i = int(np.searchsorted(self.cdf, self.rng.random(), side="right"))
        return self.words[min(i, len(self.words) - 1)]


def _camel(words: list[str], upper_first: bool = False) -> str:
    head = words[0].capitalize() if upper_first else words[0]
    return head + "".join(w.capitalize() for w in words[1:])


class _Writer:
    """Writes one file's Java source, remembering each kept method."""

    def __init__(self, rng: np.random.Generator, words: _Words, spec: CorpusSpec):
        self.rng = rng
        self.words = words
        self.spec = spec

    def _pick(self, seq):
        return seq[int(self.rng.integers(len(seq)))]

    def _ident(self, topic: list[str], n_max: int = 2, upper: bool = False) -> str:
        n = int(self.rng.integers(1, n_max + 1))
        parts = [self._pick(topic) if topic and self.rng.random() < TOPIC_SHARE
                 else self.words.noun() for _ in range(n)]
        return _camel(parts, upper_first=upper)

    def _statement(self, topic: list[str], local: str) -> str:
        r = self.rng
        kind = int(r.integers(6))
        other = self._ident(topic)
        call = self._pick(VERBS) + self._ident(topic, 1, upper=True)
        if kind == 0:
            return f"{self._pick(_TYPES)} {other} = {local}.{call}({self._ident(topic)});"
        if kind == 1:
            return f"this.{other} = {local};"
        if kind == 2:
            return f"if ({local} != null) {{ {other}.{call}({local}); }}"
        if kind == 3:
            return (f"for (int i = 0; i < {other}.size(); i++) "
                    f"{{ {local}.{call}({other}.get(i)); }}")
        if kind == 4:
            return f'{local}.{call}("{self.words.noun()}", {int(r.integers(100))});'
        return f"{local} = {other} + {int(r.integers(10))} * {self._ident(topic)};"

    def method(self) -> tuple[str, str, str]:
        """(name, full declaration text, body text) of one concrete method."""
        r = self.rng
        topic = [self.words.noun() for _ in range(int(r.integers(1, 3)))]
        name = _camel([self._pick(VERBS), *topic])
        local = self._ident(topic)
        lo, hi = self.spec.statements
        stmts = [self._statement(topic, local) for _ in range(int(r.integers(lo, hi + 1)))]
        stmts.append(f"return {local};")
        body = "{ " + " ".join(stmts) + " }"
        decl = f"    public Object {name}(Object {local}) {body}\n"
        return name, decl, body

    def file(self, index: int) -> tuple[str, str, list[tuple[str, str]]]:
        r = self.rng
        cls = _camel([self.words.noun(), self.words.noun()], upper_first=True) + str(index)
        base = _camel([self.words.noun()], upper_first=True)
        field_name = self._ident([])
        lo, hi = self.spec.methods_per_file
        kept = [self.method() for _ in range(int(r.integers(lo, hi + 1)))]
        lines = [
            f"package bench.p{index % 17};",
            "",
            "import java.util.List;",
            "",
            f"/** Generated class {index}. */",
            f"public class {cls} extends {base} {{",
            f"    private Object {field_name};",
            "",
            f"    public {cls}(Object {field_name}) {{ this.{field_name} = {field_name}; }}",
            "",
            "    @Override",
            f'    public String toString() {{ return "{cls}" + {field_name}; }}',
            "",
        ]
        lines.extend(decl for _, decl, _ in kept)
        lines.append("}")
        path = f"src/bench/p{index % 17}/{cls}.java"
        return path, "\n".join(lines) + "\n", [(name, body) for name, _, body in kept]


def generate_sources(spec: CorpusSpec, seed: int, stream: int = 0):
    """Java files for ``spec``: [(path, text)] and the methods each must yield.

    ``stream`` separates corpora drawn with the same seed.
    """
    rng = np.random.default_rng([seed, stream])
    words = _Words(rng, spec.lexicon, spec.zipf)
    writer = _Writer(rng, words, spec)
    sources, expected = [], {}
    for i in range(spec.n_files):
        path, text, kept = writer.file(i)
        sources.append((path, text))
        expected[path] = kept
    return sources, expected


class CorpusMismatch(RuntimeError):
    """The extractor's output disagrees with what the generator wrote."""


def build_corpus(spec: CorpusSpec, seed: int, stream: int = 0) -> Corpus:
    """Generate, extract, tokenize, split and index one corpus."""
    sources, expected = generate_sources(spec, seed, stream)
    examples: list[MethodExample] = []
    bodies: dict[tuple, str] = {}
    stats: Counter = Counter()
    for path, text in sources:
        raws = cc.extract_methods(text, path, "bench", stats)
        want = expected[path]
        if [m.name for m in raws] != [name for name, _ in want]:
            raise CorpusMismatch(f"{path}: extracted {[m.name for m in raws]}")
        for i, raw in enumerate(raws):
            ex = cc.tokenize_method(raw)
            bodies[body_key(ex)] = want[i][1]
            examples.append(ex)
    if stats["excluded_constructor"] != len(sources) or stats["excluded_override"] != len(sources):
        raise CorpusMismatch(f"constructors/overrides not all dropped: {dict(stats)}")
    splits = cc.split_examples(examples, seed)
    vocab = cc.build_vocabulary(splits["train"], min_count=2)
    return Corpus(splits=splits, vocab=vocab, bodies=bodies)


def body_key(ex: MethodExample) -> tuple:
    """Identifies an example's source method; equal keys mean equal text."""
    return ex.file_path, tuple(ex.name), tuple(ex.body)


def properties(vocab: Vocabulary, examples: list[MethodExample]) -> dict:
    """Measured properties of the examples a workload feeds the model."""
    lengths = np.array([len(ex.body) for ex in examples])
    targets = [tok for ex in examples for tok in ex.name]
    in_body = sum(tok in set(ex.body) for ex in examples for tok in ex.name)
    oov = sum(tok not in vocab for tok in targets)
    return {
        "vocab_size": len(vocab),
        "examples": len(examples),
        "body_subtokens_p50": float(np.median(lengths)),
        "body_subtokens_p90": float(np.percentile(lengths, 90)),
        "target_oov_share": oov / max(len(targets), 1),
        "target_copyable_share": in_body / max(len(targets), 1),
    }
