"""Bidirectional subtoken vocabulary with sentinel and UNK handling."""

from __future__ import annotations

from collections import Counter
from typing import Iterable

from ..errors import EmptyCorpus

NAME_START = "<s>"
NAME_END = "</s>"
BODY_START = "<S>"
BODY_END = "</S>"
SELF = "%self%"
PAD = "%pad%"
UNK = "%unk%"

# Label in the stored ``specials`` object -> special token, in fixed id order.
SPECIAL_NAMES = {
    "<s>": NAME_START,
    "</s>": NAME_END,
    "<S>": BODY_START,
    "</S>": BODY_END,
    "SELF": SELF,
    "PAD": PAD,
    "UNK": UNK,
}
SPECIAL_TOKENS = tuple(SPECIAL_NAMES.values())


class Vocabulary:
    """Subtoken <-> id map; unmapped subtokens resolve to the UNK id."""

    def __init__(self, tokens: Iterable[str]):
        self.id_to_token: list[str] = list(tokens)
        self.token_to_id: dict[str, int] = {t: i for i, t in enumerate(self.id_to_token)}
        if len(self.token_to_id) != len(self.id_to_token):
            raise ValueError("duplicate tokens in vocabulary")
        for special in SPECIAL_TOKENS:
            if special not in self.token_to_id:
                raise ValueError(f"vocabulary is missing special token {special!r}")
        self.specials: dict[str, int] = {
            label: self.token_to_id[tok] for label, tok in SPECIAL_NAMES.items()
        }

    # frequently used special ids
    @property
    def pad_id(self) -> int:
        return self.token_to_id[PAD]

    @property
    def unk_id(self) -> int:
        return self.token_to_id[UNK]

    def id(self, token: str) -> int:
        return self.token_to_id.get(token, self.unk_id)

    def __len__(self) -> int:
        return len(self.id_to_token)

    def __contains__(self, token: str) -> bool:
        return token in self.token_to_id

    def __eq__(self, other) -> bool:
        return isinstance(other, Vocabulary) and self.id_to_token == other.id_to_token

    # -- persistence ---------------------------------------------------------

    def to_json(self) -> dict:
        return {"tokens": self.id_to_token, "specials": dict(self.specials)}

    @classmethod
    def from_json(cls, obj: dict) -> "Vocabulary":
        tokens = obj["tokens"]
        if not (isinstance(tokens, list) and all(isinstance(t, str) for t in tokens)):
            raise ValueError("vocabulary tokens must be a list of strings")
        vocab = cls(tokens)
        if obj.get("specials") != vocab.specials:
            raise ValueError("vocabulary specials disagree with token list")
        return vocab


def build_vocabulary(examples, min_count: int = 2) -> Vocabulary:
    """Vocabulary over name and body subtokens jointly.

    Keeps every non-special subtoken occurring at least ``min_count``
    times; ids go to the specials first, then by descending count with
    lexicographic tie-breaks.
    """
    if min_count < 1:
        raise ValueError("min_count must be >= 1")
    counts: Counter[str] = Counter()
    n = 0
    for ex in examples:
        n += 1
        counts.update(ex.name)
        counts.update(ex.body)
    if n == 0:
        raise EmptyCorpus("no examples to build a vocabulary from")
    kept = sorted(
        (tok for tok, c in counts.items() if c >= min_count and tok not in SPECIAL_TOKENS),
        key=lambda tok: (-counts[tok], tok),
    )
    return Vocabulary(list(SPECIAL_TOKENS) + kept)
