"""Identifier splitting and method-body tokenization.

An identifier's subtokens are the matches of one pattern, lowercased,
so ``_`` and every character that is not a letter or an ASCII digit
separate them.  Only ``A-Z`` are capitals: a letter outside ASCII
counts as lowercase, also a capital one ("getÉtat" -> getétat).  Three
rules decide where camelCase splits:

- an uppercase run followed by a lowercase letter splits before its
  last uppercase character ("HTMLParser" -> html, parser);
- a trailing uppercase run stays whole ("parseXML" -> parse, xml);
- a digit run glues onto the subtoken before it ("sha1" -> sha1,
  "UTF8decode" -> utf8, decode), and stands alone after a separator
  ("x_1" -> x, 1).

A token in which nothing matches (an operator) maps to itself lowercased.
"""

from __future__ import annotations

import re

from .javalex import _IDENT
from .vocabulary import SELF as SELF_TOKEN  # a body token equal to the method's name

# Every string (or char) literal collapses to this single subtoken.
STRING_TOKEN = "%unkstring%"

# ``[^\W\d_A-Z]`` is a lowercase letter: a word character other than a
# digit, ``_`` or an ASCII capital, so letters outside ASCII count as lowercase.
_SUBTOKEN = re.compile(r"[A-Z]+(?![^\W\d_A-Z])[0-9]*|[A-Z]?[^\W\d_A-Z]+[0-9]*|[0-9]+")


def split_identifier(token: str) -> list[str]:
    """Split an identifier into lowercase subtokens."""
    if not token:
        raise ValueError("cannot split an empty token")
    return [w.lower() for w in _SUBTOKEN.findall(token)] or [token.lower()]


def body_token_to_subtokens(text: str, method_name: str | None = None) -> list[str]:
    """Subtokens for one lexical body token.

    A full token equal to the method name becomes the SELF marker;
    quoted literals collapse to the string marker; identifiers are
    split; numbers, operators and punctuation stay atomic.
    """
    if method_name is not None and text == method_name:
        return [SELF_TOKEN]
    if text.startswith('"') or text.startswith("'"):
        return [STRING_TOKEN]
    if _IDENT.match(text):
        return split_identifier(text)
    return [text.lower()]
