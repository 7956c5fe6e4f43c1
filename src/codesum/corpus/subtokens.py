"""Identifier splitting and method-body tokenization.

Identifiers are split on camelCase and snake_case boundaries and
lowercased.  An uppercase run followed by a lowercase letter splits
before its last uppercase character ("HTMLParser" -> html, parser); a
trailing uppercase run stays whole ("parseXML" -> parse, xml).  Digit
runs glue onto the preceding subtoken ("sha1" -> sha1).
"""

from __future__ import annotations

import re

from .vocabulary import SELF as SELF_TOKEN  # a body token equal to the method's name

# Every string (or char) literal collapses to this single subtoken.
STRING_TOKEN = "%unkstring%"

_RUNS = re.compile(r"[A-Z]+|[a-z]+|[0-9]+")
_SEPARATORS = re.compile(r"[^A-Za-z0-9]+")


def _split_camel(chunk: str) -> list[str]:
    words: list[str] = []
    pending_upper: str | None = None
    for run in _RUNS.findall(chunk):
        if run[0].isupper():
            if pending_upper is not None:
                words.append(pending_upper)
            pending_upper = run
        elif run[0].islower():
            if pending_upper is not None:
                head, last = pending_upper[:-1], pending_upper[-1]
                if head:
                    words.append(head)
                words.append(last + run)
                pending_upper = None
            else:
                words.append(run)
        else:  # digits attach to whatever came before
            if pending_upper is not None:
                pending_upper += run
            elif words:
                words[-1] += run
            else:
                words.append(run)
    if pending_upper is not None:
        words.append(pending_upper)
    return [w.lower() for w in words]


def split_identifier(token: str) -> list[str]:
    """Split an identifier into lowercase subtokens.

    Tokens without any letter or digit (operators, punctuation) map to
    themselves lowercased.
    """
    if not token:
        raise ValueError("cannot split an empty token")
    if not any(ch.isalnum() for ch in token):
        return [token.lower()]
    out: list[str] = []
    for chunk in _SEPARATORS.split(token):
        if chunk:
            out.extend(_split_camel(chunk))
    return out


_IDENT_START = re.compile(r"[A-Za-z_$]")


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
    if _IDENT_START.match(text):
        return split_identifier(text)
    return [text.lower()]
