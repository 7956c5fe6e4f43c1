"""Tolerant Java lexing and method extraction.

No full parse.  ``lex`` is one ``finditer`` pass of a token regex.  The
extractor walks those tokens once, tracking brace contexts, and reads
type and method headers from the tokens since the previous member
boundary.  A type header is named by its first type keyword, by
position, that does not follow ``.`` and is followed by a name, so a
class literal in an annotation (``X.class``) is not mistaken for the
declaration and the result never depends on the hash seed.  A method's
body is the token slice up to its matching ``}``.  The extractor keeps
every method with a body, so an abstract, interface or native method
(which has none) is never extracted.  It drops constructors and
overrides, found either by an @Override annotation or by a name/arity
match against a supertype declared in the same file.  A header with no
return type is a constructor only when it names its own type; any
other, such as an enum constant with a class body (``PLUS() { ... }``),
opens a block whose methods belong to the enclosing type.  A name after
``@`` is an annotation, never a return type.  Identifiers follow Java,
letters outside ASCII included.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass, field

from ..errors import UnbalancedBraces

_TOKEN = re.compile(
    r"""
      (?P<ws>\s+)
    | (?P<comment>//[^\n]*|/\*.*?\*/)
    | (?P<string>"(?:\\.|[^"\\])*")
    | (?P<char>'(?:\\.|[^'\\])*')
    | (?P<number>0[xXbB][0-9a-fA-F_]+[lL]?
        |(?:\d[\d_]*)?\.\d[\d_]*(?:[eE][+-]?\d+)?[fFdD]?
        |\d[\d_]*(?:\.[\d_]*)?(?:[eE][+-]?\d+)?[fFdDlL]?)
    | (?P<ident>(?!\d)[\w$]+)
    | (?P<op>>>>=|>>>|<<=|>>=|\.\.\.|->|::|\+\+|--|&&|\|\|
        |[<>=!+\-*/%&|^]=|<<|>>|[{}()\[\];,.@?:~<>=!+\-*/%&|^])
    """,
    re.VERBOSE | re.DOTALL,
)

_MODIFIERS = {
    "public", "private", "protected", "static", "final", "abstract",
    "native", "synchronized", "strictfp", "default", "transient", "volatile",
}
# Keywords that can precede a parenthesized list but never name a method.
_NOT_A_METHOD = {
    "if", "for", "while", "switch", "catch", "do", "try", "else",
    "return", "new", "case", "throw", "assert", "super", "this",
    "synchronized",
}
_TYPE_KEYWORDS = {"class", "interface", "enum", "record"}
_IDENT = re.compile(r"(?!\d)[\w$]")  # a Java identifier start, Unicode letters included


@dataclass
class RawMethod:
    """One extracted method: its name and the lexical tokens of its body."""

    name: str
    body_tokens: list[str]
    file_path: str
    project: str


def lex(source_text: str) -> list[str]:
    """Lexical tokens of a Java source, comments and whitespace dropped.

    Unknown characters are skipped rather than rejected: ``finditer``
    resumes at the next position where some token matches.
    """
    return [m.group() for m in _TOKEN.finditer(source_text)
            if m.lastgroup not in ("ws", "comment")]


@dataclass
class _TypeDecl:
    name: str
    supertypes: list[str] = field(default_factory=list)
    declared: set[tuple[str, int]] = field(default_factory=set)


@dataclass
class _Header:
    name: str
    arity: int
    annotations: set[str]
    has_return_type: bool


def _strip_generics(tokens: list[str]) -> list[str]:
    out: list[str] = []
    depth = 0
    for t in tokens:
        if t == "<":
            depth += 1
        elif t in (">", ">>", ">>>"):
            depth = max(0, depth - len(t))
        elif depth == 0:
            out.append(t)
    return out


def _parse_type_header(pending: list[str]) -> _TypeDecl | None:
    # The first type keyword that names something and does not follow '.':
    # `X.class` in an annotation is a class literal, and `record` may be a
    # plain identifier.
    k = next((i for i in range(len(pending) - 1)
              if pending[i] in _TYPE_KEYWORDS and (i == 0 or pending[i - 1] != ".")
              and _IDENT.match(pending[i + 1])), None)
    if k is None:
        return None
    decl = _TypeDecl(name=pending[k + 1])
    collecting = False
    for t in _strip_generics(pending[k + 2:]):
        if t in ("extends", "implements"):
            collecting = True
        elif collecting and _IDENT.match(t):
            decl.supertypes.append(t)
    return decl


def _parse_method_header(pending: list[str]) -> _Header | None:
    if ")" not in pending:
        return None
    close = len(pending) - 1 - pending[::-1].index(")")
    # After the ')' only a throws clause may appear.
    for t in pending[close + 1:]:
        if t != "throws" and t != "," and t != "." and not _IDENT.match(t):
            return None
    # Match the '(' for that ')'.
    depth = 0
    open_idx = None
    for i in range(close, -1, -1):
        if pending[i] == ")":
            depth += 1
        elif pending[i] == "(":
            depth -= 1
            if depth == 0:
                open_idx = i
                break
    if open_idx is None or open_idx == 0:
        return None
    name = pending[open_idx - 1]
    if not _IDENT.match(name):
        return None
    if name in _NOT_A_METHOD or name in _MODIFIERS or name in _TYPE_KEYWORDS:
        return None
    # What precedes the name must look like a declaration, not an
    # expression: a type-ish token (identifier, '>', ']') or nothing at
    # all (constructors).
    has_return_type = False
    if open_idx >= 2:
        prev = pending[open_idx - 2]
        if prev == "." or prev in _NOT_A_METHOD:
            return None
        if not (_IDENT.match(prev) or prev in (">", ">>", ">>>", "]")):
            return None
        # Walk back over a (qualified) name: after '@' it is an annotation.
        j = open_idx - 2
        while j >= 2 and pending[j - 1] == "." and _IDENT.match(pending[j - 2]):
            j -= 2
        has_return_type = prev not in _MODIFIERS and (j == 0 or pending[j - 1] != "@")
    arity = 1 if open_idx + 1 < close else 0
    depth = 0
    for t in pending[open_idx + 1:close]:
        if t in ("(", "[", "<"):
            depth += 1
        elif t in (")", "]"):
            depth = max(0, depth - 1)
        elif t in (">", ">>", ">>>"):
            depth = max(0, depth - len(t))
        elif t == "," and depth == 0:
            arity += 1
    annotations = {pending[i + 1] for i, t in enumerate(pending[:-1]) if t == "@"}
    return _Header(name=name, arity=arity, annotations=annotations,
                   has_return_type=has_return_type)


def _matching_brace(tokens: list[str], open_idx: int, file_path: str) -> int:
    """Index of the '}' that closes the '{' at ``open_idx``."""
    depth = 0
    for i in range(open_idx, len(tokens)):
        if tokens[i] == "{":
            depth += 1
        elif tokens[i] == "}":
            depth -= 1
            if depth == 0:
                return i
    raise UnbalancedBraces(f"{file_path}: braces never close")


def extract_methods(source_text: str, file_path: str, project: str,
                    stats: Counter | None = None) -> list[RawMethod]:
    """All concrete, non-constructor, non-override methods of a file.

    Raises UnbalancedBraces when the brace structure never closes; the
    caller is expected to skip the file and continue.
    """
    tokens = lex(source_text)
    if stats is None:
        stats = Counter()

    types: dict[str, _TypeDecl] = {}
    candidates: list[tuple[_Header, str, list[str]]] = []  # header, owner type, body
    # One entry per open brace: the type it declares, or None for any other block.
    stack: list[_TypeDecl | None] = []
    start = 0  # the current header is tokens[start:i]

    def enclosing_type() -> _TypeDecl | None:
        return next((decl for decl in reversed(stack) if decl is not None), None)

    i = 0
    while i < len(tokens):
        tok = tokens[i]
        if tok == "{":
            pending = tokens[start:i]
            type_decl = _parse_type_header(pending)
            header = _parse_method_header(pending) if type_decl is None else None
            owner = enclosing_type() if header is not None else None
            if type_decl is not None:
                types[type_decl.name] = type_decl
                stack.append(type_decl)
            # With no return type, only a constructor is a method: an enum
            # constant's body is a block whose methods belong to the enum.
            elif owner is not None and (header.has_return_type or header.name == owner.name):
                owner.declared.add((header.name, header.arity))
                end = _matching_brace(tokens, i, file_path)
                candidates.append((header, owner.name, tokens[i:end + 1]))
                i = end
            else:
                stack.append(None)
            start = i + 1
        elif tok == "}":
            if not stack:
                raise UnbalancedBraces(f"{file_path}: unexpected '}}'")
            stack.pop()
            start = i + 1
        elif tok == ";":
            header = _parse_method_header(tokens[start:i])
            owner = enclosing_type() if header is not None else None
            if owner is not None and header.has_return_type:
                # Abstract, interface, or native declaration: visible to
                # the override analysis but never extracted.
                owner.declared.add((header.name, header.arity))
                stats["excluded_bodyless"] += 1
            start = i + 1
        i += 1

    if stack:
        raise UnbalancedBraces(f"{file_path}: braces never close")

    def overrides_same_file_supertype(header: _Header, owner: str) -> bool:
        seen = {owner}  # a cycle back to the owner is not a supertype
        queue = list(types[owner].supertypes)
        while queue:
            sup = queue.pop()
            if sup in seen or sup not in types:
                continue
            seen.add(sup)
            if (header.name, header.arity) in types[sup].declared:
                return True
            queue.extend(types[sup].supertypes)
        return False

    out: list[RawMethod] = []
    for header, owner, body in candidates:
        if header.name == owner:
            stats["excluded_constructor"] += 1
            continue
        if "Override" in header.annotations or overrides_same_file_supertype(header, owner):
            stats["excluded_override"] += 1
            continue
        out.append(RawMethod(
            name=header.name,
            body_tokens=body,
            file_path=file_path,
            project=project,
        ))
    return out
