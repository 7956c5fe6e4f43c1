"""Identifier splitting rules and their round-trip property."""

import re

import pytest
from hypothesis import given, strategies as st

from codesum.corpus.subtokens import (
    SELF_TOKEN,
    STRING_TOKEN,
    body_token_to_subtokens,
    split_identifier,
)


class TestSplitIdentifier:
    def test_camel_case(self):
        assert split_identifier("getInputStream") == ["get", "input", "stream"]

    def test_single_word(self):
        assert split_identifier("render") == ["render"]

    def test_snake_case(self):
        assert split_identifier("use_browser_cache") == ["use", "browser", "cache"]

    def test_acronym_run_before_lowercase(self):
        # An uppercase run followed by a lowercase letter splits before
        # its last uppercase character.
        assert split_identifier("HTMLParser") == ["html", "parser"]

    def test_trailing_acronym_run(self):
        assert split_identifier("parseXML") == ["parse", "xml"]

    def test_digit_run_glues_to_previous(self):
        assert split_identifier("sha1") == ["sha1"]
        assert split_identifier("UTF8String") == ["utf8", "string"]

    @pytest.mark.parametrize("ident, parts", [
        ("UTF8decode", ["utf8", "decode"]),
        ("V2beta", ["v2", "beta"]),
        ("AB1c", ["ab1", "c"]),
        ("A1b", ["a1", "b"]),
        ("HTTP2Client", ["http2", "client"]),
        ("getV2", ["get", "v2"]),
    ])
    def test_digit_run_stays_on_a_capital_run(self, ident, parts):
        # Digits after capitals stay on them, also when a lowercase
        # word follows.
        assert split_identifier(ident) == parts

    def test_digit_run_after_a_separator_stands_alone(self):
        assert split_identifier("x_1") == ["x", "1"]
        assert split_identifier("a_1b") == ["a", "1", "b"]

    def test_screaming_snake(self):
        assert split_identifier("MIN_MERGE") == ["min", "merge"]

    def test_single_letter_prefix(self):
        assert split_identifier("mFlags") == ["m", "flags"]
        assert split_identifier("e_bulletFlag") == ["e", "bullet", "flag"]

    def test_operator_maps_to_itself(self):
        assert split_identifier("==") == ["=="]
        assert split_identifier(";") == [";"]

    def test_letters_outside_ascii_map_to_themselves(self):
        assert split_identifier("\u00e9") == ["\u00e9"]
        assert split_identifier("\u00c9\u00fc") == ["\u00e9\u00fc"]

    @pytest.mark.parametrize("ident, parts", [
        ("größe", ["größe"]),
        ("naïveCafé", ["naïve", "café"]),
        # Only A-Z are capitals: one outside ASCII counts as lowercase.
        ("getÉtat", ["getétat"]),
    ])
    def test_letters_outside_ascii_are_lowercase_letters(self, ident, parts):
        assert split_identifier(ident) == parts

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            split_identifier("")

    def test_no_empty_subtokens(self):
        for ident in ("_foo", "foo_", "__bar__", "a__b"):
            parts = split_identifier(ident)
            assert all(parts)
            assert all(p == p.lower() for p in parts)


identifiers = st.from_regex(r"[A-Za-z][A-Za-z0-9_]*", fullmatch=True)


@given(identifiers)
def test_round_trip(ident):
    """Joining the subtokens reproduces the identifier's letters and digits."""
    joined = "".join(split_identifier(ident))
    assert joined == ident.lower().replace("_", "")


@given(identifiers)
def test_every_subtoken_is_a_word_with_its_digits_or_a_digit_run(ident):
    for p in split_identifier(ident):
        assert re.fullmatch(r"[a-z]+[0-9]*|[0-9]+", p), (ident, p)


@given(identifiers)
def test_all_lowercase_nonempty(ident):
    parts = split_identifier(ident)
    assert parts
    for p in parts:
        assert p and p == p.lower() and not any(ch.isspace() for ch in p)


class TestBodyTokens:
    def test_self_replacement(self):
        assert body_token_to_subtokens("minRunLength", "minRunLength") == [SELF_TOKEN]

    def test_non_matching_name_splits(self):
        assert body_token_to_subtokens("minRunLength", "other") == ["min", "run", "length"]

    def test_operator_atomic(self):
        assert body_token_to_subtokens("==") == ["=="]

    def test_string_literal_marker(self):
        assert body_token_to_subtokens('"hello world"') == [STRING_TOKEN]

    def test_char_literal_marker(self):
        assert body_token_to_subtokens("'x'") == [STRING_TOKEN]

    def test_identifier_outside_ascii_splits(self):
        assert body_token_to_subtokens("naïveCafé") == ["naïve", "café"]
        assert body_token_to_subtokens("größe", "größe") == [SELF_TOKEN]

    def test_numeric_literal_verbatim(self):
        assert body_token_to_subtokens("0xFF") == ["0xff"]
        assert body_token_to_subtokens("3.14f") == ["3.14f"]
