"""The formula and formation-script scanners against character-loop references.

Each scanner reads its tokens with one compiled pattern.  The references
below are the character loops the patterns replaced: they skip what
``str.isspace`` calls space and build each token by hand.  The scanners must
give the same tokens at the same 1-based columns, or the same first error.
"""

import hypothesis
import hypothesis.strategies as strat
import pytest

from mereoml.formation import _TOKEN as SCRIPT_TOKEN, _SexpTokens
from mereoml.logic import ParseError, _Tokens

_WORD_CHARS = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_.")


def ref_formula_tokens(text):
    items = []
    i = 0
    while i < len(text):
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c in "!&|()=":
            items.append((c, c, i + 1))
            i += 1
        elif text.startswith("->", i):
            items.append(("->", "->", i + 1))
            i += 2
        elif c in _WORD_CHARS:
            j = i
            while j < len(text) and text[j] in _WORD_CHARS:
                j += 1
            items.append(("word", text[i:j], i + 1))
            i = j
        else:
            raise ParseError(f"unexpected character {c!r} at column {i + 1}")
    return items


def ref_script_tokens(text):
    items = []
    i = 0
    while i < len(text):
        c = text[i]
        if c.isspace():
            i += 1
        elif c in "()":
            items.append((c, i + 1))
            i += 1
        else:
            j = i
            while j < len(text) and not text[j].isspace() and text[j] not in "()":
                j += 1
            items.append((text[i:j], i + 1))
            i = j
    return items


# operators, word characters, a letter outside ASCII, an astral character,
# and spaces of every kind str.isspace knows, the separators \x1c and \x85
# and the ideographic space among them
ALPHABET = "!&|()=->aZ0_.é\U0001f600 \t\n\x0b\x0c\r\x1c\x85\xa0\u3000"


def scan(scanner, text):
    try:
        return scanner(text)
    except ParseError as e:
        return str(e)


@hypothesis.settings(max_examples=500)
@hypothesis.given(strat.text(alphabet=ALPHABET, max_size=40))
def test_formula_scanner_matches_the_character_loop(text):
    assert scan(lambda t: _Tokens(t).items, text) == scan(ref_formula_tokens, text)


@hypothesis.settings(max_examples=500)
@hypothesis.given(strat.text(alphabet=ALPHABET, max_size=40))
def test_script_scanner_matches_the_character_loop(text):
    assert _SexpTokens(text).items == ref_script_tokens(text)


@pytest.mark.parametrize(
    "text,expected",
    [
        ("a=1->b", [("word", "a", 1), ("=", "=", 2), ("word", "1", 3), ("->", "->", 4), ("word", "b", 6)]),
        ("\u3000a\x85=\xa0é", "unexpected character 'é' at column 6"),
        ("a - > b", "unexpected character '-' at column 3"),
    ],
)
def test_formula_scanner_examples(text, expected):
    assert scan(lambda t: _Tokens(t).items, text) == expected


def test_script_pattern_skips_exactly_the_code_points_str_isspace_calls_space():
    # the pattern's \s and str.isspace agree on every code point, so the
    # scanners split every text where the loops did, not only the sampled ones
    for c in map(chr, range(0x110000)):
        assert [m[0] for m in SCRIPT_TOKEN.finditer(c)] == ([] if c.isspace() else [c])
