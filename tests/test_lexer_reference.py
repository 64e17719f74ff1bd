"""The lexer against a reference: the character-by-character scanner
that `syntax._tokenize` replaced, kept here as the specification.  Both
must give the same tokens (kind, text, line, column) and the same
diagnostics on any text, including the two quirks the compiled scanner
preserves on purpose:

- a run of word characters that starts with a non-letter (`9a`, `²b`,
  `½`) reports each leading character as unexpected and starts the
  identifier at the first letter or `_`;
- after a trailing comment with no newline, the `eof` token sits at the
  column of the `#`.
"""
from __future__ import annotations

from hypothesis import given, seed, settings, strategies as st

from vgadt.syntax import Diagnostic, _tokenize

_KEYWORDS = {"type", "base", "subbase", "private", "closed", "of", "forall"}
_PUNCT = ("->", ">=", "<=", "(", ")", "[", "]", ",", ".", "|", ":",
          "=", "*", "+", "-", "~")


def reference_tokenize(text: str):
    """(tokens as (kind, text, line, col) tuples, diagnostics)."""
    tokens = []
    diags = []
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if ch == "'":
            j = i + 1
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            name = text[i + 1:j]
            if not name:
                diags.append(Diagnostic(line, col, "expected identifier after '"))
                i += 1
                col += 1
                continue
            tokens.append(("tyvar", name, line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            kind = "kw" if word in _KEYWORDS else "ident"
            tokens.append((kind, word, line, col))
            col += j - i
            i = j
            continue
        for p in _PUNCT:
            if text.startswith(p, i):
                tokens.append((p, p, line, col))
                i += len(p)
                col += len(p)
                break
        else:
            diags.append(Diagnostic(line, col, f"unexpected character {ch!r}"))
            i += 1
            col += 1
    tokens.append(("eof", "", line, col))
    return tokens, diags


def tokenize(text: str):
    tokens, diags = _tokenize(text)
    return [(kind, word, line, col) for kind, word, line, col in tokens], diags


#: Single characters, chosen to hit every branch of the scanner: ASCII
#: word characters, whitespace the lexer skips and whitespace it does
#: not (`\x0b`, `\xa0`), non-ASCII letters (`é`, titlecase `ǅ`), a
#: combining mark, non-decimal digits (`²`, `½`) and a non-ASCII
#: decimal digit (`٣`), the comment and quote characters, and halves of
#: the two-character operators.
CHARS = ("a", "Z", "x", "_", "0", "9", "'", "#", " ", "\t", "\r", "\n",
         "\x0b", "\xa0", "é", "ǅ", "\u0301", "²", "½", "\u0663", "$",
         "<", ">", *(p for p in _PUNCT if len(p) == 1))
PIECES = (*CHARS, *sorted(_KEYWORDS), "->", ">=", "<=", "'a", "int")

texts = st.lists(st.sampled_from(PIECES), max_size=40).map("".join)


@seed(20261018)
@settings(max_examples=1500, deadline=None, database=None)
@given(texts)
def test_tokens_and_diagnostics_equal_reference(text):
    assert tokenize(text) == reference_tokenize(text)


@seed(20261018)
@settings(max_examples=500, deadline=None, database=None)
@given(st.text(max_size=30))
def test_arbitrary_text_equals_reference(text):
    assert tokenize(text) == reference_tokenize(text)


def test_word_starting_with_a_non_letter():
    tokens, diags = tokenize("9a ²b ½ 99_x")
    assert tokens == [("ident", "a", 1, 2), ("ident", "b", 1, 5),
                      ("ident", "_x", 1, 11), ("eof", "", 1, 13)]
    assert [(d.col, d.message) for d in diags] == [
        (1, "unexpected character '9'"), (4, "unexpected character '²'"),
        (7, "unexpected character '½'"), (9, "unexpected character '9'"),
        (10, "unexpected character '9'")]
    assert (tokens, diags) == reference_tokenize("9a ²b ½ 99_x")


def test_eof_after_trailing_comment_sits_at_the_hash():
    tokens, diags = tokenize("base t  # no newline")
    assert tokens[-1] == ("eof", "", 1, 9)
    assert not diags
    tokens, _ = tokenize("base t  # newline\n")
    assert tokens[-1] == ("eof", "", 2, 1)
