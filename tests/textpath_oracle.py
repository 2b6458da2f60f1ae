"""Per-character reference implementations of the text path.

These are the straightforward one-call-per-character (and one object per
match) versions of tokenizing, line counting, encoding and probe scanning.
The package computes the same things with whole-text numpy passes; the
tests compare the two field by field.
"""

from __future__ import annotations

import logging
import unicodedata
from typing import Iterable, Optional

import numpy as np

from vcmarkov.corpus import Corpus
from vcmarkov.encoding import SYMBOL_C, SYMBOL_V, BlockSegmentation, SymbolSequence
from vcmarkov.errors import DomainError, UnknownCharacterError
from vcmarkov.probes import ProbeMatch, _class_code
from vcmarkov.schemes import EncodingScheme

logger = logging.getLogger("vcmarkov.encoding")


def is_word_char(ch: str) -> bool:
    return not (ch.isspace() or unicodedata.category(ch).startswith("P"))


def tokenize_words(text: str) -> list[str]:
    """Maximal runs of characters that are neither whitespace nor punctuation."""
    words = []
    start = None
    for i, ch in enumerate(text):
        if is_word_char(ch):
            if start is None:
                start = i
        elif start is not None:
            words.append(text[start:i])
            start = None
    if start is not None:
        words.append(text[start:])
    return words


def line_counts(text: str, scheme: Optional[EncodingScheme]) -> tuple[int, int]:
    """(char_count, word_count) of one line, as ``parse_corpus`` defines them."""
    count_char = scheme.encodable if scheme is not None else str.isalpha
    return sum(1 for ch in text if count_char(ch)), len(tokenize_words(text))


def encode_text(
    corpus: Corpus,
    scheme: EncodingScheme,
    policy: str = "error",
    *,
    include_epigraphs: bool = False,
) -> SymbolSequence:
    if policy not in ("error", "skip"):
        raise ValueError(f"unknown policy {policy!r}")
    symbols: list[int] = []
    origins: list[tuple[int, int, int, int]] = []
    skipped: dict[str, int] = {}
    for part_idx, stanza_idx, lineno, line in corpus.iter_lines(
        include_epigraphs=include_epigraphs
    ):
        for offset, ch in enumerate(line.text):
            cls = scheme.classify(ch)
            if cls == "V":
                symbols.append(SYMBOL_V)
            elif cls == "C":
                symbols.append(SYMBOL_C)
            elif cls == "excluded":
                continue
            else:
                if policy == "error":
                    raise UnknownCharacterError(ch, part_idx, stanza_idx, lineno, offset)
                skipped[ch] = skipped.get(ch, 0) + 1
                continue
            origins.append((part_idx, stanza_idx, lineno, offset))
    if skipped:
        total = sum(skipped.values())
        sample = ", ".join(repr(c) for c in sorted(skipped)[:8])
        logger.warning(
            "skipped %d unknown character(s) while encoding %s: %s",
            total,
            corpus.source_id or "<corpus>",
            sample,
        )
    return SymbolSequence(
        symbols=np.asarray(symbols, dtype=np.uint8),
        source_id=corpus.source_id,
        origin=np.asarray(origins, dtype=np.int32).reshape(len(symbols), 4),
    )


def _expand_span(text: str, lo: int, hi: int) -> str:
    start = lo
    while start > 0 and not text[start - 1].isspace():
        start -= 1
    end = hi + 1
    while end < len(text) and not text[end].isspace():
        end += 1
    return text[start:end]


def _trim_nonletters(s: str) -> str:
    start = 0
    end = len(s)
    while start < end and not s[start].isalpha():
        start += 1
    while end > start and not s[end - 1].isalpha():
        end -= 1
    return s[start:end]


def _pattern3(code: int) -> str:
    return "".join("V" if (int(code) >> (2 - j)) & 1 else "C" for j in range(3))


def scan_pattern_class(
    seq: SymbolSequence,
    corpus: Corpus,
    classes: Iterable[str],
    *,
    segmentation: Optional[BlockSegmentation] = None,
    fold_case: bool = True,
) -> list[ProbeMatch]:
    if seq.origin is None:
        raise DomainError("probe scanning needs a sequence with an origin map")
    wanted = {_class_code(c) for c in classes}
    if not wanted:
        return []
    x = seq.symbols
    n = x.size
    if n < 3:
        return []
    codes = (x[: n - 2].astype(np.int64) << 2) | (x[1 : n - 1].astype(np.int64) << 1) | x[2:]
    hits = np.nonzero(np.isin(codes, sorted(wanted)))[0]
    origin = seq.origin

    def line_text(part: int, stanza: int, lineno: int) -> str:
        return corpus.stanza_at(part, stanza).lines[lineno - 1].text

    matches: list[ProbeMatch] = []
    for pos in hits.tolist():
        rows = [tuple(int(v) for v in origin[pos + j]) for j in range(3)]
        letters = "".join(line_text(p, s, ln)[off] for (p, s, ln, off) in rows)
        if fold_case:
            letters = letters.lower()
        groups: list[list[tuple[int, int, int, int]]] = []
        for row in rows:
            if groups and groups[-1][-1][:3] == row[:3]:
                groups[-1].append(row)
            else:
                groups.append([row])
        spans = []
        for group in groups:
            text = line_text(group[0][0], group[0][1], group[0][2])
            offsets = [r[3] for r in group]
            spans.append(_expand_span(text, min(offsets), max(offsets)))
        context = _trim_nonletters(" ".join(spans))
        if fold_case:
            context = context.lower()
        single_word = False
        if len(groups) == 1:
            text = line_text(rows[0][0], rows[0][1], rows[0][2])
            lo, hi = rows[0][3], rows[2][3]
            single_word = not any(text[i].isspace() for i in range(lo, hi + 1))
        matches.append(
            ProbeMatch(
                letters=letters,
                vc_class=_pattern3(codes[pos]),
                context=context,
                part_index=rows[0][0],
                stanza_index=rows[0][1],
                line_number=rows[0][2],
                single_word=single_word,
                block_index=segmentation.block_of(pos) if segmentation else -1,
                position=pos,
            )
        )
    return matches
