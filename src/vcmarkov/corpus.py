"""Corpus parsing: plain text with numbered headers into parts and stanzas.

The parser is lossless. Every byte of the input is retained in an ordered
segment list (headers, blank lines, and line terminators included), so the
original file can be reconstructed exactly. Quantitative consumers walk the
structured view (parts, stanzas, lines) instead.

Layout rules are data, not code: a :class:`LayoutConfig` names the header
prefixes and numeral styles, whether stanzas are announced by numbered
headers or separated by blank lines, and which marker line opens an
epigraph. One parser covers texts with chapter/stanza numbering as well as
texts with canto headers and blank-line stanza breaks.
"""

from __future__ import annotations

import json
import re
import unicodedata
from dataclasses import dataclass, field
from typing import Callable, Iterator, Literal, Optional

import numpy as np

from .errors import DataError, ParseError
from .schemes import EncodingScheme

NumeralStyle = Literal["roman", "arabic"]

_ROMAN_VALUES = {"I": 1, "V": 5, "X": 10, "L": 50, "C": 100, "D": 500, "M": 1000}
_ROMAN_RE = re.compile(r"^M{0,3}(CM|CD|D?C{0,3})(XC|XL|L?X{0,3})(IX|IV|V?I{0,3})$")


def parse_roman(token: str) -> Optional[int]:
    """Strict upper-case Roman numeral to int, or None when not a numeral."""
    if not token or not _ROMAN_RE.match(token):
        return None
    total = 0
    prev = 0
    for ch in reversed(token):
        val = _ROMAN_VALUES[ch]
        if val < prev:
            total -= val
        else:
            total += val
            prev = val
    return total


def format_roman(value: int) -> str:
    if value <= 0 or value > 3999:
        raise ValueError(f"roman numerals cover 1..3999, got {value}")
    pairs = [
        (1000, "M"), (900, "CM"), (500, "D"), (400, "CD"),
        (100, "C"), (90, "XC"), (50, "L"), (40, "XL"),
        (10, "X"), (9, "IX"), (5, "V"), (4, "IV"), (1, "I"),
    ]
    out = []
    for val, sym in pairs:
        while value >= val:
            out.append(sym)
            value -= val
    return "".join(out)


def _parse_numeral(token: str, style: NumeralStyle) -> Optional[int]:
    if style == "roman":
        return parse_roman(token)
    if token.isdigit():
        return int(token)
    return None


@dataclass(frozen=True)
class LayoutConfig:
    """Declarative description of a text's header conventions.

    ``stanza_numerals`` set to None switches stanza detection to blank-line
    separation; otherwise stanzas are announced by numbered header lines.
    A stanza header carrying several numerals (stanzas printed as one unit)
    yields a single fused stanza indexed by the first numeral.
    """

    part_prefix: str = ""
    part_numerals: NumeralStyle = "roman"
    stanza_prefix: str = ""
    stanza_numerals: Optional[NumeralStyle] = None
    epigraph_marker: str = "@epigraph"

    def __post_init__(self):
        for style in (self.part_numerals, self.stanza_numerals):
            if style not in ("roman", "arabic", None):
                raise ValueError(f"unknown numeral style {style!r}")
        if (
            self.stanza_numerals is not None
            and self.stanza_numerals == self.part_numerals
            and self.stanza_prefix == self.part_prefix
        ):
            raise ValueError(
                "part and stanza headers are indistinguishable: "
                "same prefix and same numeral style"
            )
        if not self.epigraph_marker or self.epigraph_marker != self.epigraph_marker.strip():
            raise ValueError("epigraph_marker must be a non-empty stripped string")

    def to_dict(self) -> dict:
        return {
            "part_prefix": self.part_prefix,
            "part_numerals": self.part_numerals,
            "stanza_prefix": self.stanza_prefix,
            "stanza_numerals": self.stanza_numerals,
            "epigraph_marker": self.epigraph_marker,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "LayoutConfig":
        return cls(
            part_prefix=data.get("part_prefix", ""),
            part_numerals=data.get("part_numerals", "roman"),
            stanza_prefix=data.get("stanza_prefix", ""),
            stanza_numerals=data.get("stanza_numerals"),
            epigraph_marker=data.get("epigraph_marker", "@epigraph"),
        )


def read_text_file(path: str, *, encoding: str = "utf-8", newline: Optional[str] = None) -> str:
    """The whole text of an input file; a file that does not decode is a
    :class:`DataError` naming it."""
    try:
        with open(path, encoding=encoding, newline=newline) as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text: {exc}") from exc


def load_layout(path: str) -> LayoutConfig:
    return LayoutConfig.from_dict(json.loads(read_text_file(path)))


_HEADER_SEPARATORS = re.compile(r"[.\s]+")


def _match_header(
    stripped: str, prefix: str, style: NumeralStyle, allow_multi: bool
) -> Optional[list[int]]:
    """Return the numeral values of a header line, or None when not a header."""
    rest = stripped
    if prefix:
        if not stripped.startswith(prefix):
            return None
        rest = stripped[len(prefix):]
        if rest and not rest[0].isspace():
            return None
        rest = rest.strip()
    tokens = [t for t in _HEADER_SEPARATORS.split(rest) if t]
    if not tokens:
        return None
    if not allow_multi and len(tokens) != 1:
        return None
    values = []
    for token in tokens:
        value = _parse_numeral(token, style)
        if value is None:
            return None
        values.append(value)
    return values


def code_points(text: str) -> np.ndarray:
    """The code points of ``text`` as a uint32 array, one per character."""
    return np.frombuffer(text.encode("utf-32-le", "surrogatepass"), dtype=np.uint32)


def char_lookup(codes: np.ndarray, fn: Callable[[str], int], dtype=np.uint8) -> np.ndarray:
    """``fn(ch)`` for every code point of ``codes``, calling ``fn`` once per
    distinct character and spreading the results with one table lookup."""
    if codes.size == 0:
        return np.zeros(0, dtype=dtype)
    present = np.zeros(int(codes.max()) + 1, dtype=bool)
    present[codes] = True
    distinct = np.flatnonzero(present)
    table = np.zeros(present.size, dtype=dtype)
    table[distinct] = [fn(chr(cp)) for cp in distinct.tolist()]
    return table[codes]


def _is_word_char(ch: str) -> bool:
    return not (ch.isspace() or unicodedata.category(ch).startswith("P"))


def tokenize_words(text: str) -> list[str]:
    """Maximal runs of non-separator characters, in order.

    Separators are whitespace and Unicode punctuation, so hyphenated forms
    count as two words and an apostrophe splits its clitic.
    """
    punctuation = {ord(ch): " " for ch in set(text) if unicodedata.category(ch).startswith("P")}
    return text.translate(punctuation).split()


def count_words(text: str) -> int:
    """Number of words under the :func:`tokenize_words` convention."""
    return len(tokenize_words(text))


_PLACEHOLDER_CHARS = set(". …·\t ")


def _is_placeholder_line(text: str) -> bool:
    stripped = text.strip()
    return bool(stripped) and set(stripped) <= _PLACEHOLDER_CHARS


@dataclass
class Line:
    text: str
    terminator: str
    char_count: int
    word_count: int


@dataclass
class Stanza:
    index: int
    lines: list[Line] = field(default_factory=list)
    epigraph: bool = False
    fused: bool = False

    @property
    def dotted_placeholder(self) -> bool:
        """True when every line is dot filler standing in for omitted text."""
        return bool(self.lines) and all(_is_placeholder_line(ln.text) for ln in self.lines)


@dataclass
class Part:
    index: int
    stanzas: list[Stanza] = field(default_factory=list)


@dataclass(frozen=True)
class Segment:
    """One reconstruction unit: raw text or a reference to a parsed line."""

    kind: Literal["raw", "line"]
    text: str = ""
    ref: Optional[tuple[int, int, int]] = None  # positional (part, stanza, line)


@dataclass
class Corpus:
    source_id: str
    parts: list[Part]
    segments: list[Segment]

    def reconstruct(self) -> str:
        out = []
        for seg in self.segments:
            if seg.kind == "raw":
                out.append(seg.text)
            else:
                pi, si, li = seg.ref  # type: ignore[misc]
                line = self.parts[pi].stanzas[si].lines[li]
                out.append(line.text + line.terminator)
        return "".join(out)

    def iter_lines(
        self, include_epigraphs: bool = False, include_placeholders: bool = True
    ) -> Iterator[tuple[int, int, int, Line]]:
        """Yield (part_index, stanza_index, line_number, line) in text order.

        Indices are the numbering carried by the headers; line numbers are
        1-based within their stanza.
        """
        for part in self.parts:
            for stanza in part.stanzas:
                if stanza.epigraph and not include_epigraphs:
                    continue
                if stanza.dotted_placeholder and not include_placeholders:
                    continue
                for lineno, line in enumerate(stanza.lines, start=1):
                    yield part.index, stanza.index, lineno, line

    def stanza_at(self, part_index: int, stanza_index: int) -> Stanza:
        stanza = self._stanza_map.get((part_index, stanza_index))
        if stanza is None:
            raise KeyError(f"no stanza {stanza_index} in part {part_index}")
        return stanza

    @property
    def _stanza_map(self) -> dict[tuple[int, int], Stanza]:
        cached = getattr(self, "_stanza_map_cache", None)
        if cached is None:
            cached = {}
            for part in self.parts:
                for stanza in part.stanzas:
                    cached.setdefault((part.index, stanza.index), stanza)
            self._stanza_map_cache = cached
        return cached

    @property
    def n_stanzas(self) -> int:
        return sum(len(p.stanzas) for p in self.parts)

    def to_dict(self) -> dict:
        return {
            "source_id": self.source_id,
            "parts": [
                {
                    "index": p.index,
                    "stanzas": [
                        {
                            "index": s.index,
                            "epigraph": s.epigraph,
                            "fused": s.fused,
                            "dotted_placeholder": s.dotted_placeholder,
                            "lines": [
                                {
                                    "text": ln.text,
                                    "terminator": ln.terminator,
                                    "char_count": ln.char_count,
                                    "word_count": ln.word_count,
                                }
                                for ln in s.lines
                            ],
                        }
                        for s in p.stanzas
                    ],
                }
                for p in self.parts
            ],
            "segments": [
                {"kind": seg.kind, "text": seg.text}
                if seg.kind == "raw"
                else {"kind": seg.kind, "ref": list(seg.ref)}  # type: ignore[arg-type]
                for seg in self.segments
            ],
        }


def parse_corpus(
    raw: str,
    layout: LayoutConfig,
    *,
    scheme: Optional[EncodingScheme] = None,
    source_id: str = "",
) -> Corpus:
    """Parse raw text into a Corpus under the given layout.

    ``scheme`` controls per-line character counting (letters the scheme can
    encode); without one, any Unicode letter counts. Character and word
    counts come from one lookup table over the whole text, not from a call
    per character. Structural violations raise :class:`ParseError` with
    the byte offset of the offending line.
    """
    if raw == "":
        raise ParseError("empty input", 0)

    pieces = re.split(r"(\r\n|\r|\n)", raw)
    parts: list[Part] = []
    segments: list[Segment] = []
    current_part: Optional[Part] = None
    current_stanza: Optional[Stanza] = None
    pending_epigraph = False
    byte_pos = 0
    char_pos = 0
    lines: list[Line] = []
    line_starts: list[int] = []

    def close_stanza():
        nonlocal current_stanza
        current_stanza = None

    def open_stanza(index: int, *, epigraph: bool = False, fused: bool = False) -> Stanza:
        nonlocal current_stanza
        stanza = Stanza(index=index, epigraph=epigraph, fused=fused)
        current_part.stanzas.append(stanza)  # type: ignore[union-attr]
        current_stanza = stanza
        return stanza

    def last_numbered_index() -> int:
        if current_part is None:
            return 0
        best = 0
        for s in current_part.stanzas:
            if not s.epigraph:
                best = max(best, s.index)
        return best

    for i in range(0, len(pieces), 2):
        content = pieces[i]
        terminator = pieces[i + 1] if i + 1 < len(pieces) else ""
        if content == "" and terminator == "":
            break  # trailing empty piece after the final newline
        stripped = content.strip()
        offset_here = byte_pos
        byte_pos += len(content.encode("utf-8")) + len(terminator.encode("utf-8"))
        line_start = char_pos
        char_pos += len(content) + len(terminator)

        if stripped == "":
            # Blank lines delimit stanzas only when stanzas are unnumbered;
            # with numbered stanzas the headers are the sole delimiters, so a
            # blank line between a header and its first line is inert.
            if layout.stanza_numerals is None:
                close_stanza()
            segments.append(Segment(kind="raw", text=content + terminator))
            continue

        part_vals = _match_header(
            stripped, layout.part_prefix, layout.part_numerals, allow_multi=False
        )
        if part_vals is not None:
            index = part_vals[0]
            if parts and index <= parts[-1].index:
                raise ParseError(
                    f"part header {index} does not increase on {parts[-1].index}",
                    offset_here,
                )
            current_part = Part(index=index)
            parts.append(current_part)
            close_stanza()
            pending_epigraph = False
            segments.append(Segment(kind="raw", text=content + terminator))
            continue

        if stripped == layout.epigraph_marker:
            if current_part is None:
                raise ParseError("epigraph marker before any part header", offset_here)
            close_stanza()
            pending_epigraph = True
            segments.append(Segment(kind="raw", text=content + terminator))
            continue

        if layout.stanza_numerals is not None:
            stanza_vals = _match_header(
                stripped, layout.stanza_prefix, layout.stanza_numerals, allow_multi=True
            )
            if stanza_vals is not None:
                if current_part is None:
                    raise ParseError("stanza header before any part header", offset_here)
                floor = last_numbered_index()
                if stanza_vals[0] <= floor:
                    raise ParseError(
                        f"stanza header {stanza_vals[0]} does not increase on {floor}",
                        offset_here,
                    )
                if any(b <= a for a, b in zip(stanza_vals, stanza_vals[1:])):
                    raise ParseError(
                        "fused stanza header numerals must increase", offset_here
                    )
                open_stanza(stanza_vals[0], fused=len(stanza_vals) > 1)
                pending_epigraph = False
                segments.append(Segment(kind="raw", text=content + terminator))
                continue

        # ordinary content line
        if current_part is None:
            raise ParseError("text before any part header", offset_here)
        if current_stanza is None:
            if pending_epigraph:
                open_stanza(0, epigraph=True)
                pending_epigraph = False
            elif layout.stanza_numerals is None:
                open_stanza(last_numbered_index() + 1)
            else:
                raise ParseError(
                    "content line outside any stanza (expected a stanza header)",
                    offset_here,
                )
        line = Line(text=content, terminator=terminator, char_count=0, word_count=0)
        lines.append(line)
        line_starts.append(line_start)
        pi = len(parts) - 1
        si = len(current_part.stanzas) - 1
        current_stanza.lines.append(line)
        segments.append(Segment(kind="line", ref=(pi, si, len(current_stanza.lines) - 1)))

    if not parts:
        raise ParseError("no part header found", 0)
    _set_line_counts(
        raw, lines, line_starts, str.isalpha if scheme is None else scheme.encodable
    )
    return Corpus(source_id=source_id, parts=parts, segments=segments)


def _set_line_counts(
    raw: str, lines: list[Line], starts: list[int], count_char: Callable[[str], bool]
) -> None:
    """Fill in every line's ``char_count`` and ``word_count`` from one pass
    over the whole text: running totals of counted characters and of word
    starts, read at each line's ends. A line starts the text or follows a
    terminator, so no word runs into it."""
    flags = char_lookup(code_points(raw), lambda ch: count_char(ch) + 2 * _is_word_char(ch))
    word = flags >= 2
    word_start = word.copy()
    word_start[1:] &= ~word[:-1]
    chars_before = np.concatenate(([0], np.cumsum(flags & 1, dtype=np.int32)))
    words_before = np.concatenate(([0], np.cumsum(word_start, dtype=np.int32)))
    lo = np.asarray(starts, dtype=np.int64)
    hi = lo + np.fromiter((len(line.text) for line in lines), dtype=np.int64, count=len(lines))
    char_counts = (chars_before[hi] - chars_before[lo]).tolist()
    word_counts = (words_before[hi] - words_before[lo]).tolist()
    for line, chars, words in zip(lines, char_counts, word_counts):
        line.char_count = chars
        line.word_count = words


@dataclass(frozen=True)
class LineStats:
    mean_chars: float
    sd_chars: float
    mean_words: float
    sd_words: float
    n_lines: int


def line_statistics(
    corpus: Corpus,
    *,
    include_epigraphs: bool = False,
    include_placeholders: bool = False,
) -> LineStats:
    """Mean and sample standard deviation of per-line letter and word counts.

    Epigraphs and dotted placeholder stanzas are excluded by default, so the
    numbers describe the poem body only.
    """
    chars = []
    words = []
    for _, _, _, line in corpus.iter_lines(
        include_epigraphs=include_epigraphs, include_placeholders=include_placeholders
    ):
        chars.append(line.char_count)
        words.append(line.word_count)
    if not chars:
        raise DataError("no retained lines to summarize")
    chars_arr = np.asarray(chars, dtype=float)
    words_arr = np.asarray(words, dtype=float)
    n = len(chars)
    sd_chars = float(np.std(chars_arr, ddof=1)) if n > 1 else 0.0
    sd_words = float(np.std(words_arr, ddof=1)) if n > 1 else 0.0
    return LineStats(
        mean_chars=float(np.mean(chars_arr)),
        sd_chars=sd_chars,
        mean_words=float(np.mean(words_arr)),
        sd_words=sd_words,
        n_lines=n,
    )


@dataclass(frozen=True)
class StanzaRef:
    source_id: str
    part_index: int
    stanza_index: int


@dataclass
class AlignedCorpus:
    pairs: list[tuple[StanzaRef, StanzaRef]]
    unmatched: list[tuple[StanzaRef, str]]


def _stanza_keys(corpus: Corpus) -> list[tuple[tuple[int, int, int], StanzaRef]]:
    keys = []
    seen: dict[tuple[int, int], int] = {}
    for part in corpus.parts:
        for stanza in part.stanzas:
            base = (part.index, stanza.index)
            occurrence = seen.get(base, 0)
            seen[base] = occurrence + 1
            ref = StanzaRef(corpus.source_id, part.index, stanza.index)
            keys.append(((part.index, stanza.index, occurrence), ref))
    return keys


def align_corpora(reference: Corpus, other: Corpus) -> AlignedCorpus:
    """Pair stanzas across two corpora by (part index, stanza index).

    Repeated indices within a part (several epigraphs) are paired in order
    of appearance. Every stanza of both corpora lands in exactly one of
    ``pairs`` or ``unmatched``.
    """
    ref_keys = _stanza_keys(reference)
    other_map = dict(_stanza_keys(other))
    pairs: list[tuple[StanzaRef, StanzaRef]] = []
    unmatched: list[tuple[StanzaRef, str]] = []
    for key, ref in ref_keys:
        mate = other_map.pop(key, None)
        if mate is None:
            unmatched.append((ref, "no counterpart in " + (other.source_id or "other")))
        else:
            pairs.append((ref, mate))
    for key in sorted(other_map):
        unmatched.append(
            (other_map[key], "no counterpart in " + (reference.source_id or "reference"))
        )
    return AlignedCorpus(pairs=pairs, unmatched=unmatched)


_LATIN_LETTER_RE = re.compile(r"[A-Za-zÀ-ÖØ-öø-ɏ]+")


@dataclass(frozen=True)
class LatinToken:
    token: str
    part_index: int
    stanza_index: int
    line_number: int


@dataclass(frozen=True)
class PartDensity:
    part_index: int
    token_count: int
    word_count: int
    per_1000_words: float


@dataclass
class TokenReport:
    tokens: list[LatinToken]
    per_part: list[PartDensity]
    min_len: int


def extract_latin_tokens(
    corpus: Corpus, min_len: int = 4, *, include_epigraphs: bool = False
) -> TokenReport:
    """Collect Latin-script tokens of at least ``min_len`` letters.

    Intended for Cyrillic corpora where Latin runs mark quoted foreign
    expressions. Densities are tokens per 1000 words within each part.
    """
    if min_len < 1:
        raise ValueError("min_len must be at least 1")
    tokens: list[LatinToken] = []
    words_by_part: dict[int, int] = {}
    hits_by_part: dict[int, int] = {}
    for pi, si, lineno, line in corpus.iter_lines(include_epigraphs=include_epigraphs):
        words_by_part[pi] = words_by_part.get(pi, 0) + line.word_count
        for match in _LATIN_LETTER_RE.finditer(line.text):
            if len(match.group()) >= min_len:
                tokens.append(LatinToken(match.group(), pi, si, lineno))
                hits_by_part[pi] = hits_by_part.get(pi, 0) + 1
    per_part = []
    for pi in sorted(words_by_part):
        n_words = words_by_part[pi]
        n_hits = hits_by_part.get(pi, 0)
        density = 1000.0 * n_hits / n_words if n_words else 0.0
        per_part.append(PartDensity(pi, n_hits, n_words, density))
    return TokenReport(tokens=tokens, per_part=per_part, min_len=min_len)
