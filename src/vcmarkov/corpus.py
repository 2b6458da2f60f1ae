"""Corpus parsing: plain text with numbered headers into parts and stanzas.

The parser is lossless. It parses the whole text in one pass: numpy finds
the line spans in the text's code points and sums per-character flags
over each line, so only blank lines and header candidates go through the
header matchers and the structural checks in Python. The corpus keeps the
raw text, the span of every line and a table of its content lines, so the
original file can be reconstructed exactly; the reconstruction segments
(headers, blank lines and terminators included) are derived on demand.
Quantitative consumers walk the structured view (parts, stanzas, lines),
and encoding reads the line table.

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
from typing import TYPE_CHECKING, Callable, Iterator, Literal, Optional

import numpy as np

from .errors import DataError, ParseError

if TYPE_CHECKING:
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


def _parse_numeral(token: str, style: NumeralStyle) -> Optional[int]:
    if style == "roman":
        return parse_roman(token)
    if token.isdecimal():
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
    try:
        data = json.loads(read_text_file(path))
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: not valid JSON: {exc}") from exc
    return LayoutConfig.from_dict(data)


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
    index = codes.astype(np.intp)  # numpy indexes fastest with its own index type
    present = np.zeros(int(codes.max()) + 1, dtype=bool)
    present[index] = True
    distinct = np.flatnonzero(present)
    table = np.zeros(present.size, dtype=dtype)
    table[distinct] = [fn(chr(cp)) for cp in distinct.tolist()]
    return table.take(index)


def _is_word_char(ch: str) -> bool:
    return not (ch.isspace() or unicodedata.category(ch).startswith("P"))


def tokenize_words(text: str) -> list[str]:
    """Maximal runs of non-separator characters, in order.

    Separators are whitespace and Unicode punctuation, so hyphenated forms
    count as two words and an apostrophe splits its clitic.
    """
    punctuation = {ord(ch): " " for ch in set(text) if unicodedata.category(ch).startswith("P")}
    return text.translate(punctuation).split()


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
    """A stanza's lines. ``index`` is the number on its header (the first
    one for a fused stanza); epigraphs, which have none, count 0, -1, -2,
    ... in order within their part, so an index is unique in its part."""

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


@dataclass
class Corpus:
    """Parts, stanzas and lines of a parsed text.

    ``line_table`` holds one row per content line in text order: part
    index, stanza index, 1-based line number, start and end of the line's
    text in ``raw``, and 1 for an epigraph line. ``line_bounds`` holds the
    start of every line of ``raw`` (headers, markers and blank lines
    included) and the text's length, so the reconstruction segments are
    derived from it on demand.
    """

    source_id: str
    parts: list[Part]
    raw: str = field(repr=False)
    line_table: np.ndarray = field(repr=False, compare=False)
    line_bounds: np.ndarray = field(repr=False, compare=False)

    def _segments(self) -> Iterator[tuple[str, object]]:
        """("raw", text) for every header, marker or blank line and
        ("line", (part, stanza, line)) positions for content lines, in
        text order; together they cover every character of ``raw``."""
        refs = (
            (pi, si, li)
            for pi, part in enumerate(self.parts)
            for si, stanza in enumerate(part.stanzas)
            for li in range(len(stanza.lines))
        )
        content = set(self.line_table[:, 3].tolist())
        bounds = self.line_bounds.tolist()
        for lo, hi in zip(bounds, bounds[1:]):
            if lo in content:
                yield "line", next(refs)
            else:
                yield "raw", self.raw[lo:hi]

    def reconstruct(self) -> str:
        out = []
        for kind, value in self._segments():
            if kind == "raw":
                out.append(value)
            else:
                pi, si, li = value  # type: ignore[misc]
                line = self.parts[pi].stanzas[si].lines[li]
                out.append(line.text + line.terminator)
        return "".join(out)

    def iter_lines(
        self, include_epigraphs: bool = False, include_placeholders: bool = True
    ) -> Iterator[tuple[int, int, int, Line]]:
        """Yield (part_index, stanza_index, line_number, line) in text order.

        Indices are the numbering carried by the headers (see
        :class:`Stanza` for epigraphs); line numbers are 1-based within
        their stanza.
        """
        for part in self.parts:
            for stanza in part.stanzas:
                if stanza.epigraph and not include_epigraphs:
                    continue
                if not include_placeholders and stanza.dotted_placeholder:
                    continue
                for lineno, line in enumerate(stanza.lines, start=1):
                    yield part.index, stanza.index, lineno, line

    def line_spans(
        self, include_epigraphs: bool = False
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(part index, stanza index, line number) rows of the content lines
        in text order, with the start and end of each line's text in
        ``raw``; epigraph lines only when asked for, as in :meth:`iter_lines`."""
        table = self.line_table
        if not include_epigraphs:
            table = table[table[:, 5] == 0]
        return table[:, :3], table[:, 3], table[:, 4]

    def stanza_at(self, part_index: int, stanza_index: int) -> Stanza:
        stanza = self._stanza_map.get((part_index, stanza_index))
        if stanza is None:
            raise KeyError(f"no stanza {stanza_index} in part {part_index}")
        return stanza

    @property
    def _stanza_map(self) -> dict[tuple[int, int], Stanza]:
        cached = getattr(self, "_stanza_map_cache", None)
        if cached is None:
            cached = {(p.index, s.index): s for p in self.parts for s in p.stanzas}
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
                {"kind": "raw", "text": value} if kind == "raw"
                else {"kind": "line", "ref": list(value)}  # type: ignore[call-overload]
                for kind, value in self._segments()
            ],
        }


def _line_spans(codes: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Start, text end and terminator end of every line. The terminators
    are ``\\r\\n``, ``\\r`` and ``\\n``; a final line without one ends the
    text, and a text that ends with one has no empty line after it."""
    n = codes.size
    cr = codes == 13
    crlf = np.zeros(n, dtype=bool)
    crlf[:-1] = cr[:-1] & (codes[1:] == 10)
    breaks = cr | (codes == 10)
    breaks[1:] &= ~crlf[:-1]  # the \n of a \r\n belongs to its \r
    ends = np.flatnonzero(breaks)
    stops = ends + 1 + crlf[ends]
    if ends.size == 0 or stops[-1] < n:
        ends = np.append(ends, n)
        stops = np.append(stops, n)
    starts = np.concatenate(([0], stops[:-1]))
    return starts, ends, stops


def _header_char(layout: LayoutConfig) -> Callable[[str], bool]:
    """True for a character that a header or epigraph-marker line of this
    layout may hold: whitespace, ``.``, a prefix or marker character, or a
    numeral letter of one of its numeral styles."""
    allowed = set("." + layout.part_prefix + layout.stanza_prefix + layout.epigraph_marker)
    styles = {layout.part_numerals, layout.stanza_numerals}
    if "roman" in styles:
        allowed.update(_ROMAN_VALUES)
    arabic = "arabic" in styles
    return lambda ch: ch in allowed or ch.isspace() or (arabic and ch.isdecimal())


_COUNTED, _WORD, _HEADER = 1, 2, 4


def parse_corpus(
    raw: str,
    layout: LayoutConfig,
    *,
    scheme: Optional[EncodingScheme] = None,
    source_id: str = "",
) -> Corpus:
    """Parse raw text into a Corpus under the given layout.

    ``scheme`` controls per-line character counting (letters the scheme can
    encode); without one, any Unicode letter counts. One pass over the
    text's code points finds the lines and sums per-character flags over
    each: a line made only of whitespace and characters a header can hold
    (a blank line among them) is a header candidate. Only those lines go
    through the header matchers and the structural checks; every other
    line is content of the stanza open at that point. Structural
    violations raise :class:`ParseError` with the byte offset of the
    offending line, computed only then.
    """
    if raw == "":
        raise ParseError("empty input", 0)

    codes = code_points(raw)
    starts, ends, stops = _line_spans(codes)
    count_char = str.isalpha if scheme is None else scheme.encodable
    header_char = _header_char(layout)

    def flag(ch: str) -> int:
        if ch in "\r\n":  # a terminator: no letter, no word, fits a header line
            return _HEADER
        return _COUNTED * count_char(ch) + _WORD * _is_word_char(ch) + _HEADER * header_char(ch)

    # per-line sums run over each line with its terminator
    flags = char_lookup(codes, flag)
    maybe_header = ~np.logical_or.reduceat(flags & _HEADER == 0, starts)
    candidates = np.flatnonzero(maybe_header)
    is_content = ~maybe_header
    content_before = np.concatenate(([0], np.cumsum(is_content)))
    plain_content = np.flatnonzero(is_content)
    blank_mode = layout.stanza_numerals is None

    parts: list[Part] = []
    stanzas: list[Stanza] = []  # every stanza in text order
    stanza_part: list[int] = []
    current_part: Optional[Part] = None
    current_stanza = -1  # position in ``stanzas``; -1 when none is open
    pending_epigraph = False
    last_numbered = 0  # highest stanza number in the current part
    epigraphs = 0  # epigraphs opened in the current part
    owner = np.full(starts.size, -1, dtype=np.int64)

    def offset(line: int) -> int:
        return len(raw[: int(starts[line])].encode("utf-8", "surrogatepass"))

    def open_stanza(index: int, *, epigraph: bool = False, fused: bool = False) -> None:
        nonlocal current_stanza
        stanza = Stanza(index=index, epigraph=epigraph, fused=fused)
        current_part.stanzas.append(stanza)  # type: ignore[union-attr]
        current_stanza = len(stanzas)
        stanzas.append(stanza)
        stanza_part.append(current_part.index)  # type: ignore[union-attr]

    def enter_content(line: int) -> int:
        """The stanza that the content line ``line`` (and any that follow
        it before the next blank or header line) belongs to."""
        nonlocal pending_epigraph, last_numbered, epigraphs
        if current_part is None:
            raise ParseError("text before any part header", offset(line))
        if current_stanza < 0:
            if pending_epigraph:
                # epigraphs count down from 0, so each index is unique in its part
                open_stanza(-epigraphs, epigraph=True)
                epigraphs += 1
                pending_epigraph = False
            elif blank_mode:
                last_numbered += 1
                open_stanza(last_numbered)
            else:
                raise ParseError(
                    "content line outside any stanza (expected a stanza header)",
                    offset(line),
                )
        return current_stanza

    found: dict[str, tuple[Optional[list[int]], Optional[list[int]]]] = {}

    def match_headers(stripped: str) -> tuple[Optional[list[int]], Optional[list[int]]]:
        """The part and stanza numerals ``stripped`` carries as a header line;
        header lines repeat, so each distinct one is matched once."""
        if stripped not in found:
            found[stripped] = (
                _match_header(stripped, layout.part_prefix, layout.part_numerals, False),
                None if blank_mode else _match_header(
                    stripped, layout.stanza_prefix, layout.stanza_numerals, True
                ),
            )
        return found[stripped]

    # Walk the candidates in text order; the plain content lines between
    # two candidates all join the stanza open at the first of them.
    done = 0  # plain content lines already given a stanza
    gap = 0  # first line after the last candidate
    text_starts, text_ends = starts.tolist(), ends.tolist()
    n_lines = starts.size
    for line, before in zip(
        candidates.tolist() + [n_lines],
        content_before[candidates].tolist() + [len(plain_content)],
    ):
        if before > done:
            owner[gap:line] = enter_content(int(plain_content[done]))
            done = before
        if line == n_lines:
            break
        gap = line + 1
        stripped = raw[text_starts[line]:text_ends[line]].strip()
        if stripped == "":
            # blank lines delimit stanzas only when stanzas are unnumbered;
            # with numbered stanzas the headers are the sole delimiters
            if blank_mode:
                current_stanza = -1
            continue

        part_vals, stanza_vals = match_headers(stripped)
        if part_vals is not None:
            index = part_vals[0]
            if parts and index <= parts[-1].index:
                raise ParseError(
                    f"part header {index} does not increase on {parts[-1].index}",
                    offset(line),
                )
            current_part = Part(index=index)
            parts.append(current_part)
            current_stanza = -1
            pending_epigraph = False
            last_numbered = epigraphs = 0
            continue

        if stripped == layout.epigraph_marker:
            if current_part is None:
                raise ParseError("epigraph marker before any part header", offset(line))
            current_stanza = -1
            pending_epigraph = True
            continue

        if stanza_vals is not None:
            if current_part is None:
                raise ParseError("stanza header before any part header", offset(line))
            if stanza_vals[0] <= last_numbered:
                raise ParseError(
                    f"stanza header {stanza_vals[0]} does not increase on {last_numbered}",
                    offset(line),
                )
            if any(b <= a for a, b in zip(stanza_vals, stanza_vals[1:])):
                raise ParseError(
                    "fused stanza header numerals must increase", offset(line)
                )
            last_numbered = stanza_vals[0]
            open_stanza(last_numbered, fused=len(stanza_vals) > 1)
            pending_epigraph = False
            continue

        # a header candidate that matches no header is content
        owner[line] = enter_content(line)
        is_content[line] = True

    if not parts:
        raise ParseError("no part header found", 0)

    content = np.flatnonzero(is_content)
    stanza_of = owner[content]
    n_lines_of = np.bincount(stanza_of, minlength=len(stanzas))
    first_line = np.cumsum(n_lines_of) - n_lines_of
    chars = np.add.reduceat(flags & _COUNTED, starts, dtype=np.int64)[content]
    word = flags & _WORD != 0
    word[1:] &= ~word[:-1]  # word starts: no word runs across a terminator
    words = np.add.reduceat(word, starts, dtype=np.int64)[content]
    lines = [
        Line(raw[a:b], raw[b:c], n_chars, n_words)
        for a, b, c, n_chars, n_words in zip(
            starts[content].tolist(), ends[content].tolist(), stops[content].tolist(),
            chars.tolist(), words.tolist(),
        )
    ]
    for stanza, lo, n in zip(stanzas, first_line.tolist(), n_lines_of.tolist()):
        stanza.lines = lines[lo:lo + n]

    per_stanza = np.array(
        [(p, s.index, s.epigraph) for p, s in zip(stanza_part, stanzas)], dtype=np.int64
    ).reshape(len(stanzas), 3)[stanza_of]
    line_table = np.column_stack((
        per_stanza[:, 0], per_stanza[:, 1], np.arange(content.size) - first_line[stanza_of] + 1,
        starts[content], ends[content], per_stanza[:, 2],
    ))
    return Corpus(
        source_id=source_id, parts=parts, raw=raw, line_table=line_table,
        line_bounds=np.append(starts, stops[-1]),
    )


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


def _stanza_keys(corpus: Corpus) -> list[tuple[tuple[int, int], StanzaRef]]:
    return [
        ((part.index, stanza.index), StanzaRef(corpus.source_id, part.index, stanza.index))
        for part in corpus.parts
        for stanza in part.stanzas
    ]


def align_corpora(reference: Corpus, other: Corpus) -> AlignedCorpus:
    """Pair stanzas across two corpora by (part index, stanza index).

    Several epigraphs in one part (indices 0, -1, ...) are paired in order
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
