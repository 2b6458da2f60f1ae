"""Text to binary symbol sequences, and block segmentation over them.

Symbols are numpy uint8: vowel = 1, consonant = 0. Each symbol remembers
where it came from (part index, stanza index, 1-based line number, 0-based
character offset in the line), which lets downstream pattern mining recover
the lexical context of any window.

Encoding joins the line texts into one string and classifies each distinct
character once with the scheme; one table lookup then gives every
character's class, and numpy reads the symbols, the origin rows and any
unknown letters off that array.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Iterable, Literal, Optional, Sequence, Union

import numpy as np

from .corpus import Corpus, char_lookup, code_points
from .errors import DomainError, UnknownCharacterError
from .schemes import EncodingScheme

logger = logging.getLogger(__name__)

SYMBOL_C = 0
SYMBOL_V = 1

UnknownPolicy = Literal["error", "skip"]


@dataclass
class SymbolSequence:
    """A V/C stream with provenance.

    ``origin`` is an (n, 4) int32 array of (part index, stanza index, line
    number, character offset) rows, or None for synthetic sequences.
    """

    symbols: np.ndarray
    source_id: str = ""
    origin: Optional[np.ndarray] = None

    def __post_init__(self):
        self.symbols = np.ascontiguousarray(self.symbols, dtype=np.uint8)
        if self.symbols.ndim != 1:
            raise ValueError("symbols must be one dimensional")
        if not np.all(self.symbols <= 1):
            raise ValueError("symbols must be 0 (consonant) or 1 (vowel)")
        if self.origin is not None:
            self.origin = np.ascontiguousarray(self.origin, dtype=np.int32)
            if self.origin.shape != (len(self.symbols), 4):
                raise ValueError("origin must be an (n, 4) array matching symbols")

    def __len__(self) -> int:
        return int(self.symbols.shape[0])

    def to_string(self) -> str:
        return np.frombuffer(b"CV", dtype=np.uint8)[self.symbols].tobytes().decode("ascii")

    @classmethod
    def from_string(cls, text: str, source_id: str = "synthetic") -> "SymbolSequence":
        bad = set(text) - {"V", "C"}
        if bad:
            raise ValueError(f"symbol string may only contain V and C, got {sorted(bad)!r}")
        arr = np.frombuffer(text.encode("ascii"), dtype=np.uint8)
        return cls(symbols=(arr == ord("V")).astype(np.uint8), source_id=source_id)


_CLASS_CODES = {"C": SYMBOL_C, "V": SYMBOL_V, "excluded": 2, "unknown": 3}
_UNKNOWN = _CLASS_CODES["unknown"]


def encode_text(
    corpus: Corpus,
    scheme: EncodingScheme,
    policy: UnknownPolicy = "error",
    *,
    include_epigraphs: bool = False,
) -> SymbolSequence:
    """Encode a corpus into its V/C symbol sequence.

    Excluded characters vanish without a trace. Unknown letters either stop
    the run at the first one in text order (policy "error") or are skipped
    with a logged count ("skip"). Epigraphs are left out unless asked for,
    so the sequence covers the poem body that the block statistics
    describe.

    The line texts are joined into one string whose distinct characters are
    classified once each; symbols and origin rows are then read off that
    lookup with numpy.
    """
    if policy not in ("error", "skip"):
        raise ValueError(f"unknown policy {policy!r}")
    lines = list(corpus.iter_lines(include_epigraphs=include_epigraphs))
    text = "".join(line.text for _, _, _, line in lines)
    classes = char_lookup(code_points(text), lambda ch: _CLASS_CODES[scheme.classify(ch)])
    lengths = np.fromiter((len(line.text) for _, _, _, line in lines), np.int64, len(lines))
    line_starts = np.cumsum(lengths) - lengths
    locations = np.array([loc for *loc, _ in lines], dtype=np.int32).reshape(len(lines), 3)

    unknown = np.flatnonzero(classes == _UNKNOWN)
    if unknown.size and policy == "error":
        first = int(unknown[0])
        i = int(np.searchsorted(line_starts, first, side="right")) - 1
        part_idx, stanza_idx, lineno = locations[i].tolist()
        raise UnknownCharacterError(
            text[first], part_idx, stanza_idx, lineno, first - int(line_starts[i])
        )
    if unknown.size:
        sample = ", ".join(repr(c) for c in sorted({text[k] for k in unknown.tolist()})[:8])
        logger.warning(
            "skipped %d unknown character(s) while encoding %s: %s",
            unknown.size,
            corpus.source_id or "<corpus>",
            sample,
        )

    # the last line starting at or before a character holds it: empty lines
    # share their start with the next line
    kept = np.flatnonzero(classes <= SYMBOL_V)
    line_of = np.searchsorted(line_starts, kept, side="right") - 1
    origin = np.empty((kept.size, 4), dtype=np.int32)
    origin[:, :3] = locations[line_of]
    origin[:, 3] = kept - line_starts[line_of]
    return SymbolSequence(symbols=classes[kept], source_id=corpus.source_id, origin=origin)


@dataclass(frozen=True)
class BlockSegmentation:
    """Contiguous [start, end) block spans from position 0 of a sequence."""

    block_len: int
    blocks: tuple[tuple[int, int], ...]
    includes_partial_tail: bool

    def __len__(self) -> int:
        return len(self.blocks)

    @property
    def lengths(self) -> list[int]:
        return [end - start for start, end in self.blocks]

    @property
    def covered(self) -> int:
        return self.blocks[-1][1] if self.blocks else 0

    def block_of(self, position: int) -> int:
        """Block index containing a symbol position, or -1 outside coverage."""
        if position < 0 or position >= self.covered:
            return -1
        idx = position // self.block_len
        return min(idx, len(self.blocks) - 1)

    def slice(self, seq_or_array, index: int) -> np.ndarray:
        start, end = self.blocks[index]
        symbols = seq_or_array.symbols if isinstance(seq_or_array, SymbolSequence) else seq_or_array
        return symbols[start:end]


def segment_blocks(
    seq: Union[SymbolSequence, Sequence[int], int],
    block_len: int,
    keep_partial: bool = True,
    min_partial: int = 1,
) -> BlockSegmentation:
    """Split the first n symbols into consecutive blocks of ``block_len``.

    A shorter tail block is appended when ``keep_partial`` is set and the
    tail has at least ``min_partial`` symbols. Block boundaries ignore all
    text structure on purpose: the units of analysis are plain symbol runs.
    """
    if block_len < 1:
        raise ValueError("block_len must be positive")
    if min_partial < 1:
        raise ValueError("min_partial must be at least 1")
    if isinstance(seq, int):
        n = seq
    else:
        n = len(seq)
    if n < 0:
        raise ValueError("sequence length cannot be negative")
    full = n // block_len
    blocks = [(i * block_len, (i + 1) * block_len) for i in range(full)]
    tail = n - full * block_len
    has_tail = keep_partial and tail >= min_partial
    if has_tail:
        blocks.append((full * block_len, n))
    return BlockSegmentation(
        block_len=block_len,
        blocks=tuple(blocks),
        includes_partial_tail=has_tail,
    )


def origin_rows(seq: SymbolSequence) -> Iterable[tuple[int, int, int, int, int]]:
    """Yield (symbol index, part, stanza, line, offset) rows for CSV export."""
    if seq.origin is None:
        raise DomainError("sequence has no origin map")
    yield from zip(range(len(seq)), *seq.origin.T.tolist())
