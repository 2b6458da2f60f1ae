"""Text to binary symbol sequences, and block segmentation over them.

Symbols are numpy uint8: vowel = 1, consonant = 0. Each symbol remembers
where it came from (part index, stanza index, 1-based line number, 0-based
character offset in the line), which lets downstream pattern mining recover
the lexical context of any window.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Iterable, Literal, Optional, Sequence, Union

import numpy as np

from .corpus import Corpus
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
        lookup = np.array(["C", "V"])
        return "".join(lookup[self.symbols])

    @classmethod
    def from_string(cls, text: str, source_id: str = "synthetic") -> "SymbolSequence":
        bad = set(text) - {"V", "C"}
        if bad:
            raise ValueError(f"symbol string may only contain V and C, got {sorted(bad)!r}")
        arr = np.frombuffer(text.encode("ascii"), dtype=np.uint8)
        return cls(symbols=(arr == ord("V")).astype(np.uint8), source_id=source_id)


def encode_text(
    corpus: Corpus,
    scheme: EncodingScheme,
    policy: UnknownPolicy = "error",
    *,
    include_epigraphs: bool = False,
) -> SymbolSequence:
    """Encode a corpus into its V/C symbol sequence.

    Excluded characters vanish without a trace. Unknown letters either stop
    the run (policy "error") or are skipped with a logged count ("skip").
    Epigraphs are left out unless asked for, so the sequence covers the poem
    body that the block statistics describe.
    """
    if policy not in ("error", "skip"):
        raise ValueError(f"unknown policy {policy!r}")
    symbols: list[int] = []
    origins: list[tuple[int, int, int, int]] = []
    skipped: dict[str, int] = {}
    for part_idx, stanza_idx, lineno, line in corpus.iter_lines(
        include_epigraphs=include_epigraphs
    ):
        classify = scheme.classify
        for offset, ch in enumerate(line.text):
            cls = classify(ch)
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
