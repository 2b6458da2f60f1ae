"""Synthetic poems: numbered parts and stanzas over random V/C words.

Test modules import these by name; the fixtures in ``conftest.py`` wrap
them. (Test modules do not import ``conftest`` itself: with the
benchmark's tests collected in the same run, that name is ambiguous.)
"""

from __future__ import annotations

import numpy as np

from vcmarkov import LayoutConfig

def format_roman(value: int) -> str:
    """Roman numeral of 1..3999, the inverse of ``corpus.parse_roman``."""
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


_VOWELS = "аеиоуы"
_CONSONANTS = "бвгдклмнпрст"


def synthetic_word(rng) -> str:
    n = int(rng.integers(2, 7))
    chars = []
    state = int(rng.integers(0, 2))
    for _ in range(n):
        pool = _VOWELS if state else _CONSONANTS
        chars.append(pool[int(rng.integers(0, len(pool)))])
        if rng.random() >= 0.3:
            state = 1 - state
    return "".join(chars)


def synthetic_line(rng) -> str:
    words = [synthetic_word(rng) for _ in range(int(rng.integers(3, 7)))]
    return " ".join(words).capitalize() + ","


def build_poem(
    n_parts: int = 3,
    stanzas_per_part: int = 14,
    lines_per_stanza: int = 4,
    seed: int = 123,
    with_epigraph: bool = True,
    with_placeholder: bool = True,
    with_fused: bool = True,
) -> str:
    """A poem-shaped text with numbered parts and stanzas.

    Part 1 opens with an epigraph, part 2 contains a dotted placeholder
    stanza, and part 3 fuses two stanza numbers under one header.
    """
    rng = np.random.default_rng(seed)
    chunks = []
    for p in range(1, n_parts + 1):
        chunks.append(format_roman(p))
        s = 1
        if p == 1 and with_epigraph:
            chunks.append("@epigraph")
            chunks.append(synthetic_line(rng) + "\n" + synthetic_line(rng))
        while s <= stanzas_per_part:
            if p == 3 and s == 4 and with_fused:
                header = f"{s}. {s + 1}"
                body = "\n".join(synthetic_line(rng) for _ in range(lines_per_stanza))
                chunks.append(header + "\n\n" + body)
                s += 2
                continue
            if p == 2 and s == 5 and with_placeholder:
                chunks.append(f"{s}\n\n" + ". . . . . . . . . . . . . .")
                s += 1
                continue
            body = "\n".join(synthetic_line(rng) for _ in range(lines_per_stanza))
            chunks.append(f"{s}\n\n" + body)
            s += 1
    return "\n\n".join(chunks) + "\n"


NUMBERED_LAYOUT = LayoutConfig(part_numerals="roman", stanza_numerals="arabic")
