"""Seeded input generator for the benchmark workloads.

The reference texts (a Russian poem and its Italian translation) are not
distributed, so the benchmark writes texts shaped like them: Roman-numeral
parts, numbered stanzas, an epigraph, a dotted placeholder stanza, a fused
stanza header and Latin inclusions. Words come from a seeded lexicon with
Zipf frequencies; their letters follow a vowel/consonant chain with
second-order memory, so every block has a finite, non-zero memory depth.

The lexicons and the annotation table are fixed, like the vocabulary of
a language; the texts are drawn from one ``numpy`` generator seeded with
the workload seed, so the same seed gives byte-identical files and the
work a text causes varies little from seed to seed. Symbol counts are
computed here from the characters emitted (letters minus hard and soft
signs, epigraphs left out), independently of the package, and the output
checks compare the program against them.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, field

import numpy as np

LEXICON_SEED = 0x7E1
BLOCK_LEN = 10_000
WARM_BLOCK_LEN = 1_000
CHAPTER_BLOCKS = (5, 7, 8, 9)

# P(V | previous two symbols) for CC, CV, VC, VV: alternation-leaning with
# second-order memory, far from every dispersion pole.
VC_CHAIN = (0.60, 0.45, 0.70, 0.15)

# Letter pools with rough frequency weights of each language.
_RU_VOWELS = ("оаеиуяыюэё", (11.0, 8.0, 8.5, 7.4, 2.6, 2.0, 1.9, 0.6, 0.3, 0.1))
_RU_CONSONANTS = (
    "нтсрвлкмдпгзбчйхжшцщф",
    (6.7, 6.3, 5.5, 4.7, 4.5, 4.4, 3.5, 3.2, 3.0, 2.8, 1.7, 1.6, 1.6, 1.4,
     1.2, 1.0, 0.9, 0.7, 0.5, 0.4, 0.3),
)
_IT_VOWELS = ("eaoiuàèìòù", (11.8, 11.7, 9.8, 11.3, 3.0, 0.3, 0.3, 0.1, 0.1, 0.1))
_IT_CONSONANTS = (
    "nlrtscdpmvgfbzhq",
    (6.9, 6.5, 6.4, 5.6, 5.0, 4.5, 3.7, 3.1, 2.5, 2.1, 1.6, 1.2, 0.9, 0.5, 0.4, 0.3),
)
_RU_SIGNS = "ьъ"

_NAMES_RU = {
    "Onegin": ("Онегин", "Онегина", "Онегину", "Онегиным"),
    "Tatyana": ("Татьяна", "Татьяны", "Татьяне", "Татьяну"),
    "Lensky": ("Ленский", "Ленского", "Ленскому"),
    "Olga": ("Ольга", "Ольги", "Ольгу"),
}
_NAMES_IT = ("Onegin", "Tatiana", "Lenskij", "Olga")

# Foreign expressions quoted inside the Cyrillic text (the ru scheme
# classifies Latin letters), and an epigraph in French.
_LATIN_PHRASES = (
    "comme il faut", "mon cher", "à propos", "dandy", "madame", "bonjour",
    "ennui", "vale", "beefsteak", "boston", "sentimental", "pourquoi",
)
_EPIGRAPH = (
    "Pétri de vanité il avait encore plus",
    "de cette espèce d'orgueil qui fait avouer",
    "avec la même indifférence les bonnes comme les mauvaises actions",
)
_CATEGORIES = ("encounter", "emotion", "nature", "time", "motion", "")
_PUNCT = (",", ",", ",", ".", ";", "!", " —", ":", "?", "")

LAYOUT = {
    "part_prefix": "",
    "part_numerals": "roman",
    "stanza_prefix": "",
    "stanza_numerals": "arabic",
    "epigraph_marker": "@epigraph",
}


@dataclass
class TextSpec:
    """One generated text: its file, scheme and exact encoded size."""

    label: str
    path: str
    scheme: str
    symbols: int
    block_len: int = BLOCK_LEN

    @property
    def blocks(self) -> int:
        full, tail = divmod(self.symbols, self.block_len)
        return full + (1 if tail >= max(self.block_len // 2, 1) else 0)


@dataclass
class WorkloadInputs:
    layout: str
    texts: dict[str, TextSpec] = field(default_factory=dict)
    annotations: str = ""
    names: str = ""

    def to_dict(self) -> dict:
        return {
            "layout": self.layout,
            "texts": {k: asdict(v) for k, v in self.texts.items()},
            "annotations": self.annotations,
            "names": self.names,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "WorkloadInputs":
        return cls(
            layout=data["layout"],
            texts={k: TextSpec(**v) for k, v in data["texts"].items()},
            annotations=data["annotations"],
            names=data["names"],
        )


def _roman(value: int) -> str:
    out = []
    for val, sym in ((10, "X"), (9, "IX"), (5, "V"), (4, "IV"), (1, "I")):
        while value >= val:
            out.append(sym)
            value -= val
    return "".join(out)


class _Language:
    def __init__(self, stream: int, vowels, consonants, signs: str, lexicon_size: int):
        self.vowels, vw = vowels
        self.consonants, cw = consonants
        self.vw = np.asarray(vw) / np.sum(vw)
        self.cw = np.asarray(cw) / np.sum(cw)
        self.signs = signs
        rng = np.random.default_rng([LEXICON_SEED, stream])
        self.lexicon = [self._word(rng) for _ in range(lexicon_size)]
        ranks = np.arange(1, lexicon_size + 1, dtype=float)
        self.word_p = 1.0 / (ranks + 2.7)
        self.word_p /= self.word_p.sum()

    def _word(self, rng: np.random.Generator) -> str:
        n = 1 + int(rng.geometric(0.22))
        n = min(n, 12)
        vc = [int(rng.random() < 0.42)]
        if n > 1:
            vc.append(int(rng.random() < (0.8 if vc[0] == 0 else 0.35)))
        while len(vc) < n:
            state = (vc[-2] << 1) | vc[-1]
            vc.append(int(rng.random() < VC_CHAIN[state]))
        chars = []
        for sym in vc:
            if sym:
                chars.append(self.vowels[rng.choice(len(self.vowels), p=self.vw)])
            else:
                chars.append(self.consonants[rng.choice(len(self.consonants), p=self.cw)])
                if self.signs and len(chars) > 1 and rng.random() < 0.05:
                    chars.append(self.signs[int(rng.random() < 0.1)])
        return "".join(chars)

    def words(self, rng: np.random.Generator, k: int) -> list[str]:
        idx = rng.choice(len(self.lexicon), size=k, p=self.word_p)
        return [self.lexicon[i] for i in idx]


def _count_symbols(line: str, signs: str) -> int:
    return sum(1 for ch in line if ch.isalpha() and ch.lower() not in signs)


def _make_text(rng: np.random.Generator, lang: _Language, target: int, *,
               n_parts: int, names: list[str], latin: bool) -> tuple[str, int]:
    """A poem of at least ``target`` encoded symbols and its exact count."""
    stanzas: list[list[str]] = []
    total = 0
    while total < target:
        lines = []
        for _ in range(14):
            words = lang.words(rng, int(rng.integers(3, 7)))
            if names and rng.random() < 0.08:
                words[int(rng.integers(len(words)))] = names[int(rng.integers(len(names)))]
            if latin and rng.random() < 0.03:
                words.insert(int(rng.integers(len(words) + 1)),
                             _LATIN_PHRASES[int(rng.integers(len(_LATIN_PHRASES)))])
            line = " ".join(words)
            line = line[0].upper() + line[1:] + _PUNCT[int(rng.integers(len(_PUNCT)))]
            lines.append(line)
            total += _count_symbols(line, lang.signs)
        stanzas.append(lines)
    per_part = max(len(stanzas) // n_parts, 3)
    chunks = []
    k = 0
    for p in range(1, n_parts + 1):
        own = stanzas[k: k + per_part] if p < n_parts else stanzas[k:]
        k += len(own)
        if not own:
            break
        chunks.append(_roman(p))
        if p == 1:
            chunks.append("@epigraph\n" + "\n".join(_EPIGRAPH))
        number = 1
        for i, lines in enumerate(own):
            if p == 2 and i == 2:
                chunks.append(f"{number}\n\n" + "\n".join([". " * 16] * 4))
                number += 1
            if p == 3 and i == 1:
                chunks.append(f"{number}. {number + 1}\n\n" + "\n".join(lines))
                number += 2
                continue
            chunks.append(f"{number}\n\n" + "\n".join(lines))
            number += 1
    return "\n\n".join(chunks) + "\n", total


def _ru(stream=0, size=4000):
    return _Language(stream, _RU_VOWELS, _RU_CONSONANTS, _RU_SIGNS, size)


def _it():
    return _Language(1, _IT_VOWELS, _IT_CONSONANTS, "", 4000)


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def _add_text(inputs, out_dir, rng, lang, label, scheme, target, *, n_parts,
              block_len=BLOCK_LEN):
    names = ([f for forms in _NAMES_RU.values() for f in forms]
             if scheme == "ru" else list(_NAMES_IT))
    text, symbols = _make_text(rng, lang, target, n_parts=n_parts, names=names,
                               latin=scheme == "ru")
    path = f"{label}.txt"
    _write(os.path.join(out_dir, path), text)
    inputs.texts[label] = TextSpec(label, path, scheme, symbols, block_len)


def _blocks_target(blocks: int) -> int:
    # (blocks - 1) full blocks plus a kept 7,000-symbol tail
    return (blocks - 1) * BLOCK_LEN + 7_000


def generate(workload: str, seed: int, out_dir: str) -> WorkloadInputs:
    """Write the inputs of one workload into ``out_dir`` and describe them.

    Every workload also gets small ``warm_*`` texts, analysed with short
    blocks, for the untimed warm-up jobs.
    """
    rng = np.random.default_rng([seed, 0x5C])
    os.makedirs(out_dir, exist_ok=True)
    _write(os.path.join(out_dir, "layout.json"), json.dumps(LAYOUT, indent=2) + "\n")
    inputs = WorkloadInputs(layout="layout.json")
    ru = _ru()
    _add_text(inputs, out_dir, rng, ru, "warm_ru", "ru", 15_000, n_parts=3,
              block_len=WARM_BLOCK_LEN)
    if workload == "resample":
        it = _it()
        _add_text(inputs, out_dir, rng, it, "warm_it", "it", 15_000, n_parts=3,
                  block_len=WARM_BLOCK_LEN)
        _add_text(inputs, out_dir, rng, ru, "ru", "ru", 150_000, n_parts=8)
        _add_text(inputs, out_dir, rng, it, "it", "it", 120_000, n_parts=8)
    elif workload == "probe":
        _add_text(inputs, out_dir, rng, ru, "long", "ru", 300_000, n_parts=8)
        _write_tables(inputs, out_dir, ru)
    elif workload == "chapters":
        for blocks in CHAPTER_BLOCKS:
            _add_text(inputs, out_dir, rng, _ru(10 + blocks, 2500), f"ch{blocks}", "ru",
                      _blocks_target(blocks), n_parts=3)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    with open(os.path.join(out_dir, "inputs.json"), "w", encoding="utf-8") as fh:
        json.dump(inputs.to_dict(), fh, indent=2, sort_keys=True)
    return inputs


def _write_tables(inputs, out_dir, lang) -> None:
    """Annotation and name tables covering part of the vocabulary."""
    rng = np.random.default_rng([LEXICON_SEED, 99])
    rows = ["context,lemma,category"]
    seen = set()
    for word in lang.lexicon:
        if word in seen or rng.random() >= 0.4:
            continue
        seen.add(word)
        lemma = word[: max(3, len(word) - 2)]
        category = _CATEGORIES[int(rng.integers(len(_CATEGORIES)))]
        rows.append(f"{word},{lemma},{category}")
    for forms in _NAMES_RU.values():
        for form in forms:
            rows.append(f"{form.lower()},{forms[0].lower()},encounter")
    _write(os.path.join(out_dir, "annotations.csv"), "\n".join(rows) + "\n")
    names = ["character,form"]
    for character, forms in _NAMES_RU.items():
        names.extend(f"{character},{form}" for form in forms)
    _write(os.path.join(out_dir, "names.csv"), "\n".join(names) + "\n")
    inputs.annotations = "annotations.csv"
    inputs.names = "names.csv"
