"""Encoding schemes: which characters count as vowels, consonants, or neither.

A scheme is a total classification of characters into four outcomes:

* ``"V"`` - vowel, encoded as symbol 1
* ``"C"`` - consonant, encoded as symbol 0
* ``"excluded"`` - dropped from the symbol stream (whitespace, punctuation,
  digits, and any letters the scheme explicitly silences, such as the
  Russian hard and soft signs)
* ``"unknown"`` - a letter the scheme does not know; the encoder decides
  whether that is an error or a skip

Schemes are immutable and serializable, so a run can record exactly which
classification produced its numbers and a user can override any default.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from typing import Literal

from .corpus import read_text_file
from .errors import DataError

Classification = Literal["V", "C", "excluded", "unknown"]

_RU_VOWELS = "аеёиоуыэюя"
_RU_CONSONANTS = "бвгджзйклмнпрстфхцчшщ"
_RU_SIGNS = "ъь"

# Latin letters appear inside both corpora as quoted foreign expressions,
# so both default schemes classify them. "y" counts as a vowel here: in the
# borrowed material it is almost always syllabic.
_LATIN_VOWELS = "aeiouy" + "àèéìíîòóùú" + "âêôûäëïöü"
_LATIN_CONSONANTS = "bcdfghjklmnpqrstvwxz" + "çñ"

# Consonants used when Cyrillic names are transliterated into Latin script.
_TRANSLIT_CONSONANTS = "šžč"


@dataclass(frozen=True)
class EncodingScheme:
    """Immutable vowel/consonant classification table.

    ``vowels``, ``consonants`` and ``excluded`` must be pairwise disjoint.
    With ``fold_case`` (the default) classification is case insensitive and
    the three sets are expected in lower case.
    """

    name: str
    vowels: frozenset[str]
    consonants: frozenset[str]
    excluded: frozenset[str] = frozenset()
    fold_case: bool = True

    def __post_init__(self):
        for label, chars in (
            ("vowels", self.vowels),
            ("consonants", self.consonants),
            ("excluded", self.excluded),
        ):
            for ch in chars:
                if len(ch) != 1:
                    raise ValueError(f"{label} must contain single characters, got {ch!r}")
        overlap = (
            (self.vowels & self.consonants)
            | (self.vowels & self.excluded)
            | (self.consonants & self.excluded)
        )
        if overlap:
            raise ValueError(
                "vowels, consonants and excluded must be disjoint; "
                f"shared: {sorted(overlap)!r}"
            )

    @cached_property
    def _table(self) -> dict[str, Classification]:
        table: dict[str, Classification] = {}
        for ch in self.vowels:
            table[ch] = "V"
        for ch in self.consonants:
            table[ch] = "C"
        for ch in self.excluded:
            table[ch] = "excluded"
        return table

    def classify(self, ch: str) -> Classification:
        """Classify one character.

        Characters outside the declared sets fall back on a rule: anything
        that is not a letter (whitespace, punctuation, digits, symbols) is
        excluded, while an undeclared letter is unknown.
        """
        if len(ch) != 1:
            raise ValueError(f"classify expects a single character, got {ch!r}")
        key = ch.lower() if self.fold_case else ch
        hit = self._table.get(key)
        if hit is not None:
            return hit
        if not key.isalpha():
            return "excluded"
        return "unknown"

    def encodable(self, ch: str) -> bool:
        """True when the character contributes a symbol to the V/C stream."""
        return self.classify(ch) in ("V", "C")

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "vowels": "".join(sorted(self.vowels)),
            "consonants": "".join(sorted(self.consonants)),
            "excluded": "".join(sorted(self.excluded)),
            "fold_case": self.fold_case,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "EncodingScheme":
        return cls(
            name=data["name"],
            vowels=frozenset(data["vowels"]),
            consonants=frozenset(data["consonants"]),
            excluded=frozenset(data.get("excluded", "")),
            fold_case=bool(data.get("fold_case", True)),
        )


def classify_char(ch: str, scheme: EncodingScheme) -> Classification:
    """Functional form of :meth:`EncodingScheme.classify`."""
    return scheme.classify(ch)


RUSSIAN = EncodingScheme(
    name="ru",
    vowels=frozenset(_RU_VOWELS + _LATIN_VOWELS),
    consonants=frozenset(_RU_CONSONANTS + _LATIN_CONSONANTS),
    excluded=frozenset(_RU_SIGNS),
)

ITALIAN = EncodingScheme(
    name="it",
    vowels=frozenset(_LATIN_VOWELS),
    consonants=frozenset(_LATIN_CONSONANTS + _TRANSLIT_CONSONANTS),
)

DEFAULT_SCHEMES: dict[str, EncodingScheme] = {
    "ru": RUSSIAN,
    "it": ITALIAN,
}


def load_scheme(name_or_path: str) -> EncodingScheme:
    """Resolve a scheme by registry name or by path to a scheme JSON file."""
    if name_or_path in DEFAULT_SCHEMES:
        return DEFAULT_SCHEMES[name_or_path]
    try:
        data = json.loads(read_text_file(name_or_path))
    except OSError as exc:
        raise ValueError(
            f"unknown scheme {name_or_path!r}: not a registry name "
            f"({', '.join(sorted(DEFAULT_SCHEMES))}) and not a readable file: {exc}"
        ) from exc
    except json.JSONDecodeError as exc:
        raise DataError(f"{name_or_path}: not valid JSON: {exc}") from exc
    try:
        return EncodingScheme.from_dict(data)
    except KeyError as exc:
        raise DataError(f"{name_or_path}: scheme JSON has no {exc.args[0]!r} field") from exc
    except (TypeError, ValueError) as exc:
        raise DataError(f"{name_or_path}: malformed scheme JSON: {exc}") from exc


def dump_scheme(scheme: EncodingScheme, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(scheme.to_dict(), fh, ensure_ascii=False, indent=2, sort_keys=True)
        fh.write("\n")
