"""The whole-text numpy path against its per-character oracles, and pinned
bytes of every ``encode`` and ``probe`` output file."""

from __future__ import annotations

import hashlib
import json
import logging
import os

import numpy as np
import pytest

from vcmarkov import RUSSIAN, EncodingScheme, LayoutConfig, cli, parse_corpus
from vcmarkov.corpus import tokenize_words
from vcmarkov.encoding import encode_text, segment_blocks
from vcmarkov.errors import UnknownCharacterError
from vcmarkov.probes import scan_pattern_class

import textpath_oracle as oracle
from conftest import NUMBERED_LAYOUT, build_poem

# a scheme that tells upper from lower case and knows a few letters the
# default scheme does not (the dotted capital I among them, whose lower
# case is two code points)
CASED = EncodingScheme(
    name="cased",
    vowels=frozenset("аеиоуыэюяёАЕИОУaeiouİ𐐀"),
    consonants=frozenset("бвгджзклмнпрстфхцчшщБВГДКМНПСТbcdfgklmnprstßñ"),
    excluded=frozenset("ъь"),
    fold_case=False,
)

_LOWER = "абвгдеёжзийклмнопрстуфхцчшщъыьэюя"
_LATIN = "abcdefghijklmnopqrstuvwxyzéàçñ"
_SPECIAL = ("İ", "ß", "𐐀", "𐐨", "θ", "ѣ", "ъ", "ь")
_INNER = ("'", "’", "-")
_GAPS = (" ", " ", " ", "\t", " ", " — ", ", ", "! ", "… ", " «", "» ")
_TERMINATORS = ("\n", "\n", "\n", "\r\n", "\r")


def _word(rng, specials: bool) -> str:
    chars = []
    for _ in range(int(rng.integers(1, 8))):
        u = rng.random()
        if u < 0.68:
            chars.append(_LOWER[rng.integers(len(_LOWER))])
        elif u < 0.78:
            chars.append(_LOWER[rng.integers(len(_LOWER))].upper())
        elif u < 0.88:
            ch = _LATIN[rng.integers(len(_LATIN))]
            chars.append(ch.upper() if rng.random() < 0.2 else ch)
        elif u < 0.95 and specials:
            chars.append(_SPECIAL[rng.integers(len(_SPECIAL))])
        else:
            chars.append(_INNER[rng.integers(len(_INNER))])
    return "".join(chars)


def _line(rng, specials: bool) -> str:
    # a lower-case Cyrillic word first, so no line reads as a header
    words = ["".join(_LOWER[i] for i in rng.integers(0, 30, size=3))]
    words += [_word(rng, specials) for _ in range(int(rng.integers(0, 6)))]
    out = words[0]
    for w in words[1:]:
        out += _GAPS[rng.integers(len(_GAPS))] + w
    if rng.random() < 0.2:
        out = "\t" + out + " ."
    return out


def generated_poem(seed: int, specials: bool = True) -> str:
    """Numbered parts and stanzas with an epigraph, mixed line ends, and
    letters from several scripts, cases and planes."""
    rng = np.random.default_rng(seed)
    out = []

    def emit(text: str) -> None:
        out.append(text + _TERMINATORS[rng.integers(len(_TERMINATORS))])

    for part in ("I", "II"):
        emit(part)
        emit("")
        if part == "I":
            emit("@epigraph")
            for _ in range(2):
                emit(_line(rng, specials))
            emit("")
        for stanza in range(1, int(rng.integers(3, 6))):
            emit(str(stanza))
            emit("")
            for _ in range(int(rng.integers(1, 6))):
                emit(_line(rng, specials))
            emit("")
    return "".join(out)


SEEDS = range(12)


def _corpus(seed: int, scheme=RUSSIAN, specials: bool = True):
    return parse_corpus(
        generated_poem(seed, specials), NUMBERED_LAYOUT, scheme=scheme, source_id=f"g{seed}"
    )


# ------------------------------------------------------------ corpus counts


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("scheme", [None, RUSSIAN, CASED], ids=["alpha", "ru", "cased"])
def test_line_counts_match_oracle(seed, scheme):
    corpus = _corpus(seed, scheme)
    lines = [line for *_, line in corpus.iter_lines(include_epigraphs=True)]
    assert lines
    for line in lines:
        assert (line.char_count, line.word_count) == oracle.line_counts(line.text, scheme)


@pytest.mark.parametrize("seed", SEEDS)
def test_tokenize_words_matches_oracle(seed):
    text = generated_poem(seed)
    for line in text.splitlines():
        assert tokenize_words(line) == oracle.tokenize_words(line)
    assert tokenize_words(text) == oracle.tokenize_words(text)


# ------------------------------------------------------------ encoding


def _encode_both(corpus, scheme, policy, include_epigraphs):
    results = []
    for encode in (encode_text, oracle.encode_text):
        try:
            results.append(encode(corpus, scheme, policy, include_epigraphs=include_epigraphs))
        except UnknownCharacterError as exc:
            results.append(exc)
    return results


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("scheme", [RUSSIAN, CASED], ids=["ru", "cased"])
@pytest.mark.parametrize("include_epigraphs", [False, True])
def test_encode_error_policy_matches_oracle(seed, scheme, include_epigraphs):
    corpus = _corpus(seed, scheme, specials=seed % 3 != 0)
    new, old = _encode_both(corpus, scheme, "error", include_epigraphs)
    if isinstance(old, UnknownCharacterError):
        # the first unknown letter in text order, at the same place
        assert isinstance(new, UnknownCharacterError)
        assert (new.char, new.location, str(new)) == (old.char, old.location, str(old))
    else:
        assert np.array_equal(new.symbols, old.symbols)
        assert np.array_equal(new.origin, old.origin)
        assert new.origin.dtype == old.origin.dtype


def test_generated_poems_hit_both_error_outcomes():
    outcomes = set()
    for seed in SEEDS:
        corpus = _corpus(seed, RUSSIAN, specials=seed % 3 != 0)
        new, _ = _encode_both(corpus, RUSSIAN, "error", False)
        outcomes.add(type(new).__name__)
    assert outcomes == {"SymbolSequence", "UnknownCharacterError"}


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("scheme", [RUSSIAN, CASED], ids=["ru", "cased"])
@pytest.mark.parametrize("include_epigraphs", [False, True])
def test_encode_skip_policy_matches_oracle(seed, scheme, include_epigraphs, caplog):
    corpus = _corpus(seed, scheme)
    warnings = []
    results = []
    for encode in (encode_text, oracle.encode_text):
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="vcmarkov.encoding"):
            results.append(encode(corpus, scheme, "skip", include_epigraphs=include_epigraphs))
        warnings.append([r.getMessage() for r in caplog.records])
    new, old = results
    assert np.array_equal(new.symbols, old.symbols)
    assert np.array_equal(new.origin, old.origin)
    assert warnings[0] == warnings[1]
    assert len(warnings[0]) == 1


# ------------------------------------------------------------ probe scanning


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("scheme", [RUSSIAN, CASED], ids=["ru", "cased"])
def test_scan_matches_oracle(seed, scheme):
    corpus = _corpus(seed, scheme)
    seq = encode_text(corpus, scheme, "skip", include_epigraphs=seed % 2 == 0)
    classes = ["VVV", "CCC", "VVC", "CCV", "VCV", "CVC"]
    for segmentation in (None, segment_blocks(seq, 17, min_partial=5)):
        new = scan_pattern_class(seq, corpus, classes, segmentation=segmentation)
        old = oracle.scan_pattern_class(seq, corpus, classes, segmentation=segmentation)
        assert oracle.records(new) == old
        # the trigram list is sorted, distinct, and every entry has a match
        assert list(new.trigrams) == sorted({m.letters for m in old})
    spanning = [m for m in old if " " in m.context and not m.single_word]
    assert spanning, "the poem should hold windows that cross a word or line"


def test_scan_lowers_each_string_not_the_text():
    # 'İ'.lower() is two code points: lowering a whole text would shift
    # every index after it
    corpus = parse_corpus("I\n\nİБа ма\nİİ да\n", LayoutConfig(), scheme=CASED)
    seq = encode_text(corpus, CASED)
    classes = ["VCV", "CVV", "VVC", "VVV", "CVC"]
    new = oracle.records(scan_pattern_class(seq, corpus, classes))
    assert new == oracle.scan_pattern_class(seq, corpus, classes)
    assert any(len(m.letters) == 4 for m in new)


# ------------------------------------------------------------ pinned outputs

_ANNOTATIONS = (
    "context,lemma,category\n"
    "оеыеер,оеыеер,theme\n"
    "тмммно,тмммно,motion\n"
    "брднол,брднол,theme\n"
    "иыебне,иыебне,\n"
    "ддтлнм,ддтлнм,theme\n"
    "оыыыаи,оыыыаи,motion\n"
    "тееиоа,тееиоа,\n"
)
_NAMES = (
    "character,form\nHero,брднол\nHero,дтаеин\nOther,иурссы\n"
    "Hero,мдрлбе\nOther,гоооыр\n"
)

# sha256 of every output file, written by the code before the whole-text
# path replaced the per-character one
PINS = {
    "nine": {
        "encode/manifest.json":
            "4ac270ee8f460af106e7ef50dcca56318ad61f0f3e60c1658a8aef9ddb2d25d9",
        "encode/origins.csv":
            "ca807947233d7ee22376a6aabcbcc5b731b66b207e3798bdf2a1b22053189bc9",
        "encode/sequence.txt":
            "fa76675ddf51dcc729281422a43540a987e20e23246303b537e60cb35d186189",
        "probe/candidates.csv":
            "633bb6be3e39163edc4333c3300e0388cc853d623fbb721dc70524d4a17d3d70",
        "probe/category_counts.csv":
            "251b9bdd7811643aca3c34197769841f0657fa6a2662a052fcfb16b5ef6ca05c",
        "probe/category_trends.csv":
            "22fed7f46a6020fb0e489a5c5e14e44ad6b094b315340ee31be529450872ed45",
        "probe/class_totals.csv":
            "d1a46f274920c4373cac78e4d1ba89589a95e01c4e5bb6ea49a2cd15154d959d",
        "probe/cooccurrence.json":
            "b14715061e93ee13d8e1823c2919dde78426fabda4691b22f467f02e96c3b3b6",
        "probe/labeled_matches.csv":
            "09c776ae26fb7d9d1637722efc05a013fc366102ccdb3ba6ef6a06578cc2a963",
        "probe/latin_density.csv":
            "e09f41f99e20421c8cba958d6c70d569cfc932cece13d858ed919e158cb58bc4",
        "probe/latin_tokens.csv":
            "cedea72fb2beb529881f25acfad076c7da4e3ea2519eb8a9d5fc26bd4e6f686b",
        "probe/manifest.json":
            "f39422c16fe1d6118078c4487337ddb6fa4d9b2a83607148b6f1dbcf70fa49e4",
        "probe/matches.csv":
            "fcfce0d198f3ff312885c7e58f870e6e4960d78104b7f6dd186191d6f2cf3e58",
        "probe/trigram_ranks.csv":
            "cc9940c0d7bf2d6711138953bb33cb418c019b27acdcfd41202c7a7ae6a705a0",
    },
    "poem": {
        "encode/manifest.json":
            "3d0bffbc2b3215ada86837ff120b34c747e88adc5c01c525e1a4a99eb894214e",
        "encode/origins.csv":
            "c0b84d13932fd2cd6a4fdacd9a4d941a5f16616e65773958c1ec96e8214e1ec4",
        "encode/sequence.txt":
            "a840127eab39a6d23c784ea47d8f2f414cb6ed6e803aba434102c20540160a33",
        "probe/candidates.csv":
            "5b527fd0b448fd83163db00c32e2155c09a912c383d6c321ecbf9ab83793c7a1",
        "probe/category_counts.csv":
            "4e96bfcb0aee7ee713897794d238f442a616bb1cb1fc9a4882207e51f14a78cb",
        "probe/category_trends.csv":
            "ace65724de9d8c8f5d76b2619be139c276b66de0d92a10a0deec2f31c935ed43",
        "probe/class_totals.csv":
            "67fc24fea5ee25efeb3d38664e5b689d11525972f93baf78ebdaa0d1908546a8",
        "probe/cooccurrence.json":
            "16b77c57d9e24a5dd0d6b4789968078c3a7bd7a56e158b5d8af1d8a8fe52658e",
        "probe/labeled_matches.csv":
            "20caa7eb3e615587ec3bf67e03248536f7dbc6408ec7aa8b8036afb1ac208003",
        "probe/latin_density.csv":
            "a63bec4991c2c432fe54366b5b046838acb625045f1cb6f3271146239af5a58c",
        "probe/latin_tokens.csv":
            "d27f4989a4ec6ba415c092904282cf1438454a24a6113ffc0e79c5d37f7281b1",
        "probe/manifest.json":
            "eb917391f722f443aab588b31a2dd9fc1ecef38dd206de4faae26f148275f842",
        "probe/matches.csv":
            "bfb5602a53a347317ec353324d9bbdb634b5d6804e8be95e316bc76724732355",
        "probe/trigram_ranks.csv":
            "2a6e7672523d85cb9b7c7565e60242e5589c54b0b54bb2362d30623a9d942155",
    },
}


def _text_and_args(case: str) -> tuple[str, list[str]]:
    if case == "poem":
        return build_poem(), ["--block-len", "400"]
    return build_poem(n_parts=4, stanzas_per_part=12, seed=9), ["--block-len", "350"]


@pytest.mark.parametrize("case", sorted(PINS))
def test_encode_and_probe_outputs_are_pinned(case, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")
    text, block_args = _text_and_args(case)
    (tmp_path / "text.txt").write_text(text, encoding="utf-8")
    (tmp_path / "layout.json").write_text(
        json.dumps({"part_numerals": "roman", "stanza_numerals": "arabic"}), encoding="utf-8"
    )
    (tmp_path / "ann.csv").write_text(_ANNOTATIONS, encoding="utf-8")
    (tmp_path / "names.csv").write_text(_NAMES, encoding="utf-8")
    common = ["--input", "text.txt", "--layout", "layout.json", *block_args]
    assert cli.main(["encode", *common, "--out", "encode"]) == 0
    assert cli.main([
        "probe", *common, "--annotations", "ann.csv", "--names", "names.csv",
        "--out", "probe",
    ]) == 0
    digests = {}
    for command in ("encode", "probe"):
        for name in sorted(os.listdir(command)):
            with open(os.path.join(command, name), "rb") as fh:
                digests[f"{command}/{name}"] = hashlib.sha256(fh.read()).hexdigest()
    assert digests == PINS[case]
