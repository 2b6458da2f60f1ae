"""The whole-text parse against its per-line oracle, and pinned bytes of
every ``parse`` and ``align`` output file."""

from __future__ import annotations

import hashlib
import json
import os

import numpy as np
import pytest

from vcmarkov import RUSSIAN, EncodingScheme, LayoutConfig, cli, encode_text, parse_corpus
from vcmarkov.errors import ParseError

import parse_oracle
import textpath_oracle
from poems import NUMBERED_LAYOUT, build_poem, format_roman


# ------------------------------------------------------------ parse oracle

LAYOUTS = {
    "numbered": NUMBERED_LAYOUT,
    "blank": LayoutConfig(part_numerals="roman"),
    "canto": LayoutConfig(part_prefix="Canto", part_numerals="roman"),
    "prefixed": LayoutConfig(
        part_prefix="Part", part_numerals="arabic", stanza_prefix="St.",
        stanza_numerals="roman", epigraph_marker="EPI GRAPH",
    ),
}

_TERMINATORS = ("\n", "\n", "\r\n", "\r")
# whitespace that str.strip removes but that ends no line here
_BLANKS = ("", "", " ", "\t", "\x0b", "\x0c", "\x85", "\u00a0", "  \u2028 ")
# content that a header matcher looks at: Roman letters, bare numerals,
# dot filler, fused or prefix-like text
_TRICKY = (
    "Vale", "Mille", "DIX", "XIV", "IV V", "12", "3 2", "²", "٣", ". . . . . .", ".",
    "…", ". 5", "5.", "Canto", "CantoI", "Canto V", "Canto  XX.", "Part", "Part 7",
    "St. IX", "St.X", "@epigraph x", "EPI  GRAPH", " \u00a0DIX\t",
)
_WORDS = ("мой", "дядя", "самых", "честных", "правил", "all'antica", "кто-нибудь", "да!")
# a scheme that counts the terminator characters as letters: a line's
# letter count still covers its text only
TERMINATOR_LETTERS = EncodingScheme(
    name="terminators", vowels=frozenset("аеиоуыя\n"), consonants=frozenset("дмслчтхвпр\r")
)
SCHEMES = (None, RUSSIAN, TERMINATOR_LETTERS)


def _content(rng) -> str:
    if rng.random() < 0.25:
        return _TRICKY[rng.integers(len(_TRICKY))]
    words = [_WORDS[i] for i in rng.integers(0, len(_WORDS), size=int(rng.integers(1, 5)))]
    return ("\t" if rng.random() < 0.1 else "") + " ".join(words).capitalize()


def _numeral(layout: LayoutConfig, part: bool, value: int) -> str:
    style = layout.part_numerals if part else layout.stanza_numerals
    prefix = layout.part_prefix if part else layout.stanza_prefix
    token = format_roman(value) if style == "roman" else str(value)
    return f"{prefix} {token}" if prefix else token


def generated_text(seed: int, layout: LayoutConfig) -> str:
    """A text of the layout's shape with random blank and tricky lines, mixed
    terminators and, now and then, a structural fault."""
    rng = np.random.default_rng(seed)
    lines = []
    if rng.random() < 0.05:
        lines.append(_content(rng))
    if rng.random() < 0.03:
        lines.append(layout.epigraph_marker)
    part = 0
    for _ in range(int(rng.integers(1, 4))):
        part += 1 if rng.random() > 0.05 else -1
        lines.append(_numeral(layout, True, max(part, 1)))
        if rng.random() < 0.4:
            marker = layout.epigraph_marker
            lines.append(" " + marker if rng.random() < 0.2 else marker)
            lines += [_content(rng) for _ in range(int(rng.integers(0, 3)))]
            lines.append(_BLANKS[rng.integers(len(_BLANKS))])
            if rng.random() < 0.3:  # a second epigraph
                lines += [marker, _content(rng), _BLANKS[rng.integers(len(_BLANKS))]]
        stanza = 0
        for _ in range(int(rng.integers(1, 5))):
            if layout.stanza_numerals is not None:
                u = rng.random()
                stanza += 1 if u > 0.04 else -1
                if u > 0.9:
                    lines.append(
                        f"{_numeral(layout, False, max(stanza, 1))}. {stanza + 1}"
                        if layout.stanza_numerals == "arabic" else
                        f"{_numeral(layout, False, max(stanza, 1))} {format_roman(stanza + 1)}"
                    )
                    stanza += 1
                else:
                    lines.append(_numeral(layout, False, max(stanza, 1)))
            if rng.random() < 0.5:
                lines.append(_BLANKS[rng.integers(len(_BLANKS))])
            for _ in range(int(rng.integers(0, 5))):
                lines.append(
                    _BLANKS[rng.integers(len(_BLANKS))] if rng.random() < 0.1 else _content(rng)
                )
            lines.append(_BLANKS[rng.integers(len(_BLANKS))])
    ends = [_TERMINATORS[i] for i in rng.integers(0, len(_TERMINATORS), size=len(lines))]
    if rng.random() < 0.3:
        ends[-1] = ""
    return "".join(line + end for line, end in zip(lines, ends))


def _parse_both(text: str, layout: LayoutConfig, scheme):
    results = []
    for parse in (parse_corpus, parse_oracle.parse_corpus):
        try:
            results.append(parse(text, layout, scheme=scheme, source_id="g"))
        except ParseError as exc:
            results.append(exc)
    return results


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
def test_parse_matches_oracle(layout):
    outcomes = set()
    for seed in range(150):
        text = generated_text(seed, LAYOUTS[layout])
        scheme = SCHEMES[seed % len(SCHEMES)]
        new, old = _parse_both(text, LAYOUTS[layout], scheme)
        if isinstance(old, ParseError):
            assert isinstance(new, ParseError), text
            assert (str(new), new.byte_offset) == (str(old), old.byte_offset)
            outcomes.add(str(old).split(" (")[0].split(" header ")[0])
            continue
        assert new.to_dict() == old.to_dict(), text
        assert new.reconstruct() == old.reconstruct() == text
        # the line table that encoding reads agrees with the line objects
        lines = list(new.iter_lines(include_epigraphs=True))
        assert new.line_table[:, :3].tolist() == [list(row[:3]) for row in lines]
        assert [text[a:b] for a, b in new.line_table[:, 3:5].tolist()] == [
            line.text for *_, line in lines
        ]
        epigraph = {(p.index, s.index) for p in new.parts for s in p.stanzas if s.epigraph}
        assert new.line_table[:, 5].tolist() == [(pi, si) in epigraph for pi, si, *_ in lines]
        # and encoding it gives what walking the lines gives
        encoded, walked = (
            encode(new, scheme or RUSSIAN, "skip", include_epigraphs=seed % 4 < 2)
            for encode in (encode_text, textpath_oracle.encode_text)
        )
        assert np.array_equal(encoded.symbols, walked.symbols)
        assert np.array_equal(encoded.origin, walked.origin)
        outcomes.add("parsed")
    # the texts reach a clean parse and several kinds of fault
    assert "parsed" in outcomes and len(outcomes) >= 3, outcomes


@pytest.mark.parametrize("text", [
    "", "\n", "\r\n\r", "I", "I\r", "I\r\r\n", "\x85I\x85\n", "DIX\nVale\n",
    "I\n1\n²\n", "I\n\n@epigraph\n\n", "II\nI\n", "I\n1\n1\n", "I\n3. 2\nx\n",
    " 1.\r\nI\n", "Part 1\nSt. I\n", "I\n. 5\nx\n", "Canto\tI\nCantoII\n",
    "I\n@epigraph\nа\n@epigraph\nб\n\n1\nв\n",
])
@pytest.mark.parametrize("layout", sorted(LAYOUTS))
def test_parse_edge_texts_match_oracle(text, layout):
    new, old = _parse_both(text, LAYOUTS[layout], None)
    if isinstance(old, ParseError):
        assert (str(new), new.byte_offset) == (str(old), old.byte_offset)
    else:
        assert new.to_dict() == old.to_dict()
        assert new.reconstruct() == text


# ------------------------------------------------------------ pinned outputs

# sha256 of every output file, written by the per-line parser before the
# whole-text parse replaced it. The command line reads its inputs with
# universal newlines, so the CRLF files give the LF corpus (their outputs
# differ by the input digests they are stamped with); the in-process
# digests below keep the CRLF terminators.
PINS = {
    "lf": {
        "align/alignment.json":
            "9a9318ae6bac4cae9703d022b6d8588105b4a3954caeedb2cd5dcba58ab0566c",
        "align/manifest.json":
            "a038667a0b16844cef212b4bcab9445edc1ea5560586232d54d9b3a1527e4d0b",
        "parse/corpus.json":
            "3c79b4582302eebb6325cd9eab118a8274456a4804163c54a6970b68b3c04f2d",
        "parse/line_stats.csv":
            "77640aecf81346b01a9b5f755f10d5eaddce68f475668957e1c74772b9b61416",
        "parse/manifest.json":
            "e28a5cee54b3b9efbfccf988032c4a5df1f7f6f3d3d0c457a00c2bc1dbbe976c",
        "parse-ru/corpus.json":
            "621d29909e89acde005fa6b0230d32a3754021cfb794c1fc982f6e5e06d51772",
        "parse-ru/line_stats.csv":
            "f6a87c8c222d8d6932f9270f71bafb6d7874b71396bb34f7a61d853e94b39749",
        "parse-ru/manifest.json":
            "faef953f9ad2693b8eef791af88fa2283bedfaa372cf56929e04f807a9932130",
    },
    "crlf": {
        "align/alignment.json":
            "eb3e61110dc345ce5f85f1bbfc238552ee541cbf79bb6ae94a4f536563daf1fd",
        "align/manifest.json":
            "e2dd67254a7a28c39fe356af210bf7642a7ba31cb35a88c1cf1434e1dbceeb11",
        "parse/corpus.json":
            "108bb546e3cc70d0da0bddf530490ef0b02f9205a561b02ec39a83339bb53dd9",
        "parse/line_stats.csv":
            "4196f2fcad04e5cd3fb219fca3f1088d6d9840f270d1df2e0a35df164ca1b235",
        "parse/manifest.json":
            "7e442c09209808179dc994f122624e96f87e8f0b6f383b6e531d35155d496452",
        "parse-ru/corpus.json":
            "8bce7b543bce6b03ba2444da68407e2595384a2b60c75b6c4d08aadc4ad187f3",
        "parse-ru/line_stats.csv":
            "ec35f8a66c3a8a54fca91359020379864657dcaa26fd9a6aea41d36631c2c3ce",
        "parse-ru/manifest.json":
            "0ddc42a761ccb67c88e38c695b87b896c6a8883b1cd893671f62fb779c567f94",
    },
}

# sha256 of ``json.dumps(corpus.to_dict(), sort_keys=True, ensure_ascii=False)``
# for the test poem with its own terminators, parsed in process
CORPUS_PINS = {
    "lf": "7b4f0ef0079fb29505f40c74c874e3d2967578ced4e51284e8f2caec23a407bf",
    "crlf": "61f8fa8fb3836c79b8728ce93c16768a1e2b6d0b708fc2b2d70455ec9b507d3c",
}


def _texts(case: str) -> tuple[str, str]:
    poem, other = build_poem(), build_poem(n_parts=4, stanzas_per_part=12, seed=9)
    if case == "crlf":
        poem, other = poem.replace("\n", "\r\n"), other.replace("\n", "\r\n")
    return poem, other


@pytest.mark.parametrize("case", sorted(PINS))
def test_parse_and_align_outputs_are_pinned(case, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")
    poem, other = _texts(case)
    (tmp_path / "poem.txt").write_bytes(poem.encode("utf-8"))
    (tmp_path / "other.txt").write_bytes(other.encode("utf-8"))
    (tmp_path / "layout.json").write_text(
        json.dumps({"part_numerals": "roman", "stanza_numerals": "arabic"}), encoding="utf-8"
    )
    single = ["--input", "poem.txt", "--layout", "layout.json"]
    assert cli.main(["parse", *single, "--out", "parse"]) == 0
    assert cli.main(["parse", *single, "--scheme", "ru", "--out", "parse-ru"]) == 0
    assert cli.main([
        "align", "--reference", "poem.txt", "--other", "other.txt",
        "--reference-layout", "layout.json", "--other-layout", "layout.json",
        "--out", "align",
    ]) == 0
    digests = {}
    for command in ("parse", "parse-ru", "align"):
        for name in sorted(os.listdir(command)):
            with open(os.path.join(command, name), "rb") as fh:
                digests[f"{command}/{name}"] = hashlib.sha256(fh.read()).hexdigest()
    assert digests == PINS[case]


@pytest.mark.parametrize("case", sorted(CORPUS_PINS))
def test_corpus_dict_is_pinned(case):
    poem, _ = _texts(case)
    corpus = parse_corpus(poem, NUMBERED_LAYOUT, scheme=RUSSIAN, source_id="poem")
    text = json.dumps(corpus.to_dict(), sort_keys=True, ensure_ascii=False)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == CORPUS_PINS[case]
