"""Corpus parsing: headers, stanzas, lossless reconstruction, alignment."""

import pytest

from vcmarkov import LayoutConfig, RUSSIAN, align_corpora, parse_corpus
from vcmarkov.corpus import (
    extract_latin_tokens,
    line_statistics,
    load_layout,
    parse_roman,
    tokenize_words,
)
from vcmarkov.errors import ParseError

from poems import NUMBERED_LAYOUT, build_poem, format_roman


# ------------------------------------------------------------ roman numerals


@pytest.mark.parametrize(
    "text,value",
    [("I", 1), ("IV", 4), ("IX", 9), ("XIV", 14), ("XL", 40), ("XC", 90),
     ("CXXIII", 123), ("MMXXIV", 2024)],
)
def test_parse_roman(text, value):
    assert parse_roman(text) == value


@pytest.mark.parametrize("bad", ["", "IIII", "VV", "IC", "ABC", "i v"])
def test_parse_roman_rejects(bad):
    assert parse_roman(bad) is None


@pytest.mark.parametrize("n", list(range(1, 200)))
def test_roman_roundtrip(n):
    assert parse_roman(format_roman(n)) == n


# ------------------------------------------------------------ word counting


def test_tokenize_words_strips_punctuation():
    assert tokenize_words("Мой дядя, самых честных!") == [
        "Мой", "дядя", "самых", "честных"
    ]


def count_words(text: str) -> int:
    """Number of words under the :func:`tokenize_words` convention: the
    oracle for the word totals ``parse_corpus`` keeps per line."""
    return len(tokenize_words(text))


def test_line_word_counts_match_count_words(poem_corpus):
    extra = parse_corpus(
        "I\n\nall'antica, кто-нибудь — да!\n«Мой дядя» самых… честных\n\n\tи тут .\n",
        LayoutConfig(), source_id="w",
    )
    for corpus in (poem_corpus, extra):
        for *_, line in corpus.iter_lines(include_epigraphs=True):
            assert line.word_count == count_words(line.text)
    assert [line.word_count for *_, line in extra.iter_lines()] == [5, 4, 2]


def test_count_words_hyphen_and_apostrophe():
    # dashes and apostrophes are punctuation, so they split words
    assert count_words("all'antica") == 2
    assert count_words("кто-нибудь") == 2
    assert count_words("") == 0


# ------------------------------------------------------------ structure


def test_poem_structure(poem_corpus):
    assert len(poem_corpus.parts) == 3
    assert [p.index for p in poem_corpus.parts] == [1, 2, 3]
    # part 1 carries an epigraph stanza at index 0 plus 14 numbered stanzas
    first = poem_corpus.parts[0]
    assert first.stanzas[0].epigraph
    assert first.stanzas[0].index == 0
    assert [s.index for s in first.stanzas[1:]] == list(range(1, 15))


def test_fused_stanza_header(poem_corpus):
    part3 = poem_corpus.parts[2]
    fused = [s for s in part3.stanzas if s.fused]
    assert len(fused) == 1
    assert fused[0].index == 4
    # numbering resumes after the fused pair
    indices = [s.index for s in part3.stanzas]
    assert 5 not in indices
    assert 6 in indices


def test_placeholder_stanza(poem_corpus):
    part2 = poem_corpus.parts[1]
    ph = part2.stanzas[4]
    assert ph.index == 5
    assert ph.dotted_placeholder


def test_lossless_reconstruction(poem_text, poem_layout):
    corpus = parse_corpus(poem_text, poem_layout, source_id="p")
    assert corpus.reconstruct() == poem_text


def test_lossless_reconstruction_crlf(poem_layout):
    text = build_poem(n_parts=1, stanzas_per_part=3).replace("\n", "\r\n")
    corpus = parse_corpus(text, poem_layout, source_id="p")
    assert corpus.reconstruct() == text


def test_iter_lines_skips_epigraph_by_default(poem_corpus):
    refs = {(pi, si) for pi, si, _, _ in poem_corpus.iter_lines()}
    assert (1, 0) not in refs
    refs_all = {(pi, si) for pi, si, _, _ in poem_corpus.iter_lines(include_epigraphs=True)}
    assert (1, 0) in refs_all


def test_blank_line_stanza_mode():
    text = "I\n\nПервый стих\nВторой стих\n\nТретий стих\nЧетвёртый стих\n"
    corpus = parse_corpus(text, LayoutConfig(), source_id="p")
    part = corpus.parts[0]
    assert [s.index for s in part.stanzas] == [1, 2]
    assert len(part.stanzas[0].lines) == 2


def test_epigraph_in_blank_line_mode():
    text = "I\n\n@epigraph\nЦитата тут\n\nПервый стих\n"
    corpus = parse_corpus(text, LayoutConfig(), source_id="p")
    part = corpus.parts[0]
    assert part.stanzas[0].epigraph
    assert part.stanzas[1].index == 1


def test_stanza_numbers_must_increase():
    text = "I\n\n2\n\nСтрока тут\n\n1\n\nЕщё строка\n"
    with pytest.raises(ParseError):
        parse_corpus(text, NUMBERED_LAYOUT, source_id="p")


def test_part_numbers_must_increase():
    text = "II\n\nСтрока тут\n\nI\n\nЕщё строка\n"
    with pytest.raises(ParseError):
        parse_corpus(text, LayoutConfig(), source_id="p")


def test_text_before_part_header_rejected():
    with pytest.raises(ParseError) as err:
        parse_corpus("Строка без части\n", LayoutConfig(), source_id="p")
    assert err.value.byte_offset == 0


def test_empty_input_rejected():
    with pytest.raises(ParseError):
        parse_corpus("", LayoutConfig(), source_id="p")
    with pytest.raises(ParseError):
        parse_corpus("\n\n\n", LayoutConfig(), source_id="p")


def test_content_requires_stanza_header_in_numbered_mode():
    text = "I\n\nСтрока без номера\n"
    with pytest.raises(ParseError):
        parse_corpus(text, NUMBERED_LAYOUT, source_id="p")


def test_byte_offsets_are_utf8():
    # "I\n\n1\n\n" is 6 bytes; the Cyrillic line after it starts at byte 6
    text = "I\n\n1\n\nСтрока\n\n0\n"
    with pytest.raises(ParseError) as err:
        parse_corpus(text, NUMBERED_LAYOUT, source_id="p")
    # offending header "0" sits after a 12-byte Cyrillic word plus newlines
    assert err.value.byte_offset == 6 + 12 + 2


def test_stanza_char_counts_use_scheme(poem_layout):
    text = "I\n\n1\n\nОбъём строки!\n"
    corpus = parse_corpus(text, poem_layout, scheme=RUSSIAN, source_id="p")
    line = corpus.parts[0].stanzas[0].lines[0]
    # hard sign, space, and punctuation do not count as letters
    assert line.char_count == 10
    assert line.word_count == 2


# ------------------------------------------------------------ line stats


def test_line_statistics(poem_corpus):
    stats = line_statistics(poem_corpus)
    assert stats.n_lines > 100
    assert 5 < stats.mean_chars < 40
    assert 2 < stats.mean_words < 8
    assert stats.sd_chars > 0


def test_line_statistics_excludes_placeholders(poem_corpus):
    with_ph = line_statistics(poem_corpus, include_placeholders=True)
    without = line_statistics(poem_corpus)
    assert with_ph.n_lines == without.n_lines + 1


# ------------------------------------------------------------ layout config


def test_layout_roundtrip(tmp_path):
    layout = LayoutConfig(part_prefix="ГЛАВА", part_numerals="roman",
                          stanza_numerals="arabic")
    path = tmp_path / "layout.json"
    path.write_text(__import__("json").dumps(layout.to_dict()), encoding="utf-8")
    again = load_layout(str(path))
    assert again == layout


def test_layout_rejects_indistinguishable_headers():
    with pytest.raises(ValueError):
        LayoutConfig(part_numerals="roman", stanza_numerals="roman")


def test_layout_part_prefix():
    text = "Canto I\n\nNel mezzo del cammin\n"
    layout = LayoutConfig(part_prefix="Canto")
    corpus = parse_corpus(text, layout, source_id="p")
    assert corpus.parts[0].index == 1
    # the prefix must be its own token
    text2 = "CantoI\n\nNel mezzo del cammin\n"
    with pytest.raises(ParseError):
        parse_corpus(text2, layout, source_id="p")


# ------------------------------------------------------------ alignment


def test_align_corpora(poem_layout):
    a = parse_corpus(build_poem(seed=1), poem_layout, source_id="a")
    b = parse_corpus(build_poem(seed=2), poem_layout, source_id="b")
    aligned = align_corpora(a, b)
    assert len(aligned.pairs) == a.n_stanzas == b.n_stanzas
    assert not aligned.unmatched


def test_align_reports_unmatched(poem_layout):
    a = parse_corpus(build_poem(seed=1), poem_layout, source_id="a")
    b = parse_corpus(build_poem(seed=2, n_parts=2), poem_layout, source_id="b")
    aligned = align_corpora(a, b)
    assert aligned.unmatched
    sides = {ref.source_id for ref, _ in aligned.unmatched}
    assert sides == {"a"}


# ------------------------------------------------------------ latin tokens


def test_extract_latin_tokens(poem_layout):
    text = "I\n\n1\n\nОн думал: madame, вот vale,\nИ дальше andiamo прямо тут\n"
    corpus = parse_corpus(text, poem_layout, source_id="p")
    report = extract_latin_tokens(corpus, min_len=4)
    tokens = [t.token for t in report.tokens]
    assert tokens == ["madame", "vale", "andiamo"]
    assert report.per_part[0].token_count == 3
    assert report.per_part[0].per_1000_words == pytest.approx(
        3 / report.per_part[0].word_count * 1000
    )


def test_latin_tokens_min_len(poem_layout):
    text = "I\n\n1\n\nВот et cetera опять\n"
    corpus = parse_corpus(text, poem_layout, source_id="p")
    report = extract_latin_tokens(corpus, min_len=4)
    assert [t.token for t in report.tokens] == ["cetera"]
