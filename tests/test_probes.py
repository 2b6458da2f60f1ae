"""Trigram probes: scanning, ranking, trend tables, categories, names."""

import numpy as np
import pytest

from vcmarkov import LayoutConfig, RUSSIAN, parse_corpus
from vcmarkov.encoding import encode_text, segment_blocks
from vcmarkov.errors import DomainError
from vcmarkov.probes import (
    ALTERNATING_CLASSES,
    PERSISTENT_CLASSES,
    UNANNOTATED,
    UNCATEGORIZED,
    categorize_matches,
    context_key,
    load_annotation_csv,
    load_name_forms_csv,
    name_cooccurrence,
    pattern_kind,
    rank_letter_trigrams,
    scan_pattern_class,
    trigram_trend_table,
)

from textpath_oracle import Match, records, table


def corpus_of(body: str):
    return parse_corpus("I\n\n" + body + "\n", LayoutConfig(), source_id="t")


def scan(body: str, classes, **kw):
    """The scan's matches as records, every column read."""
    corpus = corpus_of(body)
    seq = encode_text(corpus, RUSSIAN)
    return records(scan_pattern_class(seq, corpus, classes, **kw))


# ------------------------------------------------------------ scanning


def test_scan_finds_known_trigrams():
    # старик в лесу -> CCVCVC C CVCV; CCC appears once at к-в-л
    matches = scan("старик в лесу", ["CCC"])
    assert len(matches) == 1
    m = matches[0]
    assert m.letters == "квл"
    assert m.vc_class == "CCC"
    assert m.context == "старик в лесу"
    assert not m.single_word
    assert m.position == 5


def test_scan_single_word_context():
    matches = scan("старик в лесу", ["CCV"])
    by_letters = {m.letters: m for m in matches}
    assert set(by_letters) == {"ста", "вле"}
    assert by_letters["ста"].single_word
    assert by_letters["ста"].context == "старик"
    assert not by_letters["вле"].single_word
    assert by_letters["вле"].context == "в лесу"


def test_scan_context_trims_punctuation():
    matches = scan("Вот старик, опять!", ["CCV"])
    contexts = {m.letters: m.context for m in matches}
    assert contexts["ста"] == "старик"


def test_scan_restores_excluded_characters():
    # ъ is dropped from the symbols but kept inside the lexical context
    matches = scan("съезд идёт", ["VCC"])
    assert any(m.context == "съезд" and m.letters == "езд" for m in matches)


def test_scan_folds_case():
    matches = scan("Стадо большое", ["CCV"])
    assert matches[0].letters == "ста"
    assert matches[0].context == "стадо"


def test_scan_spans_line_break():
    # trigram straddling two lines joins both line contexts
    matches = scan("поёт хор\nгромко тут", ["CCC"])
    assert any(" " in m.context and not m.single_word for m in matches)


def test_scan_location_fields():
    matches = scan("старик в лесу", ["CCC"])
    m = matches[0]
    assert (m.part_index, m.stanza_index, m.line_number) == (1, 1, 1)


def test_scan_block_index():
    corpus = corpus_of("старик в лесу стоит давно")
    seq = encode_text(corpus, RUSSIAN)
    seg = segment_blocks(len(seq), 5, keep_partial=True, min_partial=1)
    matches = records(scan_pattern_class(seq, corpus, ["CCV"], segmentation=seg))
    for m in matches:
        assert m.block_index == seg.block_of(m.position)
    plain = records(scan_pattern_class(seq, corpus, ["CCV"]))
    assert all(m.block_index == -1 for m in plain)


def test_scan_without_hits_is_an_empty_table():
    assert scan("старик", ["VVV"]) == []
    assert scan("старик", []) == []
    assert scan("да", ["CCV"]) == []


def test_scan_requires_origin():
    corpus = corpus_of("старик в лесу")
    from vcmarkov.encoding import SymbolSequence

    bare = SymbolSequence.from_string("CCVCVCCCVCV")
    with pytest.raises(DomainError):
        scan_pattern_class(bare, corpus, ["CCC"])


def test_scan_rejects_bad_class():
    corpus = corpus_of("старик")
    seq = encode_text(corpus, RUSSIAN)
    with pytest.raises(ValueError):
        scan_pattern_class(seq, corpus, ["CCCC"])


def test_pattern_kind():
    for c in PERSISTENT_CLASSES:
        assert pattern_kind(c) == "persistent"
    for c in ALTERNATING_CLASSES:
        assert pattern_kind(c) == "alternating"
    assert pattern_kind("VCV") == "other"


# ------------------------------------------------------------ ranking


def _match(letters, vc_class="CCV", block=0, context=None, single=True):
    return Match(
        letters=letters,
        vc_class=vc_class,
        context=context if context is not None else letters + "xx",
        part_index=1,
        stanza_index=1,
        line_number=1,
        single_word=single,
        block_index=block,
        position=0,
    )


def test_rank_letter_trigrams():
    matches = [_match("ста")] * 5 + [_match("при")] * 3 + [_match("вст")] * 2
    ranks = rank_letter_trigrams(table(matches))
    assert [(r.letters, r.count, r.zipf_rank) for r in ranks] == [
        ("ста", 5, 1), ("при", 3, 2), ("вст", 2, 3)
    ]
    assert ranks[0].share == pytest.approx(0.5)


def test_select_keeps_the_trigram_list():
    matches = [_match("ста", block=0), _match("при", block=1), _match("ста", block=2)]
    full = table(matches)
    by_mask = full.select(full.block != 1)
    assert records(by_mask) == [matches[0], matches[2]]
    assert list(by_mask.trigrams) == ["при", "ста"]
    assert records(full.select([2, 0])) == [matches[2], matches[0]]
    # a trigram left without matches drops out of the ranking
    assert [r.letters for r in rank_letter_trigrams(by_mask)] == ["ста"]


def test_rank_ties_break_lexicographically():
    matches = [_match("ббб")] * 2 + [_match("ааа")] * 2
    ranks = rank_letter_trigrams(table(matches))
    assert [(r.letters, r.zipf_rank) for r in ranks] == [("ааа", 1), ("ббб", 2)]


def test_rank_empty_rejected():
    with pytest.raises(ValueError):
        rank_letter_trigrams(table([]))


# ------------------------------------------------------------ trend table


def _fabricated(counts_by_letters, vc_class_by_letters, block_len=100, n_blocks=6):
    matches = []
    for letters, per_block in counts_by_letters.items():
        for b, k in enumerate(per_block):
            for _ in range(k):
                matches.append(
                    _match(letters, vc_class=vc_class_by_letters[letters], block=b)
                )
    seg = segment_blocks(block_len * n_blocks, block_len)
    return table(matches), seg


def test_trend_table_detects_monotone_trends():
    counts = {
        "ыйп": [12, 10, 8, 6, 4, 2],   # alternating, decreasing
        "еее": [1, 2, 4, 6, 8, 12],    # persistent, increasing
        "охо": [5, 5, 5, 5, 5, 5],     # constant: never a candidate
        "шум": [7, 3, 8, 2, 9, 4],     # no monotone trend
    }
    kinds = {"ыйп": "CCV", "еее": "VVV", "охо": "VCV", "шум": "CVC"}
    matches, seg = _fabricated(counts, kinds)
    table = trigram_trend_table(matches, seg, threshold=0.05)
    letters = [c.letters for c in table]
    assert set(letters) == {"ыйп", "еее"}
    by = {c.letters: c for c in table}
    assert by["ыйп"].direction == "decreasing"
    assert by["ыйп"].pattern_kind == "alternating"
    assert by["ыйп"].md_aligned
    assert by["еее"].direction == "increasing"
    assert by["еее"].pattern_kind == "persistent"
    assert by["еее"].md_aligned
    # monotone series over 6 blocks: exact two-sided p = 2/6!
    assert by["ыйп"].spearman_p == pytest.approx(2 / 720)
    assert by["ыйп"].series == pytest.approx(tuple(v / 98 for v in counts["ыйп"]))


def test_trend_table_misaligned_combination():
    counts = {"ааа": [12, 10, 8, 6, 4, 2]}   # persistent but decreasing
    matches, seg = _fabricated(counts, {"ааа": "VVV"})
    table = trigram_trend_table(matches, seg, threshold=0.05)
    assert len(table) == 1
    assert not table[0].md_aligned


def test_trend_table_threshold_filters():
    counts = {"ыйп": [12, 10, 8, 6, 4, 2]}
    matches, seg = _fabricated(counts, {"ыйп": "CCV"})
    assert trigram_trend_table(matches, seg, threshold=0.001) == []


def test_trend_table_needs_blocks():
    matches, _ = _fabricated({"ааа": [3, 2, 1]}, {"ааа": "VVV"}, n_blocks=3)
    seg2 = segment_blocks(200, 100)
    with pytest.raises(ValueError):
        trigram_trend_table(matches, seg2)


def test_trend_table_zipf_fields():
    counts = {
        "ыйп": [12, 10, 8, 6, 4, 2],
        "ббб": [20, 20, 20, 20, 20, 21],
    }
    kinds = {"ыйп": "CCV", "ббб": "CCC"}
    matches, seg = _fabricated(counts, kinds)
    table = trigram_trend_table(matches, seg, threshold=1.0)
    by = {c.letters: c for c in table}
    total = sum(sum(v) for v in counts.values())
    assert by["ббб"].zipf_rank == 1
    assert by["ыйп"].zipf_rank == 2
    assert by["ыйп"].share == pytest.approx(42 / total)


# ------------------------------------------------------------ annotations


def test_context_key_folds_and_trims():
    assert context_key("  СтАрик ") == context_key("старик")


def test_load_annotation_csv(tmp_path):
    path = tmp_path / "ann.csv"
    path.write_text(
        "context,lemma,category\n"
        "встал,встать,encounter\n"
        "на встречу,встреча,encounter\n"
        "вставая,,\n",
        encoding="utf-8",
    )
    annotations, categories = load_annotation_csv(str(path))
    assert annotations[context_key("встал")] == "встать"
    assert categories["встать"] == "encounter"
    # blank lemma rows stay annotation-only
    assert context_key("вставая") in annotations or "вставая" not in annotations


def test_load_annotation_csv_requires_context_column(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("word,lemma\nа,б\n", encoding="utf-8")
    with pytest.raises(Exception):
        load_annotation_csv(str(path))


def test_load_name_forms(tmp_path):
    path = tmp_path / "names.csv"
    path.write_text(
        "character,form\nOnegin,Онегин\nOnegin,Онегина\nTatyana,Татьяна\n",
        encoding="utf-8",
    )
    forms = load_name_forms_csv(str(path))
    assert forms["Onegin"] == {"онегин", "онегина"}
    assert forms["Tatyana"] == {"татьяна"}


def test_categorize_matches_conservation():
    seg = segment_blocks(600, 100)
    matches = [
        _match("вст", block=0, context="встал"),
        _match("вст", block=1, context="на встречу", single=False),
        _match("вст", block=2, context="вставка"),
        _match("вст", block=3, context="неизвестно"),
    ]
    annotations = {"встал": "встать", "на встречу": "встреча", "вставка": "вставка"}
    categories = {"встать": "encounter", "встреча": "encounter"}
    report = categorize_matches(table(matches), annotations, categories, seg)
    assert records(report.matches) == matches
    assert report.lemma.tolist() == ["встать", "встреча", "вставка", ""]
    assert report.category.tolist() == ["encounter", "encounter", UNCATEGORIZED, UNANNOTATED]
    assert sum(report.counts.values()) == 4
    assert report.counts["encounter"] == 2
    assert report.counts[UNCATEGORIZED] == 1
    assert report.counts[UNANNOTATED] == 1
    assert set(report.series) == {"encounter", "union", "all"}
    assert "encounter" in report.tests
    # encounter counts 1,1,0,0,0,0 over blocks scaled by windows
    assert report.series["encounter"][0] == pytest.approx(1 / 98)
    assert report.series["all"][3] == pytest.approx(1 / 98)


def test_categorize_matches_unannotated_only():
    seg = segment_blocks(300, 100)
    matches = [_match("вст", block=0, context="что-то")]
    report = categorize_matches(table(matches), {}, {}, seg)
    assert report.counts == {UNANNOTATED: 1}
    assert set(report.series) == {"union", "all"}


# ------------------------------------------------------------ name co-occurrence


def _name_fixture():
    text = (
        "I\n\n"
        "Онегин встал и вышел прочь\n"
        "Татьяна смотрит у окна\n"
        "\n"
        "Он встретил старого слугу\n"
        "И вспомнил прежние года\n"
        "\n"
        "Пустая комната молчит\n"
        "И тихо падает листва\n"
        "\n"
        "Онегин снова у дверей\n"
        "И встреча кончилась едва\n"
    )
    corpus = parse_corpus(text, LayoutConfig(), source_id="n")
    seq = encode_text(corpus, RUSSIAN)
    seg = segment_blocks(len(seq), 30, keep_partial=True, min_partial=1)
    matches = scan_pattern_class(seq, corpus, ["CCC"], segmentation=seg)
    vst = matches.select(matches.trigrams[matches.letter] == "вст")
    assert len(vst), "fixture must contain вст matches"
    annotations = {context: "встреча" for context in vst.context}
    categories = {"встреча": "encounter"}
    report = categorize_matches(vst, annotations, categories, seg)
    return corpus, report


def test_name_cooccurrence_counts():
    corpus, report = _name_fixture()
    forms = {"Onegin": {"онегин"}, "Tatyana": {"татьяна"}}
    res = name_cooccurrence(report, corpus, forms)
    assert res.total_name_mentions == 3
    # вст matches sit in stanzas 1, 2, and 4; stanzas 1 and 4 have names
    assert res.n_probe_stanzas == 3
    assert res.mentions_in_probe_stanzas == 3
    assert res.mention_cooccurrence_fraction == pytest.approx(1.0)
    assert res.n_probe_stanzas_thematic == 3
    assert res.thematic_categories == ("encounter",)


def test_name_cooccurrence_correlation_note_for_few_stanzas():
    corpus, report = _name_fixture()
    forms = {"Onegin": {"онегин"}}
    res = name_cooccurrence(report, corpus, forms)
    # three probe stanzas is the minimum; constant series may still bail out
    assert (res.correlation is not None) or res.correlation_note


def test_name_cooccurrence_requires_forms():
    corpus, report = _name_fixture()
    with pytest.raises(ValueError):
        name_cooccurrence(report, corpus, {})
