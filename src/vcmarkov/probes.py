"""Trigram probe mining: scan V/C classes, recover lexical contexts,
rank trigrams, test blockwise trends, attach categories, and relate
probe locations to character-name mentions.

Matching runs on the encoded sequence, where excluded characters are
already gone, so a trigram can span a word or line boundary. The origin
map carries matches back into the source text: the context is the span
bounded by the nearest whitespace around the matched letters (joined
with single spaces when the letters sit on several lines), with
non-letter characters trimmed from its ends. Characters that were
excluded from the encoding, hard and soft signs and apostrophes among
them, reappear inside the context because the context is cut from the
raw line.

Scanning works on whole columns rather than one match at a time: the
lines the matches touch are joined into one text, token bounds come from
numpy searches over its whitespace positions, and each distinct letter
trigram and each distinct context span becomes a string once. Strings
are lower-cased one by one after they are cut, never as a whole text,
because lower-casing can change a string's length ('İ' becomes two code
points) and would shift every offset after it. Ranking, trend and
category tables group matches by their distinct values and count blocks
with ``np.bincount``.
"""

from __future__ import annotations

import csv
import io
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence, Union

import numpy as np

from .corpus import Corpus, char_lookup, code_points, read_text_file, tokenize_words
from .encoding import BlockSegmentation, SymbolSequence
from .errors import DomainError
from .stats import SpearmanResult, spearman_test

PERSISTENT_CLASSES = ("VVV", "CCC")
ALTERNATING_CLASSES = ("VVC", "CCV")

_CLASS_LABELS = {"VVV": "persistent", "CCC": "persistent",
                 "VVC": "alternating", "CCV": "alternating"}

UNANNOTATED = "unannotated"
UNCATEGORIZED = "uncategorized"


@dataclass(frozen=True)
class ProbeMatch:
    letters: str
    vc_class: str
    context: str
    part_index: int
    stanza_index: int
    line_number: int
    single_word: bool
    block_index: int
    position: int

    @property
    def location(self) -> tuple[int, int, int]:
        return (self.part_index, self.stanza_index, self.line_number)


def pattern_kind(vc_class: str) -> str:
    return _CLASS_LABELS.get(vc_class, "other")


def _class_code(vc_class: str) -> int:
    if len(vc_class) != 3 or set(vc_class) - {"V", "C"}:
        raise ValueError(f"a trigram class is three V/C letters, got {vc_class!r}")
    code = 0
    for ch in vc_class:
        code = (code << 1) | (ch == "V")
    return code


def _trim_nonletters(s: str) -> str:
    start = 0
    end = len(s)
    while start < end and not s[start].isalpha():
        start += 1
    while end > start and not s[end - 1].isalpha():
        end -= 1
    return s[start:end]


_PATTERNS = tuple(
    "".join("V" if (code >> (2 - j)) & 1 else "C" for j in range(3)) for code in range(8)
)


def scan_pattern_class(
    seq: SymbolSequence,
    corpus: Corpus,
    classes: Iterable[str],
    *,
    segmentation: Optional[BlockSegmentation] = None,
    fold_case: bool = True,
) -> list[ProbeMatch]:
    """One ProbeMatch per overlapping trigram window whose class is wanted.

    ``block_index`` comes from the segmentation (or -1 without one, and -1
    for windows outside its coverage). ``single_word`` is true when all
    three letters sit inside one whitespace-delimited token.

    Every field is computed for all windows at once: the lines the
    sequence passes through are joined with newlines, each letter's token
    bounds come from the whitespace positions of that text, and each
    letter trigram and each context string is built once per distinct
    value.
    """
    if seq.origin is None:
        raise DomainError("probe scanning needs a sequence with an origin map")
    wanted = {_class_code(c) for c in classes}
    if not wanted:
        return []
    x = seq.symbols
    n = x.size
    if n < 3:
        return []
    codes = (x[: n - 2].astype(np.int64) << 2) | (x[1 : n - 1].astype(np.int64) << 1) | x[2:]
    hits = np.flatnonzero(np.isin(codes, sorted(wanted)))
    if hits.size == 0:
        return []

    # one run per line the sequence passes through, in text order
    where = seq.origin[:, :3]
    new_line = np.ones(n, dtype=bool)
    new_line[1:] = np.any(where[1:] != where[:-1], axis=1)
    run = np.cumsum(new_line, dtype=np.int32) - 1
    texts = [
        corpus.stanza_at(part, stanza).lines[lineno - 1].text
        for part, stanza, lineno in where[new_line].tolist()
    ]
    # newlines between the lines end every token at its line's end
    joined = "\n".join(texts)
    strides = np.fromiter(map(len, texts), dtype=np.int64, count=len(texts)) + 1
    run_start = np.cumsum(strides) - strides

    window = hits[:, None] + np.arange(3)
    runs = run[window]
    char_at = run_start[runs] + seq.origin[window, 3]
    del run, window
    chars = code_points(joined)
    spaces = np.concatenate(
        ([-1], np.flatnonzero(char_lookup(chars, str.isspace, dtype=bool)), [len(joined)])
    )
    # a letter's token runs from after the last whitespace before it to the
    # first whitespace after it
    before = np.searchsorted(spaces, char_at, side="left")
    after = np.searchsorted(spaces, char_at, side="right")
    same_line = runs[:, 1:] == runs[:, :-1]
    single_word = same_line.all(axis=1) & (after[:, 2] == before[:, 0])

    # the context joins one span per line the window touches, from the
    # token start of its first letter there to the token end of its last
    first = spaces[before - 1] + 1
    last = spaces[after]
    first[:, 1] = np.where(same_line[:, 0], first[:, 0], first[:, 1])
    first[:, 2] = np.where(same_line[:, 1], first[:, 1], first[:, 2])
    last[:, 1] = np.where(same_line[:, 1], last[:, 2], last[:, 1])
    last[:, 0] = np.where(same_line[:, 0], last[:, 1], last[:, 0])
    stride = len(joined) + 1
    spans, span_index = np.unique(first * stride + last, return_inverse=True)
    span_text = [joined[a:b] for a, b in zip(*np.divmod(spans, stride))]
    span_index = span_index.reshape(-1, 3)
    del first, last, before, after

    def finish(context: str) -> str:
        context = _trim_nonletters(context)
        return context.lower() if fold_case else context

    contexts = np.array([finish(text) for text in span_text], dtype=object)[span_index[:, 0]]
    for k in np.flatnonzero(span_index[:, 0] != span_index[:, 2]).tolist():
        line_spans = dict.fromkeys(span_index[k].tolist())
        contexts[k] = finish(" ".join(span_text[i] for i in line_spans))

    # code points are below 2**21, so three of them pack into one int64
    cps = chars[char_at].astype(np.int64)
    trigrams, trigram_index = np.unique(
        (cps[:, 0] << 42) | (cps[:, 1] << 21) | cps[:, 2], return_inverse=True
    )
    letters = [
        chr(t >> 42) + chr((t >> 21) & 0x1FFFFF) + chr(t & 0x1FFFFF) for t in trigrams.tolist()
    ]
    if fold_case:
        letters = [s.lower() for s in letters]

    if segmentation is None:
        blocks = np.full(hits.size, -1)
    else:
        blocks = np.where(
            hits < segmentation.covered,
            np.minimum(hits // segmentation.block_len, len(segmentation) - 1),
            -1,
        )
    part, stanza, lineno = where[hits].T.tolist()
    return list(map(
        ProbeMatch,
        [letters[i] for i in trigram_index.tolist()],
        [_PATTERNS[c] for c in codes[hits].tolist()],
        contexts.tolist(),
        part,
        stanza,
        lineno,
        single_word.tolist(),
        blocks.tolist(),
        hits.tolist(),
    ))


@dataclass(frozen=True)
class TrigramRank:
    letters: str
    count: int
    share: float
    zipf_rank: int


def _factorize(values: Sequence[str]) -> tuple[list[str], np.ndarray]:
    """Sorted distinct values, and the index of each value among them."""
    distinct = sorted(set(values))
    position = {v: i for i, v in enumerate(distinct)}
    return distinct, np.fromiter(map(position.__getitem__, values), np.intp, len(values))


def _block_counts(
    groups: np.ndarray, blocks: np.ndarray, n_groups: int, n_blocks: int
) -> np.ndarray:
    """(n_groups, n_blocks) table counting each (group, block) pair; a
    negative block (outside the segmentation) is not counted."""
    inside = blocks >= 0
    flat = np.bincount(groups[inside] * n_blocks + blocks[inside], minlength=n_groups * n_blocks)
    return flat.reshape(n_groups, n_blocks).astype(float)


def _block_indices(matches: Sequence[ProbeMatch]) -> np.ndarray:
    return np.fromiter((m.block_index for m in matches), np.intp, len(matches))


def rank_letter_trigrams(matches: Sequence[ProbeMatch]) -> list[TrigramRank]:
    """Frequency table of letter trigrams over the scanned match family.

    Shares divide by the total number of matches passed in; ranks are
    positional after sorting by descending count with lexicographic
    tie-breaking.
    """
    if not matches:
        raise ValueError("rank_letter_trigrams needs at least one match")
    letters, index = _factorize([m.letters for m in matches])
    counts = np.bincount(index, minlength=len(letters))
    total = len(matches)
    # the distinct letters are sorted, so a stable sort keeps ties lexicographic
    order = np.argsort(-counts, kind="stable").tolist()
    counts = counts.tolist()
    return [
        TrigramRank(letters=letters[i], count=counts[i], share=counts[i] / total, zipf_rank=r + 1)
        for r, i in enumerate(order)
    ]


@dataclass(frozen=True)
class ProbeCandidate:
    letters: str
    vc_class: str
    pattern_kind: str
    direction: str
    spearman_rho: float
    spearman_p: float
    zipf_rank: int
    share: float
    md_aligned: bool
    series: tuple[float, ...]


def _window_counts(segmentation: BlockSegmentation, order: int = 3) -> np.ndarray:
    return np.array(
        [max(length - order + 1, 1) for length in segmentation.lengths], dtype=float
    )


def trigram_trend_table(
    matches: Sequence[ProbeMatch],
    segmentation: BlockSegmentation,
    *,
    threshold: float = 0.05,
) -> list[ProbeCandidate]:
    """Letter trigrams whose blockwise relative frequency trends with
    position at significance below ``threshold``.

    The per-block series divides match counts by the number of trigram
    windows in the block. Direction is the sign of the Spearman rho, and
    ``md_aligned`` flags the combinations that point the same way as a
    declining memory depth: persistent trigrams rising or alternating
    trigrams falling. Trigrams with a constant series carry no trend and
    are never candidates.
    """
    if len(segmentation) < 3:
        raise ValueError("trend testing needs at least 3 blocks")
    if not matches:
        return []
    ranks = {r.letters: r for r in rank_letter_trigrams(matches)}
    n_blocks = len(segmentation)
    letters, index = _factorize([m.letters for m in matches])
    series = _block_counts(index, _block_indices(matches), len(letters), n_blocks)
    series /= _window_counts(segmentation)
    first = np.unique(index, return_index=True)[1].tolist()
    positions = np.arange(1, n_blocks + 1, dtype=float)
    candidates = []
    # a constant series carries no trend
    for i in np.flatnonzero(np.any(series != series[:, :1], axis=1)).tolist():
        result = spearman_test(positions, series[i])
        if result.p_value >= threshold:
            continue
        direction = "increasing" if result.rho > 0 else "decreasing"
        vc_class = matches[first[i]].vc_class
        kind = pattern_kind(vc_class)
        aligned = (kind == "persistent" and direction == "increasing") or (
            kind == "alternating" and direction == "decreasing"
        )
        rank = ranks[letters[i]]
        candidates.append(
            ProbeCandidate(
                letters=letters[i],
                vc_class=vc_class,
                pattern_kind=kind,
                direction=direction,
                spearman_rho=result.rho,
                spearman_p=result.p_value,
                zipf_rank=rank.zipf_rank,
                share=rank.share,
                md_aligned=aligned,
                series=tuple(series[i].tolist()),
            )
        )
    candidates.sort(key=lambda c: (c.spearman_p, c.letters))
    return candidates


def context_key(context: str) -> str:
    """Normalization applied to contexts before annotation lookup."""
    return _trim_nonletters(context).casefold()


def load_annotation_csv(path: str) -> tuple[dict[str, str], dict[str, str]]:
    """Read a (context, lemma[, category]) CSV.

    Returns (annotations, categories): context key to lemma, and form key
    (lemma or context) to category for rows that carry one.
    """
    annotations: dict[str, str] = {}
    categories: dict[str, str] = {}
    with io.StringIO(read_text_file(path, newline=""), newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or "context" not in reader.fieldnames:
            raise ValueError(f"{path}: expected a header with a 'context' column")
        has_lemma = "lemma" in (reader.fieldnames or [])
        has_category = "category" in (reader.fieldnames or [])
        for row in reader:
            key = context_key(row["context"])
            if not key:
                continue
            lemma = (row.get("lemma") or "").strip() if has_lemma else ""
            if lemma:
                annotations[key] = lemma
            category = (row.get("category") or "").strip() if has_category else ""
            if category:
                categories[(lemma or key).casefold()] = category
    return annotations, categories


def load_name_forms_csv(path: str) -> dict[str, set[str]]:
    """Read a (character, form) CSV into per-character surface-form sets."""
    forms: dict[str, set[str]] = {}
    with io.StringIO(read_text_file(path, newline=""), newline="") as fh:
        reader = csv.DictReader(fh)
        needed = {"character", "form"}
        if reader.fieldnames is None or not needed <= set(reader.fieldnames):
            raise ValueError(f"{path}: expected a header with 'character' and 'form'")
        for row in reader:
            name = (row["character"] or "").strip()
            form = (row["form"] or "").strip().casefold()
            if name and form:
                forms.setdefault(name, set()).add(form)
    return forms


@dataclass(frozen=True)
class LabeledMatch:
    match: ProbeMatch
    lemma: Optional[str]
    category: str


@dataclass(frozen=True)
class TrendTest:
    result: Optional[SpearmanResult]
    note: Optional[str] = None


@dataclass
class CategoryReport:
    labeled: list[LabeledMatch]
    counts: dict[str, int]
    series: dict[str, np.ndarray]
    tests: dict[str, TrendTest]


def categorize_matches(
    matches: Sequence[ProbeMatch],
    annotations: Mapping[str, str],
    categories: Mapping[str, str],
    segmentation: BlockSegmentation,
) -> CategoryReport:
    """Label matches with lemma and category, and test per-category trends.

    A context missing from the annotation table is labeled "unannotated";
    an annotated context whose lemma (or context) has no category becomes
    "uncategorized". Neither is dropped, so label counts always sum to the
    input count. Trend tests cover each category, the union of all real
    categories ("union"), and every input match ("all"); a test that
    cannot run reports its reason instead of a result.
    """
    ann = {context_key(k): v for k, v in annotations.items()}
    cat = {str(k).casefold(): v for k, v in categories.items()}
    contexts, index = _factorize([m.context for m in matches])
    lemmas = []
    labels = []
    for context in contexts:
        key = context_key(context)
        lemma = ann.get(key)
        lemmas.append(lemma)
        if lemma is None:
            labels.append(UNANNOTATED)
        else:
            labels.append(cat.get(lemma.casefold(), cat.get(key)) or UNCATEGORIZED)
    at = index.tolist()
    match_labels = [labels[i] for i in at]
    labeled = list(map(LabeledMatch, matches, [lemmas[i] for i in at], match_labels))
    counts = dict(Counter(match_labels))

    n_blocks = len(segmentation)
    windows = _window_counts(segmentation)
    positions = np.arange(1, n_blocks + 1, dtype=float)
    real_categories = sorted(set(counts) - {UNANNOTATED, UNCATEGORIZED})
    # one row per real category, then one for the unannotated and uncategorized
    row_of = {label: r for r, label in enumerate(real_categories)}
    rows = np.array([row_of.get(label, len(real_categories)) for label in labels], np.intp)
    raw = _block_counts(
        rows[index], _block_indices(matches), len(real_categories) + 1, n_blocks
    )
    series: dict[str, np.ndarray] = {
        label: raw[r] / windows for r, label in enumerate(real_categories)
    }
    series["union"] = raw[:-1].sum(axis=0) / windows
    series["all"] = raw.sum(axis=0) / windows

    tests: dict[str, TrendTest] = {}
    for label, values in series.items():
        try:
            tests[label] = TrendTest(result=spearman_test(positions, values))
        except (DomainError, ValueError) as exc:
            tests[label] = TrendTest(result=None, note=str(exc))
    return CategoryReport(labeled=labeled, counts=counts, series=series, tests=tests)


@dataclass(frozen=True)
class CooccurrenceReport:
    total_name_mentions: int
    mentions_in_probe_stanzas: int
    mention_cooccurrence_fraction: float
    n_probe_stanzas: int
    n_probe_stanzas_thematic: int
    thematic_stanza_fraction: float
    correlation: Optional[SpearmanResult]
    correlation_note: Optional[str]
    thematic_categories: tuple[str, ...]
    definition: str = (
        "correlation of per-stanza name-mention counts against per-stanza "
        "thematic-match counts over probe-bearing stanzas"
    )


def name_cooccurrence(
    labeled_matches: Sequence[LabeledMatch],
    corpus: Corpus,
    name_forms: Union[Mapping[str, Iterable[str]], Sequence[Iterable[str]]],
    *,
    thematic_categories: Optional[Iterable[str]] = None,
    include_epigraphs: bool = False,
) -> CooccurrenceReport:
    """Relate probe locations to character-name mentions, stanza by stanza.

    Name mentions are case-folded whole-word hits of any supplied surface
    form. The correlation is computed over stanzas holding at least one
    probe match; when it cannot be computed (fewer than 3 such stanzas, or
    a constant side) the report says why instead of failing.
    """
    if isinstance(name_forms, Mapping):
        form_sets = list(name_forms.values())
    else:
        form_sets = list(name_forms)
    all_forms: set[str] = set()
    for fs in form_sets:
        all_forms.update(str(f).casefold() for f in fs)
    if not all_forms:
        raise ValueError("name_forms is empty: no surface forms to look for")

    if thematic_categories is None:
        thematic = {
            lm.category
            for lm in labeled_matches
            if lm.category not in (UNANNOTATED, UNCATEGORIZED)
        }
    else:
        thematic = set(thematic_categories)

    # a stanza's lines are tokenized together: the newlines between them
    # separate words as the line ends did
    stanza_lines: dict[tuple[int, int], list[str]] = {}
    for pi, si, _, line in corpus.iter_lines(include_epigraphs=include_epigraphs):
        stanza_lines.setdefault((pi, si), []).append(line.text)
    mentions: dict[tuple[int, int], int] = {}
    total_mentions = 0
    for key, texts in stanza_lines.items():
        hits = sum(1 for w in tokenize_words("\n".join(texts)) if w.casefold() in all_forms)
        if hits:
            mentions[key] = hits
            total_mentions += hits

    probe_counts: dict[tuple[int, int], int] = {}
    thematic_counts: dict[tuple[int, int], int] = {}
    for lm in labeled_matches:
        key = (lm.match.part_index, lm.match.stanza_index)
        probe_counts[key] = probe_counts.get(key, 0) + 1
        if lm.category in thematic:
            thematic_counts[key] = thematic_counts.get(key, 0) + 1

    probe_stanzas = sorted(probe_counts)
    mentions_in_probe = sum(mentions.get(k, 0) for k in probe_stanzas)
    n_thematic_stanzas = sum(1 for k in probe_stanzas if thematic_counts.get(k, 0) > 0)

    correlation: Optional[SpearmanResult] = None
    note: Optional[str] = None
    if len(probe_stanzas) < 3:
        note = f"only {len(probe_stanzas)} probe-bearing stanzas; need at least 3"
    else:
        x = [mentions.get(k, 0) for k in probe_stanzas]
        y = [thematic_counts.get(k, 0) for k in probe_stanzas]
        try:
            correlation = spearman_test(x, y)
        except DomainError as exc:
            note = str(exc)

    return CooccurrenceReport(
        total_name_mentions=total_mentions,
        mentions_in_probe_stanzas=mentions_in_probe,
        mention_cooccurrence_fraction=(
            mentions_in_probe / total_mentions if total_mentions else 0.0
        ),
        n_probe_stanzas=len(probe_stanzas),
        n_probe_stanzas_thematic=n_thematic_stanzas,
        thematic_stanza_fraction=(
            n_thematic_stanzas / len(probe_stanzas) if probe_stanzas else 0.0
        ),
        correlation=correlation,
        correlation_note=note,
        thematic_categories=tuple(sorted(thematic)),
    )
