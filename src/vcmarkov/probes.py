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

A scan returns one :class:`MatchTable`: a numpy column per field, one
row per match, and no Python object per match. The lines the matches
touch are joined into one text, token bounds come from numpy searches
over its whitespace positions, and each distinct letter trigram and each
distinct context span becomes a string once. Strings are lower-cased
one by one after they are cut, never as a whole text, because
lower-casing can change a string's length ('İ' becomes two code points)
and would shift every offset after it. Ranking, trend, category and
co-occurrence tables read the columns directly: they group matches by
their trigram or context index and count blocks with ``np.bincount``.
"""

from __future__ import annotations

import csv
import io
from collections import Counter
from dataclasses import dataclass, fields
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


@dataclass(frozen=True, eq=False)
class MatchTable:
    """The matches of a scan as columns, one row per match in position order.

    ``trigrams`` holds the sorted distinct lower-cased letter trigrams and
    ``letter`` each match's index into them. ``vc_class`` is the class
    code (three bits, V = 1, the first letter highest; :data:`PATTERNS`
    names it). ``part``, ``stanza`` and ``line`` locate the window's first
    letter, ``single_word`` tells whether its three letters sit in one
    whitespace-delimited token, ``block`` is its block in the segmentation
    (-1 outside it, or without one) and ``position`` its first symbol.
    """

    trigrams: np.ndarray
    letter: np.ndarray
    vc_class: np.ndarray
    context: np.ndarray
    part: np.ndarray
    stanza: np.ndarray
    line: np.ndarray
    single_word: np.ndarray
    block: np.ndarray
    position: np.ndarray

    def __len__(self) -> int:
        return self.position.size

    def select(self, rows: np.ndarray) -> "MatchTable":
        """The matches a boolean mask or an index array picks; the trigram
        list stays whole, so a trigram may have no match left."""
        return MatchTable(self.trigrams, *(getattr(self, f.name)[rows] for f in fields(self)[1:]))


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


# the name of each class code, as an array that columns of codes index
PATTERNS = np.array(
    ["".join("V" if (code >> (2 - j)) & 1 else "C" for j in range(3)) for code in range(8)],
    dtype=object,
)


def scan_pattern_class(
    seq: SymbolSequence,
    corpus: Corpus,
    classes: Iterable[str],
    *,
    segmentation: Optional[BlockSegmentation] = None,
) -> MatchTable:
    """Every overlapping trigram window whose class is wanted, as one table.

    Every column is computed for all windows at once: the lines the
    sequence passes through are joined with newlines, each letter's token
    bounds come from the whitespace positions of that text, and each
    letter trigram and each context string is built and lower-cased once
    per distinct value.
    """
    if seq.origin is None:
        raise DomainError("probe scanning needs a sequence with an origin map")
    wanted = sorted({_class_code(c) for c in classes})
    x = seq.symbols.astype(np.int64)
    codes = (x[:-2] << 2) | (x[1:-1] << 1) | x[2:]
    hits = np.flatnonzero(np.isin(codes, wanted))

    # one run per line the sequence passes through, in text order
    where = seq.origin[:, :3]
    new_line = np.ones(x.size, dtype=bool)
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
        return _trim_nonletters(context).lower()

    contexts = np.array([finish(text) for text in span_text], dtype=object)[span_index[:, 0]]
    for k in np.flatnonzero(span_index[:, 0] != span_index[:, 2]).tolist():
        line_spans = dict.fromkeys(span_index[k].tolist())
        contexts[k] = finish(" ".join(span_text[i] for i in line_spans))

    # code points are below 2**21, so three of them pack into one int64
    cps = chars[char_at].astype(np.int64)
    packed, packed_index = np.unique(
        (cps[:, 0] << 42) | (cps[:, 1] << 21) | cps[:, 2], return_inverse=True
    )
    # trigrams that differ only in case lower to one string
    trigrams, lowered_index = np.unique(np.array([
        (chr(t >> 42) + chr((t >> 21) & 0x1FFFFF) + chr(t & 0x1FFFFF)).lower()
        for t in packed.tolist()
    ], dtype=object), return_inverse=True)

    if segmentation is None:
        blocks = np.full(hits.size, -1)
    else:
        blocks = np.where(
            hits < segmentation.covered,
            np.minimum(hits // segmentation.block_len, len(segmentation) - 1),
            -1,
        )
    return MatchTable(
        trigrams, lowered_index[packed_index], codes[hits], contexts, *where[hits].T,
        single_word, blocks, hits,
    )


@dataclass(frozen=True)
class TrigramRank:
    letters: str
    count: int
    share: float
    zipf_rank: int


def _block_counts(
    groups: np.ndarray, blocks: np.ndarray, n_groups: int, n_blocks: int
) -> np.ndarray:
    """(n_groups, n_blocks) table counting each (group, block) pair; a
    negative block (outside the segmentation) is not counted."""
    inside = blocks >= 0
    flat = np.bincount(groups[inside] * n_blocks + blocks[inside], minlength=n_groups * n_blocks)
    return flat.reshape(n_groups, n_blocks).astype(float)


def rank_letter_trigrams(matches: MatchTable) -> list[TrigramRank]:
    """Frequency table of letter trigrams over the scanned match family.

    Shares divide by the total number of matches passed in; ranks are
    positional after sorting by descending count with lexicographic
    tie-breaking. Trigrams without a match are left out.
    """
    if not len(matches):
        raise ValueError("rank_letter_trigrams needs at least one match")
    counts = np.bincount(matches.letter, minlength=len(matches.trigrams))
    present = np.flatnonzero(counts)
    # the trigrams are sorted, so a stable sort keeps ties lexicographic
    order = present[np.argsort(-counts[present], kind="stable")].tolist()
    total = len(matches)
    counts = counts.tolist()
    return [
        TrigramRank(
            letters=matches.trigrams[i], count=counts[i], share=counts[i] / total, zipf_rank=r + 1
        )
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
    matches: MatchTable,
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
    if not len(matches):
        return []
    ranks = {r.letters: r for r in rank_letter_trigrams(matches)}
    n_blocks = len(segmentation)
    series = _block_counts(matches.letter, matches.block, len(matches.trigrams), n_blocks)
    series /= _window_counts(segmentation)
    # a trigram takes the class of its first match
    present, first = np.unique(matches.letter, return_index=True)
    first_class = dict(zip(present.tolist(), PATTERNS[matches.vc_class[first]].tolist()))
    positions = np.arange(1, n_blocks + 1, dtype=float)
    candidates = []
    # a constant series carries no trend
    for i in np.flatnonzero(np.any(series != series[:, :1], axis=1)).tolist():
        result = spearman_test(positions, series[i])
        if result.p_value >= threshold:
            continue
        direction = "increasing" if result.rho > 0 else "decreasing"
        letters = matches.trigrams[i]
        vc_class = first_class[i]
        kind = pattern_kind(vc_class)
        aligned = (kind == "persistent" and direction == "increasing") or (
            kind == "alternating" and direction == "decreasing"
        )
        rank = ranks[letters]
        candidates.append(
            ProbeCandidate(
                letters=letters,
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
class TrendTest:
    result: Optional[SpearmanResult]
    note: Optional[str] = None


@dataclass
class CategoryReport:
    """The labeled matches: ``lemma`` and ``category`` are columns over
    the rows of ``matches`` (lemma "" for an unannotated context)."""

    matches: MatchTable
    lemma: np.ndarray
    category: np.ndarray
    counts: dict[str, int]
    series: dict[str, np.ndarray]
    tests: dict[str, TrendTest]


def categorize_matches(
    matches: MatchTable,
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
    contexts, index = np.unique(matches.context, return_inverse=True)
    lemmas = []
    labels = []
    for context in contexts.tolist():
        key = context_key(context)
        lemma = ann.get(key)
        if lemma is None:
            lemmas.append("")
            labels.append(UNANNOTATED)
        else:
            lemmas.append(lemma)
            labels.append(cat.get(lemma.casefold(), cat.get(key)) or UNCATEGORIZED)
    match_labels = np.array(labels, dtype=object)[index]
    counts = dict(Counter(match_labels.tolist()))

    n_blocks = len(segmentation)
    windows = _window_counts(segmentation)
    positions = np.arange(1, n_blocks + 1, dtype=float)
    real_categories = sorted(set(counts) - {UNANNOTATED, UNCATEGORIZED})
    # one row per real category, then one for the unannotated and uncategorized
    row_of = {label: r for r, label in enumerate(real_categories)}
    rows = np.array([row_of.get(label, len(real_categories)) for label in labels], np.intp)
    raw = _block_counts(rows[index], matches.block, len(real_categories) + 1, n_blocks)
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
    return CategoryReport(
        matches=matches, lemma=np.array(lemmas, dtype=object)[index],
        category=match_labels, counts=counts, series=series, tests=tests,
    )


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
    report: CategoryReport,
    corpus: Corpus,
    name_forms: Union[Mapping[str, Iterable[str]], Sequence[Iterable[str]]],
    *,
    include_epigraphs: bool = False,
) -> CooccurrenceReport:
    """Relate probe locations to character-name mentions, stanza by stanza.

    Name mentions are case-folded whole-word hits of any supplied surface
    form. Thematic matches are the labeled matches that carry a real
    category. The correlation is computed over stanzas holding at least
    one probe match; when it cannot be computed (fewer than 3 such
    stanzas, or a constant side) the report says why instead of failing.
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

    # one key per (part, stanza), in their sort order; epigraph stanzas
    # have indices down from 0
    matches = report.matches
    low = matches.stanza.min(initial=0)
    stride = matches.stanza.max(initial=0) - low + 1
    keys, stanza_of = np.unique(
        matches.part.astype(np.int64) * stride + (matches.stanza - low), return_inverse=True
    )
    parts, stanzas = np.divmod(keys, stride)
    probe_stanzas = list(zip(parts.tolist(), (stanzas + low).tolist()))
    thematic = (report.category != UNANNOTATED) & (report.category != UNCATEGORIZED)
    thematic_counts = np.bincount(stanza_of[thematic], minlength=len(keys))
    mentions_in_probe = sum(mentions.get(k, 0) for k in probe_stanzas)
    n_thematic_stanzas = int(np.count_nonzero(thematic_counts))

    correlation: Optional[SpearmanResult] = None
    note: Optional[str] = None
    if len(probe_stanzas) < 3:
        note = f"only {len(probe_stanzas)} probe-bearing stanzas; need at least 3"
    else:
        x = [mentions.get(k, 0) for k in probe_stanzas]
        try:
            correlation = spearman_test(x, thematic_counts.tolist())
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
        thematic_categories=tuple(sorted(set(report.counts) - {UNANNOTATED, UNCATEGORIZED})),
    )
