"""Command line interface.

Subcommands mirror the analysis stages: parse, align, encode, profile,
bootstrap, acf, simulate, regress, probe, plus a `surrogate` wrapper
that reruns any other subcommand on subblock-shuffled sequences. Every
run writes its outputs atomically into one directory together with a
manifest.json; data files are stamped with the manifest hash. Outputs
are plot-ready tables, not plots.

Exit codes: 0 success, 2 usage error, 3 data error (malformed inputs),
4 numeric/domain error (poles, degenerate estimates).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import sys
from dataclasses import dataclass, replace
from itertools import repeat
from typing import Optional, Sequence

import numpy as np

from .corpus import (
    LayoutConfig,
    align_corpora,
    extract_latin_tokens,
    line_statistics,
    load_layout,
    parse_corpus,
    read_text_file,
)
from .encoding import origin_rows
from .errors import DataError, DomainError
from .manifest import OutputSet, build_manifest
from .pipeline import (
    ACF_COLUMNS,
    ENSEMBLE_COLUMNS,
    INTERVAL_COLUMNS,
    LJUNG_BOX_COLUMNS,
    PROFILE_COLUMNS,
    REPLICATE_COLUMNS,
    LoadedSource,
    acf_blocks,
    blocks_by_label,
    bootstrap_blocks,
    load_source,
    md_parameter_correlations,
    profile_rows,
    simulation_ensemble,
)
from .probes import (
    ALTERNATING_CLASSES,
    PATTERNS,
    PERSISTENT_CLASSES,
    categorize_matches,
    load_annotation_csv,
    load_name_forms_csv,
    name_cooccurrence,
    rank_letter_trigrams,
    scan_pattern_class,
    trigram_trend_table,
)
from .resample import STREAM_SURROGATE, MbbConfig, derived_rng, make_surrogate
from .schemes import load_scheme
from .stats import (
    bootstrap_model_coefficients,
    fit_interaction_model,
    regression_rows_from_blocks,
)

OUTPUT_DIR_ENV = "VCMARKOV_OUTPUT_DIR"
DEFAULT_CLASSES = ",".join(PERSISTENT_CLASSES + ALTERNATING_CLASSES)


@dataclass
class SurrogateSpec:
    seed: int
    subblock_len: int
    apply_to: Optional[set[str]]

    def applies(self, label: str) -> bool:
        return self.apply_to is None or label in self.apply_to

    def config(self) -> dict:
        return {
            "seed": self.seed,
            "subblock_len": self.subblock_len,
            "apply_to": sorted(self.apply_to) if self.apply_to is not None else None,
        }


@dataclass
class RunContext:
    surrogate: Optional[SurrogateSpec] = None


def _read_text(path: str) -> str:
    return read_text_file(path, encoding="utf-8-sig")


def _resolve_layout(path: Optional[str]) -> LayoutConfig:
    return load_layout(path) if path else LayoutConfig()


def _resolve_scheme(name_or_path: Optional[str]):
    return load_scheme(name_or_path or "ru")


def _out_dir(args) -> str:
    if args.out:
        return args.out
    env = os.environ.get(OUTPUT_DIR_ENV)
    if env:
        return env
    return "vcmarkov-out"


def _load_single(args, ctx: RunContext) -> LoadedSource:
    label = args.source_id or os.path.splitext(os.path.basename(args.input))[0]
    return _load_labeled(
        args, ctx, args.input, label,
        _resolve_layout(args.layout), _resolve_scheme(args.scheme),
    )


def _load_labeled(
    args, ctx: RunContext, path: str, label: str, layout: LayoutConfig, scheme,
    *, source_index: int = 0,
) -> LoadedSource:
    """Load one source with the block options of ``args``; under the
    surrogate wrapper, shuffle it if its label is selected."""
    src = load_source(
        _read_text(path),
        layout,
        scheme,
        label=label,
        block_len=args.block_len,
        keep_partial=args.keep_partial,
        min_partial=args.min_partial,
        unknown_policy=args.unknown,
        include_epigraphs=args.include_epigraphs,
    )
    if ctx.surrogate and ctx.surrogate.applies(label):
        seq = make_surrogate(
            src.sequence,
            ctx.surrogate.subblock_len,
            derived_rng(ctx.surrogate.seed, STREAM_SURROGATE, source_index),
        )
        src = replace(src, sequence=seq)
    return src


def _manifest_for(ctx: RunContext, command: str, config: dict, inputs, schemes, seeds):
    cfg = dict(config)
    if ctx.surrogate:
        cfg["surrogate"] = ctx.surrogate.config()
        command = "surrogate " + command
    return build_manifest(command, cfg, inputs, seeds, schemes)


@contextlib.contextmanager
def _outputs(args, manifest):
    out = OutputSet(_out_dir(args), manifest)
    try:
        yield out
        out.write_manifest()
    except BaseException:
        out.discard_all()
        raise


def _mbb_config(args) -> MbbConfig:
    return MbbConfig(args.block_len, args.subblock_len, args.replicates, master_seed=args.seed)


# ---------------------------------------------------------------- commands


def cmd_parse(args, ctx: RunContext) -> None:
    layout = _resolve_layout(args.layout)
    scheme = _resolve_scheme(args.scheme) if args.scheme else None
    label = args.source_id or os.path.splitext(os.path.basename(args.input))[0]
    corpus = parse_corpus(_read_text(args.input), layout, scheme=scheme, source_id=label)
    stats = line_statistics(corpus)
    inputs = [args.input] + ([args.layout] if args.layout else [])
    manifest = _manifest_for(
        ctx, "parse",
        {"layout": args.layout, "scheme": args.scheme, "source_id": label},
        inputs, {label: scheme.to_dict() if scheme else None}, {},
    )
    with _outputs(args, manifest) as out:
        out.write_json("corpus.json", {"corpus": corpus.to_dict()})
        out.write_csv(
            "line_stats.csv",
            ("source", "n_lines", "mean_chars", "sd_chars", "mean_words", "sd_words"),
            [(label, stats.n_lines, stats.mean_chars, stats.sd_chars,
              stats.mean_words, stats.sd_words)],
        )


def cmd_align(args, ctx: RunContext) -> None:
    ref = parse_corpus(
        _read_text(args.reference), _resolve_layout(args.reference_layout),
        source_id=args.reference_id,
    )
    other = parse_corpus(
        _read_text(args.other), _resolve_layout(args.other_layout),
        source_id=args.other_id,
    )
    aligned = align_corpora(ref, other)
    inputs = [args.reference, args.other]
    inputs += [p for p in (args.reference_layout, args.other_layout) if p]
    manifest = _manifest_for(
        ctx, "align",
        {"reference": args.reference_id, "other": args.other_id},
        inputs, {}, {},
    )
    with _outputs(args, manifest) as out:
        out.write_json("alignment.json", {
            "n_pairs": len(aligned.pairs),
            "n_unmatched": len(aligned.unmatched),
            "pairs": [
                {
                    "reference": {"part": a.part_index, "stanza": a.stanza_index},
                    "other": {"part": b.part_index, "stanza": b.stanza_index},
                }
                for a, b in aligned.pairs
            ],
            "unmatched": [
                {
                    "source": r.source_id,
                    "part": r.part_index,
                    "stanza": r.stanza_index,
                    "reason": reason,
                }
                for r, reason in aligned.unmatched
            ],
        })


def _single_manifest(args, ctx: RunContext, src: LoadedSource, extra_inputs=()):
    """Manifest of a single-source command: its parsed options, input files
    and scheme; ``--seed``, where the command has one, is the master seed."""
    config = vars(args).copy()
    command = config.pop("command")
    del config["out"]
    seeds = {"master_seed": config.pop("seed")} if "seed" in config else {}
    inputs = [p for p in (args.input, args.layout) if p]
    if args.scheme and os.path.exists(args.scheme):
        inputs.append(args.scheme)
    return _manifest_for(
        ctx, command, config, inputs + list(extra_inputs),
        {src.label: src.scheme.to_dict()}, seeds,
    )


def cmd_encode(args, ctx: RunContext) -> None:
    src = _load_single(args, ctx)
    manifest = _single_manifest(args, ctx, src)
    with _outputs(args, manifest) as out:
        out.write_text("sequence.txt", src.sequence.to_string())
        out.write_csv(
            "origins.csv",
            ("symbol_index", "part", "stanza", "line", "offset"),
            origin_rows(src.sequence),
        )


def cmd_profile(args, ctx: RunContext) -> None:
    src = _load_single(args, ctx)
    rows = profile_rows(src, which_cf=args.which_cf)
    corr_rows = None
    n_controls = 1 if args.control_set == "block" else 0
    if len(src.segmentation) >= 3 + n_controls:
        corr_rows = md_parameter_correlations(rows, control_set=args.control_set)
    else:
        print(
            f"warning: only {len(src.segmentation)} blocks; "
            "skipping md correlations", file=sys.stderr,
        )
    manifest = _single_manifest(args, ctx, src)
    with _outputs(args, manifest) as out:
        out.write_csv("blocks.csv", PROFILE_COLUMNS, rows)
        if corr_rows is not None:
            out.write_csv(
                "correlations.csv",
                ("source", "variable", "rho", "p_value", "n", "method", "controls"),
                corr_rows,
            )


def cmd_bootstrap(args, ctx: RunContext) -> None:
    src = _load_single(args, ctx)
    replicates, intervals = bootstrap_blocks(
        src, _mbb_config(args), level=args.level, which_cf=args.which_cf
    )
    with _outputs(args, _single_manifest(args, ctx, src)) as out:
        out.write_csv("replicates.csv", REPLICATE_COLUMNS, replicates)
        out.write_csv("intervals.csv", INTERVAL_COLUMNS, intervals)


def cmd_acf(args, ctx: RunContext) -> None:
    src = _load_single(args, ctx)
    acf_rows, lb_rows = acf_blocks(
        src, _mbb_config(args), max_lag=args.max_lag, ci_lags=args.ci_lags,
        lb_h=args.lb_lag, level=args.level,
    )
    with _outputs(args, _single_manifest(args, ctx, src)) as out:
        out.write_csv("acf.csv", ACF_COLUMNS, acf_rows)
        out.write_csv("ljung_box.csv", LJUNG_BOX_COLUMNS, lb_rows)


def cmd_simulate(args, ctx: RunContext) -> None:
    # no text has a block 0: say so before reading any input
    if args.model_block < 1:
        raise ValueError("--model-block is 1-based and must be >= 1")
    src = _load_single(args, ctx)
    rows, summary = simulation_ensemble(
        src,
        n_simulations=args.ensemble,
        sim_length=args.sim_length,
        master_seed=args.seed,
        model_block=args.model_block,
        which_cf=args.which_cf,
        level=args.level,
    )
    with _outputs(args, _single_manifest(args, ctx, src)) as out:
        out.write_csv("ensemble.csv", ENSEMBLE_COLUMNS, rows)
        out.write_json("simulation.json", summary)


def _parse_labeled(values: Optional[Sequence[str]], flag: str) -> dict[str, str]:
    table: dict[str, str] = {}
    for item in values or []:
        if "=" not in item:
            raise ValueError(f"{flag} expects LABEL=VALUE, got {item!r}")
        label, value = item.split("=", 1)
        if not label or not value:
            raise ValueError(f"{flag} expects LABEL=VALUE, got {item!r}")
        if label in table:
            raise ValueError(f"{flag}: duplicate label {label!r}")
        table[label] = value
    return table


def _read_profile_blocks(path: str) -> list[tuple[int, float]]:
    """Read (block, md) pairs from a blocks.csv written by `profile`."""
    import csv as _csv

    with io.StringIO(read_text_file(path, newline=""), newline="") as fh:
        rows = [line for line in fh if not line.startswith("#")]
    reader = _csv.DictReader(rows)
    if reader.fieldnames is None or not {"block", "md"} <= set(reader.fieldnames):
        raise DataError(f"{path}: expected a blocks.csv with 'block' and 'md' columns")
    out = []
    for rec in reader:
        try:
            out.append((int(rec["block"]), float(rec["md"])))
        except (TypeError, ValueError) as exc:
            raise DataError(f"{path}: bad block row {rec!r}: {exc}") from exc
    if not out:
        raise DataError(f"{path}: no block rows")
    return out


def _write_regression(out: OutputSet, fit, rows) -> None:
    """regression.json and md_blocks.csv of an interaction fit on the
    (md, block, label) ``rows``; a bootstrapped fit adds its intervals, its
    level and coefficients.csv."""
    coefficients = {name: {"estimate": value} for name, value in fit.coefficients.items()}
    payload = {
        "baseline": fit.baseline,
        "treatment": fit.treatment,
        "n_rows": fit.n,
        "r_squared": fit.r_squared,
        "coefficients": coefficients,
    }
    if fit.bootstrap is not None:
        payload["level"] = fit.bootstrap["intercept"].interval.level
        for name, boot in fit.bootstrap.items():
            coefficients[name].update(
                bootstrap_mean=boot.mean, lo=boot.interval.lo, hi=boot.interval.hi
            )
        out.write_csv(
            "coefficients.csv", ("coefficient", "replicate", "value"),
            [(name, r, value) for name, boot in fit.bootstrap.items()
             for r, value in enumerate(boot.samples.tolist())],
        )
    out.write_json("regression.json", payload)
    out.write_csv(
        "md_blocks.csv", ("source", "block", "md"),
        [(label, int(block), md) for md, block, label in rows],
    )


def cmd_regress_blocks(args, ctx: RunContext) -> None:
    """Point fit from previously written profile tables, no resampling."""
    tables = _parse_labeled(args.blocks, "--blocks")
    if len(tables) < 2:
        raise ValueError("regress needs at least two --blocks LABEL=PATH entries")
    rows = []
    for label in sorted(tables):
        for block, md in _read_profile_blocks(tables[label]):
            rows.append((md, block, label))
    fit = fit_interaction_model(rows, baseline=args.baseline)
    manifest = _manifest_for(
        ctx, "regress",
        {"blocks": tables, "baseline": fit.baseline, "which_cf": args.which_cf},
        list(tables.values()), {}, {},
    )
    with _outputs(args, manifest) as out:
        _write_regression(out, fit, rows)


def cmd_regress(args, ctx: RunContext) -> None:
    if args.blocks:
        if args.source:
            raise ValueError("--blocks and --source are mutually exclusive")
        cmd_regress_blocks(args, ctx)
        return
    sources = _parse_labeled(args.source, "--source")
    if len(sources) < 2:
        raise ValueError("regress needs at least two --source LABEL=PATH entries")
    layouts = _parse_labeled(args.layout, "--layout")
    schemes = _parse_labeled(args.scheme_map, "--scheme-map")
    loaded: list[LoadedSource] = []
    inputs: list[str] = []
    for idx, label in enumerate(sorted(sources)):
        scheme = _resolve_scheme(schemes.get(label, args.scheme))
        loaded.append(_load_labeled(
            args, ctx, sources[label], label, _resolve_layout(layouts.get(label)),
            scheme, source_index=idx,
        ))
        inputs.append(sources[label])
        if layouts.get(label):
            inputs.append(layouts[label])
    blocks = blocks_by_label(loaded)
    rows = regression_rows_from_blocks(blocks, args.which_cf)
    fit = bootstrap_model_coefficients(
        blocks, rows, _mbb_config(args), level=args.level, which_cf=args.which_cf,
        baseline=args.baseline,
    )
    manifest = _manifest_for(
        ctx, "regress",
        {
            "sources": sources, "layouts": layouts, "scheme_map": schemes,
            "scheme": args.scheme, "baseline": fit.baseline,
            "block_len": args.block_len, "subblock_len": args.subblock_len,
            "replicates": args.replicates, "keep_partial": args.keep_partial,
            "min_partial": args.min_partial, "level": args.level,
            "which_cf": args.which_cf, "unknown": args.unknown,
            "include_epigraphs": args.include_epigraphs,
        },
        inputs, {src.label: src.scheme.to_dict() for src in loaded}, {"master_seed": args.seed},
    )
    with _outputs(args, manifest) as out:
        _write_regression(out, fit, rows)


def cmd_probe(args, ctx: RunContext) -> None:
    if args.names and not args.annotations:
        raise ValueError("--names requires --annotations (categories define themes)")
    src = _load_single(args, ctx)
    matches = scan_pattern_class(
        src.sequence, src.corpus, args.classes, segmentation=src.segmentation
    )
    class_counts = dict(zip(PATTERNS, np.bincount(matches.vc_class, minlength=8).tolist()))
    candidates = None
    if len(matches) and len(src.segmentation) >= 3:
        candidates = trigram_trend_table(
            matches, src.segmentation, threshold=args.threshold
        )
    elif len(matches):
        print("warning: fewer than 3 blocks; skipping trend table", file=sys.stderr)
    token_report = extract_latin_tokens(
        src.corpus, min_len=args.latin_min_len,
        include_epigraphs=args.include_epigraphs,
    )
    keep = np.ones(len(matches), dtype=bool)
    if args.letters:
        keep &= (matches.trigrams == args.letters)[matches.letter]
    if not args.include_multiword:
        keep &= matches.single_word
    category_report = None
    cooccurrence = None
    if args.annotations:
        annotations, categories = load_annotation_csv(args.annotations)
        category_report = categorize_matches(
            matches.select(keep), annotations, categories, src.segmentation
        )
        if args.names:
            name_forms = load_name_forms_csv(args.names)
            cooccurrence = name_cooccurrence(
                category_report, src.corpus, name_forms,
                include_epigraphs=args.include_epigraphs,
            )
    manifest = _single_manifest(
        args, ctx, src, extra_inputs=[p for p in (args.annotations, args.names) if p]
    )
    with _outputs(args, manifest) as out:
        out.write_csv(
            "class_totals.csv",
            ("source", "vc_class", "count"),
            [(src.label, c, class_counts[c]) for c in sorted(set(args.classes))],
        )
        out.write_csv(
            "matches.csv",
            ("source", "letters", "vc_class", "context", "part", "stanza", "line",
             "single_word", "block", "position"),
            zip(repeat(src.label), matches.trigrams[matches.letter].tolist(),
                PATTERNS[matches.vc_class].tolist(), matches.context.tolist(),
                matches.part.tolist(), matches.stanza.tolist(), matches.line.tolist(),
                matches.single_word.tolist(), (matches.block + 1).tolist(),
                matches.position.tolist()),
        )
        if len(matches):
            out.write_csv(
                "trigram_ranks.csv",
                ("source", "letters", "count", "share", "zipf_rank"),
                [(src.label, r.letters, r.count, r.share, r.zipf_rank)
                 for r in rank_letter_trigrams(matches)],
            )
        if candidates is not None:
            out.write_csv(
                "candidates.csv",
                ("source", "letters", "vc_class", "pattern_kind", "direction",
                 "spearman_rho", "spearman_p", "zipf_rank", "share", "md_aligned"),
                [(src.label, c.letters, c.vc_class, c.pattern_kind, c.direction,
                  c.spearman_rho, c.spearman_p, c.zipf_rank, c.share, c.md_aligned)
                 for c in candidates],
            )
        out.write_csv(
            "latin_tokens.csv",
            ("source", "token", "part", "stanza", "line"),
            [(src.label, t.token, t.part_index, t.stanza_index, t.line_number)
             for t in token_report.tokens],
        )
        out.write_csv(
            "latin_density.csv",
            ("source", "part", "token_count", "word_count", "per_1000_words"),
            [(src.label, d.part_index, d.token_count, d.word_count, d.per_1000_words)
             for d in token_report.per_part],
        )
        if category_report is not None:
            out.write_csv(
                "category_counts.csv",
                ("source", "category", "count"),
                [(src.label, label, category_report.counts[label])
                 for label in sorted(category_report.counts)],
            )
            trend_rows = []
            for label in sorted(category_report.tests):
                test = category_report.tests[label]
                if test.result is not None:
                    trend_rows.append((
                        src.label, label, test.result.rho, test.result.p_value,
                        test.result.n, test.result.method, "",
                    ))
                else:
                    trend_rows.append((src.label, label, "", "", "", "", test.note))
            out.write_csv(
                "category_trends.csv",
                ("source", "category", "rho", "p_value", "n_blocks", "method", "note"),
                trend_rows,
            )
            labeled = category_report.matches
            out.write_csv(
                "labeled_matches.csv",
                ("source", "letters", "context", "lemma", "category", "part",
                 "stanza", "line", "block"),
                zip(repeat(src.label), labeled.trigrams[labeled.letter].tolist(),
                    labeled.context.tolist(), category_report.lemma.tolist(),
                    category_report.category.tolist(), labeled.part.tolist(),
                    labeled.stanza.tolist(), labeled.line.tolist(),
                    (labeled.block + 1).tolist()),
            )
        if cooccurrence is not None:
            corr = cooccurrence.correlation
            out.write_json("cooccurrence.json", {
                "source": src.label,
                "total_name_mentions": cooccurrence.total_name_mentions,
                "mentions_in_probe_stanzas": cooccurrence.mentions_in_probe_stanzas,
                "mention_cooccurrence_fraction": cooccurrence.mention_cooccurrence_fraction,
                "n_probe_stanzas": cooccurrence.n_probe_stanzas,
                "n_probe_stanzas_thematic": cooccurrence.n_probe_stanzas_thematic,
                "thematic_stanza_fraction": cooccurrence.thematic_stanza_fraction,
                "thematic_categories": list(cooccurrence.thematic_categories),
                "definition": cooccurrence.definition,
                "correlation": None if corr is None else {
                    "rho": corr.rho, "p_value": corr.p_value, "n": corr.n,
                    "method": corr.method,
                },
                "correlation_note": cooccurrence.correlation_note,
            })


# ---------------------------------------------------------------- parser


def _class_list(text: str) -> list[str]:
    return [c.strip().upper() for c in text.split(",") if c.strip()]


def _add_out(p):
    p.add_argument(
        "--out", default=None,
        help=f"output directory (default: ${OUTPUT_DIR_ENV} or ./vcmarkov-out)",
    )


def _add_single_source(p):
    p.add_argument("--input", required=True, help="path to the corpus text file")
    p.add_argument("--layout", default=None, help="layout JSON (default: bare layout)")
    p.add_argument("--source-id", default=None, help="label for this source")
    _add_encoding(p)


def _add_encoding(p):
    p.add_argument(
        "--scheme", default="ru", help="scheme name (ru, it) or path to a scheme JSON"
    )
    p.add_argument(
        "--unknown", choices=("error", "skip"), default="error",
        help="policy for letters outside the scheme",
    )
    p.add_argument(
        "--include-epigraphs", action="store_true",
        help="keep epigraph stanzas in the encoded sequence",
    )


def _add_blocks(p):
    p.add_argument("--block-len", type=int, default=10_000)
    p.add_argument(
        "--keep-partial", action=argparse.BooleanOptionalAction, default=True,
        help="keep a final partial block",
    )
    p.add_argument(
        "--min-partial", type=int, default=None,
        help="minimum symbols for the partial block (default: block-len // 2)",
    )


def _add_mbb(p):
    p.add_argument("--subblock-len", type=int, default=250)
    p.add_argument("--replicates", type=int, default=1_000)
    p.add_argument("--seed", type=int, default=0, help="master seed")
    p.add_argument("--level", type=float, default=0.95, help="interval level")


def _add_which_cf(p):
    p.add_argument("--which-cf", choices=("simple", "complex"), default="complex")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vcmarkov",
        description="Vowel/consonant Markov statistics for structured corpora",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="parse a corpus and emit its JSON structure")
    p.add_argument("--input", required=True)
    p.add_argument("--layout", default=None)
    p.add_argument("--scheme", default=None, help="scheme for per-line letter counts")
    p.add_argument("--source-id", default=None)
    _add_out(p)

    p = sub.add_parser("align", help="pair stanzas of two corpora by part and index")
    p.add_argument("--reference", required=True)
    p.add_argument("--other", required=True)
    p.add_argument("--reference-layout", default=None)
    p.add_argument("--other-layout", default=None)
    p.add_argument("--reference-id", default="reference")
    p.add_argument("--other-id", default="other")
    _add_out(p)

    p = sub.add_parser("encode", help="emit the V/C sequence and its origin map")
    _add_single_source(p)
    _add_blocks(p)
    _add_out(p)

    p = sub.add_parser("profile", help="per-block model parameters and dispersion")
    _add_single_source(p)
    _add_blocks(p)
    _add_which_cf(p)
    p.add_argument(
        "--control-set", choices=("block", "none"), default="block",
        help="controls for the md/parameter partial correlations",
    )
    _add_out(p)

    p = sub.add_parser("bootstrap", help="MBB replicate distributions per block")
    _add_single_source(p)
    _add_blocks(p)
    _add_mbb(p)
    _add_which_cf(p)
    _add_out(p)

    p = sub.add_parser("acf", help="per-block ACF, Ljung-Box, and MBB bands")
    _add_single_source(p)
    _add_blocks(p)
    _add_mbb(p)
    p.add_argument("--max-lag", type=int, default=10)
    p.add_argument("--ci-lags", type=int, default=5)
    p.add_argument("--lb-lag", type=int, default=10)
    _add_out(p)

    p = sub.add_parser("simulate", help="ensemble from a fitted block's chain")
    _add_single_source(p)
    _add_blocks(p)
    p.add_argument("--ensemble", type=int, default=500)
    p.add_argument("--sim-length", type=int, default=10_000)
    p.add_argument("--model-block", type=int, default=1, help="1-based block to fit")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--level", type=float, default=0.95)
    _add_which_cf(p)
    _add_out(p)

    p = sub.add_parser("regress", help="md ~ block * source with bootstrap intervals")
    p.add_argument(
        "--source", action="append", metavar="LABEL=PATH", default=None,
        help="repeatable; exactly two sources",
    )
    p.add_argument(
        "--blocks", action="append", metavar="LABEL=PATH", default=None,
        help="repeatable; blocks.csv files from `profile` (point fit, no bootstrap)",
    )
    p.add_argument("--layout", action="append", metavar="LABEL=PATH", default=None)
    p.add_argument(
        "--scheme-map", action="append", metavar="LABEL=SCHEME", default=None,
        help="per-source scheme; falls back to --scheme",
    )
    p.add_argument("--baseline", default=None, help="baseline source label")
    _add_encoding(p)
    _add_blocks(p)
    _add_mbb(p)
    _add_which_cf(p)
    _add_out(p)

    p = sub.add_parser("probe", help="trigram scan, ranks, trends, categories, names")
    _add_single_source(p)
    _add_blocks(p)
    p.add_argument("--classes", type=_class_list, default=DEFAULT_CLASSES)
    p.add_argument("--threshold", type=float, default=0.05)
    p.add_argument("--letters", default=None, help="restrict categorization to one trigram")
    p.add_argument(
        "--include-multiword", action="store_true",
        help="categorize multi-word contexts too (default: single-word only)",
    )
    p.add_argument("--annotations", default=None, help="context,lemma,category CSV")
    p.add_argument("--names", default=None, help="character,form CSV")
    p.add_argument("--latin-min-len", type=int, default=4)
    _add_out(p)

    p = sub.add_parser(
        "surrogate",
        help="rerun any subcommand on subblock-shuffled surrogate sequences",
    )
    p.add_argument("--surrogate-seed", type=int, default=0)
    p.add_argument("--surrogate-subblock-len", type=int, default=250)
    p.add_argument(
        "--apply-to", action="append", default=None, metavar="LABEL",
        help="shuffle only these source labels (default: all)",
    )
    p.add_argument("wrapped", nargs=argparse.REMAINDER, metavar="COMMAND ...")

    return parser


_DISPATCH = {
    "parse": cmd_parse,
    "align": cmd_align,
    "encode": cmd_encode,
    "profile": cmd_profile,
    "bootstrap": cmd_bootstrap,
    "acf": cmd_acf,
    "simulate": cmd_simulate,
    "regress": cmd_regress,
    "probe": cmd_probe,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    ctx = RunContext()
    if args.command == "surrogate":
        if not args.wrapped:
            parser.error("surrogate: missing wrapped command")
        if args.wrapped[0] == "surrogate":
            parser.error("surrogate: cannot wrap itself")
        ctx.surrogate = SurrogateSpec(
            seed=args.surrogate_seed,
            subblock_len=args.surrogate_subblock_len,
            apply_to=set(args.apply_to) if args.apply_to else None,
        )
        args = parser.parse_args(args.wrapped)
    # --min-partial defaults to half of --block-len
    if getattr(args, "min_partial", 0) is None:
        args.min_partial = max(args.block_len // 2, 1)
    try:
        _DISPATCH[args.command](args, ctx)
    except (DataError, OSError, json.JSONDecodeError) as exc:
        print(f"error [data]: {exc}", file=sys.stderr)
        return 3
    except DomainError as exc:
        print(f"error [domain]: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:
        print(f"error [usage]: {exc}", file=sys.stderr)
        return 2
    return 0


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
