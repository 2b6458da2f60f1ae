"""End-to-end command-line behavior: outputs, exit codes, determinism."""

import csv
import hashlib
import json
import os
import pathlib
import subprocess
import sys
import warnings

import pytest

from poems import build_poem
from vcmarkov import (
    MbbConfig,
    autocorrelation,
    cli,
    load_layout,
    load_scheme,
    mbb_replicate,
    percentile_interval,
    sequence_report,
)
from vcmarkov.pipeline import load_source
from vcmarkov.resample import replicate_symbols, subblocks
from vcmarkov.stats import white_noise_band


def run_cli(argv):
    return cli.main(list(argv))


def read_manifest(out_dir):
    with open(os.path.join(out_dir, "manifest.json"), encoding="utf-8") as fh:
        return json.load(fh)


def first_line(path):
    with open(path, encoding="utf-8") as fh:
        return fh.readline().rstrip("\n")


def data_rows(path):
    with open(path, encoding="utf-8") as fh:
        rows = [line for line in fh if not line.startswith("#")]
    return list(csv.DictReader(rows))


@pytest.fixture()
def out_dir(tmp_path):
    return str(tmp_path / "out")


# ------------------------------------------------------------ smoke runs


def test_parse_writes_structure_and_stats(poem_file, layout_file, out_dir):
    rc = run_cli([
        "parse", "--input", poem_file, "--layout", layout_file, "--out", out_dir,
    ])
    assert rc == 0
    manifest = read_manifest(out_dir)
    assert manifest["command"] == "parse"
    with open(os.path.join(out_dir, "corpus.json"), encoding="utf-8") as fh:
        payload = json.load(fh)
    assert payload["manifest_hash"] == manifest["manifest_hash"]
    assert payload["corpus"]["parts"]
    stats_head = first_line(os.path.join(out_dir, "line_stats.csv"))
    assert stats_head == f"# manifest: {manifest['manifest_hash']}"


def test_align_two_corpora(poem_file, layout_file, tmp_path, out_dir):
    other = tmp_path / "other.txt"
    other.write_text(build_poem(seed=321), encoding="utf-8")
    rc = run_cli([
        "align",
        "--reference", poem_file, "--other", str(other),
        "--reference-layout", layout_file, "--other-layout", layout_file,
        "--out", out_dir,
    ])
    assert rc == 0
    with open(os.path.join(out_dir, "alignment.json"), encoding="utf-8") as fh:
        payload = json.load(fh)
    assert payload["pairs"]


def test_encode_emits_sequence_and_origins(poem_file, layout_file, out_dir):
    rc = run_cli([
        "encode", "--input", poem_file, "--layout", layout_file,
        "--block-len", "400", "--out", out_dir,
    ])
    assert rc == 0
    with open(os.path.join(out_dir, "sequence.txt"), encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    assert lines[0].startswith("# manifest: ")
    symbols = lines[1]
    assert symbols and set(symbols) <= {"V", "C"}
    origins = data_rows(os.path.join(out_dir, "origins.csv"))
    assert len(origins) == len(symbols)


def test_profile_blocks_and_correlations(poem_file, layout_file, out_dir):
    rc = run_cli([
        "profile", "--input", poem_file, "--layout", layout_file,
        "--block-len", "400", "--out", out_dir,
    ])
    assert rc == 0
    blocks = data_rows(os.path.join(out_dir, "blocks.csv"))
    assert len(blocks) >= 3
    assert {"block", "md", "cf_simple", "cf_complex"} <= set(blocks[0])
    corr = data_rows(os.path.join(out_dir, "correlations.csv"))
    assert {r["variable"] for r in corr} >= {"p", "p0", "p1"}


def test_profile_ten_blocks_exact_correlations(poem_file, layout_file, out_dir):
    # the poem encodes to 2778 symbols: ten full blocks of 270
    rc = run_cli([
        "profile", "--input", poem_file, "--layout", layout_file,
        "--block-len", "270", "--no-keep-partial", "--control-set", "none",
        "--out", out_dir,
    ])
    assert rc == 0
    corr = data_rows(os.path.join(out_dir, "correlations.csv"))
    assert corr
    assert {r["n"] for r in corr} == {"10"}
    assert {r["method"] for r in corr} == {"exact"}


def test_bootstrap_outputs(poem_file, layout_file, out_dir):
    rc = run_cli([
        "bootstrap", "--input", poem_file, "--layout", layout_file,
        "--block-len", "400", "--subblock-len", "50",
        "--replicates", "20", "--seed", "5", "--out", out_dir,
    ])
    assert rc == 0
    reps = data_rows(os.path.join(out_dir, "replicates.csv"))
    intervals = data_rows(os.path.join(out_dir, "intervals.csv"))
    n_blocks = len({r["block"] for r in reps})
    assert len(reps) == 20 * n_blocks
    assert intervals and float(intervals[0]["lo"]) <= float(intervals[0]["hi"])


def test_acf_outputs(poem_file, layout_file, out_dir):
    rc = run_cli([
        "acf", "--input", poem_file, "--layout", layout_file,
        "--block-len", "400", "--subblock-len", "50", "--replicates", "20",
        "--max-lag", "6", "--ci-lags", "3", "--lb-lag", "5", "--out", out_dir,
    ])
    assert rc == 0
    acf_rows = data_rows(os.path.join(out_dir, "acf.csv"))
    lags = {int(r["lag"]) for r in acf_rows if r["block"] == acf_rows[0]["block"]}
    assert lags == set(range(1, 7))
    banded = [r for r in acf_rows if r["band_lo"] != ""]
    assert {int(r["lag"]) for r in banded} <= {1, 2, 3}
    lb = data_rows(os.path.join(out_dir, "ljung_box.csv"))
    assert all(0.0 <= float(r["p_value"]) <= 1.0 for r in lb)


def _poem_blocks(poem_file, layout_file):
    """The poem's 400-symbol blocks, loaded as the single-source commands do."""
    text = pathlib.Path(poem_file).read_text(encoding="utf-8")
    src = load_source(
        text, load_layout(layout_file), load_scheme("ru"),
        label="poem", block_len=400, min_partial=200,
    )
    return [src.segmentation.slice(src.sequence, b) for b in range(len(src.segmentation))]


def test_bootstrap_row_rebuilds_from_its_seed_path(poem_file, layout_file, out_dir):
    assert run_cli([
        "bootstrap", "--input", poem_file, "--layout", layout_file,
        "--block-len", "400", "--subblock-len", "50",
        "--replicates", "6", "--seed", "5", "--out", out_dir,
    ]) == 0
    row = data_rows(os.path.join(out_dir, "replicates.csv"))[2 * 6 + 4]
    assert (row["block"], row["replicate"]) == ("3", "4")
    x = _poem_blocks(poem_file, layout_file)[2]
    draws = mbb_replicate(x, MbbConfig(400, 50, 6, master_seed=5), 4, block_index=2)
    report = sequence_report(replicate_symbols(subblocks(x, 50), draws))
    assert [float(row[k]) for k in ("md", "cf_simple", "cf_complex")] == [
        report.md, report.cf_simple, report.cf_complex,
    ]


def test_acf_row_rebuilds_from_its_seed_path(poem_file, layout_file, out_dir):
    assert run_cli([
        "acf", "--input", poem_file, "--layout", layout_file,
        "--block-len", "400", "--subblock-len", "50", "--replicates", "20",
        "--seed", "8", "--max-lag", "6", "--ci-lags", "3", "--lb-lag", "5",
        "--out", out_dir,
    ]) == 0
    row = data_rows(os.path.join(out_dir, "acf.csv"))[1 * 6 + 1]
    assert (row["block"], row["lag"]) == ("2", "2")
    x = _poem_blocks(poem_file, layout_file)[1]
    cfg = MbbConfig(400, 50, 20, master_seed=8)
    band = percentile_interval([
        autocorrelation(
            replicate_symbols(subblocks(x, 50), mbb_replicate(x, cfg, r, block_index=1)), 3
        ).rho[1]
        for r in range(20)
    ])
    assert [float(row[k]) for k in ("rho", "band_lo", "band_hi", "white_noise_hi")] == [
        autocorrelation(x, 6).rho[1], band.lo, band.hi, white_noise_band(x.size),
    ]


def test_simulate_outputs(poem_file, layout_file, out_dir):
    rc = run_cli([
        "simulate", "--input", poem_file, "--layout", layout_file,
        "--block-len", "400", "--ensemble", "8", "--sim-length", "600",
        "--model-block", "2", "--seed", "4", "--out", out_dir,
    ])
    assert rc == 0
    rows = data_rows(os.path.join(out_dir, "ensemble.csv"))
    assert len(rows) == 8
    with open(os.path.join(out_dir, "simulation.json"), encoding="utf-8") as fh:
        payload = json.load(fh)
    assert payload["n_simulations"] == 8


def test_regress_two_sources(poem_file, layout_file, tmp_path, out_dir):
    other = tmp_path / "other.txt"
    other.write_text(build_poem(seed=456), encoding="utf-8")
    rc = run_cli([
        "regress",
        "--source", f"aa={poem_file}", "--source", f"bb={other}",
        "--layout", f"aa={layout_file}", "--layout", f"bb={layout_file}",
        "--block-len", "400", "--subblock-len", "50",
        "--replicates", "15", "--seed", "2", "--out", out_dir,
    ])
    assert rc == 0
    with open(os.path.join(out_dir, "regression.json"), encoding="utf-8") as fh:
        payload = json.load(fh)
    names = {"intercept", "block", "source", "interaction"}
    assert set(payload["coefficients"]) == names
    for entry in payload["coefficients"].values():
        assert entry["lo"] <= entry["hi"]
    coef_rows = data_rows(os.path.join(out_dir, "coefficients.csv"))
    assert len(coef_rows) == 15 * 4
    md_rows = data_rows(os.path.join(out_dir, "md_blocks.csv"))
    assert {r["source"] for r in md_rows} == {"aa", "bb"}


def test_probe_outputs(poem_file, layout_file, out_dir):
    rc = run_cli([
        "probe", "--input", poem_file, "--layout", layout_file,
        "--block-len", "400", "--out", out_dir,
    ])
    assert rc == 0
    for name in ("class_totals.csv", "matches.csv", "latin_tokens.csv",
                 "latin_density.csv", "trigram_ranks.csv", "candidates.csv"):
        assert os.path.exists(os.path.join(out_dir, name)), name
    totals = {r["vc_class"]: int(r["count"]) for r in
              data_rows(os.path.join(out_dir, "class_totals.csv"))}
    assert set(totals) == {"VVV", "CCC", "VVC", "CCV"}
    matches = data_rows(os.path.join(out_dir, "matches.csv"))
    assert sum(totals.values()) == len(matches)


def test_probe_with_annotations_and_names(poem_file, layout_file, tmp_path, out_dir):
    pre = str(tmp_path / "pre")
    assert run_cli([
        "probe", "--input", poem_file, "--layout", layout_file,
        "--block-len", "400", "--out", pre,
    ]) == 0
    matches = data_rows(os.path.join(pre, "matches.csv"))
    single = [m for m in matches if m["single_word"] == "true"]
    context = single[0]["context"]
    ann = tmp_path / "ann.csv"
    ann.write_text(
        f"context,lemma,category\n{context},{context},theme\n", encoding="utf-8"
    )
    name_form = single[-1]["context"]
    names = tmp_path / "names.csv"
    names.write_text(f"character,form\nHero,{name_form}\n", encoding="utf-8")
    rc = run_cli([
        "probe", "--input", poem_file, "--layout", layout_file,
        "--block-len", "400", "--annotations", str(ann), "--names", str(names),
        "--out", out_dir,
    ])
    assert rc == 0
    counts = data_rows(os.path.join(out_dir, "category_counts.csv"))
    assert any(r["category"] == "theme" and int(r["count"]) >= 1 for r in counts)
    assert os.path.exists(os.path.join(out_dir, "category_trends.csv"))
    labeled = data_rows(os.path.join(out_dir, "labeled_matches.csv"))
    assert any(r["category"] == "theme" for r in labeled)
    with open(os.path.join(out_dir, "cooccurrence.json"), encoding="utf-8") as fh:
        cooc = json.load(fh)
    assert cooc["total_name_mentions"] >= 1
    manifest = read_manifest(out_dir)
    assert os.path.basename(str(ann)) in manifest["inputs"]
    assert os.path.basename(str(names)) in manifest["inputs"]


# ------------------------------------------------------------ composability


def test_profile_feeds_regress_blocks(poem_file, layout_file, tmp_path):
    other = tmp_path / "other.txt"
    other.write_text(build_poem(seed=456), encoding="utf-8")
    prof_a = str(tmp_path / "prof_a")
    prof_b = str(tmp_path / "prof_b")
    for path, dest in ((poem_file, prof_a), (str(other), prof_b)):
        assert run_cli([
            "profile", "--input", path, "--layout", layout_file,
            "--block-len", "400", "--out", dest,
        ]) == 0
    out = str(tmp_path / "reg")
    rc = run_cli([
        "regress",
        "--blocks", f"aa={os.path.join(prof_a, 'blocks.csv')}",
        "--blocks", f"bb={os.path.join(prof_b, 'blocks.csv')}",
        "--out", out,
    ])
    assert rc == 0
    with open(os.path.join(out, "regression.json"), encoding="utf-8") as fh:
        payload = json.load(fh)
    assert set(payload["coefficients"]) == {
        "intercept", "block", "source", "interaction"
    }
    assert "lo" not in payload["coefficients"]["block"]


# ------------------------------------------------------------ surrogate wrapper


def test_surrogate_wrapper_shuffles_profile(poem_file, layout_file, tmp_path):
    plain = str(tmp_path / "plain")
    wrapped = str(tmp_path / "wrapped")
    base = [
        "profile", "--input", poem_file, "--layout", layout_file,
        "--block-len", "400", "--out",
    ]
    assert run_cli(base + [plain]) == 0
    rc = run_cli([
        "surrogate", "--surrogate-seed", "3", "--surrogate-subblock-len", "40",
    ] + base + [wrapped])
    assert rc == 0
    manifest = read_manifest(wrapped)
    assert manifest["command"] == "surrogate profile"
    assert "surrogate" in manifest["config"]
    with open(os.path.join(plain, "blocks.csv"), "rb") as fh:
        plain_bytes = fh.read()
    with open(os.path.join(wrapped, "blocks.csv"), "rb") as fh:
        wrapped_bytes = fh.read()
    assert plain_bytes != wrapped_bytes


def test_surrogate_regress_shuffles_only_the_named_source(
    poem_file, layout_file, tmp_path, monkeypatch
):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
    other = tmp_path / "other.txt"
    other.write_text(build_poem(seed=456), encoding="utf-8")
    regress = [
        "regress",
        "--source", f"aa={poem_file}", "--source", f"bb={other}",
        "--layout", f"aa={layout_file}", "--layout", f"bb={layout_file}",
        "--block-len", "400", "--subblock-len", "50",
        "--replicates", "5", "--seed", "2", "--out",
    ]
    wrapper = [
        "surrogate", "--surrogate-seed", "3", "--surrogate-subblock-len", "40",
        "--apply-to", "bb",
    ]
    plain, a, b = (str(tmp_path / name) for name in ("plain", "a", "b"))
    assert run_cli(regress + [plain]) == 0
    assert run_cli(wrapper + regress + [a]) == 0
    assert run_cli(wrapper + regress + [b]) == 0
    assert _tree_digest(a) == _tree_digest(b)
    assert read_manifest(a)["config"]["surrogate"]["apply_to"] == ["bb"]

    def md_rows(out, label):
        return [r for r in data_rows(os.path.join(out, "md_blocks.csv"))
                if r["source"] == label]

    assert md_rows(a, "aa") == md_rows(plain, "aa")
    assert md_rows(a, "bb") != md_rows(plain, "bb")


def test_surrogate_requires_wrapped_command():
    with pytest.raises(SystemExit) as exc:
        run_cli(["surrogate", "--surrogate-seed", "1"])
    assert exc.value.code == 2


def test_surrogate_cannot_wrap_itself(poem_file):
    with pytest.raises(SystemExit) as exc:
        run_cli(["surrogate", "surrogate", "encode", "--input", poem_file])
    assert exc.value.code == 2


# ------------------------------------------------------------ exit codes


def test_missing_input_is_a_data_error(tmp_path, capsys):
    rc = run_cli([
        "encode", "--input", str(tmp_path / "absent.txt"),
        "--out", str(tmp_path / "o"),
    ])
    assert rc == 3
    assert "error [data]" in capsys.readouterr().err


def test_empty_input_fails_without_partial_outputs(tmp_path, capsys):
    empty = tmp_path / "empty.txt"
    empty.write_text("", encoding="utf-8")
    out = tmp_path / "o"
    rc = run_cli(["encode", "--input", str(empty), "--out", str(out)])
    assert rc == 3
    assert not out.exists() or not any(out.iterdir())


def test_alternating_text_is_a_domain_error(tmp_path, capsys):
    text = "I\n\n" + "\n".join(["та ма на ра та ма на ра"] * 12) + "\n"
    path = tmp_path / "alt.txt"
    path.write_text(text, encoding="utf-8")
    rc = run_cli([
        "profile", "--input", str(path), "--block-len", "40",
        "--out", str(tmp_path / "o"),
    ])
    assert rc == 4
    assert "error [domain]" in capsys.readouterr().err


def test_non_utf8_input_is_a_data_error(tmp_path, capsys):
    path = tmp_path / "latin1.txt"
    path.write_bytes("I\n\n1\n\ncaf\u00e9 na ra\n".encode("latin-1"))
    rc = run_cli(["encode", "--input", str(path), "--out", str(tmp_path / "o")])
    assert rc == 3
    err = capsys.readouterr().err
    assert "error [data]" in err and "latin1.txt" in err


def _latin1_file(path, text):
    path.write_bytes(text.encode("latin-1"))
    return str(path)


@pytest.mark.parametrize("case", ["layout", "scheme", "blocks", "annotations", "names"])
def test_non_utf8_side_file_is_a_data_error(case, poem_file, layout_file, tmp_path, capsys):
    good_csv = tmp_path / "good.csv"
    good_csv.write_text("context,lemma,category\nстарик,старик,theme\n", encoding="utf-8")
    probe = ["probe", "--input", poem_file, "--layout", layout_file, "--block-len", "400"]
    if case == "layout":
        bad = _latin1_file(tmp_path / "bad.json", '{"part_prefix": "caf\u00e9"}')
        argv = ["encode", "--input", poem_file, "--layout", bad]
    elif case == "scheme":
        bad = _latin1_file(tmp_path / "bad.json", '{"name": "caf\u00e9"}')
        argv = ["encode", "--input", poem_file, "--layout", layout_file, "--scheme", bad]
    elif case == "blocks":
        good_csv.write_text("block,md\n1,0.1\n2,0.2\n", encoding="utf-8")
        bad = _latin1_file(tmp_path / "bad.csv", "block,md\n1,0.1\n2,0.2\n# caf\u00e9\n")
        argv = ["regress", "--blocks", f"aa={good_csv}", "--blocks", f"bb={bad}"]
    elif case == "annotations":
        bad = _latin1_file(tmp_path / "bad.csv", "context,lemma,category\ncaf\u00e9,x,y\n")
        argv = probe + ["--annotations", bad]
    else:
        bad = _latin1_file(tmp_path / "bad.csv", "character,form\nHero,caf\u00e9\n")
        argv = probe + ["--annotations", str(good_csv), "--names", bad]
    out = tmp_path / "o"
    rc = run_cli(argv + ["--out", str(out)])
    assert rc == 3
    err = capsys.readouterr().err
    assert "error [data]" in err and os.path.basename(bad) in err
    assert not out.exists() or not any(out.iterdir())


def test_layout_that_is_not_json_is_a_data_error(poem_file, tmp_path, capsys):
    layout = tmp_path / "broken_layout.json"
    layout.write_text('{"part_numerals": "roman" "stanza_numerals": "arabic"}', encoding="utf-8")
    rc = run_cli([
        "encode", "--input", poem_file, "--layout", str(layout), "--out", str(tmp_path / "o"),
    ])
    assert rc == 3
    err = capsys.readouterr().err
    assert "error [data]" in err and "broken_layout.json" in err and "not valid JSON" in err


def test_scheme_that_is_not_json_is_a_data_error(poem_file, tmp_path, capsys):
    scheme = tmp_path / "broken_scheme.json"
    scheme.write_text('{"name": "x" "vowels": "a", "consonants": "b"}', encoding="utf-8")
    rc = run_cli([
        "encode", "--input", poem_file, "--scheme", str(scheme), "--out", str(tmp_path / "o"),
    ])
    assert rc == 3
    err = capsys.readouterr().err
    assert "error [data]" in err and "broken_scheme.json" in err and "not valid JSON" in err


def test_probe_tells_two_epigraphs_of_a_part_apart(tmp_path):
    text = (
        "I\n\n@epigraph\nда\n\n@epigraph\nстарик в лесу\nпоёт хор\n\n"
        "1\n\nвстал и вышел прочь\nсмотрит у окна\n"
    )
    (tmp_path / "text.txt").write_text(text, encoding="utf-8")
    (tmp_path / "layout.json").write_text('{"stanza_numerals": "arabic"}', encoding="utf-8")
    (tmp_path / "ann.csv").write_text(
        "context,lemma,category\nстарик в лесу,лес,nature\n", encoding="utf-8"
    )
    (tmp_path / "names.csv").write_text("character,form\nOld,старик\n", encoding="utf-8")
    out = tmp_path / "o"
    assert run_cli([
        "probe", "--input", str(tmp_path / "text.txt"),
        "--layout", str(tmp_path / "layout.json"), "--block-len", "5",
        "--include-epigraphs", "--include-multiword", "--annotations", str(tmp_path / "ann.csv"),
        "--names", str(tmp_path / "names.csv"), "--out", str(out),
    ]) == 0
    rows = data_rows(out / "matches.csv")
    # the first epigraph is stanza 0, the second -1
    by_letters = {(r["letters"], r["stanza"], r["line"]): r["context"] for r in rows}
    assert by_letters[("квл", "-1", "1")] == "старик в лесу"
    assert by_letters[("тхо", "-1", "2")] == "поёт хор"
    assert {r["stanza"] for r in rows} == {"-1", "1"}
    labeled = data_rows(out / "labeled_matches.csv")
    assert {(r["stanza"], r["category"]) for r in labeled if r["lemma"]} == {("-1", "nature")}
    with open(out / "cooccurrence.json", encoding="utf-8") as fh:
        cooccurrence = json.load(fh)
    # the name sits in the second epigraph, one of the two probe stanzas
    assert cooccurrence["n_probe_stanzas"] == 2
    assert cooccurrence["mentions_in_probe_stanzas"] == 1
    assert cooccurrence["n_probe_stanzas_thematic"] == 1


def test_scheme_without_name_is_a_data_error(poem_file, tmp_path, capsys):
    scheme = tmp_path / "scheme.json"
    scheme.write_text(json.dumps({"vowels": "ao", "consonants": "tm"}), encoding="utf-8")
    rc = run_cli([
        "encode", "--input", poem_file, "--scheme", str(scheme),
        "--out", str(tmp_path / "o"),
    ])
    assert rc == 3
    err = capsys.readouterr().err
    assert "error [data]" in err and "scheme.json" in err and "'name'" in err


def test_non_numeric_blocks_cell_is_a_data_error(tmp_path, capsys):
    good = tmp_path / "good.csv"
    good.write_text("block,md\n1,0.1\n2,0.2\n", encoding="utf-8")
    bad = tmp_path / "bad.csv"
    bad.write_text("block,md\n1,abc\n2,0.2\n", encoding="utf-8")
    rc = run_cli([
        "regress", "--blocks", f"aa={good}", "--blocks", f"bb={bad}",
        "--out", str(tmp_path / "o"),
    ])
    assert rc == 3
    err = capsys.readouterr().err
    assert "error [data]" in err and "bad.csv" in err


@pytest.mark.parametrize("blocks, code", [
    ((7, 7, 7), 4),
    ((10**6 + 1, 10**6 + 2, 10**6 + 3), 0),
], ids=["one-block-number", "large-block-numbers"])
def test_regress_blocks_needs_two_block_numbers_per_source(blocks, code, tmp_path, capsys):
    """One block number repeated within a source leaves the block slope
    undefined (exit 4); distinct large numbers fit (an SVD rank test used
    to call them rank deficient)."""
    good = tmp_path / "good.csv"
    good.write_text("block,md\n1,0.1\n2,0.2\n3,0.25\n", encoding="utf-8")
    other = tmp_path / "other.csv"
    other.write_text(
        "block,md\n" + "".join(f"{b},{0.1 * i}\n" for i, b in enumerate(blocks)),
        encoding="utf-8",
    )
    rc = run_cli([
        "regress", "--blocks", f"aa={good}", "--blocks", f"bb={other}",
        "--out", str(tmp_path / "o"),
    ])
    assert rc == code
    if code == 4:
        assert "error [domain]" in capsys.readouterr().err


def test_bad_label_argument_is_usage_error(tmp_path, capsys):
    rc = run_cli([
        "regress", "--blocks", "no-equals-sign",
        "--out", str(tmp_path / "o"),
    ])
    assert rc == 2
    assert "error [usage]" in capsys.readouterr().err


def test_regress_rejects_blocks_and_source_together(poem_file, tmp_path):
    rc = run_cli([
        "regress", "--blocks", "aa=x.csv", "--source", f"bb={poem_file}",
        "--out", str(tmp_path / "o"),
    ])
    assert rc == 2


def test_regress_requires_two_sources(poem_file, layout_file, tmp_path):
    rc = run_cli([
        "regress", "--source", f"aa={poem_file}",
        "--layout", f"aa={layout_file}", "--out", str(tmp_path / "o"),
    ])
    assert rc == 2


def test_names_without_annotations_is_usage_error(poem_file, layout_file, tmp_path):
    rc = run_cli([
        "probe", "--input", poem_file, "--layout", layout_file,
        "--block-len", "400", "--names", "whatever.csv",
        "--out", str(tmp_path / "o"),
    ])
    assert rc == 2


def test_simulate_rejects_nonpositive_model_block(poem_file, layout_file, tmp_path):
    rc = run_cli([
        "simulate", "--input", poem_file, "--layout", layout_file,
        "--model-block", "0", "--out", str(tmp_path / "o"),
    ])
    assert rc == 2


@pytest.mark.parametrize("flag,value", [
    ("--ensemble", "0"), ("--ensemble", "1"), ("--sim-length", "0"), ("--sim-length", "1"),
])
def test_simulate_rejects_a_useless_ensemble_before_reading_input(
    tmp_path, capsys, flag, value
):
    # the input does not exist: reading it would exit 3
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = run_cli([
            "simulate", "--input", str(tmp_path / "missing.txt"), flag, value,
            "--out", str(tmp_path / "o"),
        ])
    assert rc == 2
    assert f"{flag} must be >= 2" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_simulate_two_symbol_chains_are_a_domain_error(poem_file, layout_file, tmp_path, capsys):
    rc = run_cli([
        "simulate", "--input", poem_file, "--layout", layout_file, "--block-len", "400",
        "--ensemble", "3", "--sim-length", "2", "--out", str(tmp_path / "o"),
    ])
    assert rc == 4
    assert "sequence of length 2 has no windows of order 3" in capsys.readouterr().err


def test_simulate_names_a_model_block_past_the_end_one_based(
    poem_file, layout_file, tmp_path, capsys
):
    rc = run_cli([
        "simulate", "--input", poem_file, "--layout", layout_file,
        "--block-len", "400", "--model-block", "99", "--out", str(tmp_path / "o"),
    ])
    assert rc == 2
    assert "model_block 99 outside 1..7" in capsys.readouterr().err


_SINGLE_SOURCE_OPTIONS = {
    "encode": [],
    "profile": [],
    "bootstrap": ["--subblock-len", "50", "--replicates", "4"],
    "acf": ["--subblock-len", "50", "--replicates", "4"],
    "simulate": ["--ensemble", "3", "--sim-length", "200"],
    "probe": [],
}


@pytest.mark.parametrize("command", sorted(_SINGLE_SOURCE_OPTIONS))
def test_manifest_config_records_every_option(command, poem_file, layout_file, out_dir):
    argv = [
        command, "--input", poem_file, "--layout", layout_file, "--block-len", "400",
        *_SINGLE_SOURCE_OPTIONS[command], "--out", out_dir,
    ]
    assert run_cli(argv) == 0
    options = set(vars(cli.build_parser().parse_args(argv))) - {"command", "out", "seed"}
    assert set(read_manifest(out_dir)["config"]) == options


# `regress --source` writes its config from a hand-written key list; these
# options are recorded under another name. --blocks selects the other mode
# and --seed is recorded with the seeds.
_REGRESS_MANIFEST_KEYS = {"source": "sources", "layout": "layouts"}


def test_regress_manifest_config_records_every_option(
    poem_file, layout_file, tmp_path, out_dir
):
    other = tmp_path / "other.txt"
    other.write_text(build_poem(seed=456), encoding="utf-8")
    argv = [
        "regress", "--source", f"aa={poem_file}", "--source", f"bb={other}",
        "--layout", f"aa={layout_file}", "--scheme-map", "bb=ru",
        "--block-len", "400", "--subblock-len", "50", "--replicates", "4",
        "--seed", "3", "--out", out_dir,
    ]
    assert run_cli(argv) == 0
    manifest = read_manifest(out_dir)
    options = set(vars(cli.build_parser().parse_args(argv))) - {"command", "out", "seed", "blocks"}
    assert set(manifest["config"]) == {_REGRESS_MANIFEST_KEYS.get(o, o) for o in options}
    assert manifest["seeds"] == {"master_seed": 3}
    assert manifest["config"]["sources"] == {"aa": poem_file, "bb": str(other)}
    assert manifest["config"]["layouts"] == {"aa": layout_file}
    assert manifest["config"]["scheme_map"] == {"bb": "ru"}


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        run_cli(["frobnicate"])
    assert exc.value.code == 2


# ------------------------------------------------------------ determinism


def _tree_digest(root):
    digests = {}
    for name in sorted(os.listdir(root)):
        with open(os.path.join(root, name), "rb") as fh:
            digests[name] = hashlib.sha256(fh.read()).hexdigest()
    return digests


def test_reruns_are_byte_identical(poem_file, layout_file, tmp_path, monkeypatch):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
    argv = [
        "bootstrap", "--input", poem_file, "--layout", layout_file,
        "--block-len", "400", "--subblock-len", "50",
        "--replicates", "10", "--seed", "17", "--out",
    ]
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    assert run_cli(argv + [a]) == 0
    assert run_cli(argv + [b]) == 0
    assert _tree_digest(a) == _tree_digest(b)


def test_one_process_gives_the_bytes_of_separate_runs(
    poem_file, layout_file, tmp_path, monkeypatch
):
    # main reuses one argument parser per process; no run may leave state in it
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
    common = ["--input", poem_file, "--layout", layout_file, "--block-len", "400"]
    runs = {
        "encode": ["encode", *common, "--include-epigraphs"],
        "profile": ["profile", *common, "--control-set", "none"],
        "surrogate": ["surrogate", "--surrogate-seed", "3", "profile", *common],
    }
    for name, argv in runs.items():
        assert run_cli(argv + ["--out", str(tmp_path / "one" / name)]) == 0
    env = {**os.environ, "SOURCE_DATE_EPOCH": "1700000000"}
    for name, argv in runs.items():
        out = str(tmp_path / "separate" / name)
        subprocess.run(
            [sys.executable, "-m", "vcmarkov.cli", *argv, "--out", out], env=env, check=True
        )
        assert _tree_digest(tmp_path / "one" / name) == _tree_digest(out), name


@pytest.mark.parametrize("argv", [
    ["bootstrap", "--subblock-len", "50", "--replicates", "5"],
    ["acf", "--subblock-len", "50", "--replicates", "5", "--max-lag", "4",
     "--ci-lags", "2", "--lb-lag", "3"],
    ["simulate", "--ensemble", "3", "--sim-length", "500"],
    ["regress", "--subblock-len", "50", "--replicates", "5"],
], ids=lambda argv: argv[0])
def test_numeric_csv_cells_parse_as_numbers(argv, poem_file, layout_file, out_dir):
    if argv[0] == "regress":
        sources = ["--source", f"aa={poem_file}", "--source", f"bb={poem_file}",
                   "--layout", f"aa={layout_file}", "--layout", f"bb={layout_file}"]
    else:
        sources = ["--input", poem_file, "--layout", layout_file]
    rc = run_cli(argv[:1] + sources + argv[1:] + ["--block-len", "400", "--out", out_dir])
    assert rc == 0
    text_columns = {"source", "statistic", "coefficient"}
    names = sorted(n for n in os.listdir(out_dir) if n.endswith(".csv"))
    assert names
    for name in names:
        for row in data_rows(os.path.join(out_dir, name)):
            for column, cell in row.items():
                if column in text_columns or cell == "":
                    continue
                try:
                    float(cell)
                except ValueError:
                    pytest.fail(f"{name}: {column} cell {cell!r} is not a number")


def test_cli_import_loads_no_scipy():
    code = (
        "import sys\n"
        "from vcmarkov.cli import build_parser\n"
        "build_parser()\n"
        "print(sorted(m for m in ('scipy.stats', 'scipy.special') if m in sys.modules))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    assert result.stdout.strip() == "[]"


def test_output_dir_env_var(poem_file, layout_file, tmp_path, monkeypatch):
    target = tmp_path / "from-env"
    monkeypatch.setenv(cli.OUTPUT_DIR_ENV, str(target))
    rc = run_cli([
        "encode", "--input", poem_file, "--layout", layout_file,
        "--block-len", "400",
    ])
    assert rc == 0
    assert (target / "sequence.txt").exists()


def test_module_entry_point(poem_file, layout_file, tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "vcmarkov.cli", "parse",
         "--input", poem_file, "--layout", layout_file,
         "--out", str(tmp_path / "o")],
        capture_output=True, text=True,
    )
    assert result.returncode == 0, result.stderr
    assert (tmp_path / "o" / "corpus.json").exists()
