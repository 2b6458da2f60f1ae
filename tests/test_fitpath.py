"""The one-count model fit against its three-count oracle, and pinned bytes
of every output file of the model commands."""

from __future__ import annotations

import hashlib
import json
import os
from itertools import product

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from vcmarkov import RUSSIAN, FourStateModel, TwoStateModel, cli, simulate_sequence
from vcmarkov.errors import DomainError, ZeroContextError
from vcmarkov.markov import (
    count_ngrams,
    dispersion_report,
    fit_sequence,
    sequence_report,
    trigram_discrepancy,
)

import fit_oracle as oracle
from poems import build_poem


def outcome(fn, *args):
    """The value of a call, or the type and message of what it raised."""
    try:
        return fn(*args)
    except Exception as exc:
        return type(exc), str(exc)


def assert_same_fit(x):
    assert outcome(fit_sequence, x) == outcome(oracle.fit_sequence, x)
    for which_cf in ("complex", "simple", "neither"):
        assert outcome(sequence_report, x, which_cf) == outcome(
            oracle.sequence_report, x, which_cf
        )


_PROBS = st.sampled_from([0.0, 0.02, 0.3, 0.5, 0.8, 0.98, 1.0])


@st.composite
def sequences(draw):
    """Free bit strings, or chains with any transition probabilities,
    deterministic ones included, so rare and missing contexts occur."""
    if draw(st.booleans()):
        return np.array(draw(st.lists(st.integers(0, 1), max_size=300)), dtype=np.uint8)
    model = FourStateModel(p11=draw(_PROBS), p10=draw(_PROBS), p01=draw(_PROBS), p00=draw(_PROBS))
    length = draw(st.integers(2, 3000))
    init = draw(st.sampled_from(["CC", "CV", "VC", "VV"]))
    return simulate_sequence(model, length, draw(st.integers(0, 2**32)), init=init).symbols


@given(sequences())
@settings(max_examples=400, deadline=None)
def test_fit_and_reports_equal_the_three_count_oracle(x):
    assert_same_fit(x)


@given(sequences(), sequences())
@settings(max_examples=200, deadline=None)
def test_trigram_discrepancy_equals_the_oracle(a, b):
    assume(a.size >= 3 and b.size >= 3)
    assert trigram_discrepancy(count_ngrams(a, 3), count_ngrams(b, 3)) == (
        oracle.trigram_discrepancy(oracle.count_ngrams(a, 3), oracle.count_ngrams(b, 3))
    )


_SHORT = ["".join(bits) for n in range(4) for bits in product("CV", repeat=n)]


@pytest.mark.parametrize("text, error", [
    *[(s, DomainError if len(s) < 3 else ZeroContextError) for s in _SHORT],
    ("V" * 12, ZeroContextError),
    ("C" * 12, ZeroContextError),
    ("VC" * 8, ZeroContextError),
    ("CV" * 8 + "C", ZeroContextError),
    ("CCVCVCVVV", DomainError),  # VV is always followed by V: eta = 1
    ("VVCVCVCCC", DomainError),  # CC is always followed by C: nu = 1
])
def test_fit_errors_equal_the_oracle(text, error):
    x = np.array([ch == "V" for ch in text], dtype=np.uint8)
    assert_same_fit(x)
    assert outcome(sequence_report, x)[0] is error


def _models(p, p0, p1, p11, p00):
    return (
        TwoStateModel(p=p, p0=p0, p1=p1),
        FourStateModel(p11=p11, p10=0.5, p01=0.5, p00=p00),
    )


@pytest.mark.parametrize("probs, n, which_cf, message", [
    ((0.5, 0.0, 1.0, 0.5, 0.5), 100, "complex", "dispersion pole: d"),
    ((0.5, 0.3, 1.0, 0.5, 0.5), 100, "complex", "eta undefined"),
    ((0.5, 0.0, 0.5, 0.5, 0.5), 100, "complex", "nu undefined"),
    ((0.5, 0.3, 0.5, 1.0, 0.5), 100, "complex", "dispersion pole: eta"),
    ((0.5, 0.3, 0.5, 0.5, 0.0), 100, "complex", "dispersion pole: nu"),
    ((0.5, 0.3, 0.5, 0.5, 0.5), 0, "complex", "n must be positive"),
    ((0.5, 0.0, 1.0, 0.5, 0.5), 0, "other", "which_cf must be"),
])
def test_dispersion_errors_equal_the_oracle(probs, n, which_cf, message):
    two, four = _models(*probs)
    got = outcome(dispersion_report, two, four, n, which_cf)
    assert got == outcome(oracle.dispersion_report, two, four, n, which_cf)
    assert got[1].startswith(message)


@given(_PROBS | st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(0.0, 1.0),
       st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.integers(1, 10**6),
       st.sampled_from(["complex", "simple"]))
@settings(max_examples=300, deadline=None)
def test_dispersion_report_equals_the_oracle(p, p0, p1, p11, p00, n, which_cf):
    two, four = _models(p, p0, p1, p11, p00)
    got = outcome(dispersion_report, two, four, n, which_cf)
    want = outcome(oracle.dispersion_report, two, four, n, which_cf)
    # near the poles inf - inf gives NaN, which no float equals; the exact
    # float reprs then show the same values
    assert got == want or repr(got) == repr(want)


# (run name, argv after the shared input options); "{a}" and "{b}" are the
# two poems, every run writes into the directory named by its run name
_SINGLE = ["--input", "a.txt", "--layout", "layout.json", "--block-len", "400"]
_MBB = ["--subblock-len", "50", "--replicates", "12", "--seed", "5"]
_REGRESS = [
    "--source", "a=a.txt", "--source", "b=b.txt",
    "--layout", "a=layout.json", "--layout", "b=layout.json", "--block-len", "400",
]
RUNS = {
    "profile": ["profile", *_SINGLE],
    "profile-simple": [
        "profile", *_SINGLE, "--scheme", "scheme.json", "--which-cf", "simple",
        "--control-set", "none",
    ],
    "profile-b": [
        "profile", "--input", "b.txt", "--layout", "layout.json", "--block-len", "400",
    ],
    "bootstrap": ["bootstrap", *_SINGLE, *_MBB],
    "bootstrap-simple": ["bootstrap", *_SINGLE, *_MBB, "--which-cf", "simple"],
    "acf": ["acf", *_SINGLE, *_MBB, "--max-lag", "6", "--lb-lag", "6"],
    "simulate": [
        "simulate", *_SINGLE, "--ensemble", "15", "--sim-length", "600",
        "--model-block", "2", "--seed", "3",
    ],
    "regress": ["regress", *_REGRESS, *_MBB],
    "regress-blocks": [
        "regress", "--blocks", "a=profile/blocks.csv", "--blocks", "b=profile-b/blocks.csv",
    ],
    "surrogate-profile": ["surrogate", "--surrogate-subblock-len", "40", "profile", *_SINGLE],
    "surrogate-bootstrap": [
        "surrogate", "--surrogate-seed", "2", "bootstrap", *_SINGLE, *_MBB,
    ],
    "surrogate-acf": ["surrogate", "acf", *_SINGLE, *_MBB],
    "surrogate-simulate": [
        "surrogate", "simulate", *_SINGLE, "--ensemble", "10", "--sim-length", "400",
    ],
    "surrogate-regress": ["surrogate", "--apply-to", "b", "regress", *_REGRESS, *_MBB],
}

# sha256 of every output file, written by the three-count fit that the
# one-count fit replaced
PINS = {
    "profile/blocks.csv":
        "0091d95050be8362a931fe343f6374cea096a563c72ec98c8e4d4a7ce56ac443",
    "profile/correlations.csv":
        "4ad8e56f51cc9a6a15a5106e02d98b99167c4d16430e60ea0924d28a79cf0cf8",
    "profile/manifest.json":
        "efef746cd26f575c77f446862ef7788b063e1e935b00ac16c9b656b293bedde4",
    "profile-simple/blocks.csv":
        "07affa8a63ed8cb2276084783ddfd65f1c30c085656ae1fa0c1385960f3c8b00",
    "profile-simple/correlations.csv":
        "876f562b3c9c6a651efbc45666c1e5015125a71d29eaa2e66d8ec5214ff1d796",
    "profile-simple/manifest.json":
        "6522cf493412352e79c794d9e2dfb78275104e228bef430c9aadce4bfe3fe753",
    "profile-b/blocks.csv":
        "e6cf30a9a3fdb91ccdeee170a08c31acad52b148db7c4a2bfcd1c4a067ec3a59",
    "profile-b/correlations.csv":
        "5a75ccb1a08fc8f96f0b8e5c8d823e39b6227ad2d228d8efdac81a67b7d26018",
    "profile-b/manifest.json":
        "a5400f78cd177960c4d8599e3ac20868f7e8e5b2d4346c77ff481faa2f927e42",
    "bootstrap/intervals.csv":
        "415eab1755a63566e0ce51abc6a175aa723412243776d408d61eae535f0ae2e7",
    "bootstrap/manifest.json":
        "5054c07893007c0a11fc89645dfadb577e76b9ec5c3145dd6219e121e5daad4d",
    "bootstrap/replicates.csv":
        "789356822ecd03eb1ebe1accd7f3658d67b0ad2d1e3f8499b4a262adaae5c1b7",
    "bootstrap-simple/intervals.csv":
        "0484f5c10e9fb9c96b0e0bd76654dd755bdd652725cebcc4e2dad512b49f64bd",
    "bootstrap-simple/manifest.json":
        "5e1c8c44c05309edb6ce147f82b24a0118b4302a9bff1d4116f8a1f432417bf5",
    "bootstrap-simple/replicates.csv":
        "926eb36ac5b941b2b2308219d9e28816e6ce3855681e375989b9e3b2224fce4e",
    "acf/acf.csv":
        "f31cfb5ccf1c5e6050354e886ad87bf3c0e931f800adf3d7f19125031a5a1aa8",
    "acf/ljung_box.csv":
        "f51acaa4f73dad06f5bc5a3bde6ba4989f2d5524a287c847d664f0c3a8ab675f",
    "acf/manifest.json":
        "f5e06ddaf07d6764047c7a97d617cd578efef4eb655ca022579f5b37d820316d",
    "simulate/ensemble.csv":
        "d396f551a17f1f69d19132b3829a2401712bc8f59fd676115357575ee1f39a37",
    "simulate/manifest.json":
        "81d4a8f903727a2837ddc8ab78d448ba22e91f692bd3eeff23e5c86ff6eabd20",
    "simulate/simulation.json":
        "5b78cde06da1668788662298b72f3bf1d0e22ae847bf587676c43b4a4eb8e467",
    "regress/coefficients.csv":
        "978300443a1c6e75c61cd0601cc6fd9e065d7d27181c410e813c9cbf213573ae",
    "regress/manifest.json":
        "e9f7e786c2e9d28b1f399e3ce0e7ae1c1175925c5e972e34b6404da6ac6badf5",
    "regress/md_blocks.csv":
        "c3094579230df7aacb265dc54b1e75f7c169910dca47ff4802e74e47ca234cca",
    "regress/regression.json":
        "5db5ae4ec7e4174e3126fa9c0a41503d74e2608e0463904589c4b366365bb63f",
    "regress-blocks/manifest.json":
        "62c1b85c06f39ad940d0b77df6ee32adf6009c9c32a7ad791a23b9d207bec0f3",
    "regress-blocks/md_blocks.csv":
        "5b15af1569eb508ace1f763fad2a866dc8853e92726710142208ea7d5ae5d4c4",
    "regress-blocks/regression.json":
        "68b64d0959fb99c221ff4ba4d3407ba0cf8af2a0dcccad65888ae08bfcd973ba",
    "surrogate-profile/blocks.csv":
        "558d8340cb0c6c630a17a0450be14e5089fa941026c88753d738d702bf2c3384",
    "surrogate-profile/correlations.csv":
        "eef6e4d8bbebfbbba6676c4b13260e9a5e01aa3d3aae9fad42c38aa78ece4a49",
    "surrogate-profile/manifest.json":
        "f1857ec858e1cff07a592a1274b675733ef8d0e8ba7acb5658c1eb2d7362835d",
    "surrogate-bootstrap/intervals.csv":
        "6d4cfdd86e71b5885d92b00c58abe1f78075851134eb54046d3f27d93fa66fa5",
    "surrogate-bootstrap/manifest.json":
        "fcbe291983006fbec641e33ed9505eadfef1cc928d2957102b0c5d1ca5f0588d",
    "surrogate-bootstrap/replicates.csv":
        "90117d6888719e3a3d5b07c737b3466ef7eb6304cc9a9bf103f53f8666510a54",
    "surrogate-acf/acf.csv":
        "eed3b6e94c20f7a2e0f0c4f5de0e5eff8e9740434d7578f62acea51e1bcf8308",
    "surrogate-acf/ljung_box.csv":
        "f9c418e70809505275740173f8af2294584d86b26db8dc7056d56eec5e02ae71",
    "surrogate-acf/manifest.json":
        "30db50335fcbc250a31322273b734b1f9091cc9f2c64cf3224122b976d67f0cd",
    "surrogate-simulate/ensemble.csv":
        "6c531022ff643eb548fe7075b502396acd9cc745690949d5d162fe8d7f17dcef",
    "surrogate-simulate/manifest.json":
        "694db9d2a99eb439a9c20706e1d319474b08da4ad38104ad91cb23735183ee38",
    "surrogate-simulate/simulation.json":
        "0af5afeee0c089c3a86e3033f433cd5839d35057e1ec46f8a248c775bbc36388",
    "surrogate-regress/coefficients.csv":
        "25c1a97d330db8f6b6629a3c2ce69e9234b71102b487103ab87176abd321dc2d",
    "surrogate-regress/manifest.json":
        "ce20f9995851a92f62061b8b554a55c95038e5368f6faa6bfc4ab1c821c89ef1",
    "surrogate-regress/md_blocks.csv":
        "7b27fae052d43e3dcfdbefdea51206a8614fc67d6c05b4af87b3c485c962250c",
    "surrogate-regress/regression.json":
        "05d330234b2f33ac25ecb11ca4d01f6701a352b9e6e7ac923f9288ea56fc4181",
}


def test_model_command_outputs_are_pinned(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")
    (tmp_path / "a.txt").write_text(build_poem(), encoding="utf-8")
    (tmp_path / "b.txt").write_text(
        build_poem(n_parts=4, stanzas_per_part=12, seed=9), encoding="utf-8"
    )
    (tmp_path / "layout.json").write_text(
        json.dumps({"part_numerals": "roman", "stanza_numerals": "arabic"}), encoding="utf-8"
    )
    (tmp_path / "scheme.json").write_text(
        json.dumps({**RUSSIAN.to_dict(), "name": "ru-file"}), encoding="utf-8"
    )
    digests = {}
    for run, argv in RUNS.items():
        assert cli.main([*argv, "--out", run]) == 0, run
        for name in sorted(os.listdir(run)):
            with open(os.path.join(run, name), "rb") as fh:
                digests[f"{run}/{name}"] = hashlib.sha256(fh.read()).hexdigest()
    assert digests == PINS
