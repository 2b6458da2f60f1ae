"""Shared fixtures: synthetic corpora and chain models.

Everything here is generated, so the suite runs without any real text.
The corpus-conditional tests read VCMARKOV_CORPUS_DIR instead.
"""

from __future__ import annotations

import json

import pytest

from poems import NUMBERED_LAYOUT, build_poem
from vcmarkov import FourStateModel, LayoutConfig, RUSSIAN, parse_corpus


@pytest.fixture(scope="session")
def poem_text() -> str:
    return build_poem()


@pytest.fixture(scope="session")
def poem_layout() -> LayoutConfig:
    return NUMBERED_LAYOUT


@pytest.fixture(scope="session")
def poem_corpus(poem_text, poem_layout):
    return parse_corpus(poem_text, poem_layout, scheme=RUSSIAN, source_id="poem")


@pytest.fixture(scope="session")
def fixture_chain() -> FourStateModel:
    """The documented recovery fixture: moderate memory, no poles."""
    return FourStateModel(p00=0.60, p01=0.45, p10=0.70, p11=0.15)


@pytest.fixture()
def poem_file(tmp_path, poem_text):
    path = tmp_path / "poem.txt"
    path.write_text(poem_text, encoding="utf-8")
    return str(path)


@pytest.fixture()
def layout_file(tmp_path):
    path = tmp_path / "layout.json"
    path.write_text(
        json.dumps({"part_numerals": "roman", "stanza_numerals": "arabic"}),
        encoding="utf-8",
    )
    return str(path)
