"""The per-line reference parser.

This is the straightforward parse: split the text at its terminators, then
walk every line through the header matchers and the structural state
machine, keeping one reconstruction segment per line. The package parses
the whole text with numpy and sends only blank and header-candidate lines
through that state machine; the tests compare the two on ``to_dict()``,
``reconstruct()`` and every :class:`ParseError`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Literal, Optional

from vcmarkov.corpus import LayoutConfig, Line, Part, Stanza, _match_header
from vcmarkov.errors import ParseError
from vcmarkov.schemes import EncodingScheme

import textpath_oracle


@dataclass(frozen=True)
class Segment:
    """One reconstruction unit: raw text or a reference to a parsed line."""

    kind: Literal["raw", "line"]
    text: str = ""
    ref: Optional[tuple[int, int, int]] = None  # positional (part, stanza, line)


@dataclass
class Corpus:
    source_id: str
    parts: list[Part]
    segments: list[Segment]

    def reconstruct(self) -> str:
        out = []
        for seg in self.segments:
            if seg.kind == "raw":
                out.append(seg.text)
            else:
                pi, si, li = seg.ref  # type: ignore[misc]
                line = self.parts[pi].stanzas[si].lines[li]
                out.append(line.text + line.terminator)
        return "".join(out)

    def to_dict(self) -> dict:
        return {
            "source_id": self.source_id,
            "parts": [
                {
                    "index": p.index,
                    "stanzas": [
                        {
                            "index": s.index,
                            "epigraph": s.epigraph,
                            "fused": s.fused,
                            "dotted_placeholder": s.dotted_placeholder,
                            "lines": [
                                {
                                    "text": ln.text,
                                    "terminator": ln.terminator,
                                    "char_count": ln.char_count,
                                    "word_count": ln.word_count,
                                }
                                for ln in s.lines
                            ],
                        }
                        for s in p.stanzas
                    ],
                }
                for p in self.parts
            ],
            "segments": [
                {"kind": seg.kind, "text": seg.text}
                if seg.kind == "raw"
                else {"kind": seg.kind, "ref": list(seg.ref)}  # type: ignore[arg-type]
                for seg in self.segments
            ],
        }


def parse_corpus(
    raw: str,
    layout: LayoutConfig,
    *,
    scheme: Optional[EncodingScheme] = None,
    source_id: str = "",
) -> Corpus:
    if raw == "":
        raise ParseError("empty input", 0)

    pieces = re.split(r"(\r\n|\r|\n)", raw)
    parts: list[Part] = []
    segments: list[Segment] = []
    current_part: Optional[Part] = None
    current_stanza: Optional[Stanza] = None
    pending_epigraph = False
    byte_pos = 0

    def open_stanza(index: int, *, epigraph: bool = False, fused: bool = False) -> None:
        nonlocal current_stanza
        current_stanza = Stanza(index=index, epigraph=epigraph, fused=fused)
        current_part.stanzas.append(current_stanza)  # type: ignore[union-attr]

    def last_numbered_index() -> int:
        if current_part is None:
            return 0
        return max([0] + [s.index for s in current_part.stanzas if not s.epigraph])

    for i in range(0, len(pieces), 2):
        content = pieces[i]
        terminator = pieces[i + 1] if i + 1 < len(pieces) else ""
        if content == "" and terminator == "":
            break  # trailing empty piece after the final newline
        stripped = content.strip()
        offset_here = byte_pos
        byte_pos += len(content.encode("utf-8")) + len(terminator.encode("utf-8"))

        if stripped == "":
            if layout.stanza_numerals is None:
                current_stanza = None
            segments.append(Segment(kind="raw", text=content + terminator))
            continue

        part_vals = _match_header(
            stripped, layout.part_prefix, layout.part_numerals, allow_multi=False
        )
        if part_vals is not None:
            index = part_vals[0]
            if parts and index <= parts[-1].index:
                raise ParseError(
                    f"part header {index} does not increase on {parts[-1].index}",
                    offset_here,
                )
            current_part = Part(index=index)
            parts.append(current_part)
            current_stanza = None
            pending_epigraph = False
            segments.append(Segment(kind="raw", text=content + terminator))
            continue

        if stripped == layout.epigraph_marker:
            if current_part is None:
                raise ParseError("epigraph marker before any part header", offset_here)
            current_stanza = None
            pending_epigraph = True
            segments.append(Segment(kind="raw", text=content + terminator))
            continue

        if layout.stanza_numerals is not None:
            stanza_vals = _match_header(
                stripped, layout.stanza_prefix, layout.stanza_numerals, allow_multi=True
            )
            if stanza_vals is not None:
                if current_part is None:
                    raise ParseError("stanza header before any part header", offset_here)
                floor = last_numbered_index()
                if stanza_vals[0] <= floor:
                    raise ParseError(
                        f"stanza header {stanza_vals[0]} does not increase on {floor}",
                        offset_here,
                    )
                if any(b <= a for a, b in zip(stanza_vals, stanza_vals[1:])):
                    raise ParseError(
                        "fused stanza header numerals must increase", offset_here
                    )
                open_stanza(stanza_vals[0], fused=len(stanza_vals) > 1)
                pending_epigraph = False
                segments.append(Segment(kind="raw", text=content + terminator))
                continue

        if current_part is None:
            raise ParseError("text before any part header", offset_here)
        if current_stanza is None:
            if pending_epigraph:
                open_stanza(-sum(s.epigraph for s in current_part.stanzas), epigraph=True)
                pending_epigraph = False
            elif layout.stanza_numerals is None:
                open_stanza(last_numbered_index() + 1)
            else:
                raise ParseError(
                    "content line outside any stanza (expected a stanza header)",
                    offset_here,
                )
        chars, words = textpath_oracle.line_counts(content, scheme)
        current_stanza.lines.append(Line(content, terminator, chars, words))
        segments.append(Segment(
            kind="line",
            ref=(len(parts) - 1, len(current_part.stanzas) - 1, len(current_stanza.lines) - 1),
        ))

    if not parts:
        raise ParseError("no part header found", 0)
    return Corpus(source_id=source_id, parts=parts, segments=segments)
