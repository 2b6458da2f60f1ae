"""Run manifests and atomic, manifest-stamped output files.

Every command invocation builds one RunManifest describing its inputs
(file digests), configuration, seeds, scheme, and tool version. The
manifest hash covers exactly those fields, never the timestamp, so two
runs with identical inputs produce byte-identical data files; each data
file carries the hash of the manifest that produced it (a ``# manifest:``
comment line in CSV and text outputs, a ``"manifest_hash"`` key in JSON).

Files are written to a temporary name in the target directory and then
renamed, and every file already written is removed if the run fails, so
an output directory never holds a partial result set.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import tempfile
from dataclasses import dataclass, field
from datetime import datetime, timezone
from typing import Callable, Iterable, Sequence, TextIO

from . import __version__

TOOL_NAME = "vcmarkov"


def _now_iso() -> str:
    # SOURCE_DATE_EPOCH makes even the manifest timestamp reproducible
    epoch = os.environ.get("SOURCE_DATE_EPOCH")
    if epoch is not None:
        return datetime.fromtimestamp(int(epoch), tz=timezone.utc).isoformat()
    return datetime.now(timezone.utc).isoformat()


def sha256_file(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, ensure_ascii=False, separators=(",", ":"))


@dataclass
class RunManifest:
    command: str
    config: dict
    inputs: dict
    seeds: dict
    schemes: dict
    tool: str = TOOL_NAME
    version: str = __version__
    created: str = field(default_factory=_now_iso)

    @property
    def config_hash(self) -> str:
        # the timestamp stays out of the hash: reruns with identical inputs
        # must stamp their outputs identically
        body = {
            "command": self.command,
            "config": self.config,
            "inputs": self.inputs,
            "seeds": self.seeds,
            "schemes": self.schemes,
            "tool": self.tool,
            "version": self.version,
        }
        return hashlib.sha256(canonical_json(body).encode("utf-8")).hexdigest()

    def to_dict(self) -> dict:
        return {
            "tool": self.tool,
            "version": self.version,
            "command": self.command,
            "config": self.config,
            "inputs": self.inputs,
            "seeds": self.seeds,
            "schemes": self.schemes,
            "created": self.created,
            "manifest_hash": self.config_hash,
        }


def build_manifest(
    command: str,
    config: dict,
    input_paths: Iterable[str],
    seeds: dict,
    schemes: dict,
) -> RunManifest:
    inputs = {os.path.basename(p): sha256_file(p) for p in sorted(set(input_paths))}
    return RunManifest(
        command=command, config=config, inputs=inputs, seeds=seeds, schemes=schemes
    )


def _fmt(value) -> str:
    if isinstance(value, float):
        # np.float64 is a float whose repr is "np.float64(...)" under numpy 2
        return repr(float(value))
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


_AS_IS = frozenset({int, str})


class OutputSet:
    """Atomic writer for one run's output directory."""

    def __init__(self, out_dir: str, manifest: RunManifest):
        self.out_dir = out_dir
        self.manifest = manifest
        self.written: list[str] = []
        os.makedirs(out_dir, exist_ok=True)

    def _write_atomic(self, name: str, write: Callable[[TextIO], object]) -> str:
        """Create ``name`` by calling ``write`` on a temporary file in the
        output directory, then renaming it; the text streams to disk as it
        is produced."""
        final = os.path.join(self.out_dir, name)
        fd, tmp = tempfile.mkstemp(dir=self.out_dir, prefix=name + ".", suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
                write(fh)
            os.replace(tmp, final)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
        self.written.append(final)
        return final

    def write_csv(self, name: str, header: Sequence[str], rows: Iterable[Sequence]) -> str:
        def write(fh: TextIO) -> None:
            fh.write(f"# manifest: {self.manifest.config_hash}\n")
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            # csv writes int and str cells as _fmt would; bools, floats
            # (numpy floats among them) and anything else are formatted here
            writer.writerows([v if type(v) in _AS_IS else _fmt(v) for v in row] for row in rows)

        return self._write_atomic(name, write)

    def write_json(self, name: str, payload: dict) -> str:
        body = {"manifest_hash": self.manifest.config_hash}
        body.update(payload)
        text = json.dumps(body, sort_keys=True, ensure_ascii=False, indent=2) + "\n"
        return self._write_atomic(name, lambda fh: fh.write(text))

    def write_text(self, name: str, text: str) -> str:
        content = f"# manifest: {self.manifest.config_hash}\n{text}\n"
        return self._write_atomic(name, lambda fh: fh.write(content))

    def write_manifest(self, name: str = "manifest.json") -> str:
        text = json.dumps(self.manifest.to_dict(), sort_keys=True, ensure_ascii=False, indent=2)
        return self._write_atomic(name, lambda fh: fh.write(text + "\n"))

    def discard_all(self) -> None:
        for path in self.written:
            try:
                os.unlink(path)
            except OSError:
                pass
        self.written.clear()
