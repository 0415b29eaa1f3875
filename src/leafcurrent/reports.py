"""Deterministic report assembly and emission.

A run produces a :class:`ReportBundle`: metadata (config hash, seed, tool
version), an ordered list of named tables, and a deduplicated warning list.
Emission is byte-deterministic — numbers are serialized with 17 significant
digits (enough to round-trip doubles exactly), newline is always ``\\n``,
tables are written in bundle order, and nothing timestamp- or
environment-dependent enters the files.  Identical resolved configuration
plus seed therefore reproduces every output byte.

CSV output writes one file per table (``<name>.csv``) plus
``metadata.json``; JSON output mirrors the same data in a single
``report.json``.  The standard-library JSON encoder has no float-format
hook, so the (tiny) document writer here formats floats itself.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

__all__ = [
    "Table",
    "ReportBundle",
    "format_number",
    "dumps_canonical",
    "config_hash",
    "table_to_csv",
    "bundle_to_json",
    "emit_reports",
    "tool_version",
]


def tool_version() -> str:
    """``leafcurrent.__version__``: the same in a source checkout as in an installed copy."""
    from . import __version__  # at call time: the package imports this module first

    return __version__


@dataclass(frozen=True)
class Table:
    """One named report table: a fixed header and homogeneous rows."""

    name: str
    header: tuple[str, ...]
    rows: tuple[tuple, ...]

    def __post_init__(self) -> None:
        for row in self.rows:
            if len(row) != len(self.header):
                raise ValueError(
                    f"table {self.name!r}: row width {len(row)} != header width {len(self.header)}"
                )


@dataclass(frozen=True)
class ReportBundle:
    """Everything one command run emits, in fixed order.

    ``metadata`` must make the run reproducible: the resolved-config hash,
    the seed, and the tool version.  ``warnings`` carries each distinct
    module warning exactly once, in first-occurrence order.
    """

    metadata: Mapping[str, object]
    tables: tuple[Table, ...]
    warnings: tuple[str, ...]


def format_number(value) -> str:
    """Serialize a number with 17 significant digits (round-trip exact)."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    return format(float(value), ".17g")


def _write_json(value, out: list, indent: int, level: int) -> None:
    if value is None:
        out.append("null")
    elif isinstance(value, bool):
        out.append("true" if value else "false")
    elif isinstance(value, (int, float)):
        out.append(format_number(value))
    elif isinstance(value, str):
        out.append(json.dumps(value, ensure_ascii=True))
    elif isinstance(value, (Mapping, list, tuple)):
        # indent == 0 is the compact form: no newlines, no space after ":"
        if isinstance(value, Mapping):
            brackets, items = "{}", []
            for key, item in sorted(value.items()):
                if not isinstance(key, str):
                    raise TypeError(f"non-string mapping key {key!r}")
                items.append((json.dumps(key, ensure_ascii=True) + (": " if indent else ":"), item))
        else:
            brackets, items = "[]", [("", item) for item in value]
        pad = "\n" + " " * (indent * (level + 1)) if indent else ""
        out.append(brackets[0])
        for i, (prefix, item) in enumerate(items):
            out.append(("," if i else "") + pad + prefix)
            _write_json(item, out, indent, level + 1)
        if items and indent:
            out.append("\n" + " " * (indent * level))
        out.append(brackets[1])
    else:
        raise TypeError(f"cannot serialize {type(value).__name__}")


def dumps_canonical(value, indent: int = 0) -> str:
    """Canonical JSON text: sorted keys, 17-significant-digit floats.

    ``indent=0`` emits the compact one-line form used for hashing; a
    positive ``indent`` pretty-prints (same bytes for the same input
    either way, since key order and number formatting are fixed).
    """
    out: list = []
    _write_json(value, out, indent, 0)
    return "".join(out)


def config_hash(resolved: Mapping) -> str:
    """SHA-256 of the canonical serialization of a resolved config document.

    The output directory is masked before hashing: it steers where files
    land, never what bytes they contain.
    """
    doc = dict(resolved)
    outputs = dict(doc.get("outputs") or {})
    outputs["directory"] = None
    doc["outputs"] = outputs
    text = dumps_canonical(doc)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _format_cell(cell) -> str:
    if isinstance(cell, str):
        if "," in cell or "\n" in cell or '"' in cell:
            raise ValueError(f"CSV cell needs quoting, which reports avoid: {cell!r}")
        return cell
    return format_number(cell)


def table_to_csv(table: Table) -> str:
    """CSV text of one table: fixed header line, ``\\n`` newlines."""
    lines = [",".join(table.header)]
    for row in table.rows:
        lines.append(",".join(_format_cell(cell) for cell in row))
    return "\n".join(lines) + "\n"


def bundle_to_json(bundle: ReportBundle) -> str:
    """The whole bundle as one pretty-printed canonical JSON document."""
    doc = {
        "metadata": dict(bundle.metadata),
        "tables": [
            {"name": t.name, "header": list(t.header), "rows": [list(r) for r in t.rows]}
            for t in bundle.tables
        ],
        "warnings": list(bundle.warnings),
    }
    return dumps_canonical(doc, indent=2) + "\n"


def emit_reports(bundle: ReportBundle, out_dir, format: str = "csv") -> list[Path]:
    """Write the bundle under ``out_dir`` and return the paths written.

    ``csv`` writes ``<table>.csv`` per table plus ``metadata.json``;
    ``json`` writes a single ``report.json`` mirroring the same data.
    ``OSError`` (unwritable path) propagates to the caller.
    """
    if format not in ("csv", "json"):
        raise ValueError(f"unknown report format {format!r}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    if format == "json":
        path = out / "report.json"
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(bundle_to_json(bundle))
        written.append(path)
        return written
    for table in bundle.tables:
        path = out / f"{table.name}.csv"
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(table_to_csv(table))
        written.append(path)
    meta_doc = {"metadata": dict(bundle.metadata), "warnings": list(bundle.warnings)}
    path = out / "metadata.json"
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(dumps_canonical(meta_doc, indent=2) + "\n")
    written.append(path)
    return written
