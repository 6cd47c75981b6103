"""Minimal FASTA reading with optional sanitization."""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable

from .alphabet import CODE_OF


_NON_ACGT = re.compile(f"[^{''.join(CODE_OF)}]")


class FastaError(ValueError):
    """Malformed or unusable FASTA input."""


@dataclass(frozen=True)
class FastaRecord:
    """One parsed record; `substituted` counts characters rewritten to A."""

    name: str
    sequence: str
    substituted: int = 0


def read_fasta(source: Iterable[str], sanitize: bool = False) -> list[FastaRecord]:
    """Parse FASTA records from a text stream.

    Sequence lines are folded together and uppercased.  Characters outside
    ACGT raise an error naming the record and offset unless `sanitize` is
    set, in which case they are replaced by A and counted per record.
    """
    records: list[FastaRecord] = []
    name: str | None = None
    parts: list[str] = []

    def flush() -> None:
        if name is None:
            return
        sequence = "".join(parts)
        if not sequence:
            raise FastaError(f"record {name!r} has an empty sequence")
        cleaned, substituted = _clean(name, sequence, sanitize)
        records.append(FastaRecord(name=name, sequence=cleaned, substituted=substituted))

    for line in source:
        line = line.strip()
        if not line:
            continue
        if line.startswith(">"):
            flush()
            name = line[1:].split()[0] if line[1:].split() else ""
            if not name:
                raise FastaError("record header has no name")
            parts = []
        else:
            if name is None:
                raise FastaError("sequence data before the first record header")
            parts.append(line)
    flush()
    if not records:
        raise FastaError("no records found; input is empty or not FASTA")
    return records


def _clean(name: str, sequence: str, sanitize: bool) -> tuple[str, int]:
    if sanitize:
        cleaned, substituted = _NON_ACGT.subn("A", sequence)
        return cleaned.upper(), substituted
    bad = _NON_ACGT.search(sequence)
    if bad:
        raise FastaError(
            f"record {name!r} contains non-ACGT character {bad.group()!r} at offset {bad.start()}"
        )
    return sequence.upper(), 0
