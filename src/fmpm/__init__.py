"""Full-text DNA pattern matching over a succinct FM-index.

The index keeps the Burrows-Wheeler transform of the reference in 2-bit
packed 128-character buckets, each carrying four 64-bit base counters,
plus every 32nd suffix-array entry.  Exact and bounded-difference
searches run backward over the packed buckets through interchangeable
occurrence-counting kernels; positions are recovered by walking
predecessor rows to the nearest sample.

`fmpm.batch` is that engine: `match_many` answers many patterns in one
pass, as `fmpm match` does, and `rank_many`, `lf_step` and `locate_rows`
count, step and locate at any number of positions or rows.  The search
functions exported here answer one pattern at a time through it, with its
checks and none of their own.

Every public name, and the submodule that defines it, is imported on
first use (PEP 562), so `import fmpm` loads neither numpy nor any
submodule.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "alphabet": (
        "A",
        "AlphabetError",
        "C",
        "CODE_OF",
        "G",
        "SYMBOLS",
        "T",
    ),
    "fasta": ("FastaError", "FastaRecord", "read_fasta"),
    "index": (
        "FmIndex",
        "SA_STRIDE",
        "build_index",
        "check_index",
    ),
    "kernels": (
        "BUCKET_BYTES",
        "BUCKET_CHARS",
        "Kernel",
        "KernelTrace",
        "resolve_kernel",
    ),
    "search": (
        "BwmInterval",
        "Hit",
        "MatchResult",
        "collect_hits",
        "exact_search",
        "inexact_search",
    ),
    "serialize": (
        "BadMagicError",
        "ChecksumError",
        "IndexFormatError",
        "TruncatedStreamError",
        "VersionMismatchError",
        "deserialize_index",
        "serialize_index",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = (*_EXPORTS, "batch", "bench", "cli", "suffix")

__all__ = sorted(_MODULE_OF)


def __dir__():
    return sorted(set(globals()) | set(__all__))


def __getattr__(name: str):
    if name in _SUBMODULES:
        return import_module(f".{name}", __name__)
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value
