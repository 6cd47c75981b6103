"""The package entry: names loaded on first use, what `fmpm match` imports,
and the BLAS thread default and garbage-collector handling of the command
line."""

import gc
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import fmpm
import fmpm.__main__
import fmpm.cli
from fmpm.index import build_index
from fmpm.serialize import serialize_index


def _python(*args, env=None):
    proc = subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, check=True
    )
    return proc.stdout, proc.stderr


def test_import_fmpm_loads_no_numpy_and_sets_nothing():
    env = {k: v for k, v in os.environ.items() if k != fmpm.__main__.BLAS_THREADS_ENV}
    out, _ = _python(
        "-c",
        "import os, sys, fmpm, fmpm.__main__\n"
        "print(set(fmpm.__all__) <= set(dir(fmpm)))\n"
        "print(sorted(m for m in sys.modules if m == 'numpy' or m.startswith('fmpm')))\n"
        "from fmpm import build_index\n"
        f"print(os.environ.get({fmpm.__main__.BLAS_THREADS_ENV!r}))",
        env=env,
    )
    assert out == "True\n['fmpm', 'fmpm.__main__']\nNone\n"


@pytest.mark.parametrize("module", ["batch", "bench", "cli", "suffix"])
def test_submodule_without_public_names_resolves_on_first_use(module):
    # no other submodule has been imported to bind it on the package
    out, _ = _python(
        "-c",
        "import sys, fmpm\n"
        "print('numpy' in sys.modules)\n"
        f"print(fmpm.{module} is sys.modules['fmpm.{module}'])",
    )
    assert out == "False\nTrue\n"


def test_every_public_name_resolves():
    for name in fmpm.__all__:
        assert getattr(fmpm, name) is not None, name
    with pytest.raises(AttributeError):
        fmpm.no_such_name


# names that had a second, per-item form in `fmpm.search`, `fmpm.suffix` or
# `fmpm.alphabet`; `fmpm.batch` and the remaining names give each operation.
# `mask_bucket` was a second way to cut a prefix from a bucket, next to
# `kernels.mask_blocks`.  `encode` and `is_dna` were per-item forms of
# `encode_array` and `is_dna_many`, `locate_all` of `collect_hits`;
# `reconstruct_reference` had no caller once `fmpm bench` read its patterns
# by backward walks, and `suffix_array_naive` is a test oracle.  The one-bucket
# counts and `OccBucket` are one-row forms of `kernels.count_blocks` and
# `FmIndex.blocks`, left in their modules for perfbench's kernel timings;
# `OccCounts` and `NibbleTables` are gone
REMOVED_NAMES = (
    "NibbleTables",
    "OccBucket",
    "OccCounts",
    "OccPair",
    "PackedText",
    "build_suffix_array",
    "bwt_char_at",
    "bwt_from_sa",
    "count_bucket_all4",
    "count_bucket_bytelut",
    "count_bucket_nibble",
    "count_bucket_scalar",
    "count_bucket_simd",
    "decode",
    "encode",
    "extend_backward",
    "init_interval",
    "is_dna",
    "locate_all",
    "locate_row",
    "mask_bucket",
    "occ",
    "occ_all",
    "occ_pair_all",
    "pack_2bit",
    "psi_inverse",
    "psi_inverse_fused",
    "reconstruct_reference",
    "suffix_array_naive",
    "unpack_2bit",
)


def test_removed_names_are_gone():
    assert len(fmpm.__all__) == 34
    for name in REMOVED_NAMES:
        assert name not in fmpm.__all__, name
        with pytest.raises(AttributeError):
            getattr(fmpm, name)
    # what perfbench/traced.py still reads from the modules themselves
    assert callable(fmpm.kernels.count_bucket_scalar)
    assert callable(fmpm.index.OccBucket)


@pytest.mark.parametrize("first", ["pass", "import fmpm.search", "fmpm.collect_hits"])
def test_exact_search_is_the_function_whatever_has_been_loaded(first):
    out, _ = _python(
        "-c",
        f"import fmpm\n{first}\n"
        "from fmpm import exact_search, build_index\n"
        "from fmpm.search import exact_search as function\n"
        "print(exact_search is function, fmpm.exact_search is function,\n"
        "      tuple(fmpm.exact_search(build_index('ACAG'), 'CA')))\n"
        "fmpm.exact_search = len\n"
        "print(fmpm.exact_search is len)",
    )
    assert out == "True True (3, 3, False)\nTrue\n"


def _readme_python_blocks():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    return re.findall(r"^```python\n(.*?)^```$", text, flags=re.DOTALL | re.MULTILINE)


def test_readme_library_imports_work_in_a_fresh_interpreter(tmp_path):
    blocks = _readme_python_blocks()
    assert len(blocks) >= 2
    # the blocks run in order, as one program, where they write their files;
    # then every public name comes with a star import
    script = tmp_path / "readme.py"
    script.write_text(
        "\n".join(blocks)
        + "\nimport fmpm\nfrom fmpm import *\n"
        + "print(all(name in globals() for name in fmpm.__all__), fmpm.kernels.BUCKET_CHARS)\n",
        encoding="utf-8",
    )
    src = str(Path(fmpm.__file__).resolve().parents[1])
    path = [src, *filter(None, [os.environ.get("PYTHONPATH")])]
    proc = subprocess.run(
        [sys.executable, str(script)],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(path)),
    )
    assert (proc.returncode, proc.stdout) == (0, "True 128\n"), proc.stderr
    assert (tmp_path / "ref.fmi").stat().st_size > 0


def test_match_child_imports_no_search_build_or_bench_code(tmp_path):
    fmi = tmp_path / "ref.fmi"
    with open(fmi, "wb") as fh:
        serialize_index(build_index("ACAGTTACAG"), fh)
    out, err = _python("-X", "importtime", "-m", "fmpm", "match", str(fmi), "-p", "CAG")
    assert out == "0\tref\t1\t0\n0\tref\t7\t0\n"
    loaded = {line.rsplit("|", 1)[1].strip() for line in err.splitlines() if "|" in line}
    assert {"fmpm.batch", "numpy"} <= loaded
    assert not loaded & {"fmpm.search", "fmpm.bench", "fmpm.fasta", "hashlib"}


def test_index_child_imports_no_query_engine(tmp_path):
    fasta = tmp_path / "ref.fa"
    fasta.write_text(">ref\nACAGTTACAG\n")
    fmi = tmp_path / "ref.fmi"
    _, err = _python("-X", "importtime", "-m", "fmpm", "index", str(fasta), "-o", str(fmi))
    assert "indexed 1 record(s), 10 characters" in err
    loaded = {line.rsplit("|", 1)[1].strip() for line in err.splitlines() if "|" in line}
    assert {"fmpm.index", "fmpm.fasta", "numpy"} <= loaded
    assert not loaded & {"fmpm.batch", "fmpm.search", "fmpm.bench"}


@pytest.fixture()
def unfreeze():
    # `fmpm.__main__.main()` freezes every object alive when it has imported
    # the command line; give the suite's own objects back to the collector
    yield
    gc.unfreeze()


def test_entry_sets_one_blas_thread_only_when_unset(monkeypatch, unfreeze):
    seen = []
    monkeypatch.setattr(
        fmpm.cli, "main_entry", lambda: seen.append(os.environ.get(fmpm.__main__.BLAS_THREADS_ENV))
    )
    monkeypatch.setenv(fmpm.__main__.BLAS_THREADS_ENV, "3")
    fmpm.__main__.main()
    monkeypatch.delenv(fmpm.__main__.BLAS_THREADS_ENV)
    fmpm.__main__.main()
    assert seen == ["3", "1"]


def test_entry_imports_without_collections_then_freezes_them():
    out, _ = _python(
        "-c",
        "import gc, fmpm.__main__, fmpm.cli\n"
        "print(gc.isenabled(), gc.get_freeze_count())\n"
        "fmpm.cli.main_entry = lambda: print(gc.isenabled(), gc.get_freeze_count() > 0)\n"
        "fmpm.__main__.main()\n"
        "print(gc.isenabled())",
    )
    assert out == "True 0\nTrue True\nTrue\n"


def test_entry_enables_collections_when_the_import_fails(monkeypatch, unfreeze):
    monkeypatch.setenv(fmpm.__main__.BLAS_THREADS_ENV, "1")
    monkeypatch.setitem(sys.modules, "fmpm.cli", None)
    with pytest.raises(ImportError):
        fmpm.__main__.main()
    assert gc.isenabled()


def test_in_process_command_leaves_the_collector_alone(tmp_path, capsys):
    fmi = tmp_path / "ref.fmi"
    with open(fmi, "wb") as fh:
        serialize_index(build_index("ACAGTTACAG"), fh)
    before = gc.isenabled(), gc.get_freeze_count()
    assert fmpm.cli.main(["match", str(fmi), "-p", "CAG"]) == fmpm.cli.EXIT_OK
    assert (gc.isenabled(), gc.get_freeze_count()) == before
    assert capsys.readouterr().out == "0\tref\t1\t0\n0\tref\t7\t0\n"
