import hashlib
import random
import struct
import subprocess
import sys
import zlib

import numpy as np
import pytest

import fmpm.bench
import fmpm.kernels
from fmpm.bench import run_bench
from fmpm.cli import EXIT_CORRUPT, EXIT_DISAGREE, EXIT_IO, EXIT_OK, EXIT_USAGE, _load_index, main
from fmpm.index import build_index
from fmpm.kernels import Kernel, resolve_kernel

from oracles import EDGE_SIZES, edge_text, file_blocks, hamming_positions, samples_at, with_blocks


@pytest.fixture()
def acag_index(tmp_path):
    fasta = tmp_path / "ref.fa"
    fasta.write_text(">r1\nACAG\n")
    out = tmp_path / "ref.fmi"
    assert main(["index", str(fasta), "-o", str(out)]) == EXIT_OK
    return out


def test_index_and_match(acag_index, capsys):
    assert main(["match", str(acag_index), "-p", "CA", "-z", "0"]) == EXIT_OK
    out = capsys.readouterr().out
    assert out == "0\tr1\t1\t0\n"


def test_match_zero_hits_exits_zero(acag_index, capsys):
    assert main(["match", str(acag_index), "-p", "T"]) == EXIT_OK
    assert capsys.readouterr().out == ""


def test_match_inexact(acag_index, capsys):
    assert main(["match", str(acag_index), "-p", "AT", "-z", "1"]) == EXIT_OK
    out = capsys.readouterr().out
    assert out == "0\tr1\t0\t1\n0\tr1\t2\t1\n"


def test_match_degenerate_pattern(acag_index, capsys):
    assert main(["match", str(acag_index), "-p", "ANA"]) == EXIT_OK
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "non-ACGT" in captured.err


def test_match_patterns_file(acag_index, tmp_path, capsys):
    pf = tmp_path / "patterns.txt"
    pf.write_text("CA\nGG\nA\n")
    assert main(["match", str(acag_index), "-f", str(pf)]) == EXIT_OK
    out = capsys.readouterr().out
    assert out == "0\tr1\t1\t0\n2\tr1\t0\t0\n2\tr1\t2\t0\n"


def test_match_threads_same_output(acag_index, tmp_path, capsys):
    pf = tmp_path / "patterns.txt"
    pf.write_text("CA\nAG\nACAG\nTT\n")
    assert main(["match", str(acag_index), "-f", str(pf)]) == EXIT_OK
    serial = capsys.readouterr().out
    assert main(["match", str(acag_index), "-f", str(pf), "--threads", "4"]) == EXIT_OK
    assert capsys.readouterr().out == serial


def test_kernel_selections_byte_identical(acag_index, tmp_path, capsys):
    pf = tmp_path / "patterns.txt"
    pf.write_text("CA\nAG\nACAG\nAT\n")
    outputs = set()
    for kernel in ("scalar", "bytelut", "nibble", "simd", None):
        argv = ["match", str(acag_index), "-f", str(pf), "-z", "1"]
        code = main(argv if kernel is None else argv + ["--kernel", kernel])
        assert code == EXIT_OK
        outputs.add(capsys.readouterr().out)
    assert len(outputs) == 1


def test_kernel_has_one_source_and_four_names(acag_index, capsys, monkeypatch):
    assert main(["match", str(acag_index), "-p", "CA", "--kernel", "auto"]) == EXIT_USAGE
    # `fmpm bench` has no kernel option, it always runs all four: `--kernels` is unknown
    assert main(["bench", str(acag_index), "--iters", "1", "--kernels", "auto"]) == EXIT_USAGE
    capsys.readouterr()
    with pytest.raises(ValueError, match="scalar, bytelut, nibble, simd$"):
        resolve_kernel("auto")
    monkeypatch.delenv("FMPM_KERNEL", raising=False)
    assert main(["match", str(acag_index), "-p", "CA"]) == EXIT_OK
    plain = capsys.readouterr()
    # the environment selects nothing: no kernel named means bytelut
    monkeypatch.setenv("FMPM_KERNEL", "nibble")
    assert resolve_kernel(None) is Kernel.BYTELUT
    assert main(["match", str(acag_index), "-p", "CA"]) == EXIT_OK
    assert capsys.readouterr() == plain


def test_max_hits_truncation(tmp_path, capsys):
    fasta = tmp_path / "ref.fa"
    fasta.write_text(">r1\n" + "AC" * 50 + "\n")
    out = tmp_path / "ref.fmi"
    assert main(["index", str(fasta), "-o", str(out)]) == EXIT_OK
    capsys.readouterr()
    assert main(["match", str(out), "-p", "AC", "--max-hits", "3"]) == EXIT_OK
    captured = capsys.readouterr()
    assert len(captured.out.splitlines()) == 3
    assert "truncated" in captured.err


def test_usage_errors(acag_index):
    assert main(["match", str(acag_index)]) == EXIT_USAGE
    assert main(["match", str(acag_index), "-p", "CA", "-z", "-1"]) == EXIT_USAGE
    assert main(["match", str(acag_index), "-p", ""]) == EXIT_USAGE
    assert main(["nonsense"]) == EXIT_USAGE
    assert main(["match", str(acag_index), "-p", "CA", "--kernel", "bogus"]) == EXIT_USAGE
    assert main(["bench", str(acag_index), "--iters", "0"]) == EXIT_USAGE


def test_budget_at_pattern_length_rejected(acag_index, tmp_path, capsys):
    assert main(["match", str(acag_index), "-p", "ACG", "-z", "3"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "pattern 0 has 3 character(s)" in captured.err
    pf = tmp_path / "patterns.txt"
    pf.write_text("CAG\nAC\nACAG\n")
    assert main(["match", str(acag_index), "-f", str(pf), "-z", "2", "--max-hits", "5"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "pattern 1 has 2" in captured.err
    assert main(["match", str(acag_index), "-p", "ACG", "-z", "2"]) == EXIT_OK


def test_negative_budget_or_hit_limit_refused_before_any_io(acag_index, tmp_path, capsys):
    missing = str(tmp_path / "missing.fmi")
    for index in (str(acag_index), missing):
        assert main(["match", index, "-p", "CA", "-z", "-1"]) == EXIT_USAGE
        assert capsys.readouterr().err == "fmpm: difference budget -1 is negative\n"
        assert main(["match", index, "-p", "CA", "--max-hits", "-1"]) == EXIT_USAGE
        assert capsys.readouterr().err == "fmpm: hit limit -1 is negative\n"
    assert main(["match", missing, "-p", "CA", "--max-hits", "0"]) == EXIT_IO


def test_threads_validated(acag_index, capsys):
    assert main(["match", str(acag_index), "-p", "CA", "--threads", "0"]) == EXIT_USAGE
    assert "--threads" in capsys.readouterr().err


def test_io_errors(tmp_path):
    missing = tmp_path / "missing.fa"
    assert main(["index", str(missing), "-o", str(tmp_path / "x.fmi")]) == EXIT_IO
    assert main(["match", str(tmp_path / "missing.fmi"), "-p", "CA"]) == EXIT_IO


def test_corrupt_index(acag_index):
    blob = bytearray(acag_index.read_bytes())
    blob[-2] ^= 0xFF
    acag_index.write_bytes(bytes(blob))
    assert main(["match", str(acag_index), "-p", "CA"]) == EXIT_CORRUPT


def test_bytes_after_the_trailer_exit_corrupt(acag_index, tmp_path, capsys):
    # two indexes end to end are not one index file
    blob = acag_index.read_bytes()
    twice = tmp_path / "twice.fmi"
    twice.write_bytes(blob + blob)
    assert main(["match", str(twice), "-p", "CA"]) == EXIT_CORRUPT
    assert main(["bench", str(twice), "--iters", "1"]) == EXIT_CORRUPT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("bytes after the checksum trailer") == 2


def _rewrite_with_crc(path, offset, data):
    """Overwrite bytes of an index file and store a matching checksum."""
    blob = bytearray(path.read_bytes()[:-4])
    blob[offset : offset + len(data)] = data
    path.write_bytes(bytes(blob) + struct.pack("<I", zlib.crc32(blob)))


def test_out_of_range_sentinel_row_exits_corrupt(acag_index, capsys):
    _rewrite_with_crc(acag_index, 24, struct.pack("<Q", 4 + 1000))  # sentinel_row field
    assert main(["match", str(acag_index), "-p", "CA"]) == EXIT_CORRUPT
    assert "sentinel row" in capsys.readouterr().err


def test_non_utf8_record_name_exits_corrupt(acag_index, capsys):
    # the file ends with the names, here "r1", then the CRC
    name_at = len(acag_index.read_bytes()) - 4 - 2
    _rewrite_with_crc(acag_index, name_at, b"\xff1")
    assert main(["match", str(acag_index), "-p", "CA"]) == EXIT_CORRUPT
    assert "not UTF-8" in capsys.readouterr().err


# a 10-bit field holds values up to 1023 but only [0, 1000] are positions;
# negative samples, which no field holds, are checked through the constructor
@pytest.mark.parametrize("sample", [1000 + 1, 2**10 - 1], ids=["n+1", "all-ones"])
def test_out_of_range_sample_exits_corrupt(tmp_path, capsys, sample):
    # row 32 starts with A, so `-p A` reads sample 1 (SA[32]) to locate it
    rng = random.Random(5)
    reference = "".join(rng.choice("ACGT") for _ in range(1000))
    fasta, fmi = tmp_path / "ref.fa", tmp_path / "ref.fmi"
    fasta.write_text(">r1\n" + reference + "\n")
    assert main(["index", str(fasta), "-o", str(fmi)]) == EXIT_OK
    assert main(["match", str(fmi), "-p", "A"]) == EXIT_OK
    capsys.readouterr()
    # 10-bit samples, sample 1 being bits 10 to 19 of the section's first 3 bytes
    blob = fmi.read_bytes()
    at = samples_at(blob)
    head = int.from_bytes(blob[at : at + 3], "little")
    head = head & ~(1023 << 10) | sample << 10
    _rewrite_with_crc(fmi, at, head.to_bytes(3, "little"))
    assert main(["match", str(fmi), "-p", "A"]) == EXIT_CORRUPT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "outside [0, 1000]" in captured.err


@pytest.fixture()
def two_record_index(tmp_path):
    rng = random.Random(9)
    fasta, fmi = tmp_path / "two.fa", tmp_path / "two.fmi"
    fasta.write_text("".join(f">r{j}\n{''.join(rng.choices('ACGT', k=2500))}\n" for j in (1, 2)))
    assert main(["index", str(fasta), "-o", str(fmi)]) == EXIT_OK
    return fmi


# bucket j: bytes 32 * j to 32 * j + 31 of the inflated bucket section;
# 5,001 transform fields fill buckets 0 to 39.  A zeroed block adds A
# fields, which the header's C table does not count
@pytest.mark.parametrize("bucket", [0, 5, 19, 39])
def test_zeroed_bucket_block_exits_corrupt(two_record_index, capsys, bucket):
    blob = two_record_index.read_bytes()
    blocks = file_blocks(blob)
    blocks[32 * bucket : 32 * bucket + 32] = bytes(32)
    two_record_index.write_bytes(with_blocks(blob, bytes(blocks)))
    assert main(["match", str(two_record_index), "-p", "ACGTA"]) == EXIT_CORRUPT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("fmpm: corrupt index: ")


def test_duplicate_record_name_behind_a_valid_checksum_exits_corrupt(two_record_index, capsys):
    # the file ends with the names "r1\nr2", then the CRC
    name_at = len(two_record_index.read_bytes()) - 4 - 2
    _rewrite_with_crc(two_record_index, name_at, b"r1")
    assert main(["match", str(two_record_index), "-p", "ACGTA"]) == EXIT_CORRUPT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "record name 'r1' is used twice" in captured.err


def test_record_name_with_a_tab_behind_a_valid_checksum_exits_corrupt(two_record_index, capsys):
    # a tab would split the name across two fields of each hit line
    name_at = len(two_record_index.read_bytes()) - 4 - 2
    _rewrite_with_crc(two_record_index, name_at, b"r\t")
    assert main(["match", str(two_record_index), "-p", "ACGTA"]) == EXIT_CORRUPT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "record name 'r\\t' is empty or holds whitespace" in captured.err


def test_not_an_index(tmp_path):
    bogus = tmp_path / "bogus.fmi"
    bogus.write_bytes(b"this is not an index file at all")
    assert main(["match", str(bogus), "-p", "CA"]) == EXIT_CORRUPT


def test_fasta_error_names_offset(tmp_path, capsys):
    fasta = tmp_path / "bad.fa"
    fasta.write_text(">r1\nACNG\n")
    assert main(["index", str(fasta), "-o", str(tmp_path / "x.fmi")]) == EXIT_USAGE
    assert "offset 2" in capsys.readouterr().err


def test_sanitize_warns_and_builds(tmp_path, capsys):
    fasta = tmp_path / "dirty.fa"
    fasta.write_text(">r1\nACNGN\n")
    out = tmp_path / "dirty.fmi"
    assert main(["index", str(fasta), "-o", str(out), "--sanitize"]) == EXIT_OK
    assert "sanitized 2" in capsys.readouterr().err
    assert main(["match", str(out), "-p", "ACAGA"]) == EXIT_OK
    assert capsys.readouterr().out == "0\tr1\t0\t0\n"


def test_duplicate_record_name_is_a_usage_error(tmp_path, capsys):
    # hits print only the record name, so the two r1 records could not be told apart
    fasta, out = tmp_path / "dup.fa", tmp_path / "dup.fmi"
    fasta.write_text(">r1\nACGT\n>r2\nGGCA\n>r1\nTTAC\n")
    assert main(["index", str(fasta), "-o", str(out)]) == EXIT_USAGE
    assert "record name 'r1' is used twice" in capsys.readouterr().err
    assert not out.exists()


BOM = "\ufeff"


def test_fasta_with_a_byte_order_mark_indexes_as_without(tmp_path):
    indexes = []
    for name, prefix in (("plain", ""), ("bom", BOM)):
        fasta, out = tmp_path / f"{name}.fa", tmp_path / f"{name}.fmi"
        fasta.write_text(f"{prefix}>r1\nACAGTTACAG\n>r2\nGGCA\n", encoding="utf-8")
        assert main(["index", str(fasta), "-o", str(out)]) == EXIT_OK
        indexes.append(out.read_bytes())
    assert indexes[0] == indexes[1]


def test_patterns_file_with_a_byte_order_mark_reads_as_without(acag_index, tmp_path, capsys):
    outputs = []
    for name, prefix in (("plain", ""), ("bom", BOM)):
        pf = tmp_path / f"{name}.txt"
        pf.write_text(f"{prefix}CA\nAG\n", encoding="utf-8")
        assert main(["match", str(acag_index), "-f", str(pf)]) == EXIT_OK
        outputs.append(capsys.readouterr())
    assert outputs[0] == outputs[1]
    assert outputs[1].out == "0\tr1\t1\t0\n1\tr1\t2\t0\n"
    assert outputs[1].err == ""


def test_files_that_are_not_utf8_stay_usage_errors(acag_index, tmp_path, capsys):
    bad = tmp_path / "latin1.txt"
    bad.write_bytes(b">r\xe91\nACGT\n")
    assert main(["index", str(bad), "-o", str(tmp_path / "x.fmi")]) == EXIT_USAGE
    assert main(["match", str(acag_index), "-f", str(bad)]) == EXIT_USAGE
    err = capsys.readouterr().err.splitlines()
    message = "fmpm: 'utf-8' codec can't decode byte 0xe9 in position 2: invalid continuation byte"
    assert err == [message] * 2


def test_multi_record_offsets(tmp_path, capsys):
    fasta = tmp_path / "two.fa"
    fasta.write_text(">r1\nAAACCC\n>r2\nGGGTTT\n")
    out = tmp_path / "two.fmi"
    assert main(["index", str(fasta), "-o", str(out)]) == EXIT_OK
    capsys.readouterr()
    assert main(["match", str(out), "-p", "GGG"]) == EXIT_OK
    assert capsys.readouterr().out == "0\tr2\t0\t0\n"
    # junction-only match is filtered
    assert main(["match", str(out), "-p", "CCGG"]) == EXIT_OK
    assert capsys.readouterr().out == ""


# Above -z 0 one interval stands for text strings of several lengths, so the
# search keeps each string's span and locate drops a hit whose span crosses
# its record's end: a hit may not cross a junction, and one inside a record is
# not lost to a string with fewer differences that crosses one
@pytest.mark.parametrize(
    "fasta, pattern, line, reported",
    [
        # a[7:] is "T"; the one-difference match "TG" runs into b
        (">a\nACGTACGT\n>b\nGGGG\n", "CG", "0\ta\t7\t1\n", False),
        # "ACCGCG" at a:2 is one deletion away; the exact "ACCGCGG" crosses into b
        (">a\nTTACCGCG\n>b\nGTTT\n", "ACCGCGG", "0\ta\t2\t1\n", True),
    ],
    ids=["crossing-hit-reported", "inner-hit-missed"],
)
def test_inexact_hits_at_record_junctions(tmp_path, capsys, fasta, pattern, line, reported):
    path, fmi = tmp_path / "ref.fa", tmp_path / "ref.fmi"
    path.write_text(fasta)
    assert main(["index", str(path), "-o", str(fmi)]) == EXIT_OK
    capsys.readouterr()
    assert main(["match", str(fmi), "-p", pattern, "-z", "1"]) == EXIT_OK
    assert (line in capsys.readouterr().out) == reported


@pytest.mark.parametrize(
    "reference", ["ACGTTGCAAC" * 30, None, "A"], ids=["300-chars", "acag", "one-char"]
)
def test_bench_checksums_agree(reference, acag_index, tmp_path, capsys, monkeypatch):
    match_many = fmpm.bench.match_many

    def match_as_cli_allows(index, patterns, max_diff, kernel):
        # `fmpm match` refuses -z at or above a pattern's length
        assert all(len(p) > max_diff for p in patterns), (patterns, max_diff)
        return match_many(index, patterns, max_diff, kernel)

    monkeypatch.setattr(fmpm.bench, "match_many", match_as_cli_allows)
    out = acag_index  # shorter than the shortest drawn pattern
    if reference is not None:
        fasta = tmp_path / "ref2.fa"
        fasta.write_text(f">r1\n{reference}\n")
        out = tmp_path / "ref2.fmi"
        assert main(["index", str(fasta), "-o", str(out)]) == EXIT_OK
    capsys.readouterr()
    assert main(["bench", str(out), "--iters", "10", "--seed", "3"]) == EXIT_OK
    captured = capsys.readouterr()
    rows = [line.split("\t") for line in captured.out.strip().splitlines()]
    assert [r[0] for r in rows] == ["scalar", "bytelut", "nibble", "simd"]
    assert len({r[5] for r in rows}) == 1
    assert "answer checksums agree" in captured.err


@pytest.mark.parametrize("n", EDGE_SIZES)
def test_bench_patterns_are_text_within_one_substitution(n):
    # the patterns are read by backward walks from sampled rows, not cut
    # from a rebuilt text; each is a substring with at most one change
    text = edge_text(n)
    index = build_index(text)
    workload = fmpm.bench._build_workload(index, 40, n)
    assert len(workload.exact_patterns) == 40
    for pattern in workload.exact_patterns:
        assert min(8, n) <= len(pattern) <= min(24, n)
        assert hamming_positions(text.upper(), pattern, 1), pattern
    again = fmpm.bench._build_workload(index, 40, n)
    assert again.exact_patterns == workload.exact_patterns
    assert again.inexact_patterns == workload.inexact_patterns
    for name in ("blocks", "prefix_lens", "symbols"):
        assert np.array_equal(getattr(again, name), getattr(workload, name)), name


@pytest.mark.parametrize("seed", [0, 5])
def test_bench_checksum_hashes_the_lines_match_prints(tmp_path, capsys, seed):
    rng = random.Random(seed)
    fasta, out = tmp_path / "ref.fa", tmp_path / "ref.fmi"
    fasta.write_text(
        "".join(f">r{j}\n{''.join(rng.choices('ACGT', k=400))}\n" for j in range(3))
    )
    assert main(["index", str(fasta), "-o", str(out)]) == EXIT_OK
    index = _load_index(str(out))
    workload = fmpm.bench._build_workload(index, 30, seed)
    stdout = []
    for z, patterns in (("0", workload.exact_patterns), ("1", workload.inexact_patterns)):
        pf = tmp_path / f"z{z}.txt"
        pf.write_text("".join(p + "\n" for p in patterns))
        capsys.readouterr()
        assert main(["match", str(out), "-f", str(pf), "-z", z]) == EXIT_OK
        stdout.append(capsys.readouterr().out)
    assert stdout[0] and stdout[1]
    want = hashlib.sha256("".join(stdout).encode()).hexdigest()
    reports = run_bench(index, iterations=30, seed=seed)
    assert [(r.kernel, r.checksum) for r in reports] == [(k.value, want) for k in Kernel]


def test_bench_exits_4_when_kernels_disagree(tmp_path, capsys, monkeypatch):
    simd = fmpm.kernels.count_blocks_simd

    def miscount(masked, symbol=None):
        counts = simd(masked, symbol)
        if symbol is None:
            # C, G and T rank as their bucket bases alone: wrong, yet within
            # their C-table ranges, so the one-difference answers change
            counts[:, 1:] = 0
        return counts

    monkeypatch.setattr(fmpm.kernels, "count_blocks_simd", miscount)
    fasta, out = tmp_path / "ref.fa", tmp_path / "ref.fmi"
    fasta.write_text(">r1\n" + "ACGTTGCAAC" * 30 + "\n")
    assert main(["index", str(fasta), "-o", str(out)]) == EXIT_OK
    capsys.readouterr()
    assert main(["bench", str(out), "--iters", "10", "--seed", "3"]) == EXIT_DISAGREE
    captured = capsys.readouterr()
    checksums = dict(line.split("\t")[::5] for line in captured.out.strip().splitlines())
    assert checksums["scalar"] == checksums["bytelut"] == checksums["nibble"] != checksums["simd"]
    assert "WARNING: answer checksums differ across kernels" in captured.err.splitlines()


def test_console_entry_point(acag_index):
    proc = subprocess.run(
        [sys.executable, "-m", "fmpm", "match", str(acag_index), "-p", "CA"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == EXIT_OK
    assert proc.stdout == "0\tr1\t1\t0\n"


@pytest.mark.parametrize(
    "name, pattern, code",
    [
        ("ref.fmi", [], EXIT_USAGE),
        ("missing.fmi", ["-p", "CA"], EXIT_IO),
        ("cut.fmi", ["-p", "CA"], EXIT_CORRUPT),
    ],
)
def test_console_entry_point_exit_codes(acag_index, capsys, name, pattern, code):
    (acag_index.parent / "cut.fmi").write_bytes(acag_index.read_bytes()[:-1])
    argv = ["match", str(acag_index.parent / name), *pattern]
    assert main(argv) == code
    want = capsys.readouterr()
    proc = subprocess.run([sys.executable, "-m", "fmpm", *argv], capture_output=True, text=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, want.out, want.err)
    assert proc.stderr.startswith("fmpm: ")
