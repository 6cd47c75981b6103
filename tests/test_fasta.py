import io

import pytest

from fmpm.fasta import FastaError, FastaRecord, read_fasta


def test_single_record():
    records = read_fasta(io.StringIO(">r1\nACAG\n"))
    assert records == [FastaRecord(name="r1", sequence="ACAG", substituted=0)]


def test_line_folding_and_case():
    records = read_fasta(io.StringIO(">r1 description here\nacg\nT\n\nACGT\n"))
    assert records[0].name == "r1"
    assert records[0].sequence == "ACGTACGT"


def test_multiple_records():
    records = read_fasta(io.StringIO(">a\nAC\n>b\nGT\n"))
    assert [r.name for r in records] == ["a", "b"]
    assert [r.sequence for r in records] == ["AC", "GT"]


def test_non_acgt_error_names_record_and_offset():
    with pytest.raises(FastaError, match=r"'r1'.*'N' at offset 2"):
        read_fasta(io.StringIO(">r1\nACNG\n"))


def test_offset_counts_across_folded_lines():
    with pytest.raises(FastaError, match="offset 5"):
        read_fasta(io.StringIO(">r1\nACGT\nAN\n"))


def test_sanitize_replaces_and_counts():
    records = read_fasta(io.StringIO(">r1\nACNGN\n>r2\nGGT\n"), sanitize=True)
    assert records[0].sequence == "ACAGA"
    assert records[0].substituted == 2
    assert records[1].substituted == 0
    records = read_fasta(io.StringIO(">r1\nacNgN\n"), sanitize=True)
    assert (records[0].sequence, records[0].substituted) == ("ACAGA", 2)


def test_empty_input():
    with pytest.raises(FastaError):
        read_fasta(io.StringIO(""))
    with pytest.raises(FastaError):
        read_fasta(io.StringIO("\n\n"))


def test_empty_sequence_rejected():
    with pytest.raises(FastaError, match="empty sequence"):
        read_fasta(io.StringIO(">r1\n>r2\nAC\n"))


def test_missing_header_rejected():
    with pytest.raises(FastaError):
        read_fasta(io.StringIO("ACGT\n"))


def test_nameless_header_rejected():
    with pytest.raises(FastaError):
        read_fasta(io.StringIO(">\nACGT\n"))
