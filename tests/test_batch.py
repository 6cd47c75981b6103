import contextlib
import dataclasses
import io
import random
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fmpm.batch
import fmpm.kernels
from fmpm.alphabet import encode_array
from fmpm.batch import (
    difference_bounds,
    exact_search_many,
    inexact_search_many,
    lf_step,
    locate_rows,
    match_many,
    rank_many,
)
from fmpm.cli import EXIT_OK, EXIT_USAGE, main
from fmpm.index import SA_STRIDE, build_index
from fmpm.kernels import Kernel
from fmpm.search import MatchResult
from fmpm.serialize import IndexFormatError, deserialize_index, serialize_index

import oracles
from oracles import (
    EDGE_SIZES,
    PERIODIC_TEXTS,
    collect_hits,
    edge_text,
    exact_search,
    inexact_search,
    is_dna,
    occ_all,
    random_dna,
    suffix_array_naive,
)


# rank_many for all four symbols, then for one symbol per position
@pytest.mark.parametrize("n", EDGE_SIZES)
def test_rank_all4_many_equals_occ_all(n):
    index = build_index(edge_text(n))
    positions = np.arange(-1, n + 1)
    want = [list(occ_all(index, int(k), Kernel.SCALAR)) for k in positions]
    symbol = positions % 4
    for kernel in Kernel:
        got = rank_many(index, positions, None, kernel)
        assert got.shape == (n + 2, 4)
        assert got.tolist() == want, kernel
        got = rank_many(index, positions, symbol, kernel)
        assert got.tolist() == [row[s] for row, s in zip(want, symbol.tolist())], kernel


@pytest.mark.parametrize("n", EDGE_SIZES)
def test_locate_rows_equals_naive_suffix_array(n):
    text = edge_text(n)
    index = build_index(text)
    assert locate_rows(index, np.arange(n + 1)).tolist() == suffix_array_naive(text)


def test_locate_rows_periodic_text():
    text = "ACG" * 90
    index = build_index(text)
    rows = np.arange(len(text) + 1)
    for kernel in Kernel:
        assert locate_rows(index, rows, kernel).tolist() == suffix_array_naive(text)


@pytest.mark.parametrize("rows", [[-3], [341], [470], [0, 340, 341], [5, 470, -2]])
def test_locate_rows_rejects_rows_outside_the_index(rows):
    index = build_index(edge_text(340))
    first = next(row for row in rows if not 0 <= row <= 340)
    with pytest.raises(ValueError) as refused:
        locate_rows(index, np.array(rows))
    assert str(refused.value) == f"row {first} outside [0, 340]"


@pytest.mark.parametrize("patterns", [[""], ["", "ACG"], ["ACG", "T", ""]])
def test_match_many_rejects_an_empty_pattern(patterns):
    index = build_index(edge_text(340))
    with pytest.raises(ValueError, match=f"pattern {patterns.index('')} is empty"):
        match_many(index, patterns, 0)


@pytest.mark.parametrize(
    "patterns, max_diff, message",
    [
        (["ACG"], 3, "pattern 0 has 3 character(s); -z must be below that"),
        (["ACGTA", "ACGT"], 4, "pattern 1 has 4 character(s); -z must be below that"),
        (["ACGT", "AC", ""], 2, "pattern 1 has 2 character(s); -z must be below that"),
        (["ACGT", "", "AC"], 2, "pattern 1 is empty"),
        (["ANA", "ACGT"], 10**20, "pattern 0 has 3 character(s); -z must be below that"),
    ],
    ids=["as-long", "second", "short-before-empty", "empty-before-short", "huge-budget"],
)
def test_match_many_refuses_a_pattern_no_longer_than_max_diff(patterns, max_diff, message):
    # with as many differences as characters, every position would match
    index = build_index(edge_text(340))
    with pytest.raises(ValueError) as refused:
        match_many(index, patterns, max_diff)
    assert str(refused.value) == message


def _forbid_all_four(kernel, monkeypatch):
    """Make `kernel` fail when asked for all four counts of a bucket."""

    def all_four(*args):
        raise AssertionError("an all-four kernel ran")

    nibble = fmpm.kernels._nibble

    def one_symbol_nibble(masked, symbols, trace=None):
        if len(symbols) > 1:
            all_four()
        return nibble(masked, symbols, trace)

    # scalar has an all-four body; nibble runs one pipeline asked for one or four symbols
    if kernel is Kernel.SCALAR:
        monkeypatch.setattr(fmpm.kernels, "_all4_scalar", all_four)
    else:
        monkeypatch.setattr(fmpm.kernels, "_nibble", one_symbol_nibble)


@pytest.mark.parametrize("kernel", [Kernel.SCALAR, Kernel.NIBBLE])
def test_locate_rows_counts_one_symbol_per_step(kernel, monkeypatch):
    # each step needs the rank of the row's own symbol only
    _forbid_all_four(kernel, monkeypatch)
    text = edge_text(257)
    index = build_index(text)
    assert locate_rows(index, np.arange(len(text) + 1), kernel).tolist() == suffix_array_naive(text)


@pytest.mark.parametrize("kernel", [Kernel.SCALAR, Kernel.NIBBLE])
def test_backward_search_counts_one_symbol_per_step(kernel, monkeypatch):
    # each step extends by the pattern's own symbol, so it ranks that symbol only
    text = edge_text(257)
    index = build_index(text)
    patterns = [text[i : i + 3 + i % 13] for i in range(0, 240, 11)] + ["TTTTTTTT", "ACGTACGA"]
    codes = encode_array("".join(patterns)).astype(np.int64)
    lengths = np.array([len(p) for p in patterns])
    want = [(iv.k, iv.l) for iv in (exact_search(index, p, kernel) for p in patterns)]
    want_bounds = difference_bounds(index, codes, lengths, Kernel.BYTELUT).tolist()
    _forbid_all_four(kernel, monkeypatch)
    k, l = exact_search_many(index, patterns, kernel)
    assert list(zip(k.tolist(), l.tolist())) == want
    assert difference_bounds(index, codes, lengths, kernel).tolist() == want_bounds


# seed 7's 200-character transform, in which trading adjacent fields 76 and
# 77 (bucket 0, byte 19), 60 and 61 (byte 15) or 121 and 122 (byte 30)
# splits off a cycle of rows that holds no sampled row and not the sentinel
_CYCLE_INDEX = build_index(random_dna(random.Random(7), 200))


def _swapped(*fields):
    """`_CYCLE_INDEX` with transform fields i and i + 1 traded for each i, loaded from its file.

    Both fields lie in one byte, so every block keeps its counts and the
    file loads: a gap `check_index` documents.  The predecessor rows of
    fields i and i + 1 trade places too.
    """
    packed = bytearray(_CYCLE_INDEX.blocks.tobytes())
    for i in fields:
        shift, byte = 2 * (i & 3), packed[i >> 2]
        a, b = byte >> shift & 3, byte >> shift + 2 & 3
        packed[i >> 2] = byte & ~(15 << shift) | (a << 2 | b) << shift
    blocks = np.frombuffer(bytes(packed), dtype=np.uint8).reshape(_CYCLE_INDEX.blocks.shape)
    sink = io.BytesIO()
    serialize_index(dataclasses.replace(_CYCLE_INDEX, blocks=blocks), sink)
    return deserialize_index(io.BytesIO(sink.getvalue()))


def test_locate_rows_rejects_a_cycle():
    # trading fields 76 and 77 maps row 77 to itself, never reaching a sample
    index = _swapped(76)
    assert lf_step(index, np.array([77]))[1].tolist() == [77]
    with pytest.raises(IndexFormatError, match="did not terminate"):
        locate_rows(index, np.array([77]))


def _two_cycles():
    # trading fields 121 and 122 sends row 86 to row 122 and back; trading
    # fields 60 and 61 sends rows 28, 60, 163 and 93 round a cycle of four
    index = _swapped(121, 60)
    assert lf_step(index, np.array([86, 122, 28, 60, 163, 93]))[1].tolist() == [
        122, 86, 60, 163, 93, 28
    ]
    return index


@pytest.mark.parametrize(
    "rows",
    [
        [86, 86],  # the row of a cycle, passed twice
        [86, 122],  # two located rows that map to each other
        [122, 86, 122, 86],
        [60, 86, 93, 122],  # two cycles
        [86, 64],  # a row that reaches its own start, next to one that ends
    ],
)
def test_locate_rows_rejects_cycles_among_located_rows(rows):
    with pytest.raises(IndexFormatError, match="did not terminate"):
        locate_rows(_two_cycles(), np.array(rows))


def _own_walk_steps(text, rows):
    """LF steps the rows take when each walks alone to a sampled row or the sentinel row."""
    sa = suffix_array_naive(text)
    row_of = [0] * len(sa)
    for row, position in enumerate(sa):
        row_of[position] = row
    steps = 0
    for row in rows:
        while row % SA_STRIDE and sa[row]:
            row, steps = row_of[sa[row] - 1], steps + 1
    return steps


@st.composite
def locate_cases(draw):
    n = draw(st.sampled_from(EDGE_SIZES) | st.integers(min_value=1, max_value=127))
    kind = draw(st.sampled_from(["random", "periodic", "planted"]))
    if kind == "periodic":
        unit = draw(st.text(alphabet="ACGT", min_size=1, max_size=40))
        text = (unit * n)[:n]
    else:
        text = draw(st.text(alphabet="ACGT", min_size=n, max_size=n))
    if kind == "planted":
        block = draw(st.text(alphabet="ACGT", min_size=1, max_size=min(n, 60)))
        for at in draw(st.lists(st.integers(min_value=0, max_value=n - 1), max_size=6)):
            text = (text[:at] + block + text[at + len(block) :])[:n]
    sa = suffix_array_naive(text)
    which = draw(st.sampled_from(["multiset", "intervals", "all"]))
    if which == "multiset":
        rows = draw(st.lists(st.integers(min_value=0, max_value=n), max_size=60))
        rows += rows[: draw(st.integers(min_value=0, max_value=len(rows)))]
    elif which == "intervals":
        # every row of the intervals of a few substrings; intervals may repeat or nest
        rows = []
        for _ in range(draw(st.integers(min_value=1, max_value=5))):
            start = draw(st.integers(min_value=0, max_value=n - 1))
            piece = text[start : start + draw(st.integers(min_value=1, max_value=8))]
            rows += [r for r, p in enumerate(sa) if text.startswith(piece, p)]
    else:
        rows = list(range(n + 1))
    return text, rows


@settings(max_examples=150, deadline=None)
@given(locate_cases())
def test_locate_rows_property(case):
    # locate equals the suffix array under every kernel, and never steps more
    # rows than the distinct rows' own walks take
    text, rows = case
    index = build_index(text)
    want = [suffix_array_naive(text)[r] for r in rows]
    bound = _own_walk_steps(text, set(rows))
    lf_step = fmpm.batch.lf_step
    stepped = []

    def counted_lf_step(index, rows, kernel=None):
        stepped.append(len(rows))
        return lf_step(index, rows, kernel)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fmpm.batch, "lf_step", counted_lf_step)
        for kernel in Kernel:
            stepped.clear()
            got = locate_rows(index, np.array(rows, dtype=np.int64), kernel)
            assert got.dtype == np.int64
            assert got.tolist() == want, kernel
            assert sum(stepped) <= bound, kernel
            if len(set(rows)) == len(text) + 1:
                # every row's predecessor is located too: one round of one step each
                assert len(stepped) <= 1, kernel


def _frontier_triples(index, pattern, max_diff, kernel):
    _, k, l, used = inexact_search_many(index, [pattern], max_diff, kernel)
    return list(zip(k.tolist(), l.tolist(), used.tolist()))


def _search_triples(index, pattern, max_diff):
    matches = inexact_search(index, pattern, max_diff, Kernel.SCALAR)
    return [(m.interval.k, m.interval.l, m.diffs_used) for m in matches]


FRONTIER_SIZES = sorted({1, 2, 3, 77} | {m + d for m in (32, 64, 128, 256) for d in (-1, 0, 1)})


@pytest.mark.parametrize(
    "text",
    [edge_text(n) for n in FRONTIER_SIZES] + PERIODIC_TEXTS,
    ids=[f"n{n}" for n in FRONTIER_SIZES] + [f"periodic{j}" for j in range(len(PERIODIC_TEXTS))],
)
def test_inexact_frontier_equals_inexact_search(text):
    index = build_index(text)
    rng = random.Random(len(text))
    start = rng.randrange(len(text))
    patterns = [text[start : start + 6], random_dna(rng, 4).lower(), random_dna(rng, 7)]
    for pattern in patterns:
        for max_diff in range(4):
            want = _search_triples(index, pattern, max_diff)
            for kernel in Kernel:
                got = _frontier_triples(index, pattern, max_diff, kernel)
                assert got == want, (pattern, max_diff, kernel)


@settings(max_examples=100, deadline=None)
@given(
    st.text(alphabet="ACGT", min_size=1, max_size=300)
    | st.builds(
        lambda unit, n: (unit * n)[:n],
        st.sampled_from(["A", "AC", "ACG", "AACG"]),
        st.integers(min_value=1, max_value=300),
    ),
    st.text(alphabet="ACGTacgt", min_size=1, max_size=12),
    st.data(),
)
def test_inexact_frontier_property(text, pattern, data):
    max_diff = data.draw(st.integers(min_value=0, max_value=min(len(pattern) - 1, 3)))
    index = build_index(text)
    want = _search_triples(index, pattern, max_diff)
    for kernel in Kernel:
        assert _frontier_triples(index, pattern, max_diff, kernel) == want, kernel


def test_inexact_frontier_merges_repeated_states(monkeypatch):
    # On a periodic text many edit paths reach one (i, k, l) in one round;
    # the frontier ranks that state once, the per-pattern search once per path.
    text = "ACG" * 90
    index = build_index(text)
    ranked, pair_calls = [], []
    rank, pair = fmpm.batch.rank_many, oracles.occ_pair_all

    def counted_rank(index, pos, symbol=None, kernel=None):
        ranked.append(len(pos))
        return rank(index, pos, symbol, kernel)

    def counted_pair(*args):
        pair_calls.append(1)
        return pair(*args)

    monkeypatch.setattr(fmpm.batch, "rank_many", counted_rank)
    monkeypatch.setattr(oracles, "occ_pair_all", counted_pair)
    for pattern in ["ACGACGACGA", "CGTACGACG", "GGACGAC"]:
        ranked.clear()
        pair_calls.clear()
        want = _search_triples(index, pattern, 2)
        assert _frontier_triples(index, pattern, 2, Kernel.BYTELUT) == want
        assert sum(ranked) < 2 * len(pair_calls), pattern


def _batch(text, rng):
    """Patterns of 2 to 40 characters: a substring of the text, two that share
    its prefix, a random 2-mer, lowercase ones and duplicates."""
    start = rng.randrange(len(text))
    present = text[start : start + 21]
    short = random_dna(rng, 2)
    return [
        present,
        (present[:8] + random_dna(rng, 5)).lower(),
        present + random_dna(rng, 40 - len(present)),
        short,
        present,
        short.lower(),
    ]


def _many_quads(index, patterns, max_diff, kernel):
    found = inexact_search_many(index, patterns, max_diff, kernel)
    return list(zip(*(column.tolist() for column in found)))


@pytest.mark.parametrize(
    "text",
    [edge_text(n) for n in EDGE_SIZES] + PERIODIC_TEXTS,
    ids=[f"n{n}" for n in EDGE_SIZES] + [f"periodic{j}" for j in range(len(PERIODIC_TEXTS))],
)
def test_inexact_search_many_equals_oracle(text):
    index = build_index(text)
    patterns = _batch(text, random.Random(len(text)))
    for max_diff in (1, 2, 3):
        want, answers = [], {}
        for pid, pattern in enumerate(patterns):
            if pattern not in answers:
                matches = inexact_search(index, pattern, max_diff, Kernel.BYTELUT)
                answers[pattern] = [(m.interval.k, m.interval.l, m.diffs_used) for m in matches]
            want += [(pid, *triple) for triple in answers[pattern]]
        for kernel in Kernel:
            got = _many_quads(index, patterns, max_diff, kernel)
            assert got == want, (max_diff, kernel)


def _fewest_edits_per_prefix(pattern, text):
    """For each prefix of `pattern`, its edit distance to the closest substring
    of `text`, the empty one included."""
    row = [0] * (len(text) + 1)  # a substring may start anywhere
    fewest = []
    for a, ch in enumerate(pattern, 1):
        prev, row = row, [a] * (len(text) + 1)
        for j, t in enumerate(text, 1):
            row[j] = min(prev[j] + 1, row[j - 1] + 1, prev[j - 1] + (ch != t))
        fewest.append(min(row))
    return fewest


@settings(max_examples=100, deadline=None)
@given(
    st.text(alphabet="ACGT", min_size=1, max_size=200)
    | st.builds(
        lambda unit, n: (unit * n)[:n],
        st.sampled_from(["A", "AC", "ACG", "AACG"]),
        st.integers(min_value=1, max_value=200),
    ),
    st.lists(st.text(alphabet="ACGTacgt", min_size=1, max_size=40), min_size=1, max_size=4),
)
def test_difference_bounds_are_admissible(text, patterns):
    # D(i) must never exceed the differences W[0..i] needs, or the search
    # would prune a state that reaches an interval
    index = build_index(text)
    codes = encode_array("".join(patterns)).astype(np.int64)
    lengths = np.array([len(p) for p in patterns])
    bound = difference_bounds(index, codes, lengths).tolist()
    for pattern in patterns:
        head, bound = bound[: len(pattern)], bound[len(pattern) :]
        fewest = _fewest_edits_per_prefix(pattern.upper(), text)
        assert all(d <= f for d, f in zip(head, fewest)), (pattern, head, fewest)
    assert bound == []


def test_inexact_search_many_rank_rounds(monkeypatch):
    # D takes at most m rank rounds, and admitting one pattern per round
    # leaves P - 1 + m + z frontier rounds; a loop over the patterns would
    # make about P * (m + z) rank calls
    text = edge_text(385)
    rng = random.Random(12)
    patterns = [text[start : start + 16] for start in rng.sample(range(369), 6)]
    patterns += [random_dna(rng, rng.randint(8, 16)) for _ in range(6)]
    index = build_index(text)
    calls = []
    rank = fmpm.batch.rank_many

    def counted_rank(index, pos, symbol=None, kernel=None):
        calls.append(len(pos))
        return rank(index, pos, symbol, kernel)

    monkeypatch.setattr(fmpm.batch, "rank_many", counted_rank)
    longest = max(len(p) for p in patterns)
    for max_diff in (1, 2, 3):
        calls.clear()
        inexact_search_many(index, patterns, max_diff, Kernel.BYTELUT)
        assert len(calls) <= len(patterns) + 2 * longest + max_diff, max_diff


def _oracle(index, patterns, max_diff, max_hits):
    """Expected (stdout, stderr) of `fmpm match`, one pattern at a time."""
    out, err = [], []
    for pid, pattern in enumerate(patterns):
        if not is_dna(pattern):
            err.append(f"pattern {pid} contains non-ACGT characters; reporting zero hits\n")
            continue
        if max_diff == 0:
            interval = exact_search(index, pattern, Kernel.SCALAR)
            matches = [] if interval.is_empty else [MatchResult(interval, 0)]
        else:
            matches = inexact_search(index, pattern, max_diff, Kernel.BYTELUT)
        hits, truncated = collect_hits(index, matches, len(pattern), Kernel.SCALAR, max_hits)
        if truncated:
            err.append(f"pattern {pid}: hits truncated to {max_hits}\n")
        out.extend(f"{pid}\t{h.record}\t{h.offset}\t{h.diffs}\n" for h in hits)
    return "".join(out), "".join(err)


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@st.composite
def match_cases(draw):
    n = draw(st.sampled_from(EDGE_SIZES) | st.integers(min_value=1, max_value=127))
    text = draw(
        st.text(alphabet="ACGT", min_size=n, max_size=n)
        | st.sampled_from(["A", "AC", "ACG"]).map(lambda unit: (unit * n)[:n])
    )
    cuts = draw(
        st.lists(
            st.sampled_from([b for b in (32, 64, 96, 128, 256) if b < n] or [n])
            | st.integers(min_value=1, max_value=n),
            max_size=3,
        )
    )
    bounds = sorted({0, n, *cuts})
    records = [(f"r{i}", a, b - a) for i, (a, b) in enumerate(zip(bounds, bounds[1:]))]

    patterns = []
    for _ in range(draw(st.integers(min_value=1, max_value=6))):
        kind = draw(st.sampled_from(["substring", "random", "non-ACGT"]))
        if kind == "substring":
            start = draw(st.integers(min_value=0, max_value=n - 1))
            pattern = text[start : start + draw(st.integers(min_value=1, max_value=8))]
        elif kind == "random":
            pattern = draw(st.text(alphabet="ACGT", min_size=1, max_size=8))
        else:
            pattern = draw(st.text(alphabet="ACGTN", min_size=1, max_size=8))
        patterns.append(pattern.lower() if draw(st.booleans()) else pattern)
    max_diff = draw(st.sampled_from([0, 1, 2]))
    max_hits = draw(st.sampled_from([None, 0, 1, 3]))
    return text, records, patterns, max_diff, max_hits


@settings(max_examples=80, deadline=None)
@given(match_cases())
def test_batched_match_equals_per_pattern_oracle(case):
    text, records, patterns, max_diff, max_hits = case
    index = build_index(text, records)
    with tempfile.TemporaryDirectory() as tmp:
        fmi, listed = Path(tmp, "ref.fmi"), Path(tmp, "patterns.txt")
        with open(fmi, "wb") as fh:
            serialize_index(index, fh)
        listed.write_text("".join(p + "\n" for p in patterns))
        argv = ["match", str(fmi), "-f", str(listed), "-z", str(max_diff)]
        if max_hits is not None:
            argv += ["--max-hits", str(max_hits)]
        short = [pid for pid, p in enumerate(patterns) if len(p) <= max_diff]
        if short:
            code, out, err = _run(argv)
            assert (code, out) == (EXIT_USAGE, "")
            assert f"pattern {short[0]} has" in err
            return
        want = (EXIT_OK, *_oracle(index, patterns, max_diff, max_hits))
        for kernel in [k.value for k in Kernel]:
            assert _run(argv + ["--kernel", kernel]) == want, kernel
