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

import fmpm.alphabet
import fmpm.batch
import fmpm.kernels
from fmpm.alphabet import encode_batch
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
from fmpm.serialize import IndexFormatError, deserialize_index, serialize_index

from oracles import (
    EDGE_SIZES,
    PERIODIC_TEXTS,
    bwt_prefix_counts,
    check_edit_intervals,
    edge_text,
    edit_hits,
    is_dna,
    naive_bwt,
    random_dna,
    sa_interval,
    suffix_array_naive,
)


# rank_many for all four symbols, then for one symbol per position, against
# direct counts in the naive transform
@pytest.mark.parametrize("n", EDGE_SIZES)
def test_rank_all4_many_equals_occ_all(n):
    text = edge_text(n)
    index = build_index(text)
    positions = np.arange(-1, n + 1)
    bwt = naive_bwt(text)
    want = [[bwt_prefix_counts(bwt, ch, k) for ch in "ACGT"] for k in positions.tolist()]
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
    codes, lengths, _ = encode_batch(patterns)
    want = [sa_interval(text, p) for p in patterns]
    want_bounds = difference_bounds(index, codes, lengths, Kernel.BYTELUT).tolist()
    _forbid_all_four(kernel, monkeypatch)
    k, l = exact_search_many(index, codes, lengths, kernel)
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


def _frontier(index, patterns, max_diff, kernel):
    """(pattern, k, l, used, span) of every string `inexact_search_many` reports."""
    found = inexact_search_many(index, *encode_batch(patterns)[:2], max_diff, kernel)
    return list(zip(*(column.tolist() for column in found)))


def _check_frontier(text, index, patterns, max_diff):
    """The frontier's strings for each pattern are the text's, the same under every kernel."""
    want = _frontier(index, patterns, max_diff, Kernel.SCALAR)
    for pid, pattern in enumerate(patterns):
        found = [entry[1:] for entry in want if entry[0] == pid]
        check_edit_intervals(text, pattern, max_diff, found)
    for kernel in Kernel:
        assert _frontier(index, patterns, max_diff, kernel) == want, (patterns, max_diff, kernel)


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
            _check_frontier(text, index, [pattern], max_diff)


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
    _check_frontier(text, build_index(text), [pattern], max_diff)


def test_inexact_frontier_merges_repeated_states(monkeypatch):
    # On a periodic text many edit paths reach one (at, k, l, span) in one
    # round: each round keeps one state per key and ranks it once.  States
    # that share (at, k, l) but not span stand for two text strings, and stay.
    text = "ACG" * 90
    index = build_index(text)
    rounds, ranked = [], []
    first_per_key, rank = fmpm.batch._first_per_key, fmpm.batch.rank_many

    def recorded_merge(keys, tiebreak):
        kept = first_per_key(keys, tiebreak)
        rounds.append((len(tiebreak), list(zip(*(key[kept].tolist() for key in keys)))))
        return kept

    def counted_rank(index, pos, symbol=None, kernel=None):
        ranked.append(len(pos) * (symbol is None))  # the frontier's, not the bounds' walks
        return rank(index, pos, symbol, kernel)

    monkeypatch.setattr(fmpm.batch, "_first_per_key", recorded_merge)
    monkeypatch.setattr(fmpm.batch, "rank_many", counted_rank)
    for pattern in ["ACGACGACGA", "CGTACGACG", "GGACGAC"]:
        rounds.clear()
        ranked.clear()
        found = _frontier(index, [pattern], 2, Kernel.BYTELUT)
        check_edit_intervals(text, pattern, 2, [entry[1:] for entry in found])
        rounds.pop()  # the final merge, by (pattern, k, l, span)
        kept = [states for _, states in rounds]
        assert sum(before for before, _ in rounds) > sum(map(len, kept)), pattern
        assert any(len({(at, kl) for at, kl, span in states}) < len(states) for states in kept)
        assert sum(ranked) <= 2 * sum(map(len, kept)), pattern


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


@pytest.mark.parametrize(
    "text",
    [edge_text(n) for n in EDGE_SIZES] + PERIODIC_TEXTS,
    ids=[f"n{n}" for n in EDGE_SIZES] + [f"periodic{j}" for j in range(len(PERIODIC_TEXTS))],
)
def test_inexact_search_many_equals_oracle(text):
    index = build_index(text)
    patterns = _batch(text, random.Random(len(text)))
    for max_diff in (1, 2, 3):
        _check_frontier(text, index, patterns, max_diff)


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
    codes, lengths, _ = encode_batch(patterns)
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
    codes, lengths, _ = encode_batch(patterns)
    for max_diff in (1, 2, 3):
        calls.clear()
        inexact_search_many(index, codes, lengths, max_diff, Kernel.BYTELUT)
        assert len(calls) <= len(patterns) + 2 * longest + max_diff, max_diff


def test_match_many_encodes_a_batch_once(monkeypatch):
    # check_batch encodes the batch; the search takes its codes as they are
    text = edge_text(300)
    index = build_index(text)
    patterns = [text[40:60], text[100:112].lower(), "ACGNACGT", "GATTACA", text[7:19]]
    want = [match_many(index, patterns, max_diff) for max_diff in (0, 1, 2)]
    calls = []

    def counted_batch(texts):
        calls.append(len(texts))
        return encode_batch(texts)

    def no_encode_array(text):
        raise AssertionError("encode_array ran")

    for module in (fmpm.alphabet, fmpm.batch):
        monkeypatch.setattr(module, "encode_batch", counted_batch)
        monkeypatch.setattr(module, "encode_array", no_encode_array, raising=False)
    for max_diff in (0, 1, 2):
        calls.clear()
        got = match_many(index, patterns, max_diff)
        assert calls == [len(patterns)], max_diff
        assert all(np.array_equal(a, b) for a, b in zip(got, want[max_diff])), max_diff
        assert len(got.pattern), max_diff


def _oracle(text, records, patterns, max_diff, max_hits):
    """Expected (stdout, stderr) of `fmpm match`, from the per-record DP."""
    out, err = [], []
    for pid, pattern in enumerate(patterns):
        if not is_dna(pattern):
            err.append(f"pattern {pid} contains non-ACGT characters; reporting zero hits\n")
            continue
        hits = edit_hits(text, records, pattern, max_diff)
        if max_hits is not None and len(hits) > max_hits:
            err.append(f"pattern {pid}: hits truncated to {max_hits}\n")
            hits = hits[:max_hits]
        out.extend(f"{pid}\t{name}\t{offset}\t{diffs}\n" for name, offset, diffs in hits)
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
        want = (EXIT_OK, *_oracle(text, records, patterns, max_diff, max_hits))
        for kernel in [k.value for k in Kernel]:
            assert _run(argv + ["--kernel", kernel]) == want, kernel


@st.composite
def single_record_cases(draw):
    n = draw(st.sampled_from(EDGE_SIZES))
    text = draw(
        st.text(alphabet="ACGT", min_size=n, max_size=n)
        | st.sampled_from(["A", "AC", "ACG"]).map(lambda unit: (unit * n)[:n])
    )
    max_diff = draw(st.integers(min_value=1, max_value=3))
    patterns = []
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        m = draw(st.integers(min_value=max_diff + 1, max_value=12))
        if draw(st.booleans()):
            # a cut of the text with up to max_diff characters changed
            start = draw(st.integers(min_value=0, max_value=n - 1))
            pattern = list(text[start : start + m].ljust(m, "A"))
            for _ in range(draw(st.integers(min_value=0, max_value=max_diff))):
                pattern[draw(st.integers(0, m - 1))] = draw(st.sampled_from("ACGT"))
            pattern = "".join(pattern)
        else:
            pattern = draw(st.text(alphabet="ACGT", min_size=m, max_size=m))
        patterns.append(pattern.lower() if draw(st.booleans()) else pattern)
    lower = draw(st.booleans())
    return text.lower() if lower else text, patterns, max_diff


@settings(max_examples=50, deadline=None)
@given(single_record_cases())
@pytest.mark.parametrize("kernel", [k.value for k in Kernel])
def test_inexact_match_equals_the_edit_distance_oracle_on_one_record(kernel, case):
    text, patterns, max_diff = case
    want = [
        f"{pid}\t{name}\t{offset}\t{diffs}\n"
        for pid, pattern in enumerate(patterns)
        for name, offset, diffs in edit_hits(text, [("r", 0, len(text))], pattern, max_diff)
    ]
    with tempfile.TemporaryDirectory() as tmp:
        fasta, fmi, listed = Path(tmp, "r.fa"), Path(tmp, "r.fmi"), Path(tmp, "patterns.txt")
        fasta.write_text(f">r\n{text}\n")
        listed.write_text("".join(p + "\n" for p in patterns))
        assert _run(["index", str(fasta), "-o", str(fmi)])[0] == EXIT_OK
        argv = ["match", str(fmi), "-f", str(listed), "-z", str(max_diff), "--kernel", kernel]
        assert _run(argv) == (EXIT_OK, "".join(want), "")


@st.composite
def junction_cases(draw):
    """2 to 4 records, some periodic, and patterns cut across their junctions."""
    record = st.text(alphabet="ACGT", min_size=1, max_size=40) | st.builds(
        lambda unit, n: (unit * n)[:n], st.sampled_from(["A", "AC", "ACG"]), st.integers(1, 40)
    )
    records = draw(st.lists(record, min_size=2, max_size=4))
    text, starts = "".join(records), np.cumsum([0] + [len(r) for r in records]).tolist()
    max_diff = draw(st.integers(min_value=1, max_value=3))
    patterns = []
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        # m characters from a start before a junction, up to max_diff of them changed
        m, junction = draw(st.integers(max_diff + 1, 12)), draw(st.sampled_from(starts[1:-1]))
        start = draw(st.integers(max(0, junction - m + 1), junction - 1))
        pattern = list(text[start : start + m].ljust(m, "A"))
        for _ in range(draw(st.integers(0, max_diff))):
            pattern[draw(st.integers(0, m - 1))] = draw(st.sampled_from("ACGT"))
        patterns.append("".join(pattern))
    spans = [(f"r{j}", a, b - a) for j, (a, b) in enumerate(zip(starts, starts[1:]))]
    return text.lower() if draw(st.booleans()) else text, spans, patterns, max_diff


@settings(max_examples=60, deadline=None)
@given(junction_cases())
def test_inexact_match_equals_the_edit_distance_oracle_across_records(case):
    # no hit's text string crosses a junction, and a hit inside a record is
    # kept where a string with fewer differences, in the same interval, crosses one
    text, records, patterns, max_diff = case
    index = build_index(text, records)
    want = [
        (pid, *hit)
        for pid, pattern in enumerate(patterns)
        for hit in edit_hits(text, records, pattern, max_diff)
    ]
    for kernel in Kernel:
        hits = match_many(index, patterns, max_diff, kernel)
        got = zip(*(column.tolist() for column in hits[:4]))
        assert [(pid, index.names[r], o, d) for pid, r, o, d in got] == want, kernel
