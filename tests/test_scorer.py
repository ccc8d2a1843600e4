import dataclasses
import itertools
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asrlm.scorer import (
    EditAlignment,
    align,
    cer,
    format_report,
    read_trn,
    relative_reduction,
    wer,
)
from tests.reference import brute_edit_distance, reference_align

tokens = st.lists(st.sampled_from(["a", "b", "c"]), min_size=0, max_size=8)


def test_align_identity():
    a = align(("x", "y"), ("x", "y"))
    assert (a.substitutions, a.deletions, a.insertions) == (0, 0, 0)
    assert a.hits == a.ref_length == 2


def test_align_single_substitution():
    a = align(("a", "b", "c"), ("a", "x", "c"))
    assert (a.substitutions, a.deletions, a.insertions) == (1, 0, 0)


def test_align_all_deletions():
    a = align(("a", "b"), ())
    assert a.deletions == 2
    assert a.ops == (("del", "a", None), ("del", "b", None))


def test_align_ops_replay_ref_to_hyp():
    ref = ("the", "cat", "sat", "down")
    hyp = ("the", "bad", "cat", "sat")
    a = align(ref, hyp)
    replay = []
    ref_iter = list(ref)
    pos = 0
    for op, r, h in a.ops:
        if op == "match":
            assert ref_iter[pos] == r == h
            replay.append(h)
            pos += 1
        elif op == "sub":
            assert ref_iter[pos] == r
            replay.append(h)
            pos += 1
        elif op == "del":
            assert ref_iter[pos] == r
            pos += 1
        else:
            replay.append(h)
    assert pos == len(ref)
    assert tuple(replay) == hyp
    assert a.hits + a.substitutions + a.deletions == a.ref_length


@given(tokens, tokens)
@settings(max_examples=300)
def test_align_cost_matches_brute_force(ref, hyp):
    a = align(ref, hyp)
    assert a.errors == brute_edit_distance(ref, hyp)


@given(tokens, tokens)
@settings(max_examples=300)
def test_align_symmetry_swaps_del_ins(ref, hyp):
    fwd = align(ref, hyp)
    rev = align(hyp, ref)
    assert fwd.errors == rev.errors
    assert fwd.deletions == rev.insertions
    assert fwd.insertions == rev.deletions
    assert fwd.substitutions == rev.substitutions


def test_align_equals_reference_alignment():
    """Whole alignments, ops and counts included, equal the full-matrix
    reference: every pair of {a,b,c} sequences up to length 4, then seeded
    longer pairs, unrelated and near-copies, passed as lists."""
    sequences = [seq for k in range(5) for seq in itertools.product("abc", repeat=k)]
    pairs = [(ref, hyp) for ref in sequences for hyp in sequences]
    rng = random.Random(8)
    for _ in range(200):
        ref = [rng.choice("abcd") for _ in range(rng.randint(5, 20))]
        hyp = [rng.choice("abcd") for _ in range(rng.randint(0, 20))]
        near = list(ref)
        for _ in range(rng.randint(1, 3)):
            k = rng.randrange(len(near) + 1)
            near[k:k + rng.randint(0, 1)] = rng.choice(([], ["x"], ["x", "y"]))
        pairs += [(ref, hyp), (ref, near), (near, ref)]
    for ref, hyp in pairs:
        assert align(ref, hyp) == reference_align(ref, hyp), (ref, hyp)


def test_align_pins_tie_breaks_at_repeated_ends():
    """Repeated tokens at a matched end keep the full program's tie-breaks."""
    assert align(("a", "a"), ("a",)).ops == (("del", "a", None), ("match", "a", "a"))
    assert align(("a",), ("a", "a")).ops == (("ins", None, "a"), ("match", "a", "a"))
    assert align(("a", "b", "a"), ("a", "c")).ops == (
        ("match", "a", "a"), ("del", "b", None), ("sub", "a", "c"))
    assert align(("a", "a", "b"), ("a",)).ops == (
        ("del", "a", None), ("match", "a", "a"), ("del", "b", None))


ab = st.sampled_from("ab")
# A one-token edit: replace the token at a position (taken modulo the length
# plus one, so the end is an insertion point) with zero to two tokens.
edits = st.lists(st.tuples(st.integers(0, 12), st.lists(ab, max_size=2)), max_size=3)


def _edited(middle, ops):
    middle = list(middle)
    for pos, new in ops:
        k = pos % (len(middle) + 1)
        middle[k:k + 1] = new
    return middle


@given(st.lists(ab, max_size=3), st.lists(ab, max_size=3), st.lists(ab, max_size=3), edits, edits)
@settings(max_examples=250)
def test_align_with_shared_ends_equals_reference(prefix, middle, suffix, ref_edits, hyp_edits):
    """A shared prefix and suffix around middles edited independently, at
    most 12 tokens over two symbols, so prefix tokens often occur again in
    the middles."""
    ref = prefix + _edited(middle, ref_edits) + suffix
    hyp = prefix + _edited(middle, hyp_edits) + suffix
    assert len(ref) <= 12 and len(hyp) <= 12
    assert align(ref, hyp) == reference_align(ref, hyp)


def test_wer_perfect():
    report = wer({"u1": ("a", "b")}, {"u1": ("a", "b")})
    assert report.wer == 0.0


def test_wer_single_deletion():
    report = wer({"u": ("the", "cat", "sat")}, {"u": ("the", "cat")})
    assert report.wer == pytest.approx(1 / 3)


def test_wer_can_exceed_hundred_percent():
    report = wer({"u": ("x",)}, {"u": ("p", "q", "r")})
    assert report.aggregate.substitutions == 1
    assert report.aggregate.insertions == 2
    assert report.wer == pytest.approx(3.0)


def test_wer_aggregates_counts_not_rates():
    refs = {"a": ("w",) * 10, "b": ("w",)}
    hyps = {"a": ("w",) * 10, "b": ("x",)}
    report = wer(refs, hyps)
    # 1 error over 11 reference tokens, not mean(0%, 100%).
    assert report.wer == pytest.approx(1 / 11)


@pytest.mark.parametrize("score", [wer, cer])
def test_aggregate_is_per_utterance_sums_and_ops_in_sorted_id_order(score):
    refs = {"u3": ("ab", "c"), "u1": ("x", "y", "z"), "u2": ("p",), "u10": ("q", "r")}
    hyps = {"u3": ("ab",), "u1": ("x", "w", "z", "v"), "u10": ("r",)}
    report = score(refs, hyps)
    ids = sorted(refs)
    per = [report.per_utterance[u] for u in ids]
    total = report.aggregate
    for field in ("substitutions", "deletions", "insertions", "hits", "ref_length"):
        assert getattr(total, field) == sum(getattr(a, field) for a in per), field
    assert total.ops == tuple(op for a in per for op in a.ops)
    assert report.rate() == pytest.approx(total.errors / total.ref_length)


def test_wer_missing_hyp_scored_as_deletions():
    report = wer({"a": ("x", "y"), "b": ("z",)}, {"a": ("x", "y")})
    assert report.missing_hyps == ("b",)
    assert report.aggregate.deletions == 1


def test_wer_unknown_hyp_id_rejected():
    with pytest.raises(ValueError, match="without a reference"):
        wer({"a": ("x",)}, {"a": ("x",), "zz": ("y",)})


def test_wer_invariant_under_relabeling():
    refs = {"u": ("a", "b", "a")}
    hyps = {"u": ("a", "c", "a")}
    relabel = {"a": "t1", "b": "t2", "c": "t3"}
    r1 = wer(refs, hyps)
    r2 = wer(
        {"u": tuple(relabel[t] for t in refs["u"])},
        {"u": tuple(relabel[t] for t in hyps["u"])},
    )
    assert r1.wer == r2.wer


def test_cer_basic():
    report = cer({"u": ("abc",)}, {"u": ("abd",)})
    assert report.cer == pytest.approx(1 / 3)


def test_cer_ignores_token_segmentation():
    report = cer({"u": ("ab", "cd")}, {"u": ("abcd",)})
    assert report.cer == 0.0


def test_relative_reduction_paper_arithmetic():
    assert round(relative_reduction(77.0, 42.9), 1) == 44.3
    assert round(relative_reduction(36.8, 35.8), 1) == 2.7
    assert round(relative_reduction(40.4, 38.9), 1) == 3.7
    assert relative_reduction(5.0, 5.0) == 0.0
    assert relative_reduction(10.0, 12.0) < 0
    with pytest.raises(ValueError):
        relative_reduction(0.0, 1.0)


def test_read_trn_and_duplicate_ids(tmp_path):
    p = tmp_path / "refs.tsv"
    p.write_text("u1\ta b c\nu2\tx y\n", encoding="utf-8")
    refs = read_trn(p)
    assert refs == {"u1": ("a", "b", "c"), "u2": ("x", "y")}
    p.write_text("u1\ta\nu1\tb\n", encoding="utf-8")
    with pytest.raises(ValueError, match="duplicate"):
        read_trn(p)


def test_read_trn_rejects_invalid_utf8_at_its_line(tmp_path):
    p = tmp_path / "hyps.tsv"
    p.write_bytes(b"u1\ta b\nu2\tx\xffy\n")
    with pytest.raises(ValueError, match="^" + re.escape(f"{p}:2: invalid UTF-8")):
        read_trn(p)


def test_read_trn_splits_lines_at_line_feed_only(tmp_path):
    p = tmp_path / "hyps.tsv"
    # U+0085 is a line break to str.splitlines, which would add an utterance "u3".
    p.write_text("u1\ta b\u0085u3\tc\nu2\td\n", encoding="utf-8")
    with pytest.raises(ValueError, match="^" + re.escape(f"{p}:1: expected")):
        read_trn(p)
    p.write_bytes(b"u1\ta b c\r\n\r\nu2\td\r\n")
    assert read_trn(p) == {"u1": ("a", "b", "c"), "u2": ("d",)}


def test_format_report_marks_empty_reference_rate():
    report = wer({"u1": ("a", "b"), "u2": ()}, {"u1": ("a", "b"), "u2": ("z",)})
    assert format_report(report).splitlines() == [
        "utt_id\tS\tD\tI\tN\twer%",
        "u1\t0\t0\t0\t2\t0.00",
        "u2\t0\t0\t1\t0\t-",
        "TOTAL\t0\t0\t1\t2\t50.00",
    ]


def test_format_report_contains_totals():
    report = wer({"u": ("a", "b")}, {"u": ("a", "x")})
    text = format_report(report, "wer")
    assert "TOTAL" in text
    assert "50.00" in text


def test_edit_alignment_is_a_frozen_slotted_value():
    a = align(("a", "b", "c"), ("a", "x"))
    assert not hasattr(a, "__dict__")
    with pytest.raises(dataclasses.FrozenInstanceError):
        a.hits = 0
    ops = (("match", "a", "a"), ("del", "b", None), ("sub", "c", "x"))
    same = EditAlignment(1, 1, 0, 1, 3, ops)
    assert a == same and a != dataclasses.replace(a, insertions=1)
    assert hash(a) == hash(same) == hash((1, 1, 0, 1, 3, ops))
    assert repr(a) == ("EditAlignment(substitutions=1, deletions=1, insertions=0, hits=1, "
                       f"ref_length=3, ops={ops!r})")
    assert dataclasses.replace(a, ops=()).ops == () and a.errors == 2
