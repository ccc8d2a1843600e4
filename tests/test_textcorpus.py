import os
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from asrlm.textcorpus import (
    BOS,
    EOS,
    UNK,
    Corpus,
    CorpusError,
    Vocabulary,
    build_vocabulary,
    concatenate,
    load_corpus,
    save_corpus,
    word_frequencies,
    write_text_atomic,
)
from tests.conftest import corpus_of


def test_load_corpus_normalizes_and_drops_empty_lines(tmp_path):
    p = tmp_path / "c.txt"
    p.write_text("Hallo Welt\n\n", encoding="utf-8")
    c = load_corpus(p, lowercase=True)
    assert c.sentences == (("hallo", "welt"),)
    assert c.token_count == 2


def test_load_corpus_empty_file(tmp_path):
    p = tmp_path / "c.txt"
    p.write_text("", encoding="utf-8")
    c = load_corpus(p)
    assert c.sentences == ()
    assert c.token_count == 0


def test_load_corpus_collapses_whitespace(tmp_path):
    p = tmp_path / "c.txt"
    p.write_text("a  b\tc\n", encoding="utf-8")
    c = load_corpus(p)
    assert c.sentences == (("a", "b", "c"),)


def test_load_corpus_invalid_utf8_reports_line(tmp_path):
    p = tmp_path / "c.txt"
    p.write_bytes(b"ok line\n\xff\xfe broken\n")
    with pytest.raises(CorpusError, match=":2:"):
        load_corpus(p)


def test_load_corpus_rejects_reserved_markers(tmp_path):
    p = tmp_path / "c.txt"
    p.write_text("a <unk> b\n", encoding="utf-8")
    with pytest.raises(CorpusError, match="<unk>"):
        load_corpus(p)


def test_load_corpus_strip_punct(tmp_path):
    p = tmp_path / "c.txt"
    p.write_text("Na, gut. (ja)\n", encoding="utf-8")
    c = load_corpus(p, lowercase=True, strip_punct=True)
    assert c.sentences == (("na", "gut", "ja"),)


def test_punctuation_kept_by_default(tmp_path):
    p = tmp_path / "c.txt"
    p.write_text("x-ray dr.\n", encoding="utf-8")
    c = load_corpus(p)
    assert c.sentences == (("x-ray", "dr."),)


def test_load_dump_load_round_trip(tmp_path):
    p = tmp_path / "c.txt"
    p.write_text("a  b\n\nc d e\n", encoding="utf-8")
    c1 = load_corpus(p)
    q = tmp_path / "out.txt"
    save_corpus(c1, q)
    c2 = load_corpus(q, corpus_id=c1.id)
    assert c1 == c2


def test_build_vocabulary_min_count():
    v = build_vocabulary([corpus_of("a a b")], min_count=2)
    assert "a" in v and "b" not in v
    assert set(v.words) == {"a", UNK, BOS, EOS}


def test_build_vocabulary_max_size_tie_break():
    v = build_vocabulary([corpus_of("a b")], min_count=1, max_size=4)
    assert "a" in v and "b" not in v
    assert len(v) == 4


def test_build_vocabulary_sums_across_corpora():
    v = build_vocabulary([corpus_of("a"), corpus_of("a b")], min_count=2)
    assert "a" in v and "b" not in v


def test_build_vocabulary_concatenation_equivalence():
    c1 = corpus_of("a b a\nc")
    c2 = corpus_of("b b\na d")
    joined = concatenate("joined", [c1, c2])
    assert build_vocabulary([c1, c2], min_count=2).words == build_vocabulary([joined], min_count=2).words


def test_build_vocabulary_validation():
    with pytest.raises(ValueError):
        build_vocabulary([])
    with pytest.raises(ValueError):
        build_vocabulary([corpus_of("a")], max_size=2)
    with pytest.raises(ValueError):
        build_vocabulary([corpus_of("a")], min_count=0)


def test_word_frequencies_orders_and_ties():
    assert word_frequencies(corpus_of("x y x")) == [("x", 2), ("y", 1)]
    assert word_frequencies(Corpus(id="e", sentences=())) == []
    assert word_frequencies(corpus_of("b a")) == [("a", 1), ("b", 1)]


def test_word_frequencies_sum_to_token_count():
    c = corpus_of("a b a\nc c c")
    assert sum(n for _, n in word_frequencies(c)) == c.token_count


def test_vocabulary_reserved_and_bijection():
    v = Vocabulary(["b", "a"])
    assert v.words[:3] == (UNK, BOS, EOS)
    for i, w in enumerate(v.words):
        assert v.index(w) == i and v.word(i) == w
    assert v.map_token("zzz") == UNK
    assert BOS not in v.predicted_words()


def test_vocabulary_save_load_preserves_order(tmp_path):
    v = Vocabulary(["b", "a", "c"])
    p = tmp_path / "vocab.txt"
    v.save(p)
    assert Vocabulary.load(p).words == v.words


def test_vocabulary_load_splits_lines_at_line_feed_only(tmp_path):
    p = tmp_path / "vocab.txt"
    # U+2028 is a line break to str.splitlines, which would add a word "c".
    p.write_text("a\nb\u2028c\n", encoding="utf-8")
    with pytest.raises(ValueError, match="^" + re.escape(f"{p}:2: expected one word")):
        Vocabulary.load(p)
    p.write_bytes(b"b\r\n\r\na\r\n")
    assert Vocabulary.load(p).words == Vocabulary(["b", "a"]).words


@given(
    st.lists(
        st.lists(st.sampled_from(["a", "b", "c", "dd"]), min_size=1, max_size=6),
        min_size=0,
        max_size=8,
    )
)
def test_save_load_identity_property(tmp_path_factory, sentences):
    c = Corpus(id="prop", sentences=tuple(tuple(s) for s in sentences))
    path = tmp_path_factory.mktemp("corpora") / "c.txt"
    save_corpus(c, path)
    assert load_corpus(path, corpus_id="prop") == c


def test_write_text_atomic_failure_keeps_old_bytes(tmp_path, monkeypatch):
    target = tmp_path / "model.arpa"
    target.write_bytes(b"old bytes\n")

    def fail(src, dst):
        raise OSError("replace failed")

    monkeypatch.setattr(os, "replace", fail)
    with pytest.raises(OSError, match="replace failed"):
        write_text_atomic(target, "new text\n")
    assert target.read_bytes() == b"old bytes\n"
    assert list(tmp_path.glob(".*.tmp")) == []


def test_write_text_atomic_replaces_and_keeps_umask_mode(tmp_path):
    plain = tmp_path / "plain.txt"
    plain.write_text("x", encoding="utf-8")
    target = tmp_path / "out.txt"
    target.write_text("old", encoding="utf-8")
    write_text_atomic(target, "new\nline\n")
    assert target.read_bytes() == b"new\nline\n"
    assert target.stat().st_mode == plain.stat().st_mode
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.txt", "plain.txt"]


def test_write_text_atomic_error_names_the_target(tmp_path):
    target = tmp_path / "missing" / "out.txt"
    with pytest.raises(FileNotFoundError) as info:
        write_text_atomic(target, "x")
    assert info.value.filename == str(target)


def test_write_text_atomic_writes_through_symlink(tmp_path):
    real = tmp_path / "real.txt"
    real.write_text("old", encoding="utf-8")
    link = tmp_path / "link.txt"
    link.symlink_to(real)
    write_text_atomic(link, "through the link\n")
    assert link.is_symlink()
    assert real.read_text(encoding="utf-8") == "through the link\n"
