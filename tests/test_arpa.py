import math
import random

import pytest

from asrlm.cli import main
from asrlm.mixture import interpolate_static
from asrlm.ngramcore import ArpaError, BackoffLM, arpa, read_arpa, rebuild_backoffs, write_arpa
from asrlm.pruner import _entropy_deltas, prune_entropy
from asrlm.textcorpus import BOS, EOS, Vocabulary, build_vocabulary
from tests.conftest import corpus_of, random_corpus, traced_peak, train_on
from tests.reference import reference_arpa_text


def models_equal_within(lm1, lm2, tol=1e-6):
    if lm1.order != lm2.order:
        return False
    for k in range(1, lm1.order + 1):
        t1, t2 = lm1.tables.get(k, {}), lm2.tables.get(k, {})
        if set(t1) != set(t2):
            return False
        for gram, p1 in t1.items():
            if abs(p1 - t2[gram]) > tol:
                return False
        b1, b2 = lm1.backoffs.get(k, {}), lm2.backoffs.get(k, {})
        for gram in t1:
            if abs(b1.get(gram, 0.0) - b2.get(gram, 0.0)) > tol:
                return False
    return True


def test_round_trip_preserves_values(tmp_path):
    lm = train_on(corpus_of("a b a\nb c a\nc"), 3)
    p = tmp_path / "m.arpa"
    write_arpa(lm, p)
    assert models_equal_within(lm, read_arpa(p))


def test_write_read_write_byte_identical(tmp_path):
    rng = random.Random(5)
    for i in range(4):
        lm = train_on(random_corpus(rng, max_sentences=20, max_vocab=10), 2 + i % 3)
        p1 = tmp_path / f"m{i}a.arpa"
        p2 = tmp_path / f"m{i}b.arpa"
        write_arpa(lm, p1)
        write_arpa(read_arpa(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()


def test_read_hand_written_unigram_file(tmp_path):
    p = tmp_path / "uni.arpa"
    p.write_text(
        "\\data\\\nngram 1=2\n\n\\1-grams:\n-0.30103\ta\n-0.4\t</s>\n\n\\end\\\n",
        encoding="utf-8",
    )
    lm = read_arpa(p)
    assert lm.order == 1
    assert lm.tables[1] == {("a",): -0.30103, (EOS,): -0.4}
    assert lm.backoffs[1] == {}


def test_header_count_mismatch_names_both_numbers(tmp_path):
    p = tmp_path / "bad.arpa"
    p.write_text(
        "\\data\\\nngram 1=3\n\n\\1-grams:\n-0.3\ta\n-0.4\tb\n\n\\end\\\n",
        encoding="utf-8",
    )
    with pytest.raises(ArpaError, match=r"3.*2"):
        read_arpa(p)


def test_missing_end_marker(tmp_path):
    p = tmp_path / "bad.arpa"
    p.write_text("\\data\\\nngram 1=1\n\n\\1-grams:\n-0.3\ta\n", encoding="utf-8")
    with pytest.raises(ArpaError, match="end"):
        read_arpa(p)


def test_repeated_section_header_reports_line_number(tmp_path):
    # The second unigram section alone matches the declared count; it must
    # not silently replace the first.
    p = tmp_path / "bad.arpa"
    p.write_text(
        "\\data\\\nngram 1=2\n\n\\1-grams:\n-0.3\ta\n\n"
        "\\1-grams:\n-0.3\t</s>\n-0.4\tb\n\n\\end\\\n",
        encoding="utf-8",
    )
    with pytest.raises(ArpaError, match=r":7: repeated section header '\\\\1-grams:'"):
        read_arpa(p)


@pytest.mark.parametrize("sections, message", [
    ("\\2-grams:\n-0.2\ta b\n\n\\1-grams:\n-0.3\ta\n-0.4\tb\n",
     ":6: section 2 out of order, expected section 1"),
    ("\\1-grams:\n-0.3\ta\n-0.4\tb\n\n\\3-grams:\n\n\\2-grams:\n-0.2\ta b\n",
     ":10: section 3 out of order, expected section 2"),
], ids=["bigrams first", "order skipped"])
def test_section_out_of_order_reports_line_number(tmp_path, sections, message):
    # Sections run 1, 2, ...: each gram's words are checked against the unigrams.
    p = tmp_path / "bad.arpa"
    p.write_text("\\data\\\nngram 1=2\nngram 2=1\nngram 3=0\n\n" + sections + "\n\\end\\\n",
                 encoding="utf-8")
    with pytest.raises(ArpaError, match=message):
        read_arpa(p)


def test_text_after_end_reports_line_number(tmp_path):
    p = tmp_path / "bad.arpa"
    p.write_text(
        "\\data\\\nngram 1=2\n\n\\1-grams:\n-0.3\t</s>\n-0.4\ta\n\n\\end\\\n\n"
        "-0.1\tb\nmore garbage\n",
        encoding="utf-8",
    )
    with pytest.raises(ArpaError, match=r":10: text after \\end\\: '-0.1\\tb'"):
        read_arpa(p)
    p.write_text("\\data\\\nngram 1=1\n\n\\1-grams:\n-0.3\t</s>\n\\end\\\n\n\n",
                 encoding="utf-8")
    assert read_arpa(p).size_by_order() == {1: 1}


def test_malformed_entry_reports_line_number(tmp_path):
    p = tmp_path / "bad.arpa"
    p.write_text(
        "\\data\\\nngram 1=1\n\n\\1-grams:\nnot-a-number\ta\n\n\\end\\\n",
        encoding="utf-8",
    )
    with pytest.raises(ArpaError, match=":5:"):
        read_arpa(p)


def test_garbage_before_first_section_reports_line_number(tmp_path):
    p = tmp_path / "bad.arpa"
    p.write_text(
        "\\data\\\nngram 1=1\nthis is garbage\n\\1-grams:\n-0.3\ta\n\n\\end\\\n",
        encoding="utf-8",
    )
    with pytest.raises(ArpaError, match=":3: expected 'ngram k=COUNT' or a section header, "
                                        "got 'this is garbage'"):
        read_arpa(p)


@pytest.mark.parametrize("entry, message", [
    ("nan\ta\t-0.2", "log-probability 'nan'"),
    ("-inf\ta\t-0.2", "log-probability '-inf'"),
    ("0.5\ta\t-0.2", "log-probability '0.5'"),
    ("-0.3\ta\tnan", "back-off weight 'nan'"),
    ("-0.3\ta\tinf", "back-off weight 'inf'"),
])
def test_non_finite_or_positive_values_report_line_number(tmp_path, entry, message):
    p = tmp_path / "bad.arpa"
    p.write_text(
        f"\\data\\\nngram 1=2\n\n\\1-grams:\n-0.4\t</s>\n{entry}\n\n\\end\\\n",
        encoding="utf-8",
    )
    with pytest.raises(ArpaError, match=f":6: {message}"):
        read_arpa(p)


@pytest.mark.parametrize("slot, value, field", [
    (0, math.nan, "log-prob nan"),
    (1, math.inf, "back-off weight inf"),
    (0, -math.inf, "log-prob -inf"),
])
def test_write_arpa_refuses_non_finite_values(tmp_path, slot, value, field):
    lm = train_on(corpus_of("a b a\nb c a\nc"), 3)
    assert ("b", "a") in lm.backoffs[2]
    (lm.tables, lm.backoffs)[slot][2][("b", "a")] = value
    p = tmp_path / "m.arpa"
    with pytest.raises(ValueError) as exc:
        write_arpa(lm, p)
    assert str(exc.value) == f"{p}: 2-gram 'b a' has non-finite {field}; no file written"
    assert list(tmp_path.iterdir()) == []


def wide_lm(n_trigrams: int) -> BackoffLM:
    """300 ten-letter words with back-off weights, `n_trigrams` trigrams
    over them and the bigram context of each, with values that 7
    significant digits write exactly."""
    words = [f"word{i:06d}" for i in range(300)]
    trigrams = {(words[i % 300], words[i // 300 % 300], words[i // 90_000]): -(i % 997) / 100
                for i in range(n_trigrams)}
    bigrams = {gram[:2]: -1.5 for gram in trigrams}
    return BackoffLM(order=3, tables={1: {(w,): -2.5 for w in words}, 2: bigrams, 3: trigrams},
                     vocab=Vocabulary(words), backoffs={1: {(w,): -0.25 for w in words}})


def test_write_arpa_refuses_non_finite_value_past_first_chunk(tmp_path):
    lm = wide_lm(3 * arpa._CHUNK_LINES)
    p = tmp_path / "m.arpa"
    write_arpa(lm, p)
    again = read_arpa(p)
    assert (again.tables, again.backoffs) == (lm.tables, lm.backoffs)
    old = p.read_bytes()
    last = max(lm.tables[3])
    lm.tables[3][last] = math.nan
    with pytest.raises(ValueError) as exc:
        write_arpa(lm, p)
    assert str(exc.value) == (f"{p}: 3-gram {' '.join(last)!r} has non-finite log-prob nan; "
                              "no file written")
    assert p.read_bytes() == old
    assert [q.name for q in tmp_path.iterdir()] == ["m.arpa"]


def test_write_arpa_memory_is_bounded(tmp_path):
    # Joining every line before the write peaked at about 5.6x the file size,
    # and a sorted key list per table at about 0.3x; one chunk of keys at a
    # time is about 0.04x (CPython 3.11).
    lm = wide_lm(66_000)
    p = tmp_path / "m.arpa"
    peak = traced_peak(lambda: write_arpa(lm, p))
    size = p.stat().st_size
    assert size >= 2_500_000
    assert peak < size / 10, (peak, size)


def test_write_arpa_does_not_copy_the_backoff_weights(tmp_path):
    # Copying each order's written weights into a dict before writing peaked
    # at about 0.84x the file size for 66,000 weighted bigrams; testing each
    # line's final word instead keeps the peak of a chunk (CPython 3.11).
    lm = wide_lm(66_000)
    lm.backoffs[2] = dict.fromkeys(lm.tables[2], -0.5)
    p = tmp_path / "m.arpa"
    peak = traced_peak(lambda: write_arpa(lm, p))
    size = p.stat().st_size
    assert peak < size / 10, (peak, size)


def test_backoff_omitted_for_eos_and_top_order(tmp_path):
    lm = train_on(corpus_of("a b a\nb a"), 2)
    p = tmp_path / "m.arpa"
    write_arpa(lm, p)
    in_bigrams = False
    for line in p.read_text(encoding="utf-8").splitlines():
        if line.startswith("\\2-grams"):
            in_bigrams = True
            continue
        fields = line.split("\t")
        if len(fields) < 2:
            continue
        if in_bigrams:
            assert len(fields) == 2
        elif fields[1] == EOS:
            assert len(fields) == 2


def test_written_probs_have_seven_significant_digits(tmp_path):
    lm = train_on(corpus_of("a b a\nb c a"), 2)
    p = tmp_path / "m.arpa"
    write_arpa(lm, p)
    reread = read_arpa(p)
    for gram, logp in lm.tables[1].items():
        assert math.isclose(reread.tables[1][gram], logp, abs_tol=1e-6)


def bigram_arpa(unigrams: list[str], bigram: str) -> str:
    """A bigram ARPA text: `unigrams` at line 6 onwards, `bigram` as the last entry."""
    entries = "".join(f"-0.5\t{w}\t-0.2\n" for w in unigrams)
    return (f"\\data\\\nngram 1={len(unigrams)}\nngram 2=1\n\n\\1-grams:\n{entries}\n"
            f"\\2-grams:\n-0.2\t{bigram}\n\n\\end\\\n")


@pytest.mark.parametrize("bigram, word", [("a zz", "zz"), ("zz a", "zz"), ("a <s>", BOS)])
def test_read_refuses_word_without_unigram_at_its_line(tmp_path, bigram, word):
    # Such a gram is never queried (its word maps to `<unk>`), but merging and
    # pruning walk every stored gram and would meet the missing unigram.
    p = tmp_path / "bad.arpa"
    p.write_text(bigram_arpa(["a", EOS, "<unk>"], bigram), encoding="utf-8")
    with pytest.raises(ArpaError) as err:
        read_arpa(p)
    assert str(err.value) == f"{p}:11: word {word!r} of {bigram!r} has no unigram entry"


def trigram_arpa(trigram: str) -> str:
    """A trigram ARPA text with the one bigram `a b` and `trigram` at line 16."""
    entries = "".join(f"-0.5\t{w}\t-0.2\n" for w in ("a", "b", EOS, "<unk>"))
    return (f"\\data\\\nngram 1=4\nngram 2=1\nngram 3=1\n\n\\1-grams:\n{entries}\n"
            f"\\2-grams:\n-0.2\ta b\t-0.1\n\n\\3-grams:\n-0.1\t{trigram}\n\n\\end\\\n")


@pytest.mark.parametrize("trigram, message", [
    ("b a b", "context 'b a' of 'b a b' has no 2-gram entry"),
    ("<s> a b", "context '<s> a' of '<s> a b' has no 2-gram entry"),
    ("zz a b", "word 'zz' of 'zz a b' has no unigram entry"),  # the word check runs first
])
def test_read_refuses_gram_whose_context_has_no_entry(tmp_path, trigram, message):
    # Scoring carries the gram each walk matched as the next history, which
    # is exact only if no longer context holds a gram: the prefix rule.
    p = tmp_path / "bad.arpa"
    p.write_text(trigram_arpa(trigram), encoding="utf-8")
    with pytest.raises(ArpaError) as err:
        read_arpa(p)
    assert str(err.value) == f"{p}:16: {message}"
    p.write_text(trigram_arpa("a b a"), encoding="utf-8")
    assert read_arpa(p).tables[3] == {("a", "b", "a"): -0.1}


@pytest.mark.parametrize("command", ["lm ppl --lm {lm} --corpus {corpus}",
                                     "prune --lm {lm} --theta 1e-3 --out {out}"])
def test_cli_refuses_gram_whose_context_has_no_entry(tmp_path, capsys, command):
    lm = tmp_path / "bad.arpa"
    lm.write_text(trigram_arpa("b a b"), encoding="utf-8")
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("a b a\n", encoding="utf-8")
    out = tmp_path / "out.arpa"
    assert main(command.format(lm=lm, corpus=corpus, out=out).split()) == 1
    err = capsys.readouterr().err
    assert err == f"error: {lm}:16: context 'b a' of 'b a b' has no 2-gram entry\n"
    assert not out.exists()


def test_read_accepts_leading_bos_without_bos_unigram(tmp_path):
    # A leading `<s>` is context only: every vocabulary holds it, queries
    # reach the gram, and merging and pruning never read p(`<s>`).
    p = tmp_path / "m.arpa"
    p.write_text(bigram_arpa(["a", "b", EOS, "<unk>"], f"{BOS} a"), encoding="utf-8")
    lm = read_arpa(p)
    assert (BOS,) not in lm.tables[1]
    assert lm.log_prob("a", [BOS]) == -0.2
    pruned, _ = prune_entropy(lm, 1e-9)
    assert pruned.tables[2] == {(BOS, "a"): -0.2}
    merged = interpolate_static([lm, read_arpa(p)], [0.5, 0.5])
    assert merged.tables[2].keys() == {(BOS, "a")}


@pytest.fixture(scope="module")
def written_models(tmp_path_factory):
    """Trained, merged, pruned and read-back models, and one of several chunks."""
    rng = random.Random(97)
    corpora = [random_corpus(rng, max_sentences=60, max_vocab=25, corpus_id=f"c{i}")
               for i in range(3)]
    vocab = build_vocabulary(corpora)
    lms = [train_on(corpus, 4, vocab) for corpus in corpora]
    merged = interpolate_static(lms, [0.5, 0.3, 0.2])
    pruned = prune_entropy(merged, 1e-4)[0]
    path = tmp_path_factory.mktemp("arpa") / "pruned.arpa"
    write_arpa(pruned, path)
    return {"trained": lms[0], "merged": merged, "pruned": pruned, "read_back": read_arpa(path),
            "wide": wide_lm(3 * arpa._CHUNK_LINES + 5)}


@pytest.mark.parametrize("kind", ["trained", "merged", "pruned", "read_back", "wide"])
def test_write_arpa_bytes_equal_the_per_line_writer(written_models, kind, tmp_path):
    lm = written_models[kind]
    p = tmp_path / "m.arpa"
    write_arpa(lm, p)
    assert p.read_bytes() == reference_arpa_text(lm, p).encode("utf-8")


@pytest.mark.parametrize("kind", ["trained", "merged", "pruned", "read_back", "wide"])
def test_every_table_is_in_sorted_gram_order(written_models, kind):
    # Trained, merged, pruned, read and hand-built models, and their clones.
    lm = written_models[kind]
    for model in (lm, lm.clone()):
        for k, table in model.tables.items():
            assert list(table) == sorted(table), k


def test_read_arpa_sorts_sections_written_out_of_order(written_models, tmp_path):
    # Reading accepts a section's n-grams in any order.
    p, shuffled = tmp_path / "m.arpa", tmp_path / "shuffled.arpa"
    write_arpa(written_models["pruned"], p)
    rng = random.Random(11)
    blocks = p.read_text(encoding="utf-8").split("\n\n")
    for i, block in enumerate(blocks[1:-1], start=1):  # each `\k-grams:` section
        header, *entries = block.split("\n")
        blocks[i] = "\n".join([header, *rng.sample(entries, len(entries))])
    shuffled.write_text("\n\n".join(blocks), encoding="utf-8")
    assert shuffled.read_bytes() != p.read_bytes()
    in_order, out_of_order = read_arpa(p), read_arpa(shuffled)
    assert all(list(table) == sorted(table) for table in out_of_order.tables.values())
    assert {k: list(t.items()) for k, t in out_of_order.tables.items()} == \
           {k: list(t.items()) for k, t in in_order.tables.items()}
    assert out_of_order.backoffs == in_order.backoffs
    write_arpa(out_of_order, shuffled)
    assert shuffled.read_bytes() == p.read_bytes()


@pytest.mark.parametrize("kind", ["merged", "pruned"])
def test_shuffled_tables_build_the_model_of_sorted_ones(written_models, kind, tmp_path):
    # The constructor sorts a table that arrives out of order, and keeps one
    # that arrives sorted: back-off weights, pruning deltas and the ARPA
    # bytes are then the same, in the same order.
    lm = written_models[kind]
    rng = random.Random(13)

    def build(tables):
        return BackoffLM(order=lm.order, tables=tables, vocab=lm.vocab,
                         backoffs={k: dict(b) for k, b in lm.backoffs.items()})

    tables = {k: dict(t) for k, t in lm.tables.items()}
    in_order = build(dict(tables))
    assert all(in_order.tables[k] is tables[k] for k in tables)
    shuffled = build({k: dict(rng.sample(list(t.items()), len(t))) for k, t in tables.items()})
    p = tmp_path / "m.arpa"
    for model in (in_order, shuffled):
        write_arpa(model, p)
        assert p.read_bytes() == reference_arpa_text(lm, p).encode("utf-8")
    for k in range(2, lm.order + 1):
        protected = {g[:-1] for g in lm.tables.get(k + 1, {})}
        assert list(_entropy_deltas(shuffled, k, protected)) == \
               list(_entropy_deltas(in_order, k, protected))
    for model in (in_order, shuffled):
        rebuild_backoffs(model)
    assert {k: list(b.items()) for k, b in shuffled.backoffs.items()} == \
           {k: list(b.items()) for k, b in in_order.backoffs.items()}


def test_no_chunk_exceeds_the_chunk_size(written_models, monkeypatch):
    lm = written_models["merged"]
    monkeypatch.setattr(arpa, "_CHUNK_LINES", 7)
    chunks = list(arpa._arpa_chunks(lm, "m.arpa"))
    assert max(chunk.count("\n") for chunk in chunks) == 7
    assert all(chunk.endswith("\n") for chunk in chunks)
    assert "".join(chunks) == reference_arpa_text(lm, "m.arpa")


def test_negative_zero_is_written_as_zero(tmp_path):
    lm = train_on(corpus_of("a b a\nb c a\nc"), 2)
    lm.tables[1][("a",)] = -0.0
    lm.backoffs[1][("b",)] = -0.0
    p = tmp_path / "m.arpa"
    write_arpa(lm, p)
    lines = p.read_text(encoding="utf-8").splitlines()
    assert "0\ta\t" + f"{lm.backoffs[1][('a',)]:.7g}" in lines
    assert any(line.startswith(f"{lm.tables[1][('b',)]:.7g}\tb\t0") for line in lines)
    assert not any(field == "-0" for line in lines for field in line.split("\t"))
    assert p.read_text(encoding="utf-8") == reference_arpa_text(lm, p)


@pytest.mark.parametrize("edits", [
    [(0, 1, ("c",), math.nan), (0, 1, ("a",), math.inf)],        # the first gram in file order
    [(1, 1, ("a",), -math.inf), (0, 1, ("a",), math.nan)],       # its log-prob before its weight
    [(1, 1, ("b",), math.nan), (0, 2, ("a", "b"), math.inf)],    # the lower order first
    [(1, 2, ("b", "a"), math.inf), (0, 3, ("c", "a", EOS), math.nan)],
    [(1, 2, ("a", EOS), math.nan), (1, 3, ("a", "b", "a"), math.inf),  # never written
     (0, 3, ("c", "a", EOS), -math.inf)],
], ids=["order", "field", "lower-order", "weight", "after-unwritten"])
def test_write_arpa_names_the_first_non_finite_value_written(tmp_path, edits):
    lm = train_on(corpus_of("a b a\nb c a\nc"), 3)
    for slot, k, gram, value in edits:
        assert gram in lm.tables[k]
        (lm.tables, lm.backoffs)[slot][k][gram] = value
    p = tmp_path / "m.arpa"
    with pytest.raises(ValueError) as expected:
        reference_arpa_text(lm, p)
    with pytest.raises(ValueError) as exc:
        write_arpa(lm, p)
    assert str(exc.value) == str(expected.value)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("slot", ["eos-final", "top-order", "not-stored"])
def test_non_finite_weights_never_written_are_no_error(tmp_path, slot):
    lm = train_on(corpus_of("a b a\nb c a\nc"), 3)
    k, gram = {"eos-final": (2, ("a", EOS)), "top-order": (3, ("a", "b", "a")),
               "not-stored": (2, ("c", "c"))}[slot]
    assert (gram in lm.tables[k]) == (slot != "not-stored")
    lm.backoffs[k][gram] = math.nan
    p = tmp_path / "m.arpa"
    write_arpa(lm, p)
    assert p.read_text(encoding="utf-8") == reference_arpa_text(lm, p)
