import math
import random

import pytest

from asrlm.ngramcore import ArpaError, read_arpa, write_arpa
from asrlm.textcorpus import BOS, EOS
from tests.conftest import corpus_of, random_corpus, train_on


def models_equal_within(lm1, lm2, tol=1e-6):
    if lm1.order != lm2.order:
        return False
    for k in range(1, lm1.order + 1):
        t1, t2 = lm1.tables.get(k, {}), lm2.tables.get(k, {})
        if set(t1) != set(t2):
            return False
        for gram, (p1, b1) in t1.items():
            p2, b2 = t2[gram]
            if abs(p1 - p2) > tol:
                return False
            if (b1 or 0.0) - (b2 or 0.0) and abs((b1 or 0.0) - (b2 or 0.0)) > tol:
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
    assert lm.tables[1][("a",)] == (-0.30103, None)
    assert lm.tables[1][(EOS,)] == (-0.4, None)


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
    entry = list(lm.tables[2][("b", "a")])
    entry[slot] = value
    lm.tables[2][("b", "a")] = tuple(entry)
    p = tmp_path / "m.arpa"
    with pytest.raises(ValueError) as exc:
        write_arpa(lm, p)
    assert str(exc.value) == f"{p}: 2-gram 'b a' has non-finite {field}; no file written"
    assert list(tmp_path.iterdir()) == []


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
    for gram, (logp, _) in lm.tables[1].items():
        assert math.isclose(reread.tables[1][gram][0], logp, abs_tol=1e-6)
