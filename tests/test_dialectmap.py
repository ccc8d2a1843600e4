import random
import re

import pytest

from asrlm.dialectmap import (
    DialectEvalConfig,
    MappingError,
    MappingTable,
    apply_mapping,
    load_mapping,
    mapped_lm_eval,
    save_mapping,
    select_candidates,
)
from asrlm.ngramcore import count_ngrams, estimate_discounts, perplexity, train_mkn
from asrlm.textcorpus import Corpus, Vocabulary, build_vocabulary, concatenate
from tests.conftest import corpus_of


def test_mapping_table_invariants():
    with pytest.raises(MappingError, match="itself"):
        MappingTable(pairs={"x": "x"})
    table = MappingTable(pairs={"x": "u", "u": "v"})
    assert len(table) == 2


def test_mapping_file_round_trip(tmp_path):
    p = tmp_path / "map.tsv"
    p.write_text("# comment\nda1\tmsa1\tseen in dev\nda2\tmsa2\n", encoding="utf-8")
    table = load_mapping(p)
    assert table.pairs == {"da1": "msa1", "da2": "msa2"}
    assert table.notes["da1"] == "seen in dev"
    q = tmp_path / "out.tsv"
    save_mapping(table, q)
    assert load_mapping(q).pairs == table.pairs


def test_mapping_file_rejects_duplicates(tmp_path):
    p = tmp_path / "map.tsv"
    p.write_text("x\ta\nx\tb\n", encoding="utf-8")
    with pytest.raises(MappingError, match="duplicate"):
        load_mapping(p)


def test_load_mapping_splits_lines_at_line_feed_only(tmp_path):
    p = tmp_path / "map.tsv"
    # U+2028 is a line break to str.splitlines, which would add a pair ef -> gh.
    p.write_text("ab\tcd\u2028ef\tgh\n", encoding="utf-8")
    with pytest.raises(MappingError, match="^" + re.escape(f"{p}:1: expected")):
        load_mapping(p)
    p.write_bytes(b"# note\r\nab\tcd\tseen\r\n\r\nef\tgh\r\n")
    table = load_mapping(p)
    assert table.pairs == {"ab": "cd", "ef": "gh"}
    assert table.notes == {"ab": "seen"}


def test_select_candidates_filters_and_ranks():
    corpus = corpus_of("x x y z")
    exclusion = Vocabulary(["z"])
    assert select_candidates(corpus, 2, exclusion) == [("x", 2), ("y", 1)]
    # k larger than the candidate pool returns everything.
    assert select_candidates(corpus, 10, exclusion) == [("x", 2), ("y", 1)]


def test_apply_mapping_single_pass():
    table = MappingTable(pairs={"x": "u", "u": "v"})
    mapped = apply_mapping(corpus_of("x u"), table)
    # x -> u is not re-mapped to v.
    assert mapped.sentences == (("u", "v"),)


def test_apply_mapping_identity_and_shape():
    corpus = corpus_of("x y z\nq")
    mapped = apply_mapping(corpus, MappingTable(pairs={"x": "u"}))
    assert mapped.sentences == (("u", "y", "z"), ("q",))
    assert mapped.token_count == corpus.token_count
    empty = apply_mapping(corpus, MappingTable(pairs={}))
    assert empty == corpus


def test_apply_mapping_idempotent_for_disjoint_table():
    table = MappingTable(pairs={"x": "u", "y": "w"})
    corpus = corpus_of("x y z")
    once = apply_mapping(corpus, table)
    assert apply_mapping(once, table) == once


def synthetic_dialect_setup():
    """A training set where dialect words are renamed copies of base words."""
    rng = random.Random(42)
    base_words = ["w0", "w1", "w2", "w3", "w4"]
    dialect_of = {w: f"d_{w}" for w in base_words}
    base_sents = []
    for _ in range(60):
        length = rng.randint(2, 6)
        base_sents.append(tuple(rng.choice(base_words) for _ in range(length)))
    dialect_sents = tuple(
        tuple(dialect_of[t] if rng.random() < 0.6 else t for t in s) for s in base_sents[:30]
    )
    train = [
        Corpus(id="base", sentences=tuple(base_sents[30:])),
        Corpus(id="dialect", sentences=dialect_sents),
    ]
    dev_sents = []
    for _ in range(15):
        length = rng.randint(2, 6)
        dev_sents.append(tuple(rng.choice(base_words) for _ in range(length)))
    dev = Corpus(id="dev", sentences=tuple(dev_sents))
    table = MappingTable(pairs={d: w for w, d in dialect_of.items()})
    return train, dev, table


def test_mapped_lm_eval_empty_table_is_bitwise_identity():
    train, dev, _ = synthetic_dialect_setup()
    empty = MappingTable(pairs={})
    cfg = DialectEvalConfig(order=3)
    before, after = mapped_lm_eval(train, dev, empty, cfg)
    assert before == after


def test_mapped_lm_eval_synthetic_dialect_improves():
    train, dev, table = synthetic_dialect_setup()
    cfg = DialectEvalConfig(order=3)
    before, after = mapped_lm_eval(train, dev, table, cfg)
    assert after.ppl < before.ppl


def test_mapped_lm_eval_without_interpolation():
    train, dev, table = synthetic_dialect_setup()
    cfg = DialectEvalConfig(order=2, interpolate=False)
    before, after = mapped_lm_eval(train, dev, table, cfg)
    assert after.ppl < before.ppl


def test_mapped_lm_eval_without_interpolation_trains_one_concatenated_lm():
    train, dev, table = synthetic_dialect_setup()
    cfg = DialectEvalConfig(order=2, interpolate=False)
    before, _ = mapped_lm_eval(train, dev, table, cfg)
    counts = count_ngrams(concatenate("all", train), 2, build_vocabulary(train))
    assert before == perplexity(train_mkn(counts, estimate_discounts(counts)), dev)


def test_mapped_lm_eval_keep_raw_dev():
    train, dev, table = synthetic_dialect_setup()
    cfg = DialectEvalConfig(order=2, map_eval_text=False)
    before, after = mapped_lm_eval(train, dev, table, cfg)
    # dev has no dialect tokens, so both readings coincide on this corpus.
    cfg_mapped = DialectEvalConfig(order=2, map_eval_text=True)
    _, after_mapped = mapped_lm_eval(train, dev, table, cfg_mapped)
    assert after.ppl == pytest.approx(after_mapped.ppl)
