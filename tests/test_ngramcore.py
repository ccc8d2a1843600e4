import dataclasses
import math
import random
import warnings

import pytest

from asrlm.mixture import interpolate_static, perplexity_mixture
from asrlm.ngramcore import (
    BackoffLM,
    DiscountSet,
    count_ngrams,
    effective_counts,
    estimate_discounts,
    oov_rate,
    perplexity,
    read_arpa,
    rebuild_backoffs,
    train_mkn,
    write_arpa,
)
from asrlm.ngramcore.evaluate import OOV_POLICIES, PerplexityReport, walk_positions
from asrlm.ngramcore.smoothing import closed_form_discounts
from asrlm.pruner import _log_marginals, prune_entropy
from asrlm.textcorpus import BOS, EOS, UNK, Corpus, Vocabulary, build_vocabulary
from tests.conftest import corpus_of, random_corpus, train_on
from tests.reference import (
    BruteForceMKN,
    backoff_log10_prob,
    context_probability_sums,
    iter_positions,
    naive_perplexity,
)


def test_count_ngrams_bigrams_and_unigrams():
    c = corpus_of("a b a")
    v = Vocabulary(["a", "b"])
    t = count_ngrams(c, 2, v)
    assert t.counts[2] == {(BOS, "a"): 1, ("a", "b"): 1, ("b", "a"): 1, ("a", EOS): 1}
    assert t.counts[1] == {("a",): 2, ("b",): 1, (EOS,): 1}


def test_count_ngrams_unigram_order():
    t = count_ngrams(corpus_of("a"), 1, Vocabulary(["a"]))
    assert t.counts[1] == {("a",): 1, (EOS,): 1}


def test_count_ngrams_maps_oov_to_unk():
    t = count_ngrams(corpus_of("a c"), 2, Vocabulary(["a", "b"]))
    assert t.counts[2][("a", UNK)] == 1


def test_count_ngrams_rejects_empty():
    from asrlm.textcorpus import Corpus

    with pytest.raises(ValueError):
        count_ngrams(Corpus(id="e", sentences=()), 2, Vocabulary(["a"]))


def test_continuation_counts():
    # "a b", "c b": b is preceded by two distinct words.
    t = count_ngrams(corpus_of("a b\nc b"), 2, Vocabulary(["a", "b", "c"]))
    assert t.continuation[1][("b",)] == 2
    assert t.continuation[1][(EOS,)] == 1  # only b precedes </s>


def test_effective_counts_bos_keeps_raw():
    t = count_ngrams(corpus_of("a b\na c"), 3, Vocabulary(["a", "b", "c"]))
    eff2 = effective_counts(t, 2)
    assert eff2[(BOS, "a")] == 2  # raw count, continuation would be 0


def test_discount_closed_forms_match_hand_computation():
    # n1=2, n2=1, n3=1, n4=1: Y=0.5, D1=0.5, D2=0.5, D3plus=1.0
    d1, d2, d3 = closed_form_discounts(2, 1, 1, 1)
    assert d1 == pytest.approx(0.5)
    assert d2 == pytest.approx(0.5)
    assert d3 == pytest.approx(1.0)


def test_estimate_discounts_fallback_on_degenerate_counts():
    # Tiny corpus: no 4-times-repeated n-grams, so count-of-counts degenerate.
    t = count_ngrams(corpus_of("a b a"), 2, Vocabulary(["a", "b"]))
    with pytest.warns(UserWarning, match="count-of-counts"):
        d = estimate_discounts(t)
    assert d.by_order[2] == (0.5, 0.5, 0.5)
    assert 2 in d.fallback_orders


def test_estimate_discounts_fallback_warning_names_each_corpus():
    # Both corpora fall back at the same orders, so only the corpus name tells
    # the two warnings apart under the once-per-message filter.
    tables = [count_ngrams(corpus_of("a b a", corpus_id=name), 2, Vocabulary(["a", "b"]))
              for name in ("news", "medical")]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("default")
        for table in tables:
            estimate_discounts(table)
    messages = [str(w.message) for w in caught]
    assert len(messages) == 2
    assert messages[0].startswith("corpus 'news': degenerate count-of-counts")
    assert messages[1].startswith("corpus 'medical': degenerate count-of-counts")


def test_estimate_discounts_fallback_when_all_counts_large():
    c = corpus_of("\n".join(["a b"] * 10))
    t = count_ngrams(c, 2, Vocabulary(["a", "b"]))
    with pytest.warns(UserWarning):
        d = estimate_discounts(t)
    assert d.by_order[1] == (0.5, 0.5, 0.5)


def test_discount_invariant_ranges_on_random_corpora():
    rng = random.Random(7)
    import warnings

    for _ in range(20):
        c = random_corpus(rng)
        t = count_ngrams(c, 3, build_vocabulary([c]))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            d = estimate_discounts(t)
        for k, (d1, d2, d3) in d.by_order.items():
            assert 0.0 < d1 <= 1.0
            assert 0.0 < d2 <= 2.0
            assert 0.0 < d3 <= 3.0


def assert_normalized(lm, tol=1e-6):
    for ctx, total in context_probability_sums(lm):
        assert abs(total - 1.0) <= tol, f"context {ctx} sums to {total}"


def test_train_mkn_small_corpus_normalizes_and_matches_oracle():
    c = corpus_of("a b a")
    lm = train_on(c, 2)
    assert_normalized(lm)
    oracle = BruteForceMKN([s for s in c.sentences], 2, ["a", "b"])
    for k in range(1, 3):
        for gram, logp in lm.tables[k].items():
            if gram == (BOS,):
                continue
            expected = oracle.prob(gram[-1], gram[:-1])
            assert math.isclose(logp, math.log10(expected), abs_tol=1e-9)


def test_train_mkn_unigram_normalization():
    lm = train_on(corpus_of("a"), 1)
    total = sum(10.0 ** lm.log_prob(w) for w in lm.vocab.predicted_words())
    assert total == pytest.approx(1.0, abs=1e-9)


def test_train_mkn_uniform_symmetry():
    # Every bigram occurs equally often: same-context probabilities are equal.
    c = corpus_of("a b\nb a")
    lm = train_on(c, 2)
    assert lm.log_prob("a", [BOS]) == pytest.approx(lm.log_prob("b", [BOS]), abs=1e-12)


def test_mkn_oracle_equivalence_random_corpora():
    rng = random.Random(123)
    other_rng = random.Random(456)
    for trial in range(10):
        order = 2 + trial % 3
        c = random_corpus(rng)
        # The pipeline shares one vocabulary across corpora: words of another
        # corpus are predicted by this one's model with count 0.
        other = random_corpus(other_rng, max_sentences=5)
        other = Corpus(id="other", sentences=tuple(
            tuple("x" + w for w in s) for s in other.sentences))
        own, shared = build_vocabulary([c]), build_vocabulary([c, other])
        assert len(shared) >= len(own) + 2
        for vocab in (own, shared):
            check_against_oracle(c, order, vocab)


def check_against_oracle(c, order, vocab):
    lm = train_on(c, order, vocab)
    assert set(lm.tables[1]) == {(w,) for w in vocab.words}
    oracle = BruteForceMKN(
        [list(s) for s in c.sentences], order, [w for w in vocab.words if w not in (BOS, EOS, UNK)]
    )
    for k in range(1, order + 1):
        for gram, logp in lm.tables[k].items():
            if gram == (BOS,):
                continue
            expected = oracle.prob(gram[-1], gram[:-1])
            assert math.isclose(logp, math.log10(expected), abs_tol=1e-9), (
                f"order {order}, gram {gram}: {logp} vs {math.log10(expected)}"
            )


def test_scale_invariance_with_scaled_top_order_discount():
    # Duplicating the corpus doubles raw counts (top order, <s>-initial grams)
    # and leaves continuation counts alone. Doubling only the top-order flat
    # discount therefore reproduces every stored probability except the
    # <s>-initial grams of the lower (continuation-counted) orders.
    c1 = corpus_of("a b a\nb c\na c b")
    c2 = corpus_of("a b a\nb c\na c b\na b a\nb c\na c b")
    vocab = build_vocabulary([c1])
    t1 = count_ngrams(c1, 3, vocab)
    t2 = count_ngrams(c2, 3, vocab)
    lm1 = train_mkn(t1, DiscountSet(by_order={k: (0.5,) * 3 for k in (1, 2, 3)}))
    scaled = DiscountSet(by_order={1: (0.5,) * 3, 2: (0.5,) * 3, 3: (1.0,) * 3})
    lm2 = train_mkn(t2, scaled)
    compared = 0
    for k in lm1.tables:
        assert set(lm1.tables[k]) == set(lm2.tables[k])
        for gram, logp in lm1.tables[k].items():
            if gram == (BOS,) or (k < 3 and gram[0] == BOS):
                continue
            assert logp == pytest.approx(lm2.tables[k][gram], abs=1e-12), gram
            compared += 1
    assert compared > 10


def test_prob_lookup_and_backoff_recursion():
    lm = train_on(corpus_of("a b a\nb c"), 2)
    stored = lm.tables[2][("a", "b")]
    assert lm.log_prob("b", ["a"]) == stored
    # Unseen bigram backs off: bow(c) + p(a)
    expected = lm.backoffs[1][("c",)] + lm.tables[1][("a",)]
    assert lm.log_prob("a", ["c"]) == pytest.approx(expected, abs=1e-12)
    assert lm.log_prob("a", []) == lm.tables[1][("a",)]


def test_prob_maps_unknowns_to_unk():
    lm = train_on(corpus_of("a b a\nb c"), 2)
    assert lm.log_prob("zzz", ["a"]) == lm.log_prob(UNK, ["a"])
    assert lm.log_prob("a", ["zzz"]) == lm.log_prob("a", [UNK])


def test_perplexity_uniform_model_is_vocab_size():
    # Hand-built uniform unigram model over 8 predicted symbols.
    words = ["u1", "u2", "u3", "u4", "u5", "u6"]
    vocab = Vocabulary(words)
    logp = math.log10(1.0 / 8.0)
    tables = {1: {(w,): logp for w in vocab.predicted_words()}}
    lm = BackoffLM(order=1, tables=tables, vocab=vocab)
    report = perplexity(lm, corpus_of("u1 u2 u3\nu4"), oov_policy="exclude")
    assert report.ppl == pytest.approx(8.0, abs=1e-9)


def test_perplexity_exclude_counts_oov():
    lm = train_on(corpus_of("a b\nb a"), 2, vocab=Vocabulary(["a", "b"]))
    report = perplexity(lm, corpus_of("a z"), oov_policy="exclude")
    assert report.scored_tokens == 2  # a and </s>
    assert report.oov_tokens == 1
    assert report.sentences == 1
    assert report.ppl == pytest.approx(10 ** (-report.log10_prob_sum / 2), abs=1e-12)


def test_perplexity_as_unk_scores_all_positions():
    lm = train_on(corpus_of("a b\nb a"), 2, vocab=Vocabulary(["a", "b"]))
    report = perplexity(lm, corpus_of("a z"), oov_policy="as_unk")
    assert report.scored_tokens == 3
    assert report.oov_tokens == 0


def test_perplexity_on_training_corpus_finite():
    c = corpus_of("a b a\nb c a")
    lm = train_on(c, 3)
    report = perplexity(lm, c)
    assert report.ppl > 0
    assert math.isfinite(report.ppl)


def test_oov_rate():
    v = Vocabulary(["a", "b"])
    assert oov_rate(v, corpus_of("a b c c")) == pytest.approx(0.5)
    assert oov_rate(v, corpus_of("a b b")) == 0.0
    with pytest.raises(ValueError):
        oov_rate(v, corpus_of(""))


def test_normalization_on_random_models():
    rng = random.Random(99)
    for trial in range(5):
        c = random_corpus(rng, max_sentences=25, max_vocab=12)
        lm = train_on(c, 2 + trial % 3)
        assert_normalized(lm)


def test_report_accounts_for_every_predicted_position():
    lm = train_on(corpus_of("a b\nb a"), 2, vocab=Vocabulary(["a", "b"]))
    eval_corpus = corpus_of("a z b\nq")
    for policy in ("exclude", "as_unk"):
        report = perplexity(lm, eval_corpus, oov_policy=policy)
        predicted_positions = eval_corpus.token_count + len(eval_corpus)
        assert report.oov_tokens + report.scored_tokens == predicted_positions


def test_stored_values_are_sane():
    rng = random.Random(13)
    for trial in range(3):
        lm = train_on(random_corpus(rng, max_sentences=20, max_vocab=10), 3)
        for k, table in lm.tables.items():
            for gram, logp in table.items():
                assert logp <= 0.0
                assert math.isfinite(logp) or gram == (BOS,)
            assert lm.backoffs[k].keys() <= table.keys()
            for bow in lm.backoffs[k].values():
                assert math.isfinite(bow)


@pytest.fixture(scope="module")
def seeded_models(tmp_path_factory):
    rng = random.Random(23)
    corpora = [random_corpus(rng, max_sentences=40, max_vocab=12, corpus_id=f"c{i}") for i in range(3)]
    vocab = build_vocabulary(corpora)
    lms = [train_on(corpus, 4, vocab) for corpus in corpora]
    merged = interpolate_static(lms, [0.5, 0.3, 0.2])
    pruned, report = prune_entropy(merged, 1e-3)
    assert sum(report.removed_by_order.values()) > 0
    path = tmp_path_factory.mktemp("arpa") / "pruned.arpa"
    write_arpa(pruned, path)
    # A small vocabulary puts `<unk>` into stored contexts.
    with_unk = train_on(corpora[0], 4, Vocabulary(["w0", "w1", "w2", "w3"]))
    assert any(UNK in gram[:-1] for gram in with_unk.tables[3])
    return {"trained": lms[0], "merged": merged, "pruned": pruned, "read_arpa": read_arpa(path),
            "with_unk": with_unk}


@pytest.mark.parametrize("kind", ["trained", "merged", "pruned", "read_arpa", "with_unk"])
def test_log_prob_equals_backoff_oracle(seeded_models, kind):
    """`log_prob` is float-equal to the table-only oracle: both add the
    back-off weights first and the stored value last. Histories are lists
    and tuples longer than `order - 1`, with OOV tokens and `<s>` in them."""
    lm = seeded_models[kind]
    rng = random.Random(41)
    words = [w for w in lm.vocab.words if w not in (BOS, UNK)]
    tokens = words + [BOS, "oov1", "oov2"]
    mapped = backed_off = 0
    for _ in range(1500):
        history = [rng.choice(tokens) for _ in range(rng.randint(0, lm.order + 2))]
        word = rng.choice(words + ["oov3"])
        expected = backoff_log10_prob(lm, word, history)
        assert lm.log_prob(word, history) == expected, (word, history)
        assert lm.log_prob(word, tuple(history)) == expected, (word, history)
        recent = history[max(0, len(history) - lm.order + 1):]
        mapped += any(t not in lm.vocab for t in recent)
        gram = tuple(t if t in lm.vocab else UNK for t in recent + [word])
        backed_off += gram not in lm.tables[len(gram)]
    assert mapped > 300 and backed_off > 300


@pytest.mark.parametrize("kind", ["trained", "merged", "pruned", "read_arpa", "with_unk"])
def test_walk_equals_log_prob_at_every_position(seeded_models, kind):
    """`walk` on the mapped positions `iter_positions` yields is `==` to
    `log_prob` on the raw word and its full, unmapped history, OOV
    positions included."""
    lm = seeded_models[kind]
    rng = random.Random(53)
    words = [w for w in lm.vocab.words if w not in (BOS, EOS, UNK)] + ["oov1", "oov2"]
    sentences = tuple(tuple(rng.choice(words) for _ in range(rng.randint(1, 14)))
                      for _ in range(60))
    raw = [(word, [BOS, *sent[:i]]) for sent in sentences
           for i, word in enumerate((*sent, EOS))]
    positions = list(iter_positions(Corpus(id="eval", sentences=sentences), lm.vocab, lm.order))
    assert len(positions) == len(raw)
    oov = 0
    for (history, token, is_oov), (word, full_history) in zip(positions, raw):
        assert token == (UNK if is_oov else word)
        assert lm.walk((*history, token))[0] == lm.log_prob(word, full_history), (word, full_history)
        oov += is_oov
    assert oov > 20


def fallback_model() -> BackoffLM:
    """An order-4 model of a degenerate corpus, trained with the flat
    fallback discount."""
    counts = count_ngrams(corpus_of("a b a\nb a"), 4, Vocabulary(["a", "b"]))
    with pytest.warns(UserWarning, match="count-of-counts"):
        discounts = estimate_discounts(counts)
    assert discounts.fallback_orders
    return train_mkn(counts, discounts)


MODEL_KINDS = ["trained", "merged", "pruned", "read_arpa", "with_unk", "fallback"]


def model_of(seeded_models, kind: str) -> BackoffLM:
    return fallback_model() if kind == "fallback" else seeded_models[kind]


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_contexts_and_weighted_grams_are_stored(seeded_models, kind):
    """The two invariants `BackoffLM.walk`'s next history relies on: every
    stored gram's context is stored (a bigram's `(<s>,)` context aside),
    and every gram with a back-off weight is stored."""
    lm = model_of(seeded_models, kind)
    for k in range(1, lm.order + 1):
        assert lm.backoffs[k].keys() <= lm.tables[k].keys(), k
    for k in range(2, lm.order + 1):
        assert lm.tables[k]
        orphans = [gram for gram in lm.tables[k]
                   if gram[:-1] not in lm.tables[k - 1] and gram[:-1] != (BOS,)]
        assert orphans == [], k


@pytest.mark.parametrize("policy", ["exclude", "as_unk"])
@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_walk_from_returned_history_equals_log_prob(seeded_models, kind, policy):
    """Each walk starts from the history the last walk returned, or, after
    an OOV position skipped under `exclude`, that history plus `<unk>`.
    Every position is `==` to `log_prob` on the raw word and its full raw
    history, and so is every value `walk_positions` yields."""
    lm = model_of(seeded_models, kind)
    n = lm.order - 1
    rng = random.Random(59)
    words = [w for w in lm.vocab.words if w not in (BOS, EOS, UNK)] + ["oov1", "oov2"]
    sentences = tuple(tuple(rng.choice(words) for _ in range(rng.randint(1, 14)))
                      for _ in range(60))
    expected = []
    shortened = skipped = 0
    for sent in sentences:
        history = (BOS,)
        for i, word in enumerate((*sent, EOS)):
            token = word if word in lm.vocab else UNK
            if token != word and policy == "exclude":
                history = (*history, UNK)[-n:]
                skipped += 1
                continue
            logp, history = lm.walk((*history, token))
            assert len(history) <= n
            shortened += len(history) < min(n, i + 1)
            expected.append(lm.log_prob(word, [BOS, *sent[:i]]))
            assert logp == expected[-1], (word, sent[:i])
    scored = list(walk_positions(lm, Corpus(id="eval", sentences=sentences), policy == "exclude"))
    assert scored == expected
    assert shortened > 50
    assert skipped > 20 if policy == "exclude" else skipped == 0


@pytest.mark.parametrize("kind", ["trained", "merged", "pruned", "read_arpa", "with_unk"])
def test_walk_of_gram_equals_log_prob(seeded_models, kind):
    """`walk(gram)[0]`, as merging, rebuilding and pruning call it, is `==`
    to `log_prob` and to the table-only oracle for every stored gram and for
    every stored context followed by each predicted word."""
    lm = seeded_models[kind]
    contexts = {()}
    for k in range(1, lm.order + 1):
        for gram in lm.tables[k]:
            assert lm.walk(gram)[0] == lm.log_prob(gram[-1], gram[:-1]), gram
            if k < lm.order:
                contexts.add(gram)
    backed_off = 0
    for ctx in sorted(contexts):
        for w in lm.vocab.predicted_words():
            gram = ctx + (w,)
            backed_off += gram not in lm.tables[len(gram)]
            assert lm.walk(gram)[0] == lm.log_prob(w, ctx) == backoff_log10_prob(lm, w, ctx), gram
    assert backed_off > 0


@pytest.mark.parametrize("kind", ["trained", "merged", "pruned", "read_arpa"])
def test_log_marginals_equal_chain_rule_through_walk(seeded_models, kind):
    """The pruner reads each stored history's marginal from its stored
    prefixes. That is `==` to the chain rule through `walk`, added left to
    right, a leading `<s>` taking p(`</s>`)."""
    lm = seeded_models[kind]
    compared = bos_led = 0
    for k in range(2, lm.order + 1):
        histories = sorted({gram[:-1] for gram in lm.tables[k]})
        for history, log_marginal in _log_marginals(lm.tables, histories):
            expected = lm.walk((EOS,) if history[0] == BOS else history[:1])[0]
            for i in range(1, len(history)):
                expected += lm.walk(history[:i + 1])[0]
            assert log_marginal == expected, history
            compared += 1
            bos_led += history[0] == BOS
    assert compared > 20 and bos_led > 0


@pytest.mark.parametrize("policy", ["exclude", "as_unk"])
@pytest.mark.parametrize("kind", ["trained", "merged", "pruned", "mixture"])
def test_perplexity_reports_equal_naive_backoff_sum(seeded_models, kind, policy):
    """Reports are float-equal, not just close, to scoring every position from
    scratch against its full history and summing in corpus order: for the
    whole corpus and for each sentence alone, where a one-ulp change at one
    position is less likely to round away. The mixture adds a bigram
    component, so its components read histories of two lengths."""
    lm = seeded_models["trained"]
    rng = random.Random(31)
    words = [w for w in lm.vocab.words if w not in (BOS, EOS, UNK)] + ["oov1", "oov2"]
    sentences = tuple(tuple(rng.choice(words) for _ in range(rng.randint(1, 14)))
                      for _ in range(40))
    assert max(len(s) for s in sentences) > 2 * lm.order
    if kind == "mixture":
        bigram = train_on(random_corpus(random.Random(7), max_vocab=12), 2, lm.vocab)
        lms = [seeded_models[k] for k in ("trained", "merged", "pruned")] + [bigram]
        weights = [0.4, 0.3, 0.2, 0.1]
    else:
        lms, weights = [seeded_models[kind]], None
    oov = 0
    for sents in [sentences] + [(s,) for s in sentences]:
        corpus = Corpus(id="eval", sentences=sents)
        if weights is None:
            report = perplexity(lms[0], corpus, policy)
        else:
            report = perplexity_mixture(lms, weights, corpus, policy)
        assert (report.log10_prob_sum, report.scored_tokens, report.oov_tokens, report.sentences,
                report.ppl) == naive_perplexity(lms, weights, sents, policy)
        oov += report.oov_tokens
    assert oov > 0 if policy == "exclude" else oov == 0


def nbest_hypotheses(rng, ref, words, n):
    """`n` hypotheses of `ref`, each one to three substitutions, deletions
    or insertions near its end, as an N-best list has: they share most of
    their grams."""
    hyps = []
    for _ in range(n):
        hyp = list(ref)
        for _ in range(rng.randint(1, 3)):
            i = rng.randint(max(0, len(hyp) - 3), len(hyp))
            op = rng.choice("sdi")
            if op == "i" or i == len(hyp):
                hyp.insert(i, rng.choice(words))
            elif op == "s":
                hyp[i] = rng.choice(words)
            else:
                del hyp[i]
        hyps.append(tuple(hyp))
    return hyps


def naive_report(lms, weights, sentences, policy):
    return PerplexityReport(*naive_perplexity(lms, weights, sentences, policy))


@pytest.mark.parametrize("policy", OOV_POLICIES)
def test_memo_reports_equal_naive_sums_over_nbest_hypotheses(seeded_models, policy,
                                                             monkeypatch):
    """Each hypothesis of an N-best list is scored alone, so most of its
    positions read a gram an earlier hypothesis walked. Every report is
    float-equal to the table-only oracle, on a first pass from empty memos
    and on a second pass from warm ones. The merged model's memo holds every
    gram it walked, so its second pass walks none; the smaller models' memos
    fill and are emptied on the way."""
    rng = random.Random(37)
    lms = [seeded_models[k].clone() for k in ("trained", "merged", "pruned")]
    lms.append(train_on(random_corpus(random.Random(7), max_vocab=12), 2, lms[0].vocab))
    weights = [0.4, 0.3, 0.2, 0.1]
    words = [w for w in lms[0].vocab.words if w not in (BOS, EOS, UNK)] + ["oov1", "oov2"]
    hyps = [hyp for _ in range(5) for hyp in nbest_hypotheses(
        rng, [rng.choice(words) for _ in range(rng.randint(4, 12))], words, 8)]
    assert sum(w not in lms[0].vocab.ids for hyp in hyps for w in hyp) > 5
    assert not any(lm.memo for lm in lms)
    walkers = []
    walk = BackoffLM.walk
    monkeypatch.setattr(BackoffLM, "walk",
                        lambda self, gram: walkers.append(self) or walk(self, gram))
    for first_pass in (True, False):
        walkers.clear()
        for hyp in hyps:
            corpus = Corpus(id="hyp", sentences=(hyp,))
            for lm in lms:
                assert perplexity(lm, corpus, policy) == naive_report([lm], None, (hyp,), policy)
            assert (perplexity_mixture(lms, weights, corpus, policy)
                    == naive_report(lms, weights, (hyp,), policy))
        walks = [sum(walker is lm for walker in walkers) for lm in lms]
        if first_pass:
            assert walks[1] == len(lms[1].memo) > 0
            assert any(n > len(lm.memo) for n, lm in zip(walks, lms))
    assert walks[1] == 0


def test_memo_never_holds_more_entries_than_the_model_has_ngrams(monkeypatch):
    lm = train_on(corpus_of("a b a\nb a"), 2)
    rng = random.Random(5)
    corpora = [Corpus(id="s", sentences=(tuple(rng.choice("a b c".split())
                                              for _ in range(rng.randint(1, 6))),))
               for _ in range(30)]
    fresh = [perplexity(lm.clone(), corpus, "as_unk") for corpus in corpora]
    sizes = []
    query = BackoffLM.query

    def recording_query(self, gram):
        found = query(self, gram)
        sizes.append(len(self.memo))
        return found

    monkeypatch.setattr(BackoffLM, "query", recording_query)
    assert [perplexity(lm, corpus, "as_unk") for corpus in corpora] == fresh
    assert max(sizes) == lm.memo_limit == lm.total_ngrams()
    assert sizes.count(1) > 1  # emptied when full, and filled again


def test_rebuild_backoffs_empties_the_memo_of_a_pruned_model(seeded_models, tmp_path):
    """Deleting grams as the pruner does, then rebuilding the weights, leaves
    an empty memo: the next report reads the new weights, not walks over the
    old ones."""
    lm = seeded_models["merged"].clone()
    rng = random.Random(43)
    words = [w for w in lm.vocab.words if w not in (BOS, EOS, UNK)] + ["oov1"]
    corpus = Corpus(id="eval", sentences=tuple(
        tuple(rng.choice(words) for _ in range(rng.randint(1, 12))) for _ in range(30)))
    before = perplexity(lm, corpus, "as_unk")
    assert lm.memo
    top = lm.tables[lm.order]
    for gram in list(top)[::2]:
        del top[gram]
    rebuild_backoffs(lm)
    assert lm.memo == {} and lm.memo_limit == lm.total_ngrams()
    after = perplexity(lm, corpus, "as_unk")
    assert after != before
    assert after == perplexity(lm.clone(), corpus, "as_unk")
    assert after == naive_report([lm], None, corpus.sentences, "as_unk")
    # Written at 7 significant digits and read back, the model scores alike.
    write_arpa(lm, tmp_path / "m.arpa")
    again = perplexity(read_arpa(tmp_path / "m.arpa"), corpus, "as_unk")
    assert again.scored_tokens == after.scored_tokens
    assert again.log10_prob_sum == pytest.approx(after.log10_prob_sum, rel=1e-6)


def test_models_made_from_a_scored_model_start_with_an_empty_memo(seeded_models, tmp_path):
    """The memo is no field: `==` and `repr` ignore it, and `clone`,
    `dataclasses.replace`, `read_arpa`, the merge and the pruner give a new
    model an empty one. The merge and the pruner call `walk` directly, so
    they leave their input's memo as it was."""
    lm = seeded_models["trained"].clone()
    unscored = lm.clone()
    perplexity(lm, random_corpus(random.Random(3), max_vocab=12), "as_unk")
    memo = dict(lm.memo)
    assert memo and lm == unscored and repr(lm) == repr(unscored)
    write_arpa(lm, tmp_path / "m.arpa")
    with pytest.warns(UserWarning):
        unpruned = prune_entropy(lm, -1.0)[0]
    made = [lm.clone(), dataclasses.replace(lm), read_arpa(tmp_path / "m.arpa"),
            interpolate_static([lm], [1.0]), interpolate_static([lm, seeded_models["merged"]],
                                                                [0.5, 0.5]),
            prune_entropy(lm, 1e-3)[0], unpruned]
    assert all(m.memo == {} and m.memo_limit == m.total_ngrams() for m in made)
    assert lm.memo == memo


def test_perplexity_report_is_a_frozen_slotted_value():
    report = PerplexityReport(log10_prob_sum=-3.5, scored_tokens=4, oov_tokens=1, sentences=2,
                              ppl=7.5)
    assert not hasattr(report, "__dict__")
    with pytest.raises(dataclasses.FrozenInstanceError):
        report.ppl = 1.0
    same = PerplexityReport(-3.5, 4, 1, 2, 7.5)
    assert report == same and report != dataclasses.replace(report, oov_tokens=0)
    assert hash(report) == hash(same) == hash((-3.5, 4, 1, 2, 7.5))
    assert repr(report) == ("PerplexityReport(log10_prob_sum=-3.5, scored_tokens=4, "
                            "oov_tokens=1, sentences=2, ppl=7.5)")
    assert dataclasses.replace(report, ppl=2.0) == PerplexityReport(-3.5, 4, 1, 2, 2.0)
