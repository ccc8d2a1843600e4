import math
import random
import re
from functools import partial

import pytest

from asrlm.mixture import (
    InterpolationWeights,
    em_columns,
    em_weights,
    interpolate_static,
    load_weights,
    mix_log10,
    mixture_log_prob,
    perplexity_mixture,
    save_weights,
)
from asrlm.ngramcore import BackoffLM, perplexity
from asrlm.ngramcore.evaluate import OOV_POLICIES, position_columns, score_corpus
from asrlm.textcorpus import BOS, EOS, UNK, Corpus, Vocabulary, build_vocabulary, concatenate
from tests.conftest import corpus_of, random_corpus, train_on
from tests.reference import context_probability_sums, reference_em_weights


def unigram_lm(probs: dict[str, float], vocab: Vocabulary, lm_id: str) -> BackoffLM:
    tables = {1: {(w,): math.log10(probs[w]) for w in vocab.predicted_words()}}
    return BackoffLM(order=1, tables=tables, vocab=vocab, metadata={"corpus_id": lm_id})


@pytest.fixture
def opposed_unigram_pair():
    # Word masses 0.9/0.1 scaled by 0.99; </s> and <unk> share the rest
    # equally in both components so they do not move the optimum.
    vocab = Vocabulary(["a", "b"])
    lm1 = unigram_lm({"a": 0.891, "b": 0.099, EOS: 0.005, UNK: 0.005}, vocab, "one")
    lm2 = unigram_lm({"a": 0.099, "b": 0.891, EOS: 0.005, UNK: 0.005}, vocab, "two")
    return lm1, lm2


def test_em_converges_to_closed_form_optimum(opposed_unigram_pair):
    lm1, lm2 = opposed_unigram_pair
    dev = corpus_of("a a a a b")
    result = em_weights([lm1, lm2], dev, tol=1e-12, max_iter=500)
    assert result.lambdas[0] == pytest.approx(0.875, abs=1e-4)
    assert result.lambdas[1] == pytest.approx(0.125, abs=1e-4)


def test_em_identical_components_keep_init(opposed_unigram_pair):
    lm1, _ = opposed_unigram_pair
    dev = corpus_of("a b a")
    result = em_weights([lm1, lm1], dev, init=[0.3, 0.7], tol=1e-12, max_iter=50)
    assert result.lambdas[0] == pytest.approx(0.3, abs=1e-12)
    assert result.lambdas[1] == pytest.approx(0.7, abs=1e-12)


def test_em_dominant_component_takes_weight(opposed_unigram_pair):
    lm1, lm2 = opposed_unigram_pair
    dev = corpus_of("a a a\na a")
    result = em_weights([lm1, lm2], dev, tol=0.0, max_iter=400)
    assert result.lambdas[0] > 1.0 - 1e-3


def test_em_log_likelihood_monotone_random_mixtures():
    rng = random.Random(31)
    for _ in range(6):
        n = rng.randint(2, 4)
        corpora = [random_corpus(rng, max_sentences=15, max_vocab=10, corpus_id=f"c{i}") for i in range(n)]
        vocab = build_vocabulary(corpora)
        lms = [train_on(c, 2, vocab) for c in corpora]
        dev = random_corpus(rng, max_sentences=6, max_vocab=10, corpus_id="dev")
        traces = []

        # Track likelihood across iterations by re-running with growing caps.
        prev = None
        for iters in range(1, 8):
            r = em_weights(lms, dev, tol=0.0, max_iter=iters)
            if prev is not None:
                assert r.dev_log10_likelihood >= prev - 1e-10
            prev = r.dev_log10_likelihood
            traces.append(r.dev_log10_likelihood)
        assert traces == sorted(traces)


@pytest.mark.parametrize("kwargs, message", [
    ({"max_iter": 0}, "max_iter must be >= 1, got 0"),
    ({"max_iter": -5}, "max_iter must be >= 1, got -5"),
    ({"tol": math.nan}, "tol must be a number >= 0, got nan"),
    ({"tol": -1.0}, "tol must be a number >= 0, got -1.0"),
])
def test_em_refuses_bad_iteration_parameters(opposed_unigram_pair, kwargs, message):
    with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
        em_weights(list(opposed_unigram_pair), corpus_of("a b b"), **kwargs)


def test_em_requires_shared_vocabulary():
    lm1 = train_on(corpus_of("a b"), 2)
    lm2 = train_on(corpus_of("c d"), 2)
    with pytest.raises(ValueError, match="vocabulary"):
        em_weights([lm1, lm2], corpus_of("a"))


def test_em_weights_stay_on_simplex(opposed_unigram_pair):
    lm1, lm2 = opposed_unigram_pair
    for iters in range(1, 6):
        r = em_weights([lm1, lm2], corpus_of("a b b"), tol=0.0, max_iter=iters)
        assert all(l >= 0 for l in r.lambdas)
        assert sum(r.lambdas) == pytest.approx(1.0, abs=1e-9)


def test_em_single_component_takes_weight_one():
    lm = train_on(corpus_of("a b a\nb c"), 2)
    dev = corpus_of("a b\nc a z")
    result = em_weights([lm], dev)
    assert result.lambdas == (1.0,)
    direct = perplexity(lm, dev, oov_policy="as_unk").log10_prob_sum
    assert result.dev_log10_likelihood == pytest.approx(direct, rel=1e-12)


@pytest.mark.parametrize("call", [
    lambda: em_weights([], corpus_of("a")),
    lambda: perplexity_mixture([], [], corpus_of("a")),
    lambda: interpolate_static([], []),
], ids=["em_weights", "perplexity_mixture", "interpolate_static"])
def test_mixture_entry_points_refuse_no_components(call):
    with pytest.raises(ValueError, match="need at least one component model"):
        call()


def test_perplexity_mixture_single_component_matches_plain():
    c = corpus_of("a b a\nb c")
    lm = train_on(c, 2)
    dev = corpus_of("a b\nc a")
    direct = perplexity(lm, dev)
    mixed = perplexity_mixture([lm], [1.0], dev)
    assert mixed.ppl == pytest.approx(direct.ppl, rel=1e-12)
    assert mixed.scored_tokens == direct.scored_tokens


def test_perplexity_mixture_identical_components(opposed_unigram_pair):
    lm1, _ = opposed_unigram_pair
    dev = corpus_of("a b")
    solo = perplexity_mixture([lm1], [1.0], dev)
    duo = perplexity_mixture([lm1, lm1], [0.25, 0.75], dev)
    assert duo.ppl == pytest.approx(solo.ppl, rel=1e-12)


def test_em_weights_beat_uniform_on_dev(opposed_unigram_pair):
    lm1, lm2 = opposed_unigram_pair
    dev = corpus_of("a a a a b")
    est = em_weights([lm1, lm2], dev, tol=1e-12, max_iter=300)
    ppl_em = perplexity_mixture([lm1, lm2], est, dev).ppl
    ppl_uniform = perplexity_mixture([lm1, lm2], [0.5, 0.5], dev).ppl
    assert ppl_em <= ppl_uniform + 1e-12


def test_static_merge_identity():
    lm = train_on(corpus_of("a b a\nb c"), 2)
    merged = interpolate_static([lm], [1.0])
    for k in lm.tables:
        assert merged.tables[k] == lm.tables[k]
        assert merged.backoffs[k] == lm.backoffs[k]


def test_static_merge_normalizes_and_matches_dynamic_on_stored():
    rng = random.Random(77)
    c1 = random_corpus(rng, max_sentences=12, max_vocab=8, corpus_id="c1")
    c2 = random_corpus(rng, max_sentences=12, max_vocab=8, corpus_id="c2")
    vocab = build_vocabulary([c1, c2])
    lms = [train_on(c1, 2, vocab), train_on(c2, 2, vocab)]
    lambdas = [0.3, 0.7]
    merged = interpolate_static(lms, lambdas)
    for ctx, total in context_probability_sums(merged):
        assert abs(total - 1.0) <= 1e-6
    for k in range(1, 3):
        for gram, logp in merged.tables[k].items():
            if gram == ("<s>",):
                continue
            dyn = mixture_log_prob(lms, lambdas, gram[-1], gram[:-1])
            assert abs(logp - dyn) <= 1e-9


def test_static_merge_requires_same_order():
    c = corpus_of("a b a")
    vocab = build_vocabulary([c])
    with pytest.raises(ValueError, match="order"):
        interpolate_static([train_on(c, 2, vocab), train_on(c, 3, vocab)], [0.5, 0.5])


def test_weights_file_round_trip(tmp_path, opposed_unigram_pair):
    w = InterpolationWeights(lm_ids=("one", "two"), lambdas=(0.25, 0.75), dev_log10_likelihood=-12.5)
    p = tmp_path / "weights.tsv"
    save_weights(w, p)
    loaded = load_weights(p, list(opposed_unigram_pair))
    assert loaded.lm_ids == ("one", "two")
    assert loaded.lambdas == pytest.approx((0.25, 0.75))


def test_weights_file_must_sum_to_one(tmp_path, opposed_unigram_pair):
    p = tmp_path / "weights.tsv"
    p.write_text("x\t0.5\ny\t0.6\n", encoding="utf-8")
    with pytest.raises(ValueError, match="sum"):
        load_weights(p, list(opposed_unigram_pair))


@pytest.mark.parametrize("value", ["abc", "nan", "inf", "-0.5"])
def test_weights_file_rejects_bad_weight_at_its_line(tmp_path, value, opposed_unigram_pair):
    p = tmp_path / "weights.tsv"
    p.write_text(f"x\t1.0\ny\t{value}\n", encoding="utf-8")
    with pytest.raises(ValueError) as exc:
        load_weights(p, list(opposed_unigram_pair))
    assert str(exc.value) == f"{p}:2: weight {value!r} is not a finite number >= 0"


def test_load_weights_splits_lines_at_line_feed_only(tmp_path, opposed_unigram_pair):
    p = tmp_path / "weights.tsv"
    # U+0085 is a line break to str.splitlines, which would read two weights.
    p.write_text("x\t0.25\u0085y\t0.75\n", encoding="utf-8")
    with pytest.raises(ValueError, match="^" + re.escape(f"{p}:1: expected")):
        load_weights(p, list(opposed_unigram_pair))
    p.write_bytes(b"one\t0.25\r\n\r\ntwo\t0.75\r\n")
    loaded = load_weights(p, list(opposed_unigram_pair))
    assert loaded.lm_ids == ("one", "two")
    assert loaded.lambdas == pytest.approx((0.25, 0.75))


@pytest.mark.parametrize("ids, refused", [
    (("one", "two"), False),
    (("x", "y"), False),  # ids that name no model apply in file order
    (("lm.one.arpa", "out/lm.two.arpa"), False),
    (("two", "one"), True),
    (("one", "one"), True),
    (("x", "one"), True),
    (("lm.two.arpa", "y"), True),
])
def test_weights_file_ids_must_name_models_in_model_order(tmp_path, opposed_unigram_pair,
                                                          ids, refused):
    p = tmp_path / "weights.tsv"
    p.write_text(f"{ids[0]}\t0.25\n{ids[1]}\t0.75\n", encoding="utf-8")
    if refused:
        with pytest.raises(ValueError, match="not in model order"):
            load_weights(p, list(opposed_unigram_pair))
    else:
        assert load_weights(p, list(opposed_unigram_pair)).lambdas == pytest.approx((0.25, 0.75))


def test_interpolation_weights_invariants():
    with pytest.raises(ValueError):
        InterpolationWeights(lm_ids=("a",), lambdas=(0.5,), dev_log10_likelihood=0.0)
    with pytest.raises(ValueError):
        InterpolationWeights(lm_ids=("a", "b"), lambdas=(-0.1, 1.1), dev_log10_likelihood=0.0)


def test_mixture_log_prob_reports_missing_unk_unigram():
    vocab = Vocabulary(["a", "b"])
    probs = {"a": 0.5, "b": 0.3, EOS: 0.1, UNK: 0.1}
    closed = unigram_lm(probs, vocab, "closed")
    del closed.tables[1][(UNK,)]
    closed.metadata["source"] = "closed.arpa"
    lms = [unigram_lm(probs, vocab, "open"), closed]
    with pytest.raises(ValueError, match="^closed.arpa: no unigram entry for <unk>"):
        mixture_log_prob(lms, [0.5, 0.5], "a")


# Every entry point that takes mixture weights, called with `weights` for
# the two components of `opposed_unigram_pair`.
WEIGHT_TAKERS = {
    "InterpolationWeights": lambda lms, w: InterpolationWeights(
        lm_ids=("one", "two"), lambdas=tuple(w), dev_log10_likelihood=0.0),
    "interpolate_static": lambda lms, w: interpolate_static(lms, w),
    "perplexity_mixture": lambda lms, w: perplexity_mixture(lms, w, corpus_of("a b")),
    "mixture_log_prob": lambda lms, w: mixture_log_prob(lms, w, "a"),
    "em_weights": lambda lms, w: em_weights(lms, corpus_of("a b"), init=w),
}


@pytest.mark.parametrize("call", WEIGHT_TAKERS.values(), ids=WEIGHT_TAKERS.keys())
def test_mixture_functions_require_one_weight_per_component(opposed_unigram_pair, call):
    with pytest.raises(ValueError, match="one weight per component required"):
        call(list(opposed_unigram_pair), [1.0])


@pytest.mark.parametrize("weights, message", [
    pytest.param([0.5, math.nan], "finite and non-negative", id="nan"),
    pytest.param([math.inf, 0.0], "finite and non-negative", id="inf"),
    pytest.param([-0.5, 1.5], "finite and non-negative", id="negative"),
    pytest.param([0.5, 0.6], "sum to", id="not-summing"),
])
@pytest.mark.parametrize("call", WEIGHT_TAKERS.values(), ids=WEIGHT_TAKERS.keys())
def test_mixture_functions_reject_weights_off_the_simplex(opposed_unigram_pair, call,
                                                          weights, message):
    with pytest.raises(ValueError, match=message):
        call(list(opposed_unigram_pair), weights)


@pytest.mark.parametrize("score, components", [
    (lambda lms, corpus: perplexity(lms[0], corpus), 1),
    (lambda lms, corpus: perplexity_mixture(lms, [0.5, 0.5], corpus), 2),
], ids=["perplexity", "perplexity_mixture"])
def test_excluded_oov_positions_are_never_scored(opposed_unigram_pair, monkeypatch, score,
                                                 components):
    lms = list(opposed_unigram_pair)
    words = []
    walk = BackoffLM.walk

    def counting_walk(self, gram):
        words.append(gram[-1])
        return walk(self, gram)

    monkeypatch.setattr(BackoffLM, "walk", counting_walk)
    report = score(lms, corpus_of("a z b\nz z"))
    assert (report.scored_tokens, report.oov_tokens) == (4, 3)
    assert words == [w for w in ("a", "b", EOS, EOS) for _ in range(components)]


@pytest.mark.parametrize("orders", [(2, 3), (3, 1, 2)], ids=["2-3", "3-1-2"])
def test_mixed_order_components_equal_log_prob_sums(orders):
    """`em_weights` and `perplexity_mixture` over components of different
    orders equal sums built from `log_prob` on raw tokens: each component
    reads only the tail of a history cut for the highest order."""
    rng = random.Random(61)
    corpora = [random_corpus(rng, max_sentences=30, max_vocab=10, corpus_id=f"c{i}")
               for i in range(len(orders))]
    vocab = build_vocabulary(corpora)
    lms = [train_on(corpus, order, vocab) for corpus, order in zip(corpora, orders)]
    words = [w for w in vocab.words if w not in (BOS, EOS, UNK)] + ["oov1", "oov2"]
    dev = Corpus(id="dev", sentences=tuple(
        tuple(rng.choice(words) for _ in range(rng.randint(1, 9))) for _ in range(25)))

    weights = em_weights(lms, dev)
    assert weights == reference_em_weights(lms, dev)
    for policy in ("exclude", "as_unk"):
        total = 0.0
        scored = oov = 0
        for sent in dev.sentences:
            for i, word in enumerate((*sent, EOS)):
                if word not in vocab and policy == "exclude":
                    oov += 1
                    continue
                mix = 0.0
                for lam, lm in zip(weights.lambdas, lms):
                    mix += lam * 10.0 ** lm.log_prob(word, [BOS, *sent[:i]])
                total += math.log10(mix)
                scored += 1
        report = perplexity_mixture(lms, weights, dev, policy)
        assert (report.log10_prob_sum, report.scored_tokens, report.oov_tokens) == (total, scored, oov)
        assert report.ppl == 10.0 ** (-total / scored)
        assert oov > 0 if policy == "exclude" else oov == 0


@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_reports_read_from_position_columns_equal_their_own_walks(order):
    """One `as_unk` walk per component gives every report the pipeline
    writes, bit for bit: each component's and the mixture's under either
    policy, and EM. OOV words stand at a sentence start, back to back and
    right before `</s>`, where the `exclude` walk's history differs from the
    `as_unk` walk's."""
    rng = random.Random(70 + order)
    corpora = [random_corpus(rng, max_sentences=40, max_vocab=12, corpus_id=f"c{i}")
               for i in range(3)]
    vocab = build_vocabulary(corpora)
    lms = [train_on(corpus, order, vocab) for corpus in corpora]
    words = [w for w in vocab.words if w not in (BOS, EOS, UNK)]
    a, b = words[:2]
    placed = [("oov1", a, b), (a, "oov1", "oov2", b), (a, b, "oov1"), ("oov1",), ("oov1", "oov2")]
    drawn = [tuple(rng.choice(words + ["oov1", "oov2"]) for _ in range(rng.randint(1, 12)))
             for _ in range(30)]
    dev = Corpus(id="dev", sentences=tuple(placed + drawn))
    weights = em_weights(lms, dev)
    columns, known = position_columns(lms, dev)
    assert len(known) == dev.token_count + len(dev) and known.count(False) > len(placed)
    assert em_columns(lms, columns, None, 1e-6, 100) == weights
    mix = partial(mix_log10, weights.lambdas)
    mixed = {}
    for policy in OOV_POLICIES:
        for lm, column in zip(lms, columns):
            assert score_corpus([column], dev, policy, known) == perplexity(lm, dev, policy)
        mixed[policy] = score_corpus(columns, dev, policy, known, mix)
        assert mixed[policy] == perplexity_mixture(lms, weights, dev, policy)
    assert mixed["as_unk"].log10_prob_sum == weights.dev_log10_likelihood
