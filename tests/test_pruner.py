import math
import random

import pytest

from asrlm.ngramcore import perplexity
from asrlm.pruner import _entropy_deltas, prune_entropy
from asrlm.textcorpus import build_vocabulary
from tests.conftest import corpus_of, random_corpus, train_on
from tests.reference import brute_force_prune_delta, context_probability_sums


def retained_set(lm):
    return {k: frozenset(t) for k, t in lm.tables.items()}


def test_negative_theta_is_noop_with_warning():
    lm = train_on(corpus_of("a b a\nb c a"), 2)
    with pytest.warns(UserWarning, match="negative"):
        pruned, report = prune_entropy(lm, -1.0)
    assert retained_set(pruned) == retained_set(lm)
    assert sum(report.removed_by_order.values()) == 0


def test_nan_theta_is_an_error():
    lm = train_on(corpus_of("a b a\nb c a"), 2)
    with pytest.raises(ValueError, match="^pruning threshold must be a number, got nan$"):
        prune_entropy(lm, math.nan)


def test_theta_zero_removes_at_most_zero_impact():
    lm = train_on(corpus_of("a b a\nb c a\nc b"), 3)
    pruned, report = prune_entropy(lm, 0.0)
    # Strict comparison: only float-noise-level (exactly redundant) n-grams go.
    assert sum(report.removed_by_order.values()) <= 2
    for ctx, total in context_probability_sums(pruned):
        assert abs(total - 1.0) <= 1e-6


def test_theta_infinity_leaves_unigrams_only():
    lm = train_on(corpus_of("a b a\nb c a\nc b"), 3)
    pruned, report = prune_entropy(lm, math.inf)
    assert len(pruned.tables[2]) == 0
    assert len(pruned.tables[3]) == 0
    assert pruned.tables[1].keys() == lm.tables[1].keys()
    for ctx, total in context_probability_sums(pruned):
        assert abs(total - 1.0) <= 1e-6
    assert report.size_after[2] == 0


def test_unigrams_never_removed():
    lm = train_on(corpus_of("a b\nc d\na d"), 2)
    pruned, _ = prune_entropy(lm, 10.0)
    assert pruned.tables[1].keys() == lm.tables[1].keys()


def test_monotone_retained_sets_and_renormalization():
    rng = random.Random(404)
    thetas = [0.0, 1e-4, 1e-2, 0.1, 1.0, math.inf]
    for trial in range(4):
        c = random_corpus(rng, max_sentences=30, max_vocab=10)
        lm = train_on(c, 2 + trial % 3)
        previous = None
        for theta in thetas:
            pruned, _ = prune_entropy(lm, theta)
            current = retained_set(pruned)
            if previous is not None:
                for k in current:
                    assert current[k] <= previous[k], f"theta={theta} order={k}"
            previous = current
            for ctx, total in context_probability_sums(pruned):
                assert abs(total - 1.0) <= 1e-6


def test_pruning_raises_training_set_perplexity():
    rng = random.Random(11)
    c = random_corpus(rng, max_sentences=40, max_vocab=10)
    lm = train_on(c, 3)
    before = perplexity(lm, c).ppl
    pruned, report = prune_entropy(lm, 0.05)
    assert pruned.total_ngrams() < lm.total_ngrams()
    after = perplexity(pruned, c).ppl
    assert after >= before - 1e-9


def test_size_strictly_decreases_for_mid_theta():
    rng = random.Random(21)
    c = random_corpus(rng, max_sentences=40, max_vocab=8)
    lm = train_on(c, 3)
    sizes = []
    for theta in [0.0, 0.05, math.inf]:
        pruned, _ = prune_entropy(lm, theta)
        sizes.append(pruned.total_ngrams())
    assert sizes[0] >= sizes[1] >= sizes[2]
    assert sizes[1] < lm.total_ngrams()


def test_prune_report_accounting():
    lm = train_on(corpus_of("a b a\nb c a\nc b"), 3)
    pruned, report = prune_entropy(lm, 0.01)
    for k in report.size_before:
        assert report.size_before[k] - report.removed_by_order.get(k, 0) == report.size_after[k]
    text = report.format()
    assert "order" in text and "total" in text


def test_prune_idempotent_at_boundaries():
    # Interior thresholds cascade: removing siblings strengthens the back-off
    # path of survivors, so a second pass can remove more (as in the SRILM
    # criterion this follows). At the boundaries the second pass is a no-op.
    rng = random.Random(55)
    for trial in range(3):
        c = random_corpus(rng, max_sentences=30, max_vocab=8)
        lm = train_on(c, 3)
        for theta in (0.0, math.inf):
            once, _ = prune_entropy(lm, theta)
            _, report = prune_entropy(once, theta)
            assert sum(report.removed_by_order.values()) == 0, (
                f"second prune removed n-grams at theta={theta}"
            )


def test_reprune_only_shrinks():
    rng = random.Random(56)
    c = random_corpus(rng, max_sentences=30, max_vocab=8)
    lm = train_on(c, 3)
    once, _ = prune_entropy(lm, 0.01)
    twice, _ = prune_entropy(once, 0.01)
    for k in retained_set(twice):
        assert retained_set(twice)[k] <= retained_set(once)[k]
    for ctx, total in context_probability_sums(twice):
        assert abs(total - 1.0) <= 1e-6


def test_entropy_deltas_equal_brute_force_oracle():
    """The pruner's own closed-form cost of every gram of orders 2..order
    agrees with the exhaustive sum over every predicted word."""
    rng = random.Random(607)
    compared = 0
    for trial in range(15):
        lm = train_on(random_corpus(rng, max_sentences=25, max_vocab=10), 2 + trial % 3)
        for k in range(2, lm.order + 1):
            deltas = dict(_entropy_deltas(lm, k, set()))
            assert deltas.keys() == lm.tables[k].keys()
            for gram, delta in deltas.items():
                assert abs(delta - brute_force_prune_delta(lm, gram)) <= 1e-12, gram
            compared += len(deltas)
    assert compared > 600


def separated_thetas(deltas, quantiles=(0.1, 0.3, 0.5, 0.7, 0.9)):
    """Thresholds between sorted relative deltas, each at least 1e-9 relative
    (and 1e-15 absolute, above float noise near 0) away from every delta, so
    that rounding cannot decide which side of a threshold a gram falls on."""
    thetas = []
    for q in quantiles:
        for i in range(int(q * (len(deltas) - 1)), len(deltas) - 1):
            theta = (deltas[i] + deltas[i + 1]) / 2.0
            if all(abs(theta - d) > 1e-9 * max(abs(d), 1e-6) for d in deltas):
                thetas.append(theta)
                break
    return sorted(set(thetas))


def test_removed_sets_equal_brute_force_oracle():
    rng = random.Random(606)
    removed_total = 0
    for trial in range(15):
        lm = train_on(random_corpus(rng, max_sentences=25, max_vocab=10), 2 + trial % 3)
        grams = [g for k in range(2, lm.order + 1) for g in lm.tables[k]]
        relative = {g: 10.0 ** brute_force_prune_delta(lm, g) - 1.0 for g in grams}
        thetas = separated_thetas(sorted(relative.values()))
        assert len(thetas) >= 3
        for theta in thetas:
            # Highest order first; a context of a retained gram stays.
            kept = {k: set(lm.tables[k]) for k in range(2, lm.order + 1)}
            expected = set()
            for k in range(lm.order, 1, -1):
                protected = {g[:-1] for g in kept.get(k + 1, ())}
                removed = {g for g in kept[k] if g not in protected and relative[g] < theta}
                kept[k] -= removed
                expected |= removed
            pruned, _ = prune_entropy(lm, theta)
            assert {g for g in grams if g not in pruned.tables[len(g)]} == expected, theta
            removed_total += len(expected)
    assert removed_total > 100
