"""The LM build's hot loops give results `==` to their frozen copies in
`tests/reference.py`: the same float operations in the same order. The
copies read every back-off value a build step does not look up from
`backoff_log10_prob`, which adds the weights first and the stored value
last, as `BackoffLM.walk` does, the one recursion that builds and queries
share.

ARPA files keep 7 significant digits, so the pinned artifact hashes alone
would miss a change in the last bit of a probability or weight."""

import random
from pathlib import Path

import pytest

from asrlm.mixture import em_weights, interpolate_static
from asrlm.ngramcore import count_ngrams, rebuild_backoffs
from asrlm.pruner import _entropy_deltas, prune_entropy
from asrlm.textcorpus import Corpus, build_vocabulary, load_corpus
from tests.conftest import random_corpus, train_on
from tests.reference import (
    reference_count_ngrams,
    reference_em_weights,
    reference_entropy_deltas,
    reference_interpolate_static,
    reference_rebuild_backoffs,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def items(lm, attr):
    """Every order's (gram, value) pairs of `lm.tables` or `lm.backoffs`, in order."""
    return {k: list(t.items()) for k, t in getattr(lm, attr).items()}


def assert_build_matches_reference(corpora, dev, order):
    vocab = build_vocabulary(corpora)
    for corpus in corpora:
        counts = count_ngrams(corpus, order, vocab)
        ref = reference_count_ngrams(corpus, order, vocab)
        assert {k: list(t.items()) for k, t in counts.counts.items()} == \
               {k: list(t.items()) for k, t in ref.counts.items()}
        assert counts.continuation == ref.continuation
    lms = [train_on(corpus, order, vocab) for corpus in corpora]

    weights = em_weights(lms, dev)
    expected = reference_em_weights(lms, dev)
    assert weights.lambdas == expected.lambdas
    assert weights.dev_log10_likelihood == expected.dev_log10_likelihood
    lambdas = weights.lambdas
    merged = interpolate_static(lms, lambdas)
    expected = reference_interpolate_static(lms, lambdas)
    assert items(merged, "tables") == items(expected, "tables")
    assert items(merged, "backoffs") == items(expected, "backoffs")

    # A trained model, and one with a third of its grams of order >= 2 gone,
    # as after pruning.
    thinned = merged.clone()
    for k in range(2, order + 1):
        for gram in list(thinned.tables[k])[::3]:
            del thinned.tables[k][gram]
    for lm in (lms[0], thinned):
        mine, theirs = lm.clone(), lm.clone()
        rebuild_backoffs(mine)
        reference_rebuild_backoffs(theirs)
        assert items(mine, "backoffs") == items(theirs, "backoffs")

    # Components that miss the suffix of some stored gram, as pruned or
    # external models do, mixed with trained ones: their values of such
    # grams come from the back-off walk.
    pruned, _ = prune_entropy(merged, 1e-4)
    mixed = [thinned, *lms, pruned]
    lambdas = [1.0 / len(mixed)] * len(mixed)
    merged_mixed = interpolate_static(mixed, lambdas)
    expected = reference_interpolate_static(mixed, lambdas)
    assert items(merged_mixed, "tables") == items(expected, "tables")
    assert items(merged_mixed, "backoffs") == items(expected, "backoffs")

    for lm in (lms[0], merged):
        for k in range(2, order + 1):
            for protected in (set(), {g[:-1] for g in lm.tables.get(k + 1, {})}):
                deltas = list(_entropy_deltas(lm, k, protected))
                assert deltas == list(reference_entropy_deltas(lm, k, protected))


def test_build_on_fixtures_equals_reference():
    corpora = [load_corpus(FIXTURES / f"{cid}.txt", corpus_id=cid)
               for cid in ("news", "medical", "dialogue", "dialect")]
    assert_build_matches_reference(corpora, load_corpus(FIXTURES / "dev.txt"), 4)


@pytest.mark.parametrize("components", [1, 3])
@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_build_on_seeded_corpora_equals_reference(order, components):
    rng = random.Random(1600 + 10 * order + components)
    corpora = [random_corpus(rng, max_sentences=40, max_vocab=15, corpus_id=f"c{i}")
               for i in range(components)]
    dev = random_corpus(rng, max_sentences=15, max_vocab=18, corpus_id="dev")
    assert_build_matches_reference(corpora, dev, order)
