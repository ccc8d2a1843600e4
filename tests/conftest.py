import random
import tracemalloc

import pytest
from hypothesis import settings

from asrlm.ngramcore import count_ngrams, estimate_discounts, train_mkn
from asrlm.textcorpus import Corpus, Vocabulary, build_vocabulary

# Every property test draws the same examples on every run, so tier-1 passes
# or fails the same way each time. Tests keep their own `max_examples`.
settings.register_profile("deterministic", derandomize=True)
settings.load_profile("deterministic")


def corpus_of(text: str, corpus_id: str = "test") -> Corpus:
    """Build a Corpus from newline-separated, space-tokenized text."""
    sentences = tuple(
        tuple(line.split()) for line in text.strip().splitlines() if line.strip()
    )
    return Corpus(id=corpus_id, sentences=sentences)


def random_corpus(rng: random.Random, max_sentences=50, max_vocab=30, corpus_id="rand") -> Corpus:
    vocab_size = rng.randint(2, max_vocab)
    words = [f"w{i}" for i in range(vocab_size)]
    n_sent = rng.randint(1, max_sentences)
    sentences = []
    for _ in range(n_sent):
        length = rng.randint(1, 12)
        # Zipf-ish skew so that higher-order n-grams actually repeat.
        sentences.append(tuple(words[min(int(rng.expovariate(0.35)), vocab_size - 1)] for _ in range(length)))
    return Corpus(id=corpus_id, sentences=tuple(sentences))


def train_on(corpus: Corpus, order: int, vocab: Vocabulary | None = None):
    """Count, estimate discounts and train in one step (warnings silenced)."""
    import warnings

    if vocab is None:
        vocab = build_vocabulary([corpus])
    counts = count_ngrams(corpus, order, vocab)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        discounts = estimate_discounts(counts)
    return train_mkn(counts, discounts)


def traced_peak(write) -> int:
    """Peak bytes that tracemalloc saw allocated while `write()` ran."""
    tracemalloc.start()
    try:
        write()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture
def tiny_corpus():
    return corpus_of("a b a")
