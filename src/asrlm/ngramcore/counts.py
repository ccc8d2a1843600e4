"""N-gram and continuation counting over padded, vocabulary-mapped sentences."""

from __future__ import annotations

from dataclasses import dataclass, field

from asrlm.textcorpus import BOS, EOS, UNK, Corpus, Vocabulary

NGram = tuple[str, ...]


@dataclass
class NGramCountTable:
    """Exact k-gram counts (1 <= k <= order) plus continuation counts.

    Counting pads each sentence with one `<s>` and one `</s>` and enumerates
    every k-gram ending at a predicted position, so `<s>` itself is never a
    unigram key but does open higher-order k-grams. The continuation count of
    a k-gram (k < order) is the number of distinct words that precede it in
    some counted (k+1)-gram.
    """

    order: int
    counts: dict[int, dict[NGram, int]]
    continuation: dict[int, dict[NGram, int]]
    vocab: Vocabulary
    corpus_id: str = ""


def count_ngrams(corpus: Corpus, order: int, vocab: Vocabulary) -> NGramCountTable:
    if order < 1:
        raise ValueError("order must be >= 1")
    if len(corpus) == 0:
        raise ValueError(f"corpus {corpus.id!r} is empty")
    counts: dict[int, dict[NGram, int]] = {k: {} for k in range(1, order + 1)}
    ids = vocab.ids
    for sent in corpus.sentences:
        padded = (BOS, *[t if t in ids else UNK for t in sent], EOS)
        for k in range(1, order + 1):
            table = counts[k]
            # `<s>` opens higher-order grams but is never a unigram.
            for i in range(1 if k == 1 else 0, len(padded) - k + 1):
                gram = padded[i : i + k]
                table[gram] = table.get(gram, 0) + 1
    continuation: dict[int, dict[NGram, int]] = {}
    for k in range(1, order):
        # Each distinct (k+1)-gram adds one distinct left word to its suffix.
        cont = continuation[k] = {}
        for gram in counts[k + 1]:
            cont[gram[1:]] = cont.get(gram[1:], 0) + 1
    return NGramCountTable(
        order=order,
        counts=counts,
        continuation=continuation,
        vocab=vocab,
        corpus_id=corpus.id,
    )


def effective_counts(table: NGramCountTable, k: int) -> dict[NGram, int]:
    """Counts actually smoothed at order k.

    The highest order keeps raw counts. Lower orders use continuation counts,
    except that k-grams starting with `<s>` keep raw counts: nothing can ever
    precede a sentence start, so their continuation count would be zero.
    """
    raw = table.counts[k]
    if k == table.order:
        return raw
    cont = table.continuation[k]
    return {g: (raw[g] if g[0] == BOS else cont[g]) for g in raw}
