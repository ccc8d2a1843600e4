"""Back-off n-gram model structure and probability lookup."""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import partial

from asrlm.textcorpus import UNK, Vocabulary

NGram = tuple[str, ...]

# Conventional stand-in log10 probability for the never-predicted `<s>` entry.
BOS_LOG10_PROB = -99.0


@dataclass
class BackoffLM:
    """ARPA-style back-off model: per order k, `tables[k]` maps each stored
    k-gram to its log10 probability and `backoffs[k]` maps a k-gram to its
    log10 back-off weight. Both hold a dict, possibly empty, for every order
    1..`order`; one missing at construction is added. Two invariants hold
    for every model `train_mkn`, `interpolate_static`, `prune_entropy` and
    `read_arpa` make, and `walk`'s next history relies on them:

    - prefix rule: the context `gram[:-1]` of every stored gram is itself
      stored, except the lone `(<s>,)` context of a bigram;
    - weights on stored grams only: every key of `backoffs[k]` is a key of
      `tables[k]`. A gram without a weight, such as the context of no
      stored gram, is no key, and backing off through it adds 0.

    Instances are treated as immutable after construction; concurrent reads
    are safe.
    """

    order: int
    tables: dict[int, dict[NGram, float]]
    vocab: Vocabulary
    metadata: dict = field(default_factory=dict)
    backoffs: dict[int, dict[NGram, float]] = field(default_factory=dict)

    def __post_init__(self):
        for k in range(1, self.order + 1):
            self.tables.setdefault(k, {})
            self.backoffs.setdefault(k, {})

    def size_by_order(self) -> dict[int, int]:
        return {k: len(self.tables[k]) for k in range(1, self.order + 1)}

    def total_ngrams(self) -> int:
        return sum(len(t) for t in self.tables.values())

    def log_prob(self, word: str, history=()) -> float:
        """log10 p(word | history) for raw arguments: the public entry point.

        `history` is any sequence; only its last `order - 1` tokens are read.
        Unknown words (in `word` or in those tokens) are mapped to `<unk>`,
        then `walk` scores the mapped tokens.
        """
        ids = self.vocab.ids
        n = self.order - 1
        hist = tuple([t if t in ids else UNK for t in history[-n:]]) if n > 0 else ()
        return self.walk(word if word in ids else UNK, hist)[0]

    def walk(self, word: str, history: NGram) -> tuple[float, NGram]:
        """(log10 p(word | history), next history) by the back-off recursion:
        the one query walk. Tokens must be mapped already: `word` in the
        vocabulary or `<unk>`, `history` a tuple of at most `order - 1` such
        tokens. Adds the back-off weights on the way down, then the stored
        value. The next history is the gram the walk matched, cut to its
        last `order - 1` tokens: by the two invariants above, a longer
        suffix of `history + (word,)` is no stored gram, so it would
        neither match nor add a weight in the next walk."""
        tables = self.tables
        acc = 0.0
        k = len(history)
        gram = history + (word,)
        logp = tables[k + 1].get(gram)
        while logp is None:
            if not k:
                raise KeyError(f"no unigram entry for {word!r}")
            acc += self.backoffs[k].get(gram[:-1], 0.0)
            gram = gram[1:]
            k -= 1
            logp = tables[k + 1].get(gram)
        return acc + logp, gram[1:] if k == self.order - 1 else gram

    def clone(self) -> "BackoffLM":
        return BackoffLM(
            order=self.order,
            tables={k: dict(t) for k, t in self.tables.items()},
            vocab=self.vocab,
            metadata=dict(self.metadata),
            backoffs={k: dict(b) for k, b in self.backoffs.items()},
        )


def memoized_log_prob(lm: BackoffLM) -> Callable[[NGram], float]:
    """Return `value(gram)` = log10 p(gram[-1] | gram[:-1]) for a gram of length <= order.

    The gram must be in-vocabulary: no token is mapped to `<unk>`. A stored
    gram yields its stored value; any other yields bow(gram[:-1]) +
    value(gram[1:]), memoized, so a batch of n-grams costs O(1) each.
    Stored values are one dict lookup away and are not memoized, nor are
    top-order values, which no longer gram backs off to. The memo lives as
    long as the returned function, so each merge, rebuild or prune call makes
    its own and frees it on return. It stays valid while back-off weights
    change only for contexts longer than every gram evaluated so far.
    Kept apart from `BackoffLM.walk`: each step adds bow + value(suffix),
    where `walk` adds the summed weights to the stored value last. The two
    can differ in the last bit, and the pinned build hashes hold this order.
    """
    tables = [{}] + [lm.tables[k] for k in range(1, lm.order + 1)]
    backoffs = [{}] + [lm.backoffs[k] for k in range(1, lm.order + 1)]
    return partial(_memoized_value, tables, backoffs, {})


def _memoized_value(tables: list[dict[NGram, float]], backoffs: list[dict[NGram, float]],
                    memo: dict[NGram, float], gram: NGram) -> float:
    # A module-level function, not a closure: a closure that calls itself is
    # a reference cycle, and its memo would outlive the call until the next
    # full garbage collection.
    n = len(gram)
    logp = tables[n].get(gram)
    if logp is not None:
        return logp
    backed_off = memo.get(gram)
    if backed_off is None:
        if n == 1:
            raise KeyError(f"no unigram entry for {gram[0]!r}")
        backed_off = (backoffs[n - 1].get(gram[:-1], 0.0)
                      + _memoized_value(tables, backoffs, memo, gram[1:]))
        if n < len(tables) - 1:  # a top-order value is never the suffix of a longer gram
            memo[gram] = backed_off
    return backed_off


def group_by_context(table: dict[NGram, float]) -> dict[NGram, list[NGram]]:
    """Group one order's stored grams by their context, in table order."""
    children: dict[NGram, list[NGram]] = {}
    for gram in table:
        children.setdefault(gram[:-1], []).append(gram)
    return children


def leftover_masses(table: dict[NGram, float], lower: dict[NGram, float], value: Callable[[NGram], float],
                    grams: list[NGram]) -> tuple[float, float, list[float]]:
    """For the stored `grams` of one context h: 1 - sum p(w|h), 1 - sum p(w|h
    minus first word) and each gram's log10 p(w|h minus first word), from
    `lower` (the order below) or else `value`. Sums in `grams` order from 0.0."""
    stored_sum = 0.0
    lower_sum = 0.0
    lowers = []
    for gram in grams:
        stored_sum += 10.0 ** table[gram]
        log_plower = lower.get(gram[1:])
        lowers.append(value(gram[1:]) if log_plower is None else log_plower)
        lower_sum += 10.0 ** lowers[-1]
    return 1.0 - stored_sum, 1.0 - lower_sum, lowers


def ordered_sum(values) -> float:
    """Add `values` in order from 0.0: `sum()` bit for bit on 3.11, unlike 3.12's compensated `sum()`."""
    total = 0.0
    for value in values:
        total += value
    return total


def log_backoff(num: float, den: float) -> float:
    """log10 back-off weight of a context whose stored grams leave `num` of its
    own mass and `den` of the lower order's. A context whose stored grams
    cover all its mass never backs off, so its weight is unused: 0.0."""
    if num <= 0.0 or den <= 0.0:
        return 0.0
    return math.log10(num) - math.log10(den)


def context_probability_sums(lm: BackoffLM):
    """Yield (context, sum over predicted vocab of p(w|context)) for every stored context.

    The empty context (unigram distribution) is included. `<s>` is excluded
    from the summation because it is never predicted.
    """
    predicted = lm.vocab.predicted_words()
    contexts: list[NGram] = [()]
    for k in range(2, lm.order + 1):
        contexts.extend(group_by_context(lm.tables[k]))
    value = memoized_log_prob(lm)
    for ctx in contexts:
        yield ctx, ordered_sum([10.0 ** value(ctx + (w,)) for w in predicted])


def rebuild_backoffs(lm: BackoffLM) -> None:
    """Recompute every back-off weight so all stored contexts normalize to 1.

    A stored context with stored continuations gets `log_backoff` of its
    `leftover_masses`; any other gram below the top order has no weight.
    Processed from short contexts to long ones, so the lower-order weights a
    value reads are final before it is computed, and no memoized value goes
    stale. Each order's weights are replaced in place, because the memo
    holds the per-order dicts.
    """
    value = memoized_log_prob(lm)
    for ctx_len in range(1, lm.order):
        ctx_table = lm.tables[ctx_len]
        gram_table = lm.tables[ctx_len + 1]
        weights = {ctx: log_backoff(*leftover_masses(gram_table, ctx_table, value, grams)[:2])
                   for ctx, grams in group_by_context(gram_table).items() if ctx in ctx_table}
        lm.backoffs[ctx_len].clear()
        lm.backoffs[ctx_len].update(weights)
