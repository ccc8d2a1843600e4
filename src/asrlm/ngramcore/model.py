"""Back-off n-gram model structure and probability lookup."""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from itertools import groupby, islice

from asrlm.textcorpus import UNK, Vocabulary

NGram = tuple[str, ...]

# Conventional stand-in log10 probability for the never-predicted `<s>` entry.
BOS_LOG10_PROB = -99.0


@dataclass
class BackoffLM:
    """ARPA-style back-off model: per order k, `tables[k]` maps each stored
    k-gram to its log10 probability and `backoffs[k]` maps a k-gram to its
    log10 back-off weight. Both hold a dict, possibly empty, for every order
    1..`order`; one missing at construction is added. `walk` is the one
    back-off recursion: queries, merging, back-off rebuilding and pruning all
    evaluate through it. Three invariants hold for every model `train_mkn`,
    `interpolate_static`, `prune_entropy` and `read_arpa` make; `walk`'s next
    history, the pruner's marginals and the ARPA writer rely on them:

    - prefix rule: the context `gram[:-1]` of every stored gram is itself
      stored, except the lone `(<s>,)` context of a bigram;
    - weights on stored grams only: every key of `backoffs[k]` is a key of
      `tables[k]`. A gram without a weight, such as the context of no
      stored gram, is no key, and backing off through it adds 0;
    - sorted gram order: each `tables[k]` iterates its grams in sorted
      order, so the grams of one context are adjacent. The constructor
      alone establishes it. It sorts a table that arrives out of order, as
      `train_mkn`'s corpus-order tables, a hand-built one or one read from
      an unsorted ARPA file do, and keeps one that arrives sorted, as the
      merge's union, `clone`'s copies and a file `write_arpa` wrote do.
      Pruning only deletes grams, which keeps the order.

    Instances are treated as immutable after construction; concurrent reads
    are safe. A gram added to a table after construction is outside this
    contract: neither the writer nor the grouping sorts again. Scoring
    stores into `memo`, `query`'s cache of `walk` results; a value depends
    only on the model, so threads racing can only repeat a walk or each
    store one entry past the bound. A model whose tables or weights change
    after construction other than through `rebuild_backoffs` must not be
    scored: its memo would be stale.
    """

    order: int
    tables: dict[int, dict[NGram, float]]
    vocab: Vocabulary
    metadata: dict = field(default_factory=dict)
    backoffs: dict[int, dict[NGram, float]] = field(default_factory=dict)

    def __post_init__(self):
        for k in range(1, self.order + 1):
            table = self.tables.setdefault(k, {})
            if not all(map(operator.lt, table, islice(table, 1, None))):
                self.tables[k] = {gram: table[gram] for gram in sorted(table)}
            self.backoffs.setdefault(k, {})
        # An attribute, not a field: `==`, `repr`, `clone` and `replace` ignore it.
        self.memo: dict[NGram, tuple[float, NGram]] = {}
        self.clear_memo()

    def clear_memo(self) -> None:
        """Empty `memo` in place and bound it by the model's n-gram count."""
        self.memo.clear()
        self.memo_limit = self.total_ngrams()

    def size_by_order(self) -> dict[int, int]:
        return {k: len(self.tables[k]) for k in range(1, self.order + 1)}

    def total_ngrams(self) -> int:
        return sum(len(t) for t in self.tables.values())

    def log_prob(self, word: str, history=()) -> float:
        """log10 p(word | history) for raw arguments: the public entry point.

        `history` is any sequence; only its last `order - 1` tokens are read.
        Unknown words (in `word` or in those tokens) are mapped to `<unk>`,
        then `walk` scores the mapped gram.
        """
        ids = self.vocab.ids
        recent = history[-(self.order - 1):] if self.order > 1 else ()
        return self.walk(tuple([t if t in ids else UNK for t in (*recent, word)]))[0]

    def walk(self, gram: NGram) -> tuple[float, NGram]:
        """(log10 p(gram[-1] | gram[:-1]), next history) by the back-off
        recursion. Tokens must be mapped already: each in the vocabulary or
        `<unk>`, at most `order` of them. Adds the back-off weights on the
        way down, then the stored value, so a stored gram yields its stored
        value. The next history is the gram the walk matched, cut to its
        last `order - 1` tokens: by the first two invariants above, a longer
        suffix of `gram` is no stored gram, so it would neither match nor
        add a weight in the next walk."""
        tables = self.tables
        acc = 0.0
        k = len(gram)
        logp = tables[k].get(gram)
        while logp is None:
            if k == 1:
                raise KeyError(f"no unigram entry for {gram[0]!r}")
            k -= 1
            acc += self.backoffs[k].get(gram[:-1], 0.0)
            gram = gram[1:]
            logp = tables[k].get(gram)
        return acc + logp, gram[1:] if k == self.order else gram

    def query(self, gram: NGram) -> tuple[float, NGram]:
        """`walk(gram)`, stored in `memo` for the next query of `gram`: a
        full memo is emptied first. Callers read `memo` before calling."""
        if len(self.memo) >= self.memo_limit:
            self.memo.clear()
        found = self.memo[gram] = self.walk(gram)
        return found

    def clone(self) -> "BackoffLM":
        return BackoffLM(
            order=self.order,
            tables={k: dict(t) for k, t in self.tables.items()},
            vocab=self.vocab,
            metadata=dict(self.metadata),
            backoffs={k: dict(b) for k, b in self.backoffs.items()},
        )


def by_context(table: dict[NGram, float]):
    """(context, its grams) per run of adjacent grams sharing a context: one
    group per context, in sorted order, for a table in sorted gram order."""
    return groupby(table, key=operator.itemgetter(slice(-1)))


def leftover_masses(lm: BackoffLM, k: int, grams) -> tuple[float, float, list[float]]:
    """For the stored k-grams `grams` of one context h: 1 - sum p(w|h), 1 - sum
    p(w|h minus first word) and each gram's log10 p(w|h minus first word), the
    stored (k-1)-gram's value or else `lm.walk`'s. Sums in `grams` order, the
    sorted gram order of a `by_context` group, from 0.0."""
    table = lm.tables[k]
    lower = lm.tables[k - 1]
    walk = lm.walk
    stored_sum = 0.0
    lower_sum = 0.0
    lowers = []
    for gram in grams:
        stored_sum += 10.0 ** table[gram]
        log_plower = lower.get(gram[1:])
        lowers.append(walk(gram[1:])[0] if log_plower is None else log_plower)
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


def rebuild_backoffs(lm: BackoffLM) -> None:
    """Recompute every back-off weight so all stored contexts normalize to 1.

    A stored context with stored continuations gets `log_backoff` of its
    `leftover_masses`; any other gram below the top order has no weight.
    Processed from short contexts to long ones: the walks for one order's
    weights read only the weights of shorter contexts, which are final. Each
    context's grams are adjacent in the sorted table and sum in sorted gram
    order. Empties the model's memo, which held walks over the old weights.
    """
    lm.clear_memo()
    for ctx_len in range(1, lm.order):
        ctx_table = lm.tables[ctx_len]
        lm.backoffs[ctx_len] = {
            ctx: log_backoff(*leftover_masses(lm, ctx_len + 1, grams)[:2])
            for ctx, grams in by_context(lm.tables[ctx_len + 1]) if ctx in ctx_table}
