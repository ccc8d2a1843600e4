"""Modified Kneser-Ney discount estimation and interpolated model training."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

from asrlm.ngramcore.counts import NGram, NGramCountTable, effective_counts
from asrlm.ngramcore.model import BOS_LOG10_PROB, BackoffLM
from asrlm.textcorpus import BOS

FALLBACK_DISCOUNT = 0.5

# Clipping caps per discount slot; the lower bound is handled by the fallback.
_CAPS = (1.0, 2.0, 3.0)


@dataclass(frozen=True)
class DiscountSet:
    """Per order: the three discounts (D1, D2, D3plus) applied to counts 1, 2, >=3."""

    by_order: dict[int, tuple[float, float, float]]
    fallback_orders: frozenset[int] = frozenset()


def closed_form_discounts(n1: int, n2: int, n3: int, n4: int) -> tuple[float, float, float]:
    """The count-of-counts closed forms: Y = n1/(n1+2*n2), Dk = k - (k+1)*Y*n(k+1)/nk."""
    y = n1 / (n1 + 2.0 * n2)
    d1 = 1.0 - 2.0 * y * n2 / n1
    d2 = 2.0 - 3.0 * y * n3 / n2
    d3 = 3.0 - 4.0 * y * n4 / n3
    return d1, d2, d3


def estimate_discounts(table: NGramCountTable) -> DiscountSet:
    """Estimate (D1, D2, D3plus) per order from the smoothed count distribution.

    Orders whose count-of-counts are degenerate (any of n1..n4 zero, or a
    closed form coming out non-positive) fall back to a flat 0.5 discount
    with a warning naming the corpus; tiny corpora would otherwise yield
    invalid discounts.
    """
    by_order: dict[int, tuple[float, float, float]] = {}
    fallback: set[int] = set()
    for k in range(1, table.order + 1):
        cc = [0, 0, 0, 0]
        for c in effective_counts(table, k).values():
            if 1 <= c <= 4:
                cc[c - 1] += 1
        raw = closed_form_discounts(*cc) if 0 not in cc else None
        if raw is None or min(raw) <= 0.0:
            by_order[k] = (FALLBACK_DISCOUNT,) * 3
            fallback.add(k)
        else:
            by_order[k] = tuple(map(min, raw, _CAPS))
    if fallback:
        warnings.warn(
            f"corpus {table.corpus_id!r}: degenerate count-of-counts at order(s) "
            f"{sorted(fallback)}; using flat discount {FALLBACK_DISCOUNT}",
            stacklevel=2,
        )
    return DiscountSet(by_order=by_order, fallback_orders=frozenset(fallback))


def train_mkn(table: NGramCountTable, discounts: DiscountSet) -> BackoffLM:
    """Interpolated modified Kneser-Ney estimation.

    The highest order smooths raw counts; lower orders smooth continuation
    counts (`<s>`-initial k-grams keep raw counts). Each stored probability is
    the fully interpolated value and each context's back-off weight is its
    leftover discount mass, so every stored context normalizes exactly.
    """
    predicted = table.vocab.predicted_words()
    tables: dict[int, dict[NGram, float]] = {}
    backoffs: dict[int, dict[NGram, float]] = {}
    # Linear-space interpolated probabilities of the order below; below
    # order 1 is the uniform distribution over the predicted words.
    lower: dict[NGram, float] = {(): 1.0 / len(predicted)}
    for k in range(1, table.order + 1):
        eff = effective_counts(table, k)
        if k == 1:
            # The empty context predicts every word; an unseen word counts 0.
            eff = {(w,): eff.get((w,), 0) for w in predicted}
        denoms: dict[NGram, int] = {}
        ctx_bins: dict[NGram, list[int]] = {}  # per context: words counted 0, 1, 2, >=3
        for gram, c in eff.items():
            ctx = gram[:-1]
            denoms[ctx] = denoms.get(ctx, 0) + c
            ctx_bins.setdefault(ctx, [0, 0, 0, 0])[c if c < 3 else 3] += 1
        d = (0.0, *discounts.by_order[k])  # the discount of a count c is d[min(c, 3)]
        # gamma: each context's leftover mass ratio, its back-off weight.
        gammas = {ctx: (d[1] * b[1] + d[2] * b[2] + d[3] * b[3]) / denoms[ctx]
                  for ctx, b in ctx_bins.items()}
        probs: dict[NGram, float] = {}
        for gram, c in eff.items():
            ctx = gram[:-1]
            probs[gram] = (max(c - d[c if c < 3 else 3], 0.0) / denoms[ctx]
                           + gammas[ctx] * lower[gram[1:]])
        if k > 1:
            tables[k - 1] = {gram: math.log10(p) for gram, p in lower.items()}
            backoffs[k - 1] = {ctx: math.log10(gamma) for ctx, gamma in gammas.items()}
        if k == 2:
            # `<s>` opens contexts but is never predicted; its weight is
            # gammas[(BOS,)], stored above.
            tables[1][(BOS,)] = BOS_LOG10_PROB
        lower = probs
    tables[table.order] = {gram: math.log10(p) for gram, p in lower.items()}
    return BackoffLM(
        order=table.order,
        tables=tables,
        vocab=table.vocab,
        metadata={
            "corpus_id": table.corpus_id,
            "smoothing": "modified-kneser-ney",
            "discounts": {k: discounts.by_order[k] for k in sorted(discounts.by_order)},
            "fallback_orders": sorted(discounts.fallback_orders),
        },
        backoffs=backoffs,
    )
