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

    def discount_for(self, k: int, count: int) -> float:
        if count <= 0:
            return 0.0
        d1, d2, d3 = self.by_order[k]
        if count == 1:
            return d1
        if count == 2:
            return d2
        return d3

    @classmethod
    def uniform(cls, order: int, value: float = FALLBACK_DISCOUNT) -> "DiscountSet":
        return cls(by_order={k: (value, value, value) for k in range(1, order + 1)})


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
        if 0 in cc:
            by_order[k] = (FALLBACK_DISCOUNT,) * 3
            fallback.add(k)
            continue
        raw = closed_form_discounts(*cc)
        if any(d <= 0.0 for d in raw):
            by_order[k] = (FALLBACK_DISCOUNT,) * 3
            fallback.add(k)
            continue
        by_order[k] = tuple(min(d, cap) for d, cap in zip(raw, _CAPS))
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
    vocab = table.vocab
    predicted = vocab.predicted_words()
    base = 1.0 / len(predicted)

    # Linear-space interpolated probabilities per order, keyed by n-gram.
    probs: dict[int, dict[NGram, float]] = {}
    # gamma (leftover mass ratio) per estimation context, keyed by context.
    gammas: dict[int, dict[NGram, float]] = {}

    eff1 = effective_counts(table, 1)
    denom = sum(eff1.values())
    bins = [0, 0, 0]
    for c in eff1.values():
        bins[min(c, 3) - 1] += 1
    d1, d2, d3 = discounts.by_order[1]
    gamma1 = (d1 * bins[0] + d2 * bins[1] + d3 * bins[2]) / denom
    probs[1] = {}
    for w in predicted:
        c = eff1.get((w,), 0)
        disc = discounts.discount_for(1, c)
        probs[1][(w,)] = max(c - disc, 0.0) / denom + gamma1 * base
    gammas[1] = {(): gamma1}

    for k in range(2, table.order + 1):
        eff = effective_counts(table, k)
        denoms: dict[NGram, int] = {}
        ctx_bins: dict[NGram, list[int]] = {}
        for gram, c in eff.items():
            ctx = gram[:-1]
            denoms[ctx] = denoms.get(ctx, 0) + c
            b = ctx_bins.setdefault(ctx, [0, 0, 0])
            b[min(c, 3) - 1] += 1
        d1, d2, d3 = discounts.by_order[k]
        gk: dict[NGram, float] = {}
        for ctx, b in ctx_bins.items():
            gk[ctx] = (d1 * b[0] + d2 * b[1] + d3 * b[2]) / denoms[ctx]
        pk: dict[NGram, float] = {}
        lower = probs[k - 1]
        for gram, c in eff.items():
            ctx = gram[:-1]
            disc = discounts.discount_for(k, c)
            pk[gram] = max(c - disc, 0.0) / denoms[ctx] + gk[ctx] * lower[gram[1:]]
        probs[k] = pk
        gammas[k] = gk

    tables: dict[int, dict[NGram, tuple[float, float | None]]] = {
        k: {} for k in range(1, table.order + 1)
    }
    for k in range(1, table.order + 1):
        higher = gammas.get(k + 1, {})
        for gram, p in probs[k].items():
            gamma = higher.get(gram)
            bow = math.log10(gamma) if gamma is not None else None
            tables[k][gram] = (math.log10(p), bow)
    if table.order > 1:
        bos_gamma = gammas[2].get((BOS,))
        bos_bow = math.log10(bos_gamma) if bos_gamma is not None else None
        tables[1][(BOS,)] = (BOS_LOG10_PROB, bos_bow)

    return BackoffLM(
        order=table.order,
        tables=tables,
        vocab=vocab,
        metadata={
            "corpus_id": table.corpus_id,
            "smoothing": "modified-kneser-ney",
            "discounts": {k: discounts.by_order[k] for k in sorted(discounts.by_order)},
            "fallback_orders": sorted(discounts.fallback_orders),
        },
    )
