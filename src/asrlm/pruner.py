"""Relative-entropy pruning of back-off n-gram models.

An n-gram is removed when dropping it (and redistributing its mass through
the recomputed back-off weight) would raise the model's training-set
perplexity by less than a relative threshold theta. This is the standard
criterion for shrinking back-off models and gives theta-monotone retained
sets: raising theta never retains an n-gram that a lower theta removed.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

from asrlm.ngramcore.evaluate import require_unigrams
from asrlm.ngramcore.model import (
    BackoffLM,
    NGram,
    by_context,
    leftover_masses,
    log_backoff,
    rebuild_backoffs,
)
from asrlm.textcorpus import BOS, EOS


@dataclass(frozen=True)
class PruneReport:
    theta: float
    removed_by_order: dict[int, int]
    size_before: dict[int, int]
    size_after: dict[int, int]

    def format(self) -> str:
        lines = [f"theta={self.theta!r}", "order\tbefore\tremoved\tafter"]
        for k in sorted(self.size_before):
            lines.append(
                f"{k}\t{self.size_before[k]}\t{self.removed_by_order.get(k, 0)}\t{self.size_after[k]}"
            )
        total_before = sum(self.size_before.values())
        total_after = sum(self.size_after.values())
        lines.append(f"total\t{total_before}\t{total_before - total_after}\t{total_after}")
        return "\n".join(lines) + "\n"


def _log_marginals(tables, histories):
    """Yield (history, log10 p(history)) by the chain rule for sorted, distinct
    stored histories of one length, read from a model's `tables`.

    By the prefix rule every prefix of a stored history is stored, so each
    factor p(h[i] | h[:i]) is the stored value of h[:i + 1], one lookup, as
    `walk` would return it. A leading `<s>` takes p(`</s>`), the usual
    convention that keeps sentence-initial contexts at a realistic weight.
    Sorted histories that share a prefix are adjacent, so each reuses the
    partial sums of the previous one up to their common prefix. The contexts
    of a table in sorted gram order come in this order, with no sort.
    """
    sums: list[float] = []  # sums[i] = log10 p(previous[:i + 1])
    previous: NGram = ()
    for history in histories:
        common = 0
        while common < len(sums) and history[common] == previous[common]:
            common += 1
        del sums[common:]
        for i in range(common, len(history)):
            if i == 0:
                sums.append(tables[1][(EOS,) if history[0] == BOS else history[:1]])
            else:
                sums.append(sums[-1] + tables[i + 1][history[:i + 1]])
        previous = history
        yield history, sums[-1]


def _entropy_deltas(lm: BackoffLM, k: int, protected):
    """Yield (gram, delta) for every stored k-gram of `lm` not in `protected`:
    the relative-entropy cost, in log10 units, of removing that gram alone
    and recomputing its context's back-off weight (Stolcke 1998).

    The cost is p(h) * sum over the predicted words w of p(w|h) *
    (log10 p(w|h) - log10 p'(w|h)), in closed form: only the removed gram
    and the words h does not store change their probability. p(h) is read
    from the stored grams, and each p(w | h minus first word) comes from
    `leftover_masses`. Histories come in sorted order, and each one's grams
    sum in sorted gram order, as the sorted table holds them.
    """
    table = lm.tables[k]
    siblings = [(history, list(grams)) for history, grams in by_context(table)]
    marginals = _log_marginals(lm.tables, [history for history, _ in siblings])
    for (history, grams), (_, log_marginal) in zip(siblings, marginals):
        log_bow = lm.backoffs[k - 1].get(history, 0.0)
        num, den, lowers = leftover_masses(lm, k, grams)
        h_marginal = 10.0 ** log_marginal
        for gram, log_plower in zip(grams, lowers):
            if gram in protected:
                continue
            logp = table[gram]
            p = 10.0 ** logp
            # The context's weight once this gram is left out.
            new_log_bow = log_backoff(num + p, den + 10.0 ** log_plower)
            delta_logp = log_plower + new_log_bow - logp
            yield gram, -h_marginal * (p * delta_logp + num * (new_log_bow - log_bow))


def prune_entropy(lm: BackoffLM, theta: float) -> tuple[BackoffLM, PruneReport]:
    """Remove n-grams of order >= 2 whose relative perplexity increase is < theta.

    Orders are processed highest first; an n-gram serving as the context of a
    retained higher-order n-gram is never removed. Back-off weights are
    recomputed afterwards so the pruned model still normalizes. Unigrams are
    never touched. A negative theta is a no-op with a warning; a NaN theta,
    which no delta is below, is a ValueError, and so is a model without a
    `</s>` unigram, which sentence-initial contexts take their weight from.
    """
    if math.isnan(theta):
        raise ValueError(f"pruning threshold must be a number, got {theta!r}")
    require_unigrams(lm, (EOS,), "sentence-initial contexts for pruning")
    size_before = lm.size_by_order()
    if theta < 0:
        warnings.warn(f"negative pruning threshold {theta!r}; model left unchanged", stacklevel=2)
        return lm.clone(), PruneReport(
            theta=theta,
            removed_by_order={k: 0 for k in size_before},
            size_before=size_before,
            size_after=size_before,
        )

    pruned = lm.clone()
    removed_by_order: dict[int, int] = {k: 0 for k in size_before}
    for k in range(lm.order, 1, -1):
        # Deltas come from the original model: removals at higher orders do
        # not touch the stored probabilities, weights or marginals they use.
        protected = {g[:-1] for g in pruned.tables.get(k + 1, {})}
        to_remove = [gram for gram, delta_entropy in _entropy_deltas(lm, k, protected)
                     if 10.0 ** delta_entropy - 1.0 < theta]
        table = pruned.tables[k]
        for gram in to_remove:
            del table[gram]
        removed_by_order[k] = len(to_remove)
    rebuild_backoffs(pruned)
    pruned.metadata["pruned_theta"] = theta
    return pruned, PruneReport(
        theta=theta,
        removed_by_order=removed_by_order,
        size_before=size_before,
        size_after=pruned.size_by_order(),
    )
