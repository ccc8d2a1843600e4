"""Linear interpolation of back-off LMs: EM weight estimation and static merging."""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

from asrlm.ngramcore.evaluate import (
    PerplexityReport,
    iter_positions,
    require_unigrams,
    score_positions,
)
from asrlm.ngramcore.model import (
    BOS_LOG10_PROB,
    BackoffLM,
    Entry,
    NGram,
    memoized_log_prob,
    rebuild_backoffs,
)
from asrlm.textcorpus import BOS, EOS, UNK, Corpus, write_text_atomic

WEIGHT_FILE_TOLERANCE = 1e-6


@dataclass(frozen=True)
class InterpolationWeights:
    """Mixture weights on the simplex, aligned with component LM ids."""

    lm_ids: tuple[str, ...]
    lambdas: tuple[float, ...]
    dev_log10_likelihood: float

    def __post_init__(self):
        if len(self.lm_ids) != len(self.lambdas):
            raise ValueError("lm_ids and lambdas must align")
        if any(lam < 0.0 for lam in self.lambdas):
            raise ValueError("weights must be non-negative")
        if abs(sum(self.lambdas) - 1.0) > 1e-9:
            raise ValueError(f"weights sum to {sum(self.lambdas)}, not 1")


def component_ids(lms: list[BackoffLM]) -> tuple[str, ...]:
    ids = []
    for i, lm in enumerate(lms):
        base = str(lm.metadata.get("corpus_id") or lm.metadata.get("source") or f"lm{i}")
        name = base
        n = 1
        while name in ids:
            n += 1
            name = f"{base}.{n}"
        ids.append(name)
    return tuple(ids)


def _check_components(lms: list[BackoffLM], minimum: int = 2) -> None:
    if len(lms) < minimum:
        raise ValueError(f"need at least {minimum} component models")
    first = lms[0].vocab
    for lm in lms[1:]:
        if set(lm.vocab.words) != set(first.words):
            raise ValueError("component models must share one vocabulary")
    _check_reserved_unigrams(lms)


def _check_reserved_unigrams(lms: list[BackoffLM]) -> None:
    # Every vocabulary holds `<unk>` and `</s>`, but an ARPA file need not hold
    # their unigrams. Mixing scores OOV words as `<unk>` in every component, and
    # merging needs each component's value for every unigram of the union.
    for lm in lms:
        require_unigrams(lm, (EOS, UNK), "as a mixture component")


def _lambdas(weights, lms: list[BackoffLM]) -> tuple[float, ...]:
    """Weights given as InterpolationWeights or a list, checked to be one per component."""
    lambdas = weights.lambdas if isinstance(weights, InterpolationWeights) else tuple(weights)
    if len(lambdas) != len(lms):
        raise ValueError("one weight per component required")
    return lambdas


def _position_probability_matrix(lms: list[BackoffLM], corpus: Corpus):
    """Linear-space p_i(w|h) for every predicted position and every component.

    OOV positions are scored as `<unk>` so each position has positive
    probability under every open-vocabulary component.
    """
    rows = []
    flags = []
    for history, token, is_oov in iter_positions(corpus, lms[0].vocab):
        rows.append([10.0 ** lm.log_prob(token, history) for lm in lms])
        flags.append(is_oov)
    return rows, flags


def em_weights(
    lms: list[BackoffLM],
    dev: Corpus,
    init: list[float] | None = None,
    tol: float = 1e-6,
    max_iter: int = 100,
) -> InterpolationWeights:
    """Estimate mixture weights by EM on dev-set likelihood.

    Each iteration sets every weight to the average posterior responsibility
    of its component over all predicted positions, which cannot decrease the
    dev log-likelihood. Stops when the log10-likelihood improves by less
    than `tol` or after `max_iter` iterations.
    """
    _check_components(lms)
    if len(dev) == 0:
        raise ValueError("dev corpus is empty")
    m = len(lms)
    if init is None:
        weights = [1.0 / m] * m
    else:
        if len(init) != m or any(w < 0 for w in init) or abs(sum(init) - 1.0) > 1e-9:
            raise ValueError("init must be a length-matched simplex vector")
        weights = list(init)
    rows, _ = _position_probability_matrix(lms, dev)
    n_positions = len(rows)

    def log_likelihood_and_posteriors(ws):
        ll = 0.0
        sums = [0.0] * m
        for row in rows:
            mix = sum(w * p for w, p in zip(ws, row))
            assert mix > 0.0, "mixture probability vanished at a dev position"
            ll += math.log10(mix)
            for i in range(m):
                sums[i] += ws[i] * row[i] / mix
        return ll, sums

    ll, posterior_sums = log_likelihood_and_posteriors(weights)
    for _ in range(max_iter):
        new_weights = [s / n_positions for s in posterior_sums]
        total = sum(new_weights)
        new_weights = [w / total for w in new_weights]
        new_ll, new_sums = log_likelihood_and_posteriors(new_weights)
        improved = new_ll - ll
        weights, ll, posterior_sums = new_weights, new_ll, new_sums
        if improved < tol:
            break
    return InterpolationWeights(
        lm_ids=component_ids(lms),
        lambdas=tuple(weights),
        dev_log10_likelihood=ll,
    )


def mixture_log_prob(lms: list[BackoffLM], lambdas, word: str, history=()) -> float:
    _check_reserved_unigrams(lms)
    lambdas = _lambdas(lambdas, lms)
    mix = sum(lam * 10.0 ** lm.log_prob(word, history) for lam, lm in zip(lambdas, lms))
    return math.log10(mix)


def perplexity_mixture(
    lms: list[BackoffLM],
    weights: InterpolationWeights | list[float],
    corpus: Corpus,
    oov_policy: str = "exclude",
) -> PerplexityReport:
    """Perplexity of the position-wise weighted mixture of the components."""
    _check_components(lms, minimum=1)
    lambdas = _lambdas(weights, lms)
    if len(corpus) == 0:
        raise ValueError(f"corpus {corpus.id!r} is empty")
    rows, flags = _position_probability_matrix(lms, corpus)
    logps = []
    for row, is_oov in zip(rows, flags):
        if is_oov and oov_policy == "exclude":
            logps.append(0.0)
        else:
            logps.append(math.log10(sum(lam * p for lam, p in zip(lambdas, row))))
    return score_positions(logps, flags, len(corpus), oov_policy)


def interpolate_static(
    lms: list[BackoffLM],
    weights: InterpolationWeights | list[float],
) -> BackoffLM:
    """Merge components into one back-off model.

    The merged model stores the union of the component n-gram sets; each
    stored n-gram carries the exact mixture probability (each component's
    value, stored or backed off, taken from its own `memoized_log_prob`) and
    back-off weights are recomputed so every context normalizes. A single
    component with weight 1 is returned unchanged, which keeps the degenerate
    merge bit-exact.
    """
    lambdas = _lambdas(weights, lms)
    _check_components(lms, minimum=1)
    order = lms[0].order
    for lm in lms[1:]:
        if lm.order != order:
            raise ValueError("static merge requires components of equal order")
    merged_meta = {
        "smoothing": "static-interpolation",
        "components": list(component_ids(lms)),
        "weights": [float(l) for l in lambdas],
    }
    if len(lms) == 1 and lambdas[0] == 1.0:
        clone = lms[0].clone()
        clone.metadata.update(merged_meta)
        return clone

    values = [memoized_log_prob(lm) for lm in lms]
    tables: dict[int, dict[NGram, Entry]] = {}
    for k in range(1, order + 1):
        union: dict[NGram, None] = {}
        for lm in lms:
            for gram in sorted(lm.tables.get(k, {})):
                union.setdefault(gram)
        tk: dict[NGram, Entry] = {}
        for gram in union:
            if gram == (BOS,):
                tk[gram] = (BOS_LOG10_PROB, None)
                continue
            mix = sum(lam * 10.0 ** value(gram) for lam, value in zip(lambdas, values))
            tk[gram] = (math.log10(mix), None)
        tables[k] = tk
    merged = BackoffLM(order=order, tables=tables, vocab=lms[0].vocab, metadata=merged_meta)
    rebuild_backoffs(merged)
    return merged


def static_merge_divergence(
    lms: list[BackoffLM],
    weights: InterpolationWeights | list[float],
    merged: BackoffLM,
    contexts=None,
) -> float:
    """Diagnostic: max |log10| gap between merged model and dynamic mixture on
    backed-off (not explicitly stored) n-grams over the given contexts."""
    lambdas = _lambdas(weights, lms)
    if contexts is None:
        contexts = [()]
        for k in range(1, merged.order):
            contexts.extend(sorted(merged.tables.get(k, {})))
    worst = 0.0
    for ctx in contexts:
        for w in merged.vocab.predicted_words():
            if ctx + (w,) in merged.tables.get(len(ctx) + 1, {}):
                continue
            gap = abs(merged.log_prob(w, ctx) - mixture_log_prob(lms, lambdas, w, ctx))
            worst = max(worst, gap)
    return worst


def save_weights(weights: InterpolationWeights, path: str | Path) -> None:
    lines = [f"{lm_id}\t{lam!r}\n" for lm_id, lam in zip(weights.lm_ids, weights.lambdas)]
    write_text_atomic(path, "".join(lines))


def load_weights(path: str | Path) -> InterpolationWeights:
    ids = []
    lambdas = []
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        if not line.strip():
            continue
        fields = line.split("\t")
        if len(fields) != 2:
            raise ValueError(f"{path}:{lineno}: expected 'lm_id<TAB>lambda'")
        ids.append(fields[0])
        lambdas.append(float(fields[1]))
    total = sum(lambdas)
    if abs(total - 1.0) > WEIGHT_FILE_TOLERANCE:
        raise ValueError(f"{path}: weights sum to {total}, expected 1 within {WEIGHT_FILE_TOLERANCE}")
    lambdas = [l / total for l in lambdas]
    return InterpolationWeights(
        lm_ids=tuple(ids),
        lambdas=tuple(lambdas),
        dev_log10_likelihood=float("nan"),
    )
