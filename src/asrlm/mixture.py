"""Linear interpolation of back-off LMs: EM weight estimation and static merging."""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import partial
from pathlib import Path

from asrlm.ngramcore.evaluate import (
    PerplexityReport,
    iter_positions,
    require_unigrams,
    score_corpus,
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
        _check_weights(self.lambdas, len(self.lm_ids))


def _check_weights(weights, components: int) -> tuple[float, ...]:
    """The one check on mixture weights, given as InterpolationWeights or a
    sequence: one weight per component, each finite and >= 0, summing to 1
    within 1e-9."""
    lambdas = tuple(weights.lambdas if isinstance(weights, InterpolationWeights) else weights)
    if len(lambdas) != components:
        raise ValueError("one weight per component required")
    if not all(math.isfinite(lam) and lam >= 0.0 for lam in lambdas):
        raise ValueError(f"weights must be finite and non-negative, got {list(lambdas)}")
    total = sum(lambdas)
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"weights sum to {total}, not 1")
    return lambdas


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


def _mix_log10(lms: list[BackoffLM], lambdas, word: str, history) -> float:
    """log10 of the weighted mixture of the components' p(word | history)."""
    return math.log10(sum(lam * 10.0 ** lm.log_prob(word, history) for lam, lm in zip(lambdas, lms)))


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
    weights = [1.0 / m] * m if init is None else list(_check_weights(init, m))
    # OOV positions are scored as `<unk>`, so each position has positive
    # probability under every open-vocabulary component.
    order = max(lm.order for lm in lms)
    rows = [[10.0 ** lm.log_prob(token, history) for lm in lms]
            for history, token, _ in iter_positions(dev, lms[0].vocab, order)]
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
    return _mix_log10(lms, _check_weights(lambdas, len(lms)), word, history)


def perplexity_mixture(
    lms: list[BackoffLM],
    weights: InterpolationWeights | list[float],
    corpus: Corpus,
    oov_policy: str = "exclude",
) -> PerplexityReport:
    """Perplexity of the position-wise weighted mixture of the components."""
    _check_components(lms, minimum=1)
    mix = partial(_mix_log10, lms, _check_weights(weights, len(lms)))
    return score_corpus(mix, corpus, lms[0].vocab, oov_policy, max(lm.order for lm in lms))


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
    lambdas = _check_weights(weights, len(lms))
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
    _check_reserved_unigrams(lms)
    lambdas = _check_weights(weights, len(lms))
    if contexts is None:
        contexts = [()]
        for k in range(1, merged.order):
            contexts.extend(sorted(merged.tables[k]))
    worst = 0.0
    for ctx in contexts:
        for w in merged.vocab.predicted_words():
            if ctx + (w,) in merged.tables.get(len(ctx) + 1, {}):
                continue
            gap = abs(merged.log_prob(w, ctx) - _mix_log10(lms, lambdas, w, ctx))
            worst = max(worst, gap)
    return worst


def save_weights(weights: InterpolationWeights, path: str | Path) -> None:
    lines = [f"{lm_id}\t{lam!r}\n" for lm_id, lam in zip(weights.lm_ids, weights.lambdas)]
    write_text_atomic(path, "".join(lines))


def load_weights(path: str | Path, lms: list[BackoffLM]) -> InterpolationWeights:
    """Read `lm_id<TAB>lambda` lines. Weights apply to `lms` in file order, so
    if any id names one of `lms`, each id must name the model at its line.

    Lines end at a line feed only; the carriage return of a CRLF ending is
    whitespace around the weight. An empty id, or one that holds another line
    separator such as U+2028, is an error.
    """
    ids = []
    lambdas = []
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").split("\n"), 1):
        if not line.strip():
            continue
        fields = line.split("\t")
        if len(fields) != 2 or fields[0].splitlines() != [fields[0]]:
            raise ValueError(f"{path}:{lineno}: expected 'lm_id<TAB>lambda'")
        try:
            lam = float(fields[1])
        except ValueError:
            lam = math.nan  # reported below, like any other non-finite weight
        if not math.isfinite(lam) or lam < 0.0:
            raise ValueError(f"{path}:{lineno}: weight {fields[1]!r} is not a finite number >= 0")
        ids.append(fields[0])
        lambdas.append(lam)
    expected = component_ids(lms)
    aliases = [_aliases(lm_id) for lm_id in ids]
    names = [_aliases(cid) for cid in expected]
    if any(a & n for a in aliases for n in names):
        for i, (lm_id, a, n) in enumerate(zip(ids, aliases, names)):
            if not a & n:
                raise ValueError(f"{path}: weights list {ids}, not in model order "
                                 f"{list(expected)} ({lm_id!r} is not model {i + 1})")
    total = sum(lambdas)
    if abs(total - 1.0) > WEIGHT_FILE_TOLERANCE:
        raise ValueError(f"{path}: weights sum to {total}, expected 1 within {WEIGHT_FILE_TOLERANCE}")
    lambdas = [l / total for l in lambdas]
    return InterpolationWeights(
        lm_ids=tuple(ids),
        lambdas=tuple(lambdas),
        dev_log10_likelihood=float("nan"),
    )


def _aliases(name: str) -> set[str]:
    """`name`, its resolved path, and `<id>` when its file name is
    `lm.<id>.arpa`, as the pipeline names the models beside `weights.tsv`."""
    path = Path(name)
    match = re.fullmatch(r"lm\.(.+)\.arpa", path.name)
    return {name, str(path.resolve()), *(match.groups() if match else ())}
