"""Perplexity and out-of-vocabulary evaluation."""

from __future__ import annotations

from dataclasses import dataclass

from asrlm.ngramcore.model import BackoffLM
from asrlm.textcorpus import BOS, EOS, UNK, Corpus, Vocabulary

OOV_POLICIES = ("exclude", "as_unk")


@dataclass(frozen=True, slots=True)
class PerplexityReport:
    log10_prob_sum: float
    scored_tokens: int
    oov_tokens: int
    sentences: int
    ppl: float

    def format(self) -> str:
        return (
            f"sentences={self.sentences} scored_tokens={self.scored_tokens} "
            f"oov_tokens={self.oov_tokens} log10_prob_sum={self.log10_prob_sum:.6f} "
            f"ppl={self.ppl:.4f}"
        )


def iter_positions(corpus: Corpus, vocab: Vocabulary, order: int):
    """Yield (history, token, is_oov) for every predicted position: every
    word plus one `</s>` per sentence. The one place corpus tokens are mapped
    for `BackoffLM.walk`: an OOV word is `<unk>`. `history` is the tuple of
    the last `order - 1` mapped tokens before the position, `<s>` included
    (fewer near a sentence start).
    """
    n = order - 1
    ids = vocab.ids
    for sent in corpus.sentences:
        history = (BOS,)[:n]
        for tok in sent:
            oov = tok not in ids
            if oov:
                tok = UNK
            yield history, tok, oov
            history = (*history, tok)[-n:] if n else ()
        yield history, EOS, False


def score_corpus(walk, corpus: Corpus, vocab: Vocabulary, oov_policy: str,
                 order: int) -> PerplexityReport:
    """The one corpus-scoring loop: sum `walk(token, history)` over the
    positions `iter_positions` maps for models of order at most `order`.
    `walk` is `BackoffLM.walk` or a mixture of walks. Under `exclude`, OOV
    positions are counted and skipped; under `as_unk` they score `<unk>`."""
    if oov_policy not in OOV_POLICIES:
        raise ValueError(f"unknown OOV policy {oov_policy!r}")
    sentences = len(corpus.sentences)
    if sentences == 0:
        raise ValueError(f"corpus {corpus.id!r} is empty")
    exclude = oov_policy == "exclude"
    total = 0.0
    scored = 0
    oov = 0
    for history, token, is_oov in iter_positions(corpus, vocab, order):
        if is_oov and exclude:
            oov += 1
            continue
        total += walk(token, history)
        scored += 1
    if scored == 0:
        raise ValueError("no scorable positions (all-OOV corpus under exclude policy)")
    return PerplexityReport(
        log10_prob_sum=total,
        scored_tokens=scored,
        oov_tokens=oov,
        sentences=sentences,
        ppl=10.0 ** (-total / scored),
    )


def require_unigrams(lm: BackoffLM, words, purpose: str) -> None:
    """Raise ValueError naming the model's source when one of `words` has no
    unigram, so scoring fails before its first position, not with a KeyError
    inside `BackoffLM.walk`."""
    missing = [w for w in words if (w,) not in lm.tables[1]]
    if missing:
        source = lm.metadata.get("source", "model")
        raise ValueError(f"{source}: no unigram entry for {', '.join(missing)}; "
                         f"cannot score {purpose}")


def perplexity(lm: BackoffLM, corpus: Corpus, oov_policy: str = "exclude") -> PerplexityReport:
    """Corpus perplexity. `exclude` skips OOV positions (counting them);
    `as_unk` scores them as `<unk>`.

    A model without a `</s>` unigram (or, under `as_unk`, a `<unk>` unigram)
    cannot score every position; that raises ValueError naming its source.
    """
    require_unigrams(lm, (EOS, UNK) if oov_policy == "as_unk" else (EOS,),
                     f"under oov_policy {oov_policy!r}")
    return score_corpus(lm.walk, corpus, lm.vocab, oov_policy, lm.order)


def oov_rate(vocab: Vocabulary, corpus: Corpus) -> float:
    """Fraction of word tokens absent from the vocabulary (`</s>` not counted)."""
    if corpus.token_count == 0:
        raise ValueError(f"corpus {corpus.id!r} has no tokens")
    oov = 0
    for sent in corpus.sentences:
        for tok in sent:
            if tok not in vocab:
                oov += 1
    return oov / corpus.token_count
