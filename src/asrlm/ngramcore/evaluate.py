"""Perplexity and out-of-vocabulary evaluation."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress

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


def walk_positions(lm: BackoffLM, corpus: Corpus, exclude: bool):
    """Yield log10 p of every scored position of `corpus` (every word plus
    one `</s>` per sentence) by `lm.walk`. The one place corpus tokens are
    mapped for the walk: an OOV word is `<unk>`. Each walk starts from the
    history the last one returned, `(<s>,)` at a sentence start. Under
    `exclude` an OOV position is skipped, not walked, and the next history
    is the last one plus `<unk>`, cut to `order - 1` tokens."""
    walk = lm.walk
    ids = lm.vocab.ids
    n = lm.order - 1
    for sent in corpus.sentences:
        history = (BOS,)[:n]
        for tok in sent:
            if tok not in ids:
                tok = UNK
                if exclude:
                    history = (*history, UNK)[-n:] if n else ()
                    continue
            logp, history = walk(history + (tok,))
            yield logp
        yield walk(history + (EOS,))[0]


def position_columns(lms: list[BackoffLM], corpus: Corpus) -> tuple[list[list[float]], list]:
    """One `as_unk` walk of each model over `corpus`: its log10 p at every
    position, and whether `exclude` scores each position (`</s>` or a word
    of the models' shared vocabulary). Either policy's reports read these
    bit for bit: after an OOV word, `exclude` walks on from the last history
    plus `<unk>` and `as_unk` from the gram it matched, and by `BackoffLM`'s
    two invariants the next value is the same."""
    ids = lms[0].vocab.ids
    known = [tok in ids for sent in corpus.sentences for tok in (*sent, EOS)]
    return [list(walk_positions(lm, corpus, False)) for lm in lms], known


def score_corpus(walks: list, corpus: Corpus, oov_policy: str, known=None,
                 mix=None) -> PerplexityReport:
    """The one corpus-scoring loop: the report of the log10 p in `walks[0]`,
    or, given `mix`, of `mix(row)` over each position's row of `walks`, one
    iterable per model of the positions `oov_policy` scores, or, given the
    `known` mask of `position_columns`, of every position. Positions not
    scored are OOV. Every sentence scores its `</s>`, so a corpus that is
    not empty has a scored position."""
    if oov_policy not in OOV_POLICIES:
        raise ValueError(f"unknown OOV policy {oov_policy!r}")
    sentences = len(corpus.sentences)
    if sentences == 0:
        raise ValueError(f"corpus {corpus.id!r} is empty")
    if known is not None and oov_policy == "exclude":
        walks = [compress(walk, known) for walk in walks]
    total = 0.0
    scored = 0
    for logp in walks[0] if mix is None else map(mix, zip(*walks)):
        total += logp
        scored += 1
    return PerplexityReport(
        log10_prob_sum=total,
        scored_tokens=scored,
        oov_tokens=corpus.token_count + sentences - scored,
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
    Its `exclude` walk skips OOV positions, so needs no `<unk>` unigram.
    """
    require_unigrams(lm, (EOS, UNK) if oov_policy == "as_unk" else (EOS,),
                     f"under oov_policy {oov_policy!r}")
    return score_corpus([walk_positions(lm, corpus, oov_policy == "exclude")], corpus, oov_policy)


def oov_rate(vocab: Vocabulary, corpus: Corpus) -> float:
    """Fraction of word tokens absent from the vocabulary (`</s>` not counted)."""
    if corpus.token_count == 0:
        raise ValueError(f"corpus {corpus.id!r} has no tokens")
    return sum(tok not in vocab.ids for sent in corpus.sentences for tok in sent) / corpus.token_count
