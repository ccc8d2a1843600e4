#!/usr/bin/env python3
"""End-to-end study on the bundled synthetic fixtures.

Trains one 4-gram per corpus, estimates interpolation weights on dev,
compares per-corpus / combined / pruned perplexities, measures the effect of
the dialect mapping, and scores the bundled recognition outputs. Everything
is deterministic; rerunning prints identical numbers.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from asrlm.dialectmap import load_mapping
from asrlm.mixture import em_weights, interpolate_static, perplexity_mixture
from asrlm.ngramcore import oov_rate, perplexity
from asrlm.pipeline import PipelineConfig, mapped_lm_eval, train_lms
from asrlm.pruner import prune_entropy
from asrlm.scorer import cer, read_trn, relative_reduction, wer
from asrlm.textcorpus import build_vocabulary, load_corpus

FIXTURES = ROOT / "fixtures"
ORDER = 4
THETA = 1e-4


def main() -> None:
    corpora = [
        load_corpus(FIXTURES / name, corpus_id=name.split(".")[0])
        for name in ("news.txt", "medical.txt", "dialogue.txt", "dialect.txt")
    ]
    dev = load_corpus(FIXTURES / "dev.txt", corpus_id="dev")
    test = load_corpus(FIXTURES / "test.txt", corpus_id="test")
    vocab = build_vocabulary(corpora)
    print(f"vocabulary: {len(vocab)} words; "
          f"dev OOV {100 * oov_rate(vocab, dev):.2f}%, test OOV {100 * oov_rate(vocab, test):.2f}%")

    lms = train_lms(corpora, vocab, ORDER)
    print(f"\nper-corpus {ORDER}-gram dev/test perplexity:")
    for corpus, lm in zip(corpora, lms):
        print(f"  {corpus.id:<10} dev {perplexity(lm, dev).ppl:8.2f}   "
              f"test {perplexity(lm, test).ppl:8.2f}")

    weights = em_weights(lms, dev)
    print("\ninterpolation weights (EM on dev):")
    for lm_id, lam in zip(weights.lm_ids, weights.lambdas):
        print(f"  {lm_id:<10} {lam:.4f}")

    combined = interpolate_static(lms, weights)
    pruned, prune_report = prune_entropy(combined, THETA)
    print(f"\ncombined model: {combined.total_ngrams()} n-grams; "
          f"pruned (theta={THETA}): {pruned.total_ngrams()} n-grams")
    for label, model in (("combined", combined), ("pruned", pruned)):
        print(f"  {label:<10} dev {perplexity(model, dev).ppl:8.2f}   "
              f"test {perplexity(model, test).ppl:8.2f}")
    mixture_ppl = perplexity_mixture(lms, weights, dev).ppl
    print(f"  dynamic mixture dev {mixture_ppl:8.2f}")

    print("\ndialect mapping effect (training text mapped, dev mapped):")
    table = load_mapping(FIXTURES / "mapping.tsv")
    before, after = mapped_lm_eval(corpora, dev, table, PipelineConfig(order=ORDER))
    print(f"  before {before.ppl:8.2f}   after {after.ppl:8.2f}   "
          f"({relative_reduction(before.ppl, after.ppl):+.1f}% relative)")

    refs = read_trn(FIXTURES / "refs.tsv")
    hyps = read_trn(FIXTURES / "hyps.tsv")
    raw_wer = wer(refs, hyps)
    mapped_refs = {u: tuple(table.pairs.get(t, t) for t in toks) for u, toks in refs.items()}
    mapped_wer = wer(mapped_refs, hyps)
    char_rate = cer(refs, hyps)
    print("\nscoring the bundled recognition outputs:")
    print(f"  WER vs original refs {100 * raw_wer.wer:6.2f}%   "
          f"vs mapped refs {100 * mapped_wer.wer:6.2f}%   CER {100 * char_rate.cer:6.2f}%")
    print(f"  relative WER reduction from mapping refs: "
          f"{relative_reduction(raw_wer.wer, mapped_wer.wer):.1f}%")


if __name__ == "__main__":
    main()
