"""Command-line surface: corpus, lm, mix, prune, g2p, lexicon, dialect, score, pipeline."""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

from asrlm import dialectmap, lexg2p, pipeline, scorer
from asrlm.mixture import (
    em_weights,
    interpolate_static,
    load_weights,
    perplexity_mixture,
    save_weights,
)
from asrlm.ngramcore import count_ngrams, oov_rate, perplexity, read_arpa, write_arpa
from asrlm.ngramcore.evaluate import OOV_POLICIES
from asrlm.pipeline import PipelineConfig, PipelineError, mapped_lm_eval, parse_config, run_pipeline, train_lms
from asrlm.pruner import prune_entropy
from asrlm.textcorpus import (
    Vocabulary, build_vocabulary, concatenate, load_corpus, read_text, save_corpus, word_frequencies,
    write_text_atomic,
)


def _load(args, path, corpus_id=None):
    return load_corpus(
        path,
        lowercase=getattr(args, "lowercase", False),
        strip_punct=getattr(args, "strip_punct", False),
        corpus_id=corpus_id,
    )


def _vocab_for(args, corpora):
    if getattr(args, "vocab", None):
        return Vocabulary.load(args.vocab)
    return build_vocabulary(corpora, min_count=args.min_count, max_size=args.max_size)


def cmd_corpus_stats(args) -> int:
    for path in args.paths:
        corpus = _load(args, path)
        freqs = word_frequencies(corpus)
        print(f"{path}\tsentences={len(corpus)}\ttokens={corpus.token_count}\ttypes={len(freqs)}")
        for word, count in freqs[: args.top]:
            print(f"  {word}\t{count}")
    return 0


def cmd_lm_count(args) -> int:
    corpus = _load(args, args.corpus)
    vocab = _vocab_for(args, [corpus])
    table = count_ngrams(corpus, args.order, vocab)
    write_text_atomic(args.out, "".join(
        f"{k}\t{' '.join(gram)}\t{table.counts[k][gram]}\n"
        for k in range(1, table.order + 1) for gram in sorted(table.counts[k])
    ))
    print(f"wrote counts for orders 1..{table.order} to {args.out}")
    return 0


def cmd_lm_train(args) -> int:
    corpus = _load(args, args.corpus)
    [lm] = train_lms([corpus], _vocab_for(args, [corpus]), args.order)
    write_arpa(lm, args.out)
    sizes = " ".join(f"{k}:{n}" for k, n in sorted(lm.size_by_order().items()))
    print(f"trained {args.order}-gram on {corpus.id} ({sizes}) -> {args.out}")
    return 0


def cmd_lm_ppl(args) -> int:
    lm = read_arpa(args.lm)
    corpus = _load(args, args.corpus)
    report = perplexity(lm, corpus, oov_policy=args.oov_policy)
    print(report.format())
    return 0


def cmd_lm_oov(args) -> int:
    if not args.vocab and not args.lm:
        raise ValueError("lm oov needs --vocab or --lm")
    vocab = Vocabulary.load(args.vocab) if args.vocab else read_arpa(args.lm).vocab
    corpus = _load(args, args.corpus)
    rate = oov_rate(vocab, corpus)
    print(f"oov_rate={rate:.6f} ({100.0 * rate:.4f}%)")
    return 0


def cmd_mix_em(args) -> int:
    lms = [read_arpa(p) for p in args.lms]
    dev = _load(args, args.dev, corpus_id="dev")
    weights = em_weights(lms, dev, tol=args.tol, max_iter=args.max_iter)
    save_weights(weights, args.out)
    pairs = " ".join(f"{i}={l:.6f}" for i, l in zip(weights.lm_ids, weights.lambdas))
    print(f"dev log10-likelihood {weights.dev_log10_likelihood:.6f}; {pairs} -> {args.out}")
    return 0


def cmd_mix_merge(args) -> int:
    lms = [read_arpa(p) for p in args.lms]
    weights = load_weights(args.weights, lms)
    merged = interpolate_static(lms, weights)
    write_arpa(merged, args.out)
    print(f"merged {len(lms)} models -> {args.out}")
    return 0


def cmd_mix_ppl(args) -> int:
    lms = [read_arpa(p) for p in args.lms]
    weights = load_weights(args.weights, lms)
    corpus = _load(args, args.corpus)
    report = perplexity_mixture(lms, weights, corpus, oov_policy=args.oov_policy)
    print(report.format())
    return 0


def cmd_prune(args) -> int:
    lm = read_arpa(args.lm)
    pruned, report = prune_entropy(lm, args.theta)
    write_arpa(pruned, args.out)
    text = report.format()
    if args.report:
        write_text_atomic(args.report, text)
    print(text, end="")
    return 0


def cmd_g2p_train(args) -> int:
    lexicon = lexg2p.load_lexicon(args.lexicon)
    model = lexg2p.train_g2p(
        lexicon,
        order=args.order,
        max_letters=args.max_letters,
        max_phones=args.max_phones,
        em_iters=args.em_iters,
    )
    lexg2p.save_g2p_model(model, args.out)
    trace = ", ".join(f"{x:.4f}" for x in model.log10_likelihood_trace)
    print(f"{len(model.graphones)} graphones; log10-likelihood trace: {trace}")
    return 0


def cmd_g2p_apply(args) -> int:
    lexg2p.check_search(args.beam, args.n_best)  # before any word, even if there is none
    model = lexg2p.load_g2p_model(args.model)
    words = read_text(args.words).split()
    failures = 0
    for word in words:
        try:
            hyps = lexg2p.apply_g2p(model, word, beam=args.beam, n_best=args.n_best)
        except lexg2p.G2PError as exc:
            print(f"{word}\tERROR\t{exc}", file=sys.stderr)
            failures += 1
            continue
        for pron, score in hyps:
            print(f"{word}\t{' '.join(pron)}\t{score:.6f}")
    return 1 if failures else 0


def cmd_lexicon_extend(args) -> int:
    lexicon = lexg2p.load_lexicon(args.lexicon)
    model = lexg2p.load_g2p_model(args.model)
    words = read_text(args.words).split()
    extended, report = lexg2p.extend_lexicon(
        lexicon, words, model, beam=args.beam, n_best=args.n_best
    )
    lexg2p.save_lexicon(extended, args.out)
    print(f"added {len(report.added)} entries, {len(report.failed)} failures -> {args.out}")
    for word, why in sorted(report.failed.items()):
        print(f"  failed {word}: {why}", file=sys.stderr)
    return 0


def cmd_lexicon_merge(args) -> int:
    base = lexg2p.load_lexicon(args.base)
    addon = lexg2p.load_lexicon(args.addon)
    merged = lexg2p.merge_lexicons(base, addon, policy=args.policy)
    lexg2p.save_lexicon(merged, args.out)
    print(f"base={len(base)} addon={len(addon)} merged={len(merged)} -> {args.out}")
    return 0


def cmd_dialect_candidates(args) -> int:
    corpus = _load(args, args.corpus)
    exclusion = Vocabulary.load(args.exclude_vocab) if args.exclude_vocab else Vocabulary()
    for word, count in dialectmap.select_candidates(corpus, args.k, exclusion):
        print(f"{word}\t{count}")
    return 0


def cmd_dialect_apply(args) -> int:
    table = dialectmap.load_mapping(args.mapping)
    corpus = _load(args, args.corpus)
    mapped = dialectmap.apply_mapping(corpus, table)
    save_corpus(mapped, args.out)
    changed = sum(
        1
        for before, after in zip(corpus.sentences, mapped.sentences)
        for a, b in zip(before, after)
        if a != b
    )
    print(f"mapped {changed} tokens -> {args.out}")
    return 0


def cmd_dialect_eval(args) -> int:
    table = dialectmap.load_mapping(args.mapping)
    corpora = [_load(args, p, corpus_id=Path(p).stem) for p in args.train]
    dev = _load(args, args.dev, corpus_id="dev")
    if args.no_interpolate:
        corpora = [concatenate("all", corpora)]
    cfg = PipelineConfig(order=args.order, oov_policy=args.oov_policy,
                         map_eval_text=args.map_eval_text)
    before, after = mapped_lm_eval(corpora, dev, table, cfg)
    print(f"before\t{before.format()}")
    print(f"after\t{after.format()}")
    return 0


def cmd_score(args, character_level: bool) -> int:
    refs = scorer.read_trn(args.ref)
    hyps = scorer.read_trn(args.hyp)
    report = scorer.cer(refs, hyps) if character_level else scorer.wer(refs, hyps)
    text = scorer.format_report(report, "cer" if character_level else "wer")
    if args.report:
        write_text_atomic(args.report, text)
    print(text, end="")
    return 0


def cmd_pipeline_run(args) -> int:
    config = parse_config(args.config, overrides=args.set or [])
    if args.out_dir:
        config = dataclasses.replace(config, out_dir=args.out_dir)
    for name in sorted(run_pipeline(config)):
        print(f"artifact {name}")
    print(f"pipeline complete: {config.out_dir}")
    return 0


def _add_normalization_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--lowercase", action="store_true", help="lowercase input text")
    p.add_argument("--strip-punct", action="store_true", help="strip punctuation from tokens")


def _add_vocab_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--vocab", help="vocabulary file (one word per line)")
    p.add_argument("--min-count", type=int, default=1)
    p.add_argument("--max-size", type=int, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="asrlm", description=__doc__)
    top = parser.add_subparsers(dest="group", required=True)

    corpus = top.add_parser("corpus", help="corpus inspection").add_subparsers(
        dest="command", required=True
    )
    p = corpus.add_parser("stats", help="sentence/token/type counts")
    p.add_argument("paths", nargs="+")
    p.add_argument("--top", type=int, default=10)
    _add_normalization_flags(p)
    p.set_defaults(func=cmd_corpus_stats)

    lm = top.add_parser("lm", help="n-gram model training and evaluation").add_subparsers(
        dest="command", required=True
    )
    p = lm.add_parser("count", help="write raw n-gram counts")
    p.add_argument("--corpus", required=True)
    p.add_argument("--order", type=int, default=4)
    p.add_argument("--out", required=True)
    _add_vocab_flags(p)
    _add_normalization_flags(p)
    p.set_defaults(func=cmd_lm_count)
    p = lm.add_parser("train", help="train a smoothed model, write ARPA")
    p.add_argument("--corpus", required=True)
    p.add_argument("--order", type=int, default=4)
    p.add_argument("--out", required=True)
    _add_vocab_flags(p)
    _add_normalization_flags(p)
    p.set_defaults(func=cmd_lm_train)
    p = lm.add_parser("ppl", help="perplexity of an ARPA model on a corpus")
    p.add_argument("--lm", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--oov-policy", choices=OOV_POLICIES, default="exclude")
    _add_normalization_flags(p)
    p.set_defaults(func=cmd_lm_ppl)
    p = lm.add_parser("oov", help="OOV rate of a corpus against a vocabulary")
    p.add_argument("--corpus", required=True)
    p.add_argument("--vocab")
    p.add_argument("--lm", help="take the vocabulary from this ARPA model")
    _add_normalization_flags(p)
    p.set_defaults(func=cmd_lm_oov)

    mix = top.add_parser("mix", help="model interpolation").add_subparsers(
        dest="command", required=True
    )
    p = mix.add_parser("em", help="estimate mixture weights on a dev set")
    p.add_argument("--lms", nargs="+", required=True)
    p.add_argument("--dev", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--max-iter", type=int, default=100)
    _add_normalization_flags(p)
    p.set_defaults(func=cmd_mix_em)
    p = mix.add_parser("merge", help="statically merge weighted models")
    p.add_argument("--lms", nargs="+", required=True)
    p.add_argument("--weights", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_mix_merge)
    p = mix.add_parser("ppl", help="perplexity of a dynamic mixture")
    p.add_argument("--lms", nargs="+", required=True)
    p.add_argument("--weights", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--oov-policy", choices=OOV_POLICIES, default="exclude")
    _add_normalization_flags(p)
    p.set_defaults(func=cmd_mix_ppl)

    p = top.add_parser("prune", help="entropy-prune an ARPA model")
    p.add_argument("--lm", required=True)
    p.add_argument("--theta", type=float, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--report")
    p.set_defaults(func=cmd_prune)

    g2p = top.add_parser("g2p", help="grapheme-to-phoneme models").add_subparsers(
        dest="command", required=True
    )
    p = g2p.add_parser("train", help="train a joint-sequence model from a lexicon")
    p.add_argument("--lexicon", required=True)
    p.add_argument("--order", type=int, default=3)
    p.add_argument("--max-letters", type=int, default=2)
    p.add_argument("--max-phones", type=int, default=2)
    p.add_argument("--em-iters", type=int, default=5)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_g2p_train)
    p = g2p.add_parser("apply", help="transcribe words with a trained model")
    p.add_argument("--model", required=True)
    p.add_argument("--words", required=True, help="file with one word per line")
    p.add_argument("--beam", type=int, default=100)
    p.add_argument("--n-best", type=int, default=1)
    p.set_defaults(func=cmd_g2p_apply)

    lexicon = top.add_parser("lexicon", help="pronunciation lexica").add_subparsers(
        dest="command", required=True
    )
    p = lexicon.add_parser("extend", help="add G2P pronunciations for missing words")
    p.add_argument("--lexicon", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--words", required=True)
    p.add_argument("--beam", type=int, default=100)
    p.add_argument("--n-best", type=int, default=1)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_lexicon_extend)
    p = lexicon.add_parser("merge", help="merge two lexica")
    p.add_argument("--base", required=True)
    p.add_argument("--addon", required=True)
    p.add_argument("--policy", choices=("union", "addon_wins", "base_wins"), default="union")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_lexicon_merge)

    dialect = top.add_parser("dialect", help="dialect-word mapping").add_subparsers(
        dest="command", required=True
    )
    p = dialect.add_parser("candidates", help="frequent words absent from a vocabulary")
    p.add_argument("--corpus", required=True)
    p.add_argument("--exclude-vocab")
    p.add_argument("-k", type=int, default=200)
    _add_normalization_flags(p)
    p.set_defaults(func=cmd_dialect_candidates)
    p = dialect.add_parser("apply", help="apply a mapping to a corpus")
    p.add_argument("--corpus", required=True)
    p.add_argument("--mapping", required=True)
    p.add_argument("--out", required=True)
    _add_normalization_flags(p)
    p.set_defaults(func=cmd_dialect_apply)
    p = dialect.add_parser("eval", help="before/after perplexity for a mapping")
    p.add_argument("--train", nargs="+", required=True)
    p.add_argument("--dev", required=True)
    p.add_argument("--mapping", required=True)
    p.add_argument("--order", type=int, default=4)
    p.add_argument("--no-interpolate", action="store_true")
    p.add_argument("--oov-policy", choices=OOV_POLICIES, default="exclude")
    p.add_argument("--map-eval-text", action=argparse.BooleanOptionalAction, default=True)
    _add_normalization_flags(p)
    p.set_defaults(func=cmd_dialect_eval)

    score = top.add_parser("score", help="recognition scoring").add_subparsers(
        dest="command", required=True
    )
    for name, char_level in (("wer", False), ("cer", True)):
        p = score.add_parser(name, help=f"{name.upper()} from ref/hyp TSV files")
        p.add_argument("--ref", required=True)
        p.add_argument("--hyp", required=True)
        p.add_argument("--report", help="also write the table to this file")
        p.set_defaults(func=lambda a, c=char_level: cmd_score(a, c))

    pipeline = top.add_parser("pipeline", help="full training pipeline").add_subparsers(
        dest="command", required=True
    )
    p = pipeline.add_parser("run", help="run the configured pipeline")
    p.add_argument("--config", help="key = value configuration file")
    p.add_argument("--set", action="append", metavar="KEY=VALUE",
                   help="override a configuration key (repeatable)")
    p.add_argument("--out-dir", help="output directory (overrides config)")
    p.set_defaults(func=cmd_pipeline_run)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with pipeline.paused_gc():
            return args.func(args)
    except PipelineError as exc:
        print(f"error [{exc.stage}]: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
