"""The three benchmark workloads: set-up, one timed repetition, output checks
and the instrumentation each needs.

A repetition is the unit every per-repetition figure refers to:
- lm_build: one `pipeline.run_lm_pipeline` call into a fresh out_dir;
- rescore: one `read_arpa` of the pruned combined model, then a closed loop
  of N-best requests (one client, next request after the previous returns);
- lexicon: one `pipeline.run_lexicon_pipeline` call into a fresh out_dir.
"""

from __future__ import annotations

import json
import math
import random
import shutil
import time
from pathlib import Path

import inputs
from asrlm import lexg2p, mixture, pipeline, pruner, scorer
from asrlm.ngramcore import arpa, count_ngrams, evaluate
from asrlm.ngramcore.model import BackoffLM
from asrlm.textcorpus import Corpus, build_vocabulary, load_corpus, word_frequencies

NORMALIZATION_TOL = 1e-6
CONTEXTS_PER_ORDER = 6
REQUESTS_PER_REP = 100


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def _write_config(path: Path, lines) -> None:
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")


def _manifest_artifacts(out_dir: Path) -> dict:
    manifest = json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))
    if manifest.get("status") != "ok":
        raise ValueError(f"manifest status {manifest.get('status')!r}")
    return manifest["artifacts"]


def _lm_sizes(setup_dir: Path) -> dict:
    """Vocabulary size and n-grams per order of each corpus, via the toolkit."""
    cfg = pipeline.parse_config(setup_dir / "lm.cfg")
    corpora = [load_corpus(path, corpus_id=cid) for cid, path in cfg.corpora]
    vocab = build_vocabulary(corpora, min_count=cfg.min_count)
    oov = {}
    for name, path in (("dev", cfg.dev), ("test", cfg.test)):
        oov[f"{name}_oov_tokens"] = sum(
            tok not in vocab for sent in load_corpus(path).sentences for tok in sent)
    ngrams = {}
    for corpus in corpora:
        table = count_ngrams(corpus, cfg.order, vocab)
        ngrams[corpus.id] = {k: len(t) for k, t in sorted(table.counts.items())}
    return {"vocabulary": len(vocab), "ngrams_per_order": ngrams,
            "train_tokens": sum(c.token_count for c in corpora), **oov}


def _positions(args, kwargs, report) -> dict:
    return {"evaluate.positions": report.scored_tokens + report.oov_tokens}


def _graphone_facts(args, kwargs, model) -> dict:
    used = {gram[0] for gram in model.counts.get(1, {}) if gram[0] >= 0}
    return {"lexg2p.graphones": len(model.graphones), "lexg2p.graphones_used": len(used)}


# (owner, attribute, span name, observe): the names `pipeline`, `mixture`
# and `pruner` call through, and the ones the rescore loop calls itself.
SPANS = (
    (pipeline, "run_lm_pipeline", "pipeline.run_lm_pipeline", None),
    (pipeline, "run_lexicon_pipeline", "pipeline.run_lexicon_pipeline", None),
    (pipeline, "load_corpus", "textcorpus.load_corpus", None),
    (pipeline, "build_vocabulary", "textcorpus.build_vocabulary", None),
    (pipeline, "count_ngrams", "counts.count_ngrams", None),
    (pipeline, "estimate_discounts", "smoothing.estimate_discounts",
     lambda a, k, r: {"smoothing.fallback_orders": len(r.fallback_orders)}),
    (pipeline, "train_mkn", "smoothing.train_mkn", None),
    (pipeline, "write_arpa", "arpa.write_arpa",
     lambda a, k, r: {"arpa.write_arpa.ngrams": a[0].total_ngrams()}),
    (pipeline, "em_weights", "mixture.em_weights", None),
    (pipeline, "interpolate_static", "mixture.interpolate_static", None),
    (pipeline, "perplexity_mixture", "mixture.perplexity_mixture", None),
    (pipeline, "prune_entropy", "pruner.prune_entropy",
     lambda a, k, r: {"pruner.ngrams_before": sum(r[1].size_before.values()),
                      "pruner.ngrams_after": sum(r[1].size_after.values())}),
    (pipeline, "perplexity", "evaluate.perplexity", _positions),
    (pipeline, "oov_rate", "evaluate.oov_rate", None),
    (mixture, "rebuild_backoffs", "model.rebuild_backoffs", None),
    (pruner, "rebuild_backoffs", "model.rebuild_backoffs", None),
    (arpa, "read_arpa", "arpa.read_arpa",
     lambda a, k, r: {"arpa.read_arpa.ngrams": r.total_ngrams()}),
    (evaluate, "perplexity", "evaluate.perplexity", _positions),
    (scorer, "align", "scorer.align",
     lambda a, k, r: {"scorer.align.cells": (len(a[0]) + 1) * (len(a[1]) + 1)}),
    (lexg2p, "train_g2p", "lexg2p.train_g2p", _graphone_facts),
    (lexg2p, "extend_lexicon", "lexg2p.extend_lexicon",
     lambda a, k, r: {"lexg2p.added": len(r[1].added), "lexg2p.failed": len(r[1].failed)}),
    (lexg2p, "apply_g2p", "lexg2p.apply_g2p", None),
)


def _instrument_pipeline(tracer) -> None:
    for owner, attr, name, observe in SPANS:
        tracer.span(owner, attr, name, observe)
    tracer.count(BackoffLM, "log_prob", "model.log_prob.calls")
    tracer.count(lexg2p.JointSequenceModel, "cond_log10", "lexg2p.cond_log10.calls")


class Workload:
    """Defaults shared by the workloads: one operation per rep, full
    instrumentation only in traced runs, artifacts compared across reps."""

    ops_per_rep = 1
    first_artifacts = None

    def instrument(self, tracer, full: bool) -> None:
        if full:
            _instrument_pipeline(tracer)

    def _same_artifacts(self, out_dir: Path) -> list[str]:
        artifacts = _manifest_artifacts(out_dir)
        if self.first_artifacts is None:
            self.first_artifacts = artifacts
        elif artifacts != self.first_artifacts:
            return ["artifact SHA-256s differ from the first repetition"]
        return []


class LmBuild(Workload):
    """The paper's recipe end to end on three Zipf corpora."""

    name = "lm_build"

    @staticmethod
    def setup(setup_dir: Path, seed: int, scale: inputs.Scale) -> dict:
        lm = inputs.write_lm_inputs(setup_dir, seed, scale)
        _write_config(setup_dir / "lm.cfg", lm["config"])
        return {**lm["sizes"], **_lm_sizes(setup_dir)}

    def __init__(self, setup_dir: Path, work: Path, seed: int, sizes: dict):
        self.config = setup_dir / "lm.cfg"
        self.work = work
        self.seed = seed
        self.items = sizes["train_tokens"]

    def rep(self, i: int, tracer) -> dict:
        out_dir = fresh_dir(self.work / f"rep{i}")
        cfg = pipeline.parse_config(self.config, [f"out_dir={out_dir}"])
        tracer.set_run(str(i))
        start = time.perf_counter()
        pipeline.run_lm_pipeline(cfg)
        wall = time.perf_counter() - start
        return {"wall": wall, "item_s": wall, "items": self.items, "out_dir": out_dir}

    def check(self, result: dict) -> list[str]:
        out_dir = result["out_dir"]
        first = self.first_artifacts is None
        failures = self._same_artifacts(out_dir)
        if first:
            failures += self._check_normalization(out_dir)
        lambdas = [float(line.split("\t")[1]) for line in
                   (out_dir / "weights.tsv").read_text(encoding="utf-8").splitlines()]
        if any(lam < 0.0 for lam in lambdas) or abs(sum(lambdas) - 1.0) > 1e-6:
            failures.append(f"EM weights off the simplex: {lambdas}")
        rows = (out_dir / "ppl_report.tsv").read_text(encoding="utf-8").splitlines()[1:]
        for row in rows:
            fields = row.split("\t")
            if not all(math.isfinite(float(v)) for v in fields[2:]):
                failures.append(f"non-finite ppl_report row: {row}")
        shutil.rmtree(out_dir)
        return failures

    def _check_normalization(self, out_dir: Path) -> list[str]:
        """A seeded sample of stored contexts per order must sum to 1."""
        failures = []
        rng = random.Random(self.seed)
        for model in ("lm.combined.arpa", "lm.pruned.arpa"):
            lm = arpa.read_arpa(out_dir / model)
            predicted = lm.vocab.predicted_words()
            contexts = [()]
            for k in range(1, lm.order):
                stored = sorted({g[:-1] for g in lm.tables.get(k + 1, {})})
                contexts += rng.sample(stored, min(CONTEXTS_PER_ORDER, len(stored)))
            for ctx in contexts:
                total = sum(10.0 ** lm.log_prob(w, ctx) for w in predicted)
                if abs(total - 1.0) > NORMALIZATION_TOL:
                    failures.append(f"{model}: context {ctx} sums to {total!r}")
        return failures


class Rescore(Workload):
    """N-best rescoring: the query side of the tables lm_build writes."""

    name = "rescore"

    @staticmethod
    def setup(setup_dir: Path, seed: int, scale: inputs.Scale) -> dict:
        lm = inputs.write_lm_inputs(setup_dir, seed, scale)
        _write_config(setup_dir / "lm.cfg", lm["config"] + [f"out_dir = {setup_dir / 'model'}"])
        pipeline.run_lm_pipeline(pipeline.parse_config(setup_dir / "lm.cfg"))
        sizes = {**lm["sizes"], **_lm_sizes(setup_dir)}
        report = (setup_dir / "model" / "prune_report.txt").read_text(encoding="utf-8")
        sizes["model_ngrams_per_order"] = {
            int(k): int(after) for k, _, _, after in
            (line.split("\t") for line in report.splitlines()[2:] if line[0].isdigit())
        }
        return {**sizes, **inputs.write_rescore_requests(setup_dir, seed, scale, lm)}

    def __init__(self, setup_dir: Path, work: Path, seed: int, sizes: dict):
        self.model = setup_dir / "model" / "lm.pruned.arpa"
        self.requests = [
            (ref, [(hyp, Corpus(id="hyp", sentences=(hyp,))) for hyp in hyps])
            for ref, hyps in inputs.read_requests(setup_dir / "requests.tsv")
        ]
        self.ops_per_rep = min(REQUESTS_PER_REP, len(self.requests))
        self.scores: dict[tuple, tuple] = {}
        self.latencies: list[float] = []

    def rep(self, i: int, tracer) -> dict:
        tracer.set_run(str(i))
        start = time.perf_counter()
        lm = arpa.read_arpa(self.model)
        load = time.perf_counter() - start
        first = i * self.ops_per_rep
        failures = []
        request_time = 0.0
        for r in range(first, first + self.ops_per_rep):
            ref, nbest = self.requests[r % len(self.requests)]
            tracer.set_run(f"{i}/{r}")
            t0 = time.perf_counter()
            results = [
                (evaluate.perplexity(lm, corpus, "as_unk"), scorer.align(ref, hyp))
                for hyp, corpus in nbest
            ]
            elapsed = time.perf_counter() - t0
            request_time += elapsed
            self.latencies.append(elapsed)
            failures += self._check_request(ref, nbest, results)
        return {"wall": load + request_time, "load": load, "item_s": request_time,
                "items": self.ops_per_rep, "failures": failures}

    def _check_request(self, ref, nbest, results) -> list[str]:
        failed = []
        for (hyp, _), (report, a) in zip(nbest, results):
            score = (report.log10_prob_sum, report.ppl)
            if not all(math.isfinite(v) for v in score):
                failed.append(f"non-finite score for {hyp}")
            if self.scores.setdefault(hyp, score) != score:
                failed.append(f"repeated hypothesis scored differently: {hyp}")
            if (a.hits + a.substitutions + a.deletions != len(ref)
                    or a.hits + a.substitutions + a.insertions != len(hyp)):
                failed.append(f"inconsistent alignment counts for {hyp}")
        # One failed request counts once, however many of its checks failed.
        return failed[:1]

    def check(self, result: dict) -> list[str]:
        return result["failures"]


class Lexicon(Workload):
    """Seed-lexicon G2P training and OOV extension; no n-gram LM work."""

    name = "lexicon"

    @staticmethod
    def setup(setup_dir: Path, seed: int, scale: inputs.Scale) -> dict:
        lex = inputs.write_lexicon_inputs(setup_dir, seed, scale)
        _write_config(setup_dir / "lex.cfg", lex["config"])
        cfg = pipeline.parse_config(setup_dir / "lex.cfg")
        seed_lex = lexg2p.load_lexicon(cfg.seed_lexicon)
        words = {w for _, path in cfg.corpora for w, _ in word_frequencies(load_corpus(path))}
        missing = sorted(words - seed_lex.words())
        return {**lex["sizes"], "corpus_words": len(words), "missing_words": len(missing)}

    def __init__(self, setup_dir: Path, work: Path, seed: int, sizes: dict):
        self.config = setup_dir / "lex.cfg"
        self.work = work
        self.items = sizes["missing_words"]
        cfg = pipeline.parse_config(self.config)
        self.seed_lexicon = lexg2p.load_lexicon(cfg.seed_lexicon)
        self.corpus_words = {w for _, path in cfg.corpora
                             for w, _ in word_frequencies(load_corpus(path))}

    def instrument(self, tracer, full: bool) -> None:
        if full:
            _instrument_pipeline(tracer)
        else:  # g2p training time splits wall_s into training and decoding
            tracer.span(lexg2p, "train_g2p", "lexg2p.train_g2p")

    def rep(self, i: int, tracer) -> dict:
        out_dir = fresh_dir(self.work / f"rep{i}")
        cfg = pipeline.parse_config(self.config, [f"out_dir={out_dir}"])
        tracer.set_run(str(i))
        before = len(tracer.spans)
        start = time.perf_counter()
        pipeline.run_lexicon_pipeline(cfg)
        wall = time.perf_counter() - start
        train = [s for s in tracer.spans[before:] if s[0] == "lexg2p.train_g2p"]
        train_s = train[0][2] - train[0][1]
        return {"wall": wall, "train": train_s, "item_s": wall - train_s,
                "items": self.items, "out_dir": out_dir}

    def check(self, result: dict) -> list[str]:
        out_dir = result["out_dir"]
        failures = self._same_artifacts(out_dir)
        model = json.loads((out_dir / "g2p_model.json").read_text(encoding="utf-8"))
        trace = model["log10_likelihood_trace"]
        if any(b < a for a, b in zip(trace, trace[1:])):
            failures.append(f"EM log-likelihood decreased: {trace}")
        extended = lexg2p.load_lexicon(out_dir / "training_lexicon.tsv")
        seed = self.seed_lexicon
        letters = {ch for w in seed.entries for ch in w}
        for word in sorted(self.corpus_words - seed.words()):
            prons = extended.entries.get(word, ())
            if any(p not in seed.inventory for pron in prons for p in pron):
                failures.append(f"{word}: pronunciation outside the seed inventory")
            if set(word) <= letters and not prons:
                failures.append(f"{word}: no pronunciation although every letter is seen")
        shutil.rmtree(out_dir)
        return failures


WORKLOADS = {w.name: w for w in (LmBuild, Rescore, Lexicon)}
