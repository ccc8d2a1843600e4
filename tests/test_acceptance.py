"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s`.
"""

import itertools
import math
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from asrlm.dialectmap import MappingTable
from asrlm.lexg2p import apply_g2p, make_lexicon, train_g2p
from asrlm.mixture import em_weights, interpolate_static
from asrlm.ngramcore import read_arpa, write_arpa
from asrlm.pipeline import PipelineConfig, mapped_lm_eval
from asrlm.pruner import prune_entropy
from asrlm.scorer import align, wer
from asrlm.textcorpus import BOS, EOS, UNK, Corpus, Vocabulary, build_vocabulary
from tests.conftest import corpus_of, random_corpus, train_on
from tests.reference import (
    BruteForceMKN,
    brute_edit_distance,
    context_probability_sums,
    exhaustive_g2p,
)
from tests.test_dialectmap import synthetic_dialect_setup
from tests.test_mixture import unigram_lm

ROOT = Path(__file__).resolve().parent.parent


def report(criterion: int, message: str) -> None:
    print(f"[acceptance] criterion {criterion:2d} PASS: {message}")


def test_criterion_01_smoothing_oracle_equivalence():
    started = time.perf_counter()
    rng = random.Random(1001)
    checked = 0
    for trial in range(100):
        order = 2 + trial % 3
        corpus = random_corpus(rng, max_sentences=50, max_vocab=30)
        vocab = build_vocabulary([corpus])
        lm = train_on(corpus, order, vocab)
        oracle = BruteForceMKN(
            [list(s) for s in corpus.sentences],
            order,
            [w for w in vocab.words if w not in (UNK, BOS, EOS)],
        )
        for k in range(1, order + 1):
            for gram, logp in lm.tables[k].items():
                if gram == (BOS,):
                    continue
                expected = math.log10(oracle.prob(gram[-1], gram[:-1]))
                assert abs(logp - expected) <= 1e-9, (order, gram)
                checked += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"oracle comparison took {elapsed:.1f}s"
    report(1, f"{checked} stored probabilities match the brute-force oracle "
              f"within 1e-9 over 100 corpora in {elapsed:.1f}s")


def _normalized(lm, tol=1e-6) -> int:
    contexts = 0
    for ctx, total in context_probability_sums(lm):
        assert abs(total - 1.0) <= tol, f"context {ctx} sums to {total}"
        contexts += 1
    return contexts


def test_criterion_02_normalization_suite():
    rng = random.Random(2002)
    models = []
    trained = []
    for trial in range(10):
        corpus = random_corpus(rng, max_sentences=25, max_vocab=12)
        lm = train_on(corpus, 2 + trial % 3)
        trained.append((corpus, lm))
        models.append(("trained", lm))
    for trial in range(5):
        c1 = random_corpus(rng, max_sentences=15, max_vocab=10, corpus_id="m1")
        c2 = random_corpus(rng, max_sentences=15, max_vocab=10, corpus_id="m2")
        vocab = build_vocabulary([c1, c2])
        order = 2 + trial % 2
        merged = interpolate_static(
            [train_on(c1, order, vocab), train_on(c2, order, vocab)],
            [0.4, 0.6],
        )
        models.append(("merged", merged))
    for (corpus, lm), theta in zip(trained[:5], (1e-4, 1e-3, 1e-2, 0.1, 1.0)):
        pruned, _ = prune_entropy(lm, theta)
        models.append(("pruned", pruned))
    assert len(models) >= 20
    total_contexts = 0
    for kind, lm in models:
        total_contexts += _normalized(lm)
    report(2, f"{len(models)} models ({total_contexts} contexts) normalize within 1e-6")


def test_criterion_03_arpa_round_trip(tmp_path):
    rng = random.Random(3003)
    count = 0
    for trial in range(8):
        corpus = random_corpus(rng, max_sentences=20, max_vocab=12)
        lm = train_on(corpus, 2 + trial % 3)
        if trial % 3 == 0:
            lm, _ = prune_entropy(lm, 1e-3)
        first = tmp_path / f"m{trial}.arpa"
        second = tmp_path / f"m{trial}.rt.arpa"
        write_arpa(lm, first)
        write_arpa(read_arpa(first), second)
        assert first.read_bytes() == second.read_bytes()
        count += 1
    report(3, f"write-read-write byte-identical on {count} models")


def test_criterion_04_em_interpolation():
    rng = random.Random(4004)
    for trial in range(50):
        n = 2 + trial % 3
        corpora = [
            random_corpus(rng, max_sentences=10, max_vocab=8, corpus_id=f"c{i}")
            for i in range(n)
        ]
        vocab = build_vocabulary(corpora)
        lms = [train_on(c, 2, vocab) for c in corpora]
        dev = random_corpus(rng, max_sentences=5, max_vocab=8, corpus_id="dev")
        previous = None
        for iters in range(1, 6):
            result = em_weights(lms, dev, tol=0.0, max_iter=iters)
            if previous is not None:
                assert result.dev_log10_likelihood >= previous - 1e-10
            previous = result.dev_log10_likelihood
    vocab = Vocabulary(["a", "b"])
    lm1 = unigram_lm({"a": 0.891, "b": 0.099, EOS: 0.005, UNK: 0.005}, vocab, "one")
    lm2 = unigram_lm({"a": 0.099, "b": 0.891, EOS: 0.005, UNK: 0.005}, vocab, "two")
    result = em_weights([lm1, lm2], corpus_of("a a a a b"), tol=1e-13, max_iter=1000)
    assert abs(result.lambdas[0] - 0.875) <= 1e-4
    assert abs(result.lambdas[1] - 0.125) <= 1e-4
    report(4, "dev likelihood monotone on 50 mixtures; closed-form case hits "
              f"lambda=({result.lambdas[0]:.6f}, {result.lambdas[1]:.6f})")


def test_criterion_05_pruning():
    rng = random.Random(5005)
    thetas = [0.0, 0.1, 1.0, math.inf]
    for trial in range(10):
        corpus = random_corpus(rng, max_sentences=25, max_vocab=10)
        lm = train_on(corpus, 2 + trial % 3)
        previous = None
        for theta in thetas:
            pruned, _ = prune_entropy(lm, theta)
            retained = {k: frozenset(t) for k, t in pruned.tables.items()}
            if previous is not None:
                for k in retained:
                    assert retained[k] <= previous[k], (theta, k)
            previous = retained
            _normalized(pruned)
            if theta == math.inf:
                for k in range(2, pruned.order + 1):
                    assert len(pruned.tables[k]) == 0
                assert pruned.tables[1].keys() == lm.tables[1].keys()
    report(5, "theta-monotone retained sets on 10 models; theta=inf leaves "
              "unigrams only; all pruned models renormalize")


def test_criterion_06_g2p():
    rng = random.Random(6006)
    # Identity lexicon: held-out words must transduce to themselves.
    letters = "abcdef"
    train_words = ["".join(p) for p in itertools.permutations(letters, 2)]
    held_out = ["ace", "bed", "fad", "cafe", "deaf"]
    identity = make_lexicon((w, tuple(w)) for w in train_words)
    model = train_g2p(identity, order=2, max_letters=1, max_phones=1, em_iters=4)
    trace = model.log10_likelihood_trace
    for a, b in zip(trace, trace[1:]):
        assert b >= a - 1e-9
    for word in held_out:
        assert apply_g2p(model, word, beam=200)[0][0] == tuple(word)
    # Beam equals exhaustive search on all short words, small random models.
    checked = 0
    for _ in range(3):
        pairs = []
        for _ in range(10):
            length = rng.randint(1, 5)
            word = "".join(rng.choice("abc") for _ in range(length))
            pron = tuple(rng.choice(("P", "Q")) for _ in range(max(1, length - 1)))
            pairs.append((word, pron))
        lexicon = make_lexicon(pairs)
        small = train_g2p(lexicon, order=2, max_phones=1, em_iters=3)
        assert len(small.graphones) <= 30
        for word in sorted({w for w in lexicon.entries if len(w) <= 5}):
            exact = exhaustive_g2p(small, word)
            beam_out = apply_g2p(small, word, beam=100000, n_best=1)
            if not exact:
                assert not beam_out
                continue
            assert beam_out[0][0] == exact[0][0]
            checked += 1
    report(6, f"identity held-out accuracy 100%; EM monotone; beam top-1 equals "
              f"exhaustive search on {checked} words")


def test_criterion_07_scoring_alignment():
    symbols = ("a", "b", "c")
    sequences = []
    for length in range(7):
        sequences.extend(itertools.product(symbols, repeat=length))
    assert len(sequences) == 1093
    started = time.perf_counter()
    pairs = 0
    for ref in sequences:
        for hyp in sequences:
            assert align(ref, hyp).errors == brute_edit_distance(ref, hyp)
            pairs += 1
    elapsed = time.perf_counter() - started
    # Aggregate WER is computed over counts, not a mean of per-utterance rates.
    refs = {"long": ("w",) * 10, "short": ("w",)}
    hyps = {"long": ("w",) * 10, "short": ("x",)}
    assert wer(refs, hyps).wer == pytest.approx(1 / 11)
    report(7, f"align cost equals brute force on {pairs} exhaustive pairs "
              f"({elapsed:.1f}s); aggregate-WER formula case passes")


def test_criterion_08_paper_arithmetic():
    from asrlm.scorer import relative_reduction

    first = relative_reduction(77.0, 42.9)
    assert round(first, 1) == 44.3
    assert 35 <= round(first) <= 44
    dev_gain = relative_reduction(36.8, 35.8)
    test_gain = relative_reduction(40.4, 38.9)
    assert round(dev_gain, 1) == 2.7
    assert round(test_gain, 1) == 3.7
    assert round(dev_gain) == 3
    assert round(test_gain) == 4
    report(8, f"relative reductions reproduce the published arithmetic: "
              f"{first:.1f}%, {dev_gain:.1f}%, {test_gain:.1f}%")


def test_criterion_09_dialect_pipeline_shape():
    train, dev, table = synthetic_dialect_setup()
    cfg = PipelineConfig(order=3)
    before, after = mapped_lm_eval(train, dev, table, cfg)
    assert after.ppl < before.ppl
    empty_before, empty_after = mapped_lm_eval(train, dev, MappingTable(pairs={}), cfg)
    assert empty_before == empty_after
    report(9, f"synthetic dialect mapping lowers dev PPL {before.ppl:.2f} -> "
              f"{after.ppl:.2f}; empty mapping yields bitwise-equal reports")


def test_criterion_10_end_to_end_determinism(tmp_path):
    started = time.perf_counter()
    outputs = []
    for run, hash_seed in (("one", "1"), ("two", "99")):
        out_dir = tmp_path / run
        proc = subprocess.run(
            [sys.executable, "-m", "asrlm", "pipeline", "run",
             "--config", "fixtures/pipeline.cfg", "--out-dir", str(out_dir)],
            cwd=ROOT,
            capture_output=True,
            text=True,
            env={"PYTHONHASHSEED": hash_seed, "PATH": "/usr/bin:/bin:/usr/local/bin",
                 "PYTHONPATH": str(ROOT / "src")},
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(out_dir)
    files_one = sorted(p.relative_to(outputs[0]) for p in outputs[0].rglob("*") if p.is_file())
    files_two = sorted(p.relative_to(outputs[1]) for p in outputs[1].rglob("*") if p.is_file())
    assert files_one == files_two and files_one
    for rel in files_one:
        assert (outputs[0] / rel).read_bytes() == (outputs[1] / rel).read_bytes(), rel
    elapsed = time.perf_counter() - started
    assert elapsed < 300.0
    report(10, f"two pipeline runs produced {len(files_one)} byte-identical "
               f"artifacts in {elapsed:.1f}s total")
