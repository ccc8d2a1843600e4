"""The benchmark traces the toolkit by replacing `owner.__dict__[attr]`, so a
renamed or inlined name breaks only traced benchmark runs. This checks every
name it instruments, reading `bench/workloads.py` without changing it, and
that the LM run reaches the training steps through those names."""

import dataclasses
import importlib.util
import sys
from collections import Counter
from pathlib import Path

from asrlm import pipeline
from asrlm.lexg2p import JointSequenceModel
from asrlm.ngramcore.model import BackoffLM

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"


def test_every_traced_name_is_an_attribute_of_its_owner(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))  # workloads.py imports its sibling `inputs`
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave bench/ as it is
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    names = [(owner, attr) for owner, attr, _, _ in workloads.SPANS]
    assert len(names) > 20
    names += [(BackoffLM, "log_prob"), (JointSequenceModel, "cond_log10")]
    missing = [f"{owner.__name__}.{attr}" for owner, attr in names if attr not in owner.__dict__]
    assert missing == []


def test_lm_run_trains_through_the_traced_pipeline_names(monkeypatch, tmp_path):
    """The LM run trains one model per corpus; the whole run trains only the
    mapped models on top, since the dialect `before` row is the LM run's."""
    calls = Counter()
    for name in ("count_ngrams", "estimate_discounts", "train_mkn"):
        def counted(*args, _name=name, _original=getattr(pipeline, name), **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)
        monkeypatch.setattr(pipeline, name, counted)
    monkeypatch.chdir(ROOT)
    config = pipeline.parse_config(ROOT / "fixtures" / "pipeline.cfg",
                                   [f"out_dir={tmp_path / 'out'}"])
    pipeline.run_lm_pipeline(config)
    per_corpus = len(config.corpora)
    assert per_corpus == 4
    assert calls == {"count_ngrams": per_corpus, "estimate_discounts": per_corpus,
                     "train_mkn": per_corpus}
    calls.clear()
    pipeline.run_pipeline(dataclasses.replace(config, out_dir=str(tmp_path / "all")))
    assert calls == {"count_ngrams": 2 * per_corpus, "estimate_discounts": 2 * per_corpus,
                     "train_mkn": 2 * per_corpus}
