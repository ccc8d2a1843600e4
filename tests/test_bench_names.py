"""The benchmark traces the toolkit by replacing `owner.__dict__[attr]`, so a
renamed or inlined name breaks only traced benchmark runs. This checks every
name it instruments, reading `bench/workloads.py` without changing it."""

import importlib.util
import sys
from pathlib import Path

from asrlm.lexg2p import JointSequenceModel
from asrlm.ngramcore.model import BackoffLM

BENCH = Path(__file__).resolve().parent.parent / "bench"


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
