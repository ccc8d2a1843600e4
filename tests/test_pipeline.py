import errno
import fcntl
import gc
import hashlib
import json
import os
import re
import signal
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from asrlm import mixture
from asrlm.cli import main
from asrlm.dialectmap import load_mapping
from asrlm.mixture import interpolate_static, perplexity_mixture
from asrlm.ngramcore import evaluate, perplexity, read_arpa, write_arpa
from asrlm.pipeline import (
    PipelineConfig,
    PipelineError,
    _train_and_score,
    parse_config,
    run_lexicon_pipeline,
    run_lm_pipeline,
    run_pipeline,
    train_lms,
)
from asrlm.textcorpus import build_vocabulary, concatenate, load_corpus

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def write_corpus(path: Path, text: str) -> str:
    path.write_text(text, encoding="utf-8")
    return str(path)


@pytest.fixture
def small_setup(tmp_path):
    c1 = write_corpus(tmp_path / "c1.txt", "a b a\nb c a\na a b\nc b\n")
    c2 = write_corpus(tmp_path / "c2.txt", "c c b\nb c\nc a c\nb b c\n")
    dev = write_corpus(tmp_path / "dev.txt", "a b c\nc b\n")
    return c1, c2, dev, tmp_path


def test_parse_config_file_and_overrides(tmp_path):
    cfg_file = tmp_path / "p.cfg"
    cfg_file.write_text(
        "# comment\nlanguage = xx\ncorpus.one = a.txt\ncorpus.two = b.txt\n"
        "dev = dev.txt\norder = 3\ntheta = 0.5\nlowercase = true\n",
        encoding="utf-8",
    )
    config = parse_config(cfg_file, overrides=["order=2", "seed=9"])
    assert config.language == "xx"
    assert config.corpora == (("one", "a.txt"), ("two", "b.txt"))
    assert config.order == 2
    assert config.theta == 0.5
    assert config.lowercase is True
    assert config.seed == 9


def test_parse_config_splits_lines_at_line_feed_only(tmp_path):
    cfg_file = tmp_path / "p.cfg"
    # U+2028 is a line break to str.splitlines, which would set the seed too.
    cfg_file.write_text("language = xx\norder = 3\u2028seed = 5\n", encoding="utf-8")
    with pytest.raises(ValueError, match="^" + re.escape(f"{cfg_file}:2: expected")):
        parse_config(cfg_file)
    cfg_file.write_bytes(b"# comment\r\nlanguage = xx\r\n\r\norder = 2\r\n")
    config = parse_config(cfg_file)
    assert (config.language, config.order) == ("xx", 2)


def test_parse_config_rejects_unknown_keys(tmp_path):
    cfg_file = tmp_path / "p.cfg"
    cfg_file.write_text("nonsense = 1\n", encoding="utf-8")
    with pytest.raises(ValueError, match="nonsense"):
        parse_config(cfg_file)


def test_config_validation_distinct_paths(small_setup):
    c1, c2, dev, tmp = small_setup
    config = PipelineConfig(corpora=(("a", c1), ("b", c1)), dev=dev, out_dir=str(tmp / "o"))
    with pytest.raises(ValueError, match="distinct"):
        config.validate()
    config = PipelineConfig(corpora=(("a", c1),), dev=str(tmp / "nope.txt"), out_dir=str(tmp / "o"))
    with pytest.raises(ValueError, match="cannot read"):
        config.validate()
    config = PipelineConfig(corpora=(("a", c1), ("a", c2)), dev=dev, out_dir=str(tmp / "o"))
    with pytest.raises(ValueError, match="^corpus ids must be distinct$"):
        config.validate()


@pytest.mark.parametrize("line, message", [
    ("order = abc", "order: expected an integer, got 'abc'"),
    ("theta = 1e-3x", "theta: expected a number, got '1e-3x'"),
    ("min_count =", "min_count: expected an integer, got ''"),
])
def test_parse_config_malformed_number_names_its_location(tmp_path, line, message):
    cfg_file = tmp_path / "p.cfg"
    cfg_file.write_text(f"language = xx\n{line}\n", encoding="utf-8")
    with pytest.raises(ValueError, match="^" + re.escape(f"{cfg_file}:2: {message}") + "$"):
        parse_config(cfg_file)
    override = line.replace(" ", "")
    with pytest.raises(ValueError, match="^" + re.escape(f"override {override!r}: {message}") + "$"):
        parse_config(None, [override])


def test_parse_config_empty_optional_number_is_none():
    config = parse_config(None, ["theta=", "max_size= "])
    assert (config.theta, config.max_size) == (None, None)


@pytest.mark.parametrize("key, value, message", [
    ("theta", "nan", "theta must be a number >= 0, got nan"),
    ("theta", "-1", "theta must be a number >= 0, got -1.0"),
    ("em_tol", "nan", "em_tol must be a number >= 0, got nan"),
    ("em_tol", "-1", "em_tol must be a number >= 0, got -1.0"),
    ("em_max_iter", "0", "em_max_iter must be an integer >= 1, got 0"),
    ("em_max_iter", "-5", "em_max_iter must be an integer >= 1, got -5"),
    ("g2p_beam", "0", "g2p_beam must be an integer >= 1, got 0"),
    ("g2p_order", "0", "g2p_order must be an integer >= 1, got 0"),
    ("g2p_max_letters", "0", "g2p_max_letters must be an integer >= 1, got 0"),
    ("g2p_max_phones", "0", "g2p_max_phones must be an integer >= 1, got 0"),
    ("g2p_em_iters", "-1", "g2p_em_iters must be an integer >= 0, got -1"),
    ("oov_policy", "asunk", "oov_policy must be one of exclude, as_unk, got 'asunk'"),
    ("hyps", "", "refs and hyps must be given together"),
    ("corpus.x", "", "corpus.x: cannot read ''"),
    ("corpus.combined", "fixtures/phonemes.txt",
     "corpus id 'combined' is taken: the pipeline names its own models combined, pruned, mixture"),
    ("corpus.pruned", "fixtures/phonemes.txt",
     "corpus id 'pruned' is taken: the pipeline names its own models combined, pruned, mixture"),
    ("corpus.mixture", "fixtures/phonemes.txt",
     "corpus id 'mixture' is taken: the pipeline names its own models combined, pruned, mixture"),
    ("corpus.a/b", "fixtures/phonemes.txt", "corpus id 'a/b' must hold no '/' or whitespace"),
    ("corpus.a\tb", "fixtures/phonemes.txt", "corpus id 'a\\tb' must hold no '/' or whitespace"),
    ("corpus.a b", "fixtures/phonemes.txt", "corpus id 'a b' must hold no '/' or whitespace"),
    ("min_count", "0", "min_count must be an integer >= 1, got 0"),
    ("max_size", "2", "max_size must be an integer >= 3 to hold the reserved markers, got 2"),
])
def test_config_validation_refuses_bad_parameters_before_any_stage(
        monkeypatch, tmp_path, capsys, key, value, message):
    monkeypatch.chdir(FIXTURES.parent)
    out = tmp_path / "out"
    argv = ["pipeline", "run", "--config", str(FIXTURES / "pipeline.cfg"),
            "--set", f"{key}={value}", "--set", f"out_dir={out}"]
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_pipeline_run_refuses_an_empty_out_dir(monkeypatch, tmp_path, capsys):
    monkeypatch.chdir(FIXTURES.parent)
    argv = ["pipeline", "run", "--config", str(FIXTURES / "pipeline.cfg"), "--set", "out_dir="]
    assert main(argv) == 1
    assert capsys.readouterr().err == "error: out_dir is required\n"


@pytest.mark.parametrize("out_dir", ["", None])
def test_library_run_refuses_an_empty_out_dir_and_creates_nothing(
        monkeypatch, small_setup, out_dir):
    c1, _, dev, tmp = small_setup
    monkeypatch.chdir(tmp)
    before = sorted(tmp.iterdir())
    config = PipelineConfig(corpora=(("a", c1),), dev=dev, out_dir=out_dir)
    with pytest.raises(ValueError, match="^out_dir is required$"):
        run_lm_pipeline(config)
    assert sorted(tmp.iterdir()) == before


def test_single_corpus_combined_equals_component(small_setup):
    c1, _, dev, tmp = small_setup
    config = PipelineConfig(
        corpora=(("solo", c1),), dev=dev, order=3, out_dir=str(tmp / "out")
    )
    artifacts = run_lm_pipeline(config)
    solo = (tmp / "out" / "lm.solo.arpa").read_bytes()
    combined = (tmp / "out" / "lm.combined.arpa").read_bytes()
    assert solo == combined
    assert (tmp / "out" / "weights.tsv").read_text(encoding="utf-8") == "solo\t1.0\n"


def test_pipeline_artifacts_and_manifest(small_setup):
    c1, c2, dev, tmp = small_setup
    config = PipelineConfig(
        corpora=(("first", c1), ("second", c2)),
        dev=dev,
        order=2,
        theta=1e-3,
        out_dir=str(tmp / "out"),
    )
    artifacts = run_lm_pipeline(config)
    expected = {
        "vocab.txt", "lm.first.arpa", "lm.second.arpa", "weights.tsv",
        "lm.combined.arpa", "lm.pruned.arpa", "prune_report.txt",
        "ppl_report.tsv", "oov_report.tsv", "manifest.json",
    }
    assert expected <= set(artifacts)
    manifest = json.loads((tmp / "out" / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["status"] == "ok"
    assert set(manifest["inputs"]) == {"corpus.first", "corpus.second", "dev"}
    for name, digest in manifest["artifacts"].items():
        assert len(digest) == 64
    # The combined model is a valid ARPA file of the right order.
    lm = read_arpa(tmp / "out" / "lm.combined.arpa")
    assert lm.order == 2
    # The pruned model is no larger than the combined one.
    pruned = read_arpa(tmp / "out" / "lm.pruned.arpa")
    assert pruned.total_ngrams() <= lm.total_ngrams()
    # Weights are simplex-valid.
    lines = (tmp / "out" / "weights.tsv").read_text(encoding="utf-8").splitlines()
    lambdas = [float(l.split("\t")[1]) for l in lines]
    assert all(l >= 0 for l in lambdas)
    assert sum(lambdas) == pytest.approx(1.0, abs=1e-9)


def test_pipeline_rerun_is_byte_identical(small_setup):
    c1, c2, dev, tmp = small_setup
    base = dict(corpora=(("first", c1), ("second", c2)), dev=dev, order=2, theta=1e-3)
    run_lm_pipeline(PipelineConfig(out_dir=str(tmp / "o1"), **base))
    run_lm_pipeline(PipelineConfig(out_dir=str(tmp / "o2"), **base))
    names = sorted(p.name for p in (tmp / "o1").iterdir())
    assert names == sorted(p.name for p in (tmp / "o2").iterdir())
    for name in names:
        assert (tmp / "o1" / name).read_bytes() == (tmp / "o2" / name).read_bytes(), name


def test_pipeline_stage_failure_reported(small_setup, tmp_path):
    c1, _, dev, tmp = small_setup
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"\xff\xfe broken\n")
    config = PipelineConfig(
        corpora=(("bad", str(bad)),), dev=dev, out_dir=str(tmp / "out-bad")
    )
    with pytest.raises(PipelineError, match="load"):
        run_lm_pipeline(config)
    manifest = json.loads((tmp / "out-bad" / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["status"] == "failed"
    assert manifest["failed_stage"] == "load"


def hold_lock(directory: Path) -> int:
    """A new descriptor of `directory` that holds the lock a run takes on it."""
    fd = os.open(directory, os.O_RDONLY)
    fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
    return fd


def lock_is_free(directory: Path) -> bool:
    """True when a run could take the lock on `directory` now."""
    try:
        os.close(hold_lock(directory))
    except BlockingIOError:
        return False
    return True


# A child that takes the lock on argv[1], says so, and holds it until its
# stdin closes.
HOLD_LOCK = """
import fcntl, os, sys
fcntl.flock(os.open(sys.argv[1], os.O_RDONLY), fcntl.LOCK_EX)
print("held", flush=True)
sys.stdin.read()
"""


def test_pipeline_lock_prevents_concurrent_runs(small_setup):
    c1, _, dev, tmp = small_setup
    out = tmp / "locked"
    out.mkdir()
    config = PipelineConfig(corpora=(("a", c1),), dev=dev, out_dir=str(out))
    # Leaving the `with` closes the holder's stdin and waits for it to exit.
    with subprocess.Popen([sys.executable, "-c", HOLD_LOCK, str(out)], text=True,
                          stdin=subprocess.PIPE, stdout=subprocess.PIPE) as holder:
        assert holder.stdout.readline() == "held\n"
        with pytest.raises(PipelineError, match="lock") as err:
            run_lm_pipeline(config)
        assert err.value.stage == "lock"
        assert list(out.iterdir()) == []
    assert holder.returncode == 0
    run_lm_pipeline(config)
    assert json.loads((out / "manifest.json").read_text(encoding="utf-8"))["status"] == "ok"


def _reaped_child_pid() -> int:
    child = subprocess.Popen([sys.executable, "-c", "pass"])
    child.wait()
    return child.pid


def test_pipeline_takes_over_lock_of_dead_process(small_setup):
    c1, _, dev, tmp = small_setup
    out = tmp / "stale"
    out.mkdir()
    kill_holder = HOLD_LOCK + "import signal\nos.kill(os.getpid(), signal.SIGKILL)\n"
    killed = subprocess.run([sys.executable, "-c", kill_holder, str(out)], input="",
                            capture_output=True, text=True, timeout=60)
    assert killed.returncode == -signal.SIGKILL and killed.stdout == "held\n"
    # An older version's lock file, naming a live process, is inert.
    (out / ".lock").write_text(str(os.getpid()), encoding="utf-8")
    run_lm_pipeline(PipelineConfig(corpora=(("a", c1),), dev=dev, out_dir=str(out)))
    assert json.loads((out / "manifest.json").read_text(encoding="utf-8"))["status"] == "ok"
    assert (out / ".lock").read_text(encoding="utf-8") == str(os.getpid())
    assert lock_is_free(out)


def test_pipeline_lock_of_live_process_blocks(small_setup):
    c1, _, dev, tmp = small_setup
    out = tmp / "live"
    out.mkdir()
    fd = hold_lock(out)  # a flock belongs to a descriptor: this one is the other run
    try:
        with pytest.raises(PipelineError, match="lock"):
            run_lm_pipeline(PipelineConfig(corpora=(("a", c1),), dev=dev, out_dir=str(out)))
        assert not lock_is_free(out)
        assert list(out.iterdir()) == []
    finally:
        os.close(fd)
    assert lock_is_free(out)


@pytest.mark.parametrize("runner", [run_lexicon_pipeline, run_pipeline])
def test_lexicon_and_dialect_pipelines_refuse_held_lock(tmp_path, monkeypatch, runner):
    monkeypatch.chdir(FIXTURES.parent)
    fd = hold_lock(tmp_path)
    try:
        with pytest.raises(PipelineError, match="lock"):
            runner(parse_config(FIXTURES / "pipeline.cfg", [f"out_dir={tmp_path}"]))
    finally:
        os.close(fd)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("runner, key, stage, first_artifact", [
    (run_lexicon_pipeline, "word_list", "lexicon-load", "g2p_model.json"),
    (run_lexicon_pipeline, "medical_lexicon", "lexicon-load", "g2p_model.json"),
    (run_pipeline, "refs", "dialect-load", "vocab.txt"),
    (run_pipeline, "hyps", "dialect-load", "vocab.txt"),
])
def test_invalid_input_fails_in_first_stage(tmp_path, monkeypatch, runner, key, stage,
                                            first_artifact):
    """Each run reads all of its inputs before it trains or writes anything."""
    monkeypatch.chdir(FIXTURES.parent)
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"ok\nx\xffy\n")
    out = tmp_path / "out"
    with pytest.raises(PipelineError, match=f"{bad}:2: invalid UTF-8") as err:
        runner(parse_config(FIXTURES / "pipeline.cfg", [f"out_dir={out}", f"{key}={bad}"]))
    assert err.value.stage == stage
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert (manifest["status"], manifest["failed_stage"]) == ("failed", stage)
    assert not (out / first_artifact).exists()


def test_no_lock_or_temp_file_remains_after_runs(small_setup, tmp_path):
    c1, _, dev, tmp = small_setup
    ok = tmp / "ok"
    run_lm_pipeline(PipelineConfig(corpora=(("a", c1),), dev=dev, theta=1e-3, out_dir=str(ok)))
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"\xff\xfe broken\n")
    failed = tmp / "failed"
    with pytest.raises(PipelineError, match="load"):
        run_lm_pipeline(PipelineConfig(corpora=(("bad", str(bad)),), dev=dev,
                                       out_dir=str(failed)))
    for out in (ok, failed):
        hidden = [p.name for p in out.iterdir() if p.name.startswith(".")]
        assert hidden == [], out
        assert lock_is_free(out)


def test_run_removes_temp_files_of_dead_processes_only(small_setup):
    # A run killed inside write_text_atomic leaves `.NAME.PID.tmp` behind.
    c1, _, dev, tmp = small_setup
    out = tmp / "leftovers"
    (out / "lexicon").mkdir(parents=True)
    dead_pid = _reaped_child_pid()
    dead = [out / f".weights.tsv.{dead_pid}.tmp", out / "lexicon" / f".g2p_model.json.{dead_pid}.tmp"]
    # A negative field would probe a process group; neither it nor a
    # non-decimal one is a PID, so both stay.
    kept = [out / f".weights.tsv.{os.getppid()}.tmp",
            out / "lexicon" / f".g2p_model.json.{os.getppid()}.tmp",
            out / ".a.-5.tmp", out / ".a.x.tmp"]
    for path in dead + kept:
        path.write_text("partial", encoding="utf-8")
    run_lm_pipeline(PipelineConfig(corpora=(("a", c1),), dev=dev, out_dir=str(out)))
    assert not any(path.exists() for path in dead)
    assert all(path.read_text(encoding="utf-8") == "partial" for path in kept)


# A child run that SIGKILLs itself when the prune stage starts: the replaced
# `prune_entropy` is the only change, with no hook in the package.
KILLED_IN_PRUNE = """
import os, signal, sys
from asrlm import pipeline

pipeline.prune_entropy = lambda *args, **kwargs: os.kill(os.getpid(), signal.SIGKILL)
c1, c2, dev, out_dir = sys.argv[1:]
pipeline.run_lm_pipeline(pipeline.PipelineConfig(
    corpora=(("first", c1), ("second", c2)), dev=dev, order=2, theta=1e-3, out_dir=out_dir))
"""


def test_killed_run_leaves_a_running_manifest_and_a_lock_the_next_run_takes_over(small_setup):
    """The kernel drops a killed run's lock, so the next run goes ahead."""
    c1, c2, dev, tmp = small_setup
    out = tmp / "killed"
    base = dict(corpora=(("first", c1), ("second", c2)), dev=dev, theta=1e-3, out_dir=str(out))
    run_lm_pipeline(PipelineConfig(order=3, **base))
    child = subprocess.Popen([sys.executable, "-c", KILLED_IN_PRUNE, c1, c2, dev, str(out)],
                             env={"PYTHONPATH": str(FIXTURES.parent / "src")})
    assert child.wait(timeout=120) == -signal.SIGKILL
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["status"] == "running"
    assert manifest["parameters"]["order"] == 2 and manifest["artifacts"] == {}
    assert lock_is_free(out)

    run_lm_pipeline(PipelineConfig(order=2, **base))
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["status"] == "ok" and manifest["parameters"]["order"] == 2
    assert [p.name for p in out.iterdir() if p.name.startswith(".")] == []


def _tree(root: Path) -> dict[str, bytes]:
    """The bytes of every file under `root`, by path relative to `root`."""
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in root.rglob("*") if p.is_file()}


def test_each_failed_artifact_write_leaves_a_consistent_out_dir(tmp_path, monkeypatch):
    """Make the N-th `os.replace` of a fixture run raise, for every N. Order 2
    and a G2P beam of 10 keep every write of the fixture run at a third of
    its cost."""
    monkeypatch.chdir(FIXTURES.parent)
    real_replace = os.replace
    calls = fail_at = 0

    def replace(src, dst):
        nonlocal calls
        calls += 1
        if calls == fail_at:
            raise OSError(errno.EIO, "injected write failure", str(dst))
        real_replace(src, dst)

    def run(out: Path, fail: int = 0):
        nonlocal calls, fail_at
        calls, fail_at = 0, fail
        enabled = gc.isenabled()
        try:
            run_pipeline(parse_config(FIXTURES / "pipeline.cfg",
                                      [f"out_dir={out}", "order=2", "g2p_beam=10"]))
        finally:
            # The run pauses the cyclic collector; every way out restores its state.
            assert gc.isenabled() == enabled, fail

    monkeypatch.setattr(os, "replace", replace)
    assert gc.isenabled()
    run(tmp_path / "reference")
    reference = _tree(tmp_path / "reference")
    stages = json.loads(reference["manifest.json"])["stages"]
    writes = calls
    assert writes == len(reference) + 1  # every artifact, then the `running` and `ok` manifests
    for n in range(1, writes + 1):
        out = tmp_path / str(n)
        if n == 1:
            # The `running` manifest fails before any stage opens: the error
            # surfaces as it is, and the run leaves no file at all.
            with pytest.raises(OSError, match="injected"):
                run(out, n)
            assert list(out.iterdir()) == []
        else:
            with pytest.raises(PipelineError, match="injected") as err:
                run(out, n)
            left = _tree(out)
            manifest = json.loads(left.pop("manifest.json"))
            assert manifest["status"] == "failed", n
            assert manifest["failed_stage"] == err.value.stage in stages, n
            assert manifest["failed_stage"] not in manifest["stages"], n
            assert manifest["stages"] == stages[:len(manifest["stages"])], n
            assert sorted(manifest["artifacts"]) == sorted(left), n
            assert not [name for name in left if name.rpartition("/")[2].startswith(".")], n
            assert all(data == reference[name] for name, data in left.items()), n
        assert lock_is_free(out), n
        run(out)
        assert calls == writes and _tree(out) == reference, n
    gc.disable()
    try:
        run(tmp_path / "collector-off")
    finally:
        gc.enable()
    assert _tree(tmp_path / "collector-off") == reference


def test_a_run_makes_no_cycles_that_grow_with_its_input(tmp_path, monkeypatch):
    """A run pauses the cyclic collector, so a cycle per n-gram, graphone or
    lexicon entry would pile up until the run ends. The run's cycles are the
    same few at either size; `gc.collect` returns how many objects it found
    unreachable."""
    monkeypatch.chdir(FIXTURES.parent)
    found = {}
    gc.disable()
    try:
        for order in (2, 4):
            gc.collect()
            run_pipeline(parse_config(FIXTURES / "pipeline.cfg", [
                f"out_dir={tmp_path / str(order)}", f"order={order}", f"g2p_order={order - 1}"]))
            found[order] = gc.collect()
    finally:
        gc.enable()
    assert found[2] == found[4], found


def test_cli_lm_train_and_ppl(small_setup, capsys):
    c1, _, dev, tmp = small_setup
    arpa = str(tmp / "m.arpa")
    assert main(["lm", "train", "--corpus", c1, "--order", "2", "--out", arpa]) == 0
    assert main(["lm", "ppl", "--lm", arpa, "--corpus", dev]) == 0
    out = capsys.readouterr().out
    assert "ppl=" in out
    # A command pauses the cyclic collector; its exit restores the state.
    assert gc.isenabled()
    assert main(["lm", "ppl", "--lm", str(tmp / "missing.arpa"), "--corpus", dev]) == 1
    assert capsys.readouterr().err.startswith("error:")
    assert gc.isenabled()
    gc.disable()
    try:
        assert main(["lm", "ppl", "--lm", arpa, "--corpus", dev]) == 0
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_cli_score_wer(tmp_path, capsys):
    ref = tmp_path / "ref.tsv"
    hyp = tmp_path / "hyp.tsv"
    ref.write_text("u1\tthe cat sat\n", encoding="utf-8")
    hyp.write_text("u1\tthe cat\n", encoding="utf-8")
    assert main(["score", "wer", "--ref", str(ref), "--hyp", str(hyp)]) == 0
    out = capsys.readouterr().out
    assert "TOTAL\t0\t1\t0\t3\t33.33" in out


def test_cli_score_wer_names_file_and_line_of_invalid_utf8(tmp_path, capsys):
    ref = tmp_path / "ref.tsv"
    hyp = tmp_path / "hyp.tsv"
    ref.write_text("u1\tthe cat\nu2\tsat\n", encoding="utf-8")
    hyp.write_bytes(b"u1\tthe cat\nu2\tsa\xfft\n")
    assert main(["score", "wer", "--ref", str(ref), "--hyp", str(hyp)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {hyp}:2: invalid UTF-8")


def test_cli_score_cer(tmp_path, capsys):
    ref = tmp_path / "ref.tsv"
    hyp = tmp_path / "hyp.tsv"
    ref.write_text("u1\tab cd\n", encoding="utf-8")
    hyp.write_text("u1\tabcd\n", encoding="utf-8")
    assert main(["score", "cer", "--ref", str(ref), "--hyp", str(hyp)]) == 0
    assert "0.00" in capsys.readouterr().out


def test_cli_error_exit_code(tmp_path, capsys):
    missing = str(tmp_path / "missing.arpa")
    assert main(["lm", "ppl", "--lm", missing, "--corpus", missing]) == 1
    assert "error" in capsys.readouterr().err


def test_cli_prune_refuses_nan_theta(small_setup, capsys):
    c1, _, _, tmp = small_setup
    arpa = str(tmp / "m.arpa")
    out = tmp / "pruned.arpa"
    assert main(["lm", "train", "--corpus", c1, "--order", "2", "--out", arpa]) == 0
    capsys.readouterr()
    assert main(["prune", "--lm", arpa, "--theta", "nan", "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: pruning threshold must be a number, got nan\n"
    assert not out.exists()


def test_cli_mix_em_refuses_zero_iterations(small_setup, capsys):
    c1, c2, dev, tmp = small_setup
    models = [str(tmp / "one.arpa"), str(tmp / "two.arpa")]
    for corpus, model in zip((c1, c2), models):
        assert main(["lm", "train", "--corpus", corpus, "--order", "2", "--out", model]) == 0
    capsys.readouterr()
    weights = tmp / "weights.tsv"
    argv = ["mix", "em", "--lms", *models, "--dev", dev, "--out", str(weights), "--max-iter", "0"]
    assert main(argv) == 1
    assert capsys.readouterr().err == "error: max_iter must be >= 1, got 0\n"
    assert not weights.exists()


def test_cli_corpus_stats(small_setup, capsys):
    c1, _, _, _ = small_setup
    assert main(["corpus", "stats", c1, "--top", "2"]) == 0
    assert capsys.readouterr().out == f"{c1}\tsentences=4\ttokens=11\ttypes=3\n  a\t5\n  b\t4\n"


def test_cli_lm_count(small_setup, capsys):
    c1, _, _, tmp = small_setup
    out = tmp / "counts.tsv"
    assert main(["lm", "count", "--corpus", c1, "--order", "2", "--out", str(out)]) == 0
    assert capsys.readouterr().out == f"wrote counts for orders 1..2 to {out}\n"
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[:4] == ["1\t</s>\t4", "1\ta\t5", "1\tb\t4", "1\tc\t2"]
    assert "2\t<s> a\t2" in lines and len(lines) == 15


def test_cli_lm_oov(small_setup, capsys):
    c1, _, _, tmp = small_setup
    arpa = str(tmp / "m.arpa")
    assert main(["lm", "train", "--corpus", c1, "--order", "2", "--out", arpa]) == 0
    odd = write_corpus(tmp / "odd.txt", "a z\n")
    capsys.readouterr()
    assert main(["lm", "oov", "--corpus", odd, "--lm", arpa]) == 0
    assert capsys.readouterr().out == "oov_rate=0.500000 (50.0000%)\n"


@pytest.mark.parametrize("components", [1, 2])
def test_cli_mix_em_writes_weights(small_setup, capsys, components):
    c1, c2, dev, tmp = small_setup
    models = [str(tmp / "one.arpa"), str(tmp / "two.arpa")][:components]
    for corpus, model in zip((c1, c2), models):
        assert main(["lm", "train", "--corpus", corpus, "--order", "2", "--out", model]) == 0
    capsys.readouterr()
    weights = tmp / "weights.tsv"
    assert main(["mix", "em", "--lms", *models, "--dev", dev, "--out", str(weights)]) == 0
    assert capsys.readouterr().out.startswith("dev log10-likelihood -")
    lines = weights.read_text(encoding="utf-8").splitlines()
    assert [line.split("\t")[0] for line in lines] == models
    if components == 1:
        assert lines == [f"{models[0]}\t1.0"]


def test_cli_prune_writes_model_and_report(small_setup, capsys):
    c1, _, _, tmp = small_setup
    arpa = str(tmp / "m.arpa")
    assert main(["lm", "train", "--corpus", c1, "--order", "2", "--out", arpa]) == 0
    out, report = tmp / "pruned.arpa", tmp / "report.txt"
    capsys.readouterr()
    argv = ["prune", "--lm", arpa, "--theta", "1e-2", "--out", str(out), "--report", str(report)]
    assert main(argv) == 0
    text = capsys.readouterr().out
    assert text == report.read_text(encoding="utf-8")
    assert "total\t17\t5\t12\n" in text
    assert read_arpa(out).size_by_order() == {1: 6, 2: 6}


def test_cli_lexicon_merge(tmp_path, capsys):
    base, addon, out = tmp_path / "base.tsv", tmp_path / "addon.tsv", tmp_path / "merged.tsv"
    base.write_text("ab\ta b\nba\tb a\n", encoding="utf-8")
    addon.write_text("ba\tb b a\nbb\tb b\n", encoding="utf-8")
    argv = ["lexicon", "merge", "--base", str(base), "--addon", str(addon), "--out", str(out)]
    assert main(argv) == 0
    assert capsys.readouterr().out == f"base=2 addon=2 merged=3 -> {out}\n"
    assert out.read_text(encoding="utf-8") == "ab\ta b\nba\tb a\nba\tb b a\nbb\tb b\n"


def test_cli_dialect_candidates_apply_and_eval(small_setup, capsys):
    c1, c2, dev, tmp = small_setup
    mapping = tmp / "map.tsv"
    mapping.write_text("a\tx\n", encoding="utf-8")
    assert main(["dialect", "candidates", "--corpus", c2, "-k", "2"]) == 0
    assert capsys.readouterr().out == "c\t6\nb\t4\n"

    out = tmp / "mapped.txt"
    argv = ["dialect", "apply", "--corpus", c1, "--mapping", str(mapping), "--out", str(out)]
    assert main(argv) == 0
    assert capsys.readouterr().out == f"mapped 5 tokens -> {out}\n"
    assert out.read_text(encoding="utf-8") == "x b x\nb c x\nx x b\nc b\n"

    argv = ["dialect", "eval", "--train", c1, c2, "--dev", dev, "--mapping", str(mapping),
            "--order", "2"]
    assert main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split("\t")[0] for line in lines] == ["before", "after"]
    assert all("sentences=2 scored_tokens=7 oov_tokens=0" in line for line in lines)


def test_cli_dialect_eval_no_interpolate_trains_one_lm_on_the_concatenated_corpora(
        small_setup, capsys):
    c1, c2, dev, tmp = small_setup
    mapping = tmp / "map.tsv"
    mapping.write_text("a\tx\n", encoding="utf-8")
    argv = ["dialect", "eval", "--train", c1, c2, "--dev", dev, "--mapping", str(mapping),
            "--order", "2", "--no-interpolate"]
    assert main(argv) == 0
    before = capsys.readouterr().out.splitlines()[0]
    everything = concatenate("all", [load_corpus(c1), load_corpus(c2)])
    [lm] = train_lms([everything], build_vocabulary([everything]), 2)
    assert before == f"before\t{perplexity(lm, load_corpus(dev)).format()}"


def test_cli_dialect_and_g2p_round_trip(tmp_path, capsys):
    lex = tmp_path / "lex.tsv"
    lex.write_text("ab\ta b\nba\tb a\naa\ta a\n", encoding="utf-8")
    model = str(tmp_path / "g2p.json")
    assert main([
        "g2p", "train", "--lexicon", str(lex), "--order", "2",
        "--max-letters", "1", "--max-phones", "1", "--em-iters", "3",
        "--out", model,
    ]) == 0
    words = tmp_path / "words.txt"
    words.write_text("bb\n", encoding="utf-8")
    assert main(["g2p", "apply", "--model", model, "--words", str(words)]) == 0
    out = capsys.readouterr().out
    assert "bb\tb b" in out
    extended = str(tmp_path / "ext.tsv")
    assert main([
        "lexicon", "extend", "--lexicon", str(lex), "--model", model,
        "--words", str(words), "--out", extended,
    ]) == 0
    assert "bb\tb b" in Path(extended).read_text(encoding="utf-8")


def test_cli_g2p_train_refuses_negative_em_iterations(tmp_path, capsys):
    out = tmp_path / "m.json"
    argv = ["g2p", "train", "--lexicon", str(FIXTURES / "seed_lexicon.tsv"),
            "--em-iters", "-2", "--out", str(out)]
    assert main(argv) == 1
    assert capsys.readouterr().err == "error: em_iters must be >= 0, got -2\n"
    assert not out.exists()


def test_cli_g2p_apply_refuses_zero_beam(tmp_path, capsys):
    lex = tmp_path / "lex.tsv"
    lex.write_text("ab\ta b\nba\tb a\n", encoding="utf-8")
    model = str(tmp_path / "g2p.json")
    assert main(["g2p", "train", "--lexicon", str(lex), "--order", "2", "--max-letters", "1",
                 "--max-phones", "1", "--em-iters", "1", "--out", model]) == 0
    words = tmp_path / "words.txt"
    words.write_text("ab\n", encoding="utf-8")
    capsys.readouterr()
    assert main(["g2p", "apply", "--model", model, "--words", str(words), "--beam", "0"]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: beam must be >= 1\n")


@pytest.mark.parametrize("command", ["g2p apply", "lexicon extend"])
def test_cli_g2p_refuses_zero_n_best(tmp_path, capsys, command):
    lex = tmp_path / "lex.tsv"
    lex.write_text("ab\ta b\nba\tb a\n", encoding="utf-8")
    model = str(tmp_path / "g2p.json")
    assert main(["g2p", "train", "--lexicon", str(lex), "--order", "2", "--max-letters", "1",
                 "--max-phones", "1", "--em-iters", "1", "--out", model]) == 0
    words = tmp_path / "words.txt"
    words.write_text("bb\n", encoding="utf-8")
    out = tmp_path / "ext.tsv"
    argv = {"g2p apply": ["g2p", "apply", "--model", model, "--words", str(words)],
            "lexicon extend": ["lexicon", "extend", "--lexicon", str(lex), "--model", model,
                               "--words", str(words), "--out", str(out)]}[command]
    capsys.readouterr()
    assert main(argv + ["--n-best", "0"]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: n_best must be >= 1\n")
    assert not out.exists()


@pytest.mark.parametrize("flag, message", [("--beam", "beam"), ("--n-best", "n_best")])
def test_cli_g2p_apply_refuses_bad_search_without_words(tmp_path, capsys, flag, message):
    lex = tmp_path / "lex.tsv"
    lex.write_text("ab\ta b\nba\tb a\n", encoding="utf-8")
    model = str(tmp_path / "g2p.json")
    assert main(["g2p", "train", "--lexicon", str(lex), "--order", "2", "--max-letters", "1",
                 "--max-phones", "1", "--em-iters", "1", "--out", model]) == 0
    words = tmp_path / "words.txt"
    words.write_text("", encoding="utf-8")
    capsys.readouterr()
    assert main(["g2p", "apply", "--model", model, "--words", str(words), flag, "0"]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {message} must be >= 1\n")


def test_cli_lexicon_extend_refuses_zero_n_best_when_every_word_is_known(tmp_path, capsys):
    lex = tmp_path / "lex.tsv"
    lex.write_text("ab\ta b\nba\tb a\n", encoding="utf-8")
    model = str(tmp_path / "g2p.json")
    assert main(["g2p", "train", "--lexicon", str(lex), "--order", "2", "--max-letters", "1",
                 "--max-phones", "1", "--em-iters", "1", "--out", model]) == 0
    words = tmp_path / "words.txt"
    words.write_text("ab\nba\n", encoding="utf-8")
    out = tmp_path / "ext.tsv"
    argv = ["lexicon", "extend", "--lexicon", str(lex), "--model", model, "--words", str(words),
            "--out", str(out)]
    for flag, message in (("--n-best", "n_best"), ("--beam", "beam")):
        capsys.readouterr()
        assert main(argv + [flag, "0"]) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: {message} must be >= 1\n")
        assert not out.exists()


def test_cli_fixture_pipeline_smoke(tmp_path):
    out = str(tmp_path / "out")
    code = main([
        "pipeline", "run", "--config", str(FIXTURES / "pipeline.cfg"),
        "--set", f"corpus.news={FIXTURES / 'news.txt'}",
        "--out-dir", out,
    ])
    # corpus.news override duplicates the id from the config file.
    assert code == 1


def test_cli_pipeline_run_lists_paths_relative_to_out_dir(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(FIXTURES.parent)
    out = tmp_path / "out"
    code = main(["pipeline", "run", "--config", str(FIXTURES / "pipeline.cfg"),
                 "--out-dir", str(out)])
    assert code == 0
    listed = [line.split(" ", 1)[1] for line in capsys.readouterr().out.splitlines()
              if line.startswith("artifact ")]
    assert "manifest.json" in listed and "lexicon/g2p_model.json" in listed
    on_disk = sorted(p.relative_to(out).as_posix() for p in out.rglob("*") if p.is_file())
    assert listed == on_disk


@pytest.mark.parametrize("key, stage", [
    ("seed_lexicon", "lexicon-load"), ("medical_lexicon", "lexicon-load"),
    ("word_list", "lexicon-load"), ("mapping", "dialect-load"), ("refs", "dialect-load"),
    ("hyps", "dialect-load"),
])
def test_cli_pipeline_run_with_an_invalid_input_trains_and_writes_nothing(
        tmp_path, monkeypatch, capsys, key, stage):
    """Every input is parsed before the first stage that trains, so a bad one
    leaves only the `failed` manifest."""
    monkeypatch.chdir(FIXTURES.parent)
    bad = tmp_path / "bad.txt"
    # A word list is any text, so only a byte that is not UTF-8 breaks it.
    bad.write_bytes(b"ok\nx\xffy\n" if key == "word_list" else b"ab\tcd\nno-tab\n")
    out = tmp_path / "out"
    argv = ["pipeline", "run", "--config", str(FIXTURES / "pipeline.cfg"),
            "--set", f"{key}={bad}", "--out-dir", str(out)]
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith(f"error [{stage}]: stage {stage!r} failed: {bad}:2: ")
    assert [p.relative_to(out).as_posix() for p in out.rglob("*")] == ["manifest.json"]
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert (manifest["status"], manifest["failed_stage"]) == ("failed", stage)
    assert manifest["artifacts"] == {}


def test_fixture_paths_resolve():
    config = parse_config(FIXTURES / "pipeline.cfg")
    assert len(config.corpora) == 4
    assert config.mapping


# SHA-256s of every artifact of the fixture LM pipeline. Any change to
# training, EM, merge, back-off, pruning or scoring arithmetic that moves a
# byte of these artifacts fails here.
PINNED_LM_ARTIFACTS = {
    "lm.combined.arpa": "dd3a9096e30ecc70c54b4e3dee1e671fc8ef1ed8f4bd1cdc146a6fb097f7fe07",
    "lm.pruned.arpa": "e34d967d506732d5c5828af2dca84478ae406eabc51c46238b6fdf8e4ac2c4e5",
    "prune_report.txt": "1d8f2f31341188c0a2dd3dc7e21b3d2f0179de11378be90733e740f015e06cec",
    "vocab.txt": "00264d12388128e4871c60885a89124b8baaf40266f802988450d39e4d602161",
    "lm.news.arpa": "d20dd0a9d66d419b1a5a7ef540347059f4ef6d1f9307d6932200c32e9034bdab",
    "lm.medical.arpa": "54411f52c7f83c129c6d2d1a042b7497e7c232ac2224315ca94fe5a2c07bc544",
    "lm.dialogue.arpa": "9db296eca6160d120862763f6f0e8c43649037b3f69e1986b7edc787ec2d90fb",
    "lm.dialect.arpa": "0ac7b6a5f77c57bedc5c10ec9a4f6c5820e47c8e3792e6dd3acb6540d10514a0",
    "weights.tsv": "c738082854d9a706c02dccd2e10a013967bfd89e8edfabaec473594c50b94c79",
    "ppl_report.tsv": "ad7dd92b0cdaaf2229299beed03c07c07c4a9c5a3de58f0ce652936df357d460",
    "oov_report.tsv": "aba1245c0a48a6d6dd0714c9912bfb3823858f54680c5be70d758ef931a2cdf3",
}


def test_fixture_lm_artifacts_match_pinned_hashes(tmp_path, monkeypatch):
    monkeypatch.chdir(FIXTURES.parent)
    run_lm_pipeline(parse_config(FIXTURES / "pipeline.cfg", [f"out_dir={tmp_path}"]))
    for name, digest in PINNED_LM_ARTIFACTS.items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name


# SHA-256s of the fixture pipeline's lexica, and of its G2P model's payload
# re-serialized with sorted keys and no indentation, so the pin holds the
# model's values and not the file's whitespace.
PINNED_LEXICON_ARTIFACTS = {
    "training_lexicon.tsv": "6a4fa6df635d2e89ba4f1752fbf98ff2dd11d58be9129f791778ade8ed4a0894",
    "recognition_lexicon.tsv": "5eec6df24ce31168e082273d01b6ea96b1a73eb16966232f5b098b9e00c95063",
    "g2p_model.json": "ff61a3127ec2a79390d67b1c0881b52daa7380b47559c7dca6a98c976165dc66",
    "lexicon_report.txt": "91e33b302d20bcdf211cd380fd0baa4a3a875f05327c460c2e14c408213f4d87",
}


def test_fixture_lexicon_artifacts_match_pinned_hashes(tmp_path, monkeypatch):
    monkeypatch.chdir(FIXTURES.parent)
    run_lexicon_pipeline(parse_config(FIXTURES / "pipeline.cfg", [f"out_dir={tmp_path}"]))
    for name, digest in PINNED_LEXICON_ARTIFACTS.items():
        data = (tmp_path / name).read_bytes()
        if name.endswith(".json"):
            data = json.dumps(json.loads(data), sort_keys=True).encode("utf-8")
        assert hashlib.sha256(data).hexdigest() == digest, name


@pytest.fixture(scope="module")
def fixture_run(tmp_path_factory):
    """The out_dir of one `run_pipeline` over the fixture configuration."""
    out = tmp_path_factory.mktemp("fixture-run")
    with pytest.MonkeyPatch.context() as patch:
        patch.chdir(FIXTURES.parent)
        run_pipeline(parse_config(FIXTURES / "pipeline.cfg", [f"out_dir={out}"]))
    return out


# SHA-256s of the fixture dialect part's before/after perplexity and WER.
PINNED_DIALECT_ARTIFACTS = {
    "dialect_ppl.tsv": "c9d7d0f8697df1415b06153601f69e8a3017c8dff7261bb84275d76e28a913dd",
    "dialect_wer.tsv": "1884bb209eb94deae51f3bb0541c22361481ace6a14156d180829363a96f48af",
}


def test_fixture_dialect_artifacts_match_pinned_hashes(fixture_run):
    for name, digest in PINNED_DIALECT_ARTIFACTS.items():
        data = (fixture_run / "dialect" / name).read_bytes()
        assert hashlib.sha256(data).hexdigest() == digest, name


def test_dialect_before_row_is_the_lm_mixture_dev_row(fixture_run):
    [mixture_dev] = [line.split("\t")[2:] for line in
                     (fixture_run / "ppl_report.tsv").read_text(encoding="utf-8").splitlines()
                     if line.startswith("mixture\tdev\t")]
    dialect = (fixture_run / "dialect" / "dialect_ppl.tsv").read_text(encoding="utf-8")
    [before] = [line.split("\t")[1:] for line in dialect.splitlines() if line.startswith("before\t")]
    assert before == mixture_dev


def test_single_corpus_dialect_before_row_is_the_model_dev_row(small_setup):
    c1, _, dev, tmp = small_setup
    mapping = write_corpus(tmp / "map.tsv", "c\ta\n")
    out = tmp / "solo"
    # Pruning makes the last ppl_report row differ from the model's own.
    run_pipeline(PipelineConfig(corpora=(("solo", c1),), dev=dev, order=2, theta=0.05,
                                mapping=mapping, out_dir=str(out)))
    [solo_dev] = [line.split("\t")[2:] for line in
                  (out / "ppl_report.tsv").read_text(encoding="utf-8").splitlines()
                  if line.startswith("solo\tdev\t")]
    dialect = (out / "dialect" / "dialect_ppl.tsv").read_text(encoding="utf-8").splitlines()
    assert dialect[1].split("\t")[1:] == solo_dev and dialect[1].startswith("before\t")


def test_fixture_run_manifest_lists_every_stage_and_artifact(fixture_run):
    manifest = json.loads((fixture_run / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["status"] == "ok"
    assert manifest["stages"] == [
        "load", "lexicon-load", "dialect-load",
        "vocab", "train", "weights", "merge", "prune", "evaluate",
        "g2p-train", "extend", "merge-addon", "lexicon-report",
        "dialect-eval", "dialect-score",
    ]
    on_disk = sorted(p.relative_to(fixture_run).as_posix() for p in fixture_run.rglob("*")
                     if p.is_file() and p.name != "manifest.json")
    assert sorted(manifest["artifacts"]) == on_disk and len(on_disk) == 17


def test_cli_g2p_apply_reports_bad_model(tmp_path, capsys):
    model = tmp_path / "g2p.json"
    model.write_text('{"format": "graphone-ngram-v1", "order": 2}', encoding="utf-8")
    words = tmp_path / "words.txt"
    words.write_text("ab\n", encoding="utf-8")
    assert main(["g2p", "apply", "--model", str(model), "--words", str(words)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {model}: model file lacks max_letters, ")
    assert "counts" in err


@pytest.mark.parametrize("unigrams, policy, missing", [
    ("-0.3\ta\n-0.3\t</s>\n", "as_unk", "<unk>"),
    ("-0.3\ta\n-0.3\tb\n", "exclude", "</s>"),
])
def test_cli_ppl_reports_missing_unigram(tmp_path, capsys, unigrams, policy, missing):
    model = tmp_path / "closed.arpa"
    model.write_text(f"\\data\\\nngram 1=2\n\n\\1-grams:\n{unigrams}\n\\end\\\n",
                     encoding="utf-8")
    corpus = write_corpus(tmp_path / "eval.txt", "a b\na\n")
    code = main(["lm", "ppl", "--lm", str(model), "--corpus", corpus, "--oov-policy", policy])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {model}: no unigram entry for {missing}")


@pytest.mark.parametrize("command", ["em", "ppl", "merge"])
def test_cli_mix_reports_missing_unk_unigram(tmp_path, capsys, command):
    models = []
    for name in ("one", "two"):
        model = tmp_path / f"{name}.arpa"
        model.write_text("\\data\\\nngram 1=3\n\n\\1-grams:\n-0.3\ta\n-0.5\tb\n-0.4\t</s>\n"
                         "\n\\end\\\n", encoding="utf-8")
        models.append(str(model))
    corpus = write_corpus(tmp_path / "dev.txt", "a b\na z\n")
    weights = tmp_path / "weights.tsv"
    weights.write_text(f"{models[0]}\t0.5\n{models[1]}\t0.5\n", encoding="utf-8")
    if command == "em":
        argv = ["mix", "em", "--lms", *models, "--dev", corpus, "--out", str(weights)]
    elif command == "ppl":
        argv = ["mix", "ppl", "--lms", *models, "--weights", str(weights), "--corpus", corpus]
    else:
        argv = ["mix", "merge", "--lms", *models, "--weights", str(weights),
                "--out", str(tmp_path / "merged.arpa")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {models[0]}: no unigram entry for <unk>")


@pytest.mark.parametrize("command", ["prune", "mix merge"])
def test_cli_refuses_arpa_word_without_unigram(tmp_path, capsys, command):
    good, bad = tmp_path / "good.arpa", tmp_path / "bad.arpa"
    unigrams = "-0.3\ta\t-0.2\n-0.4\t</s>\n-0.5\t<unk>\n"
    good.write_text(f"\\data\\\nngram 1=3\n\n\\1-grams:\n{unigrams}\n\\end\\\n",
                    encoding="utf-8")
    bad.write_text(f"\\data\\\nngram 1=3\nngram 2=1\n\n\\1-grams:\n{unigrams}\n"
                   "\\2-grams:\n-0.2\ta zz\n\n\\end\\\n", encoding="utf-8")
    out = tmp_path / "out.arpa"
    if command == "prune":
        argv = ["prune", "--lm", str(bad), "--theta", "1e-6", "--out", str(out)]
    else:
        weights = tmp_path / "weights.tsv"
        weights.write_text(f"{good}\t0.5\n{bad}\t0.5\n", encoding="utf-8")
        argv = ["mix", "merge", "--lms", str(good), str(bad), "--weights", str(weights),
                "--out", str(out)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (
        "", f"error: {bad}:11: word 'zz' of 'a zz' has no unigram entry\n")
    assert not out.exists()


def test_cli_prune_refuses_a_model_without_an_end_unigram(tmp_path, capsys):
    # A `<s>`-initial context takes its weight from p(`</s>`).
    model = tmp_path / "m.arpa"
    model.write_text("\\data\\\nngram 1=3\nngram 2=1\n\n\\1-grams:\n-99\t<s>\t-0.2\n-0.3\ta\n"
                     "-0.5\t<unk>\n\n\\2-grams:\n-0.2\t<s> a\n\n\\end\\\n", encoding="utf-8")
    out = tmp_path / "out.arpa"
    assert main(["prune", "--lm", str(model), "--theta", "1e-6", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (
        "", f"error: {model}: no unigram entry for </s>; "
            "cannot score sentence-initial contexts for pruning\n")
    assert not out.exists()


def test_cli_mix_merge_rejects_nan_weight(tmp_path, capsys):
    models = []
    for name in ("one", "two"):
        model = tmp_path / f"{name}.arpa"
        model.write_text("\\data\\\nngram 1=3\n\n\\1-grams:\n-0.3\ta\n-0.4\t</s>\n"
                         "-0.5\t<unk>\n\n\\end\\\n", encoding="utf-8")
        models.append(str(model))
    weights = tmp_path / "weights.tsv"
    weights.write_text(f"{models[0]}\tnan\n{models[1]}\t1.0\n", encoding="utf-8")
    out = tmp_path / "merged.arpa"
    argv = ["mix", "merge", "--lms", *models, "--weights", str(weights), "--out", str(out)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {weights}:1: weight 'nan' is not a finite number >= 0")
    assert not out.exists()


@pytest.mark.parametrize("command", ["ppl", "merge"])
def test_cli_mix_refuses_weights_listed_in_another_order(tmp_path, monkeypatch, capsys, command):
    # The pipeline's weights.tsv names its models by corpus id, beside the
    # lm.<id>.arpa files it wrote; `mix em` names them by path.
    monkeypatch.chdir(FIXTURES.parent)
    run_lm_pipeline(parse_config(FIXTURES / "pipeline.cfg", [f"out_dir={tmp_path}"]))
    by_id = tmp_path / "weights.tsv"
    lines = by_id.read_text(encoding="utf-8").splitlines()
    ids = [line.split("\t")[0] for line in lines]
    lambdas = [float(line.split("\t")[1]) for line in lines]
    models = [str(tmp_path / f"lm.{lm_id}.arpa") for lm_id in ids]
    by_path = tmp_path / "by_path.tsv"  # the same files, spelled another way
    by_path.write_text("".join(f"{tmp_path}/./lm.{lm_id}.arpa\t{lam!r}\n"
                               for lm_id, lam in zip(ids, lambdas)), encoding="utf-8")
    corpus = str(FIXTURES / "test.txt")
    out = tmp_path / "merged.arpa"

    def run(lms, weights):
        if command == "ppl":
            argv = ["mix", "ppl", "--lms", *lms, "--weights", str(weights), "--corpus", corpus]
        else:
            argv = ["mix", "merge", "--lms", *lms, "--weights", str(weights), "--out", str(out)]
        return main(argv), capsys.readouterr()

    for weights in (by_id, by_path):
        for lms in ([models[1], models[0], *models[2:]], [*models[:3], models[0]]):
            code, captured = run(lms, weights)
            assert code == 1
            assert captured.err.startswith(f"error: {weights}: weights list ")
            assert not out.exists()

    code, captured = run(models, by_id)
    assert code == 0
    lms = [read_arpa(m) for m in models]
    if command == "ppl":
        expected = perplexity_mixture(lms, lambdas, load_corpus(corpus))
        assert captured.out == expected.format() + "\n"
    else:
        write_arpa(interpolate_static(lms, lambdas), tmp_path / "expected.arpa")
        assert out.read_bytes() == (tmp_path / "expected.arpa").read_bytes()


def test_synthetic_study_script_is_deterministic_and_names_fallback_corpora():
    script = FIXTURES.parent / "scripts" / "run_synthetic_study.py"
    runs = [
        subprocess.run([sys.executable, str(script)], capture_output=True, text=True,
                       timeout=300, env={"PYTHONHASHSEED": hash_seed})
        for hash_seed in ("1", "2")
    ]
    for proc in runs:
        assert proc.returncode == 0, proc.stderr
        for corpus in ("news", "medical", "dialogue", "dialect"):
            assert f"corpus {corpus!r}: degenerate count-of-counts" in proc.stderr
    assert runs[0].stdout == runs[1].stdout
    assert "interpolation weights (EM on dev)" in runs[0].stdout


def walk_counter(monkeypatch) -> list:
    """Record each `walk_positions` call's (model, corpus) pair from here on."""
    pairs = []
    walk = evaluate.walk_positions

    def counting(lm, corpus, exclude):
        pairs.append((lm, corpus))
        return walk(lm, corpus, exclude)

    monkeypatch.setattr(evaluate, "walk_positions", counting)
    monkeypatch.setattr(mixture, "walk_positions", counting)
    return pairs


def walks_per_pair(pairs) -> list[int]:
    # `pairs` holds every model and corpus alive, so no id is reused.
    return sorted(Counter((id(lm), id(corpus)) for lm, corpus in pairs).values())


def test_lm_part_walks_each_model_over_each_eval_corpus_once(monkeypatch, tmp_path):
    """EM, every `ppl_report.tsv` row of a component and the mixture row
    read one walk of each component per eval corpus; the combined and
    pruned models are walked once per corpus too."""
    monkeypatch.chdir(FIXTURES.parent)
    config = parse_config(FIXTURES / "pipeline.cfg", [f"out_dir={tmp_path}"])
    pairs = walk_counter(monkeypatch)
    run_lm_pipeline(config)
    models = len(config.corpora) + 2  # the components, combined and pruned
    assert walks_per_pair(pairs) == [1] * models * 2  # dev and test


def test_train_and_score_walks_each_model_over_dev_once(monkeypatch):
    """The dialect part's EM and mixture report share one walk per model."""
    monkeypatch.chdir(FIXTURES.parent)
    config = parse_config(FIXTURES / "pipeline.cfg")
    corpora = [load_corpus(path, corpus_id=cid) for cid, path in config.corpora]
    dev = load_corpus(config.dev, corpus_id="dev")
    pairs = walk_counter(monkeypatch)
    report = _train_and_score(corpora, dev, config, load_mapping(config.mapping))
    assert walks_per_pair(pairs) == [1] * len(corpora)
    assert report.scored_tokens > 0
