import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from asrlm.cli import main
from asrlm.mixture import interpolate_static, perplexity_mixture
from asrlm.ngramcore import read_arpa, write_arpa
from asrlm.pipeline import (
    PipelineConfig,
    PipelineError,
    parse_config,
    run_dialect_pipeline,
    run_lexicon_pipeline,
    run_lm_pipeline,
)
from asrlm.textcorpus import load_corpus

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


def test_single_corpus_combined_equals_component(small_setup):
    c1, _, dev, tmp = small_setup
    config = PipelineConfig(
        corpora=(("solo", c1),), dev=dev, order=3, out_dir=str(tmp / "out")
    )
    artifacts = run_lm_pipeline(config)
    solo = (tmp / "out" / "lm.solo.arpa").read_bytes()
    combined = (tmp / "out" / "lm.combined.arpa").read_bytes()
    assert solo == combined
    weights = (tmp / "out" / "weights.tsv").read_text(encoding="utf-8")
    assert weights.splitlines()[0].startswith("solo\t")


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


def test_pipeline_lock_prevents_concurrent_runs(small_setup):
    c1, _, dev, tmp = small_setup
    out = tmp / "locked"
    out.mkdir()
    (out / ".lock").write_text("held", encoding="utf-8")
    config = PipelineConfig(corpora=(("a", c1),), dev=dev, out_dir=str(out))
    with pytest.raises(PipelineError, match="lock"):
        run_lm_pipeline(config)


def _reaped_child_pid() -> int:
    child = subprocess.Popen([sys.executable, "-c", "pass"])
    child.wait()
    return child.pid


def test_pipeline_takes_over_lock_of_dead_process(small_setup):
    c1, _, dev, tmp = small_setup
    out = tmp / "stale"
    out.mkdir()
    (out / ".lock").write_text(str(_reaped_child_pid()), encoding="utf-8")
    run_lm_pipeline(PipelineConfig(corpora=(("a", c1),), dev=dev, out_dir=str(out)))
    assert json.loads((out / "manifest.json").read_text(encoding="utf-8"))["status"] == "ok"
    assert not (out / ".lock").exists()


def test_pipeline_lock_of_live_process_blocks(small_setup):
    c1, _, dev, tmp = small_setup
    out = tmp / "live"
    out.mkdir()
    (out / ".lock").write_text(str(os.getpid()), encoding="utf-8")
    with pytest.raises(PipelineError, match="lock"):
        run_lm_pipeline(PipelineConfig(corpora=(("a", c1),), dev=dev, out_dir=str(out)))
    assert (out / ".lock").read_text(encoding="utf-8") == str(os.getpid())
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize("runner", [run_lexicon_pipeline, run_dialect_pipeline])
def test_lexicon_and_dialect_pipelines_refuse_held_lock(tmp_path, monkeypatch, runner):
    monkeypatch.chdir(FIXTURES.parent)
    (tmp_path / ".lock").write_text("held", encoding="utf-8")
    with pytest.raises(PipelineError, match="lock"):
        runner(parse_config(FIXTURES / "pipeline.cfg", [f"out_dir={tmp_path}"]))
    assert sorted(p.name for p in tmp_path.iterdir()) == [".lock"]


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


def test_cli_lm_train_and_ppl(small_setup, capsys):
    c1, _, dev, tmp = small_setup
    arpa = str(tmp / "m.arpa")
    assert main(["lm", "train", "--corpus", c1, "--order", "2", "--out", arpa]) == 0
    assert main(["lm", "ppl", "--lm", arpa, "--corpus", dev]) == 0
    out = capsys.readouterr().out
    assert "ppl=" in out


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
    for manifest in ("manifest.json", "lexicon/manifest.json", "dialect/manifest.json"):
        assert manifest in listed
    assert "lexicon/g2p_model.json" in listed
    on_disk = sorted(p.relative_to(out).as_posix() for p in out.rglob("*") if p.is_file())
    assert listed == on_disk


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


# SHA-256s of the fixture dialect pipeline's before/after perplexity and WER.
PINNED_DIALECT_ARTIFACTS = {
    "dialect_ppl.tsv": "c9d7d0f8697df1415b06153601f69e8a3017c8dff7261bb84275d76e28a913dd",
    "dialect_wer.tsv": "1884bb209eb94deae51f3bb0541c22361481ace6a14156d180829363a96f48af",
}


def test_fixture_dialect_artifacts_match_pinned_hashes(tmp_path, monkeypatch):
    monkeypatch.chdir(FIXTURES.parent)
    run_dialect_pipeline(parse_config(FIXTURES / "pipeline.cfg", [f"out_dir={tmp_path}"]))
    for name, digest in PINNED_DIALECT_ARTIFACTS.items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name


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
