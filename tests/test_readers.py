"""Every input reader decodes UTF-8 and names `path:line` for an invalid byte."""

import re
from pathlib import Path

import pytest

from asrlm.cli import main
from asrlm.dialectmap import load_mapping
from asrlm.lexg2p import load_g2p_model, load_lexicon
from asrlm.mixture import load_weights
from asrlm.ngramcore import read_arpa
from asrlm.pipeline import parse_config
from asrlm.scorer import read_trn
from asrlm.textcorpus import Vocabulary, load_corpus

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

# Reader, and a first line that is valid in its format; line 2 holds 0xFF.
READERS = {
    "read_arpa": (read_arpa, b"\\data\\"),
    "Vocabulary.load": (Vocabulary.load, b"word"),
    "load_mapping": (load_mapping, b"dialect\tstandard"),
    "load_weights": (lambda p: load_weights(p, []), b"news\t1.0"),
    "parse_config": (parse_config, b"order = 3"),
    "load_lexicon": (load_lexicon, b"ab\ta b"),
    "load_g2p_model": (load_g2p_model, b"{"),
    "read_trn": (read_trn, b"u1\ta b"),
    "load_corpus": (load_corpus, b"a b"),
}


@pytest.mark.parametrize("name", sorted(READERS))
def test_reader_names_path_and_line_of_invalid_utf8(tmp_path, name):
    reader, first_line = READERS[name]
    path = tmp_path / "input"
    path.write_bytes(first_line + b"\nx\xffy\n")
    with pytest.raises(ValueError, match="^" + re.escape(f"{path}:2: invalid UTF-8")):
        reader(path)


@pytest.fixture(scope="module")
def valid(tmp_path_factory):
    """Valid inputs of every kind the CLI reads."""
    d = tmp_path_factory.mktemp("valid")
    files = {
        "corpus": FIXTURES / "news.txt",
        "dev": FIXTURES / "dev.txt",
        "lexicon": FIXTURES / "seed_lexicon.tsv",
        "mapping": FIXTURES / "mapping.tsv",
        "trn": FIXTURES / "refs.tsv",
        "vocab": d / "vocab.txt",
        "lm": d / "lm.arpa",
        "weights": d / "weights.tsv",
        "model": d / "g2p.json",
        "words": d / "words.txt",
    }
    files["vocab"].write_text("the\ncat\n", encoding="utf-8")
    files["words"].write_text("ab\n", encoding="utf-8")
    files["weights"].write_text(f"{files['lm']}\t1.0\n", encoding="utf-8")
    assert main(["lm", "train", "--corpus", str(files["corpus"]), "--order", "2",
                 "--out", str(files["lm"])]) == 0
    assert main(["g2p", "train", "--lexicon", str(files["lexicon"]), "--order", "2",
                 "--em-iters", "1", "--out", str(files["model"])]) == 0
    return {kind: str(path) for kind, path in files.items()}


# One case per file argument of every subcommand that reads one. `{kind}`
# names a valid input; `{bad}` is the invalid one; `{out}` is an output.
CLI_CASES = {
    "corpus-stats": "corpus stats {bad}",
    "lm-count-corpus": "lm count --corpus {bad} --out {out}",
    "lm-count-vocab": "lm count --corpus {corpus} --vocab {bad} --out {out}",
    "lm-train-corpus": "lm train --corpus {bad} --out {out}",
    "lm-train-vocab": "lm train --corpus {corpus} --vocab {bad} --out {out}",
    "lm-ppl-lm": "lm ppl --lm {bad} --corpus {corpus}",
    "lm-ppl-corpus": "lm ppl --lm {lm} --corpus {bad}",
    "lm-oov-vocab": "lm oov --corpus {corpus} --vocab {bad}",
    "lm-oov-lm": "lm oov --corpus {corpus} --lm {bad}",
    "lm-oov-corpus": "lm oov --corpus {bad} --vocab {vocab}",
    "mix-em-lms": "mix em --lms {lm} {bad} --dev {dev} --out {out}",
    "mix-em-dev": "mix em --lms {lm} --dev {bad} --out {out}",
    "mix-merge-lms": "mix merge --lms {bad} --weights {weights} --out {out}",
    "mix-merge-weights": "mix merge --lms {lm} --weights {bad} --out {out}",
    "mix-ppl-lms": "mix ppl --lms {bad} --weights {weights} --corpus {corpus}",
    "mix-ppl-weights": "mix ppl --lms {lm} --weights {bad} --corpus {corpus}",
    "mix-ppl-corpus": "mix ppl --lms {lm} --weights {weights} --corpus {bad}",
    "prune-lm": "prune --lm {bad} --theta 1e-4 --out {out}",
    "g2p-train-lexicon": "g2p train --lexicon {bad} --out {out}",
    "g2p-apply-model": "g2p apply --model {bad} --words {words}",
    "g2p-apply-words": "g2p apply --model {model} --words {bad}",
    "lexicon-extend-lexicon": "lexicon extend --lexicon {bad} --model {model} --words {words} --out {out}",
    "lexicon-extend-model": "lexicon extend --lexicon {lexicon} --model {bad} --words {words} --out {out}",
    "lexicon-extend-words": "lexicon extend --lexicon {lexicon} --model {model} --words {bad} --out {out}",
    "lexicon-merge-base": "lexicon merge --base {bad} --addon {lexicon} --out {out}",
    "lexicon-merge-addon": "lexicon merge --base {lexicon} --addon {bad} --out {out}",
    "dialect-candidates-corpus": "dialect candidates --corpus {bad}",
    "dialect-candidates-vocab": "dialect candidates --corpus {corpus} --exclude-vocab {bad}",
    "dialect-apply-corpus": "dialect apply --corpus {bad} --mapping {mapping} --out {out}",
    "dialect-apply-mapping": "dialect apply --corpus {corpus} --mapping {bad} --out {out}",
    "dialect-eval-train": "dialect eval --train {bad} --dev {dev} --mapping {mapping}",
    "dialect-eval-dev": "dialect eval --train {corpus} --dev {bad} --mapping {mapping}",
    "dialect-eval-mapping": "dialect eval --train {corpus} --dev {dev} --mapping {bad}",
    "score-wer-ref": "score wer --ref {bad} --hyp {trn}",
    "score-wer-hyp": "score wer --ref {trn} --hyp {bad}",
    "score-cer-ref": "score cer --ref {bad} --hyp {trn}",
    "score-cer-hyp": "score cer --ref {trn} --hyp {bad}",
    "pipeline-run-config": "pipeline run --config {bad} --out-dir {out}",
}


@pytest.mark.parametrize("case", sorted(CLI_CASES))
def test_cli_reports_invalid_utf8_at_path_and_line(tmp_path, capsys, valid, case):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"ok\nx\xffy\n")
    argv = [arg.format(bad=bad, out=tmp_path / "out", **valid) for arg in CLI_CASES[case].split()]
    capsys.readouterr()
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error"), err
    assert f"{bad}:2: invalid UTF-8" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("key", ["corpus.extra", "dev", "test", "seed_lexicon", "medical_lexicon",
                                 "word_list", "mapping", "refs", "hyps"])
def test_pipeline_reports_invalid_utf8_input_at_path_and_line(tmp_path, capsys, monkeypatch, key):
    monkeypatch.chdir(FIXTURES.parent)  # the config names its inputs relative to the repo
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"ok\nx\xffy\n")
    argv = ["pipeline", "run", "--config", str(FIXTURES / "pipeline.cfg"),
            "--set", f"{key}={bad}", "--out-dir", str(tmp_path / "out")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error"), err
    assert f"{bad}:2: invalid UTF-8" in err
