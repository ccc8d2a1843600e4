"""Deterministic pipeline orchestration with hashed artifact manifests.

Stages follow the training recipe: one LM per monolingual corpus, dev-set
weight estimation, static combination, optional entropy pruning, then
perplexity/OOV evaluation. Lexicon and dialect-mapping workflows reuse the
same artifact and manifest conventions. Reruns with identical inputs and
parameters produce byte-identical artifacts.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, fields
from pathlib import Path

from asrlm import dialectmap, lexg2p, scorer
from asrlm.mixture import (
    InterpolationWeights,
    em_weights,
    interpolate_static,
    perplexity_mixture,
    save_weights,
)
from asrlm.ngramcore import (
    count_ngrams,
    estimate_discounts,
    oov_rate,
    perplexity,
    train_mkn,
    write_arpa,
)
from asrlm.pruner import prune_entropy
from asrlm.textcorpus import build_vocabulary, load_corpus, word_frequencies, write_text_atomic


class PipelineError(RuntimeError):
    def __init__(self, stage: str, cause: str):
        super().__init__(f"stage {stage!r} failed: {cause}")
        self.stage = stage


# Optional input-file keys, in the order they are checked and listed.
_OPTIONAL_PATH_KEYS = ("test", "seed_lexicon", "medical_lexicon", "word_list", "mapping",
                       "refs", "hyps")


@dataclass
class PipelineConfig:
    """Flat pipeline configuration; file keys `corpus.<id>=<path>` add corpora."""

    language: str = "und"
    corpora: tuple[tuple[str, str], ...] = ()
    dev: str = ""
    test: str | None = None
    order: int = 4
    min_count: int = 1
    max_size: int | None = None
    theta: float | None = None
    oov_policy: str = "exclude"
    lowercase: bool = False
    strip_punct: bool = False
    em_tol: float = 1e-6
    em_max_iter: int = 100
    seed: int = 0
    seed_lexicon: str | None = None
    medical_lexicon: str | None = None
    word_list: str | None = None
    g2p_order: int = 3
    g2p_max_letters: int = 2
    g2p_max_phones: int = 2
    g2p_em_iters: int = 5
    g2p_beam: int = 100
    mapping: str | None = None
    map_eval_text: bool = True
    refs: str | None = None
    hyps: str | None = None
    out_dir: str = "pipeline-out"

    def validate(self) -> None:
        if self.order < 1:
            raise ValueError("order must be >= 1")
        if not self.corpora:
            raise ValueError("at least one corpus is required (corpus.<id> = <path>)")
        if not self.dev:
            raise ValueError("a dev corpus is required")
        paths = [p for _, p in self.corpora] + [self.dev]
        paths += [getattr(self, key) for key in _OPTIONAL_PATH_KEYS if getattr(self, key)]
        dupes = {p for p in paths if paths.count(p) > 1}
        if dupes:
            raise ValueError(f"referenced paths must be distinct: {sorted(dupes)}")
        for p in paths:
            if not os.access(p, os.R_OK):
                raise ValueError(f"cannot read {p}")

    def input_paths(self) -> dict[str, str]:
        named = {f"corpus.{cid}": path for cid, path in self.corpora}
        named["dev"] = self.dev
        for key in _OPTIONAL_PATH_KEYS:
            value = getattr(self, key)
            if value:
                named[key] = value
        return named


_BOOL_KEYS = {"lowercase", "strip_punct", "map_eval_text"}
_INT_KEYS = {"order", "min_count", "max_size", "em_max_iter", "seed", "g2p_order",
             "g2p_max_letters", "g2p_max_phones", "g2p_em_iters", "g2p_beam"}
_FLOAT_KEYS = {"theta", "em_tol"}


def _parse_value(key: str, raw: str):
    raw = raw.strip()
    if key in _BOOL_KEYS:
        if raw.lower() in ("true", "1", "yes"):
            return True
        if raw.lower() in ("false", "0", "no"):
            return False
        raise ValueError(f"{key}: expected a boolean, got {raw!r}")
    if key in _INT_KEYS:
        return int(raw) if raw else None
    if key in _FLOAT_KEYS:
        return float(raw) if raw else None
    return raw or None


def parse_config(path: str | Path | None = None, overrides=()) -> PipelineConfig:
    """Read `key = value` lines (# comments allowed) plus key=value overrides.

    Lines end at a line feed only; surrounding whitespace, such as the
    carriage return of a CRLF ending, is ignored. A line that holds another
    line separator, such as U+2028, is an error.
    """
    known = {f.name for f in fields(PipelineConfig)} - {"corpora"}
    corpora: list[tuple[str, str]] = []
    values: dict = {}

    def absorb(key: str, raw: str, where: str):
        key = key.strip()
        if key.startswith("corpus."):
            cid = key[len("corpus."):]
            if not cid or any(cid == c for c, _ in corpora):
                raise ValueError(f"{where}: bad or duplicate corpus id {cid!r}")
            corpora.append((cid, raw.strip()))
            return
        if key not in known:
            raise ValueError(f"{where}: unknown configuration key {key!r}")
        values[key] = _parse_value(key, raw)

    if path is not None:
        for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").split("\n"), 1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            if "=" not in stripped or stripped.splitlines() != [stripped]:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, raw = stripped.split("=", 1)
            absorb(key, raw, f"{path}:{lineno}")
    for item in overrides:
        if "=" not in item:
            raise ValueError(f"override {item!r}: expected key=value")
        key, raw = item.split("=", 1)
        absorb(key, raw, f"override {item!r}")
    return PipelineConfig(corpora=tuple(corpora), **values)


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _lock_is_stale(lock: Path) -> bool:
    """True when `lock` names a PID that no longer exists; anything else is held."""
    try:
        os.kill(int(lock.read_text(encoding="ascii")), 0)
    except ProcessLookupError:
        return True
    except (OSError, ValueError, OverflowError):
        pass  # unreadable, not a PID, or a live process of another user
    return False


class _Run:
    """One sub-pipeline run: `with _Run(config) as run:`.

    Entering validates the config, creates `out_dir` and takes its lock. The
    body opens each stage with `begin` and writes artifacts through `path` or
    `write`; `result` writes the `ok` manifest. An exception inside a stage
    writes the `failed` manifest and surfaces as a PipelineError for that
    stage. The lock is removed on every way out.
    """

    def __init__(self, config: PipelineConfig):
        self.config = config
        self.out_dir = Path(config.out_dir)
        self.lock = self.out_dir / ".lock"
        self.stage = ""
        self.stages: list[str] = []
        self.artifacts: list[str] = []

    def __enter__(self) -> "_Run":
        self.config.validate()
        self.out_dir.mkdir(parents=True, exist_ok=True)
        for attempt in range(2):  # a stale lock is removed and taken once more
            try:
                fd = os.open(self.lock, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
                break
            except FileExistsError:
                if attempt or not _lock_is_stale(self.lock):
                    raise PipelineError(
                        "lock", f"{self.lock} exists; another run owns {self.out_dir}")
                self.lock.unlink(missing_ok=True)
        os.write(fd, str(os.getpid()).encode())
        os.close(fd)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        try:
            if isinstance(exc, Exception) and not isinstance(exc, PipelineError):
                self.write_manifest("failed", failed_stage=self.stage)
                raise PipelineError(self.stage, str(exc)) from exc
        finally:
            self.lock.unlink(missing_ok=True)

    def begin(self, stage: str) -> None:
        """Mark the current stage complete and open `stage`."""
        if self.stage:
            self.stages.append(self.stage)
        self.stage = stage

    def load(self, path: str, corpus_id: str):
        return load_corpus(path, lowercase=self.config.lowercase,
                           strip_punct=self.config.strip_punct, corpus_id=corpus_id)

    def corpora(self) -> list:
        return [self.load(path, cid) for cid, path in self.config.corpora]

    def path(self, name: str) -> Path:
        self.artifacts.append(name)
        return self.out_dir / name

    def write(self, name: str, text: str) -> None:
        write_text_atomic(self.path(name), text)

    def result(self) -> dict[str, Path]:
        """Complete the last stage, write the `ok` manifest; returns name -> path."""
        self.stages.append(self.stage)
        self.write_manifest("ok")
        return {name: self.out_dir / name for name in self.artifacts + ["manifest.json"]}

    def write_manifest(self, status: str, failed_stage: str | None = None) -> None:
        # out_dir is self-referential, not an input.
        params = {f.name: getattr(self.config, f.name)
                  for f in fields(PipelineConfig) if f.name != "out_dir"}
        params["corpora"] = [list(pair) for pair in self.config.corpora]
        manifest = {
            "status": status,
            "seed": self.config.seed,
            "parameters": params,
            "inputs": {
                name: _sha256(Path(path))
                for name, path in sorted(self.config.input_paths().items())
            },
            "stages": self.stages,
            "artifacts": {
                name: _sha256(self.out_dir / name)
                for name in sorted(set(self.artifacts))
                if (self.out_dir / name).exists()
            },
        }
        if failed_stage:
            manifest["failed_stage"] = failed_stage
        payload = json.dumps(manifest, indent=2, sort_keys=True) + "\n"
        write_text_atomic(self.out_dir / "manifest.json", payload)


def _ppl_line(model_id: str, eval_id: str, report) -> str:
    return (
        f"{model_id}\t{eval_id}\t{report.sentences}\t{report.scored_tokens}\t"
        f"{report.oov_tokens}\t{report.log10_prob_sum:.6f}\t{report.ppl:.6f}\n"
    )


def run_lm_pipeline(config: PipelineConfig) -> dict[str, Path]:
    """Train, combine, prune and evaluate; returns artifact name -> path."""
    with _Run(config) as run:
        run.begin("load")
        corpora = run.corpora()
        dev = run.load(config.dev, "dev")
        test = run.load(config.test, "test") if config.test else None

        run.begin("vocab")
        vocab = build_vocabulary(corpora, min_count=config.min_count, max_size=config.max_size)
        vocab.save(run.path("vocab.txt"))

        run.begin("train")
        lms = []
        for corpus in corpora:
            counts = count_ngrams(corpus, config.order, vocab)
            lm = train_mkn(counts, estimate_discounts(counts))
            write_arpa(lm, run.path(f"lm.{corpus.id}.arpa"))
            lms.append(lm)

        run.begin("weights")
        if len(lms) > 1:
            weights = em_weights(lms, dev, tol=config.em_tol, max_iter=config.em_max_iter)
        else:
            weights = InterpolationWeights(
                lm_ids=(corpora[0].id,), lambdas=(1.0,),
                dev_log10_likelihood=float("nan"),
            )
        save_weights(weights, run.path("weights.tsv"))

        run.begin("merge")
        combined = interpolate_static(lms, weights)
        write_arpa(combined, run.path("lm.combined.arpa"))

        run.begin("prune")
        final_lm = combined
        if config.theta is not None:
            final_lm, report = prune_entropy(combined, config.theta)
            write_arpa(final_lm, run.path("lm.pruned.arpa"))
            run.write("prune_report.txt", report.format())

        run.begin("evaluate")
        eval_sets = [("dev", dev)] + ([("test", test)] if test is not None else [])
        ppl_lines = ["model\teval\tsentences\tscored\toov\tlog10_sum\tppl\n"]
        scored_models = [(corpus.id, lm) for corpus, lm in zip(corpora, lms)]
        scored_models.append(("combined", combined))
        if config.theta is not None:
            scored_models.append(("pruned", final_lm))
        for eval_id, corpus in eval_sets:
            for model_id, lm in scored_models:
                ppl_lines.append(
                    _ppl_line(model_id, eval_id, perplexity(lm, corpus, config.oov_policy))
                )
            if len(lms) > 1:
                mix_report = perplexity_mixture(lms, weights, corpus, config.oov_policy)
                ppl_lines.append(_ppl_line("mixture", eval_id, mix_report))
        run.write("ppl_report.tsv", "".join(ppl_lines))
        oov_lines = ["eval\toov_rate\n"]
        for eval_id, corpus in eval_sets:
            oov_lines.append(f"{eval_id}\t{oov_rate(vocab, corpus):.8f}\n")
        run.write("oov_report.tsv", "".join(oov_lines))
        return run.result()


def run_lexicon_pipeline(config: PipelineConfig) -> dict[str, Path]:
    """Train G2P on the seed lexicon, extend with corpus OOV words, merge addon."""
    if not config.seed_lexicon:
        raise PipelineError("lexicon-load", "seed_lexicon is required")
    with _Run(config) as run:
        run.begin("lexicon-load")
        seed = lexg2p.load_lexicon(config.seed_lexicon)
        corpora = run.corpora()

        run.begin("g2p-train")
        model = lexg2p.train_g2p(
            seed,
            order=config.g2p_order,
            max_letters=config.g2p_max_letters,
            max_phones=config.g2p_max_phones,
            em_iters=config.g2p_em_iters,
        )
        lexg2p.save_g2p_model(model, run.path("g2p_model.json"))

        run.begin("extend")
        if config.word_list:
            wanted = [w for w in Path(config.word_list).read_text(encoding="utf-8").split() if w]
        else:
            counts: dict[str, int] = {}
            for corpus in corpora:
                for word, count in word_frequencies(corpus):
                    counts[word] = counts.get(word, 0) + count
            wanted = [w for w, _ in sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))]
        missing = [w for w in wanted if w not in seed.entries]
        extended, report = lexg2p.extend_lexicon(seed, missing, model, beam=config.g2p_beam)
        lexg2p.save_lexicon(extended, run.path("training_lexicon.tsv"))

        run.begin("merge-addon")
        final = extended
        if config.medical_lexicon:
            addon = lexg2p.load_lexicon(config.medical_lexicon)
            final = lexg2p.merge_lexicons(extended, addon, policy="union")
        lexg2p.save_lexicon(final, run.path("recognition_lexicon.tsv"))

        run.begin("lexicon-report")
        lines = [
            f"seed_entries\t{len(seed)}",
            f"extended_entries\t{len(extended)}",
            f"final_entries\t{len(final)}",
            f"g2p_added\t{len(report.added)}",
            f"g2p_failed\t{len(report.failed)}",
            "",
            "provisional (machine-generated, review loanwords):",
        ]
        lines.extend(report.provisional)
        if report.failed:
            lines.append("")
            lines.append("failures:")
            lines.extend(f"{w}\t{why}" for w, why in sorted(report.failed.items()))
        run.write("lexicon_report.txt", "\n".join(lines) + "\n")
        return run.result()


def run_dialect_pipeline(config: PipelineConfig) -> dict[str, Path]:
    """Before/after perplexity (and optional WER) for a dialect mapping."""
    if not config.mapping:
        raise PipelineError("dialect-load", "mapping file is required")
    with _Run(config) as run:
        run.begin("dialect-load")
        table = dialectmap.load_mapping(config.mapping)
        corpora = run.corpora()
        dev = run.load(config.dev, "dev")

        run.begin("dialect-eval")
        cfg = dialectmap.DialectEvalConfig(
            order=config.order,
            interpolate=len(corpora) > 1,
            min_count=config.min_count,
            max_size=config.max_size,
            oov_policy=config.oov_policy,
            map_eval_text=config.map_eval_text,
            em_tol=config.em_tol,
            em_max_iter=config.em_max_iter,
        )
        before, after = dialectmap.mapped_lm_eval(corpora, dev, table, cfg)
        lines = ["condition\tsentences\tscored\toov\tlog10_sum\tppl\n"]
        for cond, report in (("before", before), ("after", after)):
            lines.append(
                f"{cond}\t{report.sentences}\t{report.scored_tokens}\t{report.oov_tokens}\t"
                f"{report.log10_prob_sum:.6f}\t{report.ppl:.6f}\n"
            )
        run.write("dialect_ppl.tsv", "".join(lines))

        if config.refs and config.hyps:
            run.begin("dialect-score")
            refs = scorer.read_trn(config.refs)
            hyps = scorer.read_trn(config.hyps)
            mapped_refs = {
                utt: tuple(table.pairs.get(t, t) for t in tokens)
                for utt, tokens in refs.items()
            }
            out = ["references\twer%\n"]
            out.append(f"original\t{100.0 * scorer.wer(refs, hyps).wer:.4f}\n")
            out.append(f"mapped\t{100.0 * scorer.wer(mapped_refs, hyps).wer:.4f}\n")
            run.write("dialect_wer.tsv", "".join(out))
        return run.result()
