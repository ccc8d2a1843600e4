"""Deterministic pipeline orchestration with hashed artifact manifests.

`run_pipeline` is one run with one lock and one manifest. Its load stages
parse every input first; then the LM part follows the training recipe (one
LM per corpus, dev-set weights, static combination, optional entropy
pruning, perplexity/OOV evaluation), and the lexicon and dialect parts write
into `lexicon/` and `dialect/`. Reruns produce byte-identical artifacts.
"""

from __future__ import annotations

import fcntl
import gc
import hashlib
import json
import os
from contextlib import contextmanager
from dataclasses import dataclass, fields
from functools import partial
from pathlib import Path

from asrlm import dialectmap, lexg2p, scorer
from asrlm.mixture import em_columns, interpolate_static, mix_log10, save_weights
from asrlm.mixture import em_weights, perplexity_mixture  # noqa: F401, traced by the benchmark
from asrlm.ngramcore import (
    BackoffLM,
    PerplexityReport,
    count_ngrams,
    estimate_discounts,
    oov_rate,
    perplexity,
    train_mkn,
    write_arpa,
)
from asrlm.ngramcore.evaluate import OOV_POLICIES, position_columns, score_corpus
from asrlm.pruner import prune_entropy
from asrlm.textcorpus import (
    RESERVED, Corpus, Vocabulary, build_vocabulary, concatenate, load_corpus, read_text,
    remove_dead_temp_files, word_frequencies, write_text_atomic,
)


class PipelineError(RuntimeError):
    def __init__(self, stage: str, cause: str):
        super().__init__(f"stage {stage!r} failed: {cause}")
        self.stage = stage


# Names the LM part gives its own models beside the per-corpus ones, in
# `lm.<name>.arpa` files and `ppl_report.tsv` rows.
_OWN_MODEL_NAMES = ("combined", "pruned", "mixture")

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
        if len({cid for cid, _ in self.corpora}) != len(self.corpora):
            raise ValueError("corpus ids must be distinct")
        for cid, _ in self.corpora:
            if cid in _OWN_MODEL_NAMES:
                raise ValueError(f"corpus id {cid!r} is taken: the pipeline names its own models "
                                 f"{', '.join(_OWN_MODEL_NAMES)}")
            if "/" in cid or any(ch.isspace() for ch in cid):
                raise ValueError(f"corpus id {cid!r} must hold no '/' or whitespace")
        if not self.dev:
            raise ValueError("a dev corpus is required")
        # `not x >= 0.0` also refuses NaN, which every comparison fails.
        if self.theta is not None and not self.theta >= 0.0:
            raise ValueError(f"theta must be a number >= 0, got {self.theta!r}")
        if self.em_tol is None or not self.em_tol >= 0.0:
            raise ValueError(f"em_tol must be a number >= 0, got {self.em_tol!r}")
        if self.max_size is not None and self.max_size < len(RESERVED):
            raise ValueError(f"max_size must be an integer >= {len(RESERVED)} to hold the reserved "
                             f"markers, got {self.max_size!r}")
        for key in ("min_count", "em_max_iter", "g2p_order", "g2p_max_letters", "g2p_max_phones",
                    "g2p_beam"):
            value = getattr(self, key)
            if value is None or value < 1:
                raise ValueError(f"{key} must be an integer >= 1, got {value!r}")
        if self.g2p_em_iters is None or self.g2p_em_iters < 0:
            raise ValueError(f"g2p_em_iters must be an integer >= 0, got {self.g2p_em_iters!r}")
        if self.oov_policy not in OOV_POLICIES:
            raise ValueError(f"oov_policy must be one of {', '.join(OOV_POLICIES)}, "
                             f"got {self.oov_policy!r}")
        if bool(self.refs) != bool(self.hyps):
            raise ValueError("refs and hyps must be given together")
        if not self.out_dir:
            raise ValueError("out_dir is required")
        named = self.input_paths()
        paths = list(named.values())
        dupes = {p for p in paths if paths.count(p) > 1}
        if dupes:
            raise ValueError(f"referenced paths must be distinct: {sorted(dupes)}")
        for key, path in named.items():
            if not os.access(path, os.R_OK):
                raise ValueError(f"{key}: cannot read {path!r}")

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


def _parse_value(key: str, raw: str, where: str):
    """The value of `key` from its text `raw`; a malformed one is a
    ValueError naming `where` (`path:line` or the override)."""
    raw = raw.strip()
    if key in _BOOL_KEYS:
        if raw.lower() in ("true", "1", "yes"):
            return True
        if raw.lower() in ("false", "0", "no"):
            return False
        raise ValueError(f"{where}: {key}: expected a boolean, got {raw!r}")
    number = int if key in _INT_KEYS else float if key in _FLOAT_KEYS else None
    if number is None:
        return raw or None
    if not raw and getattr(PipelineConfig, key) is None:
        return None  # an optional number left empty, such as `theta =`
    try:
        return number(raw)
    except ValueError:
        kind = "an integer" if number is int else "a number"
        raise ValueError(f"{where}: {key}: expected {kind}, got {raw!r}") from None


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
        values[key] = _parse_value(key, raw, where)

    if path is not None:
        for lineno, line in enumerate(read_text(path).split("\n"), 1):
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
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        # read(n) allocates n bytes even when less is left, so blocks stay small.
        while block := fh.read(1 << 16):
            digest.update(block)
    return digest.hexdigest()


class _Run:
    """One pipeline run over `out_dir`: `with _Run(config) as run:`.

    Creating it validates the config. Entering creates `out_dir` and takes
    its lock: an exclusive `flock` on a descriptor of `out_dir` itself, which
    the kernel drops when the run's process ends, however it ends; a lock
    another process holds is a PipelineError of stage `lock`. It then removes
    the temp files that `write_text_atomic` left there or in its part
    subdirectories in processes that no longer exist, and writes the
    `running` manifest: parameters and input hashes, no artifacts. The body
    opens each stage with `begin`, parses corpora once through `load`, and
    writes artifacts through `path` or `write`; `result` writes the `ok`
    manifest. An exception inside a stage writes the `failed` manifest and
    surfaces as a PipelineError for that stage. The lock is released on
    every way out, after the last manifest is written.
    """

    def __init__(self, config: PipelineConfig):
        config.validate()
        self.config = config
        self.out_dir = Path(config.out_dir)
        self.stage = ""
        self.stages: list[str] = []
        self.artifacts: list[str] = []
        self.loaded: dict[tuple[str, str], Corpus] = {}
        self.dev_report: PerplexityReport | None = None  # the dialect part's `before` row

    def __enter__(self) -> "_Run":
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.lock_fd = os.open(self.out_dir, os.O_RDONLY)
        try:
            try:
                fcntl.flock(self.lock_fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
            except BlockingIOError:
                raise PipelineError(
                    "lock", f"another run holds the lock on {self.out_dir}") from None
            # A run killed while writing leaves `.NAME.PID.tmp`, which would
            # differ between otherwise identical out_dirs.
            for sub in ("", "lexicon", "dialect"):
                remove_dead_temp_files(self.out_dir / sub)
            # A run killed before `result` leaves this manifest, not the
            # `ok` one of an earlier run whose artifacts it may have replaced.
            self.write_manifest("running", [])
        except BaseException:
            os.close(self.lock_fd)
            raise
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        try:
            if isinstance(exc, Exception) and not isinstance(exc, PipelineError):
                self.write_manifest("failed", self.stages, failed_stage=self.stage)
                raise PipelineError(self.stage, str(exc)) from exc
        finally:
            os.close(self.lock_fd)  # closing the last descriptor releases the lock

    def begin(self, stage: str) -> None:
        """Mark the current stage complete and open `stage`."""
        if self.stage:
            self.stages.append(self.stage)
        self.stage = stage

    def load(self, path: str, corpus_id: str) -> Corpus:
        """The corpus at `path`, parsed once per run and shared by its parts."""
        if (path, corpus_id) not in self.loaded:
            self.loaded[path, corpus_id] = load_corpus(
                path, lowercase=self.config.lowercase, strip_punct=self.config.strip_punct,
                corpus_id=corpus_id)
        return self.loaded[path, corpus_id]

    def corpora(self) -> list:
        return [self.load(path, cid) for cid, path in self.config.corpora]

    def path(self, name: str) -> Path:
        self.artifacts.append(name)
        return self.out_dir / name

    def write(self, name: str, text: str) -> None:
        write_text_atomic(self.path(name), text)

    def result(self) -> dict[str, Path]:
        """Write the `ok` manifest, which lists the last stage as complete;
        returns name -> path. Until that write succeeds, the last stage is
        the one a `failed` manifest names."""
        self.write_manifest("ok", self.stages + [self.stage])
        return {name: self.out_dir / name for name in self.artifacts + ["manifest.json"]}

    def write_manifest(self, status: str, stages: list[str],
                       failed_stage: str | None = None) -> None:
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
            "stages": stages,
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


def _ppl_line(*ids: str, report) -> str:
    """One perplexity row: the id columns, then the report's five fields."""
    return "\t".join(ids) + (
        f"\t{report.sentences}\t{report.scored_tokens}\t"
        f"{report.oov_tokens}\t{report.log10_prob_sum:.6f}\t{report.ppl:.6f}\n"
    )


def train_lms(corpora: list[Corpus], vocab: Vocabulary, order: int) -> list[BackoffLM]:
    """One modified Kneser-Ney model per corpus over `vocab`. The three steps
    are looked up in this module's globals, where the benchmark traces them."""
    lms = []
    for corpus in corpora:
        counts = count_ngrams(corpus, order, vocab)
        lms.append(train_mkn(counts, estimate_discounts(counts)))
    return lms


@contextmanager
def paused_gc():
    """Pause the cyclic GC, process-wide, for the block: a run makes no cycles that grow with input."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _run_parts(config: PipelineConfig, *parts) -> dict[str, Path]:
    """Run `parts` in one `_Run` with the collector paused; returns artifact
    name -> path. A part is a generator function of the run and config that
    yields once, after its load stage. Every part's load stage runs before any
    part goes on, so every input is parsed before the first stage that trains."""
    with paused_gc(), _Run(config) as run:
        steps = [part(run, config) for part in parts]
        for step in steps:
            next(step)
        for step in steps:
            next(step, None)
        return run.result()


def run_pipeline(config: PipelineConfig) -> dict[str, Path]:
    """The LM part, then the lexicon part into `lexicon/` when `seed_lexicon`
    is set and the dialect part into `dialect/` when `mapping` is set."""
    lexicon = [partial(_lexicon_part, sub="lexicon/")] if config.seed_lexicon else []
    dialect = [_dialect_part] if config.mapping else []
    return _run_parts(config, _lm_part, *lexicon, *dialect)


def run_lm_pipeline(config: PipelineConfig) -> dict[str, Path]:
    """Train, combine, prune and evaluate; returns artifact name -> path."""
    return _run_parts(config, _lm_part)


def run_lexicon_pipeline(config: PipelineConfig) -> dict[str, Path]:
    """Train G2P on the seed lexicon, extend with corpus OOV words, merge addon."""
    if not config.seed_lexicon:
        raise PipelineError("lexicon-load", "seed_lexicon is required")
    return _run_parts(config, partial(_lexicon_part, sub=""))


def _lm_part(run: _Run, config: PipelineConfig):
    run.begin("load")
    corpora = run.corpora()
    dev = run.load(config.dev, "dev")
    test = run.load(config.test, "test") if config.test else None
    yield

    run.begin("vocab")
    vocab = build_vocabulary(corpora, min_count=config.min_count, max_size=config.max_size)
    vocab.save(run.path("vocab.txt"))

    run.begin("train")
    lms = train_lms(corpora, vocab, config.order)
    for corpus, lm in zip(corpora, lms):
        write_arpa(lm, run.path(f"lm.{corpus.id}.arpa"))

    run.begin("weights")
    dev_columns = position_columns(lms, dev)
    weights = em_columns(lms, dev_columns[0], None, config.em_tol, config.em_max_iter)
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
    built = [("combined", combined)] + ([("pruned", final_lm)] if config.theta is not None else [])
    for eval_id, corpus in eval_sets:
        # Each component is walked once per corpus; every row of it reads its column.
        columns, known = dev_columns if eval_id == "dev" else position_columns(lms, corpus)
        reports = [(c.id, score_corpus([column], corpus, config.oov_policy, known))
                   for c, column in zip(corpora, columns)]
        reports += [(model_id, perplexity(lm, corpus, config.oov_policy)) for model_id, lm in built]
        if len(lms) > 1:
            mix = partial(mix_log10, weights.lambdas)
            reports.append(("mixture", score_corpus(columns, corpus, config.oov_policy, known, mix)))
        ppl_lines += [_ppl_line(model_id, eval_id, report=report) for model_id, report in reports]
        if eval_id == "dev":  # the dev report of the model the LM part builds
            run.dev_report = reports[-1 if len(lms) > 1 else 0][1]
    run.write("ppl_report.tsv", "".join(ppl_lines))
    oov_lines = ["eval\toov_rate\n"]
    for eval_id, corpus in eval_sets:
        oov_lines.append(f"{eval_id}\t{oov_rate(vocab, corpus):.8f}\n")
    run.write("oov_report.tsv", "".join(oov_lines))


def _lexicon_part(run: _Run, config: PipelineConfig, sub: str):
    run.begin("lexicon-load")
    seed = lexg2p.load_lexicon(config.seed_lexicon)
    corpora = run.corpora()
    if config.word_list:
        wanted = read_text(config.word_list).split()
    else:
        wanted = [w for w, _ in word_frequencies(concatenate("all", corpora))]
    addon = lexg2p.load_lexicon(config.medical_lexicon) if config.medical_lexicon else None
    yield

    run.begin("g2p-train")
    (run.out_dir / sub).mkdir(exist_ok=True)
    model = lexg2p.train_g2p(
        seed,
        order=config.g2p_order,
        max_letters=config.g2p_max_letters,
        max_phones=config.g2p_max_phones,
        em_iters=config.g2p_em_iters,
    )
    lexg2p.save_g2p_model(model, run.path(sub + "g2p_model.json"))

    run.begin("extend")
    missing = [w for w in wanted if w not in seed.entries]
    extended, report = lexg2p.extend_lexicon(seed, missing, model, beam=config.g2p_beam)
    lexg2p.save_lexicon(extended, run.path(sub + "training_lexicon.tsv"))

    run.begin("merge-addon")
    final = extended
    if addon is not None:
        final = lexg2p.merge_lexicons(extended, addon, policy="union")
    lexg2p.save_lexicon(final, run.path(sub + "recognition_lexicon.tsv"))

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
    run.write(sub + "lexicon_report.txt", "\n".join(lines) + "\n")


def _dialect_part(run: _Run, config: PipelineConfig):
    """Before/after dev perplexity (and optional WER) for the dialect mapping.
    `before` is the LM part's dev report, so this part runs after that one."""
    run.begin("dialect-load")
    table = dialectmap.load_mapping(config.mapping)
    corpora = run.corpora()
    dev = run.load(config.dev, "dev")
    if config.refs:
        refs = scorer.read_trn(config.refs)
        hyps = scorer.read_trn(config.hyps)
    yield

    run.begin("dialect-eval")
    (run.out_dir / "dialect").mkdir(exist_ok=True)
    lines = ["condition\tsentences\tscored\toov\tlog10_sum\tppl\n",
             _ppl_line("before", report=run.dev_report),
             _ppl_line("after", report=_train_and_score(corpora, dev, config, table))]
    run.write("dialect/dialect_ppl.tsv", "".join(lines))

    if config.refs:
        run.begin("dialect-score")
        mapped_refs = {
            utt: tuple(table.pairs.get(t, t) for t in tokens)
            for utt, tokens in refs.items()
        }
        out = ["references\twer%\n"]
        out.append(f"original\t{100.0 * scorer.wer(refs, hyps).wer:.4f}\n")
        out.append(f"mapped\t{100.0 * scorer.wer(mapped_refs, hyps).wer:.4f}\n")
        run.write("dialect/dialect_wer.tsv", "".join(out))


def _train_and_score(corpora: list[Corpus], dev: Corpus, config: PipelineConfig,
                     table: dialectmap.MappingTable | None = None) -> PerplexityReport:
    """Dev perplexity of one model per corpus, EM-mixed when there are several.
    With `table`, the models train on the mapped corpora and score the mapped
    dev text, or the raw one if `map_eval_text` is false."""
    if table is not None:
        corpora = [dialectmap.apply_mapping(c, table) for c in corpora]
        dev = dialectmap.apply_mapping(dev, table) if config.map_eval_text else dev
    vocab = build_vocabulary(corpora, min_count=config.min_count, max_size=config.max_size)
    lms = train_lms(corpora, vocab, config.order)
    if len(lms) == 1:
        return perplexity(lms[0], dev, config.oov_policy)
    columns, known = position_columns(lms, dev)  # one walk serves EM and the report
    weights = em_columns(lms, columns, None, config.em_tol, config.em_max_iter)
    return score_corpus(columns, dev, config.oov_policy, known, partial(mix_log10, weights.lambdas))


def mapped_lm_eval(corpora: list[Corpus], dev: Corpus, table: dialectmap.MappingTable,
                   config: PipelineConfig) -> tuple[PerplexityReport, PerplexityReport]:
    """Dev perplexity before and after applying the dialect mapping, with the
    LM keys of `config`, as `dialect eval` reports it. Pass the corpora
    concatenated into one to train a single model. `pipeline run` trains only
    the `after` side: its `before` row is the LM part's dev report."""
    return _train_and_score(corpora, dev, config), _train_and_score(corpora, dev, config, table)
