"""Dialect-word normalization: candidate selection, mapping, and LM comparison."""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from asrlm.mixture import em_weights, perplexity_mixture
from asrlm.ngramcore import count_ngrams, estimate_discounts, perplexity, train_mkn
from asrlm.ngramcore.evaluate import PerplexityReport
from asrlm.textcorpus import (
    Corpus, Vocabulary, build_vocabulary, concatenate, word_frequencies, write_text_atomic,
)


class MappingError(ValueError):
    """Malformed or inconsistent mapping table."""


@dataclass(frozen=True)
class MappingTable:
    """dialect word -> standard-form word, with a provenance note per pair.

    Keys are unique, no word maps to itself, and application is a single
    token-level pass: outputs are never re-mapped.
    """

    pairs: dict[str, str]
    notes: dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        for src, dst in self.pairs.items():
            if src == dst:
                raise MappingError(f"{src!r} maps to itself")
            if not src or not dst:
                raise MappingError("empty word in mapping")

    def __len__(self) -> int:
        return len(self.pairs)


def load_mapping(path: str | Path) -> MappingTable:
    """Read `dialect<TAB>standard[<TAB>note]` lines; `#` lines are comments.

    Lines end at a line feed only, and the carriage return of a CRLF ending
    is dropped. The dialect and standard sides are single words, so one that
    holds whitespace, such as another line separator like U+2028, is an error.
    """
    pairs: dict[str, str] = {}
    notes: dict[str, str] = {}
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").split("\n"), 1):
        line = line.removesuffix("\r")
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        fields = line.split("\t")
        if len(fields) not in (2, 3) or any(f.split() != [f] for f in fields[:2]):
            raise MappingError(f"{path}:{lineno}: expected 'dialect<TAB>standard[<TAB>note]' "
                               "with one word on each side")
        if fields[0] in pairs:
            raise MappingError(f"{path}:{lineno}: duplicate key {fields[0]!r}")
        pairs[fields[0]] = fields[1]
        if len(fields) == 3 and fields[2]:
            notes[fields[0]] = fields[2]
    return MappingTable(pairs=pairs, notes=notes)


def save_mapping(table: MappingTable, path: str | Path) -> None:
    lines = []
    for src in sorted(table.pairs):
        note = table.notes.get(src)
        suffix = f"\t{note}" if note else ""
        lines.append(f"{src}\t{table.pairs[src]}{suffix}\n")
    write_text_atomic(path, "".join(lines))


def select_candidates(
    dialect_corpus: Corpus,
    k: int,
    exclusion_vocab: Vocabulary,
) -> list[tuple[str, int]]:
    """Top-k frequent words of the dialect corpus absent from the exclusion
    vocabulary, as manual-mapping candidates."""
    if k < 1:
        raise ValueError("k must be >= 1")
    ranked = [
        (word, count)
        for word, count in word_frequencies(dialect_corpus)
        if word not in exclusion_vocab
    ]
    return ranked[:k]


def apply_mapping(corpus: Corpus, table: MappingTable) -> Corpus:
    """Single-pass exact-token substitution; sentence shapes are unchanged."""
    pairs = table.pairs
    sentences = tuple(
        tuple(pairs.get(tok, tok) for tok in sent) for sent in corpus.sentences
    )
    return Corpus(id=corpus.id, sentences=sentences)


@dataclass(frozen=True)
class DialectEvalConfig:
    order: int = 4
    interpolate: bool = True
    min_count: int = 1
    max_size: int | None = None
    oov_policy: str = "exclude"
    map_eval_text: bool = True
    em_tol: float = 1e-6
    em_max_iter: int = 100


def _train_and_score(train_corpora: list[Corpus], dev: Corpus, cfg: DialectEvalConfig) -> PerplexityReport:
    vocab = build_vocabulary(train_corpora, min_count=cfg.min_count, max_size=cfg.max_size)
    if not cfg.interpolate:
        train_corpora = [concatenate("all", train_corpora)]
    lms = [
        train_mkn(counts, estimate_discounts(counts))
        for counts in (count_ngrams(c, cfg.order, vocab) for c in train_corpora)
    ]
    if len(lms) == 1:
        return perplexity(lms[0], dev, oov_policy=cfg.oov_policy)
    weights = em_weights(lms, dev, tol=cfg.em_tol, max_iter=cfg.em_max_iter)
    return perplexity_mixture(lms, weights, dev, oov_policy=cfg.oov_policy)


def mapped_lm_eval(
    train_corpora: list[Corpus],
    dev: Corpus,
    table: MappingTable,
    config: DialectEvalConfig | None = None,
) -> tuple[PerplexityReport, PerplexityReport]:
    """Dev perplexity before and after applying the dialect mapping.

    The `after` run retrains on mapped corpora; by default the dev text is
    mapped too, since comparing models over different token distributions is
    ill-defined. Set `map_eval_text=False` to score the raw dev text against
    the mapped-text model instead.
    """
    cfg = config or DialectEvalConfig()
    before = _train_and_score(train_corpora, dev, cfg)
    mapped_train = [apply_mapping(c, table) for c in train_corpora]
    mapped_dev = apply_mapping(dev, table) if cfg.map_eval_text else dev
    after = _train_and_score(mapped_train, mapped_dev, cfg)
    return before, after
