"""Dialect-word normalization: candidate selection, mapping tables and their
application to text. The before/after LM comparison is
`asrlm.pipeline.mapped_lm_eval`."""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from asrlm.textcorpus import Corpus, Vocabulary, read_text, word_frequencies


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


def load_mapping(path: str | Path) -> MappingTable:
    """Read `dialect<TAB>standard[<TAB>note]` lines; `#` lines are comments.

    Lines end at a line feed only, and the carriage return of a CRLF ending
    is dropped. The dialect and standard sides are single words, so one that
    holds whitespace, such as another line separator like U+2028, is an error.
    """
    pairs: dict[str, str] = {}
    notes: dict[str, str] = {}
    for lineno, line in enumerate(read_text(path).split("\n"), 1):
        line = line.removesuffix("\r")
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        fields = line.split("\t")
        if len(fields) not in (2, 3) or any(f.split() != [f] for f in fields[:2]):
            raise MappingError(f"{path}:{lineno}: expected 'dialect<TAB>standard[<TAB>note]' "
                               "with one word on each side")
        if fields[0] in pairs:
            raise MappingError(f"{path}:{lineno}: duplicate key {fields[0]!r}")
        if fields[0] == fields[1]:
            raise MappingError(f"{path}:{lineno}: {fields[0]!r} maps to itself")
        pairs[fields[0]] = fields[1]
        if len(fields) == 3 and fields[2]:
            notes[fields[0]] = fields[2]
    return MappingTable(pairs=pairs, notes=notes)


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
