"""Corpus ingestion, normalization, vocabulary construction and frequency counts."""

from __future__ import annotations

import os
import unicodedata
from dataclasses import dataclass, field
from pathlib import Path

UNK = "<unk>"
BOS = "<s>"
EOS = "</s>"
RESERVED = (UNK, BOS, EOS)

# A sentence is an immutable sequence of non-empty, whitespace-free tokens.
Sentence = tuple[str, ...]


class CorpusError(ValueError):
    """Unreadable or malformed corpus input."""


@dataclass(frozen=True)
class Corpus:
    """Normalized, tokenized text: one tuple of tokens per sentence."""

    id: str
    sentences: tuple[Sentence, ...]
    token_count: int = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "token_count", sum(len(s) for s in self.sentences))

    def __len__(self) -> int:
        return len(self.sentences)


def _strip_punctuation(token: str) -> str:
    return "".join(ch for ch in token if not unicodedata.category(ch).startswith("P"))


def normalize_line(line: str, lowercase: bool = False, strip_punct: bool = False) -> Sentence:
    """Apply the canonical normalization order: NFC, casing, punctuation, whitespace."""
    line = unicodedata.normalize("NFC", line)
    if lowercase:
        line = line.lower()
    tokens = line.split()
    if strip_punct:
        tokens = [_strip_punctuation(t) for t in tokens]
        tokens = [t for t in tokens if t]
    return tuple(tokens)


def load_corpus(
    path: str | Path,
    lowercase: bool = False,
    strip_punct: bool = False,
    corpus_id: str | None = None,
) -> Corpus:
    """Read a one-sentence-per-line UTF-8 text file into a Corpus.

    Empty lines are dropped. Reserved markers appearing as literal tokens are
    rejected: they may only be injected by the toolkit itself.
    """
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise CorpusError(f"cannot read corpus file {path}: {exc}") from exc
    sentences = []
    for lineno, chunk in enumerate(raw.split(b"\n"), start=1):
        try:
            line = chunk.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CorpusError(f"{path}:{lineno}: invalid UTF-8 ({exc.reason})") from exc
        sent = normalize_line(line, lowercase=lowercase, strip_punct=strip_punct)
        for tok in sent:
            if tok in RESERVED:
                raise CorpusError(f"{path}:{lineno}: reserved marker {tok!r} in input text")
        if sent:
            sentences.append(sent)
    return Corpus(id=corpus_id or path.stem, sentences=tuple(sentences))


def write_text_atomic(path: str | Path, text: str) -> None:
    """Write `text` as UTF-8 so that a killed process never leaves `path` half written.

    The text goes to a hidden sibling temp file that then replaces `path`; the
    new file gets the umask's mode. A symlink, or an existing target that is
    not a regular file (such as `/dev/stdout`), is written in place instead.
    """
    path = Path(path)
    if path.is_symlink() or (path.exists() and not path.is_file()):
        path.write_text(text, encoding="utf-8", newline="")
        return
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        fh = open(tmp, "x", encoding="utf-8", newline="")
    except OSError as exc:  # name the target, not the temp file
        raise OSError(exc.errno, exc.strerror, str(path)) from None
    try:
        with fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def save_corpus(corpus: Corpus, path: str | Path) -> None:
    """Write one sentence per line, single-space separated, LF endings."""
    text = "".join(" ".join(s) + "\n" for s in corpus.sentences)
    write_text_atomic(path, text)


def concatenate(corpus_id: str, corpora: list[Corpus]) -> Corpus:
    sents = []
    for c in corpora:
        sents.extend(c.sentences)
    return Corpus(id=corpus_id, sentences=tuple(sents))


def word_frequencies(corpus: Corpus) -> list[tuple[str, int]]:
    """Exact token counts, descending, ties broken lexicographically."""
    counts: dict[str, int] = {}
    for sent in corpus.sentences:
        for tok in sent:
            counts[tok] = counts.get(tok, 0) + 1
    return sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))


class Vocabulary:
    """Bijection between words and dense indices, reserved markers first.

    `<s>` is context-only and never predicted; `</s>` is a predicted token;
    `<unk>` stands in for every out-of-vocabulary word.
    """

    def __init__(self, words=()):
        ordered: list[str] = list(RESERVED)
        seen = set(ordered)
        for w in words:
            if w in seen:
                continue
            if not w or any(ch.isspace() for ch in w):
                raise ValueError(f"invalid vocabulary word: {w!r}")
            ordered.append(w)
            seen.add(w)
        self._words: tuple[str, ...] = tuple(ordered)
        self._index: dict[str, int] = {w: i for i, w in enumerate(ordered)}

    @property
    def words(self) -> tuple[str, ...]:
        return self._words

    def predicted_words(self) -> tuple[str, ...]:
        """All words that can carry probability mass (everything but `<s>`)."""
        return tuple(w for w in self._words if w != BOS)

    def __contains__(self, word: str) -> bool:
        return word in self._index

    def __len__(self) -> int:
        return len(self._words)

    def __eq__(self, other) -> bool:
        return isinstance(other, Vocabulary) and self._words == other._words

    def __hash__(self):
        return hash(self._words)

    def index(self, word: str) -> int:
        return self._index[word]

    def word(self, idx: int) -> str:
        return self._words[idx]

    def map_token(self, token: str) -> str:
        return token if token in self._index else UNK

    def save(self, path: str | Path) -> None:
        write_text_atomic(path, "".join(w + "\n" for w in self._words))

    @classmethod
    def load(cls, path: str | Path) -> "Vocabulary":
        """Read one word per line; blank lines are skipped.

        Lines end at a line feed only, and surrounding whitespace, such as the
        carriage return of a CRLF ending, is ignored. A line whose word holds
        whitespace, such as another line separator like U+2028, is an error.
        """
        words = []
        for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").split("\n"), 1):
            word = line.strip()
            if len(word.split()) > 1:
                raise ValueError(f"{path}:{lineno}: expected one word per line")
            if word:
                words.append(word)
        return cls(words)


def build_vocabulary(
    corpora: list[Corpus],
    min_count: int = 1,
    max_size: int | None = None,
) -> Vocabulary:
    """Select words with total count >= min_count, truncated to max_size.

    Ranking is by descending total count with lexicographic tie-break.
    Reserved markers are always included and occupy max_size slots.
    """
    if not corpora:
        raise ValueError("build_vocabulary requires at least one corpus")
    if min_count < 1:
        raise ValueError("min_count must be >= 1")
    if max_size is not None and max_size < len(RESERVED):
        raise ValueError(f"max_size must be >= {len(RESERVED)} to hold reserved markers")
    totals: dict[str, int] = {}
    for corpus in corpora:
        for word, count in word_frequencies(corpus):
            totals[word] = totals.get(word, 0) + count
    ranked = sorted(
        ((w, c) for w, c in totals.items() if c >= min_count),
        key=lambda kv: (-kv[1], kv[0]),
    )
    if max_size is not None:
        ranked = ranked[: max_size - len(RESERVED)]
    return Vocabulary(w for w, _ in ranked)
