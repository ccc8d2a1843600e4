"""ARPA back-off file reading and writing.

Format: `\\data\\` header with `ngram k=COUNT` lines, one `\\k-grams:` section
per order with `LOGPROB<TAB>w1 .. wk[<TAB>LOGBACKOFF]` entries, `\\end\\`
footer; only blank lines may follow the footer. UTF-8, LF endings, log10
values at 7 significant digits. The back-off field is omitted at the
highest order and for n-grams ending in `</s>`. Every word of a longer
n-gram has a unigram entry (a leading `<s>` may lack one), and the context
of every k-gram, k > 2, is a (k-1)-gram entry: the prefix rule. Reading
accepts a section's n-grams in any order; writing emits them in sorted
gram order, the order of every `BackoffLM` table.
"""

from __future__ import annotations

import math
from itertools import islice
from pathlib import Path

from asrlm.ngramcore.model import BackoffLM, NGram
from asrlm.textcorpus import BOS, EOS, Vocabulary, read_text, write_text_atomic


class ArpaError(ValueError):
    """Malformed ARPA file."""

    def __init__(self, path, lineno, message):
        super().__init__(f"{path}:{lineno}: {message}")
        self.lineno = lineno


# Lines per chunk handed to the writer: bounds the text held at once.
_CHUNK_LINES = 1024


def write_arpa(lm: BackoffLM, path: str | Path) -> None:
    """Write `lm` as an ARPA file, streamed in chunks of `_CHUNK_LINES` lines.
    A non-finite log-prob or back-off weight, which `read_arpa` would refuse,
    is a ValueError naming its order and n-gram, and no file is written."""
    write_text_atomic(path, _arpa_chunks(lm, path))


def _arpa_chunks(lm: BackoffLM, path: str | Path):
    orders = range(1, lm.order + 1)
    yield "".join(["\\data\\\n", *[f"ngram {k}={len(lm.tables[k])}\n" for k in orders], "\n"])
    for k in orders:
        table = lm.tables[k]
        # The weights written: none at the top order or on a `</s>`-final gram,
        # which each line tests rather than copying the rest.
        bows = {} if k == lm.order else lm.backoffs[k]
        if not (all(map(math.isfinite, table.values())) and all(
                math.isfinite(bow) or gram[-1] == EOS for gram, bow in bows.items())):
            for gram in table:  # the first non-finite value written, in file order
                for field, value in (("log-prob", table[gram]), ("back-off weight",
                                     bows.get(gram, 0.0) if gram[-1] != EOS else 0.0)):
                    if not math.isfinite(value):
                        raise ValueError(f"{path}: {k}-gram {' '.join(gram)!r} has non-finite "
                                         f"{field} {value!r}; no file written")
        yield f"\\{k}-grams:\n"
        grams = iter(table)  # in sorted gram order, a `BackoffLM` invariant
        while chunk := list(islice(grams, _CHUNK_LINES)):
            # Adding 0.0 writes -0.0 as "0".
            yield "".join([f"{table[g] + 0.0:.7g}\t{' '.join(g)}\t{bows[g] + 0.0:.7g}\n"
                           if g in bows and g[-1] != EOS else f"{table[g] + 0.0:.7g}\t{' '.join(g)}\n"
                           for g in chunk])
        yield "\n"
    yield "\\end\\\n"


def read_arpa(path: str | Path) -> BackoffLM:
    path = Path(path)
    declared: dict[int, int] = {}
    tables: dict[int, dict[NGram, float]] = {}
    backoffs: dict[int, dict[NGram, float]] = {}
    state = "preamble"
    current_k = 0
    lines = read_text(path).split("\n")
    for lineno, line in enumerate(lines, start=1):
        line = line.rstrip("\r")
        header = line.startswith("\\") and line.endswith("-grams:")
        # Entry lines are nearly all the lines, so their state is tested first.
        if state == "entries" and not header:
            stripped = line.strip()
            if not stripped:
                continue
            if stripped == "\\end\\":
                state = "done"
                continue
            fields = line.split("\t")
            if len(fields) not in (2, 3):
                raise ArpaError(path, lineno, f"expected 2 or 3 tab-separated fields, got {len(fields)}")
            try:
                logp = float(fields[0])
            except ValueError as exc:
                raise ArpaError(path, lineno, f"bad log-probability {fields[0]!r}") from exc
            if not math.isfinite(logp) or logp > 0.0:
                raise ArpaError(path, lineno, f"log-probability {fields[0]!r} is not a finite value <= 0")
            gram = tuple(fields[1].split(" "))
            if len(gram) != current_k or "" in gram:
                raise ArpaError(path, lineno, f"expected a {current_k}-gram, got {fields[1]!r}")
            if current_k > 1 and not words.issuperset(gram) and not (
                    gram[0] == BOS and words.issuperset(gram[1:])):  # `<s>` may lead
                word = next(w for w in gram[gram[0] == BOS:] if w not in words)
                raise ArpaError(path, lineno, f"word {word!r} of {fields[1]!r} has no unigram entry")
            if current_k > 2 and gram[:-1] not in tables[current_k - 1]:  # the prefix rule
                raise ArpaError(path, lineno, f"context {' '.join(gram[:-1])!r} of {fields[1]!r} "
                                              f"has no {current_k - 1}-gram entry")
            if len(fields) == 3:
                try:
                    bow = float(fields[2])
                except ValueError as exc:
                    raise ArpaError(path, lineno, f"bad back-off weight {fields[2]!r}") from exc
                if not math.isfinite(bow):
                    raise ArpaError(path, lineno, f"back-off weight {fields[2]!r} is not finite")
                backoffs.setdefault(current_k, {})[gram] = bow  # a duplicate raises below
            if gram in tables[current_k]:
                raise ArpaError(path, lineno, f"duplicate n-gram {fields[1]!r}")
            tables[current_k][gram] = logp
            continue
        if state == "preamble":
            if line.strip() == "\\data\\":
                state = "counts"
            continue
        if state == "done":
            if line.strip():
                raise ArpaError(path, lineno, f"text after \\end\\: {line!r}")
            continue
        if state == "counts" and not header:
            if not line.strip():
                continue
            if not line.startswith("ngram "):
                raise ArpaError(path, lineno, f"expected 'ngram k=COUNT' or a section header, got {line!r}")
            try:
                k_str, count_str = line[len("ngram "):].split("=")
                declared[int(k_str)] = int(count_str)
            except ValueError as exc:
                raise ArpaError(path, lineno, f"bad count line {line!r}") from exc
            continue
        # A section header, in the counts or the entries state.
        try:
            current_k = int(line[1:-len("-grams:")])
        except ValueError as exc:
            raise ArpaError(path, lineno, f"bad section header {line!r}") from exc
        if current_k not in declared:
            raise ArpaError(path, lineno, f"section {current_k} not declared in header")
        if current_k in tables:
            raise ArpaError(path, lineno, f"repeated section header {line!r}")
        if current_k != len(tables) + 1:  # so the unigrams are all read before any longer gram
            raise ArpaError(path, lineno, f"section {current_k} out of order, expected section {len(tables) + 1}")
        tables[current_k] = {}
        words = {w for (w,) in tables.get(1, ())}
        state = "entries"
    if state != "done":
        raise ArpaError(path, len(lines), "missing \\end\\ footer")
    if not declared:
        raise ArpaError(path, len(lines), "missing \\data\\ header")
    order = max(declared)
    for k in range(1, order + 1):
        if k not in declared:
            raise ArpaError(path, len(lines), f"missing 'ngram {k}=' declaration")
        actual = len(tables.get(k, {}))
        if actual != declared[k]:
            raise ArpaError(
                path, len(lines),
                f"header declares ngram {k}={declared[k]} but section has {actual} entries",
            )
    vocab = Vocabulary(w for (w,) in sorted(tables.get(1, {})))
    return BackoffLM(order=order, tables=tables, vocab=vocab, metadata={"source": str(path)},
                     backoffs=backoffs)
