"""ARPA back-off file reading and writing.

Format: `\\data\\` header with `ngram k=COUNT` lines, one `\\k-grams:` section
per order with `LOGPROB<TAB>w1 .. wk[<TAB>LOGBACKOFF]` entries, `\\end\\`
footer; only blank lines may follow the footer. UTF-8, LF endings, log10
values at 7 significant digits. The back-off field is omitted at the
highest order and for n-grams ending in `</s>`.
"""

from __future__ import annotations

import math
from pathlib import Path

from asrlm.ngramcore.model import BackoffLM, Entry, NGram
from asrlm.textcorpus import EOS, Vocabulary, write_text_atomic


class ArpaError(ValueError):
    """Malformed ARPA file."""

    def __init__(self, path, lineno, message):
        super().__init__(f"{path}:{lineno}: {message}")
        self.lineno = lineno


def _non_finite(path, k: int, gram: NGram, field: str, value: float) -> ValueError:
    return ValueError(f"{path}: {k}-gram {' '.join(gram)!r} has non-finite {field} "
                      f"{value!r}; no file written")


def write_arpa(lm: BackoffLM, path: str | Path) -> None:
    """Write `lm` as an ARPA file. A non-finite log-prob or back-off weight,
    which `read_arpa` would refuse, is a ValueError naming its order and
    n-gram, and no file is written."""
    lines = ["\\data\\"]
    for k in range(1, lm.order + 1):
        lines.append(f"ngram {k}={len(lm.tables[k])}")
    lines.append("")
    for k in range(1, lm.order + 1):
        lines.append(f"\\{k}-grams:")
        table = lm.tables[k]
        for gram in sorted(table):
            logp, bow = table[gram]
            # Adding 0.0 writes -0.0 as "0". A finite value's text ends in a
            # digit; "nan", "inf" and "-inf" end in a letter, above "9".
            text = f"{logp + 0.0:.7g}"
            if text[-1] > "9":
                raise _non_finite(path, k, gram, "log-prob", logp)
            line = f"{text}\t{' '.join(gram)}"
            if k < lm.order and gram[-1] != EOS and bow is not None:
                text = f"{bow + 0.0:.7g}"
                if text[-1] > "9":
                    raise _non_finite(path, k, gram, "back-off weight", bow)
                line += f"\t{text}"
            lines.append(line)
        lines.append("")
    lines.append("\\end\\")
    write_text_atomic(path, "\n".join(lines) + "\n")


def read_arpa(path: str | Path) -> BackoffLM:
    path = Path(path)
    declared: dict[int, int] = {}
    tables: dict[int, dict[NGram, Entry]] = {}
    state = "preamble"
    current_k = 0
    lines = path.read_text(encoding="utf-8").split("\n")
    for lineno, line in enumerate(lines, start=1):
        line = line.rstrip("\r")
        if state == "preamble":
            if line.strip() == "\\data\\":
                state = "counts"
            continue
        if state == "done":
            if line.strip():
                raise ArpaError(path, lineno, f"text after \\end\\: {line!r}")
            continue
        if state in ("counts", "entries") and line.startswith("\\") and line.endswith("-grams:"):
            try:
                current_k = int(line[1:-len("-grams:")])
            except ValueError as exc:
                raise ArpaError(path, lineno, f"bad section header {line!r}") from exc
            if current_k not in declared:
                raise ArpaError(path, lineno, f"section {current_k} not declared in header")
            if current_k in tables:
                raise ArpaError(path, lineno, f"repeated section header {line!r}")
            tables[current_k] = {}
            state = "entries"
            continue
        if state == "counts":
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
        if state == "entries":
            if not line.strip():
                continue
            if line.strip() == "\\end\\":
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
            if len(gram) != current_k or any(not w for w in gram):
                raise ArpaError(path, lineno, f"expected a {current_k}-gram, got {fields[1]!r}")
            bow: float | None = None
            if len(fields) == 3:
                try:
                    bow = float(fields[2])
                except ValueError as exc:
                    raise ArpaError(path, lineno, f"bad back-off weight {fields[2]!r}") from exc
                if not math.isfinite(bow):
                    raise ArpaError(path, lineno, f"back-off weight {fields[2]!r} is not finite")
            if gram in tables[current_k]:
                raise ArpaError(path, lineno, f"duplicate n-gram {fields[1]!r}")
            tables[current_k][gram] = (logp, bow)
            continue
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
    return BackoffLM(order=order, tables=tables, vocab=vocab, metadata={"source": str(path)})
