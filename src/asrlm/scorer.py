"""Edit-distance alignment, WER/CER scoring and relative error-rate reduction."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from asrlm.textcorpus import read_text

# Backtrace preference at equal cost, best first.
_MATCH, _SUB, _DEL, _INS = "match", "sub", "del", "ins"


@dataclass(frozen=True, slots=True)
class EditAlignment:
    substitutions: int
    deletions: int
    insertions: int
    hits: int
    ref_length: int
    ops: tuple[tuple[str, str | None, str | None], ...]

    @property
    def errors(self) -> int:
        return self.substitutions + self.deletions + self.insertions


@dataclass(frozen=True)
class ScoreReport:
    """Aggregate and per-utterance alignment counts.

    The rate is computed over aggregate counts, (S+D+I)/N, never as a mean of
    per-utterance rates, and may exceed 1 when insertions dominate.
    """

    per_utterance: dict[str, EditAlignment]
    aggregate: EditAlignment
    wer: float | None = None
    cer: float | None = None
    missing_hyps: tuple[str, ...] = ()

    def rate(self) -> float:
        return self.wer if self.wer is not None else self.cer


def align(ref, hyp) -> EditAlignment:
    """Minimal unit-cost alignment of two token sequences.

    Among minimal-cost alignments the one with the fewest substitutions (most
    matches) is chosen, realized by minimizing (cost, substitutions)
    lexicographically; remaining ties during backtrace prefer match >
    substitution > deletion > insertion. This keeps alignments deterministic
    and makes swapping ref and hyp exchange deletions with insertions while
    preserving substitutions.

    Matched ends skip the dynamic program, which runs only on the middle
    that differs. A common suffix is always matched: when the last tokens are
    equal, the diagonal cell is at most either neighbour plus one unit, so
    the backtrace's match test fires first. A common prefix is matched only
    when none of its tokens occurs again in the middles. Otherwise the
    backtrace may match a prefix token with a later copy of it: `("a", "a",
    "b")` against `("a",)` aligns as deletion, match, deletion. With no
    recurrence, a backtrace that reaches the prefix can only delete or insert
    up to it, as the program on the middles alone does.
    """
    ref = tuple(ref)
    hyp = tuple(hyp)
    n, m = len(ref), len(hyp)
    short = n if n < m else m
    tail = 0
    while tail < short and ref[-1 - tail] == hyp[-1 - tail]:
        tail += 1
    head = 0
    while head < short - tail and ref[head] == hyp[head]:
        head += 1
    core_ref, core_hyp = ref, hyp
    if head or tail:
        core_ref, core_hyp = ref[head:n - tail], hyp[head:m - tail]
        for t in ref[:head]:
            if t in core_ref or t in core_hyp:
                head = 0
                core_ref, core_hyp = ref[:n - tail], hyp[:m - tail]
                break
    ci, cj = len(core_ref), len(core_hyp)
    # Pack (cost, substitutions) into one int; subs can never reach BIG.
    big = ci + cj + 1
    sub = big + 1
    row = list(range(0, (cj + 1) * big, big))
    dist = [row]
    for r in core_ref:
        # Each cell is min(diag, up + big, left + big); `left` carries the
        # cell just computed into the next column.
        prev = row
        left = prev[0] + big
        row = [left]
        j = 0
        for y in core_hyp:
            diag = prev[j]
            if r != y:
                diag += sub
            j += 1
            up = prev[j]
            if up < left:
                left = up
            left += big
            if diag < left:
                left = diag
            row.append(left)
        dist.append(row)
    # Built back to front: the suffix, the middle, then the prefix.
    ops: list[tuple[str, str | None, str | None]] = (
        [(_MATCH, ref[-k], hyp[-k]) for k in range(1, tail + 1)] if tail else [])
    i, j = ci, cj
    s = 0
    h = head + tail
    while i and j:
        # Step back diagonally; a deletion or an insertion undoes half the step.
        i -= 1
        j -= 1
        r, y = core_ref[i], core_hyp[j]
        here, above = dist[i + 1][j + 1], dist[i]
        if r == y:
            if here == above[j]:
                ops.append((_MATCH, r, y))
                h += 1
                continue
        elif here == above[j] + sub:
            ops.append((_SUB, r, y))
            s += 1
            continue
        if here == above[j + 1] + big:
            ops.append((_DEL, r, None))
            j += 1
        else:
            ops.append((_INS, None, y))
            i += 1
    while i:
        i -= 1
        ops.append((_DEL, core_ref[i], None))
    while j:
        j -= 1
        ops.append((_INS, None, core_hyp[j]))
    if head:
        ops += [(_MATCH, ref[k], hyp[k]) for k in range(head - 1, -1, -1)]
    ops.reverse()
    return EditAlignment(
        substitutions=s,
        deletions=n - h - s,
        insertions=m - h - s,
        hits=h,
        ref_length=n,
        ops=tuple(ops),
    )


def _report(refs: dict, hyps: dict, transform, rate_field: str) -> ScoreReport:
    """Align every reference with its hypothesis (after `transform`) and put
    the aggregate error rate in `rate_field` of the report."""
    unknown = sorted(set(hyps) - set(refs))
    if unknown:
        raise ValueError(f"hypothesis ids without a reference: {unknown}")
    per_utt: dict[str, EditAlignment] = {}
    missing = []
    for utt_id in sorted(refs):
        ref = transform(refs[utt_id])
        if utt_id in hyps:
            hyp = transform(hyps[utt_id])
        else:
            hyp = ()
            missing.append(utt_id)
        per_utt[utt_id] = align(ref, hyp)
    alignments = per_utt.values()
    total = EditAlignment(
        substitutions=sum(a.substitutions for a in alignments),
        deletions=sum(a.deletions for a in alignments),
        insertions=sum(a.insertions for a in alignments),
        hits=sum(a.hits for a in alignments),
        ref_length=sum(a.ref_length for a in alignments),
        ops=tuple(op for a in alignments for op in a.ops),
    )
    if total.ref_length == 0:
        raise ValueError("total reference length is zero")
    return ScoreReport(
        per_utterance=per_utt,
        aggregate=total,
        missing_hyps=tuple(missing),
        **{rate_field: total.errors / total.ref_length},
    )


def wer(refs: dict, hyps: dict) -> ScoreReport:
    """Word error rate over a keyed set of utterances.

    A reference without a hypothesis is scored against the empty sequence
    (all deletions) and listed in the report.
    """
    return _report(refs, hyps, tuple, "wer")


def cer(refs: dict, hyps: dict) -> ScoreReport:
    """Character error rate: tokens are joined without separators before
    character-level alignment, so segmentation differences cost nothing."""
    return _report(refs, hyps, lambda tokens: tuple("".join(tokens)), "cer")


def relative_reduction(base: float, improved: float) -> float:
    """Percent reduction 100*(base - improved)/base; negative when worse."""
    if base <= 0:
        raise ValueError("base rate must be positive")
    return 100.0 * (base - improved) / base


def read_trn(path: str | Path) -> dict[str, tuple[str, ...]]:
    """Read `utt_id<TAB>token token ...` lines; duplicate ids and invalid
    UTF-8 are errors at `path:line`.

    Lines end at a line feed only. The carriage return of a CRLF ending is
    whitespace to the token split; any other line separator, such as U+2028,
    stays inside its line.
    """
    out: dict[str, tuple[str, ...]] = {}
    for lineno, line in enumerate(read_text(path).split("\n"), 1):
        if not line.strip():
            continue
        fields = line.split("\t")
        if len(fields) != 2 or not fields[0]:
            raise ValueError(f"{path}:{lineno}: expected 'utt_id<TAB>tokens'")
        if fields[0] in out:
            raise ValueError(f"{path}:{lineno}: duplicate utterance id {fields[0]!r}")
        out[fields[0]] = tuple(fields[1].split())
    return out


def format_report(report: ScoreReport, label: str = "wer") -> str:
    """Human-readable per-utterance and aggregate table. An utterance with an
    empty reference has no rate; its rate column reads `-`."""
    lines = [f"utt_id\tS\tD\tI\tN\t{label}%"]
    for utt_id in sorted(report.per_utterance):
        a = report.per_utterance[utt_id]
        rate = f"{100.0 * a.errors / a.ref_length:.2f}" if a.ref_length else "-"
        lines.append(
            f"{utt_id}\t{a.substitutions}\t{a.deletions}\t{a.insertions}\t{a.ref_length}\t{rate}"
        )
    a = report.aggregate
    lines.append(
        f"TOTAL\t{a.substitutions}\t{a.deletions}\t{a.insertions}\t{a.ref_length}\t{100.0 * report.rate():.2f}"
    )
    if report.missing_hyps:
        lines.append("missing hypotheses: " + " ".join(report.missing_hyps))
    return "\n".join(lines) + "\n"
