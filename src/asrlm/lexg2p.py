"""Pronunciation lexica and joint-sequence grapheme-to-phoneme models.

A graphone pairs a short grapheme segment with a short phoneme segment; a
word's pronunciation is generated by a sequence of graphones whose grapheme
sides concatenate to its spelling. Training runs EM over the latent
segmentation of each lexicon entry with an n-gram model over graphone
sequences; decoding is a beam search over segmentations.
"""

from __future__ import annotations

import heapq
import json
import logging
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

from asrlm.textcorpus import write_text_atomic

log = logging.getLogger(__name__)

BOS_ID = -1
EOS_ID = -2


class LexiconError(ValueError):
    """Malformed lexicon input or incompatible phoneme inventories."""


class G2PError(ValueError):
    """Word cannot be converted by the model."""


class Graphone(NamedTuple):
    graphemes: str
    phonemes: tuple[str, ...]


@dataclass(frozen=True)
class Lexicon:
    """word -> ordered pronunciations, each a tuple of inventory symbols."""

    entries: dict[str, tuple[tuple[str, ...], ...]]
    inventory: frozenset[str]

    def __post_init__(self):
        for word, prons in self.entries.items():
            for pron in prons:
                if not pron:
                    raise LexiconError(f"empty pronunciation for {word!r}")
                bad = [p for p in pron if p not in self.inventory]
                if bad:
                    raise LexiconError(f"{word!r}: symbols outside inventory: {sorted(set(bad))}")

    def __len__(self) -> int:
        return len(self.entries)

    def words(self) -> set[str]:
        return set(self.entries)


def _dedup(prons) -> tuple[tuple[str, ...], ...]:
    seen: dict[tuple[str, ...], None] = {}
    for p in prons:
        seen.setdefault(tuple(p))
    return tuple(seen.keys())


def make_lexicon(pairs, inventory=None) -> Lexicon:
    """Build a Lexicon from (word, pronunciation) pairs, deduplicating."""
    entries: dict[str, list[tuple[str, ...]]] = {}
    for word, pron in pairs:
        entries.setdefault(word, []).append(tuple(pron))
    if inventory is None:
        inventory = frozenset(p for prons in entries.values() for pron in prons for p in pron)
    return Lexicon(
        entries={w: _dedup(ps) for w, ps in entries.items()},
        inventory=frozenset(inventory),
    )


def load_lexicon(path: str | Path, inventory=None) -> Lexicon:
    """Read `word<TAB>ph1 ph2 ...` lines; repeated words add pronunciations."""
    pairs = []
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        if not line.strip():
            continue
        fields = line.split("\t")
        if len(fields) != 2 or not fields[0] or not fields[1].split():
            raise LexiconError(f"{path}:{lineno}: expected 'word<TAB>phonemes'")
        pairs.append((fields[0], tuple(fields[1].split())))
    return make_lexicon(pairs, inventory=inventory)


def save_lexicon(lexicon: Lexicon, path: str | Path) -> None:
    lines = []
    for word in sorted(lexicon.entries):
        for pron in lexicon.entries[word]:
            lines.append(f"{word}\t{' '.join(pron)}\n")
    write_text_atomic(path, "".join(lines))


def load_inventory(path: str | Path) -> frozenset[str]:
    symbols = [s for s in Path(path).read_text(encoding="utf-8").split() if s]
    return frozenset(symbols)


def merge_lexicons(base: Lexicon, addon: Lexicon, policy: str = "union", symbol_map=None) -> Lexicon:
    """Combine two lexica.

    `union` keeps all pronunciations of shared words; `addon_wins` and
    `base_wins` keep only that side's pronunciations for shared words. The
    addon must use the base inventory, possibly through `symbol_map`.
    """
    if policy not in ("union", "addon_wins", "base_wins"):
        raise ValueError(f"unknown merge policy {policy!r}")
    mapped = addon.entries
    if symbol_map:
        mapped = {
            w: _dedup(tuple(symbol_map.get(p, p) for p in pron) for pron in prons)
            for w, prons in addon.entries.items()
        }
    foreign = {
        p for prons in mapped.values() for pron in prons for p in pron
    } - base.inventory
    if foreign:
        raise LexiconError(
            f"addon uses symbols outside the base inventory: {sorted(foreign)}; "
            "provide a symbol mapping"
        )
    entries: dict[str, tuple[tuple[str, ...], ...]] = dict(base.entries)
    for word, prons in mapped.items():
        if word not in entries:
            entries[word] = prons
        elif policy == "union":
            entries[word] = _dedup(entries[word] + prons)
        elif policy == "addon_wins":
            entries[word] = prons
        # base_wins: keep existing entry
    merged = Lexicon(entries=entries, inventory=base.inventory)
    log.info(
        "merged lexica (%s): base=%d addon=%d result=%d entries",
        policy, len(base), len(addon), len(merged),
    )
    return merged


@dataclass
class JointSequenceModel:
    """Graphone n-gram model: inventory plus expected n-gram counts.

    Conditionals are evaluated with interpolated absolute discounting over
    the expected counts, backing off to shorter graphone histories and
    finally to a uniform distribution over the inventory plus the end marker,
    so every graphone sequence over the inventory has positive probability.

    `__post_init__` derives a per-context back-off table for each order,
    context -> (count total, gamma), where gamma is the discounted mass over
    the total. It holds only contexts with a positive total; any other
    context passes the lower-order value through unchanged. It also indexes
    graphone ids by grapheme side and freezes the set of letters the
    inventory covers.
    """

    order: int
    max_letters: int
    max_phones: int
    min_letters: int
    min_phones: int
    graphones: tuple[Graphone, ...]
    counts: dict[int, dict[tuple[int, ...], float]]
    discount: float
    log10_likelihood_trace: tuple[float, ...] = ()
    training_report: dict = field(default_factory=dict)

    def __post_init__(self):
        self._contexts: dict[int, dict[tuple[int, ...], tuple[float, float]]] = {}
        for k in range(1, self.order + 1):
            denoms: dict[tuple[int, ...], float] = {}
            gnum: dict[tuple[int, ...], float] = {}
            for gram, c in self.counts.get(k, {}).items():
                ctx = gram[:-1]
                denoms[ctx] = denoms.get(ctx, 0.0) + c
                gnum[ctx] = gnum.get(ctx, 0.0) + min(self.discount, c)
            self._contexts[k] = {
                ctx: (denom, gnum[ctx] / denom) for ctx, denom in denoms.items() if denom > 0.0
            }
        self._uniform = 1.0 / (len(self.graphones) + 1)
        self.by_grapheme: dict[str, list[int]] = {}
        for gid, g in enumerate(self.graphones):
            self.by_grapheme.setdefault(g.graphemes, []).append(gid)
        self.letters = frozenset(ch for g in self.graphones for ch in g.graphemes)

    def start_history(self) -> tuple[int, ...]:
        return (BOS_ID,) * (self.order - 1)

    def shift(self, history: tuple[int, ...], gid: int) -> tuple[int, ...]:
        if self.order == 1:
            return ()
        return (history + (gid,))[-(self.order - 1):]

    def cond_prob(self, gid: int, history: tuple[int, ...]) -> float:
        """p(graphone or EOS | history) with absolute-discount back-off."""
        ctx = history[-(self.order - 1):] if self.order > 1 else ()
        return self._cond_list(ctx, (gid,), {})[0]

    def _cond_list(self, ctx: tuple[int, ...], gids, memo: dict) -> list[float]:
        """p(gid | ctx) for every gid in `gids`, built from the lower order up.

        `memo` maps each context suffix already evaluated to its list, so it
        may only be shared between calls that pass the same `gids`.
        """
        probs = memo.get(ctx)
        if probs is not None:
            return probs
        k = len(ctx) + 1
        lower = self._cond_list(ctx[1:], gids, memo) if k > 1 else [self._uniform] * len(gids)
        stats = self._contexts[k].get(ctx)
        if stats is None:
            probs = lower
        else:
            denom, gamma = stats
            table = self.counts[k]
            d = self.discount
            probs = []
            for gid, low in zip(gids, lower):
                probs.append(max(table.get(ctx + (gid,), 0.0) - d, 0.0) / denom + gamma * low)
        memo[ctx] = probs
        return probs

    def cond_log10(self, gid: int, history: tuple[int, ...]) -> float:
        return math.log10(self.cond_prob(gid, history))

    def sequence_log10(self, gids) -> float:
        """log10 joint probability of a complete graphone sequence plus EOS."""
        hist = self.start_history()
        total = 0.0
        for gid in gids:
            total += self.cond_log10(gid, hist)
            hist = self.shift(hist, gid)
        return total + self.cond_log10(EOS_ID, hist)


def _segmentation_lattice(word, pron, max_letters, max_phones, min_letters, min_phones):
    """Cells (i, j) on complete segmentation paths and the pieces between them.

    Returns (cells, edges) where edges maps (i, j) to a list of
    ((graphemes, phonemes), (i2, j2)) moves, or None when the entry cannot be
    segmented within the size limits.
    """
    n, m = len(word), len(pron)
    forward = {(0, 0)}
    for i in range(n + 1):
        for j in range(m + 1):
            if (i, j) not in forward:
                continue
            for lg in range(min_letters, max_letters + 1):
                if i + lg > n:
                    break
                for lp in range(min_phones, max_phones + 1):
                    if j + lp > m:
                        break
                    if lg == 0 and lp == 0:
                        continue
                    forward.add((i + lg, j + lp))
    if (n, m) not in forward:
        return None
    backward = {(n, m)}
    for i in range(n, -1, -1):
        for j in range(m, -1, -1):
            if (i, j) not in backward:
                continue
            for lg in range(min_letters, max_letters + 1):
                if i - lg < 0:
                    break
                for lp in range(min_phones, max_phones + 1):
                    if j - lp < 0:
                        break
                    if lg == 0 and lp == 0:
                        continue
                    if (i - lg, j - lp) in forward:
                        backward.add((i - lg, j - lp))
    cells = forward & backward
    if (0, 0) not in cells:
        return None
    edges: dict[tuple[int, int], list] = {}
    for (i, j) in sorted(cells):
        moves = []
        for lg in range(min_letters, max_letters + 1):
            for lp in range(min_phones, max_phones + 1):
                if lg == 0 and lp == 0:
                    continue
                tgt = (i + lg, j + lp)
                if tgt in cells:
                    moves.append(((word[i : i + lg], tuple(pron[j : j + lp])), tgt))
        edges[(i, j)] = moves
    return cells, edges


class _MLParams:
    """Maximum-likelihood conditionals over full-length histories (EM use only)."""

    def __init__(self, order: int, n_graphones: int, top_counts=None):
        self.order = order
        self.uniform = 1.0 / (n_graphones + 1)
        if top_counts is None:
            self.probs = None
        else:
            denoms: dict[tuple[int, ...], float] = {}
            for gram, c in top_counts.items():
                denoms[gram[:-1]] = denoms.get(gram[:-1], 0.0) + c
            self.probs = {
                gram: c / denoms[gram[:-1]] for gram, c in top_counts.items()
            }

    def prob(self, gid: int, history: tuple[int, ...]) -> float:
        if self.probs is None:
            return self.uniform
        return self.probs.get(history + (gid,), 0.0)


def train_g2p(
    lexicon: Lexicon,
    order: int = 3,
    max_letters: int = 2,
    max_phones: int = 2,
    em_iters: int = 5,
    min_letters: int = 1,
    min_phones: int = 1,
    discount: float = 0.5,
) -> JointSequenceModel:
    """EM training over latent graphone segmentations.

    The E-step sums over every segmentation within the size limits by
    forward-backward dynamic programming over (letters consumed, phonemes
    consumed, graphone history); the M-step re-estimates the graphone n-gram
    by maximum likelihood, so the training log-likelihood never decreases.
    Entries that cannot be segmented within the limits are reported and
    skipped.
    """
    if len(lexicon) == 0:
        raise ValueError("lexicon is empty")
    if order < 1 or max_letters < 1 or max_phones < 1:
        raise ValueError("order, max_letters and max_phones must be >= 1")
    if min_letters < 0 or min_phones < 0 or (min_letters == 0 and min_phones == 0):
        raise ValueError("graphone sides may not both be allowed empty")

    entry_list = []
    skipped = []
    inventory: dict[Graphone, None] = {}
    piece_edges = []
    for word in sorted(lexicon.entries):
        for pron in lexicon.entries[word]:
            lattice = _segmentation_lattice(
                word, pron, max_letters, max_phones, min_letters, min_phones
            )
            if lattice is None:
                skipped.append((word, pron, "no segmentation within size limits"))
                continue
            entry_list.append((word, pron))
            piece_edges.append(lattice[1])
            for moves in lattice[1].values():
                for (graphemes, phonemes), _ in moves:
                    inventory.setdefault(Graphone(graphemes, phonemes))
    if skipped:
        log.warning("skipped %d unsegmentable lexicon entries", len(skipped))
    if not entry_list:
        raise ValueError("no lexicon entry can be segmented within the size limits")
    graphones = tuple(sorted(inventory, key=lambda g: (g.graphemes, g.phonemes)))
    gid_of = {g: i for i, g in enumerate(graphones)}
    # Per entry, the lattice edges with graphone ids: cell -> [(gid, target cell)].
    lattices = [
        {cell: [(gid_of[Graphone(*piece)], tgt) for piece, tgt in moves]
         for cell, moves in edges.items()}
        for edges in piece_edges
    ]
    hist0 = (BOS_ID,) * (order - 1)

    def run_e_step(params):
        """One forward-backward pass; returns (log10 likelihood, expected counts)."""
        expected: dict[int, dict[tuple[int, ...], float]] = {
            k: {} for k in range(1, order + 1)
        }
        total_ll = 0.0
        for (word, pron), edges in zip(entry_list, lattices):
            end = (len(word), len(pron))
            # Discover states ((i, j), history) reachable under positive
            # transition probabilities. Sorting states by (cell, history) is
            # a topological order: every move strictly advances the cell.
            start = ((0, 0), hist0)
            states = [start]
            seen = {start}
            transitions = []  # (src_state, gid, dst_state, prob)
            idx = 0
            while idx < len(states):
                state = states[idx]
                idx += 1
                cell, hist = state
                for gid, tgt in edges.get(cell, ()):
                    p = params.prob(gid, hist)
                    if p <= 0.0:
                        continue
                    nhist = (hist + (gid,))[-(order - 1):] if order > 1 else ()
                    nstate = (tgt, nhist)
                    transitions.append((state, gid, nstate, p))
                    if nstate not in seen:
                        seen.add(nstate)
                        states.append(nstate)
            order_states = sorted(states)
            trans_by_src: dict = {}
            for tr in transitions:
                trans_by_src.setdefault(tr[0], []).append(tr)
            alpha = {s: 0.0 for s in order_states}
            alpha[start] = 1.0
            for s in order_states:
                a = alpha[s]
                if a == 0.0:
                    continue
                for _, gid, dst, p in trans_by_src.get(s, ()):
                    alpha[dst] += a * p
            z = 0.0
            final = []
            for s in order_states:
                if s[0] != end:
                    continue
                p_end = params.prob(EOS_ID, s[1])
                if p_end > 0.0 and alpha[s] > 0.0:
                    z += alpha[s] * p_end
                    final.append((s, p_end))
            if z <= 0.0:
                # Every path died under the current parameters; cannot happen
                # after a uniform first iteration.
                raise ArithmeticError(f"entry {word!r} has zero likelihood")
            total_ll += math.log10(z)
            # Backward pass; beta of an end state starts at its EOS factor.
            beta = {s: 0.0 for s in order_states}
            for s, p_end in final:
                beta[s] = p_end
            for s in reversed(order_states):
                acc = beta[s]
                for _, gid, dst, p in trans_by_src.get(s, ()):
                    acc += p * beta[dst]
                beta[s] = acc
            inv_z = 1.0 / z
            for src, gid, dst, p in transitions:
                post = alpha[src] * p * beta[dst] * inv_z
                if post == 0.0:
                    continue
                hist = src[1]
                for k in range(1, order + 1):
                    key = (hist[len(hist) - (k - 1):] if k > 1 else ()) + (gid,)
                    tab = expected[k]
                    tab[key] = tab.get(key, 0.0) + post
            for s, p_end in final:
                post = alpha[s] * p_end * inv_z
                if post == 0.0:
                    continue
                hist = s[1]
                for k in range(1, order + 1):
                    key = (hist[len(hist) - (k - 1):] if k > 1 else ()) + (EOS_ID,)
                    tab = expected[k]
                    tab[key] = tab.get(key, 0.0) + post
        return total_ll, expected

    params = _MLParams(order, len(graphones))
    trace = []
    final_counts: dict[int, dict[tuple[int, ...], float]] = {}
    for _ in range(em_iters):
        ll, expected = run_e_step(params)
        trace.append(ll)
        final_counts = expected
        params = _MLParams(order, len(graphones), expected[order])
    ll, _ = run_e_step(params)
    trace.append(ll)

    return JointSequenceModel(
        order=order,
        max_letters=max_letters,
        max_phones=max_phones,
        min_letters=min_letters,
        min_phones=min_phones,
        graphones=graphones,
        counts={k: t for k, t in final_counts.items() if t},
        discount=discount,
        log10_likelihood_trace=tuple(trace),
        training_report={
            "entries": len(entry_list),
            "skipped": [(w, " ".join(p), why) for w, p, why in skipped],
            "em_iters": em_iters,
        },
    )


def apply_g2p(model: JointSequenceModel, word: str, beam: int = 100, n_best: int = 1):
    """Beam search for the best pronunciations of a word.

    Returns up to n_best (pronunciation, log10 score) pairs, best first,
    ties broken by lexicographic phoneme sequence. Distinct segmentations
    yielding the same pronunciation are collapsed to the best-scoring one.
    Only graphones with a non-empty grapheme side are expanded, which keeps
    the search finite when the model was trained with min_letters=0.
    """
    if not word:
        raise G2PError("empty word")
    if beam < 1:
        raise ValueError("beam must be >= 1")
    unseen = sorted(set(word) - model.letters)
    if unseen:
        raise G2PError(f"letters never seen in any graphone: {unseen}")
    # Hypotheses per consumed-letter count: (phones, history) -> score.
    levels: list[dict[tuple[tuple[str, ...], tuple[int, ...]], float]] = [
        {} for _ in range(len(word) + 1)
    ]
    levels[0][((), model.start_history())] = 0.0
    max_letters = max(model.max_letters, 1)
    for i in range(len(word) + 1):
        hyps = levels[i]
        if not hyps:
            continue
        if len(hyps) > beam:
            hyps = dict(heapq.nsmallest(
                beam, hyps.items(), key=lambda kv: (-kv[1], kv[0][0], kv[0][1])))
            levels[i] = hyps
        if i == len(word):
            break
        by_history: dict[tuple[int, ...], list[tuple[tuple[str, ...], float]]] = {}
        for (phones, hist), score in hyps.items():
            by_history.setdefault(hist, []).append((phones, score))
        for lg in range(model.min_letters or 1, max_letters + 1):
            piece = word[i : i + lg]
            if len(piece) < lg:
                break
            gids = model.by_grapheme.get(piece)
            if not gids:
                continue
            lvl = levels[i + lg]
            memo: dict = {}
            for hist, members in by_history.items():
                successors = [
                    (model.graphones[gid].phonemes, model.shift(hist, gid), math.log10(p))
                    for gid, p in zip(gids, model._cond_list(hist, gids, memo))
                ]
                for phones, score in members:
                    for phonemes, nhist, logp in successors:
                        nscore = score + logp
                        nkey = (phones + phonemes, nhist)
                        if nkey not in lvl or nscore > lvl[nkey]:
                            lvl[nkey] = nscore
    best: dict[tuple[str, ...], float] = {}
    for (phones, hist), score in levels[len(word)].items():
        total = score + model.cond_log10(EOS_ID, hist)
        if phones not in best or total > best[phones]:
            best[phones] = total
    ranked = sorted(best.items(), key=lambda kv: (-kv[1], kv[0]))
    return ranked[:n_best]


@dataclass(frozen=True)
class ExtendReport:
    added: dict[str, tuple[tuple[str, ...], ...]]
    failed: dict[str, str]

    @property
    def provisional(self) -> tuple[str, ...]:
        """Machine-generated pronunciations pending human review."""
        return tuple(sorted(self.added))


def extend_lexicon(
    lexicon: Lexicon,
    words,
    model: JointSequenceModel,
    beam: int = 100,
    n_best: int = 1,
) -> tuple[Lexicon, ExtendReport]:
    """Add G2P pronunciations for words missing from the lexicon.

    Existing entries are never changed. Per-word conversion failures are
    collected in the report and do not stop the remaining words.
    """
    added: dict[str, tuple[tuple[str, ...], ...]] = {}
    failed: dict[str, str] = {}
    for word in words:
        if word in lexicon.entries or word in added:
            continue
        try:
            hyps = apply_g2p(model, word, beam=beam, n_best=n_best)
        except G2PError as exc:
            failed[word] = str(exc)
            continue
        if not hyps:
            failed[word] = "no segmentation within model size limits"
            continue
        added[word] = tuple(pron for pron, _ in hyps)
    if failed:
        log.warning("g2p could not convert %d words", len(failed))
    entries = dict(lexicon.entries)
    entries.update(added)
    inventory = lexicon.inventory | {
        p for prons in added.values() for pron in prons for p in pron
    }
    return Lexicon(entries=entries, inventory=frozenset(inventory)), ExtendReport(
        added=added, failed=failed
    )


def save_g2p_model(model: JointSequenceModel, path: str | Path) -> None:
    payload = {
        "format": "graphone-ngram-v1",
        "order": model.order,
        "max_letters": model.max_letters,
        "max_phones": model.max_phones,
        "min_letters": model.min_letters,
        "min_phones": model.min_phones,
        "discount": model.discount,
        "graphones": [[g.graphemes, list(g.phonemes)] for g in model.graphones],
        "counts": {
            str(k): [[list(gram), c] for gram, c in sorted(table.items())]
            for k, table in sorted(model.counts.items())
        },
        "log10_likelihood_trace": list(model.log10_likelihood_trace),
        "training_report": model.training_report,
    }
    write_text_atomic(path, json.dumps(payload, sort_keys=True))


_MODEL_KEYS = ("order", "max_letters", "max_phones", "min_letters", "min_phones", "discount",
               "graphones", "counts", "log10_likelihood_trace", "training_report")


def load_g2p_model(path: str | Path) -> JointSequenceModel:
    """Read a model written by `save_g2p_model`.

    Raises ValueError naming the path for a file that is not such a model,
    lacks a field, or has malformed counts, a non-finite or negative count,
    a discount outside (0, 1] or an order below 1.
    """
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not a graphone model file: {exc}") from exc
    if not isinstance(payload, dict) or payload.get("format") != "graphone-ngram-v1":
        raise ValueError(f"{path}: not a graphone model file")
    missing = [key for key in _MODEL_KEYS if key not in payload]
    if missing:
        raise ValueError(f"{path}: model file lacks {', '.join(missing)}")
    discount, order = payload["discount"], payload["order"]
    if not isinstance(discount, (int, float)) or not 0.0 < discount <= 1.0:
        raise ValueError(f"{path}: discount {discount!r} is outside (0, 1]")
    if not isinstance(order, int) or order < 1:
        raise ValueError(f"{path}: order {order!r} is not an integer >= 1")
    try:
        counts = {
            int(k): {tuple(gram): c for gram, c in table}
            for k, table in payload["counts"].items()
        }
    except (AttributeError, TypeError, ValueError) as exc:
        raise ValueError(f"{path}: malformed counts: {exc}") from exc
    for k, table in counts.items():
        for gram, c in table.items():
            if not isinstance(c, (int, float)) or not math.isfinite(c) or c < 0.0:
                raise ValueError(f"{path}: count {c!r} of {k}-gram {list(gram)} "
                                 "is not a finite number >= 0")
    return JointSequenceModel(
        order=order,
        max_letters=payload["max_letters"],
        max_phones=payload["max_phones"],
        min_letters=payload["min_letters"],
        min_phones=payload["min_phones"],
        graphones=tuple(Graphone(g, tuple(ph)) for g, ph in payload["graphones"]),
        counts=counts,
        discount=discount,
        log10_likelihood_trace=tuple(payload["log10_likelihood_trace"]),
        training_report=payload["training_report"],
    )
