"""Pronunciation lexica and joint-sequence grapheme-to-phoneme models.

A graphone pairs a short grapheme segment with a short phoneme segment; a
word's pronunciation is generated by a sequence of graphones whose grapheme
sides concatenate to its spelling. Training runs EM over the latent
segmentation of each lexicon entry with an n-gram model over graphone
sequences; decoding is a beam search over segmentations.
"""

from __future__ import annotations

import bisect
import heapq
import json
import logging
import math
import sys
from collections.abc import Mapping
from dataclasses import dataclass, field
from itertools import chain, filterfalse, groupby, islice
from operator import itemgetter
from pathlib import Path
from types import MappingProxyType
from typing import NamedTuple

from asrlm.textcorpus import read_text, write_text_atomic

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
    """Read `word<TAB>ph1 ph2 ...` lines; repeated words add pronunciations.

    Lines end at a line feed only. The carriage return of a CRLF ending is
    whitespace to the phoneme split; any other line separator, such as U+2028,
    stays inside its line.
    """
    pairs = []
    for lineno, line in enumerate(read_text(path).split("\n"), 1):
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


def _context_table(items, discount: float) -> dict:
    """An order's table, context -> (total, gamma, followers), from sorted (gram, count) pairs."""
    table = {}
    for ctx, group in groupby(items, key=lambda item: item[0][:-1]):
        follow = {}
        # A loop from 0.0 in follower order, not sum(), which compensates on Python 3.12.
        denom = gnum = 0.0
        for gram, c in group:
            follow[gram[-1]] = c
            denom += c
            gnum += c if c < discount else discount
        table[ctx] = (denom, gnum / denom if denom else 1.0, follow)
    return table


class _Counts(Mapping):
    """One order's gram -> count, read through its table, built under `discount`."""

    def __init__(self, table, discount: float):
        self._table = table
        self.discount = discount

    def __getitem__(self, gram):
        return self._table[gram[:-1]][2][gram[-1]]

    def get(self, gram, default=None):
        stats = self._table.get(gram[:-1])
        return default if stats is None else stats[2].get(gram[-1], default)

    def __iter__(self):
        return (gram for gram, _ in self.items())

    def __len__(self):
        return sum(len(stats[2]) for stats in self._table.values())

    def items(self):
        return ((ctx + (gid,), c) for ctx, (_, _, follow) in self._table.items()
                for gid, c in follow.items())


@dataclass
class JointSequenceModel:
    """Graphone n-gram model: inventory plus expected n-gram counts.

    Conditionals are evaluated with interpolated absolute discounting over
    the expected counts, backing off to shorter graphone histories and
    finally to a uniform distribution over the inventory plus the end marker,
    so every graphone sequence over the inventory has positive probability.

    The counts, given in any order, are held once, in a per-context table
    for each order, context -> (count total, gamma, followers), where gamma
    is the discounted mass over the total and followers maps each graphone
    id seen after the context to its count. `_context_table` builds every
    table in sorted gram order, the model file's, from the given counts or
    from `train_g2p`'s tallies and `load_g2p_model`'s grams, which arrive
    as `counts` views. A context whose counts are all 0 has gamma 1.0: it
    passes the lower order through. `counts` reads the given orders back
    from the tables. The constructor also indexes graphone ids by grapheme
    side and freezes the set of letters the inventory covers.

    Decoding reads a second, lazily built table, `_by_order1`: for each
    grapheme side ("piece") it has expanded, the order-1 conditional of
    each of the piece's graphone ids, both as runs of equal p, largest
    first, each run's ids in (phonemes, gid) order, and as gid -> p. A
    piece's entry is built on first use and kept with the model.
    """

    order: int
    max_letters: int
    max_phones: int
    min_letters: int
    min_phones: int
    graphones: tuple[Graphone, ...]
    counts: Mapping[int, Mapping[tuple[int, ...], float]]
    discount: float
    log10_likelihood_trace: tuple[float, ...] = ()
    training_report: dict = field(default_factory=dict)

    def __post_init__(self):
        self._contexts: dict[int, dict[tuple[int, ...], tuple[float, float, dict[int, float]]]] = {}
        d = self.discount
        for k in range(1, self.order + 1):
            grams = self.counts.get(k, {})
            self._contexts[k] = (grams._table if isinstance(grams, _Counts) and grams.discount == d
                                 else _context_table(sorted(grams.items()), d))
        self.counts = MappingProxyType({k: _Counts(self._contexts[k], d) for k in sorted(self.counts)})
        self._uniform = 1.0 / (len(self.graphones) + 1)
        self.by_grapheme: dict[str, list[int]] = {}
        for gid, g in enumerate(self.graphones):
            self.by_grapheme.setdefault(g.graphemes, []).append(gid)
        self.letters = frozenset(ch for g in self.graphones for ch in g.graphemes)
        self._by_order1: dict[str, tuple[list[tuple[float, list[int]]], dict[int, float]]] = {}

    def start_history(self) -> tuple[int, ...]:
        return (BOS_ID,) * (self.order - 1)

    def cond_prob(self, gid: int, history: tuple[int, ...]) -> float:
        """p(graphone or EOS | history) with absolute-discount back-off."""
        ctx = history[-(self.order - 1):] if self.order > 1 else ()
        return self._lift(self._uniform, gid, self._levels(ctx, 1))

    def _levels(self, ctx: tuple[int, ...], lowest: int) -> list:
        """The table entries of the contexts among the suffixes of `ctx` of
        orders `lowest` up that have one, shortest first: the back-off chain
        that p(gid | ctx) is built along."""
        n = len(ctx)
        return [stats for k in range(lowest, n + 2)
                if (stats := self._contexts[k].get(ctx[n + 1 - k:])) is not None]

    def _lift(self, p: float, gid: int, levels) -> float:
        """p(gid | ctx), where `levels` is ctx's back-off chain from some
        order up and `p` is gid's conditional on the context below it: each
        level interpolates its discounted count with the value below."""
        d = self.discount
        for denom, gamma, followers in levels:
            c = followers.get(gid, 0.0)
            # A count at most d discounts to 0.0, and 0.0 / denom + x == x.
            p = (c - d) / denom + gamma * p if c > d else gamma * p
        return p

    def _rank(self, piece: str) -> tuple[list[tuple[float, list[int]]], dict[int, float]]:
        """Build and keep `piece`'s entry of `_by_order1`."""
        levels = self._levels((), 1)
        p1 = {gid: self._lift(self._uniform, gid, levels) for gid in self.by_grapheme[piece]}
        graphones = self.graphones
        ids = sorted(p1, key=lambda gid: (-p1[gid], graphones[gid].phonemes, gid))
        runs = [(p, list(run)) for p, run in groupby(ids, key=p1.__getitem__)]
        ranked = self._by_order1[piece] = (runs, p1)
        return ranked

    def successors(self, history: tuple[int, ...], piece: str):
        """Yield (log10 p, gids) once for each distinct log10 p(gid | history)
        over the gids with grapheme side `piece`, largest first, each value
        equal to `math.log10(self.cond_prob(gid, history))` and `gids` an
        iterable of its gids in (phonemes, gid) order. Flattened, the gids
        come in ascending (-log10 p, phonemes, gid) order, the order in which
        the decoder's cut key ranks equal scores. `history` holds
        `order - 1` ids, and `piece` must be a key of `by_grapheme`.

        Only the few gids whose count exceeds the discount in a context of
        order 2 or more on `history`'s back-off chain get a discounted term
        of their own; each is evaluated in full. Every other gid's p is its
        order-1 p times the gamma of each such context, in chain order, so
        each of the piece's runs of equal order-1 p costs one product and
        one log10, however many gids it holds, and its gids are read only as
        the caller asks for them. Distinct p can share a log10, so the runs
        and the stored gids are grouped by log10, and a group of several is
        sorted by (phonemes, gid).
        """
        runs, p1 = self._by_order1.get(piece) or self._rank(piece)
        levels = self._levels(history, 2)
        d = self.discount
        gammas = []
        stored = set()
        for _, gamma, followers in levels:
            gammas.append(gamma)
            stored.update(gid for gid in followers.keys() & p1.keys() if followers[gid] > d)
        groups: dict[float, list] = {}
        for p, run in runs:
            for gamma in gammas:
                p = gamma * p
            groups.setdefault(math.log10(p), []).append(
                filterfalse(stored.__contains__, run) if stored else run)
        for gid in stored:
            groups.setdefault(math.log10(self._lift(p1[gid], gid, levels)), []).append((gid,))
        graphones = self.graphones
        for logp in sorted(groups, reverse=True):
            parts = groups[logp]
            yield logp, parts[0] if len(parts) == 1 else sorted(
                chain(*parts), key=lambda gid: (graphones[gid].phonemes, gid))

    def cond_log10(self, gid: int, history: tuple[int, ...]) -> float:
        return math.log10(self.cond_prob(gid, history))


def _segmentation_lattice(word, pron, steps):
    """Moves between the cells (i, j) that lie on a complete segmentation path.

    `steps` lists the allowed (letters, phonemes) graphone sizes. Returns a
    dict mapping each such cell, in sorted order, to its (Graphone, (i2, j2))
    moves in `steps` order, or None when the entry cannot be segmented within
    the size limits.
    """
    n, m = len(word), len(pron)
    forward = {(0, 0)}
    for i in range(n + 1):
        for j in range(m + 1):
            if (i, j) in forward:
                forward.update((i + lg, j + lp) for lg, lp in steps if i + lg <= n and j + lp <= m)
    if (n, m) not in forward:
        return None
    # Every move advances (i, j) in sorted order, so visiting the forward
    # cells in reverse sorted order settles each cell's successors first.
    cells = {(n, m)}
    for i, j in sorted(forward, reverse=True):
        if any((i + lg, j + lp) in cells for lg, lp in steps):
            cells.add((i, j))
    return {
        (i, j): [(Graphone(word[i : i + lg], tuple(pron[j : j + lp])), (i + lg, j + lp))
                 for lg, lp in steps if (i + lg, j + lp) in cells]
        for i, j in sorted(cells)
    }


def _entry_graph(edges, end, order, gid_of, gram_ids):
    """The E-step graph of one entry over states (cell, graphone-id history).

    States reachable from ((0, 0), BOS history) through the lattice `edges`,
    with `gid_of` giving each Graphone's id, are numbered in sorted order: a
    topological order, since every move advances the cell. A full-order gram
    (history + (gid,), or history + (EOS_ID,) at the end) is named by its id
    in `gram_ids`, which gives each gram not yet in it the next free id.

    Returns the graph as integer lists, transitions in breadth-first
    discovery order: each transition's source state, destination state and
    gram id; each state's outgoing transition indices, as a range; and
    (state, gram id) of the end move of each state at `end`.
    """
    start = ((0, 0), (BOS_ID,) * (order - 1))
    states = [start]
    seen = {start}
    found = []
    spans = {}
    for state in states:  # grows while it is walked
        cell, hist = state
        lo = len(found)
        for graphone, tgt in edges[cell]:
            gram = hist + (gid_of[graphone],)
            nstate = (tgt, gram[1:])
            found.append((state, nstate, gram_ids.setdefault(gram, len(gram_ids))))
            if nstate not in seen:
                seen.add(nstate)
                states.append(nstate)
        spans[state] = range(lo, len(found))
    states.sort()
    index = {state: s for s, state in enumerate(states)}
    src = [index[state] for state, _, _ in found]
    dst = [index[nstate] for _, nstate, _ in found]
    grams = [g for _, _, g in found]
    out = list(map(spans.__getitem__, states))
    finals = [(s, gram_ids.setdefault(hist + (EOS_ID,), len(gram_ids)))
              for s, (cell, hist) in enumerate(states) if cell == end]
    return src, dst, grams, out, finals


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

    Every distinct full-order gram gets an integer id once, before EM, and
    the entry graphs name grams only by id. Probabilities and expected counts
    are lists indexed by id: `key_of[k][g]` is the id of gram g's order-k key
    `gram[-k:]`, and `ctx_of[g]` that of its context `gram[:-1]`. Only the
    M-steps read full-order counts, and only the model keeps the lower
    orders, so the E-steps before the last M-step count the full order
    alone, the last M-step's E-step counts every order, and the final E-step,
    which only extends the likelihood trace, counts nothing. Each key's
    posteriors are added in entry, transition, then end order, so the sums
    do not depend on which orders an E-step counts. Each order's last
    tallies go in sorted key order to `_context_table`, the model's one
    table builder, and no gram -> count dict is made.
    """
    if len(lexicon) == 0:
        raise ValueError("lexicon is empty")
    if em_iters < 0:
        raise ValueError(f"em_iters must be >= 0, got {em_iters}")
    if order < 1 or max_letters < 1 or max_phones < 1:
        raise ValueError("order, max_letters and max_phones must be >= 1")
    if min_letters < 0 or min_phones < 0 or (min_letters == 0 and min_phones == 0):
        raise ValueError("graphone sides may not both be allowed empty")

    steps = [(lg, lp) for lg in range(min_letters, max_letters + 1)
             for lp in range(min_phones, max_phones + 1) if lg or lp]
    entry_list = []
    skipped = []
    inventory: set[Graphone] = set()
    for word in sorted(lexicon.entries):
        for pron in lexicon.entries[word]:
            edges = _segmentation_lattice(word, pron, steps)
            if edges is None:
                skipped.append((word, pron, "no segmentation within size limits"))
                continue
            entry_list.append((word, pron, edges))
            inventory.update(graphone for moves in edges.values() for graphone, _ in moves)
    if skipped:
        log.warning("skipped %d unsegmentable lexicon entries", len(skipped))
    if not entry_list:
        raise ValueError("no lexicon entry can be segmented within the size limits")
    graphones = tuple(sorted(inventory, key=lambda g: (g.graphemes, g.phonemes)))
    gid_of = {g: i for i, g in enumerate(graphones)}
    gram_ids: dict[tuple[int, ...], int] = {}
    graphs = [_entry_graph(edges, (len(word), len(pron)), order, gid_of, gram_ids)
              for word, pron, edges in entry_list]
    words = [word for word, _, _ in entry_list]
    del entry_list, inventory
    grams = list(gram_ids)
    del gram_ids
    # Per order: its key tuples and each gram's key id; the full order's key is the gram.
    keys: dict[int, list[tuple[int, ...]]] = {order: grams}
    key_of: dict[int, list[int] | None] = {order: None}
    for k in range(1, order):
        ids: dict[tuple[int, ...], int] = {}
        key_of[k] = [ids.setdefault(gram[-k:], len(ids)) for gram in grams]
        keys[k] = list(ids)
    ctx_ids: dict[tuple[int, ...], int] = {}
    ctx_of = [ctx_ids.setdefault(gram[:-1], len(ctx_ids)) for gram in grams]
    n_ctx = len(ctx_ids)
    del ctx_ids

    def run_e_step(pv, tallies):
        """One forward-backward pass; returns the log10 likelihood.

        Gram g has probability `pv[g]`. Each transition's and end move's
        posterior is added into every (k, sums, first) of `tallies`: into
        `sums` at its order-k key id, which is appended to `first` the
        first time it gets a non-zero posterior. Without tallies only the
        forward pass runs.
        """
        total_ll = 0.0
        for word, (src, dst, tgrams, out, finals) in zip(words, graphs):
            ps = [pv[g] for g in tgrams]
            alpha = [0.0] * len(out)
            alpha[0] = 1.0
            for s, ts in enumerate(out):
                a = alpha[s]
                if a == 0.0:
                    continue
                for t in ts:
                    alpha[dst[t]] += a * ps[t]
            z = 0.0
            ends = []
            for s, g in finals:
                p_end = pv[g]
                if p_end > 0.0 and alpha[s] > 0.0:
                    z += alpha[s] * p_end
                    ends.append((s, g, p_end))
            if z <= 0.0:
                # Every path died under the current parameters; cannot happen
                # after a uniform first iteration.
                raise ArithmeticError(f"entry {word!r} has zero likelihood")
            total_ll += math.log10(z)
            if not tallies:
                continue
            # Backward pass; beta of an end state starts at its EOS factor.
            beta = [0.0] * len(out)
            for s, _, p_end in ends:
                beta[s] = p_end
            for s in range(len(out) - 1, -1, -1):
                acc = beta[s]
                for t in out[s]:
                    acc += ps[t] * beta[dst[t]]
                beta[s] = acc
            inv_z = 1.0 / z
            posts = [alpha[s] * p * beta[d] * inv_z for s, d, p in zip(src, dst, ps)]
            posts += [alpha[s] * p_end * inv_z for s, _, p_end in ends]
            gids = tgrams + [g for _, g, _ in ends]
            for k, sums, first in tallies:
                ids = gids if key_of[k] is None else map(key_of[k].__getitem__, gids)
                for i, post in zip(ids, posts):
                    if post == 0.0:
                        continue
                    if not sums[i]:
                        first.append(i)
                    sums[i] += post
        return total_ll

    # The first E-step is uniform; each later one uses the last M-step's conditionals.
    pv = [1.0 / (len(graphones) + 1)] * len(grams)
    trace = []
    tallies = []
    for it in range(1, em_iters + 1):
        counted = range(1, order + 1) if it == em_iters else (order,)
        tallies = [(k, [0.0] * len(keys[k]), []) for k in counted]
        trace.append(run_e_step(pv, tallies))
        _, sums, first = tallies[-1]
        denoms = [0.0] * n_ctx
        for g in first:
            denoms[ctx_of[g]] += sums[g]
        pv = [0.0] * len(grams)
        for g in first:
            pv[g] = sums[g] / denoms[ctx_of[g]]
    trace.append(run_e_step(pv, ()))
    del graphs, pv, key_of, ctx_of, grams  # and each order's tallies once its table is built
    counts = {}
    while tallies:  # every counted order has a key with a non-zero posterior: an end move's
        k, sums, first = tallies.pop()
        first.sort(key=(key := keys.pop(k).__getitem__))
        counts[k] = _Counts(_context_table(((key(i), sums[i]) for i in first), discount), discount)

    return JointSequenceModel(
        order=order,
        max_letters=max_letters,
        max_phones=max_phones,
        min_letters=min_letters,
        min_phones=min_phones,
        graphones=graphones,
        counts=counts,
        discount=discount,
        log10_likelihood_trace=tuple(trace),
        training_report={
            "entries": len(words),
            "skipped": [(w, " ".join(p), why) for w, p, why in skipped],
            "em_iters": em_iters,
        },
    )


def check_search(beam: int, n_best: int) -> None:
    """Refuse a beam or an n-best count below 1."""
    if beam < 1:
        raise ValueError("beam must be >= 1")
    if n_best < 1:
        raise ValueError("n_best must be >= 1")


def apply_g2p(model: JointSequenceModel, word: str, beam: int = 100, n_best: int = 1):
    """Beam search for the best pronunciations of a word.

    Returns up to n_best (pronunciation, log10 score) pairs, best first,
    ties broken by lexicographic phoneme sequence. Distinct segmentations
    yielding the same pronunciation are collapsed to the best-scoring one.
    Only graphones with a non-empty grapheme side are expanded, which keeps
    the search finite when the model was trained with min_letters=0.

    Hypotheses are grouped by consumed-letter count into levels, and each
    level is cut to its `beam` best in cut order, (-score, phonemes,
    history), before it is expanded. Expansion skips what that cut would
    drop anyway. Until its cut a level only gains hypotheses and only raises
    their scores, so a hypothesis only moves up in cut order. Each level
    keeps the cut keys of at most `beam` distinct hypotheses as they entered
    it, best first; once there are `beam`, the last is a bound. Those `beam`
    hypotheses end at or above their entries, so the level's final beam-th
    best, B, is at or above the bound. A new hypothesis above the bound
    displaces it, so the bound tightens with every new key. A successor
    below the bound in cut order, hence below B, is skipped: a lower score,
    or the bound's score and a later (phonemes, history).

    This is exact, by induction over the levels. If the earlier levels kept
    the hypotheses of the unpruned search, every successor here is one of
    the unpruned search, so each hypothesis scores at most its unpruned
    score and B is at or below the unpruned beam-th best. A hypothesis the
    unpruned cut keeps gets its score from a successor at or above that, so
    at or above B, which is never skipped. Those `beam` hypotheses keep
    their unpruned scores, and every other one is below them in both
    searches, so the cut keeps the same hypotheses with the same scores.

    Each history's successors come from `JointSequenceModel.successors` in
    groups of equal log10 p, best first, and its members best first by
    score, so a history stops at its first group that cannot lift its best
    member to the bound's score, and a successor at its first member that
    it cannot lift to it. A group stops at its first successor that no
    member passes the bound with: nothing entered, so the bound stands, and
    with each later successor of the group every member gets the same score
    and a key (phones + phonemes, next history) that sorts no earlier, since
    the group comes in (phonemes, gid) order and of two equal phonemes the
    larger gid ends a next history that sorts no earlier. The stop ends only
    the group: a score plus a lower log10 p can round to the same float, so
    the next group is tested like the first.
    """
    if not word:
        raise G2PError("empty word")
    check_search(beam, n_best)
    unseen = sorted(set(word) - model.letters)
    if unseen:
        raise G2PError(f"letters never seen in any graphone: {unseen}")
    n = len(word)
    # Hypotheses per consumed-letter count: (phones, history) -> score.
    levels: list[dict[tuple[tuple[str, ...], tuple[int, ...]], float]] = [
        {} for _ in range(n + 1)
    ]
    levels[0][((), model.start_history())] = 0.0
    # Per level: the cut keys (-score, phones, history) of at most `beam`
    # distinct hypotheses as they entered the level, best first.
    tops: list[list[tuple[float, tuple[str, ...], tuple[int, ...]]]] = [[] for _ in range(n + 1)]
    graphones = model.graphones
    max_letters = max(model.max_letters, 1)
    for i in range(n + 1):
        hyps = levels[i]
        if not hyps:
            continue
        if len(hyps) > beam:
            # Only hypotheses at or above the beam-th best score can be kept.
            cut = sorted(hyps.values(), reverse=True)[beam - 1]
            kept = [kv for kv in hyps.items() if kv[1] >= cut]
            if len(kept) > beam:
                kept = heapq.nsmallest(beam, kept, key=lambda kv: (-kv[1], kv[0][0], kv[0][1]))
            hyps = levels[i] = dict(kept)
        if i == n:
            break
        by_history: dict[tuple[int, ...], list[tuple[tuple[str, ...], float]]] = {}
        for (phones, hist), score in sorted(hyps.items(), key=itemgetter(1), reverse=True):
            by_history.setdefault(hist, []).append((phones, score))
        for lg in range(model.min_letters or 1, max_letters + 1):
            piece = word[i : i + lg]
            if len(piece) < lg:
                break
            if piece not in model.by_grapheme:
                continue
            lvl = levels[i + lg]
            top = tops[i + lg]
            # The bound's score and, for a tie with it, its (phones, history).
            bound, bound_key = (-top[-1][0], top[-1][1:]) if len(top) == beam else (-math.inf, ())
            for hist, members in by_history.items():
                lead = members[0][1]
                for logp, gids in model.successors(hist, piece):
                    if lead + logp < bound:
                        break
                    for gid in gids:
                        # The next history drops the oldest id.
                        nhist = (hist + (gid,))[1:]
                        phonemes = graphones[gid].phonemes
                        rejected = True
                        for phones, score in members:
                            nscore = score + logp
                            if nscore < bound:
                                break
                            nkey = (phones + phonemes, nhist)
                            if nscore == bound and nkey > bound_key:
                                continue
                            rejected = False
                            old = lvl.get(nkey)
                            if old is None:
                                lvl[nkey] = nscore
                                bisect.insort(top, (-nscore,) + nkey)
                                if len(top) > beam:
                                    top.pop()
                                if len(top) == beam:
                                    bound, bound_key = -top[-1][0], top[-1][1:]
                            elif nscore > old:
                                lvl[nkey] = nscore
                        if rejected:
                            break
    best: dict[tuple[str, ...], float] = {}
    for (phones, hist), score in levels[n].items():
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
    check_search(beam, n_best)  # before any word, even if every word is known
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


# Count items per chunk handed to the writer: bounds the text held at once.
_CHUNK_GRAMS = 1024


def save_g2p_model(model: JointSequenceModel, path: str | Path) -> None:
    """Write `model` as the JSON text of `json.dumps(payload, sort_keys=True)`,
    with the counts streamed in chunks of `_CHUNK_GRAMS` items."""
    payload = {
        "format": "graphone-ngram-v1",
        "order": model.order,
        "max_letters": model.max_letters,
        "max_phones": model.max_phones,
        "min_letters": model.min_letters,
        "min_phones": model.min_phones,
        "discount": model.discount,
        "graphones": [[g.graphemes, list(g.phonemes)] for g in model.graphones],
        "log10_likelihood_trace": list(model.log10_likelihood_trace),
        "training_report": model.training_report,
    }
    write_text_atomic(path, _model_chunks(model.counts, json.dumps(payload, sort_keys=True)))


def _model_chunks(counts: Mapping[int, Mapping[tuple[int, ...], float]], rest: str):
    """The text of `{"counts": {str(k): [[gram, count], ...]}, **rest}` under
    `sort_keys`: "counts" sorts before every other key, the orders sort as
    strings ("10" before "2"), and each table is in sorted gram order."""
    yield '{"counts": {'
    for i, k in enumerate(sorted(counts, key=str)):
        yield f'{", " if i else ""}"{k}": ['
        grams = iter(counts[k].items())
        sep = ""
        while part := list(islice(grams, _CHUNK_GRAMS)):
            yield sep + json.dumps(part)[1:-1]
            sep = ", "
        yield "]"
    yield "}, " + rest[1:]


_MODEL_KEYS = ("order", "max_letters", "max_phones", "min_letters", "min_phones", "discount",
               "graphones", "counts", "log10_likelihood_trace", "training_report")
# Integer model fields and the least value each may take.
_INT_FIELDS = {"order": 1, "max_letters": 1, "max_phones": 1, "min_letters": 0, "min_phones": 0}


def _is_finite_number(x) -> bool:
    """An int or float a float can hold, not inf or NaN, and not a bool: JSON `true` is not a count."""
    return isinstance(x, (int, float)) and not isinstance(x, bool) and abs(x) <= sys.float_info.max


def _is_graphone_gram(gram: tuple, k: int, ids: range) -> bool:
    """k ids from `ids`, where `BOS_ID` may also pad the history and `EOS_ID`
    may also be the predicted (last) id."""
    if len(gram) != k or any(type(g) is not int for g in gram):
        return False
    return all(g in ids or g == BOS_ID for g in gram[:-1]) and (gram[-1] in ids or gram[-1] == EOS_ID)


def load_g2p_model(path: str | Path) -> JointSequenceModel:
    """Read a model written by `save_g2p_model`.

    Raises ValueError naming the path for a file that is not such a model,
    lacks a field, or has malformed counts, a count order outside 1..order
    or not written as `str(order)`, a count gram that is not k graphone ids
    or that its order lists twice, a non-finite or negative count, a
    likelihood trace that is not a list of finite numbers, a discount
    outside (0, 1], an order or size limit that is not an integer in range,
    both minimum sizes 0, or graphones that are not [graphemes, [phonemes,
    ...]] string pairs. A JSON boolean is neither an integer nor a number.
    """
    try:
        payload = json.loads(read_text(path))
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not a graphone model file: {exc}") from exc
    if not isinstance(payload, dict) or payload.get("format") != "graphone-ngram-v1":
        raise ValueError(f"{path}: not a graphone model file")
    missing = [key for key in _MODEL_KEYS if key not in payload]
    if missing:
        raise ValueError(f"{path}: model file lacks {', '.join(missing)}")
    discount = payload["discount"]
    if not _is_finite_number(discount) or not 0.0 < discount <= 1.0:
        raise ValueError(f"{path}: discount {discount!r} is outside (0, 1]")
    for key, least in _INT_FIELDS.items():
        if type(payload[key]) is not int or payload[key] < least:
            raise ValueError(f"{path}: {key} {payload[key]!r} is not an integer >= {least}")
    if payload["min_letters"] == 0 and payload["min_phones"] == 0:
        raise ValueError(f"{path}: min_letters and min_phones are both 0")
    graphones = payload["graphones"]
    if not isinstance(graphones, list) or not all(
        isinstance(g, list) and len(g) == 2 and isinstance(g[0], str)
        and isinstance(g[1], list) and all(isinstance(p, str) for p in g[1])
        for g in graphones
    ):
        raise ValueError(f"{path}: graphones are not a list of [graphemes, [phonemes, ...]] "
                         "string pairs")
    try:
        tables = [(key, int(key), [(tuple(gram), c) for gram, c in table])
                  for key, table in payload["counts"].items()]
    except (AttributeError, TypeError, ValueError) as exc:
        raise ValueError(f"{path}: malformed counts: {exc}") from exc
    order = payload["order"]
    ids = range(len(graphones))
    counts = {}
    for key, k, items in tables:
        if key != str(k):  # such as " 01" or "1_0", which int() reads
            raise ValueError(f"{path}: count order {key!r} is not written as {str(k)!r}")
        if not 1 <= k <= order:
            raise ValueError(f"{path}: count order {k} is outside 1..{order}")
        seen = set()
        prev, in_order = (), True  # () sorts before every gram
        for gram, c in items:
            if not _is_graphone_gram(gram, k, ids):
                raise ValueError(f"{path}: {k}-gram {list(gram)} is not {k} graphone ids "
                                 "(BOS_ID only before the last place, EOS_ID only in it)")
            if not _is_finite_number(c) or c < 0.0:
                raise ValueError(f"{path}: count {c!r} of {k}-gram {list(gram)} "
                                 "is not a finite number >= 0")
            if gram in seen:
                raise ValueError(f"{path}: {k}-gram {list(gram)} is listed twice")
            seen.add(gram)
            in_order = in_order and prev < gram
            prev = gram
        counts[k] = _Counts(_context_table(items if in_order else sorted(items), discount), discount)
    trace = payload["log10_likelihood_trace"]
    if not isinstance(trace, list) or not all(map(_is_finite_number, trace)):
        raise ValueError(f"{path}: log10_likelihood_trace {trace!r} is not a list of finite numbers")
    return JointSequenceModel(
        **{key: payload[key] for key in _INT_FIELDS},
        graphones=tuple(Graphone(g, tuple(ph)) for g, ph in graphones),
        counts=counts,
        discount=discount,
        log10_likelihood_trace=tuple(trace),
        training_report=payload["training_report"],
    )
