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
    """Read `word<TAB>ph1 ph2 ...` lines; repeated words add pronunciations.

    Lines end at a line feed only. The carriage return of a CRLF ending is
    whitespace to the phoneme split; any other line separator, such as U+2028,
    stays inside its line.
    """
    pairs = []
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").split("\n"), 1):
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

    `__post_init__` derives a per-context table for each order, context ->
    (count total, gamma, followers), where gamma is the discounted mass over
    the total and followers maps each graphone id seen after the context to
    its count. It holds only contexts with a positive total; any other
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
        self._contexts: dict[int, dict[tuple[int, ...], tuple[float, float, dict[int, float]]]] = {}
        for k in range(1, self.order + 1):
            denoms: dict[tuple[int, ...], float] = {}
            gnum: dict[tuple[int, ...], float] = {}
            followers: dict[tuple[int, ...], dict[int, float]] = {}
            for gram, c in self.counts.get(k, {}).items():
                ctx = gram[:-1]
                denoms[ctx] = denoms.get(ctx, 0.0) + c
                gnum[ctx] = gnum.get(ctx, 0.0) + min(self.discount, c)
                followers.setdefault(ctx, {})[gram[-1]] = c
            self._contexts[k] = {
                ctx: (denom, gnum[ctx] / denom, followers[ctx])
                for ctx, denom in denoms.items() if denom > 0.0
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
            denom, gamma, followers = stats
            d = self.discount
            count = followers.get
            # An unseen gid's discounted count is 0.0, and 0.0 / denom + x == x.
            probs = [gamma * low if (c := count(gid)) is None
                     else max(c - d, 0.0) / denom + gamma * low
                     for gid, low in zip(gids, lower)]
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
    gram id; each state's outgoing transition indices; and (state, gram id)
    of the end move of each state at `end`.
    """
    start = ((0, 0), (BOS_ID,) * (order - 1))
    states = [start]
    seen = {start}
    found = []
    for state in states:  # grows while it is walked
        cell, hist = state
        for graphone, tgt in edges[cell]:
            gram = hist + (gid_of[graphone],)
            nstate = (tgt, gram[1:])
            found.append((state, nstate, gram_ids.setdefault(gram, len(gram_ids))))
            if nstate not in seen:
                seen.add(nstate)
                states.append(nstate)
    states.sort()
    index = {state: s for s, state in enumerate(states)}
    src = [index[state] for state, _, _ in found]
    dst = [index[nstate] for _, nstate, _ in found]
    grams = [g for _, _, g in found]
    out: list[list[int]] = [[] for _ in states]
    for t, s in enumerate(src):
        out[s].append(t)
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
    posteriors are added in entry, transition, then end order, and each
    order's counts keep the order in which their keys first had a non-zero
    posterior, so the sums and the model's count tables do not depend on
    which orders an E-step counts.
    """
    if len(lexicon) == 0:
        raise ValueError("lexicon is empty")
    if order < 1 or max_letters < 1 or max_phones < 1:
        raise ValueError("order, max_letters and max_phones must be >= 1")
    if min_letters < 0 or min_phones < 0 or (min_letters == 0 and min_phones == 0):
        raise ValueError("graphone sides may not both be allowed empty")

    steps = [(lg, lp) for lg in range(min_letters, max_letters + 1)
             for lp in range(min_phones, max_phones + 1) if lg or lp]
    entry_list = []
    skipped = []
    inventory: dict[Graphone, None] = {}
    for word in sorted(lexicon.entries):
        for pron in lexicon.entries[word]:
            edges = _segmentation_lattice(word, pron, steps)
            if edges is None:
                skipped.append((word, pron, "no segmentation within size limits"))
                continue
            entry_list.append((word, pron, edges))
            for moves in edges.values():
                for graphone, _ in moves:
                    inventory.setdefault(graphone)
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
    del entry_list
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
    counts = {k: {keys[k][i]: sums[i] for i in first} for k, sums, first in tallies if first}
    # Free the E-step state before the model builds its index.
    del graphs, pv, keys, key_of, ctx_of, tallies

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


def apply_g2p(model: JointSequenceModel, word: str, beam: int = 100, n_best: int = 1):
    """Beam search for the best pronunciations of a word.

    Returns up to n_best (pronunciation, log10 score) pairs, best first,
    ties broken by lexicographic phoneme sequence. Distinct segmentations
    yielding the same pronunciation are collapsed to the best-scoring one.
    Only graphones with a non-empty grapheme side are expanded, which keeps
    the search finite when the model was trained with min_letters=0.

    Hypotheses are grouped by consumed-letter count into levels, and each
    level is cut to its `beam` best (ties broken by phonemes, then history)
    before it is expanded. Expansion skips what that cut would drop anyway:
    once a target level holds at least `beam` distinct hypotheses, the
    beam-th best of their scores is a bound, and a source hypothesis stops
    at its first successor, taken best first, whose score is strictly below
    it. This is exact. Until its cut a level only gains hypotheses and only
    raises scores, so any bound taken from it, however stale, is at most its
    final beam-th best score; a skipped successor would be cut, or would
    lose to the score its hypothesis already holds. A tie with the bound is
    expanded, since the cut's tie-break may keep it. The bound is refreshed
    whenever the level has doubled in size since it was last taken.
    """
    if not word:
        raise G2PError("empty word")
    if beam < 1:
        raise ValueError("beam must be >= 1")
    unseen = sorted(set(word) - model.letters)
    if unseen:
        raise G2PError(f"letters never seen in any graphone: {unseen}")
    n = len(word)
    # Hypotheses per consumed-letter count: (phones, history) -> score.
    levels: list[dict[tuple[tuple[str, ...], tuple[int, ...]], float]] = [
        {} for _ in range(n + 1)
    ]
    levels[0][((), model.start_history())] = 0.0
    # Per level: the pruning bound, and the size at which to take it again.
    bounds = [-math.inf] * (n + 1)
    refresh_at = [beam] * (n + 1)
    # history -> gid -> next history, which drops the oldest id.
    next_hist: dict[tuple[int, ...], dict[int, tuple[int, ...]]] = {}
    graphones = model.graphones
    max_letters = max(model.max_letters, 1)
    for i in range(n + 1):
        hyps = levels[i]
        if not hyps:
            continue
        if len(hyps) > beam:
            hyps = dict(heapq.nsmallest(
                beam, hyps.items(), key=lambda kv: (-kv[1], kv[0][0], kv[0][1])))
            levels[i] = hyps
        if i == n:
            break
        # Members best first, so a history stops at its first member that
        # no successor can lift to the bound.
        by_history: dict[tuple[int, ...], list[tuple[tuple[str, ...], float]]] = {}
        for (phones, hist), score in sorted(hyps.items(), key=lambda kv: -kv[1]):
            by_history.setdefault(hist, []).append((phones, score))
        for lg in range(model.min_letters or 1, max_letters + 1):
            piece = word[i : i + lg]
            if len(piece) < lg:
                break
            gids = model.by_grapheme.get(piece)
            if not gids:
                continue
            lvl = levels[i + lg]
            bound = bounds[i + lg]
            grow_at = refresh_at[i + lg]
            memo: dict = {}
            for hist, members in by_history.items():
                # Successors are built only once they pass the bound.
                logps = list(map(math.log10, model._cond_list(hist, gids, memo)))
                best_first = sorted(range(len(gids)), key=logps.__getitem__, reverse=True)
                top = logps[best_first[0]]
                nexts = next_hist.setdefault(hist, {})
                for phones, score in members:
                    if score + top < bound:
                        break
                    for j in best_first:
                        nscore = score + logps[j]
                        if nscore < bound:
                            break
                        gid = gids[j]
                        nhist = nexts.get(gid)
                        if nhist is None:
                            nhist = nexts[gid] = (hist + (gid,))[1:]
                        nkey = (phones + graphones[gid].phonemes, nhist)
                        old = lvl.get(nkey)
                        if old is None:
                            lvl[nkey] = nscore
                            if len(lvl) >= grow_at:
                                bound = heapq.nlargest(beam, lvl.values())[-1]
                                grow_at = 2 * len(lvl)
                        elif nscore > old:
                            lvl[nkey] = nscore
            bounds[i + lg] = bound
            refresh_at[i + lg] = grow_at
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
            str(k): sorted(table.items())  # each (gram, count) is written as [[ids], count]
            for k, table in sorted(model.counts.items())
        },
        "log10_likelihood_trace": list(model.log10_likelihood_trace),
        "training_report": model.training_report,
    }
    write_text_atomic(path, json.dumps(payload, sort_keys=True))


_MODEL_KEYS = ("order", "max_letters", "max_phones", "min_letters", "min_phones", "discount",
               "graphones", "counts", "log10_likelihood_trace", "training_report")
# Integer model fields and the least value each may take.
_INT_FIELDS = {"order": 1, "max_letters": 1, "max_phones": 1, "min_letters": 0, "min_phones": 0}


def _is_number(x) -> bool:
    """An int or float, but not a bool: JSON `true` is not a count."""
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _is_graphone_gram(gram: tuple, k: int, ids: range) -> bool:
    """k ids from `ids`, where `BOS_ID` may also pad the history and `EOS_ID`
    may also be the predicted (last) id."""
    if k < 1 or len(gram) != k or any(type(g) is not int for g in gram):
        return False
    return all(g in ids or g == BOS_ID for g in gram[:-1]) and (gram[-1] in ids or gram[-1] == EOS_ID)


def load_g2p_model(path: str | Path) -> JointSequenceModel:
    """Read a model written by `save_g2p_model`.

    Raises ValueError naming the path for a file that is not such a model,
    lacks a field, or has malformed counts, a count gram that is not k
    graphone ids, a non-finite or negative count, a likelihood trace that is
    not a list of finite numbers, a discount outside (0, 1], an order or
    size limit that is not an integer in range, both minimum sizes 0, or
    graphones that are not [graphemes, [phonemes, ...]] string pairs. A JSON
    boolean is neither an integer nor a number here.
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
    discount = payload["discount"]
    if not _is_number(discount) or not 0.0 < discount <= 1.0:
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
        counts = {
            int(k): {tuple(gram): c for gram, c in table}
            for k, table in payload["counts"].items()
        }
    except (AttributeError, TypeError, ValueError) as exc:
        raise ValueError(f"{path}: malformed counts: {exc}") from exc
    ids = range(len(graphones))
    for k, table in counts.items():
        for gram, c in table.items():
            if not _is_graphone_gram(gram, k, ids):
                raise ValueError(f"{path}: {k}-gram {list(gram)} is not {k} graphone ids "
                                 "(BOS_ID only before the last place, EOS_ID only in it)")
            if not _is_number(c) or not math.isfinite(c) or c < 0.0:
                raise ValueError(f"{path}: count {c!r} of {k}-gram {list(gram)} "
                                 "is not a finite number >= 0")
    trace = payload["log10_likelihood_trace"]
    if not isinstance(trace, list) or not all(
        _is_number(x) and math.isfinite(x) for x in trace
    ):
        raise ValueError(f"{path}: log10_likelihood_trace {trace!r} is not a list of finite numbers")
    return JointSequenceModel(
        **{key: payload[key] for key in _INT_FIELDS},
        graphones=tuple(Graphone(g, tuple(ph)) for g, ph in graphones),
        counts=counts,
        discount=discount,
        log10_likelihood_trace=tuple(trace),
        training_report=payload["training_report"],
    )
