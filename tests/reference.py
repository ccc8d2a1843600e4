"""Independent brute-force reference implementations used as test oracles.

Everything here recomputes results directly from first principles (plain
dicts, recursive definitions, exhaustive enumeration) and deliberately shares
no code with the package under test. The exceptions are the result type
`EditAlignment`, which `reference_align` returns so that whole alignments can
be compared with `==`; the G2P id markers and error type, which
`reference_apply_g2p` uses so that its results and messages compare with `==`;
and the G2P segmentation lattice, `Graphone` and `JointSequenceModel`, which
`reference_train_g2p` builds its graphs and result from.
"""

from __future__ import annotations

import heapq
import math

from asrlm.lexg2p import (
    BOS_ID,
    EOS_ID,
    G2PError,
    Graphone,
    JointSequenceModel,
    _segmentation_lattice,
)
from asrlm.scorer import EditAlignment

BOS = "<s>"
EOS = "</s>"
UNK = "<unk>"


class BruteForceMKN:
    """Direct evaluation of interpolated modified Kneser-Ney probabilities.

    Counts are recomputed from the raw sentences; every conditional is
    evaluated recursively from the defining equations each time it is asked
    for, with no back-off weights or shared tables.
    """

    def __init__(self, sentences, order, vocab_words, discounts=None):
        self.order = order
        self.vocab = set(vocab_words) | {UNK, BOS, EOS}
        self.predicted = sorted(self.vocab - {BOS})
        padded = []
        for sent in sentences:
            mapped = [t if t in self.vocab else UNK for t in sent]
            padded.append([BOS] + mapped + [EOS])
        # Raw counts: unigrams at predicted positions, higher orders as windows.
        self.raw = {k: {} for k in range(1, order + 1)}
        for p in padded:
            for tok in p[1:]:
                self.raw[1][(tok,)] = self.raw[1].get((tok,), 0) + 1
            for k in range(2, order + 1):
                for i in range(len(p) - k + 1):
                    g = tuple(p[i : i + k])
                    self.raw[k][g] = self.raw[k].get(g, 0) + 1
        # Effective counts: continuation counts below the top order, raw for
        # <s>-initial k-grams and at the top order.
        self.eff = {order: dict(self.raw[order])}
        for k in range(1, order):
            lefts = {}
            for g in self.raw[k + 1]:
                lefts.setdefault(g[1:], set()).add(g[0])
            self.eff[k] = {}
            for g, c in self.raw[k].items():
                self.eff[k][g] = c if g[0] == BOS else len(lefts.get(g, ()))
        if discounts is None:
            discounts = {k: self._order_discounts(k) for k in range(1, order + 1)}
        self.discounts = discounts
        # Per-context totals and count-of-count bins, aggregated once.
        self.ctx_stats = {}
        for k in range(1, order + 1):
            stats = {}
            for g, c in self.eff[k].items():
                denom, n1, n2, n3 = stats.get(g[:-1], (0, 0, 0, 0))
                stats[g[:-1]] = (
                    denom + c,
                    n1 + (c == 1),
                    n2 + (c == 2),
                    n3 + (c >= 3),
                )
            self.ctx_stats[k] = stats

    def _order_discounts(self, k):
        cc = {}
        for c in self.eff[k].values():
            cc[c] = cc.get(c, 0) + 1
        n1, n2, n3, n4 = (cc.get(i, 0) for i in (1, 2, 3, 4))
        if 0 in (n1, n2, n3, n4):
            return (0.5, 0.5, 0.5)
        y = n1 / (n1 + 2 * n2)
        trio = (1 - 2 * y * n2 / n1, 2 - 3 * y * n3 / n2, 3 - 4 * y * n4 / n3)
        if any(d <= 0 for d in trio):
            return (0.5, 0.5, 0.5)
        return tuple(min(d, cap) for d, cap in zip(trio, (1.0, 2.0, 3.0)))

    def _discount(self, k, count):
        if count <= 0:
            return 0.0
        d1, d2, d3 = self.discounts[k]
        return d1 if count == 1 else d2 if count == 2 else d3

    def prob(self, word, history=()):
        """p(word | history) by the interpolated recursion, base case uniform."""
        history = tuple(history)[-(self.order - 1):] if self.order > 1 else ()
        return self._prob(len(history) + 1, history, word)

    def _prob(self, k, history, word):
        if k == 0:
            return 1.0 / len(self.predicted)
        lower = self._prob(k - 1, history[1:], word)
        stats = self.ctx_stats[k].get(history)
        if stats is None:
            return lower
        denom, n1, n2, n3 = stats
        d1, d2, d3 = self.discounts[k]
        gamma = (d1 * n1 + d2 * n2 + d3 * n3) / denom
        c = self.eff[k].get(history + (word,), 0)
        return max(c - self._discount(k, c), 0.0) / denom + gamma * lower


def brute_edit_distance(ref, hyp):
    """Minimal unit-cost edit distance, full two-row dynamic program."""
    prev = list(range(len(hyp) + 1))
    for i, r in enumerate(ref, start=1):
        cur = [i]
        for j, h in enumerate(hyp, start=1):
            cur.append(min(
                prev[j - 1] + (r != h),  # substitution / match
                prev[j] + 1,             # deletion
                cur[j - 1] + 1,          # insertion
            ))
        prev = cur
    return prev[-1]



_MATCH, _SUB, _DEL, _INS = "match", "sub", "del", "ins"


def reference_align(ref, hyp) -> EditAlignment:
    """Minimal unit-cost alignment of two token sequences: the straightforward
    full-matrix program, kept as the exact-output oracle of
    `asrlm.scorer.align` (ops and counts included).

    Among minimal-cost alignments the one with the fewest substitutions (most
    matches) is chosen, realized by minimizing (cost, substitutions)
    lexicographically; remaining ties during backtrace prefer match >
    substitution > deletion > insertion. This keeps alignments deterministic
    and makes swapping ref and hyp exchange deletions with insertions while
    preserving substitutions.
    """
    ref = tuple(ref)
    hyp = tuple(hyp)
    n, m = len(ref), len(hyp)
    # Pack (cost, substitutions) into one int; subs can never reach BIG.
    big = n + m + 1
    dist = [[0] * (m + 1) for _ in range(n + 1)]
    for i in range(1, n + 1):
        dist[i][0] = i * big
    for j in range(1, m + 1):
        dist[0][j] = j * big
    for i in range(1, n + 1):
        row = dist[i]
        prev = dist[i - 1]
        r = ref[i - 1]
        for j in range(1, m + 1):
            diag = prev[j - 1] + (0 if r == hyp[j - 1] else big + 1)
            row[j] = min(diag, prev[j] + big, row[j - 1] + big)
    ops: list[tuple[str, str | None, str | None]] = []
    i, j = n, m
    s = d = ins = h = 0
    while i > 0 or j > 0:
        here = dist[i][j]
        if i > 0 and j > 0 and ref[i - 1] == hyp[j - 1] and here == dist[i - 1][j - 1]:
            ops.append((_MATCH, ref[i - 1], hyp[j - 1]))
            h += 1
            i -= 1
            j -= 1
        elif i > 0 and j > 0 and ref[i - 1] != hyp[j - 1] and here == dist[i - 1][j - 1] + big + 1:
            ops.append((_SUB, ref[i - 1], hyp[j - 1]))
            s += 1
            i -= 1
            j -= 1
        elif i > 0 and here == dist[i - 1][j] + big:
            ops.append((_DEL, ref[i - 1], None))
            d += 1
            i -= 1
        else:
            ops.append((_INS, None, hyp[j - 1]))
            ins += 1
            j -= 1
    ops.reverse()
    return EditAlignment(
        substitutions=s,
        deletions=d,
        insertions=ins,
        hits=h,
        ref_length=n,
        ops=tuple(ops),
    )


def backoff_log10_prob(lm, word, history):
    """log10 p(word | history) of a back-off model, read from its tables alone.

    Tokens outside the model's vocabulary become `<unk>` and only the last
    `order - 1` history tokens count. While the n-gram is not stored, the
    back-off weight of its context (0 when absent) is added and the context's
    first token dropped, longest context first; the stored log10 probability
    is added last.
    """
    known = set(lm.vocab.words)
    mapped = [t if t in known else UNK for t in history]
    context = tuple(mapped[max(0, len(mapped) - (lm.order - 1)):]) if lm.order > 1 else ()
    w = word if word in known else UNK
    total = 0.0
    while context + (w,) not in lm.tables.get(len(context) + 1, {}):
        if not context:
            raise KeyError(f"no unigram entry for {w!r}")
        bow = lm.tables.get(len(context), {}).get(context, (0.0, None))[1]
        if bow is not None:
            total += bow
        context = context[1:]
    return total + lm.tables[len(context) + 1][context + (w,)][0]


def naive_perplexity(lms, weights, sentences, oov_policy):
    """(log10_prob_sum, scored, oov, sentences, ppl) of a single model
    (`weights` None) or of the position-wise weighted mixture of `lms`.

    Each position is scored from scratch against its full, unmapped history,
    in corpus order. A mixture position scores
    log10(sum of weight * 10 ** backoff_log10_prob) over the components. Under
    `exclude`, out-of-vocabulary words are counted and not scored; `</s>`
    closes every sentence.
    """
    known = set(lms[0].vocab.words)
    total = 0.0
    scored = oov = 0
    for sent in sentences:
        padded = [BOS, *sent, EOS]
        for i in range(1, len(padded)):
            token, history = padded[i], padded[:i]
            if i < len(padded) - 1 and token not in known and oov_policy == "exclude":
                oov += 1
                continue
            if weights is None:
                total += backoff_log10_prob(lms[0], token, history)
            else:
                total += math.log10(sum(lam * 10.0 ** backoff_log10_prob(lm, token, history)
                                        for lam, lm in zip(weights, lms)))
            scored += 1
    return total, scored, oov, len(sentences), 10.0 ** (-total / scored)


def graphone_cond_prob(model, gid, history):
    """p(gid | history) under interpolated absolute discounting, recomputed
    from the model's expected counts by the defining recursion: at each
    order, max(c - D, 0) / total + (back-off mass / total) * lower order, down
    to a uniform distribution over the inventory plus the end marker."""
    history = tuple(history)[-(model.order - 1):] if model.order > 1 else ()

    def prob(ctx):
        lower = prob(ctx[1:]) if ctx else 1.0 / (len(model.graphones) + 1)
        table = model.counts.get(len(ctx) + 1, {})
        in_ctx = [c for gram, c in table.items() if gram[:-1] == ctx]
        total = sum(in_ctx)
        if total <= 0.0:
            return lower
        mass = sum(min(model.discount, c) for c in in_ctx)
        c = table.get(ctx + (gid,), 0.0)
        return max(c - model.discount, 0.0) / total + mass / total * lower

    return prob(history)


def exhaustive_g2p(model, word):
    """Enumerate every graphone segmentation of `word`, score it with the
    model's own conditionals, and rank distinct pronunciations by their best
    segmentation score (lexicographic phoneme tie-break)."""
    by_grapheme = {}
    for gid, g in enumerate(model.graphones):
        by_grapheme.setdefault(g.graphemes, []).append(gid)

    results = []

    def walk(pos, ids):
        if pos == len(word):
            if ids:
                results.append(tuple(ids))
            return
        for length in range(1, model.max_letters + 1):
            piece = word[pos : pos + length]
            if len(piece) < length:
                break
            for gid in by_grapheme.get(piece, ()):
                walk(pos + length, ids + [gid])

    walk(0, [])
    best = {}
    for ids in results:
        score = model.sequence_log10(ids)
        phones = tuple(p for gid in ids for p in model.graphones[gid].phonemes)
        if phones not in best or score > best[phones]:
            best[phones] = score
    return sorted(best.items(), key=lambda kv: (-kv[1], kv[0]))


def _reference_contexts(model):
    """Per order, context -> (count total, discounted mass / total), for the
    contexts with a positive total."""
    contexts = {}
    for k in range(1, model.order + 1):
        denoms = {}
        gnum = {}
        for gram, c in model.counts.get(k, {}).items():
            ctx = gram[:-1]
            denoms[ctx] = denoms.get(ctx, 0.0) + c
            gnum[ctx] = gnum.get(ctx, 0.0) + min(model.discount, c)
        contexts[k] = {
            ctx: (denom, gnum[ctx] / denom) for ctx, denom in denoms.items() if denom > 0.0
        }
    return contexts


def _reference_cond_list(model, contexts, ctx, gids, memo):
    """p(gid | ctx) for every gid in `gids`, looking each count up as the
    full gram `ctx + (gid,)`; `memo` is shared only between equal `gids`."""
    probs = memo.get(ctx)
    if probs is not None:
        return probs
    k = len(ctx) + 1
    if k > 1:
        lower = _reference_cond_list(model, contexts, ctx[1:], gids, memo)
    else:
        lower = [1.0 / (len(model.graphones) + 1)] * len(gids)
    stats = contexts[k].get(ctx)
    if stats is None:
        probs = lower
    else:
        denom, gamma = stats
        table = model.counts[k]
        d = model.discount
        probs = []
        for gid, low in zip(gids, lower):
            probs.append(max(table.get(ctx + (gid,), 0.0) - d, 0.0) / denom + gamma * low)
    memo[ctx] = probs
    return probs


def reference_apply_g2p(model, word, beam=100, n_best=1):
    """The beam decoder without threshold pruning, kept as the exact-output
    oracle of `asrlm.lexg2p.apply_g2p` (scores and tie order included).

    Every successor of every kept hypothesis enters the next level; only
    then is each level cut to its `beam` best by (-score, phonemes, history).
    Pronunciations are collapsed to their best score after the end marker and
    ranked by (-score, phonemes).
    """
    if not word:
        raise G2PError("empty word")
    if beam < 1:
        raise ValueError("beam must be >= 1")
    letters = {ch for g in model.graphones for ch in g.graphemes}
    unseen = sorted(set(word) - letters)
    if unseen:
        raise G2PError(f"letters never seen in any graphone: {unseen}")
    contexts = _reference_contexts(model)
    by_grapheme = {}
    for gid, g in enumerate(model.graphones):
        by_grapheme.setdefault(g.graphemes, []).append(gid)

    def shift(history, gid):
        return (history + (gid,))[-(model.order - 1):] if model.order > 1 else ()

    levels = [{} for _ in range(len(word) + 1)]
    levels[0][((), (BOS_ID,) * (model.order - 1))] = 0.0
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
        by_history = {}
        for (phones, hist), score in hyps.items():
            by_history.setdefault(hist, []).append((phones, score))
        for lg in range(model.min_letters or 1, max_letters + 1):
            piece = word[i : i + lg]
            if len(piece) < lg:
                break
            gids = by_grapheme.get(piece)
            if not gids:
                continue
            lvl = levels[i + lg]
            memo = {}
            for hist, members in by_history.items():
                successors = [
                    (model.graphones[gid].phonemes, shift(hist, gid), math.log10(p))
                    for gid, p in zip(gids, _reference_cond_list(model, contexts, hist, gids, memo))
                ]
                for phones, score in members:
                    for phonemes, nhist, logp in successors:
                        nscore = score + logp
                        nkey = (phones + phonemes, nhist)
                        if nkey not in lvl or nscore > lvl[nkey]:
                            lvl[nkey] = nscore
    best = {}
    for (phones, hist), score in levels[len(word)].items():
        p_end = _reference_cond_list(model, contexts, hist, (EOS_ID,), {})[0]
        total = score + math.log10(p_end)
        if phones not in best or total > best[phones]:
            best[phones] = total
    ranked = sorted(best.items(), key=lambda kv: (-kv[1], kv[0]))
    return ranked[:n_best]


def brute_force_g2p_em(lexicon, order, max_letters, max_phones, em_iters,
                       min_letters=1, min_phones=1):
    """Joint-sequence EM over explicitly enumerated segmentations.

    Every segmentation of every (word, pronunciation) entry into graphones
    within the size limits is listed; entries with none are left out. The
    inventory is the union of the pieces over all segmentations. The first
    E-step scores every n-gram 1 / (inventory + 1); each later one uses the
    maximum-likelihood conditionals of the previous E-step's full-order
    expected counts. An entry's segmentation has posterior probability
    (product of its conditionals) / (sum of that product over the entry's
    segmentations).

    Returns (inventory, log10-likelihood trace of the em_iters + 1 E-steps,
    expected counts per order of the last E-step an M-step used, empty when
    em_iters is 0). N-grams
    are tuples of (graphemes, phonemes) pieces, padded at the start with
    `<s>` and ending in `</s>`.
    """
    def segmentations(word, pron):
        if not word and not pron:
            return [()]
        found = []
        for lg in range(min_letters, max_letters + 1):
            for lp in range(min_phones, max_phones + 1):
                if (lg or lp) and lg <= len(word) and lp <= len(pron):
                    piece = (word[:lg], tuple(pron[:lp]))
                    found += [(piece,) + rest for rest in segmentations(word[lg:], pron[lp:])]
        return found

    entries = []
    for word, prons in sorted(lexicon.entries.items()):
        for pron in prons:
            segs = segmentations(word, pron)
            if segs:
                entries.append([(BOS,) * (order - 1) + seg + (EOS,) for seg in segs])
    inventory = {piece for segs in entries for seq in segs for piece in seq[order - 1 : -1]}
    cond = None
    trace = []
    counts = {}
    for iteration in range(em_iters + 1):
        expected = {k: {} for k in range(1, order + 1)}
        log_likelihood = 0.0
        for segs in entries:
            scores = []
            for seq in segs:
                score = 1.0
                for i in range(order - 1, len(seq)):
                    gram = seq[i - order + 1 : i + 1]
                    score *= 1.0 / (len(inventory) + 1) if cond is None else cond.get(gram, 0.0)
                scores.append(score)
            total = sum(scores)
            log_likelihood += math.log10(total)
            for seq, score in zip(segs, scores):
                for i in range(order - 1, len(seq)):
                    for k in range(1, order + 1):
                        gram = seq[i - k + 1 : i + 1]
                        expected[k][gram] = expected[k].get(gram, 0.0) + score / total
        trace.append(log_likelihood)
        if iteration == em_iters:
            break
        counts = expected
        context_totals = {}
        for gram, c in expected[order].items():
            context_totals[gram[:-1]] = context_totals.get(gram[:-1], 0.0) + c
        cond = {gram: c / context_totals[gram[:-1]] for gram, c in expected[order].items()}
    return inventory, trace, counts


def _reference_entry_graph(edges, end, order, gid_of):
    """The E-step graph of one entry over states (cell, graphone-id history).

    States reachable from ((0, 0), BOS history) through the lattice `edges`,
    with `gid_of` giving each Graphone's id, are numbered in sorted order: a
    topological order, since every move advances the cell. Returns the
    transitions (src, dst, history + (gid,)) in breadth-first discovery
    order, each state's outgoing transition indices, and
    (state, history + (EOS_ID,)) for the states at `end`.
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
            found.append((state, nstate, gram))
            if nstate not in seen:
                seen.add(nstate)
                states.append(nstate)
    states.sort()
    index = {state: s for s, state in enumerate(states)}
    transitions = [(index[src], index[dst], gram) for src, dst, gram in found]
    out: list[list[int]] = [[] for _ in states]
    for t, (src, _, _) in enumerate(transitions):
        out[src].append(t)
    finals = [(s, hist + (EOS_ID,)) for s, (cell, hist) in enumerate(states) if cell == end]
    return transitions, out, finals


def reference_train_g2p(
    lexicon,
    order: int = 3,
    max_letters: int = 2,
    max_phones: int = 2,
    em_iters: int = 5,
    min_letters: int = 1,
    min_phones: int = 1,
    discount: float = 0.5,
):
    """`asrlm.lexg2p.train_g2p` as it was before its EM ran over interned
    gram ids, kept as the exact-output oracle of that rewrite (float sums,
    count-table order and likelihood trace included).

    EM training over latent graphone segmentations.

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
    if not entry_list:
        raise ValueError("no lexicon entry can be segmented within the size limits")
    graphones = tuple(sorted(inventory, key=lambda g: (g.graphemes, g.phonemes)))
    gid_of = {g: i for i, g in enumerate(graphones)}
    graphs = [_reference_entry_graph(edges, (len(word), len(pron)), order, gid_of)
              for word, pron, edges in entry_list]

    def run_e_step(probs, unseen):
        """One forward-backward pass; returns (log10 likelihood, expected counts).

        A full-order gram's probability is `probs.get(gram, unseen)`.
        """
        expected: dict[int, dict[tuple[int, ...], float]] = {
            k: {} for k in range(1, order + 1)
        }
        total_ll = 0.0
        for (word, _, _), (transitions, out, finals) in zip(entry_list, graphs):
            ps = [probs.get(gram, unseen) for _, _, gram in transitions]
            alpha = [0.0] * len(out)
            alpha[0] = 1.0
            for s, ts in enumerate(out):
                a = alpha[s]
                if a == 0.0:
                    continue
                for t in ts:
                    alpha[transitions[t][1]] += a * ps[t]
            z = 0.0
            ends = []
            for s, gram in finals:
                p_end = probs.get(gram, unseen)
                if p_end > 0.0 and alpha[s] > 0.0:
                    z += alpha[s] * p_end
                    ends.append((s, gram, p_end))
            if z <= 0.0:
                # Every path died under the current parameters; cannot happen
                # after a uniform first iteration.
                raise ArithmeticError(f"entry {word!r} has zero likelihood")
            total_ll += math.log10(z)
            # Backward pass; beta of an end state starts at its EOS factor.
            beta = [0.0] * len(out)
            for s, _, p_end in ends:
                beta[s] = p_end
            for s in range(len(out) - 1, -1, -1):
                acc = beta[s]
                for t in out[s]:
                    acc += ps[t] * beta[transitions[t][1]]
                beta[s] = acc
            inv_z = 1.0 / z
            posteriors = [(alpha[src] * p * beta[dst] * inv_z, gram)
                          for (src, dst, gram), p in zip(transitions, ps)]
            posteriors += [(alpha[s] * p_end * inv_z, gram) for s, gram, p_end in ends]
            for post, gram in posteriors:
                if post == 0.0:
                    continue
                for k, tab in expected.items():
                    key = gram[-k:]
                    tab[key] = tab.get(key, 0.0) + post
        return total_ll, expected

    # The first E-step is uniform; each later one uses the last M-step's conditionals.
    probs: dict[tuple[int, ...], float] = {}
    unseen = 1.0 / (len(graphones) + 1)
    trace = []
    final_counts: dict[int, dict[tuple[int, ...], float]] = {}
    for _ in range(em_iters):
        ll, final_counts = run_e_step(probs, unseen)
        trace.append(ll)
        top = final_counts[order]
        denoms: dict[tuple[int, ...], float] = {}
        for gram, c in top.items():
            denoms[gram[:-1]] = denoms.get(gram[:-1], 0.0) + c
        probs = {gram: c / denoms[gram[:-1]] for gram, c in top.items()}
        unseen = 0.0
    ll, _ = run_e_step(probs, unseen)
    trace.append(ll)
    del graphs, probs  # free the E-step state before the model builds its index

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
