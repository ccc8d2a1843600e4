"""Independent brute-force reference implementations used as test oracles.

Everything here recomputes results directly from first principles (plain
dicts, recursive definitions, exhaustive enumeration) and deliberately shares
no code with the package under test. The exceptions are the result type
`EditAlignment`, which `reference_align` returns so that whole alignments can
be compared with `==`; the G2P id markers and error type, which
`reference_apply_g2p` uses so that its results and messages compare with `==`;
the G2P segmentation lattice, `Graphone` and `JointSequenceModel`, which
`reference_train_g2p` builds its graphs and result from; and
`BackoffLM.walk`, which `context_probability_sums` asks, because a
normalization test checks the answers the model gives.

The last section is different in kind: frozen copies of the LM build's hot
loops (counting, merge, back-off rebuild, pruning costs, EM, the ARPA
writer) as they stood before their inner loops were tightened. They guard
that the package still does the same float operations in the same order, so
their results must be `==`, not merely close. They copy every helper that does arithmetic, and
import only the types, the input checks and, for the dev probabilities EM
starts from, `BackoffLM.log_prob`; EM's positions come from `iter_positions`
above. Every other back-off value they read comes from `backoff_log10_prob`
above, which adds in `BackoffLM.walk`'s order: the weights, then the stored
value.
"""

from __future__ import annotations

import heapq
import json
import math
from pathlib import Path

from asrlm.lexg2p import (
    BOS_ID,
    EOS_ID,
    G2PError,
    Graphone,
    JointSequenceModel,
    _segmentation_lattice,
)
from asrlm.mixture import InterpolationWeights, _check_components, _check_weights, component_ids
from asrlm.ngramcore.counts import NGramCountTable
from asrlm.ngramcore.model import BOS_LOG10_PROB, BackoffLM
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
        bow = lm.backoffs.get(len(context), {}).get(context)
        if bow is not None:
            total += bow
        context = context[1:]
    return total + lm.tables[len(context) + 1][context + (w,)]


def context_probability_sums(lm):
    """Yield (context, sum of p(w | context) over every predicted word) for
    the empty context and then each stored context of a longer gram, order
    by order in table order. `<s>` is never predicted, so it is not summed.
    The probabilities are the model's own answers, from `lm.walk`, added in
    vocabulary order from 0.0: a normalization test checks what the model
    answers to queries."""
    predicted = [w for w in lm.vocab.words if w != BOS]
    contexts = dict.fromkeys(gram[:-1] for k in range(2, lm.order + 1) for gram in lm.tables[k])
    for ctx in ((), *contexts):
        total = 0.0
        for w in predicted:
            total += 10.0 ** lm.walk(ctx + (w,))[0]
        yield ctx, total


def brute_force_prune_delta(lm, gram):
    """Relative-entropy cost, in log10 units, of deleting the stored `gram`.

    The model without `gram` keeps every other stored probability, and the
    weight of the context h = gram[:-1] is recomputed from its definition:
    the mass h's remaining stored words leave, 1 - sum of their p(w|h), over
    the sum of p(w | h minus its first word) for the words h no longer
    stores. The cost is p(h) * sum over every predicted w of
    p(w|h) * (log10 p(w|h) - log10 p'(w|h)), with p(h) by the chain rule and
    a leading `<s>` taking p(`</s>`).
    """
    history = gram[:-1]
    predicted = [w for w in lm.vocab.words if w != BOS]
    table = lm.tables[len(gram)]
    stored = {w for w in predicted if history + (w,) in table and history + (w,) != gram}
    kept_mass = sum(10.0 ** backoff_log10_prob(lm, w, history) for w in stored)
    lower_mass = sum(10.0 ** backoff_log10_prob(lm, w, history[1:])
                     for w in predicted if w not in stored)
    new_log_bow = math.log10(1.0 - kept_mass) - math.log10(lower_mass)
    delta = 0.0  # a word h still stores keeps its p(w|h) and adds 0
    for w in predicted:
        if w not in stored:
            logp = backoff_log10_prob(lm, w, history)
            delta += 10.0 ** logp * (logp - new_log_bow - backoff_log10_prob(lm, w, history[1:]))
    log_marginal = 0.0
    for i, token in enumerate(history):
        log_marginal += backoff_log10_prob(lm, EOS if i == 0 and token == BOS else token, history[:i])
    return 10.0 ** log_marginal * delta


def iter_positions(corpus, vocab, order):
    """Yield (history, token, is_oov) for every predicted position: every
    word plus one `</s>` per sentence, an OOV word as `<unk>`. `history` is
    the full window: the last `order - 1` mapped tokens before the position,
    `<s>` included (fewer near a sentence start). Scoring walks the shorter
    histories `evaluate.walk_positions` carries instead; these full-window
    positions are the reference it is compared with.
    """
    n = order - 1
    ids = vocab.ids
    for sent in corpus.sentences:
        history = (BOS,)[:n]
        for tok in sent:
            oov = tok not in ids
            if oov:
                tok = UNK
            yield history, tok, oov
            history = (*history, tok)[-n:] if n else ()
        yield history, EOS, False


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


def graphone_shift(model, history, gid):
    """The history after `gid` follows `history`: its last `order - 1` ids."""
    return (history + (gid,))[-(model.order - 1):] if model.order > 1 else ()


def sequence_log10(model, gids):
    """log10 joint probability of a complete graphone sequence plus EOS,
    summed from the model's own conditionals in path order."""
    hist = model.start_history()
    total = 0.0
    for gid in gids:
        total += model.cond_log10(gid, hist)
        hist = graphone_shift(model, hist, gid)
    return total + model.cond_log10(EOS_ID, hist)


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
        score = sequence_log10(model, ids)
        phones = tuple(p for gid in ids for p in model.graphones[gid].phonemes)
        if phones not in best or score > best[phones]:
            best[phones] = score
    return sorted(best.items(), key=lambda kv: (-kv[1], kv[0]))


def reference_contexts(model):
    """Per order, context -> (count total, discounted mass / total, followers),
    for the contexts with a positive total: the per-context table that
    `JointSequenceModel.__post_init__` built with two running-sum dicts
    before it grouped followers first."""
    contexts = {}
    for k in range(1, model.order + 1):
        denoms = {}
        gnum = {}
        followers = {}
        for gram, c in model.counts.get(k, {}).items():
            ctx = gram[:-1]
            denoms[ctx] = denoms.get(ctx, 0.0) + c
            gnum[ctx] = gnum.get(ctx, 0.0) + min(model.discount, c)
            followers.setdefault(ctx, {})[gram[-1]] = c
        contexts[k] = {
            ctx: (denom, gnum[ctx] / denom, followers[ctx])
            for ctx, denom in denoms.items() if denom > 0.0
        }
    return contexts


def reference_save_g2p_model(model, path):
    """The G2P model saver that encoded the whole payload with one
    `json.dumps(payload, sort_keys=True)`, kept as the byte oracle of the
    streamed `asrlm.lexg2p.save_g2p_model`."""
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
    Path(path).write_text(json.dumps(payload, sort_keys=True), encoding="utf-8", newline="")


def reference_cond_list(model, contexts, ctx, gids, memo):
    """p(gid | ctx) for every gid in `gids`, looking each count up as the
    full gram `ctx + (gid,)`; `memo` is shared only between equal `gids`."""
    probs = memo.get(ctx)
    if probs is not None:
        return probs
    k = len(ctx) + 1
    if k > 1:
        lower = reference_cond_list(model, contexts, ctx[1:], gids, memo)
    else:
        lower = [1.0 / (len(model.graphones) + 1)] * len(gids)
    stats = contexts[k].get(ctx)
    if stats is None:
        probs = lower
    else:
        denom, gamma, _ = stats
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
    contexts = reference_contexts(model)
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
                    for gid, p in zip(gids, reference_cond_list(model, contexts, hist, gids, memo))
                ]
                for phones, score in members:
                    for phonemes, nhist, logp in successors:
                        nscore = score + logp
                        nkey = (phones + phonemes, nhist)
                        if nkey not in lvl or nscore > lvl[nkey]:
                            lvl[nkey] = nscore
    best = {}
    for (phones, hist), score in levels[len(word)].items():
        p_end = reference_cond_list(model, contexts, hist, (EOS_ID,), {})[0]
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


# --- Frozen copies of the LM build's hot loops ------------------------------
# The statements are as they were in the package; only the `reference_` /
# `_ref_` name prefixes are new, and type annotations and docstrings are
# left out. Do not tighten these: they define the float operations, and their
# order, that the package's versions must reproduce bit for bit. Their three
# `sum()` calls are written out as the left-to-right loop from 0.0 that
# 3.11's `sum()` runs, since 3.12's `sum()` compensates (see the note in
# `lexg2p.JointSequenceModel.__post_init__`).


def reference_count_ngrams(corpus, order, vocab):
    if order < 1:
        raise ValueError("order must be >= 1")
    if len(corpus) == 0:
        raise ValueError(f"corpus {corpus.id!r} is empty")
    counts = {k: {} for k in range(1, order + 1)}
    for sent in corpus.sentences:
        padded = [BOS] + [t if t in vocab.ids else UNK for t in sent] + [EOS]
        uni = counts[1]
        for tok in padded[1:]:
            key = (tok,)
            uni[key] = uni.get(key, 0) + 1
        for k in range(2, order + 1):
            table = counts[k]
            for i in range(len(padded) - k + 1):
                gram = tuple(padded[i : i + k])
                table[gram] = table.get(gram, 0) + 1
    continuation = {}
    for k in range(1, order):
        left = {}
        for gram in counts[k + 1]:
            left.setdefault(gram[1:], set()).add(gram[0])
        continuation[k] = {g: len(ws) for g, ws in left.items()}
    return NGramCountTable(
        order=order,
        counts=counts,
        continuation=continuation,
        vocab=vocab,
        corpus_id=corpus.id,
    )


def _ref_value(lm, gram):
    return backoff_log10_prob(lm, gram[-1], gram[:-1])


def _ref_group_by_context(table):
    children = {}
    for gram in table:
        children.setdefault(gram[:-1], []).append(gram)
    return children


def _ref_leftover_masses(lm, grams):
    table = lm.tables[len(grams[0])]
    stored_sum = 0.0
    lower_sum = 0.0
    for gram in grams:
        stored_sum += 10.0 ** table[gram]
        lower_sum += 10.0 ** _ref_value(lm, gram[1:])
    return 1.0 - stored_sum, 1.0 - lower_sum


def _ref_log_backoff(num, den):
    if num <= 0.0 or den <= 0.0:
        return 0.0
    return math.log10(num) - math.log10(den)


def reference_rebuild_backoffs(lm):
    for ctx_len in range(1, lm.order):
        ctx_table = lm.tables[ctx_len]
        gram_table = lm.tables[ctx_len + 1]
        weights = {ctx: _ref_log_backoff(*_ref_leftover_masses(lm, grams))
                   for ctx, grams in _ref_group_by_context(gram_table).items() if ctx in ctx_table}
        lm.backoffs[ctx_len] = weights


def _ref_log_marginals(lm, histories):
    sums = []
    previous = ()
    for history in histories:
        common = 0
        while common < len(sums) and history[common] == previous[common]:
            common += 1
        del sums[common:]
        for i in range(common, len(history)):
            if i == 0:
                sums.append(_ref_value(lm, (EOS,) if history[0] == BOS else history[:1]))
            else:
                sums.append(sums[-1] + _ref_value(lm, history[:i + 1]))
        previous = history
        yield history, sums[-1]


def reference_entropy_deltas(lm, k, protected):
    table = lm.tables[k]
    siblings = _ref_group_by_context(table)
    for history, log_marginal in _ref_log_marginals(lm, sorted(siblings)):
        grams = siblings[history]
        log_bow = lm.backoffs[k - 1].get(history, 0.0)
        num, den = _ref_leftover_masses(lm, grams)
        h_marginal = 10.0 ** log_marginal
        for gram in grams:
            if gram in protected:
                continue
            log_plower = _ref_value(lm, gram[1:])
            logp = table[gram]
            p = 10.0 ** logp
            # The context's weight once this gram is left out.
            new_log_bow = _ref_log_backoff(num + p, den + 10.0 ** log_plower)
            delta_logp = log_plower + new_log_bow - logp
            yield gram, -h_marginal * (p * delta_logp + num * (new_log_bow - log_bow))


def reference_em_weights(lms, dev, init=None, tol=1e-6, max_iter=100):
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter!r}")
    if not tol >= 0.0:  # also refuses NaN
        raise ValueError(f"tol must be a number >= 0, got {tol!r}")
    _check_components(lms)
    if len(dev) == 0:
        raise ValueError("dev corpus is empty")
    m = len(lms)
    weights = [1.0 / m] * m if init is None else list(_check_weights(init, m))
    order = max(lm.order for lm in lms)
    rows = [[10.0 ** lm.log_prob(token, history) for lm in lms]
            for history, token, _ in iter_positions(dev, lms[0].vocab, order)]
    n_positions = len(rows)

    def log_likelihood_and_posteriors(ws):
        ll = 0.0
        sums = [0.0] * m
        for row in rows:
            mix = 0.0
            for w, p in zip(ws, row):
                mix += w * p
            assert mix > 0.0, "mixture probability vanished at a dev position"
            ll += math.log10(mix)
            for i in range(m):
                sums[i] += ws[i] * row[i] / mix
        return ll, sums

    ll, posterior_sums = log_likelihood_and_posteriors(weights)
    for _ in range(max_iter):
        new_weights = [s / n_positions for s in posterior_sums]
        total = 0.0
        for w in new_weights:
            total += w
        new_weights = [w / total for w in new_weights]
        new_ll, new_sums = log_likelihood_and_posteriors(new_weights)
        improved = new_ll - ll
        weights, ll, posterior_sums = new_weights, new_ll, new_sums
        if improved < tol:
            break
    return InterpolationWeights(
        lm_ids=component_ids(lms),
        lambdas=tuple(weights),
        dev_log10_likelihood=ll,
    )


def reference_interpolate_static(lms, weights):
    lambdas = _check_weights(weights, len(lms))
    _check_components(lms)
    order = lms[0].order
    for lm in lms[1:]:
        if lm.order != order:
            raise ValueError("static merge requires components of equal order")
    merged_meta = {
        "smoothing": "static-interpolation",
        "components": list(component_ids(lms)),
        "weights": [float(l) for l in lambdas],
    }
    if len(lms) == 1 and lambdas[0] == 1.0:
        clone = lms[0].clone()
        clone.metadata.update(merged_meta)
        return clone

    tables = {}
    for k in range(1, order + 1):
        tk = {}
        for gram in sorted(set().union(*(lm.tables[k] for lm in lms))):
            if gram == (BOS,):
                tk[gram] = BOS_LOG10_PROB
                continue
            mix = 0.0
            for lam, lm in zip(lambdas, lms):
                mix += lam * 10.0 ** _ref_value(lm, gram)
            tk[gram] = math.log10(mix)
        tables[k] = tk
    merged = BackoffLM(order=order, tables=tables, vocab=lms[0].vocab, metadata=merged_meta)
    reference_rebuild_backoffs(merged)
    return merged


# The ARPA writer as a per-line loop, before it formatted each chunk in one
# pass: `write_arpa` must write its bytes and raise its first error.
def reference_arpa_text(lm, path):
    lines = ["\\data\\"]
    for k in range(1, lm.order + 1):
        lines.append(f"ngram {k}={len(lm.tables[k])}")
    lines.append("")
    for k in range(1, lm.order + 1):
        lines.append(f"\\{k}-grams:")
        table = lm.tables[k]
        bows = lm.backoffs[k] if k < lm.order else {}
        for gram in sorted(table):
            logp = table[gram]
            text = f"{logp + 0.0:.7g}"
            if text[-1] > "9":
                raise _ref_non_finite(path, k, gram, "log-prob", logp)
            line = f"{text}\t{' '.join(gram)}"
            if gram in bows and gram[-1] != EOS:
                text = f"{bows[gram] + 0.0:.7g}"
                if text[-1] > "9":
                    raise _ref_non_finite(path, k, gram, "back-off weight", bows[gram])
                line += f"\t{text}"
            lines.append(line)
        lines.append("")
    lines.append("\\end\\")
    return "\n".join(lines) + "\n"


def _ref_non_finite(path, k, gram, field, value):
    return ValueError(f"{path}: {k}-gram {' '.join(gram)!r} has non-finite {field} "
                      f"{value!r}; no file written")
