import dataclasses
import gc
import json
import math
import random
import re
import tracemalloc
from pathlib import Path

import pytest

from asrlm import lexg2p
from asrlm.lexg2p import (
    BOS_ID,
    EOS_ID,
    G2PError,
    Graphone,
    JointSequenceModel,
    Lexicon,
    LexiconError,
    apply_g2p,
    extend_lexicon,
    load_g2p_model,
    load_lexicon,
    make_lexicon,
    merge_lexicons,
    save_g2p_model,
    save_lexicon,
    train_g2p,
)
from tests.conftest import traced_peak
from tests.reference import (
    brute_force_g2p_em,
    exhaustive_g2p,
    graphone_cond_prob,
    graphone_shift,
    reference_apply_g2p,
    reference_cond_list,
    reference_contexts,
    reference_save_g2p_model,
    reference_train_g2p,
    sequence_log10,
)


FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def identity_lexicon(words):
    return make_lexicon((w, tuple(w)) for w in words)


def random_lexicon(rng, n_words=12, alphabet="abcd", phones=("P", "Q", "R")):
    pairs = []
    for _ in range(n_words):
        length = rng.randint(1, 5)
        word = "".join(rng.choice(alphabet) for _ in range(length))
        pron = tuple(rng.choice(phones) for _ in range(max(1, length + rng.randint(-1, 1))))
        pairs.append((word, pron))
    return make_lexicon(pairs)


# Longest-match spelling rules of `rule_lexicon`.
RULES = {"sch": ("S",), "ch": ("X",), "st": ("S", "T"), "ei": ("AI",), "ie": ("I:",),
         "ng": ("N",), **{c: (c.upper(),) for c in "abdeiklmnorstu"}}


def rule_lexicon(rng, n_words):
    """Words of two or three onset-vowel-coda syllables, each pronounced by
    longest match over RULES; every tenth pronunciation has one phoneme
    replaced, as an irregular entry."""
    onsets = ("b", "d", "k", "l", "m", "sch", "st", "tr")
    vowels = ("a", "e", "i", "o", "u", "ei", "ie")
    codas = ("", "n", "r", "s", "ch", "ng")
    pairs = []
    for n in range(n_words):
        word = "".join(rng.choice(onsets) + rng.choice(vowels) + rng.choice(codas)
                       for _ in range(rng.choice((2, 3))))
        pron, i = [], 0
        while i < len(word):
            size = next(size for size in (3, 2, 1) if word[i:i + size] in RULES)
            pron += RULES[word[i:i + size]]
            i += size
        if n % 10 == 9:
            pron[rng.randrange(len(pron))] = "@"
        pairs.append((word, tuple(pron)))
    return make_lexicon(pairs)


def test_lexicon_dedup_and_invariants():
    lex = make_lexicon([("ab", ("A", "B")), ("ab", ("A", "B")), ("ab", ("A",))])
    assert lex.entries["ab"] == (("A", "B"), ("A",))
    with pytest.raises(LexiconError, match="empty"):
        Lexicon(entries={"x": ((),)}, inventory=frozenset("X"))
    with pytest.raises(LexiconError, match="inventory"):
        Lexicon(entries={"x": (("Z",),)}, inventory=frozenset("X"))


def test_lexicon_file_round_trip(tmp_path):
    lex = make_lexicon([("cat", ("K", "AE", "T")), ("cat", ("K", "AH", "T")), ("a", ("AH",))])
    p = tmp_path / "lex.tsv"
    save_lexicon(lex, p)
    again = load_lexicon(p)
    assert again.entries == lex.entries


def test_load_lexicon_rejects_bad_lines(tmp_path):
    p = tmp_path / "lex.tsv"
    p.write_text("word-without-pron\n", encoding="utf-8")
    with pytest.raises(LexiconError, match=":1:"):
        load_lexicon(p)


def test_load_lexicon_splits_lines_at_line_feed_only(tmp_path):
    p = tmp_path / "lex.tsv"
    # U+2028 is a line break to str.splitlines, which would add an entry "ba".
    p.write_text("ab\ta b\u2028ba\tb a\n", encoding="utf-8")
    with pytest.raises(LexiconError, match="^" + re.escape(f"{p}:1: expected")):
        load_lexicon(p)
    p.write_bytes(b"ab\ta b\r\n\r\nba\tb a\r\n")
    assert load_lexicon(p).entries == {"ab": (("a", "b"),), "ba": (("b", "a"),)}


def test_merge_policies():
    base = make_lexicon([("shared", ("A",)), ("base", ("B",))], inventory="ABC")
    addon = make_lexicon([("shared", ("C",)), ("new", ("A",))], inventory="ABC")
    union = merge_lexicons(base, addon, "union")
    assert union.entries["shared"] == (("A",), ("C",))
    assert set(union.entries) == {"shared", "base", "new"}
    assert merge_lexicons(base, addon, "addon_wins").entries["shared"] == (("C",),)
    assert merge_lexicons(base, addon, "base_wins").entries["shared"] == (("A",),)


def test_merge_union_is_commutative():
    base = make_lexicon([("w", ("A",)), ("x", ("B",))], inventory="AB")
    addon = make_lexicon([("w", ("B",)), ("y", ("A",))], inventory="AB")
    ab = merge_lexicons(base, addon, "union")
    ba = merge_lexicons(addon, base, "union")
    assert {w: frozenset(p) for w, p in ab.entries.items()} == {
        w: frozenset(p) for w, p in ba.entries.items()
    }


def test_merge_disjoint_any_policy():
    base = make_lexicon([("one", ("A",))], inventory="AB")
    addon = make_lexicon([("two", ("B",))], inventory="AB")
    for policy in ("union", "addon_wins", "base_wins"):
        merged = merge_lexicons(base, addon, policy)
        assert set(merged.entries) == {"one", "two"}


def test_merge_inventory_mismatch_and_mapping():
    base = make_lexicon([("w", ("A",))], inventory="A")
    addon = make_lexicon([("v", ("Z",))], inventory="Z")
    with pytest.raises(LexiconError, match="Z"):
        merge_lexicons(base, addon, "union")
    merged = merge_lexicons(base, addon, "union", symbol_map={"Z": "A"})
    assert merged.entries["v"] == (("A",),)


def test_train_identity_lexicon_dominant_graphones():
    lex = identity_lexicon(["ab", "ba", "aab", "bab", "abb", "baa"])
    model = train_g2p(lex, order=2, max_letters=1, max_phones=1, em_iters=3)
    assert set(model.graphones) == {Graphone("a", ("a",)), Graphone("b", ("b",))}
    # Held-out identity words transduce to themselves.
    for word in ["aba", "bba"]:
        top = apply_g2p(model, word, beam=50, n_best=1)
        assert top[0][0] == tuple(word)


def test_em_likelihood_trace_non_decreasing():
    rng = random.Random(3)
    lex = random_lexicon(rng)
    model = train_g2p(lex, order=2, em_iters=6)
    trace = model.log10_likelihood_trace
    assert len(trace) == 7
    for a, b in zip(trace, trace[1:]):
        assert b >= a - 1e-9


def test_single_entry_unique_segmentation_converges_in_one_iteration():
    lex = make_lexicon([("ab", ("A", "B"))])
    model = train_g2p(lex, order=2, max_letters=1, max_phones=1, em_iters=1)
    assert model.log10_likelihood_trace[-1] == pytest.approx(0.0, abs=1e-12)


def test_zero_iterations_returns_uniform_normalized_model():
    lex = identity_lexicon(["ab", "ba"])
    model = train_g2p(lex, order=2, max_letters=1, max_phones=1, em_iters=0)
    n = len(model.graphones)
    hist = model.start_history()
    total = sum(model.cond_prob(g, hist) for g in range(n)) + model.cond_prob(-2, hist)
    assert total == pytest.approx(1.0, abs=1e-12)
    for g in range(n):
        assert model.cond_prob(g, hist) == pytest.approx(1.0 / (n + 1), abs=1e-12)


def test_model_conditionals_normalize_after_training():
    rng = random.Random(17)
    lex = random_lexicon(rng, n_words=8)
    for order in (2, 3):
        model = train_g2p(lex, order=order, em_iters=4)
        n = len(model.graphones)
        histories = [model.start_history()] + [
            graphone_shift(model, model.start_history(), g) for g in range(min(n, 5))
        ]
        # Every seen top-order context, and unseen ones that back off.
        histories += sorted({gram[:-1] for gram in model.counts[order]})
        histories += [
            graphone_shift(model, graphone_shift(model, model.start_history(), g), g)
            for g in range(min(n, 5))
        ]
        for hist in histories:
            total = sum(model.cond_prob(g, hist) for g in range(n)) + model.cond_prob(-2, hist)
            assert total == pytest.approx(1.0, abs=1e-9)


def test_cond_prob_matches_reference_recursion():
    rng = random.Random(29)
    lex = random_lexicon(rng, n_words=8)
    for order in (1, 2, 3):
        model = train_g2p(lex, order=order, em_iters=3)
        n = len(model.graphones)
        # Every seen context at each order, padded to a full history, plus
        # histories whose top-order context is unseen.
        histories = {
            model.start_history()[: order - len(gram)] + gram[:-1]
            for table in model.counts.values() for gram in table
        }
        histories |= {graphone_shift(model, graphone_shift(model, model.start_history(), g), g)
                      for g in range(n)}
        for hist in sorted(histories):
            for gid in list(range(n)) + [-2]:
                assert model.cond_prob(gid, hist) == pytest.approx(
                    graphone_cond_prob(model, gid, hist), rel=1e-12), (hist, gid)


@pytest.mark.parametrize("order", [1, 2, 3])
@pytest.mark.parametrize("min_letters, min_phones", [(0, 1), (1, 0), (1, 1)])
def test_train_g2p_matches_brute_force_em(order, min_letters, min_phones):
    lex = random_lexicon(random.Random(44), n_words=14, alphabet="abc")
    lex = make_lexicon((w, p) for w, ps in lex.entries.items() for p in ps if len(w) <= 4)
    kwargs = dict(max_letters=2, max_phones=2, min_letters=min_letters, min_phones=min_phones)
    model = train_g2p(lex, order=order, em_iters=3, **kwargs)
    inventory, trace, counts = brute_force_g2p_em(lex, order, em_iters=3, **kwargs)
    assert set(model.graphones) == inventory
    symbol = {BOS_ID: "<s>", EOS_ID: "</s>"}
    named = {
        k: {tuple(symbol[g] if g < 0 else model.graphones[g] for g in gram): c
            for gram, c in table.items()}
        for k, table in model.counts.items()
    }
    assert sorted(named) == sorted(counts) == list(range(1, order + 1))
    for k in counts:
        assert set(named[k]) == set(counts[k]), k
        for gram, c in counts[k].items():
            assert named[k][gram] == pytest.approx(c, rel=1e-9), (k, gram)
    assert model.log10_likelihood_trace == pytest.approx(trace, abs=1e-9)


def test_train_g2p_equals_reference():
    # EM over interned gram ids must give the tuple-keyed EM's model bit for
    # bit: the same float sums, and so, as both models keep their counts in
    # sorted gram order, the same count tables in the same order. "abcab" has
    # one phoneme, so no size limit up to 3 letters segments it.
    rng = random.Random(53)
    for order in (1, 2, 3, 4):
        for size in (1, 2, 3):
            for min_letters in (0, 1):
                pairs = [(w, p) for w, ps in random_lexicon(rng, n_words=8).entries.items()
                         for p in ps]
                lex = make_lexicon(pairs + [("abcab", ("P",))])
                for em_iters in (0, 1, 3):
                    kwargs = dict(order=order, max_letters=size, max_phones=size,
                                  min_letters=min_letters, em_iters=em_iters)
                    model = train_g2p(lex, **kwargs)
                    expected = reference_train_g2p(lex, **kwargs)
                    assert model.graphones == expected.graphones, kwargs
                    assert model.log10_likelihood_trace == expected.log10_likelihood_trace, kwargs
                    assert model.training_report == expected.training_report, kwargs
                    assert "abcab" in [w for w, _, _ in model.training_report["skipped"]]
                    assert list(model.counts) == list(expected.counts), kwargs
                    for k, table in expected.counts.items():
                        assert list(model.counts[k].items()) == list(table.items()), (kwargs, k)


def test_unsegmentable_entries_reported_and_skipped():
    # 1 letter but 3 phonemes cannot fit in (max_letters=1, max_phones=1).
    lex = make_lexicon([("a", ("X", "Y", "Z")), ("bc", ("X", "Y"))])
    model = train_g2p(lex, order=1, max_letters=1, max_phones=1, em_iters=2)
    skipped = model.training_report["skipped"]
    assert len(skipped) == 1
    assert skipped[0][0] == "a"


def test_apply_identity_trained_model():
    lex = identity_lexicon(["ab", "ba", "abab"])
    model = train_g2p(lex, order=2, max_letters=1, max_phones=1, em_iters=4)
    assert apply_g2p(model, "ba", beam=100)[0][0] == ("b", "a")


def test_apply_unseen_letter_lists_letters():
    lex = identity_lexicon(["ab"])
    model = train_g2p(lex, order=1, max_letters=1, max_phones=1, em_iters=1)
    with pytest.raises(G2PError, match="q"):
        apply_g2p(model, "aqz", beam=10)


@pytest.mark.parametrize("n_best", [0, -1])
def test_apply_refuses_n_best_below_one(n_best):
    model = train_g2p(identity_lexicon(["ab"]), order=1, max_letters=1, max_phones=1, em_iters=1)
    with pytest.raises(ValueError, match="n_best must be >= 1"):
        apply_g2p(model, "ab", n_best=n_best)


def test_beam_matches_exhaustive_search():
    rng = random.Random(23)
    configs = [
        # Small inventory within the <=30-graphone regime, plus larger ones.
        dict(alphabet="abc", phones=("P", "Q"), max_phones=1),
        dict(alphabet="ab", phones=("P", "Q"), max_phones=2),
        dict(alphabet="abcd", phones=("P", "Q", "R"), max_phones=2),
    ]
    checked_small = False
    for cfg in configs:
        lex = random_lexicon(rng, n_words=10, alphabet=cfg["alphabet"], phones=cfg["phones"])
        model = train_g2p(lex, order=2, max_phones=cfg["max_phones"], em_iters=3)
        if len(model.graphones) <= 30:
            checked_small = True
        words = sorted({w for w in lex.entries if len(w) <= 5})
        for word in words:
            beam_out = apply_g2p(model, word, beam=100000, n_best=3)
            exact = exhaustive_g2p(model, word)
            if not exact:
                assert not beam_out
                continue
            assert beam_out[0][0] == exact[0][0], f"word {word!r}"
            assert beam_out[0][1] == pytest.approx(exact[0][1], abs=1e-9)
    assert checked_small


def test_beam_matches_exhaustive_search_at_order_3():
    # Two history levels to back off over, and two-letter graphones.
    rng = random.Random(31)
    lex = random_lexicon(rng, n_words=10, alphabet="abc", phones=("P", "Q"))
    model = train_g2p(lex, order=3, max_letters=2, max_phones=2, em_iters=3)
    for word in sorted({w for w in lex.entries if len(w) <= 5}):
        # Both sides add the same log10 conditionals in path order, so the
        # n-best lists agree exactly.
        assert apply_g2p(model, word, beam=100000, n_best=3) == exhaustive_g2p(model, word)[:3]


def _decode(decoder, model, word, beam, n_best):
    try:
        return decoder(model, word, beam=beam, n_best=n_best)
    except G2PError as exc:
        return f"G2PError: {exc}"


def test_apply_g2p_equals_reference_with_binding_beam():
    # Threshold pruning must drop only what the beam cut drops. Models at
    # orders 1-3 with 1- and 2-letter graphones; untrained ones, whose equal
    # scores tie at every bound; one with empty-grapheme graphones; and two
    # over two letters and two phonemes, where many segmentations reach the
    # same hypothesis and raise its score. Beyond the top 1 and 3, the whole
    # ranked list compares the cut of the last level.
    rng = random.Random(47)
    models = []
    for order in (1, 2, 3):
        for max_letters in (1, 2):
            for em_iters in (0, 2):
                lex = random_lexicon(rng, n_words=10, alphabet="abc", phones=("P", "Q", "R"))
                models.append(train_g2p(lex, order=order, max_letters=max_letters,
                                        max_phones=2, em_iters=em_iters))
    lex = random_lexicon(rng, n_words=10, alphabet="abc", phones=("P", "Q", "R"))
    models.append(train_g2p(lex, order=2, max_letters=2, max_phones=1, min_letters=0,
                            em_iters=2))
    for order in (1, 2):
        lex = random_lexicon(rng, n_words=10, alphabet="ab", phones=("P", "Q"))
        models.append(train_g2p(lex, order=order, max_letters=2, max_phones=2, em_iters=2))
    # Shaped like the benchmark's lexicon: a rule-spelled lexicon over more
    # letters, where most order-3 contexts of a decoded word are unseen.
    models.append(train_g2p(rule_lexicon(random.Random(53), n_words=12), order=3,
                            max_letters=2, max_phones=2, em_iters=3))
    binding = 0
    for model in models:
        alphabet = sorted(model.letters)
        words = ["".join(rng.choice(alphabet) for _ in range(length)) for length in range(1, 9)]
        words += ["abd", "dd"]  # letters no graphone covers
        for word in words:
            for n_best in (1, 3, 10**6):
                outputs = []
                for beam in (30, 5, 3, 2, 1):
                    expected = _decode(reference_apply_g2p, model, word, beam, n_best)
                    assert _decode(apply_g2p, model, word, beam, n_best) == expected, (
                        model.order, model.max_letters, word, beam, n_best)
                    outputs.append(expected)
                binding += outputs[-1] != outputs[0]
    assert binding > 100  # beam 1 and beam 30 disagree often: the cut binds


def test_apply_g2p_equals_reference_with_shuffled_graphone_ids():
    # The decoder stops a group of equal-score successors at its first
    # rejected one, which is exact only if the group comes in the cut key's
    # order: by phonemes, then by id. Training numbers graphones in phoneme
    # order, so shuffled ids, a graphone listed twice and distinct p with
    # one log10 test the tie order that a trained model would hide.
    rng = random.Random(89)
    models = []
    for order in (1, 2, 3):
        for max_letters in (1, 2):
            for em_iters in (0, 2):
                lex = random_lexicon(rng, n_words=10, alphabet="abc", phones=("P", "Q", "R"))
                models.append(permuted(train_g2p(lex, order=order, max_letters=max_letters,
                                                 max_phones=2, em_iters=em_iters), rng))
    model = train_g2p(random_lexicon(rng, n_words=10, alphabet="abc"), order=2, max_letters=2,
                      max_phones=2, em_iters=2)
    most = max(range(len(model.graphones)), key=lambda gid: model.counts[1].get((gid,), 0.0))
    models += [duplicated(model, most), log10_collision_model()]
    binding = 0
    for model in models:
        alphabet = sorted(model.letters)
        for length in range(1, 9):
            word = "".join(rng.choice(alphabet) for _ in range(length))
            for n_best in (1, 3):
                outputs = []
                for beam in (30, 5, 3, 2, 1):
                    expected = _decode(reference_apply_g2p, model, word, beam, n_best)
                    assert _decode(apply_g2p, model, word, beam, n_best) == expected, (
                        model.order, model.max_letters, word, beam, n_best)
                    outputs.append(expected)
                binding += outputs[-1] != outputs[0]
    assert binding > 100


def test_a_rejected_tie_stops_only_its_own_log10_group():
    # "a" as X has a log10 p just below that of "a" as Y or Z, but after
    # "bbb" both scores round to one float. At beam 1, Y enters, Z ties with
    # it and is rejected by its phonemes, and X still ties with Y and sorts
    # first: a stop that left the history at Z would keep Y.
    graphones = (Graphone("a", ("X",)), Graphone("a", ("Y",)), Graphone("a", ("Z",)),
                 Graphone("b", ("B",)))
    counts = {1: {(0,): math.nextafter(math.nextafter(math.nextafter(3.0, 0), 0), 0), (1,): 3.0,
                  (2,): 3.0, (3,): 0.75, (EOS_ID,): 1.0}}
    model = JointSequenceModel(order=1, max_letters=1, max_phones=1, min_letters=1, min_phones=1,
                               graphones=graphones, counts=counts, discount=0.5)
    prefix = 3 * model.cond_log10(3, ())
    x, y = model.cond_log10(0, ()), model.cond_log10(1, ())
    assert x < y and prefix + x == prefix + y
    expected = reference_apply_g2p(model, "bbba", beam=1)
    assert expected[0][0] == ("B", "B", "B", "X")
    assert apply_g2p(model, "bbba", beam=1) == expected


def rebuilt(model, graphones, counts):
    return JointSequenceModel(order=model.order, max_letters=model.max_letters,
                              max_phones=model.max_phones, min_letters=model.min_letters,
                              min_phones=model.min_phones, graphones=graphones, counts=counts,
                              discount=model.discount)


def permuted(model, rng):
    """`model` with its graphone ids shuffled: the same conditionals up to the
    rounding of each context's total, which adds its counts in id order, but
    other id tie orders."""
    new_id = list(range(len(model.graphones)))
    rng.shuffle(new_id)
    graphones = [None] * len(new_id)
    for gid, new in enumerate(new_id):
        graphones[new] = model.graphones[gid]
    counts = {k: {tuple(g if g < 0 else new_id[g] for g in gram): c for gram, c in table.items()}
              for k, table in model.counts.items()}
    return rebuilt(model, tuple(graphones), counts)


def duplicated(model, gid):
    """`model` plus a last graphone equal to graphone `gid`, with gid's counts
    wherever gid is the predicted id: the two tie in every such context."""
    new = len(model.graphones)
    counts = {k: {**table, **{gram[:-1] + (new,): c for gram, c in table.items() if gram[-1] == gid}}
              for k, table in model.counts.items()}
    return rebuilt(model, model.graphones + (model.graphones[gid],), counts)


def log10_collision_model():
    """An order-2 model over "ab" whose "a" graphones have two order-1 p one
    ulp apart with the same log10, the larger on Z and X and the smaller on
    Y and W, and whose phonemes sort against their ids."""
    graphones = tuple(Graphone("a", (ph,)) for ph in "ZYXWVU") + (Graphone("b", ("B",)),)
    c = math.nextafter(1.5, 2.0)
    counts = {1: {(0,): c, (1,): 1.5, (2,): c, (3,): 1.5, (4,): 1.0, (5,): 0.25, (6,): 1000.0,
                  (EOS_ID,): 2.0},
              2: {(6, 5): 3.0, (6, 4): 0.4, (6, 1): 0.5, (BOS_ID, 6): 4.0, (0, EOS_ID): 1.0}}
    return JointSequenceModel(order=2, max_letters=1, max_phones=1, min_letters=1, min_phones=1,
                              graphones=graphones, counts=counts, discount=0.5)


def test_successors_yield_the_full_conditional_list_best_first():
    # The stream must give exactly the (log10 p, gid) multiset of the whole
    # conditional list, compared with ==, one group per distinct log10 p,
    # and flattened in ascending (-log10 p, phonemes, gid): the decoder
    # stops a group at its first rejected gid because the cut key ranks
    # equal scores by phonemes.
    rng = random.Random(71)
    models = [train_g2p(random_lexicon(rng, n_words=10, alphabet="abc"), order=order,
                        max_letters=2, max_phones=2, em_iters=2) for order in (1, 2, 3)]
    models.append(train_g2p(random_lexicon(rng, n_words=10, alphabet="abc"), order=3,
                            max_letters=2, max_phones=1, min_letters=0, em_iters=2))
    models.append(train_g2p(random_lexicon(rng, n_words=10, alphabet="abc"), order=3,
                            max_letters=2, max_phones=2, em_iters=0))  # every score ties
    models += [permuted(models[2], rng), log10_collision_model()]
    merged = 0  # groups that hold more than one distinct p
    for model in models:
        contexts = reference_contexts(model)
        start = model.start_history()
        once = {graphone_shift(model, start, g) for g in range(len(model.graphones))}
        histories = sorted({start} | once | {graphone_shift(model, h, g) for h in once
                                               for g in range(len(model.graphones))})
        for piece, gids in model.by_grapheme.items():
            memo = {}
            for hist in histories:
                probs = reference_cond_list(model, contexts, hist, gids, memo)
                full = [(math.log10(p), gid) for gid, p in zip(gids, probs)]
                groups = [(logp, list(gids)) for logp, gids in model.successors(hist, piece)]
                stream = [(logp, gid) for logp, gids in groups for gid in gids]
                assert sorted(stream) == sorted(full), (model.order, piece, hist)
                keys = [(-logp, model.graphones[gid].phonemes, gid) for logp, gid in stream]
                assert keys == sorted(keys), (model.order, piece, hist)
                values = [logp for logp, _ in groups]
                assert values == sorted(set(values), reverse=True), (piece, hist)
                p_of = dict(zip(gids, probs))
                merged += sum(len({p_of[gid] for gid in group}) > 1 for _, group in groups)
    assert merged


def test_beam_scores_are_log10_of_sequence_probability():
    lex = identity_lexicon(["ab", "ba"])
    model = train_g2p(lex, order=2, max_letters=1, max_phones=1, em_iters=3)
    pron, score = apply_g2p(model, "ab", beam=50)[0]
    gids = [model.graphones.index(Graphone(ch, (ch,))) for ch in "ab"]
    assert score == pytest.approx(sequence_log10(model, gids), abs=1e-12)


def test_extend_lexicon_adds_only_missing_words():
    lex = identity_lexicon(["ab", "ba"])
    model = train_g2p(lex, order=2, max_letters=1, max_phones=1, em_iters=3)
    extended, report = extend_lexicon(lex, ["ab", "aa"], model, beam=50)
    assert extended.entries["ab"] == lex.entries["ab"]
    assert extended.entries["aa"] == (("a", "a"),)
    assert set(report.added) == {"aa"}
    assert report.provisional == ("aa",)
    assert len(extended) == len(lex) + 1


def test_extend_lexicon_idempotent_and_empty():
    lex = identity_lexicon(["ab"])
    model = train_g2p(lex, order=1, max_letters=1, max_phones=1, em_iters=2)
    once, _ = extend_lexicon(lex, ["ba"], model)
    twice, report = extend_lexicon(once, ["ba"], model)
    assert twice.entries == once.entries
    assert not report.added
    unchanged, _ = extend_lexicon(lex, [], model)
    assert unchanged.entries == lex.entries


def test_extend_lexicon_collects_failures():
    lex = identity_lexicon(["ab"])
    model = train_g2p(lex, order=1, max_letters=1, max_phones=1, em_iters=2)
    extended, report = extend_lexicon(lex, ["zz", "ba"], model)
    assert "zz" in report.failed
    assert "ba" in extended.entries


def _listed(contexts):
    """The per-context tables with every key order made visible to ==."""
    return {k: [(ctx, denom, gamma, list(follow.items()))
                for ctx, (denom, gamma, follow) in table.items()]
            for k, table in contexts.items()}


def _positive(model):
    """The model's tables without the contexts whose counts are all 0, which
    `reference_contexts` leaves out."""
    return {k: {ctx: stats for ctx, stats in table.items() if stats[0] > 0.0}
            for k, table in model._contexts.items()}


def test_model_json_round_trip(tmp_path):
    # Training and loading build the tables by one path, in sorted gram
    # order. At this seed, totals added in first-posterior order made the
    # trained model's tables and 3-best lists differ from its reloaded copy's.
    rng = random.Random(65)
    lex = random_lexicon(rng, n_words=12)
    model = train_g2p(lex, order=3, max_letters=2, max_phones=2, em_iters=3)
    p = tmp_path / "g2p.json"
    save_g2p_model(model, p)
    again = load_g2p_model(p)
    assert again.graphones == model.graphones
    assert again.counts == model.counts
    assert again.log10_likelihood_trace == model.log10_likelihood_trace
    assert _listed(again._contexts) == _listed(model._contexts)
    words = ["".join(rng.choice("abcd") for _ in range(rng.randint(1, 7))) for _ in range(40)]
    assert extend_lexicon(lex, words, again, n_best=3) == extend_lexicon(lex, words, model, n_best=3)


def hand_built_model(rng, sizes, n_ids=60):
    """A model with `sizes[k - 1]` random k-grams at each order k, inserted
    in random order; an order of size 0 has an empty table."""
    counts = {}
    for k, size in enumerate(sizes, start=1):
        table = {}
        while len(table) < size:
            gram = tuple(rng.randrange(-1, n_ids) for _ in range(k - 1)) + (rng.randrange(-2, n_ids),)
            table[gram] = rng.choice([0.0, 1e-300, 2.0, 1 / 3, rng.random() * 7])
        counts[k] = table
    graphones = tuple(Graphone(chr(97 + i % 26), (f"P{i}",)) for i in range(n_ids))
    return JointSequenceModel(order=len(sizes), max_letters=1, max_phones=1, min_letters=1,
                              min_phones=1, graphones=graphones, counts=counts, discount=0.5,
                              log10_likelihood_trace=(-3.5, -2.25),
                              training_report={"entries": 3, "skipped": []})


def test_save_g2p_model_equals_reference_bytes(tmp_path):
    # The streamed saver must write the bytes of the whole-payload dump:
    # "counts" first, orders in string order ("10" before "2"), and tables
    # split across several chunks, one exactly a chunk long, one empty.
    rng = random.Random(61)
    chunk = lexg2p._CHUNK_GRAMS
    models = [train_g2p(random_lexicon(rng, n_words=10), order=order, em_iters=iters)
              for order in (1, 2, 3) for iters in (0, 2)]
    assert models[0].counts == {}
    models.append(hand_built_model(rng, [30, 2 * chunk + 1, chunk, 0, 50, 7, 3, 1, 9, 20, 4]))
    for i, model in enumerate(models):
        save_g2p_model(model, tmp_path / f"{i}.json")
        reference_save_g2p_model(model, tmp_path / f"{i}.ref.json")
        assert (tmp_path / f"{i}.json").read_bytes() == (tmp_path / f"{i}.ref.json").read_bytes(), i


def test_save_g2p_model_memory_is_bounded(tmp_path):
    # The whole-payload dump peaked at about 4x the file size.
    counts = {3: {(i % 997, i // 997 % 997, i // 994_009): (i % 1013 + 1) / 7e5
                  for i in range(82_000)}}
    model = JointSequenceModel(order=3, max_letters=1, max_phones=1, min_letters=1, min_phones=1,
                               graphones=(Graphone("a", ("A",)),) * 997, counts=counts, discount=0.5)
    p = tmp_path / "g2p.json"
    peak = traced_peak(lambda: save_g2p_model(model, p))
    size = p.stat().st_size
    assert size >= 3_000_000
    assert peak < size / 2, (peak, size)


def test_model_contexts_equal_reference():
    # One pass that groups followers first must build the table the two
    # running-sum dicts built: equal totals bit for bit, same key orders.
    # The reference drops a context whose counts are all 0; the model keeps
    # it with gamma 1.0, so that the lower order passes through it.
    rng = random.Random(67)
    models = [train_g2p(random_lexicon(rng, n_words=10), order=order, max_letters=size,
                        max_phones=size, em_iters=2)
              for order in (1, 2, 3, 4) for size in (1, 2)]
    models.append(hand_built_model(rng, [8, 50, 0, 400], n_ids=6))
    zero_contexts = 0
    for model in models:
        assert _listed(_positive(model)) == _listed(reference_contexts(model))
        for table in model._contexts.values():
            for denom, gamma, follow in table.values():
                if denom == 0.0:
                    assert gamma == 1.0 and not any(follow.values())
                    zero_contexts += 1
    assert zero_contexts


def test_all_zero_contexts_and_count_order_survive_load_and_save(tmp_path):
    # Counts given in any order make one model, and a context whose counts
    # are all 0 passes the lower order through unchanged, as if it were not
    # there, yet stays in the file: load then save gives it back byte for byte.
    rng = random.Random(83)
    base = hand_built_model(rng, [7, 40, 120], n_ids=6)
    # Only grams that the loader accepts: BOS_ID is never predicted.
    counts = {k: {gram: c for gram, c in table.items() if gram[-1] != BOS_ID}
              for k, table in base.counts.items()}
    zero = {(0,), (1, 2)}
    for table in counts.values():
        table.update({gram: 0.0 for gram in table if gram[:-1] in zero})
    assert zero <= {gram[:-1] for table in counts.values() for gram in table}
    shuffled = {k: dict(rng.sample(sorted(table.items()), len(table)))
                for k, table in reversed(counts.items())}
    model = rebuilt(base, base.graphones, shuffled)
    assert _listed(model._contexts) == _listed(rebuilt(base, base.graphones, counts)._contexts)
    reference_save_g2p_model(model, tmp_path / "in.json")
    save_g2p_model(load_g2p_model(tmp_path / "in.json"), tmp_path / "out.json")
    assert (tmp_path / "out.json").read_bytes() == (tmp_path / "in.json").read_bytes()
    without = rebuilt(base, base.graphones, {k: {gram: c for gram, c in table.items()
                                                 if gram[:-1] not in zero}
                                             for k, table in counts.items()})
    histories = [(h, 0) for h in range(-1, 6)] + [(1, 2)]
    for hist in histories:
        for gid in [*range(6), EOS_ID]:
            p = model.cond_prob(gid, hist)
            assert p == without.cond_prob(gid, hist), (hist, gid)
            assert p == pytest.approx(graphone_cond_prob(model, gid, hist), rel=1e-12), (hist, gid)


def _set_count(order, value):
    def edit(payload):
        payload["counts"][str(order)][0][1] = value
    return edit


def _split_order(order, key):
    """Move the first gram of `order` under `key`, a key that `int()` reads
    as `order`: loading would merge it back, and saving write it under
    `str(order)`, so such a file cannot load and save to the same bytes."""
    def edit(payload):
        payload["counts"][key] = [payload["counts"][str(order)].pop(0)]
    return edit


@pytest.mark.parametrize("edit, message", [
    pytest.param(lambda payload: payload.pop("counts"), "model file lacks counts", id="no-counts"),
    pytest.param(_set_count(1, float("nan")), "count nan of 1-gram", id="nan-count"),
    pytest.param(_set_count(2, float("inf")), "count inf of 2-gram", id="inf-count"),
    pytest.param(_set_count(2, -0.5), "count -0.5 of 2-gram", id="negative-count"),
    pytest.param(lambda payload: payload.update(discount=0.0), "discount 0.0 is outside",
                 id="zero-discount"),
    pytest.param(lambda payload: payload.update(discount=1.5), "discount 1.5 is outside",
                 id="large-discount"),
    pytest.param(lambda payload: payload.update(counts={"1": [[[0]]]}), "malformed counts",
                 id="malformed-counts"),
    pytest.param(lambda payload: payload.update(max_letters="2"),
                 "max_letters '2' is not an integer >= 1", id="string-max-letters"),
    pytest.param(lambda payload: payload.update(max_phones=0),
                 "max_phones 0 is not an integer >= 1", id="zero-max-phones"),
    pytest.param(lambda payload: payload.update(min_phones=-1),
                 "min_phones -1 is not an integer >= 0", id="negative-min-phones"),
    pytest.param(lambda payload: payload.update(min_letters=0, min_phones=0),
                 "min_letters and min_phones are both 0", id="both-mins-zero"),
    pytest.param(lambda payload: payload["graphones"].__setitem__(0, [1, ["a"]]),
                 "graphones are not a list of", id="int-graphemes"),
    pytest.param(lambda payload: payload.update(graphones=5), "graphones are not a list of",
                 id="graphones-not-a-list"),
    pytest.param(lambda payload: payload.update(log10_likelihood_trace=5),
                 "log10_likelihood_trace 5 is not a list of finite numbers", id="int-trace"),
    pytest.param(lambda payload: payload.update(log10_likelihood_trace=[-3.0, None]),
                 "log10_likelihood_trace [-3.0, None] is not a list", id="null-in-trace"),
    pytest.param(lambda payload: payload.update(counts={"1": [[["x"], 1.0]]}),
                 "1-gram ['x'] is not 1 graphone ids", id="string-gram"),
    pytest.param(lambda payload: payload.update(counts={"2": [[[0], 1.0]]}),
                 "2-gram [0] is not 2 graphone ids", id="short-gram"),
    pytest.param(lambda payload: payload.update(counts={"1": [[[99], 1.0]]}),
                 "1-gram [99] is not 1 graphone ids", id="unknown-id"),
    pytest.param(lambda payload: payload.update(counts={"2": [[[0, -1], 1.0]]}),
                 "2-gram [0, -1] is not 2 graphone ids", id="bos-last"),
    pytest.param(lambda payload: payload.update(counts={"2": [[[-2, 0], 1.0]]}),
                 "2-gram [-2, 0] is not 2 graphone ids", id="eos-in-history"),
    pytest.param(lambda payload: payload.update(counts={"1": [[[0], 1.0], [[0], 2.0]]}),
                 "1-gram [0] is listed twice", id="repeated-gram"),
    pytest.param(lambda payload: payload["counts"].update({"3": [[[0, 0, 0], 1.0]]}),
                 "count order 3 is outside 1..2", id="order-above-model"),
    pytest.param(lambda payload: payload["counts"].update({"0": []}),
                 "count order 0 is outside 1..2", id="order-zero"),
    pytest.param(_split_order(1, " 01"), "count order ' 01' is not written as '1'",
                 id="order-padded"),
    pytest.param(lambda payload: payload["counts"].update({"1_0": []}),
                 "count order '1_0' is not written as '10'", id="order-underscored"),
    pytest.param(lambda payload: payload["counts"].update({"+2": []}),
                 "count order '+2' is not written as '2'", id="order-signed"),
    pytest.param(lambda payload: payload.update(order=True),
                 "order True is not an integer >= 1", id="bool-order"),
    pytest.param(lambda payload: payload.update(min_letters=False),
                 "min_letters False is not an integer >= 0", id="bool-min-letters"),
    pytest.param(lambda payload: payload.update(discount=True), "discount True is outside",
                 id="bool-discount"),
    pytest.param(_set_count(1, True), "count True of 1-gram", id="bool-count"),
    pytest.param(lambda payload: payload.update(log10_likelihood_trace=[True, False]),
                 "log10_likelihood_trace [True, False] is not a list", id="bool-trace"),
    # JSON integers beyond float range: no float holds them
    pytest.param(_set_count(1, 10**400), f"count {10**400} of 1-gram", id="count-beyond-float"),
    pytest.param(lambda payload: payload.update(log10_likelihood_trace=[-3.0, -10**400]),
                 f"log10_likelihood_trace [-3.0, {-10**400}] is not a list of finite numbers",
                 id="trace-beyond-float"),
])
def test_load_g2p_model_rejects_bad_files(tmp_path, edit, message):
    model = train_g2p(identity_lexicon(["ab", "ba"]), order=2, max_letters=1,
                      max_phones=1, em_iters=2)
    p = tmp_path / "g2p.json"
    save_g2p_model(model, p)
    payload = json.loads(p.read_text(encoding="utf-8"))
    edit(payload)
    p.write_text(json.dumps(payload), encoding="utf-8")
    with pytest.raises(ValueError) as exc:
        load_g2p_model(p)
    assert str(exc.value).startswith(f"{p}: {message}")


def test_train_g2p_validation():
    with pytest.raises(ValueError, match="empty"):
        train_g2p(make_lexicon([]), order=1)
    lex = identity_lexicon(["ab"])
    with pytest.raises(ValueError):
        train_g2p(lex, order=0)
    with pytest.raises(ValueError, match="empty"):
        train_g2p(lex, min_letters=0, min_phones=0)
    with pytest.raises(ValueError, match="^em_iters must be >= 0, got -1$"):
        train_g2p(lex, em_iters=-1)


def _assert_tables_in_gram_order(model):
    for k, table in model._contexts.items():
        assert list(table) == sorted(table), k
        for _, _, follow in table.values():
            assert list(follow) == sorted(follow), k


def test_trained_loaded_and_shuffled_models_build_the_same_tables(tmp_path):
    # Training, loading and the constructor feed one table builder: EM's
    # tallies, the file's grams and a counts mapping in any order all give
    # tables in sorted gram order, with the reference's totals, that save to
    # the same bytes, and models that are ==.
    rng = random.Random(89)
    for order, em_iters in ((1, 2), (2, 3), (3, 3), (4, 1)):
        lex = random_lexicon(rng, n_words=12)
        trained = train_g2p(lex, order=order, em_iters=em_iters)
        assert trained == reference_train_g2p(lex, order=order, em_iters=em_iters)
        save_g2p_model(trained, tmp_path / "trained.json")
        loaded = load_g2p_model(tmp_path / "trained.json")
        assert loaded == trained
        shuffled = dataclasses.replace(trained, counts={
            k: dict(rng.sample(sorted(table.items()), len(table)))
            for k, table in reversed(trained.counts.items())})
        for model in (trained, loaded, shuffled):
            _assert_tables_in_gram_order(model)
            assert _listed(_positive(model)) == _listed(reference_contexts(model))
            save_g2p_model(model, tmp_path / "again.json")
            assert (tmp_path / "again.json").read_bytes() == (tmp_path / "trained.json").read_bytes()
        assert _listed(shuffled._contexts) == _listed(trained._contexts)
        # A file written out of gram order loads to the same model.
        payload = json.loads((tmp_path / "trained.json").read_text(encoding="utf-8"))
        for table in payload["counts"].values():
            rng.shuffle(table)
        (tmp_path / "shuffled.json").write_text(json.dumps(payload), encoding="utf-8")
        unsorted = load_g2p_model(tmp_path / "shuffled.json")
        assert unsorted == trained
        assert _listed(unsorted._contexts) == _listed(trained._contexts)


def test_adjacent_duplicate_gram_is_listed_twice(tmp_path):
    model = train_g2p(random_lexicon(random.Random(97), n_words=10), order=2, em_iters=2)
    p = tmp_path / "g2p.json"
    save_g2p_model(model, p)
    payload = json.loads(p.read_text(encoding="utf-8"))
    table = payload["counts"]["2"]
    gram, c = table[3]
    table.insert(4, [gram, c + 1.0])
    p.write_text(json.dumps(payload), encoding="utf-8")
    with pytest.raises(ValueError) as exc:
        load_g2p_model(p)
    assert str(exc.value) == f"{p}: 2-gram {gram} is listed twice"


@pytest.mark.parametrize("breaks, message", [
    pytest.param({("3", 9): (None, -1.0), ("3", 4): ([0, 1], None)},
                 "3-gram [0, 1] is not 3 graphone ids "
                 "(BOS_ID only before the last place, EOS_ID only in it)", id="two-in-one-order"),
    pytest.param({("3", 0): ([0, 0, 0.5], None), ("1", 6): (None, float("nan"))},
                 "count nan of 1-gram {gram} is not a finite number >= 0", id="two-orders"),
])
def test_load_reports_the_first_error_in_file_order(tmp_path, breaks, message):
    # Orders are checked in file order, and each order's pairs in file order.
    model = train_g2p(random_lexicon(random.Random(107), n_words=10), order=3, em_iters=2)
    p = tmp_path / "g2p.json"
    save_g2p_model(model, p)
    payload = json.loads(p.read_text(encoding="utf-8"))
    for (key, i), (gram, c) in breaks.items():
        old = payload["counts"][key][i]
        payload["counts"][key][i] = [old[0] if gram is None else gram, old[1] if c is None else c]
    p.write_text(json.dumps(payload), encoding="utf-8")
    with pytest.raises(ValueError) as exc:
        load_g2p_model(p)
    assert str(exc.value) == f"{p}: " + message.format(gram=payload["counts"]["1"][6][0])


def test_train_g2p_peak_stays_near_the_model_it_keeps():
    # Training frees the E-step state, then builds each order's table from
    # its tallies: no gram -> count dict is held next to the tables. On the
    # fixture seed lexicon with the fixture pipeline's settings, building
    # such a dict first peaked at 1.70 times the trained model's size; the
    # tables built from the tallies peak at 1.47 times it. Both figures are
    # from CPython 3.11.7; they rest on the sizes of its objects, which
    # other CPython releases may change.
    lexicon = load_lexicon(FIXTURES / "seed_lexicon.tsv")
    gc.collect()  # empties the object free lists, whose reuse tracemalloc does not see
    tracemalloc.start()
    try:
        model = train_g2p(lexicon, order=2, em_iters=3)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(model.counts[2]) > 100
    assert peak / kept < 1.58, (peak, kept)
