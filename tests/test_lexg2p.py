import json
import math
import random
import re

import pytest

from asrlm.lexg2p import (
    BOS_ID,
    EOS_ID,
    G2PError,
    Graphone,
    Lexicon,
    LexiconError,
    apply_g2p,
    extend_lexicon,
    load_g2p_model,
    load_inventory,
    load_lexicon,
    make_lexicon,
    merge_lexicons,
    save_g2p_model,
    save_lexicon,
    train_g2p,
)
from tests.reference import (
    brute_force_g2p_em,
    exhaustive_g2p,
    graphone_cond_prob,
    reference_apply_g2p,
    reference_train_g2p,
)


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


def test_load_inventory(tmp_path):
    p = tmp_path / "phones.txt"
    p.write_text("A\nB\nC\n", encoding="utf-8")
    assert load_inventory(p) == frozenset({"A", "B", "C"})


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
            model.shift(model.start_history(), g) for g in range(min(n, 5))
        ]
        # Every seen top-order context, and unseen ones that back off.
        histories += sorted({gram[:-1] for gram in model.counts[order]})
        histories += [
            model.shift(model.shift(model.start_history(), g), g) for g in range(min(n, 5))
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
        histories |= {model.shift(model.shift(model.start_history(), g), g) for g in range(n)}
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
    # bit: the same float sums, and each count table in the same order, since
    # the model sums its context totals in that order. "abcab" has one
    # phoneme, so no size limit up to 3 letters segments it.
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


def test_beam_scores_are_log10_of_sequence_probability():
    lex = identity_lexicon(["ab", "ba"])
    model = train_g2p(lex, order=2, max_letters=1, max_phones=1, em_iters=3)
    pron, score = apply_g2p(model, "ab", beam=50)[0]
    gids = [model.graphones.index(Graphone(ch, (ch,))) for ch in "ab"]
    assert score == pytest.approx(model.sequence_log10(gids), abs=1e-12)


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


def test_model_json_round_trip(tmp_path):
    rng = random.Random(5)
    lex = random_lexicon(rng, n_words=6)
    model = train_g2p(lex, order=2, em_iters=2)
    p = tmp_path / "g2p.json"
    save_g2p_model(model, p)
    again = load_g2p_model(p)
    assert again.graphones == model.graphones
    assert again.counts == model.counts
    assert again.log10_likelihood_trace == model.log10_likelihood_trace
    word = sorted(lex.entries)[0]
    assert apply_g2p(again, word, beam=50) == apply_g2p(model, word, beam=50)


def _set_count(order, value):
    def edit(payload):
        payload["counts"][str(order)][0][1] = value
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
    pytest.param(lambda payload: payload.update(order=True),
                 "order True is not an integer >= 1", id="bool-order"),
    pytest.param(lambda payload: payload.update(min_letters=False),
                 "min_letters False is not an integer >= 0", id="bool-min-letters"),
    pytest.param(lambda payload: payload.update(discount=True), "discount True is outside",
                 id="bool-discount"),
    pytest.param(_set_count(1, True), "count True of 1-gram", id="bool-count"),
    pytest.param(lambda payload: payload.update(log10_likelihood_trace=[True, False]),
                 "log10_likelihood_trace [True, False] is not a list", id="bool-trace"),
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
