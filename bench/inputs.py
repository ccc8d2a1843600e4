"""Seeded input generator for the three benchmark workloads.

Everything is derived from one integer seed through `random.Random`, so a
seed always yields byte-identical input files. The generator follows the
idiom of `scripts/make_fixtures.py` (plain `random`, text files, one sentence
per line) at sizes where the toolkit's cost becomes measurable.

Words are built from syllables drawn from a small grammar, and their
pronunciations come from longest-match letter rules. A few per cent of the
seed lexicon entries get an irregular pronunciation, so G2P has to learn
exceptions as well as rules.
"""

from __future__ import annotations

import bisect
import itertools
import random
from dataclasses import dataclass
from pathlib import Path

ONSETS = ("", "b", "d", "f", "g", "h", "k", "l", "m", "n", "p", "r", "s", "t",
          "w", "z", "sch", "ch", "st", "br", "kl", "tr", "pf")
VOWELS = ("a", "e", "i", "o", "u", "ei", "ie", "au", "ä", "ü")
CODAS = ("", "", "", "n", "r", "s", "t", "ch", "ng", "l", "m")

# Longest-match grapheme -> phoneme rules; covers every letter ONSETS,
# VOWELS and CODAS can produce.
RULES = {
    "sch": ("S",), "ch": ("x",), "ng": ("N",), "st": ("S", "t"), "pf": ("pf",),
    "ei": ("aI",), "ie": ("i:",), "au": ("aU",), "ä": ("E",), "ü": ("y",),
    "z": ("ts",), "w": ("v",),
    **{c: (c,) for c in "abdefghiklmnoprstu"},
}
PHONEMES = tuple(sorted({p for pron in RULES.values() for p in pron} | {"@"}))
# Letters the syllable grammar never produces: words containing one cannot
# be converted by a G2P model trained on rule-generated entries.
FOREIGN_LETTERS = "qxy"


@dataclass(frozen=True)
class Scale:
    """Input sizes for one benchmark scale."""

    vocab: int                  # shared vocabulary of the three corpora
    corpus_tokens: tuple[int, int, int]
    dev_tokens: int
    order: int
    theta: float
    requests: int               # N-best requests in the rescore pool
    hyps_per_request: int
    lexicon_entries: int        # seed lexicon size
    lexicon_known_words: int    # corpus words already in the seed lexicon
    lexicon_oov_words: int      # corpus words G2P has to convert
    g2p_order: int
    g2p_em_iters: int
    g2p_beam: int


FULL = Scale(
    vocab=3000, corpus_tokens=(2000, 1600, 1200), dev_tokens=600, order=4,
    theta=1e-7, requests=1000, hyps_per_request=20, lexicon_entries=80,
    lexicon_known_words=30, lexicon_oov_words=12, g2p_order=3, g2p_em_iters=3,
    g2p_beam=30,
)
TINY = Scale(
    vocab=300, corpus_tokens=(1200, 1000, 800), dev_tokens=300, order=3,
    theta=1e-6, requests=20, hyps_per_request=5, lexicon_entries=30,
    lexicon_known_words=10, lexicon_oov_words=3, g2p_order=2, g2p_em_iters=2,
    g2p_beam=30,
)
SCALES = {"full": FULL, "tiny": TINY}

# Zipf exponents and topic boosts of the three training corpora.
CORPORA = (("news", 1.0), ("medical", 1.15), ("dialogue", 1.3))
TOPIC_WORDS = 40
PHRASES = 400
PHRASE_RATE = 0.3
DEV_OOV_RATE = 0.03
IRREGULAR_RATE = 0.05


def pronounce(word: str) -> tuple[str, ...]:
    """Rule pronunciation by greedy longest match over RULES."""
    out: list[str] = []
    i = 0
    while i < len(word):
        for size in (3, 2, 1):
            piece = word[i : i + size]
            if len(piece) == size and piece in RULES:
                out.extend(RULES[piece])
                i += size
                break
        else:
            raise ValueError(f"no rule for {word[i]!r} in {word!r}")
    return tuple(out)


def make_words(rng: random.Random, n: int, taken=frozenset()) -> list[str]:
    """n distinct pseudo-words, none in `taken`.

    Syllable counts cycle through 2, 1, 3, 2 and each syllable part is dealt
    from a seeded shuffle of its options, so every seed yields nearly the
    same mix of word lengths and letters; a seed changes which words, not
    how much work they are.
    """
    decks: dict[tuple, list[str]] = {parts: [] for parts in (ONSETS, VOWELS, CODAS)}

    def deal(parts) -> str:
        deck = decks[parts]
        if not deck:
            deck.extend(rng.sample(parts, len(parts)))
        return deck.pop()

    words: dict[str, None] = {}
    for k in itertools.count():
        if len(words) == n:
            return list(words)
        word = "".join(deal(ONSETS) + deal(VOWELS) + deal(CODAS)
                       for _ in range((2, 1, 3, 2)[k % 4]))
        if len(word) > 1 and word not in taken:
            words.setdefault(word)


class _Zipf:
    """Sampler over `words` with p(rank r) proportional to 1 / r**skew."""

    def __init__(self, words, skew: float):
        self.words = list(words)
        self.cum = list(itertools.accumulate(1.0 / (r ** skew) for r in range(1, len(words) + 1)))

    def draw(self, rng: random.Random) -> str:
        return self.words[bisect.bisect(self.cum, rng.random() * self.cum[-1])]


def _corpus_lines(rng, sampler: _Zipf, phrases: _Zipf, tokens: int, oov=(), oov_rate=0.0):
    """Sentences of 4-14 tokens until `tokens` are emitted; phrases repeat n-grams."""
    lines = []
    emitted = 0
    while emitted < tokens:
        length = rng.randint(4, 14)
        sent: list[str] = []
        while len(sent) < length:
            if rng.random() < PHRASE_RATE:
                sent.extend(phrases.draw(rng).split())
            else:
                sent.append(sampler.draw(rng))
        if oov:
            sent = [rng.choice(oov) if rng.random() < oov_rate else t for t in sent]
        lines.append(" ".join(sent))
        emitted += len(sent)
    return lines, emitted


def _write_lines(path: Path, lines) -> None:
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")


def write_lm_inputs(out: Path, seed: int, scale: Scale) -> dict:
    """Three Zipf corpora over one vocabulary plus dev/test sets with OOVs.

    Each corpus ranks the shared vocabulary differently (its own topic words
    move to the top) and uses its own Zipf exponent. Dev and test draw from
    all three and replace DEV_OOV_RATE of their tokens with words no
    training corpus contains. Returns the pipeline configuration lines, the
    generated sizes, and the vocabulary, OOV words and samplers that the
    rescore requests reuse.
    """
    rng = random.Random(seed)
    vocab = make_words(rng, scale.vocab)
    oov_words = make_words(rng, 200, taken=frozenset(vocab))
    base_phrases = [
        " ".join(rng.choice(vocab[: scale.vocab // 4]) for _ in range(rng.randint(2, 4)))
        for _ in range(PHRASES)
    ]
    samplers = []
    sizes = {"corpus_tokens": {}, "vocab_words": scale.vocab}
    config = [f"order = {scale.order}", f"theta = {scale.theta!r}", "oov_policy = exclude"]
    for (cid, skew), tokens in zip(CORPORA, scale.corpus_tokens):
        ranked = list(vocab)
        topic = rng.sample(range(TOPIC_WORDS, len(ranked)), TOPIC_WORDS)
        for slot, idx in enumerate(topic):
            ranked[slot], ranked[idx] = ranked[idx], ranked[slot]
        sampler = _Zipf(ranked, skew)
        phrases = _Zipf(rng.sample(base_phrases, len(base_phrases)), skew)
        samplers.append((sampler, phrases))
        lines, emitted = _corpus_lines(rng, sampler, phrases, tokens)
        _write_lines(out / f"{cid}.txt", lines)
        sizes["corpus_tokens"][cid] = emitted
        config.append(f"corpus.{cid} = {out / (cid + '.txt')}")
    for name in ("dev", "test"):
        lines = []
        emitted = 0
        share = scale.dev_tokens // len(samplers)
        for sampler, phrases in samplers:
            part, n = _corpus_lines(rng, sampler, phrases, share, oov_words, DEV_OOV_RATE)
            lines.extend(part)
            emitted += n
        _write_lines(out / f"{name}.txt", lines)
        sizes[f"{name}_tokens"] = emitted
        config.append(f"{name} = {out / (name + '.txt')}")
    return {"config": config, "sizes": sizes, "vocab": vocab, "oov_words": oov_words,
            "samplers": samplers}


def _edit(rng: random.Random, ref: list[str], vocab, oov_words) -> list[str]:
    """One to three substitutions, deletions or insertions, biased to the end
    of the reference so that hypotheses share long prefixes."""
    hyp = list(ref)
    for _ in range(rng.randint(1, 3)):
        pos = len(hyp) - 1 - min(int(rng.expovariate(0.4)), len(hyp) - 1) if hyp else 0
        word = rng.choice(oov_words) if rng.random() < 0.1 else rng.choice(vocab)
        op = rng.random()
        if op < 0.6 and hyp:
            hyp[pos] = word
        elif op < 0.8 and len(hyp) > 1:
            del hyp[pos]
        else:
            hyp.insert(pos, word)
    return hyp


def write_rescore_requests(out: Path, seed: int, scale: Scale, lm_inputs: dict) -> dict:
    """N-best requests: `req_id<TAB>kind<TAB>tokens` lines, kind `ref` or `hyp`.

    Each request holds one reference and `hyps_per_request` hypotheses. The
    first hypothesis is the reference itself and the last repeats another
    hypothesis of the same list, so identical inputs recur on every request.
    """
    rng = random.Random(seed * 7919 + 1)
    vocab, oov_words = lm_inputs["vocab"], lm_inputs["oov_words"]
    lines = []
    hyps = 0
    for req in range(scale.requests):
        sampler, phrases = rng.choice(lm_inputs["samplers"])
        (ref_line,), _ = _corpus_lines(rng, sampler, phrases, 1, oov_words, DEV_OOV_RATE)
        ref = ref_line.split()
        nbest = [ref] + [_edit(rng, ref, vocab, oov_words) for _ in range(scale.hyps_per_request - 2)]
        nbest.append(rng.choice(nbest[1:]))
        lines.append(f"{req}\tref\t{' '.join(ref)}")
        lines.extend(f"{req}\thyp\t{' '.join(h)}" for h in nbest)
        hyps += len(nbest)
    _write_lines(out / "requests.tsv", lines)
    return {"requests": scale.requests, "hyps_per_request": scale.hyps_per_request,
            "hypotheses": hyps}


def read_requests(path: Path) -> list[tuple[tuple[str, ...], list[tuple[str, ...]]]]:
    """Parse requests.tsv into (reference, hypotheses) pairs."""
    requests: dict[str, tuple[list, list]] = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        req, kind, text = line.split("\t")
        ref, hyps = requests.setdefault(req, ([], []))
        if kind == "ref":
            ref.extend(text.split())
        else:
            hyps.append(tuple(text.split()))
    return [(tuple(ref), hyps) for ref, hyps in requests.values()]


def write_lexicon_inputs(out: Path, seed: int, scale: Scale) -> dict:
    """Seed lexicon and a small corpus whose words are mostly not in it.

    The corpus uses `lexicon_known_words` seed words, `lexicon_oov_words`
    new words spelled with seed letters, and two words with letters the seed
    never uses, which G2P must report as failures.
    """
    rng = random.Random(seed * 104729 + 2)
    words = make_words(rng, scale.lexicon_entries + scale.lexicon_oov_words)
    seed_words, new_words = words[: scale.lexicon_entries], words[scale.lexicon_entries:]
    foreign = [rng.choice(FOREIGN_LETTERS) + w for w in make_words(rng, 2, frozenset(words))]
    lex_lines = []
    # A fixed number of irregular entries: each one adds graphones, so a
    # seed-dependent count would change how much work G2P does.
    irregular = max(1, round(IRREGULAR_RATE * len(seed_words)))
    irregular_words = set(rng.sample(seed_words, irregular))
    for word in sorted(seed_words):
        pron = list(pronounce(word))
        if word in irregular_words:
            pron[rng.randrange(len(pron))] = rng.choice(PHONEMES)
        lex_lines.append(f"{word}\t{' '.join(pron)}")
    _write_lines(out / "seed_lexicon.tsv", lex_lines)
    pool = rng.sample(seed_words, scale.lexicon_known_words) + new_words + foreign
    lines = [" ".join(rng.choice(pool) for _ in range(rng.randint(4, 10))) for _ in range(60)]
    lines.append(" ".join(pool))  # every pool word occurs at least once
    _write_lines(out / "lexcorpus.txt", lines)
    _write_lines(out / "lexdev.txt", lines[:5])
    config = [
        f"corpus.lex = {out / 'lexcorpus.txt'}",
        f"dev = {out / 'lexdev.txt'}",
        f"seed_lexicon = {out / 'seed_lexicon.tsv'}",
        f"g2p_order = {scale.g2p_order}",
        f"g2p_em_iters = {scale.g2p_em_iters}",
        f"g2p_beam = {scale.g2p_beam}",
    ]
    sizes = {
        "lexicon_entries": len(seed_words),
        "irregular_entries": irregular,
        "oov_words": len(new_words) + len(foreign),
        "foreign_letter_words": len(foreign),
    }
    return {"config": config, "sizes": sizes}
