"""Count-based back-off n-gram language models with modified Kneser-Ney smoothing."""

from asrlm.ngramcore.counts import NGramCountTable, count_ngrams, effective_counts
from asrlm.ngramcore.smoothing import DiscountSet, estimate_discounts, train_mkn
from asrlm.ngramcore.model import BackoffLM, rebuild_backoffs
from asrlm.ngramcore.arpa import ArpaError, read_arpa, write_arpa
from asrlm.ngramcore.evaluate import PerplexityReport, oov_rate, perplexity

__all__ = [
    "ArpaError",
    "BackoffLM",
    "DiscountSet",
    "NGramCountTable",
    "PerplexityReport",
    "count_ngrams",
    "effective_counts",
    "estimate_discounts",
    "oov_rate",
    "perplexity",
    "read_arpa",
    "rebuild_backoffs",
    "train_mkn",
    "write_arpa",
]
