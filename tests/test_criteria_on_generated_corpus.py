"""The code of release criteria 10 and 11 on a generated 20-book CoSER-format corpus.

Both criteria skip unless the public corpus is supplied, so here their
helpers run on books from `perfbench/corpusgen.py`, and each assert follows
from the generator's spec instead of from published numbers.
"""

from __future__ import annotations

import sys
from pathlib import Path

from test_acceptance import prompt_token_means, public_corpus_stats
from tomtrace.corpus import Corpus, corpus_stats, ingest_corpus

PERFBENCH = str(Path(__file__).resolve().parents[1] / "perfbench")
if PERFBENCH not in sys.path:
    sys.path.append(PERFBENCH)

import corpusgen  # noqa: E402

PLOTS, SPEAKERS = 3, 2


def test_criteria_10_and_11_code_on_a_generated_corpus(tmp_path):
    spec = corpusgen.generate(tmp_path, seed=5, books=20, plots=PLOTS, cast=3, speakers=SPEAKERS, turns=4)
    # corpusgen writes alias names into dialogue lines: without the tables they count as speakers.
    corpus = ingest_corpus(spec.books_dir, format="coser", alias_tables=spec.alias_tables())
    ood_titles = frozenset(book.title for book in spec.books[:5])

    stats, ood_books, ood_stats = public_corpus_stats(corpus, ood_titles)
    # One conversation per plot.
    assert (stats.total_plots, stats.total_conversations) == (spec.total_plots, spec.total_plots) == (60, 60)
    assert stats.avg_speakers == f"{SPEAKERS}.00"
    assert len(ood_books) == 5
    assert (ood_stats.total_plots, ood_stats.total_conversations) == (5 * PLOTS, 5 * PLOTS)
    rest = corpus_stats(Corpus(books=[b for b in corpus.books if b not in ood_books], registries=corpus.registries))
    assert ood_stats.total_plots + rest.total_plots == stats.total_plots
    assert ood_stats.total_conversations + rest.total_conversations == stats.total_conversations

    standard_mean, extended_mean = prompt_token_means(corpus)
    assert 0 < standard_mean <= extended_mean
