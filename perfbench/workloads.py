"""The benchmark's workloads: corpus shape plus the run configurations
each one trains.

Every workload runs the same closed-loop session (train each config,
reload each run, predict the unlabeled corpus, run the four analysis
kinds over the labeled corpus), so every end-to-end metric exists on
every workload. What differs is the model and the corpus shape, which
decide the layer that dominates:

- lstm-text: the LSTM at its default shapes on long reply threads, so
  the 128-step recurrences, the vocabulary-sized embedding and the
  checkpoint text I/O dominate. No propagation trees, no classic models.
- bigcn-trees: Bi-GCN over heavy-tailed reply trees with reply chains
  kept and a 5000-term TF-IDF input, so tree building, batching,
  DropEdge, spmm and per-tweet text processing dominate. No LSTM.
- classic-smote: logreg, svm and rf on an imbalanced corpus with
  handcrafted plus TF-IDF features and SMOTE, so full-batch matmuls,
  Gini splits and SMOTE's pairwise distance tensor dominate. Its train
  split holds 4,600-4,900 distinct terms depending on the seed, so the
  TF-IDF width is capped below that, at 4000: every seed then gets the
  same feature width, and peak RSS, which follows it, stays put.
- analyze-corpus: many short labeled threads over eighteen months with a
  cheap handcrafted-feature logreg, so text processing inside the four
  analysis kinds dominates.

Sizes are scaled so a session takes a few seconds on a 2-CPU machine
and several sessions fit in one run. The rumour rate is 0.34 on
analyze-corpus, as in PHEME (see corpus.py); the balanced 0.5 of
lstm-text and bigcn-trees and the imbalanced 0.2 of classic-smote, which
gives SMOTE its work, are choices, not measurements.
"""

from __future__ import annotations

from dataclasses import dataclass

from corpus import CorpusShape


@dataclass(frozen=True)
class Workload:
    shape: CorpusShape
    configs: tuple[str, ...]  # one run configuration (key = value lines) each
    # Rounds of the four analysis kinds per session, so that analysis of a
    # small corpus still runs about a second and its throughput is steady.
    analysis_rounds: int = 1


_LSTM = """\
model = lstm
seeds = 1,2
max_epochs = 1
batch_size = 16
"""

_BIGCN = """\
model = bigcn
seeds = 1,2
max_epochs = 1
batch_size = 16
keep_reply_links = true
tfidf_top_k = 5000
"""

_CLASSIC = """\
model = {kind}
seeds = 1,2,3
features = both
smote = true
tfidf_top_k = 4000
rf_trees = 6
classic_iters = 60
svm_iters = 120
"""

_HANDCRAFTED = """\
model = logreg
seeds = 1,2,3
features = handcrafted
classic_iters = 1500
"""

WORKLOADS = {
    "lstm-text": Workload(
        shape=CorpusShape(labeled_threads=56, unlabeled_threads=24, rumour_rate=0.5,
                          reply_cap=300, reply_tail=1.2, reply_scale=20.0,
                          chain_prob=0.4, months=6, vocab_types=100_000,
                          zipf_exponent=0.8),
        configs=(_LSTM,),
        analysis_rounds=4,
    ),
    "bigcn-trees": Workload(
        shape=CorpusShape(labeled_threads=64, unlabeled_threads=24, rumour_rate=0.5,
                          reply_cap=300, reply_tail=1.1, reply_scale=15.0,
                          chain_prob=0.5, months=6),
        configs=(_BIGCN,),
        analysis_rounds=4,
    ),
    "classic-smote": Workload(
        shape=CorpusShape(labeled_threads=240, unlabeled_threads=48, rumour_rate=0.2,
                          reply_cap=60, reply_tail=1.5, reply_scale=4.0,
                          chain_prob=0.3, months=6),
        configs=tuple(_CLASSIC.format(kind=kind) for kind in ("logreg", "svm", "rf")),
        analysis_rounds=4,
    ),
    "analyze-corpus": Workload(
        shape=CorpusShape(labeled_threads=3000, unlabeled_threads=200, rumour_rate=0.34,
                          reply_cap=4, reply_tail=2.0, reply_scale=1.0,
                          chain_prob=0.2, months=18),
        configs=(_HANDCRAFTED,),
    ),
}
