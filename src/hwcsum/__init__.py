"""Hybrid word-character Chinese abstractive summarization toolkit."""

__version__ = "0.1.0"

from .corpus import DocumentPair, filter_by_score, parse_lcsts, split_train_validation
from .dedup import CleanResult, clean_part1, is_overlapping, normalize_for_match
from .harness import ExperimentConfig, run_experiment, sweep_vocab
from .model import (
    ModelConfig,
    ModelParams,
    batch_loss,
    beam_search,
    greedy_decode,
    load_checkpoint,
    save_checkpoint,
    sequence_loss,
    train,
)
from .numerics import Adagrad, Tape, Tensor
from .rng import MT19937
from .rouge import RougeScores, evaluate_corpus, lcs_length, rouge_l, rouge_n
from .tokenizer import (
    EncodedPair,
    Lexicon,
    Vocabulary,
    char_tokenize,
    encode_pair_chars,
    word_segment,
)

__all__ = [
    "MT19937",
    "Adagrad",
    "Tape",
    "Tensor",
    "DocumentPair",
    "parse_lcsts",
    "filter_by_score",
    "split_train_validation",
    "CleanResult",
    "normalize_for_match",
    "is_overlapping",
    "clean_part1",
    "Lexicon",
    "Vocabulary",
    "EncodedPair",
    "char_tokenize",
    "word_segment",
    "encode_pair_chars",
    "ModelConfig",
    "ModelParams",
    "sequence_loss",
    "batch_loss",
    "train",
    "greedy_decode",
    "beam_search",
    "save_checkpoint",
    "load_checkpoint",
    "RougeScores",
    "rouge_n",
    "rouge_l",
    "lcs_length",
    "evaluate_corpus",
    "ExperimentConfig",
    "run_experiment",
    "sweep_vocab",
]
