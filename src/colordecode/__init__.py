"""CTC prefix beam search with lexicon-colored language model fusion."""

from .corpus import (
    SynthesisSpec,
    Utterance,
    default_alphabet,
    format_colored,
    read_lexicon,
    read_logits,
    read_manifest,
    synthesize_corpus,
    write_logits,
    write_manifest,
)
from .decoder import (
    ColoredTranscript,
    DecodeStats,
    DecoderConfig,
    LogitsMatrix,
    decode,
)
from .evaluation import (
    GridSpec,
    MethodRuntime,
    build_runtime,
    calibration_pairs,
    decode_utterances,
    evaluate,
    run_grid_search,
)
from .lexicon import ColoredAlphabet, LexiconTrie, build_trie
from .metrics import EvalReport, MethodResult, cer, edit_distance, jargon_wer, wer
from .ngram_lm import (
    NGramModel,
    load_arpa,
    merge_colored,
    parse_arpa,
    save_arpa,
    serialize_arpa,
)
from .oracle import exhaustive_decode, run_verification
from .scorers import BinTable, ScorerConfig, fit_bin_table, make_scorer

__version__ = "0.1.0"

__all__ = [
    "BinTable",
    "ColoredAlphabet",
    "ColoredTranscript",
    "DecodeStats",
    "DecoderConfig",
    "EvalReport",
    "GridSpec",
    "LexiconTrie",
    "LogitsMatrix",
    "MethodResult",
    "MethodRuntime",
    "NGramModel",
    "ScorerConfig",
    "SynthesisSpec",
    "Utterance",
    "build_runtime",
    "build_trie",
    "calibration_pairs",
    "cer",
    "decode",
    "decode_utterances",
    "default_alphabet",
    "edit_distance",
    "evaluate",
    "exhaustive_decode",
    "fit_bin_table",
    "format_colored",
    "jargon_wer",
    "load_arpa",
    "make_scorer",
    "merge_colored",
    "parse_arpa",
    "read_lexicon",
    "read_logits",
    "read_manifest",
    "run_grid_search",
    "run_verification",
    "save_arpa",
    "serialize_arpa",
    "synthesize_corpus",
    "wer",
    "write_logits",
    "write_manifest",
]
