"""Word-level fusion scorers.

A scorer turns each completed word into a log10 score increment for the
decoder's text term, threading whatever per-hypothesis state it needs
(language model contexts, accumulated history masses). All scorers share
the interface:

    state = scorer.initial_state()
    delta, state = scorer.word_delta(state, word, color)

``delta`` already includes the word insertion bonus beta and, except for
the coloring scorer's prior, is alpha-scaled. Colors are advisory for
scorers that ignore provenance.

A scorer may also state what it gives a word it does not know:

    delta = scorer.unknown_delta(color)   # None: it depends on the state
    words = scorer.known_words(color)

``word_delta`` returns exactly ``delta`` for every word of that color
outside ``words``, in every state; both figures come from one expression,
so they agree bit for bit. The decoder prices off-lexicon words with it
before spelling them. The Bayes scorer's delta depends on the history
masses in its state, so it states None.

Two language models (a general one and a domain one) can be fused four
ways here: linear interpolation, log-linear interpolation, a calibrated
bin table, or per-history Bayesian posterior weighting. The coloring
scorer instead scores against a single color-merged model, letting the
decoder's colored prefixes pick the source lexicon per word.

Unknown words never zero out a hypothesis: each model substitutes its
configured penalty (as a probability, 10**penalty) before any
combination, so an interpolation endpoint reproduces the corresponding
single-model scorer exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .logmath import NEG_INF, logaddexp10, logsumexp10
from .ngram_lm import EMPTY_STATE, NGramModel, color_token, merge_colored

__all__ = [
    "MissingModel",
    "MissingBinTable",
    "EmptyCalibration",
    "ScorerConfig",
    "bayes_posterior_log10",
    "interp_bayes",
    "BinTable",
    "fit_bin_table",
    "Scorer",
    "NullScorer",
    "SingleLmScorer",
    "ColoringScorer",
    "InterpolationScorer",
    "BayesScorer",
    "make_scorer",
    "KIND_MODELS",
    "SCORER_KINDS",
]

# the models each kind scores with, as places in (general, jargon);
# coloring takes one model per color, and (0, 1) is its two-lexicon case
KIND_MODELS = {
    "coloring": (0, 1),
    "linear": (0, 1),
    "loglinear": (0, 1),
    "bins": (0, 1),
    "bayes": (0, 1),
    "general": (0,),
    "jargon": (1,),
    "none": (),
}
SCORER_KINDS = tuple(KIND_MODELS)


class MissingModel(ValueError):
    """A scorer kind was given other models than the ones it scores with."""


class MissingBinTable(ValueError):
    """Bin interpolation was requested without a calibrated table."""


class EmptyCalibration(ValueError):
    """No usable pairs were provided to fit a bin table."""


@dataclass(frozen=True)
class ScorerConfig:
    """Shared fusion hyperparameters.

    alpha scales language model evidence, beta is a flat per-word bonus,
    lam weights the domain model in two-model interpolation (0 = general
    only, 1 = domain only). ``unknown_word_penalty`` holds one log10
    penalty per model/color; a shorter tuple broadcasts its last value.
    ``unknown_subword_penalty`` (log10, unscaled) prices characters that
    leave every lexicon; None forbids them.
    """

    alpha: float = 1.0
    beta: float = 0.0
    unknown_word_penalty: tuple[float, ...] = (-10.0, -10.0)
    unknown_subword_penalty: float | None = None
    lam: float = 0.5

    def __post_init__(self):
        if not math.isfinite(self.alpha):
            raise ValueError("alpha must be finite")
        if not math.isfinite(self.beta):
            raise ValueError("beta must be finite")
        if not 0.0 <= self.lam <= 1.0:
            raise ValueError("lam must lie in [0, 1]")
        if not self.unknown_word_penalty:
            raise ValueError("need at least one unknown-word penalty")
        if not all(math.isfinite(p) for p in self.unknown_word_penalty):
            raise ValueError("unknown-word penalties must be finite")
        sub = self.unknown_subword_penalty
        if sub is not None and not math.isfinite(sub):
            raise ValueError("the unknown-subword penalty must be finite")

    def penalty(self, color: int) -> float:
        pens = self.unknown_word_penalty
        return pens[color] if color < len(pens) else pens[-1]


def _combine_linear_log10(lg: float, lj: float, lam: float) -> float:
    """log10((1-lam) * 10**lg + lam * 10**lj)."""
    if lam == 0.0:
        return lg
    if lam == 1.0:
        return lj
    return logaddexp10(math.log10(1.0 - lam) + lg, math.log10(lam) + lj)


def _combine_loglinear_log10(lg: float, lj: float, lam: float) -> float:
    """(1-lam) * lg + lam * lj. Endpoints are exact even when the
    zero-weighted model gives -inf, so lam=0 never poisons a score with
    the domain model's zeros."""
    if lam == 0.0:
        return lg
    if lam == 1.0:
        return lj
    if lg == NEG_INF or lj == NEG_INF:
        return NEG_INF
    return (1.0 - lam) * lg + lam * lj


def bayes_posterior_log10(
    log_priors: Sequence[float], log_histories: Sequence[float]
) -> list[float]:
    """Normalized log10 posterior weights prior_i * 10**history_i.

    When every history has zero mass the priors are returned unchanged;
    there is no evidence to reweight with.
    """
    joint = [p + h for p, h in zip(log_priors, log_histories)]
    total = logsumexp10(joint)
    if total == NEG_INF:
        joint = list(log_priors)
        total = logsumexp10(joint)
    return [j - total for j in joint]


# log10 of the uniform prior over the general and the domain model
_BAYES_LOG_PRIORS = (math.log10(0.5), math.log10(0.5))


def interp_bayes(
    lg_hist: float, lj_hist: float, lg_next: float, lj_next: float
) -> float:
    """One Bayes-weighted combination step, all arguments log10.

    The history masses select the mixture weights under a uniform prior;
    the next-word probabilities are then mixed under those weights.
    """
    wg, wj = bayes_posterior_log10(_BAYES_LOG_PRIORS, [lg_hist, lj_hist])
    return logaddexp10(wg + lg_next, wj + lj_next)


@dataclass(frozen=True)
class BinTable:
    """Calibrated map from (general prob, domain prob) to a fused log10 prob.

    Axes are equal-width bins over log10 probability ranges observed at
    fit time; queries clamp into range. ``cells`` maps ``(gi, ji)`` to the
    fused log10 probability and holds only the cells calibration filled;
    for an absent cell the lookup falls back to an even linear mix of the
    query's own probabilities. So nothing is sized by ``num_bins``.
    """

    num_bins: int
    g_range: tuple[float, float]
    j_range: tuple[float, float]
    cells: dict[tuple[int, int], float]

    def lookup(self, lg: float, lj: float) -> float:
        gi = _bin_index(lg, self.g_range, self.num_bins)
        ji = _bin_index(lj, self.j_range, self.num_bins)
        cell = self.cells.get((gi, ji))
        return _combine_linear_log10(lg, lj, 0.5) if cell is None else cell


def _bin_index(value: float, value_range: tuple[float, float], num_bins: int) -> int:
    """The equal-width bin of ``value`` over ``value_range``, clamped."""
    lo, hi = value_range
    if hi <= lo or value <= lo:
        return 0
    if value >= hi:
        return num_bins - 1
    return min(int((value - lo) / (hi - lo) * num_bins), num_bins - 1)


_ZERO_FLOOR = -99.0


def _log10_floor(p: float) -> float:
    return math.log10(p) if p > 0.0 else _ZERO_FLOOR


def fit_bin_table(
    pairs: Sequence[tuple[float, float, bool]], num_bins: int
) -> BinTable:
    """Fit a BinTable from (general prob, domain prob, word-was-correct).

    Probabilities arrive linear and are floored at 1e-99 before the log10
    transform so zero-probability words land in the lowest bin. Each cell
    a pair falls in stores log10((hits + 1) / (count + 2)), an add-one
    estimate of the probability a word with such model scores is correct;
    no other cell is stored. One pass over the pairs fills the table.
    """
    if num_bins < 1:
        raise ValueError("need at least one bin")
    if not pairs:
        raise EmptyCalibration("no calibration pairs")
    logs = [(_log10_floor(pg), _log10_floor(pj), hit) for pg, pj, hit in pairs]
    g_vals = [g for g, _, _ in logs]
    j_vals = [j for _, j, _ in logs]
    g_range = (min(g_vals), max(g_vals))
    j_range = (min(j_vals), max(j_vals))

    hits: dict[tuple[int, int], list[bool]] = {}
    for g, j, hit in logs:
        cell = (_bin_index(g, g_range, num_bins), _bin_index(j, j_range, num_bins))
        hits.setdefault(cell, []).append(bool(hit))
    cells = {
        cell: math.log10((sum(cell_hits) + 1) / (len(cell_hits) + 2))
        for cell, cell_hits in hits.items()
    }
    return BinTable(num_bins, g_range, j_range, cells)


class Scorer:
    """Base class wiring the config; subclasses define the state shape."""

    def __init__(self, config: ScorerConfig):
        self.config = config

    def initial_state(self):
        raise NotImplementedError

    def word_delta(self, state, word: str, color: int):
        """Return (log10 delta, next state) for one completed word."""
        raise NotImplementedError

    def unknown_delta(self, color: int) -> float | None:
        """The delta ``word_delta`` returns, in any state, for a word of
        ``color`` that is not in ``known_words(color)``; None when no
        single figure holds."""
        return None

    def known_words(self, color: int) -> frozenset[str]:
        """The words of ``color`` that ``word_delta`` looks up and finds;
        read only when ``unknown_delta(color)`` is not None."""
        raise NotImplementedError


class NullScorer(Scorer):
    """No language model: every word costs exactly beta."""

    def initial_state(self):
        return None

    def word_delta(self, state, word: str, color: int):
        return self.config.beta, None

    def unknown_delta(self, color: int) -> float:
        return self.config.beta

    def known_words(self, color: int) -> frozenset[str]:
        return frozenset()


class SingleLmScorer(Scorer):
    """One model scores everything, whatever the word's color.

    ``model_color`` selects which penalty slot prices this model's OOVs.
    """

    def __init__(self, config: ScorerConfig, model: NGramModel, model_color: int = 0):
        super().__init__(config)
        self.model = model
        self.model_color = model_color

    def initial_state(self) -> tuple[str, ...]:
        return EMPTY_STATE

    def word_delta(self, state: tuple[str, ...], word: str, color: int):
        lp, nxt = self.model.score_word(
            state, word, oov_log10=self.config.penalty(self.model_color)
        )
        return self._delta(lp), nxt

    def _delta(self, lp: float) -> float:
        return self.config.alpha * lp + self.config.beta

    def unknown_delta(self, color: int) -> float:
        return self._delta(self.config.penalty(self.model_color))

    def known_words(self, color: int) -> frozenset[str]:
        return frozenset(self.model.vocabulary)


class ColoringScorer(Scorer):
    """Score colored words against a color-merged model.

    Each word contributes alpha * (log10(1 / colors) + log10 P(colored
    word | colored history)) + beta, the prior over colors being
    uniform. The history is colored too, so
    cross-color n-grams only fire if the merged model has them (it does
    not, by construction: colors never mix inside one source model, so a
    color switch pays the backoff path down to unigrams).
    """

    def __init__(self, config: ScorerConfig, merged: NGramModel, num_colors: int):
        super().__init__(config)
        if num_colors < 1:
            raise ValueError("need at least one color")
        self.merged = merged
        self.num_colors = num_colors
        self.log_prior = math.log10(1.0 / num_colors)

    def initial_state(self) -> tuple[str, ...]:
        return EMPTY_STATE

    def _check_color(self, color: int) -> None:
        if not 0 <= color < self.num_colors:
            raise ValueError(f"color {color} out of range")

    def word_delta(self, state: tuple[str, ...], word: str, color: int):
        self._check_color(color)
        token = color_token(word, color)
        lp, nxt = self.merged.score_word(
            state, token, oov_log10=self.config.penalty(color)
        )
        return self._delta(lp), nxt

    def _delta(self, lp: float) -> float:
        return self.config.alpha * (self.log_prior + lp) + self.config.beta

    def unknown_delta(self, color: int) -> float:
        self._check_color(color)
        return self._delta(self.config.penalty(color))

    def known_words(self, color: int) -> frozenset[str]:
        """The merged model's tokens of ``color``, renamed back."""
        self._check_color(color)
        tag = color_token("", color)
        return frozenset(
            token[len(tag):]
            for token in self.merged.vocabulary
            if token.startswith(tag)
        )


class InterpolationScorer(Scorer):
    """Two-model fusion: linear, log-linear, or calibrated bins.

    Both models track the same uncolored word history; only the per-word
    probabilities are combined. State is the pair of model contexts.
    """

    def __init__(
        self,
        config: ScorerConfig,
        general: NGramModel,
        domain: NGramModel,
        kind: str,
        bin_table: BinTable | None = None,
    ):
        super().__init__(config)
        if kind not in ("linear", "loglinear", "bins"):
            raise ValueError(f"unknown interpolation kind {kind!r}")
        if kind == "bins" and bin_table is None:
            raise MissingBinTable("bins interpolation needs a fitted table")
        self.general = general
        self.domain = domain
        self.kind = kind
        self.bin_table = bin_table

    def initial_state(self) -> tuple[tuple, tuple]:
        return (EMPTY_STATE, EMPTY_STATE)

    def word_delta(self, state: tuple[tuple, tuple], word: str, color: int):
        st_g, st_j = state
        lg, ng = self.general.score_word(st_g, word, oov_log10=self.config.penalty(0))
        lj, nj = self.domain.score_word(st_j, word, oov_log10=self.config.penalty(1))
        return self._delta(lg, lj), (ng, nj)

    def _delta(self, lg: float, lj: float) -> float:
        if self.kind == "linear":
            combined = _combine_linear_log10(lg, lj, self.config.lam)
        elif self.kind == "loglinear":
            combined = _combine_loglinear_log10(lg, lj, self.config.lam)
        else:
            combined = self.bin_table.lookup(lg, lj)
        return self.config.alpha * combined + self.config.beta

    def unknown_delta(self, color: int) -> float:
        return self._delta(self.config.penalty(0), self.config.penalty(1))

    def known_words(self, color: int) -> frozenset[str]:
        """A word either model knows: both score every word."""
        return frozenset(self.general.vocabulary | self.domain.vocabulary)


class BayesScorer(Scorer):
    """Two-model fusion with per-hypothesis posterior weights.

    State carries both model contexts plus each model's cumulative log10
    mass over the words seen so far; the next word is mixed under weights
    proportional to 10**history, the prior being uniform. Histories
    include the same penalty substitution as everything else, so an OOV
    run shifts weight toward whichever model is less surprised.
    """

    def __init__(self, config: ScorerConfig, general: NGramModel, domain: NGramModel):
        super().__init__(config)
        self.general = general
        self.domain = domain

    def initial_state(self) -> tuple[tuple, tuple, float, float]:
        return (EMPTY_STATE, EMPTY_STATE, 0.0, 0.0)

    def word_delta(self, state, word: str, color: int):
        st_g, st_j, h_g, h_j = state
        lg, ng = self.general.score_word(st_g, word, oov_log10=self.config.penalty(0))
        lj, nj = self.domain.score_word(st_j, word, oov_log10=self.config.penalty(1))
        combined = interp_bayes(h_g, h_j, lg, lj)
        delta = self.config.alpha * combined + self.config.beta
        return delta, (ng, nj, h_g + lg, h_j + lj)


def make_scorer(
    kind: str,
    models: Sequence[NGramModel],
    config: ScorerConfig,
    bin_table: BinTable | None = None,
    num_colors: int | None = None,
) -> Scorer:
    """Build a scorer by kind name.

    ``coloring`` merges the given models (one per color) internally;
    every other kind takes exactly the models ``KIND_MODELS`` gives it,
    in that order. Any other model count is refused.
    """
    if kind not in KIND_MODELS:
        raise ValueError(f"unknown scorer kind {kind!r}")
    if kind == "coloring":
        n = num_colors if num_colors is not None else len(models)
        if not models or n != len(models):
            raise MissingModel(
                f"coloring needs one model per color ({n} colors, {len(models)} models)"
            )
        merged = merge_colored((m, c) for c, m in enumerate(models))
        return ColoringScorer(config, merged, n)
    places = KIND_MODELS[kind]
    if len(models) != len(places):
        raise MissingModel(
            f"scorer kind {kind!r} takes {len(places)} models, not {len(models)}"
        )
    if not places:
        return NullScorer(config)
    if len(places) == 1:
        return SingleLmScorer(config, models[0], model_color=places[0])
    general, domain = models
    if kind == "bayes":
        return BayesScorer(config, general, domain)
    return InterpolationScorer(config, general, domain, kind, bin_table)
