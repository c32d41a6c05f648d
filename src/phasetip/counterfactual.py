"""Counterfactual phase transforms and imputation of unobserved times.

Two directions of adjustment are supported. Effect 1 inflates the
control-arm monotherapy durations (adjustment factor >= 1), standing in
for the counterfactual where control subjects had received active
maintenance. Effect 2 shrinks the experimental-arm monotherapy durations
(factor in (0, 1]), standing in for the counterfactual without active
maintenance.

For Effect 1, subjects who had an event after transitioning need an
imputed censoring time: either the administrative cutoff (when censoring
is dominated by the data cutoff) or a draw from a censoring distribution
fitted with reversed event indicators, conditioned to lie beyond the
observed time. For Effect 2, subjects censored during monotherapy need an
imputed event time drawn from an exponential fit to the experimental
monotherapy durations. Both fits are an `ExponentialModel`, and by
memorylessness both conditional draws are the observed time plus a fresh
exponential (`ExponentialModel.beyond`).

`needs_draw` is the one rule for which subjects get a draw: those of the
effect's target arm that spent time in monotherapy (`Effect.target_arm` and
`Trial.in_mono`) and whose event status the transform may change. A
subject whose monotherapy starts at its follow-up time passes through
unchanged. `make_draw_sets` draws for exactly those subjects, once per
replicate, each from its own stream keyed by (seed, replicate, subject
id), so the draws do not depend on row order, and the same draws are
reused across the whole adjustment-factor grid; `make_draws` is its
one-replicate case. A subject's stream is
`default_rng(SeedSequence([seed, replicate, key]))`, the key being the
first eight bytes of the SHA-256 of its id; the keys are made once per
trial and effect and read by every replicate. The imputation model is
fitted once for all replicates, and the SeedSequence hashes of every
(replicate, subject) pair are computed in one numpy pass (`_seed_words`),
in blocks of whole replicates, to the same state words; each subject's
PCG64 starts from its own. Both fits sum their exposure with `math.fsum`,
which is exactly rounded, so the rate, and every draw, does not depend on
row order either. `ImputationDraws` holds the draws by trial position.

`apply_transform` is the transform the analysis runs: it works on a
`Trial`, one array per field, with both effects written as array
expressions, and returns a new `Trial`; so does `naive_transform`. The
tests state the same rules one subject at a time and compare the two.
Both effects move each subject they change along a line in the factor,
up to a cap where its event status flips (`transform_lines`), and
`transform_outcomes` moves them to k factors at once, of which
`apply_transform` is the one-row case; the search layer calls
`transform_outcomes` only. `rank_breakpoints` reads the same lines to
list the factors where a line meets a fixed time, a monotherapy start or
a cap; between two of them the log-rank test and every Cox fit of the
transformed trial are constant. Two lines that meet are not listed: both
are events of one arm x phase group, so the counts at risk stay as they
are, and at the tie the Efron risk table equals the untied one to the
bit. Only the log-rank p-value differs there, at that one factor. This
holds for Efron ties and for these two effects, not for Breslow ties or
for `naive_transform`, which also moves censored times.
"""

from __future__ import annotations

import enum
import functools
import hashlib
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import DataError, EstimationError, check_seed
from .records import Arm, Trial
from .survival import distinct

__all__ = [
    "Effect",
    "Threshold",
    "TransformParams",
    "ExponentialModel",
    "ImputationDraws",
    "keyed_rng",
    "needs_draw",
    "fit_censoring_model",
    "fit_mono_event_model",
    "TransformLines",
    "transform_lines",
    "transform_outcomes",
    "apply_transform",
    "rank_breakpoints",
    "naive_transform",
    "cutoff_censoring_fraction",
    "IMPUTATIONS",
    "make_draws",
    "make_draw_sets",
]

# the sources of effect 1's imputed censoring times (`make_draw_sets`)
IMPUTATIONS = ("auto", "cutoff", "fitted")


def check_imputation(imputation) -> None:
    if imputation not in IMPUTATIONS:
        raise DataError(f"imputation must be one of {', '.join(IMPUTATIONS)}, got {imputation!r}")


class Effect(enum.Enum):
    """Which arm's monotherapy phase the adjustment factor acts on."""

    INFLATE_CONTROL = 1
    SHRINK_EXPERIMENTAL = 2

    @classmethod
    def from_number(cls, n) -> "Effect":
        return cls(int(n))

    @property
    def direction(self) -> int:
        """The sign of the factor's walk from 1: up for effect 1, down for 2."""
        return 1 if self is Effect.INFLATE_CONTROL else -1

    @property
    def target_arm(self) -> Arm:
        return Arm.CONTROL if self is Effect.INFLATE_CONTROL else Arm.EXPERIMENTAL


class Threshold(enum.Enum):
    SIGNIFICANCE = "a"   # stop when the between-arm difference loses significance
    NEUTRALIZE = "b"     # stop when the monotherapy-phase HR reaches 1


def _check_factor(effect: Effect, gamma: float) -> None:
    """Refuse a factor outside the effect's range: >= 1 for effect 1,
    (0, 1] for effect 2."""
    if effect is Effect.INFLATE_CONTROL and not gamma >= 1.0:
        raise DataError(f"inflation factor must be >= 1, got {gamma}")
    if effect is Effect.SHRINK_EXPERIMENTAL and not 0.0 < gamma <= 1.0:
        raise DataError(f"shrinkage factor must be in (0, 1], got {gamma}")


@dataclass(frozen=True)
class TransformParams:
    effect: Effect
    gamma: float

    def __post_init__(self):
        if not isinstance(self.effect, Effect):
            raise DataError(f"effect must be an Effect, got {self.effect!r}")
        if not isinstance(self.gamma, numbers.Real) or isinstance(self.gamma, bool):
            raise DataError(f"gamma must be a number, got {self.gamma!r}")
        _check_factor(self.effect, self.gamma)


@dataclass(frozen=True)
class ExponentialModel:
    """Exponential time-to-event fit: `n` events over `exposure` months,
    maximum-likelihood rate n / exposure."""

    rate: float
    n: int
    exposure: float

    def __post_init__(self):
        if not self.rate > 0:
            raise EstimationError("exponential model needs a positive rate")

    def beyond(self, floor: float, rng) -> float:
        """A time drawn conditioned to lie beyond `floor`: by memorylessness
        the floor plus a fresh exponential, redrawn while it is zero so the
        time is strictly beyond the floor."""
        residual = rng.exponential(1.0 / self.rate)
        while residual == 0.0:
            residual = rng.exponential(1.0 / self.rate)
        return floor + residual


@dataclass(frozen=True, eq=False)
class ImputationDraws:
    """One replicate's imputed times, by trial position.

    ``values[k]`` is the imputed time of the subject at position
    ``subjects[k]`` of the trial the draws were made on: a censoring time
    for effect 1, an event time for effect 2. Only the subjects that
    `needs_draw` selects have one.
    """

    subjects: np.ndarray
    values: np.ndarray


def _subject_key(subject_id: str) -> int:
    digest = hashlib.sha256(subject_id.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


# numpy's SeedSequence: a pool of four 32-bit words, its hash and mix
# constants, and the shift of both
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = 16
_MASK32 = 0xFFFFFFFF
_OTHERS = [np.array([i for i in range(_POOL) if i != src]) for src in range(_POOL)]


def _int_words(n: int) -> list[int]:
    """`n` as little-endian 32-bit words, one word for 0, as SeedSequence
    splits an int."""
    words = [n & _MASK32]
    while n > _MASK32:
        n >>= 32
        words.append(n & _MASK32)
    return words


@functools.cache
def _hash_consts(init: int, mult: int, count: int) -> np.ndarray:
    """The first `count` values of a SeedSequence hash constant, as a
    read-only column, made once per count."""
    consts = [init]
    for _ in range(count - 1):
        consts.append(consts[-1] * mult & _MASK32)
    column = np.array(consts, np.int64)[:, None]
    column.flags.writeable = False
    return column


def _hash_pool(entropy: np.ndarray) -> np.ndarray:
    """SeedSequence's `generate_state(4, np.uint64)` for each row of a
    (n, L) array of 32-bit words, L >= 4, as (n, 4) uint64.

    The words are held in int64 and masked to 32 bits after each product
    and difference, whose low 32 bits are those of the uint32 arithmetic
    (int64 loops, unlike uint32 ones, are ones the program already runs).
    The hash constant advances once per hashed word, the same for every
    row. Hashing one pool word into the three others uses three
    consecutive constants and changes only those three, so each such
    round is one array operation over all rows."""
    h = _hash_consts(_INIT_A, _MULT_A, _POOL * _POOL + _POOL * (entropy.shape[1] - _POOL) + 1)

    def hashmix(value, k, m):
        # the k-th to (k+m-1)-th hashes, of `value` broadcast over m rows
        value = (value ^ h[k:k + m]) * h[k + 1:k + m + 1] & _MASK32
        return value ^ (value >> _XSHIFT)

    def mix(x, y):
        result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
        return result ^ (result >> _XSHIFT)

    pool = hashmix(entropy[:, :_POOL].T, 0, _POOL)
    k = _POOL
    for src, dst in enumerate(_OTHERS):
        pool[dst] = mix(pool[dst], hashmix(pool[src], k, _POOL - 1))
        k += _POOL - 1
    for src in range(_POOL, entropy.shape[1]):
        pool = mix(pool, hashmix(entropy[:, src], k, _POOL))
        k += _POOL
    g = _hash_consts(_INIT_B, _MULT_B, 2 * _POOL + 1)
    state = (np.concatenate([pool, pool]) ^ g[:-1]) * g[1:] & _MASK32
    state ^= state >> _XSHIFT
    # 32-bit words 2j and 2j + 1 are the low and high halves of word j
    return np.ascontiguousarray((state[0::2] | state[1::2] << 32).T).view(np.uint64)


def _seed_words(seed: int, replicate_ids, keys) -> np.ndarray:
    """The state words `SeedSequence([seed, replicate_id, key])
    .generate_state(4, np.uint64)` for every replicate id and 64-bit key,
    replicate by replicate, as (len(replicate_ids) * len(keys), 4) uint64.

    Each int is split into 32-bit words, so an entropy row is the words of
    the seed, the replicate id and the key, one or two of them. A row
    shorter than the pool hashes as if padded with zero words, so the rows
    of all replicates are grouped by their length or the pool size,
    whichever is larger, and each group is hashed in one `_hash_pool` call
    (one in all when every replicate id and the seed are below 2**32)."""
    keys = np.asarray(keys, dtype=np.uint64).view(np.int64)
    key_words = np.stack([keys & _MASK32, keys >> 32 & _MASK32], axis=1)
    heads = [_int_words(int(seed)) + _int_words(int(r)) for r in replicate_ids]
    head_size = np.array([len(head) for head in heads], np.int64)
    # a row is its head, both key words and zeros, cut to the row's width
    words = np.zeros((len(heads), len(key_words), head_size.max(initial=0) + 2), np.int64)
    for size in set(head_size.tolist()):
        group = head_size == size
        words[group, :, :size] = np.array([head for head in heads if len(head) == size])[:, None]
        words[group, :, size:size + 2] = key_words
    words = words.reshape(-1, words.shape[2])
    width = np.maximum(head_size[:, None] + 1 + (key_words[:, 1] != 0), _POOL).ravel()
    widths = set(width.tolist())
    if len(widths) == 1:
        return _hash_pool(words[:, :widths.pop()])
    out = np.empty((words.shape[0], _POOL), np.uint64)
    for w in widths:
        rows = np.flatnonzero(width == w)
        out[rows] = _hash_pool(words[rows, :w])
    return out


@functools.cache
def _words_type() -> type:
    """`_Words`, made on first use, so that importing the package does not
    import numpy.random (about 12 ms), which commands that draw nothing
    never need."""
    from numpy.random.bit_generator import ISeedSequence

    class _Words(ISeedSequence):
        """A seed sequence that hands a bit generator state words made
        ahead: the four uint64 words PCG64 asks for."""

        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            return self.words

    return _Words


def _keyed_rngs(words: np.ndarray) -> list[np.random.Generator]:
    """One generator per row of `_seed_words`, each the stream of
    `default_rng(SeedSequence([seed, replicate_id, key]))`."""
    words_seed, generator, pcg64 = _words_type(), np.random.Generator, np.random.PCG64
    return [generator(pcg64(words_seed(row))) for row in words]


def keyed_rng(seed: int, replicate_id: int, subject_id: str) -> np.random.Generator:
    """Independent generator per (seed, replicate, subject)."""
    check_seed(seed, "seed")
    check_seed(replicate_id, "replicate_id")
    (rng,) = _keyed_rngs(_seed_words(seed, [replicate_id], [_subject_key(subject_id)]))
    return rng


# ---------------------------------------------------------------------------
# Imputation models


def _targeted(trial: Trial, effect: Effect) -> np.ndarray:
    """Mask of the subjects the effect's transform acts on: on its target
    arm and in monotherapy. Every function taking an effect refuses here a
    value that is not an `Effect`."""
    if not isinstance(effect, Effect):
        raise DataError(f"effect must be an Effect, got {effect!r}")
    return (trial.trt == effect.target_arm.trt) & trial.in_mono


def needs_draw(trial: Trial, effect: Effect) -> np.ndarray:
    """Mask of the subjects that get a draw: targeted, and with an event
    (effect 1: the censoring time is unobserved) or censored (effect 2: the
    event time is unobserved)."""
    status = 1 if effect is Effect.INFLATE_CONTROL else 0
    return _targeted(trial, effect) & (trial.delta == status)


def cutoff_censoring_fraction(trial: Trial) -> float:
    """Share of censored observations that are censored at the cutoff."""
    censored = trial.delta == 0
    if not censored.any():
        return 1.0
    at_cutoff = sum(
        math.isclose(s, cutoff, rel_tol=1e-9, abs_tol=1e-9)
        for s, cutoff in zip(trial.s[censored].tolist(), trial.cutoff[censored].tolist())
    )
    return at_cutoff / int(censored.sum())


def fit_censoring_model(trial: Trial) -> ExponentialModel:
    """Fit an exponential censoring distribution by reversing the event
    indicator: the MLE rate is censorings over total exposure."""
    n_cens = int((trial.delta == 0).sum())
    if n_cens == 0:
        raise EstimationError("no censored observations to fit a censoring model")
    # exactly rounded, so the rate does not depend on the order of the rows
    exposure = math.fsum(trial.s.tolist())
    return ExponentialModel(n_cens / exposure, n_cens, exposure)


def fit_mono_event_model(trial: Trial) -> ExponentialModel:
    """Censoring-aware exponential MLE on experimental mono durations."""
    mono = _targeted(trial, Effect.SHRINK_EXPERIMENTAL)
    n_events = int(trial.delta[mono].sum())
    if n_events == 0:
        raise EstimationError("no monotherapy-phase events on the experimental arm")
    exposure = math.fsum((trial.s[mono] - trial.mono_start[mono]).tolist())
    return ExponentialModel(n_events / exposure, n_events, exposure)


# ---------------------------------------------------------------------------
# Transforms


def _missing_draw(trial: Trial, missing: np.ndarray, what: str):
    if missing.any():
        sid = trial.ids[np.flatnonzero(missing)[0]]
        raise DataError(f"subject {sid}: missing imputed {what}")


@dataclass(frozen=True, eq=False)
class TransformLines:
    """One draw set's transform as lines in the factor, one per moving
    subject.

    ``rows`` holds the trial positions of the moving subjects, ascending;
    ``base``, ``slope`` and ``cap`` hold one entry per moving subject. A
    moving subject's time at factor gamma is t = base + (gamma - 1) *
    slope, with slope = base - mono_start: an event while t <= cap, else
    censored at cap. Every other subject keeps (s, delta).
    """

    effect: Effect
    rows: np.ndarray
    base: np.ndarray
    slope: np.ndarray
    cap: np.ndarray


def transform_lines(trial: Trial, effect: Effect, draws: ImputationDraws) -> TransformLines:
    """The lines of `draws` on `trial`. Effect 1 moves the drawn control
    events (base s, cap the imputed censoring time); effect 2 moves every
    targeted subject: the experimental events in monotherapy (base s, no
    cap) and the drawn censored subjects (base the imputed event time, cap
    s). Which subjects move depends only on the trial and the effect."""
    drawn = needs_draw(trial, effect)
    imputed = np.full(len(trial), np.nan)
    imputed[draws.subjects] = draws.values
    what = "censoring time" if effect is Effect.INFLATE_CONTROL else "event time"
    _missing_draw(trial, drawn & np.isnan(imputed), what)
    if effect is Effect.INFLATE_CONTROL:
        rows = drawn.nonzero()[0]
        base, cap = trial.s[rows], imputed[rows]
    else:
        rows = _targeted(trial, effect).nonzero()[0]
        drawn, s = drawn[rows], trial.s[rows]
        base, cap = np.where(drawn, imputed[rows], s), np.where(drawn, s, np.inf)
    return TransformLines(effect, rows, base, base - trial.mono_start[rows], cap)


def transform_outcomes(trial: Trial, lines, gammas):
    """The transformed outcomes of `trial` at k factors: row r is the
    outcome (s, delta) under lines[r] at gammas[r], as two k x n arrays.
    Every lines[r] is of the same effect on `trial`, so the same subjects
    move in every row."""
    for gamma in gammas:
        _check_factor(lines[0].effect, gamma)
    gamma = np.array(gammas, dtype=float)[:, None]
    base = np.array([ln.base for ln in lines])
    # algebraically x + gamma*(base - x); this form is exact at gamma == 1
    t = base + (gamma - 1.0) * np.array([ln.slope for ln in lines])
    cap = np.array([ln.cap for ln in lines])
    live = t <= cap
    rows = lines[0].rows
    s = trial.s[None].repeat(gamma.size, axis=0)
    s[:, rows] = np.where(live, t, cap)
    delta = trial.delta[None].repeat(gamma.size, axis=0)
    delta[:, rows] = live
    return s, delta


def apply_transform(trial: Trial, params: TransformParams, draws: ImputationDraws) -> Trial:
    """Counterfactual trial under `params`, using one replicate's draws.

    Effect 1 inflates a control subject's monotherapy duration: an event
    moves to t' = x + gamma*(s - x) and stays an event if t' is within the
    imputed censoring time, else the subject is censored there; a censored
    subject is unchanged. Effect 2 shrinks an experimental subject's
    monotherapy duration: an event moves to x + gamma*(s - x); a subject
    censored in monotherapy becomes an event at x + gamma*(t-hat - x) if
    that lands at or before s, t-hat being its imputed event time. This is
    the one-row case of `transform_outcomes`.
    """
    (s,), (delta,) = transform_outcomes(
        trial, [transform_lines(trial, params.effect, draws)], [params.gamma])
    return trial.with_outcome(s, delta)


# Breakpoints closer than this count as one: far above the rounding of the
# transform arithmetic, far below any tip resolution a search reports.
_MERGE = 1e-9


def rank_breakpoints(trial: Trial, lines: TransformLines, lo: float, hi: float) -> np.ndarray:
    """The factors in (lo, hi) at which a count at risk, an event count or
    an event status of `trial` transformed along `lines` (one draw set's
    `transform_lines`) can change, ascending.

    With the draws fixed each moving time is a line in the factor, and
    every other time, every monotherapy start and every cap is fixed. A
    breakpoint is a factor where a line, while below its cap, meets a
    fixed value (its own cap included, where its event status flips).
    Each line finds the fixed values it passes with one search of the
    sorted fixed values. Breakpoints within 1e-9 of each other, or of lo
    or hi, are merged into one.

    Between consecutive breakpoints the log-rank counts and the Efron risk
    table are constant. Two lines that meet are not listed: below their
    caps both are events of the effect's target arm in monotherapy, one
    arm x phase group, so passing each other changes no count. Where they
    meet the two events tie, and the Efron rows of that tie are n_g and
    n_g - 1, the rows of the two untied times, to the bit. So the risk
    table, and every Cox fit and Wald p-value read from it, is constant
    there too; only the log-rank p-value differs, at that one factor. A
    probe reads it only if its factor equals the tie factor to the bit.
    The argument needs Efron ties and moving lines of one group: it does
    not hold under Breslow ties, or for a transform that also moves
    censored times, such as `naive_transform`.
    """
    a, b, c = lines.base, lines.slope, lines.cap
    x = trial.mono_start
    fixed = distinct(np.concatenate([np.delete(trial.s, lines.rows), x[~np.isnan(x)],
                                     c[np.isfinite(c)]]))[0]

    # the fixed values in each line's span over [lo, hi] while below its cap
    first = np.searchsorted(fixed, a + (lo - 1.0) * b, side="left")
    stop = np.minimum(a + (hi - 1.0) * b, c)
    count = np.maximum(np.searchsorted(fixed, stop, side="right") - first, 0)
    line = np.repeat(np.arange(a.size), count)
    col = first[line] + np.arange(line.size) - np.repeat(np.cumsum(count) - count, count)
    gammas = 1.0 + (fixed[col] - a[line]) / b[line]
    gammas = np.sort(gammas[(gammas > lo + _MERGE) & (gammas < hi - _MERGE)])
    return gammas[np.diff(gammas, prepend=-np.inf) > _MERGE]


def naive_transform(trial: Trial, effect: Effect, gamma: float) -> Trial:
    """Rescale the monotherapy durations of the subjects the effect targets,
    regardless of event status.

    Event indicators never change, so the total number of events is
    preserved by construction; the cutoff is extended when an inflated
    time moves past it.
    """
    _check_factor(effect, gamma)
    s, x = trial.s, trial.mono_start
    new_s = np.where(_targeted(trial, effect), s + (gamma - 1.0) * (s - x), s)
    return trial.with_outcome(new_s, trial.delta)


# ---------------------------------------------------------------------------
# Replicate draw generation


@functools.lru_cache(maxsize=1)
def _drawn_keys(trial: Trial, effect: Effect) -> np.ndarray:
    """The keys of the subjects `needs_draw` selects, in trial order. They
    depend only on the subject ids, so they are made once per trial and
    effect, and every replicate's draws read them."""
    subjects = np.flatnonzero(needs_draw(trial, effect)).tolist()
    keys = np.array([_subject_key(trial.ids[k]) for k in subjects], dtype=np.uint64)
    keys.flags.writeable = False
    return keys


# Most (replicate, subject) key rows whose seed words `make_draw_sets` makes
# at once: a block's hash temporaries hold a few arrays of this many rows,
# so they stay small however many replicates are asked for.
_KEY_BLOCK = 1024


def make_draw_sets(trial: Trial, effect: Effect, imputation: str = "auto", seed: int = 0,
                   replicate_ids=(0,)) -> list[ImputationDraws]:
    """All imputed times each of `replicate_ids` needs, one draw set per
    replicate, for the subjects `needs_draw` selects, in trial order.

    Effect 1: imputed censoring times. `imputation` picks the source:
    "cutoff", "fitted" (exponential censoring model), or "auto", which uses
    the cutoff when at least half of the censored observations sit on the
    cutoff date.

    Effect 2: imputed event times, from the exponential mono-duration fit.

    The method is picked and the model fitted once for all replicates. The
    seed words of every (replicate, subject) key are hashed in blocks of
    whole replicates, at most _KEY_BLOCK key rows a block when a replicate
    has fewer subjects than that, and each subject draws from its own
    generator, as `make_draws` does for one replicate. Every draw set reads
    one `subjects` array; the cutoff method's sets also share their values.
    """
    check_imputation(imputation)
    check_seed(seed, "seed")
    try:
        replicate_ids = list(replicate_ids)
    except TypeError:
        raise DataError(f"replicate_ids must be a sequence of integers, "
                        f"got {replicate_ids!r}") from None
    for replicate_id in replicate_ids:
        check_seed(replicate_id, "replicate_id")
    subjects = np.flatnonzero(needs_draw(trial, effect))
    subjects.flags.writeable = False
    method = "fitted"
    if effect is Effect.INFLATE_CONTROL:
        method = imputation
        if method == "auto":
            method = "cutoff" if cutoff_censoring_fraction(trial) >= 0.5 else "fitted"
    if method == "cutoff" or not subjects.size or not replicate_ids:
        # the same values for every replicate: nothing to draw, so no model to fit
        values = trial.cutoff[subjects] if method == "cutoff" else np.empty(0)
        values.flags.writeable = False
        return [ImputationDraws(subjects, values) for _ in replicate_ids]
    fit = fit_censoring_model if effect is Effect.INFLATE_CONTROL else fit_mono_event_model
    model = fit(trial)
    keys = _drawn_keys(trial, effect)
    floors = trial.s[subjects].tolist()
    per_block = max(1, _KEY_BLOCK // keys.size)
    draw_sets = []
    for first in range(0, len(replicate_ids), per_block):
        words = _seed_words(seed, replicate_ids[first:first + per_block], keys)
        for row in range(0, len(words), keys.size):
            rngs = _keyed_rngs(words[row:row + keys.size])
            values = np.array([model.beyond(s, rng) for s, rng in zip(floors, rngs)])
            draw_sets.append(ImputationDraws(subjects, values))
    return draw_sets


def make_draws(trial: Trial, effect: Effect, imputation: str = "auto",
               seed: int = 0, replicate_id: int = 0) -> ImputationDraws:
    """All imputed times one replicate needs: the one-replicate case of
    `make_draw_sets`."""
    (draws,) = make_draw_sets(trial, effect, imputation, seed, [replicate_id])
    return draws
