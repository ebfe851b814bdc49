"""The direct-search iteration loop.

Each iteration executes, in order, an optional search step, an optional
revealing poll step (a fixed-radius random ball sample around the incumbent,
independent of the step size), and a directional poll step.  The first step
to produce sufficient decrease wins the iteration and the remaining steps
are skipped.  Disabling the revealing poll recovers the classic directional
direct-search method.

Every trial point of a step is logged, even after a decrease is found
(complete, non-opportunistic polling), every evaluator call is logged in the
trace, and update formulas avoid fused operations so that runs on dyadic
data are bit-reproducible.  A trial at the incumbent, once the step rounds
away against it (or is 0.0), carries the incumbent's record and is not
evaluated again, unless the incumbent holds a zero: ``0.0 == -0.0``, yet
the two may differ in value.  The evaluator is deterministic, and equal
nonzero floats are one binary64, so that value is the one a call would give.

``value_at`` is the one statement of an objective's value at a point: the
solver records it in a ``TrialPoint`` built by ``evaluate``, once per trial
it evaluates, and analyses that keep no record take the bare float.
``evaluate`` adds only the domain oracle's verdict, so its value is
``value_at``'s by construction.

``iterate`` is the one statement of an iteration: it yields each
iteration's record as it completes, and ``run`` collects the records into a
``Trace``, which derives its termination from them.  ``iterate`` is also
the whole definition of a valid trace file: ``traceio`` accepts a file only
if ``iterate``, replayed from its header, writes exactly its lines.
``validate_config`` bounds what one iteration may cost, so a header cannot
buy unbounded work before its first comparison.

Iteration k of a run draws from ``PCG64(SeedSequence((seed, k)))``, hashed
in aligned spans of iterations that grow along the run, [0, 64), [64, 128),
[128, 256), [256, 512) and then blocks of 512, into a memo of the latest span
of the last 64 seeds.  numpy is imported by the first span hashed, not with
this module, so a run without the revealing poll never loads it.

The per-trial records ``TrialPoint``, ``StepOutcome`` and ``IterationRecord``
are immutable named tuples, the cheapest immutable record to build: a record
equals the plain tuple of its fields, and ``record._replace(...)`` copies one
with changed fields.  The engine builds them with ``tuple.__new__``, which
runs in C.  ``AlgoConfig`` and ``Trace`` are frozen dataclasses.
"""

from __future__ import annotations

import functools
import math
import operator
import reprlib
import sys
import typing
from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass

from . import steps
from .objective import InputError, ObjectiveSpec, Vector

if typing.TYPE_CHECKING:
    import numpy as np

SEARCH = "search"
REVEALING_POLL = "revealing_poll"
POLL = "poll"

TERMINATED_MAX_ITERATIONS = "max_iterations"
TERMINATED_ALPHA_MIN = "alpha_min"
TERMINATED_ALPHA_OVERFLOW = "alpha_overflow"


class ConfigError(ValueError, InputError):
    """An algorithm configuration violates its invariants."""


class InitializationError(RuntimeError):
    """The starting point is infeasible or has no finite objective value."""


class ObjectiveError(RuntimeError):
    """The objective's evaluator raised at a point; the original exception
    is chained as ``__cause__``."""

    def __init__(self, name: str, point: Vector) -> None:
        super().__init__(name, point)
        self.name = name
        self.point = point

    def __str__(self) -> str:
        return f"objective {self.name!r} failed at {self.point}: {self.__cause__}"


# What a failing evaluator raises: a domain error, an overflow, or a value
# that is not a number.
EVALUATOR_FAILURES = (ArithmeticError, TypeError, ValueError)


@dataclass(frozen=True)
class AlgoConfig:
    """Every free parameter of the solver.

    ``revealing_radius`` None disables the revealing poll entirely.  The
    step-size update uses the deterministic endpoint choices ``gamma*alpha``
    on success and ``beta2*alpha`` on failure.
    """

    x0: tuple[float, ...]
    alpha0: float
    beta1: float = 0.5
    beta2: float = 0.5
    gamma: float = 1.0
    revealing_radius: float | None = None
    revealing_count: int = 1
    search_schedule: str = "none"
    poll_directions: str = "coordinate"
    forcing: str = "zero"
    seed: int = 0
    max_iterations: int = 100
    alpha_min: float = 0.0


def _is_integer(value: object) -> bool:
    """A Python int other than a bool; numpy integers are not JSON-serializable."""
    return isinstance(value, int) and not isinstance(value, bool)


def _is_real(value: object) -> bool:
    """A Python float (``np.float64`` is one), or an integer within the float range."""
    return isinstance(value, float) or _is_integer(value) and abs(value) <= sys.float_info.max


# AlgoConfig field type -> test of a value's type
_TYPE_TESTS = {
    tuple[float, ...]: lambda v: isinstance(v, (tuple, list)) and all(_is_real(c) for c in v),
    float: _is_real,
    float | None: lambda v: v is None or _is_real(v),
    int: _is_integer,
    str: lambda v: isinstance(v, str),
}
_FIELD_TESTS = {name: _TYPE_TESTS[hint] for name, hint in typing.get_type_hints(AlgoConfig).items()}


# Most points one revealing poll may draw: a bound on what one iteration,
# and a trace header before its first record, can cost.
MAX_REVEALING_COUNT = 4096
# seed and max_iterations stay below 2**128 (numpy's recommended seed entropy).
_INT_LIMIT = 2**128


class _Shown(reprlib.Repr):
    """``reprlib`` that shows an integer of more than 128 bits by its bit
    length, since ``repr`` of a long enough one raises ValueError."""

    def repr_int(self, x: int, level: int) -> str:
        if x.bit_length() > 128:
            return f"<integer of {x.bit_length()} bits>"
        return super().repr_int(x, level)


_shown = _Shown().repr


def validate_config(config: AlgoConfig) -> None:
    """Raise ConfigError naming the offending field(s) if the config is invalid."""
    for name, test in _FIELD_TESTS.items():
        value = getattr(config, name)
        if not test(value):
            raise ConfigError(f"{name} has the wrong type: {_shown(value)}")
    if len(config.x0) == 0:
        raise ConfigError("x0 must have at least one component")
    if not all(math.isfinite(v) for v in config.x0):
        raise ConfigError("x0 must be finite")
    if not 0.0 < config.alpha0 < math.inf:
        raise ConfigError(f"alpha0 must be finite and > 0, got {_shown(config.alpha0)}")
    if not 0.0 < config.beta1 <= config.beta2 < 1.0:
        raise ConfigError(
            "beta1, beta2 must satisfy 0 < beta1 <= beta2 < 1, "
            f"got beta1={_shown(config.beta1)}, beta2={_shown(config.beta2)}"
        )
    if not 1.0 <= config.gamma < math.inf:
        raise ConfigError(f"gamma must be finite and >= 1, got {_shown(config.gamma)}")
    if config.revealing_radius is not None and not 0.0 < config.revealing_radius < math.inf:
        raise ConfigError(f"revealing_radius must be finite and > 0, got {_shown(config.revealing_radius)}")
    if not 1 <= config.revealing_count <= MAX_REVEALING_COUNT:
        raise ConfigError(
            f"revealing_count must be in [1, {MAX_REVEALING_COUNT}], got {_shown(config.revealing_count)}"
        )
    if not 0 <= config.seed < _INT_LIMIT:
        raise ConfigError(f"seed must be a nonnegative integer below 2**128, got {_shown(config.seed)}")
    if not 0 <= config.max_iterations < _INT_LIMIT:
        raise ConfigError(f"max_iterations must be >= 0 and below 2**128, got {_shown(config.max_iterations)}")
    if not config.alpha_min >= 0.0:
        raise ConfigError(f"alpha_min must be >= 0, got {_shown(config.alpha_min)}")


class TrialPoint(typing.NamedTuple):
    """One evaluated (or domain-rejected) trial point.

    Out-of-domain points are never passed to the evaluator; their value is
    recorded as +inf and they are ignored during candidate selection.
    """

    point: Vector
    value: float
    in_domain: bool


class StepOutcome(typing.NamedTuple):
    """The trials of one executed step, in evaluation order, the index of
    the winning trial (None if no trial decreased), and whether it won."""

    kind: str  # SEARCH, REVEALING_POLL or POLL
    trials: tuple[TrialPoint, ...]
    winner: int | None
    success: bool


class IterationRecord(typing.NamedTuple):
    """Full ledger of one iteration: incumbent, step size, every trial point
    per executed step (in execution order, skipped steps absent), and the
    resulting update.  Like ``TrialPoint`` and ``StepOutcome``, an immutable
    named tuple.  Every coordinate, value and step size in a record is a
    float: ``iterate`` starts from float copies of ``x0`` and ``alpha0``."""

    k: int
    x: Vector
    alpha: float
    f_x: float
    outcomes: tuple[StepOutcome, ...]
    success: bool
    x_next: Vector
    alpha_next: float

    @property
    def f_next(self) -> float:
        """Incumbent value after the iteration: the winning trial's value on
        success, else ``f_x``."""
        if not self.success:
            return self.f_x
        last = self.outcomes[-1]
        return last.trials[last.winner].value


# Record constructors that run in C: a named tuple's own ``__new__`` is a
# generated Python function, one frame per record on the hot path.  Each
# call passes one tuple of all the record's fields, in field order.
_trial_point = functools.partial(tuple.__new__, TrialPoint)
_step_outcome = functools.partial(tuple.__new__, StepOutcome)
_iteration_record = functools.partial(tuple.__new__, IterationRecord)


@dataclass(frozen=True)
class Trace:
    """Immutable record of a run, or of its first records; the unit of persistence."""

    config: AlgoConfig
    objective_name: str
    records: tuple[IterationRecord, ...]

    @property
    def termination(self) -> str | None:
        """The ``stop_reason`` after the last record (``alpha0`` and 0 when
        there is none), or None if the run goes on past the records."""
        alpha = self.records[-1].alpha_next if self.records else self.config.alpha0
        return stop_reason(len(self.records), alpha, self.config)

    def final_incumbent(self) -> Vector:
        if not self.records:
            return tuple(map(float, self.config.x0))
        return self.records[-1].x_next


def value_at(objective: ObjectiveSpec, point: Vector) -> float:
    """The value rule: +inf where the domain oracle rejects ``point``, which
    is then not evaluated, else ``float(evaluator(point))``.

    An evaluator failure raises ObjectiveError naming the point.  Callers
    that keep no record of the point take its value here; the solver takes
    its ``TrialPoint`` from ``evaluate``.
    """
    if not objective.domain_oracle(point):
        return math.inf
    try:
        return float(objective.evaluator(point))
    except EVALUATOR_FAILURES as exc:
        raise ObjectiveError(objective.name, point) from exc


def evaluate(objective: ObjectiveSpec, point: Vector) -> TrialPoint:
    """The solver's record of a trial: ``point``, its ``value_at`` and the
    domain oracle's verdict on it.  A rejected point is valued +inf, so any
    other value was accepted; the oracle is asked again only for +inf."""
    value = value_at(objective, point)
    return _trial_point((point, value, value != math.inf or objective.domain_oracle(point)))


def stop_reason(k: int, alpha: float, config: AlgoConfig) -> str | None:
    """Why the run ends before iteration k with step size alpha, or None
    if iteration k runs."""
    if k >= config.max_iterations:
        return TERMINATED_MAX_ITERATIONS
    if alpha < config.alpha_min:
        return TERMINATED_ALPHA_MIN
    if alpha == math.inf:
        return TERMINATED_ALPHA_OVERFLOW
    return None


def iteration_rng(seed: int, k: int) -> np.random.Generator:
    """Independent substream for iteration k of a run.

    Seeding PCG64 with the entropy pair (run seed, iteration index) decouples
    the revealing poll's draws from whatever other steps consume; toggling
    the search or poll configuration cannot shift them.  The stream is the
    one ``PCG64(SeedSequence((seed, k)))`` gives.
    """
    row = iteration_seed_words(seed, k)
    if _RowSeedSequence is None:
        _bind_generator()
    return _Generator(_PCG64(_RowSeedSequence(row)))


def iteration_seed_words(seed: int, k: int) -> np.ndarray:
    """``SeedSequence((seed, k)).generate_state(4, np.uint64)``, the words
    PCG64 is seeded with for iteration k, read from the memo."""
    seed, k = operator.index(seed), operator.index(k)
    if seed < 0 or k < 0:
        raise ValueError(f"expected nonnegative integers, got seed {seed} and k {k}")
    held = _memo.get(seed)
    if held is None or not 0 <= k - held[0] < len(held[1]):
        hash_seed_blocks((seed,), k)
        held = _memo[seed]
    return held[1][k - held[0]]


def hash_seed_blocks(seeds: Sequence[int], k: int) -> None:
    """Hash the span of iterations that holds k, of every seed in ``seeds``,
    into the memo, one ``_seed_blocks`` pass per seed word count.

    The span of k is aligned and its size is ``2**floor(log2(k))`` clamped
    to [64, 512]: [0, 64), [64, 128), [128, 256), [256, 512), then blocks of
    512.  A long run thus hashes a few large spans, and a miss costs at most
    512 rows.  The memo keeps one span per seed, the latest hashed, for the
    last ``_MEMO_SEEDS`` seeds hashed: a run only moves forward through its
    spans.
    """
    bits = min(max(k.bit_length() - 1, _MIN_SPAN_BITS), _MAX_SPAN_BITS)
    start, size = k >> bits << bits, 1 << bits
    for n_words in {len(_uint32_words(seed)) for seed in seeds}:
        group = [seed for seed in seeds if len(_uint32_words(seed)) == n_words]
        for seed, rows in zip(group, _seed_blocks(group, start, size)):
            _memo.pop(seed, None)
            _memo[seed] = (start, rows)
    while len(_memo) > _MEMO_SEEDS:
        del _memo[next(iter(_memo))]


_MIN_SPAN_BITS, _MAX_SPAN_BITS = 6, 9
_MEMO_SEEDS = 64  # at most 16 KB of rows each, 1 MB in all; a Monte Carlo group and its master seed fit
_memo: dict[int, tuple[int, np.ndarray]] = {}  # seed -> (span start, its rows), oldest hash first

# SeedSequence's hashing constants (numpy/random/bit_generator.pyx).
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
# _OTHERS[i_src]: the pool words that mix in a hash of pool word i_src, in
# SeedSequence's order.
_OTHERS = tuple([d for d in range(_POOL_SIZE) if d != s] for s in range(_POOL_SIZE))


@functools.lru_cache(maxsize=4)
def _hash_constants(value: int, mult: int, count: int) -> np.ndarray:
    """Column of the first ``count`` hash constants: ``value``, then each
    times ``mult``; hash call i uses constants i and i + 1."""
    import numpy as np

    out = [value]
    for _ in range(count - 1):
        out.append(out[-1] * mult & 0xFFFFFFFF)
    return np.array(out, dtype=np.uint32)[:, None]


def _hash(value: np.ndarray, consts: np.ndarray) -> np.ndarray:
    """SeedSequence's hashmix of ``value`` row by row, row i with constants i, i + 1."""
    value = (value ^ consts[:-1]) * consts[1:]
    return value ^ (value >> 16)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    import numpy as np

    value = x * np.uint32(_MIX_MULT_L) - y * np.uint32(_MIX_MULT_R)
    return value ^ (value >> 16)


def _seed_blocks(seeds: Sequence[int], start: int, size: int) -> np.ndarray:
    """``SeedSequence((seed, k)).generate_state(4, np.uint64)`` as row
    ``k - start`` for the ``size`` iterations ``k`` from ``start`` on, of
    every seed, stacked, in one numpy pass.  The seeds must have the same
    number of 32-bit words, and ``start`` must be a multiple of ``size``, a
    power of two no larger than 2**32.

    Column ``size * i + j`` of every uint32 array below belongs to seed i and
    ``k = start + j``.  So aligned, a span never crosses a multiple of 2**32,
    and only the low word of ``k`` varies within it.  SeedSequence's pool
    mixing runs in the same order; the hashes one pool word sends to the
    other three are independent, so they run as one row-wise call.
    """
    import numpy as np

    start_words = _uint32_words(start)
    words = np.array([_uint32_words(seed) + start_words for seed in seeds], dtype=np.uint32).T
    entropy = np.zeros((max(len(words), _POOL_SIZE), len(seeds), size), dtype=np.uint32)
    entropy[: len(words)] = words[:, :, None]
    entropy[len(words) - len(start_words)] += np.arange(size, dtype=np.uint32)  # the low word of k
    entropy = entropy.reshape(len(entropy), -1)
    extra = len(entropy) - _POOL_SIZE
    consts = _hash_constants(_INIT_A, _MULT_A, _POOL_SIZE * (_POOL_SIZE + extra) + 1)
    pool = _hash(entropy[:_POOL_SIZE], consts[: _POOL_SIZE + 1])
    i = _POOL_SIZE
    for src, dst in enumerate(_OTHERS):
        pool[dst] = _mix(pool[dst], _hash(pool[src], consts[i : i + len(dst) + 1]))
        i += len(dst)
    for word in entropy[_POOL_SIZE:]:
        pool = _mix(pool, _hash(word, consts[i : i + _POOL_SIZE + 1]))
        i += _POOL_SIZE
    # generate_state(4, uint64): 8 uint32 words cycling through the pool,
    # paired into little-endian uint64 words.
    state = _hash(np.concatenate((pool, pool)), _hash_constants(_INIT_B, _MULT_B, 2 * _POOL_SIZE + 1))
    span_state = np.ascontiguousarray(state.T, dtype="<u4").view("<u8").astype(np.uint64, copy=False)
    span_state.setflags(write=False)  # shared by every caller through the memo
    return span_state.reshape(len(seeds), size, _POOL_SIZE)


# numpy.random's Generator and PCG64, and RowSeedSequence, the constructors
# of a draw's generator; bound at the first draw (``_bind_generator``), so
# numpy is imported then and not with ddsearch.
_Generator = _PCG64 = _RowSeedSequence = None


def _bind_generator() -> None:
    """Bind the constructors of ``Generator(PCG64(RowSeedSequence(row)))``,
    where RowSeedSequence is a SeedSequence stand-in that hands PCG64 one
    precomputed row of ``_seed_blocks``, the answer to the
    ``generate_state(4, np.uint64)`` call PCG64 makes."""
    global _Generator, _PCG64, _RowSeedSequence
    from numpy.random import PCG64, Generator
    from numpy.random.bit_generator import ISeedSequence

    class RowSeedSequence(ISeedSequence):
        def __init__(self, row: np.ndarray) -> None:
            self.row = row

        def generate_state(self, n_words: int, dtype: object = None) -> np.ndarray:
            return self.row

    _Generator, _PCG64, _RowSeedSequence = Generator, PCG64, RowSeedSequence


def _uint32_words(n: int) -> list[int]:
    """Little-endian 32-bit words of a nonnegative integer, 0 as ``[0]``."""
    return [n >> shift & 0xFFFFFFFF for shift in range(0, max(n.bit_length(), 1), 32)]


def iterate(config: AlgoConfig, objective: ObjectiveSpec) -> Iterator[IterationRecord]:
    """Execute the solver, yielding the record of each iteration as soon as
    it is complete.

    Steps run in the order search, revealing poll, poll.  A step succeeds
    if its best eligible trial, of value ``best`` at distance ``d`` from
    ``x``, gives sufficient decrease, ``best < f_x - forcing(d)``; the
    first success moves the incumbent there, sets the step size to
    ``gamma*alpha`` and skips the remaining steps.  An iteration without a
    success keeps the incumbent and contracts to ``beta2*alpha``.  The loop stops after
    ``max_iterations`` iterations, as soon as the step size falls below
    ``alpha_min``, or once an expansion overflows it to ``inf``.  Every
    trial is evaluated except one equal to the incumbent ``x``, where ``x``
    holds no zero: that trial is the incumbent's own ``TrialPoint``.
    Identical configs (seed included) produce identical records.  The
    config and the objective are checked, and the objective is evaluated
    at ``x0``, when the first record is requested.
    """
    validate_config(config)
    if objective.dimension != len(config.x0):
        raise ConfigError(
            f"x0 has dimension {len(config.x0)} but objective {objective.name!r} expects {objective.dimension}"
        )
    search = steps.get_search_schedule(config.search_schedule, objective.dimension)
    poll_directions = steps.get_poll_directions(config.poll_directions, objective.dimension)
    forcing = steps.get_forcing(config.forcing)
    kinds = (SEARCH, POLL) if config.revealing_radius is None else (SEARCH, REVEALING_POLL, POLL)
    # Per-run invariants, read once: the loop below is the solver's hot path.
    # The module-level callees are looked up here, so a rebinding takes
    # effect from the next run on.
    dimension, seed, radius, count = objective.dimension, config.seed, config.revealing_radius, config.revealing_count
    beta2, gamma = config.beta2, config.gamma
    evaluate_, iteration_rng_, sample_ball = evaluate, iteration_rng, steps.sample_ball_uniform
    step_outcome, iteration_record = _step_outcome, _iteration_record
    inf = math.inf

    x = tuple(float(v) for v in config.x0)
    start = evaluate_(objective, x)
    if not start.in_domain:
        raise InitializationError(f"x0 {x} rejected by the domain oracle")
    if not math.isfinite(start.value):
        raise InitializationError(f"objective value at x0 {x} is not finite")
    f_x = start.value
    alpha = float(config.alpha0)
    # The incumbent's record: a trial at x takes it, unevaluated, where x
    # holds no zero (0.0 == -0.0, and the two may differ in value).
    incumbent = start

    k = 0
    while stop_reason(k, alpha, config) is None:
        # Unless a step succeeds, the incumbent stays and the step contracts.
        x_next, f_next, alpha_next = x, f_x, beta2 * alpha
        outcomes = []
        for kind in kinds:
            # Trial points are x + alpha*d for the poll, and x + d for a
            # revealing offset d: its radius is fixed and deliberately
            # independent of alpha.  In one dimension the same sums are
            # written without the coordinate loop.
            if kind == SEARCH:
                points = search(k, x, alpha)
            elif kind == REVEALING_POLL:
                offsets = sample_ball(iteration_rng_(seed, k), dimension, radius, count)
                if dimension == 1:
                    points = [(x[0] + d[0],) for d in offsets]
                else:
                    points = [tuple(map(operator.add, x, d)) for d in offsets]
            elif dimension == 1:
                points = [(x[0] + alpha * d[0],) for d in poll_directions]
            else:
                points = [tuple([xi + alpha * di for xi, di in zip(x, d)]) for d in poll_directions]
            # The winner is the first trial of least finite value, None if there
            # is none; a trial out of the domain has value inf, so never wins.
            trials = []
            winner = None
            best = inf
            for point in points:
                trial = incumbent if point == x and 0.0 not in x else evaluate_(objective, point)
                if -inf < trial.value < best:
                    winner, best = len(trials), trial.value
                trials.append(trial)
            # No forcing is negative (steps.get_forcing) and f_x is finite,
            # so a step can only win if best < f_x, which implies a winner.
            success = best < f_x and best < f_x - forcing(math.dist(trials[winner].point, x))
            outcomes.append(step_outcome((kind, tuple(trials), winner, success)))
            if success:
                incumbent = trials[winner]
                x_next, f_next, alpha_next = incumbent.point, best, gamma * alpha
                break
        yield iteration_record((k, x, alpha, f_x, tuple(outcomes), success, x_next, alpha_next))
        x, f_x, alpha = x_next, f_next, alpha_next
        k += 1


def run(config: AlgoConfig, objective: ObjectiveSpec, until: Callable[[IterationRecord], bool] | None = None) -> Trace:
    """Execute the solver (see ``iterate``) and return its trace, ended after
    the first record for which ``until(record)`` holds, if one does.  A run
    ended so before the stop rule ends it has ``termination`` None."""
    records = []
    for record in iterate(config, objective):
        records.append(record)
        if until is not None and until(record):
            break
    return Trace(config, objective.name, tuple(records))
