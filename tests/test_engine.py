"""Engine tests: the sign of the forcing that the acceptance rule relies
on, config validation, the record types, the seed stream, and what a
comparison with the reference method misses.

Every record of criterion 9's 1000 runs and of the 300 n-D runs here is
compared, leaf by leaf by ``repr``, with ``tests/reference.py``, a textbook
dDSM that shares no code with the library.  That comparison checks
candidate selection, the acceptance rule under each forcing function, the
search schedules, the poll sets and their order, the step-size update, the
step order, the stop at ``alpha_min`` and each iteration's draw.  The
tests here keep what no drawn run reaches or a record cannot show: values
of -inf and NaN, a signed-zero incumbent, the ``alpha_overflow`` stop, the
evaluator calls a run saves, and its errors."""

from __future__ import annotations

import copy
import dataclasses
import math
import pickle
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ddsearch
from ddsearch import (
    AlgoConfig,
    ConfigError,
    InitializationError,
    ObjectiveError,
    engine,
    get_objective,
    objective,
    read_trace,
    run,
    steps,
    write_trace,
)
from ddsearch.analysis import derive_trial_seed
from ddsearch.engine import (
    MAX_REVEALING_COUNT,
    POLL,
    REVEALING_POLL,
    SEARCH,
    TERMINATED_ALPHA_MIN,
    TERMINATED_MAX_ITERATIONS,
    IterationRecord,
    StepOutcome,
    Trace,
    TrialPoint,
    evaluate,
    iterate,
    iteration_rng,
    validate_config,
    value_at,
)
from ddsearch.objective import ObjectiveSpec, UnknownNameError

from helpers import (
    WEDGE,
    CountingObjective,
    counterexample_config,
    evaluation_count,
    revealing_config,
    wedge_value,
)
from reference import iterate as reference_iterate
from reference import leaves


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(
    name=st.sampled_from(sorted(steps._FORCING)),
    f_x=st.floats(allow_nan=False, allow_infinity=False),
    below=st.floats(min_value=0.0, max_value=1e-3),
    distance=st.one_of(
        st.just(0.0),
        st.floats(min_value=5e-324, max_value=2.225073858507201e-308),  # subnormal
        st.floats(min_value=0.0, allow_infinity=False),
        st.just(math.inf),
    ),
)
@example(name="quadratic", f_x=1.0, below=0.0, distance=5e-324)
@example(name="zero", f_x=-0.0, below=0.0, distance=math.inf)
def test_no_forcing_accepts_a_value_that_is_not_below_the_incumbent(name, f_x, below, distance):
    # A forcing is never negative, so engine.iterate may test best < f_x
    # before sufficient decrease, best < f_x - forcing(d): the first test
    # cannot change the verdict.
    forcing = steps.get_forcing(name)
    assert forcing(distance) >= 0.0
    near = [f_x - below * abs(f_x), math.nextafter(f_x, -math.inf), f_x, math.nextafter(f_x, math.inf), math.inf]
    for f_trial in near:
        if f_trial < f_x - forcing(distance):
            assert f_trial < f_x, (f_trial, f_x, distance)


_POLL_POINTS = [(1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0)]


def _poll_outcome(values, rejected=()):
    """The outcome of the one poll step of a 2-D ``coordinate`` poll from the
    origin whose trial points (+e1, +e2, -e1, -e2) take ``values``; the
    domain oracle rejects the points indexed by ``rejected``."""
    table = {(0.0, 0.0): 10.0, **dict(zip(_POLL_POINTS, values))}
    outside = {_POLL_POINTS[i] for i in rejected}
    spec = ObjectiveSpec("table", 2, lambda p: table[p], lambda p: p not in outside)
    config = AlgoConfig(x0=(0.0, 0.0), alpha0=1.0, poll_directions="coordinate", max_iterations=1)
    (record,) = run(config, spec).records
    assert [t.point for t in record.outcomes[-1].trials] == _POLL_POINTS
    return record.outcomes[-1]


def test_winner_ignores_out_of_domain_and_non_finite_values():
    none_eligible = _poll_outcome([1.0, 1.0, 1.0, 1.0], rejected=range(4))
    assert (none_eligible.winner, none_eligible.success) == (None, False)
    assert _poll_outcome([1.0, 0.5, 2.0, 2.0], rejected=[1]).winner == 0
    assert _poll_outcome([math.inf, 2.0, 3.0, 3.0]).winner == 1
    assert _poll_outcome([-math.inf, math.nan, 4.0, 5.0]).winner == 2
    assert _poll_outcome([math.inf, math.nan, -math.inf, math.inf]).winner is None
    # A step without trial points has no winner either.
    search = run(counterexample_config(max_iterations=1), get_objective("counterexample")).records[0].outcomes[0]
    assert (search.kind, search.trials, search.winner, search.success) == (SEARCH, (), None, False)


@pytest.mark.parametrize(
    "overrides,field",
    [
        (dict(alpha0=0.0), "alpha0"),
        (dict(beta1=0.9, beta2=0.5), "beta1"),
        (dict(beta1=0.0), "beta1"),
        (dict(beta2=1.0), "beta2"),
        (dict(gamma=0.5), "gamma"),
        (dict(revealing_radius=0.0), "revealing_radius"),
        (dict(revealing_radius=1.0, revealing_count=0), "revealing_count"),
        (dict(max_iterations=-1), "max_iterations"),
        (dict(alpha_min=-1e-9), "alpha_min"),
        (dict(seed=-1), "seed"),
        (dict(alpha0=math.inf), "alpha0"),
        (dict(revealing_radius=math.inf), "revealing_radius"),
        (dict(alpha0=10**400), "alpha0"),
        (dict(gamma=10**400), "gamma"),
        (dict(revealing_radius=10**400), "revealing_radius"),
        (dict(revealing_radius=1.0, revealing_count=MAX_REVEALING_COUNT + 1), "revealing_count"),
        (dict(gamma=10**5000), "gamma"),
        (dict(seed=10**5000), "seed"),
        (dict(seed=-(10**5000)), "seed"),
        (dict(max_iterations=10**5000), "max_iterations"),
        (dict(revealing_radius=1.0, revealing_count=10**5000), "revealing_count"),
        (dict(x0=(10**5000,)), "x0"),
        (dict(seed=2**128), "seed"),
        (dict(max_iterations=2**128), "max_iterations"),
        # numpy scalars other than np.float64 (a float subclass) cannot be written.
        (dict(seed=np.int64(5)), "seed"),
        (dict(max_iterations=np.uint8(3)), "max_iterations"),
        (dict(alpha0=np.float32(0.25)), "alpha0"),
        (dict(gamma=np.int64(2)), "gamma"),
        (dict(x0=(np.float16(1.25),)), "x0"),
        (dict(revealing_radius=np.float32(2.0)), "revealing_radius"),
        (dict(revealing_radius=1.0, revealing_count=np.int32(2)), "revealing_count"),
        (dict(gamma=math.inf), "gamma"),
    ],
)
def test_validate_config_names_offending_field(overrides, field):
    with pytest.raises(ConfigError, match=field):
        validate_config(counterexample_config(**overrides))


def test_validate_config_accepts_numpy_float64(tmp_path, counterexample_objective):
    config = counterexample_config(x0=(np.float64(1.25),), alpha0=np.float64(0.25), max_iterations=3)
    write_trace(run(config, counterexample_objective), tmp_path / "trace.jsonl")


def test_validate_config_accepts_the_largest_values(tmp_path, counterexample_objective):
    config = revealing_config(revealing_count=MAX_REVEALING_COUNT, seed=2**128 - 1, max_iterations=2**128 - 1)
    validate_config(config)
    trace = run(dataclasses.replace(config, max_iterations=0), counterexample_objective)
    write_trace(dataclasses.replace(trace, config=config), tmp_path / "trace.jsonl")


def test_run_zero_iterations(counterexample_objective):
    trace = run(counterexample_config(max_iterations=0), counterexample_objective)
    assert trace.records == ()
    assert trace.termination == TERMINATED_MAX_ITERATIONS
    assert trace.final_incumbent() == (1.25,)


def test_the_start_state_of_an_int_config_is_floats():
    config = AlgoConfig(x0=(3,), alpha0=1, gamma=1, poll_directions="pm1", max_iterations=6)
    trace = run(config, get_objective("quadratic_1d"))
    assert {type(v) for r in trace.records for v in (*r.x, r.alpha, *r.x_next, r.alpha_next)} == {float}
    empty = run(dataclasses.replace(config, max_iterations=0), get_objective("quadratic_1d"))
    assert type(empty.final_incumbent()[0]) is float


def test_iterate_yields_the_records_of_run_one_at_a_time(counterexample_objective):
    records = iterate(revealing_config(max_iterations=10**12, alpha_min=0.0), counterexample_objective)
    first_five = [next(records) for _ in range(5)]
    assert tuple(first_five) == run(revealing_config(max_iterations=5), counterexample_objective).records


def _bowl(point):
    """A bowl with a step down across the hyperplane x_1 = 0."""
    return sum(v * v for v in point) - (1.0 if point[0] < 0.0 else 0.0)


@st.composite
def _n_dimensional_run(draw):
    """A 2- to 4-D run of coordinate polls: ``WEDGE`` from a feasible start
    of finite value, or ``_bowl`` from anywhere."""
    n = draw(st.integers(2, 4))
    if n == 2 and draw(st.booleans()):
        spec, x0 = WEDGE, (draw(st.floats(-1.0, 0.0)), draw(st.floats(-0.05, 0.05)))
    else:
        spec, x0 = ObjectiveSpec("bowl", n, _bowl), tuple(draw(st.floats(-2.0, 2.0)) for _ in range(n))
    config = AlgoConfig(
        x0=x0,
        alpha0=draw(st.floats(1e-3, 2.0)),
        beta1=0.05,
        beta2=draw(st.floats(0.05, 0.95)),
        gamma=draw(st.floats(1.0, 2.0)),
        revealing_radius=draw(st.none() | st.floats(0.01, 3.0)),
        revealing_count=draw(st.integers(1, 4)),
        forcing=draw(st.sampled_from(["zero", "quadratic"])),
        seed=draw(st.integers(0, 2**70)),
        max_iterations=draw(st.integers(0, 24)),
        alpha_min=draw(st.sampled_from([0.0, 1e-3])),
    )
    return config, spec


def _at_the_forcing_bound(point):
    """1, except 1 - 1e-4 at (1, 0): from the origin at step 1, the poll
    trial there misses sufficient decrease under the quadratic forcing,
    ``best < f_x - 1e-4 * d * d``, by nothing."""
    return 1.0 - 1e-4 if point == (1.0, 0.0) else 1.0


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(drawn=_n_dimensional_run())
@example(
    drawn=(
        AlgoConfig(x0=(0.0, 0.0), alpha0=1.0, poll_directions="coordinate", forcing="quadratic", max_iterations=1),
        ObjectiveSpec("forcing_bound", 2, _at_the_forcing_bound),
    )
)
def test_n_dimensional_runs_are_the_reference_method(drawn):
    config, spec = drawn
    assert leaves(run(config, spec).records) == leaves(tuple(reference_iterate(config, spec)))


def test_records_are_immutable_hashable_values(counterexample_objective):
    config = revealing_config(seed=77, max_iterations=60)
    first, second = (run(config, counterexample_objective).records for _ in range(2))
    assert first == second and hash(first) == hash(second)
    record = first[0]
    outcome = record.outcomes[-1]
    for value, field in ((record, "alpha"), (outcome, "winner"), (outcome.trials[0], "value")):
        with pytest.raises(AttributeError):
            setattr(value, field, 0.0)
    # A record is the tuple of its fields; _replace copies it.
    assert record == tuple(record)
    assert record._replace(alpha=0.0) == (*record[:2], 0.0, *record[3:])


def test_records_are_exactly_the_record_classes(counterexample_objective):
    # The engine builds records with tuple.__new__, which checks neither the
    # class nor the number of fields: these pin both.
    records = list(iterate(revealing_config(seed=77, max_iterations=60), counterexample_objective))
    outcomes = [outcome for record in records for outcome in record.outcomes]
    trials = [trial for outcome in outcomes for trial in outcome.trials]
    rejected = evaluate(ObjectiveSpec("nowhere", 1, abs, lambda point: False), (2.0,))
    assert rejected == ((2.0,), math.inf, False)
    assert {kind for kind, _, _, _ in outcomes} == {SEARCH, REVEALING_POLL, POLL}
    # dir() of the package lists every public name, these classes among
    # them, whether its submodule is loaded yet or not.
    assert set(ddsearch.__all__) <= set(dir(ddsearch))
    for cls, values in (
        (IterationRecord, records),
        (StepOutcome, outcomes),
        (TrialPoint, [*trials, evaluate(counterexample_objective, (1.25,)), rejected]),
    ):
        for value in values:
            assert type(value) is cls
            assert len(value) == len(cls._fields)
            for twin in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
                assert type(twin) is cls and twin == value
    assert [record.f_next for record in records[:-1]] == [record.f_x for record in records[1:]]


def test_f_next_is_the_winners_value_on_success_else_f_x(counterexample_objective):
    records = run(revealing_config(seed=77, max_iterations=60), counterexample_objective).records
    assert {record.success for record in records} == {True, False}
    for record, following in zip(records, records[1:]):
        assert record.f_next == following.f_x
        if record.success:
            assert record.f_next == counterexample_objective.evaluator(record.x_next) < record.f_x
        else:
            assert record.f_next == record.f_x


def test_run_dimension_mismatch():
    with pytest.raises(ConfigError, match="dimension"):
        run(counterexample_config(x0=(1.25, 1.25)), get_objective("counterexample"))


def test_run_unknown_identifiers(counterexample_objective):
    with pytest.raises(UnknownNameError):
        run(counterexample_config(search_schedule="mystery"), counterexample_objective)
    with pytest.raises(UnknownNameError):
        run(counterexample_config(poll_directions="mystery"), counterexample_objective)
    with pytest.raises(UnknownNameError):
        run(counterexample_config(forcing="mystery"), counterexample_objective)


def test_run_rejects_infinite_start():
    spec = ObjectiveSpec("spiky", 1, lambda p: math.inf if p[0] == 0.0 else abs(p[0]))
    with pytest.raises(InitializationError, match="not finite"):
        run(counterexample_config(x0=(0.0,), search_schedule="none"), spec)


def test_run_rejects_infeasible_start():
    spec = ObjectiveSpec("half_line", 1, lambda p: p[0] * p[0], domain_oracle=lambda p: p[0] >= 0.0)
    with pytest.raises(InitializationError, match="domain"):
        run(counterexample_config(x0=(-1.0,), search_schedule="none"), spec)


def test_vanilla_trap_spins_at_step_zero_up_to_max_iterations(counterexample_objective):
    # alpha_min = 0 never stops the run: from k = 2145 on the step is 0.0,
    # every trial is the incumbent, and each record repeats, apart from k,
    # the one two iterations before it: the search proposes x at odd k only.
    trace = run(counterexample_config(max_iterations=2200), counterexample_objective)
    records = trace.records
    assert [r.alpha for r in records[2144:2146]] == [2.0**-1074, 0.0]
    spinning = records[2145:]
    assert all(not r.success and r.x == records[2145].x for r in spinning)
    assert all(t.point == r.x for r in spinning for o in r.outcomes for t in o.trials)
    assert all(r._replace(k=r.k - 2) == records[r.k - 2] for r in records[2147:])
    assert len(records) == 2200 and trace.termination == TERMINATED_MAX_ITERATIONS


@pytest.mark.parametrize(
    "overrides, termination",
    [
        (dict(max_iterations=40), TERMINATED_MAX_ITERATIONS),
        (dict(max_iterations=500, alpha_min=1e-9), TERMINATED_ALPHA_MIN),
    ],
    ids=["max_iterations", "alpha_min"],
)
def test_trace_termination_is_derived_from_the_records(counterexample_objective, overrides, termination):
    config = counterexample_config(**overrides)
    trace = Trace(config, "counterexample", tuple(iterate(config, counterexample_objective)))
    assert trace == run(config, counterexample_objective)
    assert trace.termination == termination
    # A prefix that does not end the run reports no termination.
    for k in range(len(trace.records)):
        assert dataclasses.replace(trace, records=trace.records[:k]).termination is None
    # ``until`` ends the run after the first record where it holds; one that
    # never holds leaves the run whole.
    assert run(config, counterexample_objective, until=lambda record: False) == trace
    last = len(trace.records) - 1
    for k in (0, last // 2, last):
        stopped = run(config, counterexample_objective, until=lambda record: record.k >= k)
        assert stopped.records == trace.records[: k + 1]
        assert stopped.termination == (termination if k == last else None)


def test_trials_at_the_incumbent_take_its_value_unevaluated():
    # perfbench's long.cfg at benchmark seed 1: most of its iterations run
    # at step 0.0, where every poll point is the incumbent.
    counting = CountingObjective(get_objective("counterexample"))
    trace = run(revealing_config(seed=577090037, max_iterations=4000, alpha_min=0.0), counting.spec)
    pairs = [(r, t) for r in trace.records for o in r.outcomes for t in o.trials]
    reused = [(r, t) for r, t in pairs if t.point == r.x and 0.0 not in r.x]
    assert (counting.calls, len(pairs), len(reused)) == (4166, 13996, 9831)
    assert counting.calls == evaluation_count(trace)
    assert all(t.value == r.f_x and t.in_domain for r, t in reused)


def test_a_trial_at_a_signed_zero_incumbent_is_evaluated():
    # (0.0,) == (-0.0,), yet the two differ in value here: the step 5e-324
    # contracts to 0.0, and from then on the poll point x + 0.0 is (0.0,).
    counting = CountingObjective(ObjectiveSpec("sign", 1, lambda x: math.copysign(1.0, x[0])))
    config = AlgoConfig(x0=(-0.0,), alpha0=5e-324, poll_directions="coordinate", max_iterations=3)
    trace = run(config, counting.spec)
    trials = [t for r in trace.records for o in r.outcomes for t in o.trials]
    at_positive_zero = [t for t in trials if t.point == (0.0,) and math.copysign(1.0, t.point[0]) > 0]
    assert at_positive_zero and all(t.value == 1.0 for t in at_positive_zero)
    assert counting.calls == evaluation_count(trace) == 7


def test_domain_oracle_blocks_evaluation():
    inner = get_objective("quadratic_1d")
    calls = []

    def guarded(point):
        calls.append(point)
        return inner.evaluator(point)

    spec = ObjectiveSpec("right_half", 1, guarded, domain_oracle=lambda p: p[0] >= 0.0)
    trace = run(counterexample_config(x0=(0.25,), alpha0=0.5, search_schedule="none", max_iterations=10), spec)
    rejected = [t for r in trace.records for o in r.outcomes for t in o.trials if not t.in_domain]
    assert rejected, "expected some trial points left of 0"
    assert all(t.value == math.inf for t in rejected)
    assert all(p[0] >= 0.0 for p in calls)
    # The incumbent never moves to an infeasible point.
    assert all(r.x_next[0] >= 0.0 for r in trace.records)


def _seed_stream_pairs():
    """The (seed, k) pairs the seed stream is checked at: both sides of every
    edge of the memo's spans, [0, 64), [64, 128), [128, 256), [256, 512),
    then blocks of 512, and of a multiple of 2**32; seeds of up to 7 words,
    whose entropy with k has up to 10 words, so SeedSequence's mixing of the
    words beyond its 4-word pool runs too; the first 64 iterations of seeds
    of 1, 2, 3 and 5 words; Monte Carlo trials of 28 master seeds; and two
    iterations of one seed."""
    draw = random.Random(3)
    seeds = [0, 2**32 - 1, 2**32, 2**64 - 1] + [draw.randrange(2**64) for _ in range(20)]
    pairs = {(seed, k) for seed in seeds for k in [0, 1, 2**32 + 5] + [draw.randrange(10**6) for _ in range(5)]}
    edges = (0, 63, 64, 65, 127, 128, 255, 256, 511, 512, 1023, 1024)
    edges += (2**32 - 1, 2**32, 2**32 + 63, 2**32 + 64, 2**32 + 511, 2**32 + 512, 2**64 + 1)
    pairs |= {(seed, k) for seed in (0, 7, 2**32 - 1, 2**63 + 11, 2**64 - 1, 2**70 + 1) for k in edges}
    for words in (1, 2, 3, 4, 7):
        draw = random.Random(words)
        seeds = [2 ** (32 * words) - 1, 2 ** (32 * (words - 1))] + [draw.randrange(2 ** (32 * words)) for _ in range(3)]
        pairs |= {(seed, k) for seed in seeds for k in (0, 5, 64 * 3 + 17, 2**32 + 9, 2**64 + 1, 2**80 + 2**40 + 63)}
    pairs |= {(seed, k) for seed in (3, 2**40 + 1, 99) for k in range(0, 200, 7)}
    pairs |= {(seed, k) for seed in (5, 2**40 + 3, 2**70 + 1, 2**150 + 7) for k in range(65)}
    draw = random.Random(28)
    masters = [0, 7, 12345, 2**31 - 1, 2**32, 2**63 + 5, 2**64 - 1, 2**100 + 3]
    masters += [draw.randrange(2**64) for _ in range(20)]
    pairs |= {(master, trial) for master in masters for trial in [*range(200), 2**32 - 1, 2**32, 2**40 + 7]}
    return pairs | {(1, 0), (1, 1)}


def test_the_seed_stream_is_the_seed_sequence_of_the_pair_in_any_access_order():
    # Iteration k of seed s draws from PCG64(SeedSequence((s, k))), and Monte
    # Carlo trial k of master seed s runs with word 0 of that state as seed.
    pairs = _seed_stream_pairs()
    expected = {}
    for pair in pairs:
        sequence = np.random.SeedSequence(entropy=pair)
        expected[pair] = sequence.generate_state(4, np.uint64).tolist(), np.random.PCG64(sequence).state
    for order in (sorted(pairs, reverse=True), sorted(pairs, key=lambda pair: (pair[1], pair[0]))):
        for seed, k in order:
            words, state = expected[seed, k]
            assert engine.iteration_seed_words(seed, k).tolist() == words, (seed, k)
            assert iteration_rng(seed, k).bit_generator.state == state, (seed, k)
            assert derive_trial_seed(seed, k) == words[0], (seed, k)
    for seed, k in ((-1, 0), (0, -1)):
        with pytest.raises(ValueError):
            iteration_rng(seed, k)
        with pytest.raises(ValueError):
            derive_trial_seed(seed, k)


def test_hash_seed_blocks_fills_the_memo_with_the_seed_sequence_states_of_every_seed(monkeypatch):
    # One fill mixes seeds of 1, 2, 3 and 5 words, so each word count takes
    # its own pass; reading iterations 0..63 then hashes nothing more.  The
    # seed stream's table checks the states read.
    seeds = [5, 2**40 + 3, 2**70 + 1, 2**150 + 7]
    engine.hash_seed_blocks(seeds, 0)
    monkeypatch.setattr(engine, "_seed_blocks", lambda seeds, start, size: pytest.fail(f"hashed {seeds} again"))
    for seed in seeds:
        for k in range(64):
            iteration_rng(seed, k)


def test_memo_holds_the_latest_block_of_a_bounded_number_of_seeds():
    for seed in range(1000):
        engine.iteration_seed_words(seed, 64 * (seed % 3) + 1)
    assert len(engine._memo) <= engine._MEMO_SEEDS
    assert 0 not in engine._memo and engine._memo[998][0] == 128
    # An evicted seed is hashed again, and a seed keeps its latest span only.
    for seed, k, start in ((0, 5, 0), (0, 70, 64), (998, 130, 128), (998, 0, 0), (998, 300, 256), (998, 1500, 1024)):
        reference = np.random.SeedSequence(entropy=(seed, k)).generate_state(4, np.uint64)
        assert engine.iteration_seed_words(seed, k).tolist() == reference.tolist(), (seed, k)
        assert engine._memo[seed][0] == start
    assert len(engine._memo) <= engine._MEMO_SEEDS


def test_a_long_run_hashes_its_seed_stream_in_growing_spans(monkeypatch):
    # With alpha_min = 0 the run lasts 4000 iterations, each drawing: 11
    # passes, four spans of 64 to 256 iterations, then seven blocks of 512.
    hashed = []
    seed_blocks = engine._seed_blocks

    def counting(seeds, start, size):
        hashed.append((start, size))
        return seed_blocks(seeds, start, size)

    monkeypatch.setattr(engine, "_memo", {})
    monkeypatch.setattr(engine, "_seed_blocks", counting)
    trace = run(revealing_config(max_iterations=4000, alpha_min=0.0), get_objective("counterexample"))
    assert len(trace.records) == 4000
    assert hashed == [(0, 64), (64, 64), (128, 128), (256, 256)] + [(start, 512) for start in range(512, 4000, 512)]


def test_evaluator_failure_raises_objective_error():
    def broken(point):
        raise ValueError("no value here")

    spec = ObjectiveSpec("broken", 1, broken)
    with pytest.raises(ObjectiveError, match="'broken' failed at \\(2.0,\\): no value here") as info:
        evaluate(spec, (2.0,))
    assert isinstance(info.value.__cause__, ValueError)


def test_value_at_is_the_value_evaluate_records():
    calls = []

    def recording(point):
        calls.append(point)
        return wedge_value(point)

    spec = dataclasses.replace(WEDGE, evaluator=recording)
    # Points in the domain with a finite and an infinite value, and out of it.
    points = [(x, y) for x in (-0.1, 0.0, 0.1) for y in (-0.1, -0.05, 0.0, 0.1)]
    for point in points:
        calls.clear()
        value = value_at(spec, point)
        assert calls == ([point] if WEDGE.domain_oracle(point) else [])
        assert value == evaluate(spec, point).value
    assert value_at(spec, (0.0, -0.1)) == math.inf
    assert value_at(spec, (0.1, 0.0)) == math.inf and value_at(spec, (0.0, 0.0)) == 0.0

    def broken(point):
        raise ZeroDivisionError("no value here")

    with pytest.raises(ObjectiveError, match="'wedge_2d' failed at \\(0.0, 0.0\\): no value here") as info:
        value_at(dataclasses.replace(WEDGE, evaluator=broken), (0.0, 0.0))
    assert info.value.point == (0.0, 0.0)
    assert isinstance(info.value.__cause__, ZeroDivisionError)


def test_oracle_is_asked_once_per_value_and_again_only_for_inf():
    asked = []

    def counting(point):
        asked.append(point)
        return WEDGE.domain_oracle(point)

    spec = dataclasses.replace(WEDGE, domain_oracle=counting)
    seen = set()
    for point in [(x, y) for x in (-0.1, 0.0, 0.1) for y in (-0.1, -0.05, 0.0, 0.1)]:
        asked.clear()
        value_at(spec, point)
        assert asked == [point]
        asked.clear()
        trial = evaluate(spec, point)
        assert asked == [point] * (2 if trial.value == math.inf else 1)
        assert trial.in_domain == WEDGE.domain_oracle(point)
        seen.add((trial.in_domain, trial.value == math.inf))
    # Finite values, +inf in the domain, and points out of it.
    assert seen == {(True, False), (True, True), (False, True)}


# Float extremes for the step size, its expansion, the start and the radius.
_EXTREMES = [5e-324, 1e-300, 0.25, 1e300, 1.7e308, 1e308, -1e308, math.inf]
_ONE_D_NAMES = [name for name in sorted(objective._REGISTRY) if get_objective(name).dimension == 1]


@settings(max_examples=600, deadline=None, database=None, derandomize=True)
@given(
    name=st.sampled_from(_ONE_D_NAMES),
    x0=st.sampled_from(_EXTREMES),
    alpha0=st.sampled_from(_EXTREMES),
    gamma=st.sampled_from(_EXTREMES),
    revealing_radius=st.sampled_from(_EXTREMES),
    search_schedule=st.sampled_from(sorted(steps._SEARCH_SCHEDULES)),
    poll_directions=st.sampled_from(sorted(steps._POLL_DIRECTIONS)),
    seed=st.integers(0, 3),
)
# gamma = inf turned a success at the underflowed step 0.0 into a NaN step.
@example(
    name="abs", x0=0.25, alpha0=5e-324, gamma=math.inf, revealing_radius=0.25,
    search_schedule="none", poll_directions="pm1", seed=0,
)
def test_runs_at_float_extremes_are_rejected_or_finish_without_nan(
    tmp_path_factory, name, x0, alpha0, gamma, revealing_radius, search_schedule, poll_directions, seed
):
    config = AlgoConfig(
        x0=(x0,),
        alpha0=alpha0,
        gamma=gamma,
        revealing_radius=revealing_radius,
        search_schedule=search_schedule,
        poll_directions=poll_directions,
        seed=seed,
        max_iterations=100,
    )
    try:
        trace = run(config, get_objective(name))
    except (ConfigError, InitializationError):
        return
    except ObjectiveError as error:
        assert not any(math.isnan(v) for v in error.point), error
        return
    for record in trace.records:
        values = (record.alpha, record.alpha_next, record.f_x, *record.x, *record.x_next)
        assert not any(math.isnan(v) for v in values), record
    path = tmp_path_factory.getbasetemp() / "extremes.jsonl"
    write_trace(trace, path)
    assert read_trace(path) == trace
