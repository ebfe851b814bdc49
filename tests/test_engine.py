"""Engine tests: acceptance rule, candidate selection, config validation,
and the full loop on the dyadic trap instance."""

from __future__ import annotations

import copy
import dataclasses
import math
import os
import pickle
import random
import shutil
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
    sufficient_decrease,
    validate_config,
    value_at,
)
from ddsearch.objective import ObjectiveSpec, UnknownNameError
from ddsearch.steps import zero_forcing

from helpers import (
    CONFIGS_DIR,
    WEDGE,
    CountingObjective,
    counterexample_config,
    evaluation_count,
    revealing_config,
    wedge_value,
)


def test_sufficient_decrease_simple():
    assert sufficient_decrease(0.9, 1.0, 0.5, zero_forcing)
    assert not sufficient_decrease(1.0, 1.0, 0.5, zero_forcing), "strict inequality required"
    assert not sufficient_decrease(math.inf, 1.0, 0.5, zero_forcing)


def test_sufficient_decrease_with_forcing():
    # 0.99 >= 1.0 - 0.2**2, so the quadratic forcing rejects the step.
    assert not sufficient_decrease(0.99, 1.0, 0.2, lambda t: t * t)
    assert sufficient_decrease(0.95, 1.0, 0.2, lambda t: t * t)


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


def test_winner_is_the_least_value():
    outcome = _poll_outcome([3.0, 1.0, 2.0, 5.0])
    assert (outcome.winner, outcome.success) == (1, True)


def test_winner_ties_break_by_generation_order():
    assert _poll_outcome([3.0, 1.0, 1.0, 5.0]).winner == 1
    assert _poll_outcome([12.0, 11.0, 11.0, 11.0]).winner == 1


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


def test_run_step_size_follows_the_deterministic_update(counterexample_objective):
    # From x0 = 5/4 with alpha0 = 1/2, iteration 4 succeeds and 5 fails, both at alpha = 1/4.
    steps = [
        (r.alpha, r.success, r.alpha_next)
        for r in run(counterexample_config(alpha0=0.5, max_iterations=6), counterexample_objective).records
    ]
    assert steps[5] == (0.25, False, 0.125)
    assert steps[4] == (0.25, True, 0.25)
    grow = run(counterexample_config(alpha0=0.5, gamma=2.0, max_iterations=2), counterexample_objective).records[1]
    assert (grow.alpha, grow.success, grow.alpha_next) == (1.0, True, 2.0)
    shrink = run(counterexample_config(beta1=0.25, beta2=0.25, max_iterations=1), counterexample_objective).records[0]
    assert (shrink.alpha, shrink.success, shrink.alpha_next) == (0.25, False, 0.0625)


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


def test_run_is_deterministic(counterexample_objective):
    config = revealing_config(seed=77, max_iterations=60)
    assert run(config, counterexample_objective) == run(config, counterexample_objective)


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


def test_skip_semantics_on_counterexample(vanilla_trace_52):
    for record in vanilla_trace_52.records:
        kinds = [o.kind for o in record.outcomes]
        if record.k % 2 == 0:
            assert kinds == [SEARCH, POLL]
            assert record.outcomes[0].trials == ()
            assert not record.success
        else:
            assert kinds == [SEARCH]
            assert record.success


def test_revealing_step_runs_between_search_and_poll(counterexample_objective):
    trace = run(revealing_config(max_iterations=6, seed=3), counterexample_objective)
    even_records = [r for r in trace.records if r.k % 2 == 0]
    assert even_records, "expected at least one even iteration"
    kinds = [o.kind for o in even_records[0].outcomes]
    assert kinds[0] == SEARCH and kinds[1] == REVEALING_POLL


def test_alpha_min_termination(counterexample_objective):
    trace = run(counterexample_config(max_iterations=500, alpha_min=1e-9), counterexample_objective)
    assert trace.termination == TERMINATED_ALPHA_MIN
    assert all(r.alpha >= 1e-9 for r in trace.records)
    assert trace.records[-1].alpha_next < 1e-9


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


def test_every_evaluation_is_logged():
    counting = CountingObjective(get_objective("quadratic_1d"))
    config = revealing_config(x0=(0.5,), alpha0=0.5, max_iterations=40, seed=11)
    trace = run(config, counting.spec)
    assert counting.calls == evaluation_count(trace)


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


def test_revealing_draws_depend_only_on_seed_and_iteration(counterexample_objective):
    with_search = run(revealing_config(seed=5, max_iterations=1), counterexample_objective)
    without_search = run(
        revealing_config(seed=5, max_iterations=1, search_schedule="none"), counterexample_objective
    )
    pick = lambda trace: [
        o for o in trace.records[0].outcomes if o.kind == REVEALING_POLL
    ][0]
    assert pick(with_search).trials == pick(without_search).trials


def test_iteration_rng_is_reproducible():
    assert iteration_rng(99, 3).random(4).tolist() == iteration_rng(99, 3).random(4).tolist()


def test_iteration_rng_matches_seed_sequence_of_the_pair():
    draw = random.Random(3)
    seeds = [0, 2**32 - 1, 2**32, 2**64 - 1] + [draw.randrange(2**64) for _ in range(20)]
    iterations = [0, 1, 2**32 + 5] + [draw.randrange(10**6) for _ in range(5)]
    for seed in seeds:
        for k in iterations:
            reference = np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy=(seed, k))))
            assert iteration_rng(seed, k).random(4).tolist() == reference.random(4).tolist(), (seed, k)
    with pytest.raises(ValueError):
        iteration_rng(-1, 0)


def _seed_sequence_state(seed, k):
    return np.random.PCG64(np.random.SeedSequence(entropy=(seed, k))).state


@pytest.mark.parametrize("seed", [0, 7, 2**32 - 1, 2**63 + 11, 2**64 - 1])
def test_iteration_rng_state_at_block_edges(seed):
    for k in (0, 63, 64, 65, 127, 128, 2**32 - 1, 2**32, 2**32 + 63, 2**32 + 64, 2**64 + 1):
        assert iteration_rng(seed, k).bit_generator.state == _seed_sequence_state(seed, k), (seed, k)


@pytest.mark.parametrize("words", [1, 2, 3, 4, 7])
def test_iteration_rng_state_for_long_seeds(words):
    # With k, the entropy has up to 10 words, so SeedSequence's mixing of
    # the words beyond its 4-word pool runs too.
    draw = random.Random(words)
    seeds = [2 ** (32 * words) - 1, 2 ** (32 * (words - 1))] + [draw.randrange(2 ** (32 * words)) for _ in range(3)]
    for seed in seeds:
        for k in (0, 5, 64 * 3 + 17, 2**32 + 9, 2**64 + 1, 2**80 + 2**40 + 63):
            assert iteration_rng(seed, k).bit_generator.state == _seed_sequence_state(seed, k), (seed, k)


def test_iteration_rng_does_not_depend_on_access_order():
    pairs = [(seed, k) for seed in (3, 2**40 + 1, 99) for k in range(0, 200, 7)]
    expected = {pair: _seed_sequence_state(*pair) for pair in pairs}
    orders = [sorted(pairs, reverse=True), sorted(pairs, key=lambda pair: (pair[1], pair[0]))]
    for order in orders:
        for seed, k in order:
            assert iteration_rng(seed, k).bit_generator.state == expected[seed, k], (seed, k)


def test_hash_seed_blocks_fills_the_memo_with_the_seed_sequence_states_of_every_seed(monkeypatch):
    # One fill mixes seeds of 1, 2, 3 and 5 words, so each word count takes
    # its own pass; reading iterations 0..63 then hashes nothing more.
    seeds = [5, 2**40 + 3, 2**70 + 1, 2**150 + 7]
    engine.hash_seed_blocks(seeds, 0)
    with monkeypatch.context() as patch:
        patch.setattr(engine, "_seed_blocks", lambda seeds, block: pytest.fail(f"hashed {seeds} block {block} again"))
        for seed in seeds:
            for k in range(64):
                reference = np.random.SeedSequence(entropy=(seed, k)).generate_state(4, np.uint64)
                assert engine.iteration_seed_words(seed, k).tolist() == reference.tolist(), (seed, k)
                assert iteration_rng(seed, k).bit_generator.state == _seed_sequence_state(seed, k), (seed, k)
    for seed in seeds:
        for k in (0, 63, 64):
            assert iteration_rng(seed, k).bit_generator.state == _seed_sequence_state(seed, k), (seed, k)


def test_memo_holds_the_latest_block_of_a_bounded_number_of_seeds():
    for seed in range(1000):
        engine.iteration_seed_words(seed, 64 * (seed % 3) + 1)
    assert len(engine._memo) <= engine._MEMO_SEEDS
    assert 0 not in engine._memo and engine._memo[998][0] == 2
    # An evicted seed is hashed again, and a seed keeps its latest block only.
    for seed, k in ((0, 5), (0, 70), (998, 130), (998, 0)):
        reference = np.random.SeedSequence(entropy=(seed, k)).generate_state(4, np.uint64)
        assert engine.iteration_seed_words(seed, k).tolist() == reference.tolist(), (seed, k)
        assert engine._memo[seed][0] == k // 64
    assert len(engine._memo) <= engine._MEMO_SEEDS


def test_ddsearch_and_the_commands_that_draw_nothing_start_without_numpy(tmp_path):
    # numpy loads at a run's first draw or an analysis kernel's first call,
    # never with ddsearch: a fresh interpreter imports it, then runs,
    # analyzes and samples the trap, whose config has no revealing poll.
    shutil.copy(CONFIGS_DIR / "counterexample.cfg", tmp_path)
    commands = [
        "run counterexample.cfg",
        "analyze counterexample_trace.jsonl --verify-lemma 25",
        "sample counterexample -2 2 4001 f.csv",
    ]
    code = (
        "import sys, ddsearch, ddsearch.cli as cli; "
        "codes = [cli.main(argv.split()) for argv in sys.argv[1:]]; "
        "print(codes, 'numpy' in sys.modules)"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    argv = [sys.executable, "-c", code, *commands]
    result = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, env=env, check=True)
    assert result.stdout.splitlines()[-1] == "[0, 0, 0] False"


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
