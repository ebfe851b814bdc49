"""Acceptance gate: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  All tolerances are fixed here; nothing is calibrated at test
time (the density threshold in criterion 6 was frozen from a 100-seed pilot
simulation, see scripts/calibrate_covering_threshold.py).
"""

from __future__ import annotations

import hashlib
import math
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings

from ddsearch import get_objective, read_trace, run, write_trace
from ddsearch.analysis import (
    clarke_estimate,
    covering_radius,
    extract_refining,
    monte_carlo_escape,
    trial_points,
    verify_counterexample_closed_form,
)
from ddsearch.cli import main
from ddsearch.configfile import load_experiment_config

from helpers import (
    CONFIGS_DIR,
    DENSITY_THRESHOLD,
    PINS,
    CountingObjective,
    evaluation_count,
    exact_band_quartic,
    random_config,
    revealing_config,
)
import reference


def report(criterion: int, message: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS - {message}")


@pytest.fixture(scope="module")
def bundled_counterexample_trace(tmp_path_factory):
    """Run the bundled vanilla config through the CLI, timing the command."""
    workdir = tmp_path_factory.mktemp("acceptance_run")
    config_path = workdir / "counterexample.cfg"
    text = (CONFIGS_DIR / "counterexample.cfg").read_text()
    config_path.write_text(text.replace("counterexample_trace.jsonl", str(workdir / "trace.jsonl")))
    started = time.perf_counter()
    assert main(["run", str(config_path)]) == 0
    elapsed = time.perf_counter() - started
    return read_trace(workdir / "trace.jsonl"), elapsed


def test_criterion_1_closed_form_trajectory(bundled_counterexample_trace):
    trace, elapsed = bundled_counterexample_trace
    assert len(trace.records) == 52
    assert verify_counterexample_closed_form(trace.records, 25)
    for q in range(26):
        even, odd = trace.records[2 * q], trace.records[2 * q + 1]
        x_q, alpha_q = 1.25 * 2.0**-q, 0.25 * 2.0**-q
        assert even.x == (x_q,) and odd.x == (x_q,)
        assert even.alpha == alpha_q and odd.alpha == 0.5 * alpha_q
        assert not even.success
        poll = even.outcomes[-1]
        assert {t.point[0] for t in poll.trials} == {x_q - alpha_q, x_q + alpha_q}
        assert len(poll.trials) == 2
        assert odd.success and odd.outcomes[-1].kind == "search"
    assert elapsed < 1.0, f"run took {elapsed:.3f}s"
    report(1, f"x_2q = 5/4*2^-q and alpha_2q = 1/4*2^-q bit-exact for q=0..25 in {elapsed:.3f}s")


def test_criterion_2_discontinuity_gap(bundled_counterexample_trace):
    trace, _ = bundled_counterexample_trace
    analysis = extract_refining(trace.records, get_objective("counterexample"))
    # The incumbent values of the unsuccessful iterations halve exactly, and
    # the limit of the incumbents collapses to the refined point 0.
    values = [r.f_x for r in trace.records if not r.success]
    assert values == [2.0**-q * (121 / 128) for q in range(26)]
    assert analysis.n_unsuccessful == 26
    assert analysis.refined_point == (0.0,)
    assert analysis.refining_directions == ((-1.0,), (1.0,))
    assert analysis.f_refined == -1.0
    assert analysis.alpha_tail == 0.25 * 2.0**-25
    assert analysis.f_limit == values[-1] == 2.0**-25 * (121 / 128)
    assert analysis.f_tail == tuple(values[-5:])
    assert abs(analysis.gap - 1.0) <= 1e-3
    report(2, f"f(x*) = {analysis.f_refined}, f_limit = {analysis.f_limit:.3e}, gap = {analysis.gap:.9f}")


def test_criterion_3_branch_starvation(bundled_counterexample_trace):
    trace, _ = bundled_counterexample_trace
    points: list[tuple[float, ...]] = []
    minimum_radius = math.inf
    for record in trace.records:
        for outcome in record.outcomes:
            points.extend(t.point for t in outcome.trials)
        if points:
            minimum_radius = min(minimum_radius, covering_radius(points, (0.0,), 2.0, 201))
    assert points and all(p[0] > 0.0 for p in points)
    assert minimum_radius >= 1.0
    report(3, f"{len(points)} trial points, all > 0; covering radius in B_2(0) never below {minimum_radius:.3f}")


def test_criterion_4_polynomial_identities():
    one, five_quarters, two = Fraction(1), Fraction(5, 4), Fraction(2)
    assert exact_band_quartic(one) == 1
    assert exact_band_quartic(two) == 2
    assert [exact_band_quartic(x, 1) for x in (one, five_quarters, two)] == [0, 0, 0]
    assert [exact_band_quartic(x, 2) for x in (one, five_quarters, two)] == [-6, Fraction(9, 2), -18]
    report(4, "exactly: q(1) = 1, q(2) = 2, q' = 0 at 1, 5/4, 2, q'' = -6, 9/2, -18 there")


def test_criterion_5_repaired_algorithm_monte_carlo():
    experiment = load_experiment_config(CONFIGS_DIR / "revealing.cfg")
    config = experiment.algo
    assert config.revealing_radius == 2.0 and config.revealing_count == 1
    assert config.forcing == "zero" and config.max_iterations == 500 and config.alpha_min == 1e-9
    started = time.perf_counter()
    stats = monte_carlo_escape(config, get_objective("counterexample"), 200, 7)
    elapsed = time.perf_counter() - started
    assert stats.n_escaped == 200
    assert stats.n_converged >= 199
    assert elapsed < 30.0, f"Monte Carlo took {elapsed:.1f}s"
    report(5, f"escaped {stats.n_escaped}/200, converged {stats.n_converged}/200 in {elapsed:.2f}s")


def test_criterion_6_revealing_density():
    config = revealing_config(revealing_count=4, max_iterations=128, alpha_min=0.0, seed=2024)
    trace = run(config, get_objective("counterexample"))
    assert len(trace.records) >= 128
    points = trial_points(trace, kinds=("revealing_poll",), unsuccessful_only=True)
    radius = covering_radius(points, trace.final_incumbent(), 2.0, 201)
    assert radius < DENSITY_THRESHOLD
    report(6, f"covering radius {radius:.4f} < {DENSITY_THRESHOLD} over {len(points)} revealing points")


def test_criterion_7_clarke_estimator():
    neg_abs = get_objective("neg_abs")
    quadratic = get_objective("quadratic_1d")
    up = clarke_estimate(neg_abs, (0.0,), (1.0,), 1e-6, 1e-2, 200)
    down = clarke_estimate(neg_abs, (0.0,), (-1.0,), 1e-6, 1e-2, 200)
    smooth_up = clarke_estimate(quadratic, (0.0,), (1.0,), 1e-6, 1e-2, 200)
    smooth_down = clarke_estimate(quadratic, (0.0,), (-1.0,), 1e-6, 1e-2, 200)
    assert abs(up - 1.0) <= 0.05
    assert abs(down - 1.0) <= 0.05
    assert abs(smooth_up - 2.0) <= 0.05
    assert abs(smooth_down + 2.0) <= 0.05
    report(7, f"-|x| estimates ({up:.3f}, {down:.3f}) ~ 1; smooth estimates ({smooth_up:.3f}, {smooth_down:.3f}) ~ +-2")


def test_criterion_8_determinism(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for name in ("counterexample.cfg", "revealing.cfg"):
        (tmp_path / name).write_text((CONFIGS_DIR / name).read_text())
        assert main(["run", name]) == 0
    first = {p.name: p.read_bytes() for p in tmp_path.glob("*.jsonl")}
    assert len(first) == 2
    for name in ("counterexample.cfg", "revealing.cfg"):
        assert main(["run", name]) == 0
    second = {p.name: p.read_bytes() for p in tmp_path.glob("*.jsonl")}
    assert first == second
    # tests/pins.json holds the bundled traces' digests, which ROADMAP.md lists.
    digests = {name: hashlib.sha256(data).hexdigest() for name, data in first.items()}
    assert digests == PINS["bundled_trace"]
    capsys.readouterr()
    assert main(["montecarlo", "revealing.cfg", "--trials", "20", "--master-seed", "7"]) == 0
    mc_first = capsys.readouterr().out
    assert main(["montecarlo", "revealing.cfg", "--trials", "20", "--master-seed", "7"]) == 0
    assert capsys.readouterr().out == mc_first
    report(8, "trace files byte-identical across reruns and match the golden hashes; Monte Carlo output identical")


def test_criterion_9_property_suite(tmp_path):
    checked = []
    path = tmp_path / "trace.jsonl"

    @settings(max_examples=1000, deadline=None, database=None, derandomize=True)
    @given(drawn=random_config())
    def check(drawn):
        config, objective_name = drawn
        counting = CountingObjective(get_objective(objective_name))
        trace = run(config, counting.spec)
        assert counting.calls == evaluation_count(trace)
        expected = reference.iterate(config, get_objective(objective_name))
        assert reference.leaves(trace.records) == reference.leaves(tuple(expected))
        write_trace(trace, path)
        assert read_trace(path) == trace
        checked.append(config)

    check()
    assert len(checked) == 1000
    report(9, f"{len(checked)} drawn configs ran as the reference method; every trace round-tripped exactly")
