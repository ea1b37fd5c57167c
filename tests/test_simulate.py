import io
import json
import logging
import math
import time

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from kgrag.simulate import (
    OracleInstance,
    SearchConfig,
    acceptance_probability,
    count_reward,
    estimate_recovery_rounds,
    hypergeometric_tail,
    load_experiment,
    run_subset_search,
    universe_reward,
    write_summary_json,
    write_trials_csv,
)

from oracles import (
    acceptance_occupancy,
    all_subsets,
    measure_acceptance_rate,
    per_draw_subset_search,
    reward_coverage,
    reward_draw,
)


def inst(n=10, k=2, s0=1.0, d0=0.5):
    return OracleInstance(n, frozenset(range(k)), s0, d0)


def test_reward_coverage_maximum_at_oracle():
    assert reward_coverage({0, 1}, inst()) == 1.0


def test_reward_coverage_mixed_selection():
    # one oracle item, one noise item: (1*1 - 1*0.5) / (2*1)
    assert reward_coverage({0, 5}, inst(k=2, s0=1.0, d0=0.5)) == pytest.approx(0.25)


def test_reward_coverage_empty_selection_zero():
    assert reward_coverage(set(), inst()) == 0.0


def test_reward_coverage_all_noise_floor():
    i = inst(n=6, k=2, s0=1.0, d0=0.5)
    value = reward_coverage({2, 3, 4, 5}, i)
    assert value == pytest.approx(-0.5 * 4 / 2)


def test_reward_draw_subset_of_oracle_is_one():
    assert reward_draw({0}, inst(k=2)) == 1.0


def test_reward_draw_balanced_mix_zero():
    assert reward_draw({0, 5}, inst(k=2, s0=1.0, d0=1.0)) == pytest.approx(0.0)


def test_reward_draw_all_noise_floor():
    assert reward_draw({5, 6}, inst(k=2, s0=1.0, d0=0.7)) == pytest.approx(-0.7)


def test_reward_draw_rejects_empty():
    with pytest.raises(ValueError):
        reward_draw(set(), inst())


def test_reward_exactness_exhaustive():
    i = inst(n=10, k=3, s0=1.0, d0=0.5)
    for subset in all_subsets(list(range(10))):
        value = reward_coverage(subset, i)
        if subset == set(i.oracle_set):
            assert value == 1.0
        else:
            assert value < 1.0


def test_oracle_instance_validation():
    with pytest.raises(ValueError):
        OracleInstance(5, frozenset())
    with pytest.raises(ValueError):
        OracleInstance(5, frozenset({9}))
    with pytest.raises(ValueError):
        OracleInstance(5, frozenset({0}), s0=0.0)
    with pytest.raises(ValueError):
        OracleInstance(5, frozenset({0}), delta0=-1.0)


def test_search_config_validation():
    with pytest.raises(ValueError):
        SearchConfig(subset_size=0, threshold=0.5, max_rounds=10)
    with pytest.raises(ValueError):
        SearchConfig(subset_size=2, threshold=0.5, max_rounds=0)


def test_full_draw_recovers_in_one_round():
    i = OracleInstance(12, frozenset(range(3)), s0=1.0, delta0=0.0)
    # r(universe) = K/N = 0.25 when delta0 = 0
    cfg = SearchConfig(subset_size=12, threshold=0.2, max_rounds=5, seed=1)
    trace = run_subset_search(i, cfg)
    assert trace.recovered
    assert trace.rounds_executed == 1
    assert trace.accepted_rewards == [pytest.approx(3 / 12)]


def test_threshold_at_or_above_one_never_accepts():
    i = OracleInstance(20, frozenset(range(2)), s0=1.0, delta0=0.1)
    cfg = SearchConfig(subset_size=5, threshold=1.0, max_rounds=200, seed=3)
    trace = run_subset_search(i, cfg)
    assert trace.accepted_rounds == 0
    assert not trace.recovered
    assert trace.rounds_executed == 200


def test_out_of_range_threshold_warns_once_per_estimate(caplog):
    i = OracleInstance(20, frozenset(range(2)), s0=1.0, delta0=0.1)
    cfg = SearchConfig(subset_size=5, threshold=1.0, max_rounds=20, seed=3)
    with caplog.at_level(logging.WARNING, logger="kgrag.simulate"):
        estimate_recovery_rounds(i, cfg, trials=5)
    warnings = [r for r in caplog.records if r.levelno == logging.WARNING]
    assert len(warnings) == 1
    assert "outside the analyzed range" in warnings[0].getMessage()


def test_search_deterministic_given_seed():
    i = OracleInstance(40, frozenset(range(3)), s0=1.0, delta0=0.1)
    cfg = SearchConfig(subset_size=6, threshold=0.1, max_rounds=500, seed=11)
    t1 = run_subset_search(i, cfg)
    t2 = run_subset_search(i, cfg)
    assert t1.accepted_rewards == t2.accepted_rewards
    assert t1.rounds_executed == t2.rounds_executed
    assert t1.final_set == t2.final_set


def test_recovery_soundness():
    i = OracleInstance(30, frozenset({4, 9}), s0=1.0, delta0=0.05)
    cfg = SearchConfig(subset_size=5, threshold=0.05, max_rounds=2000, seed=0)
    for seed in range(10):
        trace = run_subset_search(i, cfg, seed=seed)
        if trace.recovered:
            assert i.oracle_set <= trace.final_set
        assert trace.accepted_rounds <= trace.rounds_executed


def test_hypergeometric_tail_worked_example():
    want = 10 / 45  # C(5,2)/C(10,2)
    got = hypergeometric_tail(10, 5, 2, 2)
    assert abs(got - want) / want < 1e-12


def test_hypergeometric_tail_boundaries():
    assert hypergeometric_tail(10, 5, 2, 0) == 1.0
    assert hypergeometric_tail(10, 5, 2, 3) == 0.0
    # support floor: with N=4, K=3, S=2 a draw always contains >= 1 oracle item
    assert hypergeometric_tail(4, 3, 2, 1) == 1.0


def test_hypergeometric_tail_sums_to_pmf():
    n, k, s = 30, 7, 10
    total = sum(
        math.comb(k, i) * math.comb(n - k, s - i) for i in range(0, min(k, s) + 1)
    ) / math.comb(n, s)
    assert total == pytest.approx(1.0)
    for cut in range(0, min(k, s) + 2):
        tail = hypergeometric_tail(n, k, s, cut)
        brute = (
            sum(
                math.comb(k, i) * math.comb(n - k, s - i)
                for i in range(cut, min(k, s) + 1)
            )
            / math.comb(n, s)
            if cut <= min(k, s)
            else 0.0
        )
        assert tail == pytest.approx(brute, rel=1e-12)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_threshold_occupancy_equivalence(data):
    s = data.draw(st.integers(1, 30))
    k_s = data.draw(st.integers(0, s))
    s0 = data.draw(st.floats(0.1, 5.0, allow_nan=False))
    d0 = data.draw(st.floats(0.0, 5.0, allow_nan=False))
    tau = data.draw(st.floats(-1.0, 1.0, allow_nan=False))
    i = OracleInstance(100, frozenset(range(40)), s0, d0)
    draw = set(range(k_s)) | set(range(40, 40 + (s - k_s)))
    reward = reward_draw(draw, i)
    # reward - tau and k_s - s*theta are proportional; keep clear of the
    # boundary so float rounding cannot flip one side only
    assume(abs(reward - tau) > 1e-6)
    theta = acceptance_occupancy(i, tau)
    assert (reward > tau) == (k_s > s * theta)


def test_acceptance_probability_matches_empirical_rate():
    i = OracleInstance(200, frozenset(range(3)), s0=1.0, delta0=0.1)
    cfg = SearchConfig(subset_size=10, threshold=0.1, max_rounds=10, seed=42)
    closed = acceptance_probability(i, cfg)
    rounds = 40_000
    empirical = measure_acceptance_rate(i, cfg, rounds)
    se = math.sqrt(closed * (1 - closed) / rounds)
    assert abs(empirical - closed) <= 3 * se


def test_estimate_recovery_rounds_summary_fields():
    i = OracleInstance(40, frozenset(range(2)), s0=1.0, delta0=0.0)
    cfg = SearchConfig(subset_size=8, threshold=0.1, max_rounds=400, seed=5)
    summary = estimate_recovery_rounds(i, cfg, trials=50)
    assert summary.trials == 50
    assert summary.recovered_trials == 50
    assert summary.median_rounds <= summary.quantiles["p90"]
    assert summary.quantiles["p10"] <= summary.quantiles["p25"]
    assert 0.0 < summary.acceptance_rate < 1.0
    # derived per-trial generators: rerunning gives identical statistics
    again = estimate_recovery_rounds(i, cfg, trials=50)
    assert summary.rounds_per_trial == again.rounds_per_trial


def test_universe_reward_formula():
    i = OracleInstance(10, frozenset(range(2)), s0=1.0, delta0=0.25)
    assert universe_reward(i) == pytest.approx((2 - 8 * 0.25) / 10)


def test_experiment_round_trip(tmp_path):
    payload = {
        "N": 50,
        "K": 2,
        "s0": 1.0,
        "delta0": 0.0,
        "S": 10,
        "threshold": 0.05,
        "max_rounds": 300,
        "trials": 20,
        "seed": 9,
    }
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(payload))
    i, cfg, trials = load_experiment(path)
    assert i.universe_size == 50 and i.k == 2
    assert cfg.subset_size == 10 and trials == 20
    summary = estimate_recovery_rounds(i, cfg, trials)
    csv_sink, json_sink = io.StringIO(), io.StringIO()
    write_trials_csv(summary, csv_sink)
    write_summary_json(summary, i, cfg, json_sink)
    assert csv_sink.getvalue().splitlines()[0] == "trial,rounds"
    blob = json.loads(json_sink.getvalue())
    assert blob["config"]["N"] == 50
    assert "closed_form_acceptance" in blob


# -- the count-level sampler against the per-draw reference and the closed form --


def _reference(i, cfg, seed):
    return per_draw_subset_search(
        i.universe_size, i.oracle_set, i.s0, i.delta0, cfg.subset_size, cfg.threshold, cfg.max_rounds, seed
    )


def _within(observed, expected, se, bound=4.0):
    return abs(observed - expected) <= bound * se


def _first_accepted_count(rewards, threshold, size):
    """The oracle count of the first round whose reward (δ0 = 0, so count / size) is accepted."""
    return next(round(r * size) for r in rewards if r > threshold)


def test_rounds_to_first_acceptance_are_geometric():
    # with one oracle item and delta0 = 0 a draw is accepted iff it holds the item,
    # and the first acceptance recovers; rounds to recovery are geometric in p = S / N
    i = OracleInstance(20, frozenset({0}), s0=1.0, delta0=0.0)
    cfg = SearchConfig(subset_size=4, threshold=0.1, max_rounds=10_000, seed=8)
    p = acceptance_probability(i, cfg)
    assert p == pytest.approx(4 / 20)
    trials = 3000
    sampled = [run_subset_search(i, cfg, seed=[cfg.seed, t]) for t in range(trials)]
    assert all(t.recovered and t.accepted_rounds == 1 for t in sampled)
    rounds = {
        "sampler": np.array([t.rounds_executed for t in sampled]),
        "per-draw": np.array([_reference(i, cfg, [cfg.seed, t])[0] for t in range(trials)]),
    }
    mean_se = math.sqrt((1 - p) / p**2 / trials)
    for name, observed in rounds.items():
        assert _within(observed.mean(), 1 / p, mean_se), (name, observed.mean())
        for r in range(1, 6):
            pmf = (1 - p) ** (r - 1) * p
            assert _within(np.mean(observed == r), pmf, math.sqrt(pmf * (1 - pmf) / trials)), (name, r)
    assert _within(rounds["sampler"].mean(), rounds["per-draw"].mean(), math.sqrt(2) * mean_se)


def test_accepted_counts_follow_the_conditional_hypergeometric_law():
    # counts 2, 3 and 4 of the four oracle items are accepted; a trial's first accepted
    # round is untouched by the stopping rule, so its count has the law given acceptance
    i = OracleInstance(30, frozenset(range(4)), s0=1.0, delta0=0.0)
    cfg = SearchConfig(subset_size=6, threshold=0.2, max_rounds=10_000, seed=5)
    trials = 3000
    firsts = {
        "sampler": [
            _first_accepted_count(run_subset_search(i, cfg, seed=[cfg.seed, t]).accepted_rewards, cfg.threshold, 6)
            for t in range(trials)
        ],
        "per-draw": [
            _first_accepted_count(_reference(i, cfg, [cfg.seed, t])[3], cfg.threshold, 6) for t in range(trials)
        ],
    }
    weights = {c: math.comb(4, c) * math.comb(26, 6 - c) for c in (2, 3, 4)}
    assert acceptance_probability(i, cfg) == pytest.approx(sum(weights.values()) / math.comb(30, 6), rel=1e-12)
    for c, weight in weights.items():
        pmf = weight / sum(weights.values())
        se = math.sqrt(pmf * (1 - pmf) / trials)
        got, want = (np.mean(np.array(firsts[name]) == c) for name in ("sampler", "per-draw"))
        assert _within(got, pmf, se), (c, got, pmf)
        assert _within(want, pmf, se), (c, want, pmf)
        assert _within(got, want, math.sqrt(2) * se), (c, got, want)


@pytest.mark.parametrize(
    "n, k, size, d0, count",
    [(30, 4, 6, 0.0, 2), (20, 2, 2, 0.3, 1)],
    ids=["exact-ratio", "float-boundary"],
)
def test_threshold_equal_to_a_counts_reward_rejects_that_count(n, k, size, d0, count):
    # at d0 0.3 the threshold 0.35 is the reward of one of two oracle items, and
    # S·θ(0.35) rounds to just below 1, so a floor of it would accept that count
    i = OracleInstance(n, frozenset(range(k)), s0=1.0, delta0=d0)
    cfg = SearchConfig(subset_size=size, threshold=count_reward(count, size, i), max_rounds=5000, seed=2)
    closed = acceptance_probability(i, cfg)
    assert closed == hypergeometric_tail(n, k, size, count + 1)
    traces = [run_subset_search(i, cfg, seed=seed) for seed in range(200)]
    references = [_reference(i, cfg, seed) for seed in range(200)]
    accepted = [r for t in traces for r in t.accepted_rewards]
    assert accepted and min(accepted) == count_reward(count + 1, size, i) > cfg.threshold
    for taken, executed in (
        (sum(t.accepted_rounds for t in traces), sum(t.rounds_executed for t in traces)),
        (sum(r[1] for r in references), sum(r[0] for r in references)),
    ):
        assert _within(taken / executed, closed, math.sqrt(closed * (1 - closed) / executed)), (taken, executed)


@pytest.mark.parametrize(
    "threshold, recovered", [(0.5, False), (0.25, True)], ids=["nothing-accepted", "p-7e-10"]
)
def test_search_cost_grows_with_accepted_rounds_only(threshold, recovered):
    # 10^12 rounds: a sampler that drew every round would not return
    i = OracleInstance(10_000, frozenset(range(3)), s0=1.0, delta0=0.0)
    cfg = SearchConfig(subset_size=10, threshold=threshold, max_rounds=10**12, seed=4)
    start = time.perf_counter()
    trace = run_subset_search(i, cfg)
    assert time.perf_counter() - start < 1.0
    assert trace.recovered == recovered
    if recovered:  # only count 3 is accepted, so the first acceptance recovers
        assert acceptance_probability(i, cfg) == hypergeometric_tail(10_000, 3, 10, 3) == pytest.approx(7.2e-10, rel=0.01)
        assert trace.accepted_rounds == 1 and trace.accepted_rewards == [0.3]
        assert 10**6 < trace.rounds_executed < 10**12
    else:
        assert acceptance_probability(i, cfg) == 0.0
        assert (trace.rounds_executed, trace.accepted_rounds) == (10**12, 0)


def test_accepted_rounds_cover_oracle_items_uniformly():
    # one round per trial; a draw is accepted iff it holds an oracle item
    i = OracleInstance(30, frozenset(range(4)), s0=1.0, delta0=0.0)
    cfg = SearchConfig(subset_size=6, threshold=0.15, max_rounds=1, seed=0)
    trials = 4000
    hits = {"count-level": np.zeros(30), "per-draw": np.zeros(30)}
    accepted = {"count-level": 0, "per-draw": 0}
    for seed in range(trials):
        trace = run_subset_search(i, cfg, seed=seed)
        _, ref_accepted, _, _, ref_set = _reference(i, cfg, seed)
        for name, took, final_set in (
            ("count-level", trace.accepted_rounds, trace.final_set),
            ("per-draw", ref_accepted, ref_set),
        ):
            if took:
                assert len(final_set) == cfg.subset_size
                accepted[name] += 1
                hits[name][sorted(final_set)] += 1
        if trace.accepted_rounds:
            assert len(trace.final_set & i.oracle_set) == round(trace.accepted_rewards[0] * 6)
        else:
            assert trace.final_set == frozenset()
    # given acceptance, each oracle item is in the draw with probability E[count | count >= 1] / K
    p_accept = hypergeometric_tail(30, 4, 6, 1)
    per_item = 6 * 4 / 30 / p_accept / 4
    for name in hits:
        n_acc = accepted[name]
        assert _within(n_acc / trials, p_accept, math.sqrt(p_accept * (1 - p_accept) / trials))
        se = math.sqrt(per_item * (1 - per_item) / n_acc)
        for item in range(4):
            assert _within(hits[name][item] / n_acc, per_item, se), (name, item)
        noise = (6 - 4 * per_item) / 26
        se = math.sqrt(noise * (1 - noise) / n_acc)
        for item in range(4, 30):
            assert _within(hits[name][item] / n_acc, noise, se), (name, item)


def test_trace_counts_agree_with_rewards_and_final_set():
    i = OracleInstance(60, frozenset(range(5)), s0=1.0, delta0=0.0)
    cfg = SearchConfig(subset_size=8, threshold=0.2, max_rounds=3000, seed=3)
    for seed in range(20):
        trace = run_subset_search(i, cfg, seed=seed)
        assert len(trace.accepted_rewards) == trace.accepted_rounds <= trace.rounds_executed
        assert all(r > cfg.threshold for r in trace.accepted_rewards)
        assert len(trace.final_set) <= trace.accepted_rounds * cfg.subset_size
        assert trace.recovered == (i.oracle_set <= trace.final_set)


def test_mean_rounds_to_recovery_matches_the_per_draw_reference():
    # a draw is accepted with two or three of the three oracle items, so most
    # trials need two accepted rounds whose oracle items together cover all three
    i = OracleInstance(40, frozenset(range(3)), s0=1.0, delta0=0.0)
    cfg = SearchConfig(subset_size=8, threshold=0.2, max_rounds=5000, seed=21)
    trials = 400
    summary = estimate_recovery_rounds(i, cfg, trials)
    reference = [_reference(i, cfg, [cfg.seed, trial]) for trial in range(trials)]
    ref_rounds = np.array([r[0] for r in reference], dtype=np.float64)
    assert summary.recovered_trials == trials and all(r[2] for r in reference)
    rounds = np.array(summary.rounds_per_trial, dtype=np.float64)
    se = math.sqrt(rounds.var(ddof=1) / trials + ref_rounds.var(ddof=1) / trials)
    assert _within(rounds.mean(), ref_rounds.mean(), se), (rounds.mean(), ref_rounds.mean(), se)
    closed = acceptance_probability(i, cfg)
    executed = rounds.sum()
    assert _within(summary.acceptance_rate, closed, math.sqrt(closed * (1 - closed) / executed))
