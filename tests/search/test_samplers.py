"""Unit tests for the adaptive samplers — no simulator involved.

The convergence tests drive the propose/observe loop against cheap synthetic
objectives (a quadratic bowl in unit space, fixed per-arm reward rates), so
they pin the *search* behavior: CE must concentrate its proposal
distribution on the optimum, the bandits must concentrate the pull budget on
the best arm, and every sampler's state must round-trip bit-identically
through JSON (the resume contract).
"""

import json

import numpy as np
import pytest

from repro.search.samplers import (
    SEARCH_SAMPLERS,
    BanditSampler,
    CrossEntropySampler,
    RandomSearchSampler,
)
from repro.sim.sweeps import Choice, ParameterSpace, Uniform

TWO_UNIFORM = ParameterSpace(
    {
        "variation.lead_gap_offset_m": Uniform(-8.0, 8.0),
        "variation.lead_speed_offset_mps": Uniform(-0.8, 0.8),
    }
)
MIXED = ParameterSpace(
    {
        "variation.lead_gap_offset_m": Uniform(-8.0, 8.0),
        "fusion.policy": Choice(("late", "camera_only", "lidar_only")),
    }
)
CHOICE_ONLY = ParameterSpace(
    {"fusion.policy": Choice(("late", "camera_only", "lidar_only", "consistency_gated"))}
)


def _units_of(space: ParameterSpace, assignments) -> np.ndarray:
    """Invert assignments back to unit coordinates (Uniform axes only)."""
    rows = []
    for assignment in assignments:
        row = []
        for path in space.paths():
            spec = space.spec(path)
            row.append((assignment[path] - spec.low) / (spec.high - spec.low))
        rows.append(row)
    return np.asarray(rows)


def _quadratic(space: ParameterSpace, target: np.ndarray):
    """Score = 1 - squared unit-space distance to ``target`` (max at target)."""

    def score(assignments):
        units = _units_of(space, assignments)
        return (1.0 - ((units - target) ** 2).sum(axis=1)).tolist()

    return score


class TestRandomSearchSampler:
    def test_first_batch_matches_space_random(self):
        sampler = RandomSearchSampler(TWO_UNIFORM, seed=7)
        proposed = sampler.propose(12)
        assert proposed == TWO_UNIFORM.random(12, seed=7)

    def test_later_batches_continue_the_stream(self):
        sampler = RandomSearchSampler(TWO_UNIFORM, seed=7)
        first = sampler.propose(5)
        sampler.observe(first, [0.0] * 5)
        second = sampler.propose(5)
        assert second != first
        # Same stream as one longer draw from the same generator.
        rng = np.random.default_rng(7)
        units = rng.uniform(size=(10, 2))
        assert first + second == TWO_UNIFORM.sample_from(units)


class TestCrossEntropyConvergence:
    def test_converges_on_quadratic_bowl(self):
        target = np.array([0.72, 0.31])
        score = _quadratic(TWO_UNIFORM, target)
        sampler = CrossEntropySampler(TWO_UNIFORM, seed=3)
        for _ in range(25):
            batch = sampler.propose(24)
            sampler.observe(batch, score(batch))
        for column, path in enumerate(TWO_UNIFORM.paths()):
            dist = sampler.distribution(path)
            assert dist["mean"] == pytest.approx(target[column], abs=0.08)
            assert dist["sigma"] < 0.15

    def test_categorical_concentrates_on_best_value(self):
        def score(assignments):
            return [1.0 if a["fusion.policy"] == "camera_only" else 0.1 for a in assignments]

        sampler = CrossEntropySampler(CHOICE_ONLY, seed=5)
        for _ in range(12):
            batch = sampler.propose(16)
            sampler.observe(batch, score(batch))
        probs = sampler.distribution("fusion.policy")["probs"]
        assert probs[1] > 0.9  # camera_only is index 1
        assert sum(probs) == pytest.approx(1.0)

    def test_sigma_floor_keeps_exploring(self):
        sampler = CrossEntropySampler(TWO_UNIFORM, seed=0, min_sigma=0.05)
        score = _quadratic(TWO_UNIFORM, np.array([0.5, 0.5]))
        for _ in range(30):
            batch = sampler.propose(16)
            sampler.observe(batch, score(batch))
        for path in TWO_UNIFORM.paths():
            assert sampler.distribution(path)["sigma"] >= 0.05

    def test_rejects_bad_hyperparameters(self):
        with pytest.raises(ValueError):
            CrossEntropySampler(TWO_UNIFORM, elite_frac=0.0)
        with pytest.raises(ValueError):
            CrossEntropySampler(TWO_UNIFORM, smoothing=1.5)

    @pytest.mark.parametrize("name", ["min_sigma", "init_sigma"])
    @pytest.mark.parametrize("value", [0.0, -0.1, float("nan"), float("inf")])
    def test_rejects_non_positive_or_non_finite_sigma(self, name, value):
        # A NaN sigma proposed NaN axis values; a negative one raised numpy's
        # "scale < 0" only at the first propose.
        with pytest.raises(ValueError, match=f"^{name} must be positive and finite, got "):
            CrossEntropySampler(TWO_UNIFORM, **{name: value})


class TestBanditAllocation:
    RATES = {"late": 0.15, "camera_only": 0.8, "lidar_only": 0.3, "consistency_gated": 0.1}

    def _drive(self, sampler, rounds: int, batch: int) -> None:
        rng = np.random.default_rng(42)
        for _ in range(rounds):
            proposed = sampler.propose(batch)
            scores = [
                float(rng.uniform() < self.RATES[a["fusion.policy"]]) for a in proposed
            ]
            sampler.observe(proposed, scores)

    @pytest.mark.parametrize("mode", ["ucb", "thompson"])
    def test_concentrates_budget_on_best_arm(self, mode):
        sampler = BanditSampler(CHOICE_ONLY, seed=9, mode=mode)
        self._drive(sampler, rounds=30, batch=8)
        stats = sampler.arm_statistics()
        pulls = {tuple(s["arm"].items())[0][1]: s["pulls"] for s in stats}
        assert sum(pulls.values()) == 240
        # The 0.8-rate arm must dominate the allocation.
        assert pulls["camera_only"] == max(pulls.values())
        assert pulls["camera_only"] > 240 / 2

    def test_every_arm_gets_explored_first(self):
        sampler = BanditSampler(CHOICE_ONLY, seed=1, mode="ucb")
        proposed = sampler.propose(4)
        policies = {a["fusion.policy"] for a in proposed}
        assert policies == set(self.RATES)  # all four arms before any repeat

    def test_continuous_space_is_binned(self):
        sampler = BanditSampler(TWO_UNIFORM, seed=2, mode="ucb", bins=4)
        assert sampler.n_arms == 4
        proposed = sampler.propose(4)
        units = _units_of(TWO_UNIFORM, proposed)
        # One proposal per stratum of the first axis.
        assert sorted((units[:, 0] * 4).astype(int).tolist()) == [0, 1, 2, 3]

    def test_mixed_space_arms_are_choice_product(self):
        sampler = BanditSampler(MIXED, seed=0)
        assert sampler.n_arms == 3
        assert sampler.arm_label(0) == {"fusion.policy": "late"}

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError):
            BanditSampler(CHOICE_ONLY, mode="greedy")

    @pytest.mark.parametrize("value", [float("nan"), -1.0, float("inf"), float("-inf")])
    def test_rejects_negative_or_non_finite_exploration(self, value):
        # A NaN exploration scored every arm NaN; a negative one steered the
        # UCB1 budget away from the least-tried arms.
        with pytest.raises(ValueError, match="^exploration must be non-negative and finite, got "):
            BanditSampler(CHOICE_ONLY, exploration=value)

    def test_zero_exploration_is_greedy_ucb(self):
        assert BanditSampler(CHOICE_ONLY, exploration=0.0).exploration == 0.0


class TestProtocolAndState:
    @pytest.mark.parametrize("name", ["random", "ce", "ucb", "thompson"])
    def test_state_round_trip_is_bit_identical(self, name):
        sampler = SEARCH_SAMPLERS[name](MIXED, 13)
        batch = sampler.propose(6)
        sampler.observe(batch, [0.1, 0.9, 0.4, 0.4, 0.0, 1.0])
        mid_propose = sampler.propose(6)  # leave a pending batch in the state
        state = sampler.state_dict()
        encoded = json.dumps(state, sort_keys=True)

        clone = SEARCH_SAMPLERS[name](MIXED, 999)
        clone.load_state_dict(json.loads(encoded))
        assert json.dumps(clone.state_dict(), sort_keys=True) == encoded
        # Observing the pending batch then proposing must match exactly.
        scores = [0.5, 0.2, 0.8, 0.3, 0.6, 0.1]
        sampler.observe(mid_propose, scores)
        clone.observe(mid_propose, scores)
        assert sampler.propose(4) == clone.propose(4)

    @pytest.mark.parametrize("name", ["random", "ce", "ucb", "thompson"])
    def test_observe_before_propose_raises(self, name):
        sampler = SEARCH_SAMPLERS[name](MIXED, 0)
        with pytest.raises(RuntimeError):
            sampler.observe([], [])

    @pytest.mark.parametrize("name", ["random", "ce", "ucb", "thompson"])
    def test_batch_length_mismatch_raises(self, name):
        sampler = SEARCH_SAMPLERS[name](MIXED, 0)
        batch = sampler.propose(4)
        with pytest.raises(ValueError):
            sampler.observe(batch, [0.5])

    def test_bandit_checkpoint_mode_mismatch_raises(self):
        ucb = SEARCH_SAMPLERS["ucb"](CHOICE_ONLY, 0)
        thompson = SEARCH_SAMPLERS["thompson"](CHOICE_ONLY, 0)
        with pytest.raises(ValueError):
            thompson.load_state_dict(ucb.state_dict())

    def test_registry_lists_all_samplers(self):
        assert sorted(SEARCH_SAMPLERS) == ["ce", "random", "thompson", "ucb"]
