import random

import pytest

from agectl.controller import control_step, epoch_length, mdec_target, update_lambda


class TestBranches:
    def test_backlog_up_age_up_first_time_is_dec(self):
        assert control_step(False, 0, +0.4, +0.002, 4.0) == ("dec", -1.0, True, 0)

    def test_backlog_up_age_up_escalates(self):
        # with the flag already set, the level climbs and the target removes
        # (1 - 2^-2) of the current average backlog: -(0.75 * 4) = -3
        action, target, flag, gamma = control_step(True, 1, +0.4, +0.002, 4.0)
        assert action == "mdec2"
        assert target == pytest.approx(-3.0)
        assert flag and gamma == 2

    def test_backlog_up_age_down_is_inc(self):
        assert control_step(True, 2, +0.4, -0.001, 4.0) == ("inc", 1.0, False, 0)

    def test_backlog_down_age_up_is_inc(self):
        assert control_step(True, 2, -0.3, +0.001, 4.0) == ("inc", 1.0, False, 0)

    def test_backlog_down_age_down_plain_dec_resets(self):
        assert control_step(True, 0, -0.3, -0.001, 4.0) == ("dec", -1.0, False, 0)

    def test_backlog_down_age_down_keeps_draining(self):
        # flag set with a positive level: the same fraction applies again
        # and neither the flag nor the level changes
        action, target, flag, gamma = control_step(True, 2, -0.3, -0.001, 2.0)
        assert action == "mdec2"
        assert target == pytest.approx(-1.5)
        assert flag and gamma == 2

    def test_zero_signs_count_as_non_positive(self):
        assert control_step(False, 0, 0.0, 0.0, 4.0)[0] == "dec"
        assert control_step(False, 0, 0.0, +0.001, 4.0)[0] == "inc"
        assert control_step(False, 0, +0.4, 0.0, 4.0)[0] == "inc"

    def test_pure_function(self):
        args = (True, 1, 0.4, 0.002, 4.0)
        assert control_step(*args) == control_step(*args)


def test_mdec_never_exceeds_backlog():
    for gamma in range(1, 40):
        for backlog in (0.1, 1.0, 7.3):
            assert abs(mdec_target(gamma, backlog)) < backlog


class TestUpdateLambda:
    def test_clamped_up(self):
        # 1/0.1 + 1/0.1 = 20, capped at 1.25 * 10
        assert update_lambda(10.0, 0.1, 0.1, +1) == pytest.approx(12.5)

    def test_interior_fixed_point(self):
        assert update_lambda(10.0, 0.1, 0.1, 0) == pytest.approx(10.0)

    def test_clamped_down_stays_positive(self):
        # 1/0.2 - 1/0.1 = -5, floored at 0.75 * 10
        assert update_lambda(10.0, 0.2, 0.1, -1) == pytest.approx(7.5)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            update_lambda(10.0, 0.0, 0.1, 0)
        with pytest.raises(ValueError):
            update_lambda(10.0, 0.1, -0.1, 0)
        with pytest.raises(ValueError):
            update_lambda(0.0, 0.1, 0.1, 0)


class TestEpochLength:
    def test_values(self):
        assert epoch_length(10.0) == pytest.approx(1.0)
        assert epoch_length(100.0) == pytest.approx(0.1)

    def test_monotone(self):
        assert epoch_length(5.0) > epoch_length(50.0)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            epoch_length(0.0)


def test_random_trajectory_stays_clamped():
    rng = random.Random(42)
    flag, gamma = False, 0
    rate = 100.0
    for _ in range(5000):
        b_k = rng.uniform(-2, 2)
        delta_k = rng.uniform(-0.01, 0.01)
        backlog_avg = rng.uniform(0, 10)
        _, target, flag, gamma = control_step(flag, gamma, b_k, delta_k, backlog_avg)
        new_rate = update_lambda(rate, rng.uniform(1e-4, 1.0), rng.uniform(1e-4, 1.0), target)
        assert 0.75 * rate - 1e-12 <= new_rate <= 1.25 * rate + 1e-12
        assert new_rate > 0
        rate = new_rate


def test_gamma_only_grows_through_consecutive_escalations():
    flag, gamma = False, 0
    _, _, flag, gamma = control_step(flag, gamma, 0.5, 0.001, 3.0)  # DEC, flag set
    assert flag and gamma == 0
    _, _, flag, gamma = control_step(flag, gamma, 0.5, 0.001, 3.0)  # MDEC(1)
    assert gamma == 1
    _, _, flag, gamma = control_step(flag, gamma, 0.5, 0.001, 3.0)  # MDEC(2)
    assert gamma == 2
    _, _, flag, gamma = control_step(flag, gamma, -0.5, 0.001, 3.0)  # INC resets
    assert not flag and gamma == 0
