"""Epoch-driven rate controller for the adaptive update source.

At each epoch boundary the controller looks at how the epoch's average
backlog and average age moved relative to the previous epoch and picks one
of three actions on the *target backlog change* for the next epoch:

    INC      +1          (grow the pipeline by one update)
    DEC      -1          (shed one update)
    MDEC(g)  -(1 - 2^-g) * current average backlog   (shed a fraction)

Consecutive backlog-up/age-up epochs escalate MDEC's fraction through g.
The new rate is 1/z_bar + target/rtt_bar, step-limited to 0.75x..1.25x of
the previous rate, which keeps the rate strictly positive with no explicit
floor. Exact-zero differences are treated as the non-positive side, which
biases toward the gentler INC/DEC actions under stalls and quantization.
"""

import enum
from dataclasses import dataclass, replace

PACKETS_PER_EPOCH = 10
RATE_STEP_DOWN = 0.75
RATE_STEP_UP = 1.25


class ActionKind(enum.Enum):
    INC = "inc"
    DEC = "dec"
    MDEC = "mdec"


@dataclass(frozen=True)
class ControlAction:
    kind: ActionKind
    target_backlog_change: float
    gamma: int = 0  # escalation level, meaningful for MDEC only

    def __str__(self):
        if self.kind is ActionKind.MDEC:
            return f"mdec{self.gamma}"
        return self.kind.value


@dataclass(frozen=True)
class ControlInputs:
    b_k: float  # backlog average, this epoch minus previous
    delta_k: float  # age average, this epoch minus previous
    backlog_avg: float  # this epoch's backlog average (MDEC base)


@dataclass(frozen=True)
class ControllerState:
    """Decision state carried across epochs; immutable for replayability."""

    rate: float  # updates per second
    flag: bool = False
    gamma: int = 0
    prev_age_avg: float | None = None
    prev_backlog_avg: float | None = None
    epoch_index: int = 0


def epoch_length(rate: float) -> float:
    """Epoch duration chosen so at least PACKETS_PER_EPOCH updates go out."""
    if rate <= 0:
        raise ValueError(f"rate must be positive, got {rate}")
    return PACKETS_PER_EPOCH / rate


def mdec_target(gamma: int, backlog_avg: float) -> float:
    return -(1.0 - 2.0 ** (-gamma)) * backlog_avg


def control_step(state: ControllerState, inputs: ControlInputs):
    """Pick the action for one epoch boundary.

    Returns (action, next_state); next_state carries the updated flag and
    escalation level but leaves the rate untouched (the caller follows up
    with update_lambda). Pure function: same (state, inputs) in, same
    (action, state) out.
    """
    if state.epoch_index < 1:
        raise ValueError("control requires a completed previous epoch")
    b_up = inputs.b_k > 0
    age_up = inputs.delta_k > 0

    if b_up and age_up:
        # rate overshoot: back off, escalating once a plain DEC already ran
        if state.flag:
            gamma = state.gamma + 1
            action = ControlAction(ActionKind.MDEC, mdec_target(gamma, inputs.backlog_avg), gamma)
        else:
            gamma = state.gamma
            action = ControlAction(ActionKind.DEC, -1.0)
        next_state = replace(state, flag=True, gamma=gamma)
    elif b_up != age_up:
        action = ControlAction(ActionKind.INC, 1.0)
        next_state = replace(state, flag=False, gamma=0)
    else:
        if state.flag and state.gamma > 0:
            # keep draining at the established fraction
            action = ControlAction(
                ActionKind.MDEC, mdec_target(state.gamma, inputs.backlog_avg), state.gamma
            )
            next_state = state
        else:
            action = ControlAction(ActionKind.DEC, -1.0)
            next_state = replace(state, flag=False, gamma=0)
    return action, next_state


def update_lambda(prev_rate: float, z_bar: float, rtt_bar: float, target: float) -> float:
    """New update rate for a target backlog change, step-limited.

    raw = 1/z_bar + target/rtt_bar, clamped to [0.75, 1.25] x prev_rate.
    The clamp keeps the rate positive even for strongly negative targets.
    """
    if prev_rate <= 0:
        raise ValueError(f"previous rate must be positive, got {prev_rate}")
    if z_bar <= 0 or rtt_bar <= 0:
        raise ValueError(f"estimates must be positive (z_bar={z_bar}, rtt_bar={rtt_bar})")
    raw = 1.0 / z_bar + target / rtt_bar
    lo = RATE_STEP_DOWN * prev_rate
    hi = RATE_STEP_UP * prev_rate
    return min(max(raw, lo), hi)


EPOCH_LOG_COLUMNS = ("k", "t_k", "lambda", "action", "b_star", "b_k", "delta_k", "flag", "gamma")


def epoch_log_row(k, t_k, rate, action, b_star, b_k, delta_k, flag, gamma):
    """One diagnostic CSV row per epoch, column order fixed by EPOCH_LOG_COLUMNS."""
    return (k, t_k, rate, action, b_star, b_k, delta_k, int(flag), gamma)
