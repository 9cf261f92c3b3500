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

PACKETS_PER_EPOCH = 10
RATE_STEP_DOWN = 0.75
RATE_STEP_UP = 1.25


def epoch_length(rate: float) -> float:
    """Epoch duration chosen so at least PACKETS_PER_EPOCH updates go out."""
    if rate <= 0:
        raise ValueError(f"rate must be positive, got {rate}")
    return PACKETS_PER_EPOCH / rate


def mdec_target(gamma: int, backlog_avg: float) -> float:
    return -(1.0 - 2.0 ** (-gamma)) * backlog_avg


def control_step(flag: bool, gamma: int, b_k: float, delta_k: float, backlog_avg: float):
    """Pick the action for one epoch boundary.

    `b_k` and `delta_k` are this epoch's backlog and age averages minus the
    previous epoch's, and `backlog_avg` is this epoch's backlog average (the
    MDEC base). Returns (action, target, flag, gamma): the logged action
    ("inc", "dec" or "mdec<g>"), the target backlog change for update_lambda,
    and the flag and escalation level to carry into the next epoch.
    """
    b_up = b_k > 0
    age_up = delta_k > 0
    if b_up and age_up:
        # rate overshoot: back off, escalating once a plain DEC already ran
        if flag:
            gamma += 1
            return f"mdec{gamma}", mdec_target(gamma, backlog_avg), True, gamma
        return "dec", -1.0, True, gamma
    if b_up != age_up:
        return "inc", 1.0, False, 0
    if flag and gamma > 0:
        # keep draining at the established fraction
        return f"mdec{gamma}", mdec_target(gamma, backlog_avg), True, gamma
    return "dec", -1.0, False, 0


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
