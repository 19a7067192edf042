"""Collision-resolution (backoff) policies for the wireless MAC.

The paper uses the classic exponential backoff of Ethernet [32]: after a
collision the transmitter waits a uniformly random number of cycles in
``[0, 2^i - 1]`` where ``i`` grows with every collision and shrinks with
every successful transmission (Section 5.3).  A fixed-window policy is
provided as an ablation.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

from repro.config import BackoffConfig
from repro.errors import ConfigurationError
from repro.sim.rng import DeterministicRng


class BackoffPolicy(ABC):
    """Per-transceiver collision backoff state machine."""

    @abstractmethod
    def on_collision(self) -> int:
        """Record a collision and return the number of cycles to wait."""

    @abstractmethod
    def on_success(self) -> None:
        """Record a successful transmission (contention is easing)."""

    def deferral(self) -> int:
        """Slots to defer a *fresh* transmission under observed contention.

        While the MAC has recently seen collisions it does not blast a new
        message into the first free slot (where every other contender would
        also transmit); it spreads the attempt over its current contention
        window, exactly as it does for retries.  With no contention history
        the deferral is zero, so uncontended stores keep their 5-cycle
        latency.
        """
        return 0

    def on_observed_success(self, count: int = 1) -> None:
        """Other nodes' transmissions succeeded ``count`` times.

        All antennas hear every transfer (Section 3.1), so the MAC can relax
        its contention window whenever the channel drains a message, not only
        on its own successes — the paper's "decremented at every successful
        transmission" rule applied to the broadcast medium.  The transceiver
        applies observed successes lazily, as one call with the count heard
        since its last backoff read or update, so a policy must leave exactly
        the state that ``count`` single calls would.
        """
        return None


class ExponentialBackoff(BackoffPolicy):
    """Binary exponential backoff with success-driven decay.

    ``i`` is incremented on every collision (up to ``max_exponent``) and
    decremented on every success, exactly as described in Section 5.3.
    """

    STATE = ("exponent",)
    REBUILT = ("rng", "max_exponent")

    def __init__(self, rng: DeterministicRng, max_exponent: int = 10) -> None:
        if max_exponent < 1:
            raise ConfigurationError("max_exponent must be >= 1")
        self.rng = rng
        self.max_exponent = max_exponent
        self.exponent = 0

    def on_collision(self) -> int:
        self.exponent = min(self.max_exponent, self.exponent + 1)
        window = (1 << self.exponent) - 1
        return self.rng.randint(0, window) if window > 0 else 0

    def on_success(self) -> None:
        self.exponent = max(0, self.exponent - 1)

    def deferral(self) -> int:
        if self.exponent == 0:
            return 0
        window = (1 << self.exponent) - 1
        return self.rng.randint(0, window)

    def on_observed_success(self, count: int = 1) -> None:
        self.exponent = max(0, self.exponent - count)


class BroadcastAwareBackoff(BackoffPolicy):
    """Contention-window backoff that exploits the broadcast medium.

    Section 5.3 observes that adaptive collision-resolution policies are easy
    on this network "because all nodes have all the information at all
    times".  This policy keeps a running estimate of the number of contending
    transmitters: collisions grow the estimate multiplicatively (as in
    exponential backoff), while every successful transmission heard on the
    channel shrinks it by one — a success means one contender has left the
    fray.  Both retries and fresh transmissions under contention are spread
    over a window proportional to the estimate, which keeps the channel close
    to fully utilized during synchronization bursts (barriers, reductions)
    without starving the last arrivals.
    """

    STATE = ("estimate",)
    REBUILT = ("rng", "max_window")

    def __init__(self, rng: DeterministicRng, max_window: int = 512) -> None:
        if max_window < 2:
            raise ConfigurationError("max_window must be >= 2")
        self.rng = rng
        self.max_window = max_window
        self.estimate = 1.0

    def _window(self) -> int:
        return max(1, min(self.max_window, int(round(self.estimate))))

    def on_collision(self) -> int:
        self.estimate = min(float(self.max_window), max(2.0, self.estimate * 2.0))
        return self.rng.randint(0, self._window() - 1)

    def on_success(self) -> None:
        self.estimate = max(1.0, self.estimate / 2.0)

    def on_observed_success(self, count: int = 1) -> None:
        # One subtraction of ``count`` equals ``count`` steps of one, bit for
        # bit: halving and doubling keep the estimate at M / 2**f for an
        # integer M <= max_window, so every difference is exact until the
        # clamp, and the clamp absorbs the rest.
        self.estimate = max(1.0, self.estimate - count)

    def deferral(self) -> int:
        window = self._window()
        if window <= 1:
            return 0
        return self.rng.randint(0, window - 1)


class FixedBackoff(BackoffPolicy):
    """Uniform backoff over a fixed window (ablation baseline)."""

    REBUILT = ("rng", "window")

    def __init__(self, rng: DeterministicRng, window: int = 8) -> None:
        if window < 1:
            raise ConfigurationError("window must be >= 1")
        self.rng = rng
        self.window = window

    def on_collision(self) -> int:
        return self.rng.randint(0, self.window - 1)

    def on_success(self) -> None:
        """A fixed window does not adapt to contention."""


def make_backoff(config: BackoffConfig, rng: DeterministicRng) -> BackoffPolicy:
    """Build the backoff policy named by the configuration."""
    if config.kind == "broadcast_aware":
        return BroadcastAwareBackoff(rng, max_window=1 << config.max_exponent)
    if config.kind == "exponential":
        return ExponentialBackoff(rng, max_exponent=config.max_exponent)
    if config.kind == "fixed":
        return FixedBackoff(rng, window=config.fixed_window)
    raise ConfigurationError(f"unknown backoff kind {config.kind!r}")
