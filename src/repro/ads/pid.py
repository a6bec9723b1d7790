"""PID controller for actuation smoothing.

The ADS planner produces desired accelerations; a PID controller smooths the
commands so "the AV does not make any sudden changes" in its actuation (paper
§II-A).  Emergency braking bypasses the smoothing with a much higher allowed
jerk so that safety-critical decelerations are not delayed.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["PIDController", "ActuationSmoother"]


class PIDController:
    """Textbook PID controller with output clamping and anti-windup."""

    def __init__(
        self,
        kp: float,
        ki: float = 0.0,
        kd: float = 0.0,
        output_min: float = float("-inf"),
        output_max: float = float("inf"),
    ):
        if output_max < output_min:
            raise ValueError("output_max must be at least output_min")
        self.kp = kp
        self.ki = ki
        self.kd = kd
        self.output_min = output_min
        self.output_max = output_max
        self._integral = 0.0
        self._previous_error: float | None = None

    def reset(self) -> None:
        """Clear the integral and derivative state."""
        self._integral = 0.0
        self._previous_error = None

    def update(self, error: float, dt: float) -> float:
        """Advance the controller by one step and return the control output."""
        if dt <= 0:
            raise ValueError("dt must be positive")
        derivative = 0.0
        if self._previous_error is not None:
            derivative = (error - self._previous_error) / dt
        self._previous_error = error
        candidate_integral = self._integral + error * dt
        output = self.kp * error + self.ki * candidate_integral + self.kd * derivative
        if self.output_min <= output <= self.output_max:
            # Only accumulate the integral while the output is unsaturated
            # (conditional anti-windup).
            self._integral = candidate_integral
            return output
        output = self.output_min if self.output_min > output else output
        return self.output_max if self.output_max < output else output


@dataclass
class ActuationSmoother:
    """Jerk-limited smoothing of the planner's acceleration command.

    Normal driving is limited to a comfortable jerk; an emergency-brake command
    is allowed a much higher jerk so the full braking force is reached within a
    frame or two.
    """

    comfort_jerk_mps3: float = 3.0
    emergency_jerk_mps3: float = 40.0
    _last_accel: float = 0.0

    def reset(self) -> None:
        self._last_accel = 0.0

    def smooth(self, desired_accel: float, dt: float, emergency: bool) -> float:
        """Limit the rate of change of the acceleration command."""
        if dt <= 0:
            raise ValueError("dt must be positive")
        jerk_limit = self.emergency_jerk_mps3 if emergency else self.comfort_jerk_mps3
        max_change = jerk_limit * dt
        # min(max(change, -max_change), max_change), without the builtin calls
        # (this runs once per lane-step on the batch engine).
        change = desired_accel - self._last_accel
        change = -max_change if -max_change > change else change
        change = max_change if max_change < change else change
        self._last_accel += change
        return self._last_accel
