"""Reservation-based soft real-time scheduling simulator with stochastic
control-loop stability analysis."""

from .errors import ConfigError, NumericalError
from .taskmodel import (Activation, Beta, Deterministic, Empirical, JobRecord,
                        ReservationSpec, Scripted, TaskSpec, Uniform,
                        utilization)
from .simcore import SchedulerConfig, ServerState, Trace, simulate
from .analysis import MissConstraint, check_mn, dropout_probability, tardiness
from .controlcore import (ClosedLoopModes, ContinuousLti, ControllerLti,
                          DiscreteLti, c2d, dlqr, kalman_gain, lqg_assemble,
                          second_moment_stable, spectral_radius, stability_matrix)
from .moc import (CoSimResult, DelayChain, MocKind, build_delay_chain,
                  cosimulate, cs_modes, service_periods, stabilizes,
                  tt_maxb_modes, verdicts)
from .sweep import SweepConfig, bandwidth_sweep, random_system
from .render import render_trace

__version__ = "0.1.0"
