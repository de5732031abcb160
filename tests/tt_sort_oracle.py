"""Reference tt_sort co-simulation: the scalar per-trajectory loop softrt
shipped before the trajectory-vectorised rewrite, kept verbatim as the
oracle for the differential test in test_tt_sort_differential.py.

Each trajectory runs on its own, one reservation period per step, keeping
its pending commands in a dict keyed by due step.  Only the result type,
the verdict rule, the discretisation and the demand streams come from the
package.
"""

from __future__ import annotations

import numpy as np

from softrt.controlcore import c2d
from softrt.moc import CoSimResult, _verdict
from softrt.taskmodel import derived_seed, sample_exec_times


def _cosim_tt_sort(plant, K, max_delay, model, Q, R, T, tick_seconds, horizon,
                   n_traj, seed) -> CoSimResult:
    """Buffered activations with backlog memory, stepped per reservation period."""
    F = T // R
    dR = c2d(plant, R * tick_seconds)
    A_R, B_R = dR.A, dR.B
    Km = np.asarray(K, dtype=float)
    n, p = A_R.shape[0], B_R.shape[1]
    n_jobs = horizon // F + 2
    est = np.zeros(horizon + 1)
    first_delays = None
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(n_traj):
            s_vals = -(-sample_exec_times(model, n_jobs, derived_seed(seed, "traj", i)) // Q)
            x = np.zeros(n)
            x[0] = 1.0
            u = np.zeros(p)
            due = {}
            backlog = 0
            delays = []
            est[0] += 1.0
            job = 0
            for m in range(horizon):
                if m in due:
                    u = due.pop(m)
                if m % F == 0:
                    s = int(s_vals[job])
                    job += 1
                    delays.append(backlog)
                    fin = backlog + s
                    if fin - F > max_delay:
                        backlog = 0
                        due.clear()  # cancellation discards queued work
                    else:
                        due[m + fin] = -Km @ x
                        backlog = max(0, fin - F)
                x = A_R @ x + B_R @ u
                est[m + 1] += float(x @ x + u @ u)
            if first_delays is None:
                first_delays = np.asarray(delays, dtype=np.int64)
    est /= n_traj
    return CoSimResult(est, n_traj, _verdict(est),
                       delay_sequence=first_delays)
