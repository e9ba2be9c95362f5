"""A clock that reads the worker's CPU time at a fixed reference host speed.

On a shared VM the speed of the same pure-Python code drifts by 20-40%
within seconds, and other processes take turns on the cores, so plain wall
time of one run says as much about the neighbours as about grig.
``HostClock`` reads the process's CPU time, which leaves out the time the
worker waits for a core, and samples the host's speed while the work runs:
every ``TICK_S`` a signal handler times one fixed reference loop (about
``REF_S`` long).  The CPU time between two samples is scaled by ``REF_S`` / (median of the last ``WINDOW`` sample durations), and
the samples themselves are left out.  A change that makes grig do less work
lowers ``now()`` differences just as it lowers wall time; a host that slows
down slows the reference loop alike and leaves them where they were.  On an
idle host a worker's CPU time is its wall time, since it runs one thread
and waits on nothing.

The handler runs between bytecodes of the main thread, also inside long
calls such as a level-10 chain build, so no operation is too long to be
sampled.  The ticks come from a wall-clock timer (SIGALRM): while a
process-wide CPU timer is armed, Linux updates the process's CPU clock only
at scheduler ticks, too coarsely to time one sample.  Only a worker with
nothing else on SIGALRM may use it.
"""

import signal
from time import process_time

REF_S = 250e-6   # reference-loop CPU time that defines one reference second
TICK_S = 0.01
WINDOW = 7


def reference_loop():
    """Fixed pure-Python work that runs no grig code: integer arithmetic
    and small dict stores."""
    d = {}
    s = 0
    for i in range(2400):
        s += i * i % 7
        d[i & 63] = s
    return s


class HostClock:
    def __init__(self):
        # CPU time the process used before the clock started (interpreter
        # start-up); ``first_scale`` converts it to reference seconds
        self.started = process_time()
        self.durations = []
        self.spent = 0.0
        self._busy = False
        # (reference seconds up to `last`, CPU time at the end of the last sample,
        #  current scale); replaced as one tuple so `now` reads it whole
        self._state = (0.0, self.started, 1.0)
        self._sample()
        self.first_scale = self._state[2]
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)

    def _sample(self):
        t0 = process_time()
        reference_loop()
        t1 = process_time()
        self.durations.append(t1 - t0)
        self.spent += t1 - t0
        recent = sorted(self.durations[-WINDOW:])
        scale = REF_S / recent[len(recent) // 2]
        ref, last, _ = self._state
        self._state = (ref + (t0 - last) * scale, t1, scale)

    def _tick(self, signum, frame):
        if self._busy:  # a delayed tick landed inside the previous one
            return
        self._busy = True
        try:
            self._sample()
        finally:
            self._busy = False

    def now(self):
        """Reference seconds of CPU time since the clock started, samples
        excluded."""
        ref, last, scale = self._state
        return ref + (process_time() - last) * scale

    def raw(self):
        """CPU seconds since the clock started, samples excluded."""
        return process_time() - self.started - self.spent

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def host_speed(self):
        """Median reference speed over the clock's life (1 = nominal)."""
        d = sorted(self.durations)
        return REF_S / d[len(d) // 2]
