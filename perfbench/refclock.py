"""A clock that reads seconds at a fixed reference machine speed.

The benchmark runs on a few vCPUs of a shared host whose speed flips
between states up to 1.8x apart, within milliseconds and for seconds at
a time, and in another mix from one minute to the next.  Wall seconds
then tell more about the host's neighbours than about hocofin.  So while
the clock runs, a SIGALRM every ``PERIOD`` seconds times ``probe``, a
fixed pure-Python loop, and the clock advances over the interval that
follows at ``REF_PROBE_S / probe time`` seconds per wall second: when the
machine runs at half speed the clock runs at half rate.  The probe's own
time is not counted.  One second on this clock is the work the machine
does in one wall second when ``probe`` takes ``REF_PROBE_S``.

    refclock.start()
    t0 = refclock.now()
    ...                      # the code being timed
    seconds = refclock.now() - t0
    refclock.stop()

``now`` reads wall seconds (``time.perf_counter``) while the clock is
stopped.  The probe allocates no objects the garbage collector tracks,
so it never triggers a collection of the program's heap.
"""

import signal
import time

# seconds between probes; each probe costs about 2% of that
PERIOD = 0.01
# the probe's duration at the reference speed (about its median on a
# 2-vCPU KVM guest of a shared Xeon host)
REF_PROBE_S = 2.0e-4

_TABLE = {(a, b): (a * 7 + b * 3) % 12 for a in range(12) for b in range(12)}
_KEYS = [((i * 5) % 12, (i * 7 + 3) % 12) for i in range(400)]
_BIG = 3 ** 80
_MOD = 10 ** 30 + 57


def _mix(acc, x):
    return (acc * 31 + x * _BIG) % _MOD


def probe():
    """Fixed interpreter work: tuple-keyed dict lookups, calls and
    multi-word integer arithmetic, as in hocofin's inner loops."""
    acc = 0
    for k in _KEYS:
        acc = _mix(acc, _TABLE[k])
    return acc


class _State:
    busy = False
    # (clock reading, wall time, clock seconds per wall second) at the
    # start of the current interval; one tuple, so that a probe landing
    # in the middle of ``now`` cannot mix two intervals
    anchor = (0.0, 0.0, 1.0)
    probes = 0
    probe_s = 0.0   # wall seconds spent in probes


_state = _State()


def _measure():
    """Close the current interval, run a probe and open the next one."""
    s = _state
    t = time.perf_counter()
    base, mark, rate = s.anchor
    base += (t - mark) * rate
    probe()
    end = time.perf_counter()
    s.anchor = (base, end, REF_PROBE_S / (end - t))
    s.probes += 1
    s.probe_s += end - t


def _tick(signum, frame):
    if _state.busy:
        return
    _state.busy = True
    try:
        _measure()
    finally:
        _state.busy = False


def start():
    """Start the clock; it keeps its reading from any earlier run."""
    _state.anchor = (now(), time.perf_counter(), 1.0)
    _measure()
    signal.signal(signal.SIGALRM, _tick)
    signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)


def stop():
    signal.setitimer(signal.ITIMER_REAL, 0)
    signal.signal(signal.SIGALRM, signal.SIG_DFL)
    _state.anchor = (now(), time.perf_counter(), 1.0)


def now():
    base, mark, rate = _state.anchor
    return base + (time.perf_counter() - mark) * rate


def probe_stats():
    """(probes run, wall seconds spent in them) since the module loaded."""
    return _state.probes, _state.probe_s
