"""How fast the machine runs at the moment, and times scaled to a fixed speed.

On a shared machine the same pure-Python code runs at a speed that moves by
a third or more from one spell of seconds to the next, and within a second
too, as other guests of the host take turns on its cores.  Process CPU time
moves with the wall time: the guest is not told when its core was taken
(steal time stays near 0).  So the harness times a fixed piece of work
(`calibrate`) right before and right after every timed item and cold
start, for as long as `window_ms` asks (before an item, for its time in
the pass before), and reports each time scaled to the speed at which that
work takes REFERENCE_MS:

    scaled = measured * REFERENCE_MS / (mean time of one run of the work
                                        over the runs before and after)

The work uses nothing from `scissors`, so a change to the program moves the
item times and never the calibration.  It is the program's kind of work:
`Fraction` arithmetic, hashing of tuples holding `Fraction`s, dict updates.
REFERENCE_MS is near what the work takes on a quiet shared 2-core Intel Xeon
VM, so scaled times read close to wall times there.
"""

import time
from fractions import Fraction

REFERENCE_MS = 5.0
SHARE = 0.25
FLOOR_MS = 50.0


def _work() -> int:
    acc = {}
    x = Fraction(1, 3)
    for i in range(1, 400):
        key = (i % 17, i % 5, Fraction(i, 7))
        acc[key] = acc.get(key, 0) + x * i
        x = (x + Fraction(1, i)) / 2
    return len(acc)


def calibrate(least_ms=0.0, so_far=(0.0, 0)) -> list:
    """[mean ms of one run of the fixed work, runs]: the work is repeated
    until `least_ms` have passed (once at least), counting the runs of
    `so_far`, a calibration that ended just now.  The mean, not the median,
    is the average speed over the whole window, which is what a timed item
    of about that length sees."""
    mean, runs = so_far
    before = mean * runs
    spent = before
    t0 = time.perf_counter()
    while runs == 0 or spent < least_ms:
        _work()
        runs += 1
        spent = before + (time.perf_counter() - t0) * 1000
    return [spent / runs, runs]


def window_ms(item_ms) -> float:
    """Least calibration time on each side of an item of `item_ms`: as long
    as the item up to FLOOR_MS, and SHARE of it beyond.  A window of a few
    ms is a poor sample of a speed that changes within a second."""
    return max(SHARE * item_ms, min(item_ms, FLOOR_MS))


def scaled(value, *calibrations) -> float:
    """`value` (any time unit) at the reference speed, from the
    calibrations taken around it, each weighted by its runs."""
    runs = sum(n for _, n in calibrations)
    spent = sum(ms * n for ms, n in calibrations)
    return value * REFERENCE_MS * runs / spent


_work()  # the first call pays one-time costs that no later call does
