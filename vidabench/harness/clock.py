"""Times in nominal-machine seconds.

The sandbox this benchmark was built on flips between two CPU speeds about
25% apart every few seconds (a pure-Python loop takes 18.5 ms or 23.3 ms,
nothing else running), so a run's median depends on which speed it happened
to see: raw wall-clock medians of ten runs spread by 15-20% of their median.
Every phase is therefore bracketed by a fixed reference kernel, and each time
measured inside the phase is multiplied by ``NOMINAL_S / kernel time``: what
it would have taken at the nominal speed. That brought the spread to 3-7%.
On a steady machine the factor is a constant and changes no comparison.

The repeats of ``server_closed_loop`` stay in raw seconds
(``Workload.normalize_repeats``): its threads keep both hardware threads busy
themselves, the kernel measured alone does not see what they see, and
rescaling took the spread of its ``wall_s`` from 9% to 24%.

The kernel does what the engine's hot loops do (parse integers, update a
dict, build a selection vector, gather, join and split text); a bare
arithmetic loop tracked the engine's slow-downs visibly worse.
"""

from __future__ import annotations

from time import perf_counter

#: the kernel's time at the faster of the sandbox's two speeds
NOMINAL_S = 0.011

_TEXT = [str(i * 7919 % 100_003) for i in range(20_000)]


def kernel_seconds() -> float:
    t0 = perf_counter()
    for _ in range(3):
        ints = [int(x) for x in _TEXT]
        sums: dict[int, int] = {}
        for v in ints:
            sums[v & 1023] = sums.get(v & 1023, 0) + v
        selected = [i for i, v in enumerate(ints) if v > 90_000]
        sum(ints[i] for i in selected)
        ",".join(_TEXT[:5000]).split(",")
    return perf_counter() - t0


def timed(fn, *args, **kwargs):
    t0 = perf_counter()
    out = fn(*args, **kwargs)
    return perf_counter() - t0, out


def normalized(workload, phase, rescale: bool = True):
    """Run ``phase`` between two kernel runs; returns (nominal seconds,
    result) and rescales, in place, every operation the phase timed: the
    ops and wall-clock of a returned repeat and the workload's new side ops."""
    if not rescale:
        return timed(phase)
    mark = len(workload.side_ops)
    before = kernel_seconds()
    seconds, result = timed(phase)
    factor = NOMINAL_S / ((before + kernel_seconds()) / 2)
    ops = workload.side_ops[mark:]
    if hasattr(result, "ops"):
        result.wall_s *= factor
        ops = ops + result.ops
    for op in ops:
        op.seconds *= factor
    return seconds * factor, result
