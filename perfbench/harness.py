"""Closed-loop operation runner, percentiles and result canonicalization.

One caller issues the next operation only after the previous one returned.
Each operation is timed alone; its result is checked after the clock stops.
A speed probe, fixed work, runs between operations (see `Probe`), so each
operation's time can be read at the machine's full speed.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import resource
import statistics
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable

MIN_OPS = 100  # p90 needs at least 10 samples beyond it


@dataclass
class Op:
    """One benchmark operation: `run` is timed, `check` is not."""

    key: str  # stable name, used to look up the recorded reference
    run: Callable[[], Any]
    check: Callable[[Any], bool]
    canon: Callable[[Any], Any] = lambda result: result  # JSON-able canonical form
    expect: str | None = None  # digest of the recorded canonical form, when one applies


@dataclass
class Tally:
    durations: list = field(default_factory=list)
    keys: list = field(default_factory=list)  # op key of each duration
    probes: list = field(default_factory=list)  # probe time around each duration
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)

    def add(self, op, seconds, problem, probe_s):
        self.durations.append(seconds)
        self.keys.append(op.key)
        self.probes.append(probe_s)
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            if len(self.failures) < 5:
                self.failures.append(f"{op.key}: {problem}")

    def extend(self, other):
        self.durations += other.durations
        self.keys += other.keys
        self.probes += other.probes
        self.attempted += other.attempted
        self.failed += other.failed
        self.failures = (self.failures + other.failures)[:5]

    @property
    def completed(self):
        return self.attempted - self.failed

    @property
    def failed_ratio(self):
        return self.failed / self.attempted if self.attempted else 0.0


def percentile(samples, q):
    """Nearest-rank percentile; refuses when fewer than 10 samples lie beyond it."""
    if not 0 < q < 1:
        raise ValueError("percentile must lie strictly between 0 and 1")
    ordered = sorted(samples)
    rank = math.ceil(q * len(ordered))
    if len(ordered) - rank < 10:
        raise ValueError(
            f"p{round(q * 100)} of {len(ordered)} samples has {len(ordered) - rank} beyond it; need 10"
        )
    return ordered[rank - 1]


def digest(canonical):
    text = json.dumps(canonical, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def problem_with(op, result):
    """None when the result passes its check and matches the reference, else why not."""
    try:
        if not op.check(result):
            return "wrong result"
        if op.expect is not None and digest(op.canon(result)) != op.expect:
            return "differs from the recorded reference"
    except Exception as exc:  # a crashing check is a failed operation, not a crashed run
        return f"check raised {type(exc).__name__}: {exc}"
    return None


@dataclass(frozen=True)
class Probe:
    """Fixed work timed next to every operation and build: the machine's speed
    at that moment.  `reference_s` is its time at full speed; see
    `typical_times` for how the two are used."""

    work: Callable[[], Any]
    reference_s: float

    def time(self, clock=time.perf_counter):
        enabled = gc.isenabled()
        gc.disable()  # a collection would time the library's heap, not the machine
        try:
            t0 = clock()
            self.work()
            return clock() - t0
        finally:
            if enabled:
                gc.enable()


def _fraction_work():
    total = Fraction(0)
    for i in range(1, 150):
        total += Fraction(i, i + 1) * Fraction(3, i + 2)
    return total


# Fraction arithmetic, the library's staple; 0.575 ms is its fastest time on
# a shared 2-vCPU virtual machine with Python 3.11.7
INTERPRETER = Probe(_fraction_work, 0.575e-3)


def build(builders, probe=INTERPRETER, clock=time.perf_counter):
    """Build a pool: each builder constructs its sets and returns its ops.

    Returns the ops and, for each builder, its build time and the mean of the
    probes taken just before and just after it.
    """
    ops, times = [], []
    before = probe.time(clock)
    for make in builders:
        t0 = clock()
        ops += make()
        seconds = clock() - t0
        after = probe.time(clock)
        times.append((seconds, (before + after) / 2))
        before = after
    return ops, times


def run_pass(ops, invoke=None, probe=INTERPRETER, clock=time.perf_counter):
    """Run every op of the pool once, in order; `invoke(op)` replaces
    `op.run()` when given (the traced run opens its operation span there).
    The probe runs before every op and after the last; each op is tallied
    with the mean of the probes on either side of it."""
    tally = Tally()
    before = probe.time(clock)
    for op in ops:
        t0 = clock()
        try:
            result = invoke(op) if invoke else op.run()
            raised = None
        except Exception as exc:
            raised = f"raised {type(exc).__name__}: {exc}"
        elapsed = clock() - t0
        after = probe.time(clock)
        tally.add(op, elapsed, raised or problem_with(op, result), (before + after) / 2)
        before = after
    return tally


def run_passes(builders, seconds, probe=INTERPRETER, attach=lambda ops: None, min_ops=MIN_OPS,
               clock=time.perf_counter):
    """Whole passes over a freshly built pool until `seconds` and `min_ops`
    have both passed.  Returns the Tally and, per pass, each builder's build
    time with its probe (see `build`).

    Every pass builds its sets anew, timed as set-up, so a cache that an
    operation fills lazily on a set is charged to that operation on every
    pass.  Whole passes give every op of the pool the same number of runs.
    `attach(ops)` runs untimed after each build (it adds the references).
    """
    tally, setups = Tally(), []
    start = clock()
    while tally.attempted < min_ops or clock() - start < seconds:
        ops, times = build(builders, probe, clock)
        setups.append(times)
        attach(ops)
        tally.extend(run_pass(ops, probe=probe, clock=clock))
    return tally, setups


def at_full_speed(seconds, probe_s, reference_s):
    """A time taken while the probe read `probe_s`, scaled to the machine's
    full speed, at which the probe reads `reference_s`."""
    return seconds * reference_s / probe_s


def typical_times(tally, reference_s):
    """Each operation's median time over its repeats in the run, every repeat
    first scaled to full speed by the probes on either side of it.

    On a shared machine the interpreter's speed moves between short bursts at
    full speed and stretches, up to a minute long, 1.5 to 2 times slower.  An
    operation that takes a tenth of a second rarely fits in a burst, and one
    run may hold no burst at all, so neither the fastest nor the median raw
    repeat is steady from run to run.  The probes run in the same stretch
    as the operation, so the ratio of the two is the operation's cost in probe
    units, whatever the stretch; the probe's fixed full-speed time turns that
    back into seconds.
    """
    times = {}
    for key, seconds, probe_s in zip(tally.keys, tally.durations, tally.probes):
        times.setdefault(key, []).append(at_full_speed(seconds, probe_s, reference_s))
    return {key: statistics.median(repeats) for key, repeats in times.items()}


def setup_time(setups, reference_s):
    """The pool's build time: the sum over builders of each one's median build
    over the passes, every build scaled to full speed like an operation."""
    return sum(statistics.median(at_full_speed(seconds, probe_s, reference_s)
                                 for seconds, probe_s in builds)
               for builds in zip(*setups))


def end_to_end(tally, setups, peak_rss_mb, reference_s):
    """ops_per_s: completed operations per second over one pool pass, each op at
    its typical time; percentiles: over every operation run, each at its op's
    typical time; setup_s: see `setup_time`.  Times are at full speed, by the
    probe whose full-speed time is `reference_s`.

    The percentile guard counts operation runs.  A pool of n distinct ops puts
    about n / 10 of them beyond p90, so p90 is a quantile of the pool's op
    costs, each repeated once per pass, not a tail of independent samples.
    """
    typical = typical_times(tally, reference_s)
    samples = [typical[key] for key in tally.keys]
    return {
        "ops_per_s": (len(typical) / sum(typical.values()) * tally.completed / tally.attempted, "1/s"),
        "op_p50_ms": (percentile(samples, 0.5) * 1e3, "ms"),
        "op_p90_ms": (percentile(samples, 0.9) * 1e3, "ms"),
        "setup_s": (setup_time(setups, reference_s), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def peak_rss_mb(children=False):
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024  # Linux reports KiB


# ---------------------------------------------------------------------------
# canonical forms: plain data that names geometry, not the library's layout

def rat(q):
    q = Fraction(q)
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def vec(v):
    return [rat(x) for x in v]


def polytope3(p):
    """Vertices, facet planes and edges of a VPolytope3, plus its cone."""
    q = p.bounded
    return {
        "cone": sorted(vec(g) for g in p.cone.gens),
        "vertices": sorted(vec(v) for v in q.vertices),
        "dim": q.dim,
        "facets": sorted([vec(f.normal), rat(f.offset)] for f in q.facets),
        "edges": sorted(sorted(vec(q.vertices[i]) for i in e) for e in q.edges),
    }


def polygon(a):
    """Canonical triple (cone, anchor, edge measure) of a VPolygon."""
    return {
        "cone": [vec(g) for g in a.cone.gens],
        "anchor": vec(a.anchor),
        "measure": [[list(u), rat(lam)] for u, lam in a.measure.entries],
    }


def pl_function(fn):
    return [vec(fn.breakpoints), vec(fn.values)]


def edge_pairs(pairs):
    return sorted([[vec(p) for p in ea.endpoints], [vec(p) for p in eb.endpoints]]
                  for ea, eb in pairs)
