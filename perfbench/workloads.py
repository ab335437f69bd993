"""The three benchmark workloads, their inputs and their correctness checks.

Each workload is a closed loop: one caller, one thread, every operation
waits for the previous one.  The constructor is the set-up: it builds
everything a run needs (rings, engines, ambient contexts, the seeded input
plan), and `run_pass()` executes one fixed-composition pass of
operations; a run repeats passes until its time is up.  Work that only
checks results runs under `rec.paused()`, outside any traced span.

Timing on a shared machine: the host slows whole stretches of a run, and
sometimes a whole run, by up to half.  A fixed pure-Python reference
kernel is therefore timed every KERNEL_EVERY_S between timed regions, and
each operation's time is scaled by KERNEL_REFERENCE_S over the kernel's
median time in a window around that operation.  Reported times read as
times on a machine where the kernel takes KERNEL_REFERENCE_S.  The kernel
does not touch galcodes and runs with the cyclic garbage collector off,
so a collection falls into the operations, not into the kernel; a change
to galcodes moves the scaled times in full unless it slows the whole
interpreter (see README.md).

Each workload class names `pass_s`, the wall time of one untraced pass
on the machine the benchmark was built on; a traced run uses it to fix
its number of passes.

galcodes is called through the package namespace (`gc.abelian_count`), so
the wrappers a traced run installs there are the ones called.
"""

from __future__ import annotations

import bisect
import gc as pygc
import hashlib
import itertools
import json
import math
import random
import statistics
import time
import traceback
from collections import defaultdict
from pathlib import Path

import galcodes as gc
from galcodes.counting import AutoProvider
from galcodes.ideals import ExhaustiveGroupRing

# every exhaustive bound is passed explicitly, so GALCODES_MAX_RING_SIZE
# in the caller's environment cannot change a workload
EXHAUSTIVE_BOUND = 1 << 16

EXPECTED_PATH = Path(__file__).with_name("expected.json")

EUCLIDEAN, HERMITIAN, TOTAL = "euclidean", "hermitian", "total"

KERNEL_EVERY_S = 0.05
KERNEL_REFERENCE_S = 0.0005
KERNEL_WINDOW_S = 0.1   # kernel samples this close to an operation set its scale


def count_digest(n: int) -> str:
    """Short digest of an exact count; counts run to millions of digits."""
    raw = n.to_bytes((n.bit_length() + 7) // 8, "little")
    return hashlib.blake2b(raw, digest_size=8).hexdigest()


def load_expected() -> dict:
    with open(EXPECTED_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def reference_kernel() -> int:
    """Fixed pure-Python work of the kind galcodes does: tuples of residues,
    dict counting, small big-int products.  Its time tracks machine speed."""
    row = tuple(range(48))
    seen: dict = {}
    acc = 1
    for i in range(120):
        row = tuple((a * 5 + i) % 251 for a in row)
        seen[row[i % 48]] = seen.get(row[i % 48], 0) + 1
        acc = acc * (row[0] + 3) % (1 << 521)
    return len(seen) + acc % 7


def time_kernel() -> float:
    """Seconds of one reference kernel, with no garbage collection inside."""
    pygc.disable()
    try:
        start = time.perf_counter()
        reference_kernel()
        return time.perf_counter() - start
    finally:
        pygc.enable()


class Tally:
    """Operations attempted and failed, timing samples and kernel timings."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.samples: defaultdict = defaultdict(list)  # series -> [(end, seconds, units)]
        self.kernel: list[tuple[float, float]] = []    # (end, seconds)
        self._next_kernel = 0.0

    def pace(self) -> None:
        """Between timed regions: time the reference kernel when one is due."""
        if time.perf_counter() >= self._next_kernel:
            seconds = time_kernel()
            end = time.perf_counter()
            self.kernel.append((end, seconds))
            self._next_kernel = end + KERNEL_EVERY_S

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(what)

    def call(self, fn):
        """Run one operation; (result, seconds), result None when it raised."""
        self.pace()
        self.attempted += 1
        start = time.perf_counter()
        try:
            result = fn()
        except Exception:  # a failed operation is counted, not fatal
            self.fail(traceback.format_exc())
            return None, time.perf_counter() - start
        return result, time.perf_counter() - start

    def record(self, series: str, seconds: float, units: int = 1, end=None) -> None:
        """File one operation that ended at `end` (default now) and did
        `units` of the series' work."""
        self.samples[series].append((time.perf_counter() if end is None else end,
                                     seconds, units))

    def _scaled(self, series: str) -> list[tuple[float, int]]:
        """(scaled seconds, units) of each sample of the series."""
        ends = [end for end, _ in self.kernel]
        out = []
        for end, seconds, units in self.samples[series]:
            lo = bisect.bisect_left(ends, end - seconds - KERNEL_WINDOW_S)
            hi = bisect.bisect_right(ends, end + KERNEL_WINDOW_S)
            if hi - lo < 2:
                # a long operation: the nearest kernel timings on either side
                lo, hi = max(0, lo - 2), min(len(ends), hi + 2)
            near = [k for _, k in self.kernel[lo:hi]]
            scale = KERNEL_REFERENCE_S / statistics.median(near) if near else 1.0
            out.append((seconds * scale, units))
        return out

    def count(self, series: str) -> int:
        return len(self.samples[series])

    def rate(self, series: str) -> float:
        """Work units per scaled second of operation time."""
        scaled = self._scaled(series)
        busy = sum(seconds for seconds, _ in scaled)
        return sum(units for _, units in scaled) / busy if busy else 0.0

    def latency(self, series: str, q: float):
        """(milliseconds, unit, sample count) at quantile q, nearest rank."""
        xs = sorted(seconds for seconds, _ in self._scaled(series))
        if not xs:
            return 0.0, "ms", 0
        return xs[max(1, math.ceil(len(xs) * q)) - 1] * 1000.0, "ms", len(xs)


def _group(factors) -> gc.AbelianGroup:
    return gc.AbelianGroup(tuple(factors))


# -- count_stream ----------------------------------------------------------------

COUNT_FUNCTIONS = {TOTAL: "abelian_count", EUCLIDEAN: "euclidean_abelian_count",
                   HERMITIAN: "hermitian_abelian_count"}

STRATA = 300            # queries per pass, one from each cost stratum
SMOKE_STRATA = 10
REPEAT_SHARE = 0.4      # share of slots drawn from the skewed repeat pool
POOL_PER_STRATUM = 2    # repeat pool entries per stratum, Zipf-weighted
POOL_WEIGHTS = tuple(1.0 / (k + 1) for k in range(POOL_PER_STRATUM))
SMOKE_MAX_COST_MS = 1.0


class CountStream:
    """Product-formula queries over a fixed universe of parameter sets.

    The universe (expected.json) spreads |A| log-uniformly; it is cut into
    STRATA equal slices by the recorded cost of each query, and every pass
    takes one row from each slice in seeded order, walking a seeded
    permutation of the slice.  A share of slots repeats rows from a small
    Zipf-weighted pool per slice; the "fresh" series holds only first
    occurrences.
    """

    name = "count_stream"
    pass_s = 5.0

    def __init__(self, seed: int, smoke: bool, rec):
        rows = load_expected()["count_stream"]
        if smoke:
            rows = [row for row in rows if row["cost_ms"] <= SMOKE_MAX_COST_MS]
        strata_count = SMOKE_STRATA if smoke else STRATA
        self.rng = random.Random(seed)
        self.provider = AutoProvider(bound=EXHAUSTIVE_BOUND)
        self.queries = []
        for row in rows:
            spec = gc.construct_ring(row["p"], row["r"], row["s"])
            self.queries.append((getattr(gc, COUNT_FUNCTIONS[row["duality"]]),
                                 spec.p, spec.r, spec.s, _group(row["A"]), _group(row["P"]),
                                 row["bits"], row["digest"]))
        order = sorted(range(len(rows)), key=lambda i: (rows[i]["cost_ms"], i))
        size = len(order) / strata_count
        strata = [order[round(k * size):round((k + 1) * size)] for k in range(strata_count)]
        self.walks = [itertools.cycle(self.rng.sample(stratum, len(stratum)))
                      for stratum in strata]
        self.pools = [self.rng.sample(stratum, POOL_PER_STRATUM) for stratum in strata]
        self.issued: set = set()

    def run_pass(self, tally: Tally, rec) -> None:
        rng = self.rng
        slots = list(range(len(self.walks)))
        rng.shuffle(slots)
        for k in slots:
            if rng.random() < REPEAT_SHARE:
                index = rng.choices(self.pools[k], POOL_WEIGHTS)[0]
            else:
                index = next(self.walks[k])
            fn, p, r, s, a_group, p_group, bits, digest = self.queries[index]
            fresh = index not in self.issued
            self.issued.add(index)
            with rec.operation():
                report, seconds = tally.call(
                    lambda: fn(p, r, s, a_group, p_group, provider=self.provider))
            if report is None:
                continue
            with rec.paused():
                ok = report.count.bit_length() == bits and count_digest(report.count) == digest
            if not ok:
                tally.fail(f"{fn.__name__}({p}, {r}, {s}, {a_group}, {p_group}) "
                           f"= {report.count.bit_length()}-bit count, expected {bits} bits")
                continue
            tally.record("query", seconds)
            if fresh:
                tally.record("fresh", seconds)

    def report(self, tally: Tally) -> list:
        n, fresh = tally.count("query"), tally.count("fresh")
        return [
            ("count.queries_per_s", "ops_per_s", tally.rate("query"), "1/s", n),
            ("count.fresh_queries_per_s", "aux_per_s", tally.rate("fresh"), "1/s", fresh),
            ("count.p50_ms", "p50_ms", *tally.latency("query", 0.50)),
            ("count.p99_ms", "tail_ms", *tally.latency("query", 0.99)),
            ("count.repeat_share", None, 1 - fresh / n if n else 0.0, "ratio", n),
        ]


# -- ideal_enum ------------------------------------------------------------------

# (p, r, s, coprime factors A, Sylow p-part factors P); G = A x P
IDEAL_RINGS = (
    (2, 2, 1, (7,), ()),        # Z4[Z7]: 27 ideals in 4^7 elements, principal scan
    (2, 2, 2, (3,), ()),        # GR(2^2,2)[Z3]: s even, Hermitian too
    (3, 3, 1, (), (3,)),        # Z27[Z3]: no closed form, r = 3
    (2, 3, 1, (), (2, 2)),      # Z8[Z2xZ2]: 279 ideals, join closure
    (2, 2, 1, (3,), (2,)),      # Z4[Z6]: closed form over A + P
    (2, 3, 1, (), (4,)),        # Z8[Z4]: 95 ideals
    (2, 2, 1, (), (2, 2)),      # Z4[Z2xZ2]: non-cyclic P
    (3, 2, 1, (), (3,)),        # Z9[Z3]
    (2, 2, 2, (), (2,)),        # GR(2^2,2)[Z2]: Hermitian, cyclic P
    (2, 2, 1, (), (4,)),        # Z4[Z4]
    (2, 2, 1, (5,), ()),        # Z4[Z5]
)
SMOKE_IDEAL_RINGS = ((2, 2, 1, (3,), ()), (2, 2, 2, (), (2,)), (2, 2, 1, (), (2, 2)))
# dual() of one ideal from each size slice.  Simulated from measured dual
# costs, the seed's picks alone spread duals/s over ten seeds by 0.13 (up
# to 0.19) with four slices, and by 0.02 with sixteen
DUAL_STRATA = 16


def ring_key(p, r, s, a_factors, p_factors) -> str:
    group = gc.format_group(_group(tuple(a_factors) + tuple(p_factors)))
    return f"GR({p}^{r},{s})[{group}]"


def closed_form_counts(p, r, s, a_group, p_group):
    """Ideal and self-dual counts from the product formula, or None."""
    if p_group.order == 1:
        provider = "trivial"
    elif r == 2 and len(p_group.factors) == 1:
        provider = "closed"
    else:
        return None
    out = {TOTAL: gc.abelian_count(p, r, s, a_group, p_group, provider).count,
           EUCLIDEAN: gc.euclidean_abelian_count(p, r, s, a_group, p_group, provider).count}
    if s % 2 == 0:
        out[HERMITIAN] = gc.hermitian_abelian_count(p, r, s, a_group, p_group, provider).count
    return out


class IdealEnum:
    """Stream every ideal of each listed ring and classify it; take duals.

    One pass visits every ring once in seeded order.  The per-ideal
    latency is the wait for the next ideal from `ideal_stream()` plus its
    self-duality tests; the wait that ends the stream is a sample too.  The
    ideals whose duals are taken are drawn once per run from the seed, one
    from each of DUAL_STRATA slices of the ring's ideals by size, since the
    cost and memory of `dual()` grow with the dual's size.
    """

    name = "ideal_enum"
    pass_s = 8.0

    def __init__(self, seed: int, smoke: bool, rec):
        expected = load_expected()["ideal_enum"]
        self.rng = random.Random(seed)
        self.rings = []
        for p, r, s, a_factors, p_factors in (SMOKE_IDEAL_RINGS if smoke else IDEAL_RINGS):
            a_group, p_group = _group(a_factors), _group(p_factors)
            ring = gc.GroupRing(gc.construct_ring(p, r, s), _group(a_factors + p_factors))
            engine = ExhaustiveGroupRing(ring, EXHAUSTIVE_BOUND)
            with rec.paused():
                want = closed_form_counts(p, r, s, a_group, p_group)
            if want is None:
                want = dict(expected[ring_key(p, r, s, a_factors, p_factors)])
            forms = (EUCLIDEAN, HERMITIAN) if s % 2 == 0 else (EUCLIDEAN,)
            self.rings.append((len(self.rings), engine, forms, want))
        self.picks: dict = {}    # ring index -> stream positions to dualize
        self.checked: set = set()

    def run_pass(self, tally: Tally, rec) -> None:
        order = list(self.rings)
        self.rng.shuffle(order)
        for index, engine, forms, want in order:
            ideals = self._enumerate(index, engine, forms, want, tally, rec)
            if len(ideals) != want[TOTAL]:
                continue
            if index not in self.picks:
                by_size = sorted(range(len(ideals)), key=lambda i: (ideals[i].size, i))
                n = len(by_size)
                slices = [by_size[n * k // DUAL_STRATA:n * (k + 1) // DUAL_STRATA]
                          for k in range(DUAL_STRATA)]
                self.picks[index] = [self.rng.choice(q) for q in slices if q]
            for pick in self.picks[index]:
                self._dual(index, pick, engine, ideals[pick], tally, rec)

    def _enumerate(self, index, engine, forms, want, tally, rec) -> list:
        found: list = []
        waits: list = []
        self_dual = {form: 0 for form in forms}
        with rec.operation():
            tally.attempted += 1
            stream = engine.ideal_stream()
            while True:
                tally.pace()
                start = time.perf_counter()
                try:
                    code = next(stream)
                except StopIteration:
                    end = time.perf_counter()
                    waits.append((end, end - start))
                    break
                except Exception:  # a failed enumeration is counted, not fatal
                    tally.fail(traceback.format_exc())
                    return found
                for form in forms:
                    if engine.is_self_dual(code, form):
                        self_dual[form] += 1
                found.append(code)
                end = time.perf_counter()
                waits.append((end, end - start))
        got = {TOTAL: len(found), **self_dual}
        if got != want:
            tally.fail(f"{engine.ring!r}: counted {got}, expected {want}")
            return found
        for position, (end, seconds) in enumerate(waits):
            # the last wait ends the stream and yields no ideal
            tally.record("ideal", seconds, int(position < len(found)), end)
        return found

    def _dual(self, index, pick, engine, code, tally, rec) -> None:
        with rec.operation():
            dual, seconds = tally.call(lambda: engine.dual(code, EUCLIDEAN))
        if dual is None:
            return
        if (index, pick) not in self.checked:
            with rec.paused():
                ok = (code.size * dual.size == engine.ring_size
                      and engine.dual(dual, EUCLIDEAN) == code)
            if not ok:
                tally.fail(f"{engine.ring!r}: dual of {code!r} is {dual!r}")
                return
            self.checked.add((index, pick))
        tally.record("dual", seconds)

    def report(self, tally: Tally) -> list:
        return [
            ("enum.ideals_per_s", "ops_per_s", tally.rate("ideal"), "1/s", tally.count("ideal")),
            ("enum.duals_per_s", "aux_per_s", tally.rate("dual"), "1/s", tally.count("dual")),
            ("enum.ideal_p50_ms", "p50_ms", *tally.latency("ideal", 0.50)),
            # the top percent of waits is a handful of principal-scan and
            # closure waits, between which the 99th percentile jumps
            ("enum.ideal_p90_ms", "tail_ms", *tally.latency("ideal", 0.90)),
        ]


# -- spectral_build ----------------------------------------------------------------

# (p, r, s, A): decompose -> compose round trips; both layouts when s is even
ROUNDTRIP_RINGS = (
    (2, 2, 1, (3,)), (2, 2, 1, (7,)), (2, 2, 2, (3,)), (2, 2, 2, (5,)),
    (3, 2, 1, (4,)), (3, 2, 2, (4,)), (2, 2, 1, (9,)), (5, 2, 1, (3,)),
    (3, 2, 1, (8,)), (2, 4, 2, (3, 3)), (2, 3, 1, (5,)), (2, 1, 1, (7,)),
)
ROUNDTRIPS_PER_RING = 90
PRODUCT_CHECK_EVERY = 4
# (p, r, s, A, form): one enumerate_semisimple_selfdual family each
FAMILIES = (
    (2, 2, 1, (7,), EUCLIDEAN), (2, 2, 1, (15,), EUCLIDEAN), (2, 4, 1, (7,), EUCLIDEAN),
    (3, 2, 2, (5,), HERMITIAN), (2, 2, 2, (7,), HERMITIAN), (3, 2, 1, (13,), EUCLIDEAN),
    (5, 2, 1, (12,), EUCLIDEAN), (2, 2, 2, (9,), HERMITIAN),
)
# (p, r, s, G, form) with r odd: the nested sylow_split / compose_nested path
CONSTRUCTS = (
    (2, 1, 1, (6,), EUCLIDEAN), (2, 1, 1, (2, 7), EUCLIDEAN), (2, 3, 1, (14,), EUCLIDEAN),
    (2, 1, 2, (2, 3), HERMITIAN), (2, 3, 2, (2, 5), HERMITIAN), (2, 1, 1, (4, 5), EUCLIDEAN),
    (2, 1, 1, (2, 9), EUCLIDEAN), (2, 3, 1, (4, 3), EUCLIDEAN), (2, 1, 1, (2, 15), EUCLIDEAN),
    (2, 1, 2, (2, 7), HERMITIAN), (2, 1, 1, (2, 2, 3), EUCLIDEAN),
)
SMOKE_ROUNDTRIP_RINGS = ((2, 2, 1, (3,)), (2, 2, 2, (3,)))
SMOKE_ROUNDTRIPS_PER_RING = 6
SMOKE_FAMILIES = ((2, 2, 1, (7,), EUCLIDEAN), (2, 2, 2, (3,), HERMITIAN))
SMOKE_CONSTRUCTS = ((2, 1, 1, (6,), EUCLIDEAN), (2, 1, 2, (2, 3), HERMITIAN))


def self_orthogonal(gens, form: str) -> bool:
    """An ideal lies in its dual iff g * bar(h) = 0 for all generators g, h,
    bar being the involution matching the form."""
    bar = gc.involution if form == EUCLIDEAN else gc.conjugate_involution
    return all((g * bar(h)).is_zero() for g in gens for h in gens)


class SpectralBuild:
    """Round trips through the component decomposition, semisimple
    self-dual families and odd-r constructions, shuffled in a fixed pass.

    The round-trip elements are drawn once per run from the seed; each
    pass round-trips every one of them, in both layouts when s is even.
    """

    name = "spectral_build"
    pass_s = 3.2

    def __init__(self, seed: int, smoke: bool, rec):
        self.rng = random.Random(seed)
        per_ring = SMOKE_ROUNDTRIPS_PER_RING if smoke else ROUNDTRIPS_PER_RING
        self.roundtrips = []
        for p, r, s, a_factors in (SMOKE_ROUNDTRIP_RINGS if smoke else ROUNDTRIP_RINGS):
            ctx = gc.ambient(gc.construct_ring(p, r, s), _group(a_factors))
            # the first transform fills the lazy discrete-log and embedding
            # tables, which every later round trip in the process reuses
            warm = ctx.ring.random_element(self.rng)
            if gc.compose(gc.decompose_euclidean(warm, ctx)) != warm:
                raise RuntimeError(f"round trip fails at set-up over {ctx.ring!r}")
            layouts = (EUCLIDEAN, HERMITIAN) if s % 2 == 0 else (EUCLIDEAN,)
            for k in range(per_ring):
                self.roundtrips.append((ctx, layouts[k % len(layouts)],
                                        ctx.ring.random_element(self.rng),
                                        ctx.ring.random_element(self.rng)))
        self.families = []
        for p, r, s, a_factors, form in (SMOKE_FAMILIES if smoke else FAMILIES):
            gc.ambient(gc.construct_ring(p, r, s), _group(a_factors))
            count_fn = (gc.euclidean_semisimple_count if form == EUCLIDEAN
                        else gc.hermitian_semisimple_count)
            with rec.paused():
                want = count_fn(p, r, s, _group(a_factors)).count
            self.families.append((p, r, s, _group(a_factors), form, want))
        self.constructs = []
        for p, r, s, factors, form in (SMOKE_CONSTRUCTS if smoke else CONSTRUCTS):
            group = _group(factors)
            coprime = gc.sylow_decompose(group, p).coprime_part
            gc.ambient(gc.construct_ring(p, r, s), coprime)
            self.constructs.append((p, r, s, group, form))
        self.checked: set = set()

    def run_pass(self, tally: Tally, rec) -> None:
        ops = [("_roundtrip", k) for k in range(len(self.roundtrips))]
        ops += [("_family", k) for k in range(len(self.families))]
        ops += [("_construct", k) for k in range(len(self.constructs))]
        self.rng.shuffle(ops)
        for kind, k in ops:
            with rec.operation():
                getattr(self, kind)(k, tally, rec)

    def _roundtrip(self, k, tally, rec) -> None:
        ctx, layout, x, y = self.roundtrips[k]
        decompose = gc.decompose_euclidean if layout == EUCLIDEAN else gc.decompose_hermitian
        back, seconds = tally.call(lambda: gc.compose(decompose(x, ctx)))
        if back is None:
            return
        ok = back == x
        if ok and k % PRODUCT_CHECK_EVERY == 0 and k not in self.checked:
            with rec.paused():
                ok = decompose(x * y, ctx) == decompose(x, ctx).multiply(decompose(y, ctx))
            self.checked.add(k)
        if not ok:
            tally.fail(f"round trip over {ctx.ring!r} broke on {x!r}")
            return
        tally.record("roundtrip", seconds)

    def _family(self, k, tally, rec) -> None:
        p, r, s, group, form, want = self.families[k]
        family, seconds = tally.call(
            lambda: gc.enumerate_semisimple_selfdual(p, r, s, group, form))
        if family is None:
            return
        if not (family.count == want == len(family.representatives)):
            tally.fail(f"semisimple family over GR({p}^{r},{s})[{group!r}] has "
                       f"{len(family.representatives)} representatives, expected {want}")
            return
        tally.record("family", seconds, want)

    def _construct(self, k, tally, rec) -> None:
        p, r, s, group, form = self.constructs[k]
        built, seconds = tally.call(
            lambda: gc.construct_self_dual(p, r, s, group, form, bound=EXHAUSTIVE_BOUND))
        if built is None:
            return
        if ("construct", k) not in self.checked:
            with rec.paused():
                ok = bool(built.generators) and self_orthogonal(built.generators, form)
                if ok and built.ideal is not None:
                    ok = built.ideal.engine.is_self_dual(built.ideal, form)
            if not ok:
                tally.fail(f"constructed code over GR({p}^{r},{s})[{group!r}] "
                           "is not self-dual")
                return
            self.checked.add(("construct", k))
        tally.record("construct", seconds)

    def report(self, tally: Tally) -> list:
        return [
            ("spectral.reps_per_s", "ops_per_s", tally.rate("family"), "1/s",
             tally.count("family")),
            ("spectral.constructs_per_s", "aux_per_s", tally.rate("construct"), "1/s",
             tally.count("construct")),
            ("spectral.roundtrip_p50_ms", "p50_ms", *tally.latency("roundtrip", 0.50)),
            ("spectral.roundtrip_p99_ms", "tail_ms", *tally.latency("roundtrip", 0.99)),
        ]


WORKLOADS = {cls.name: cls for cls in (CountStream, IdealEnum, SpectralBuild)}
