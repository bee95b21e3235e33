"""The benchmark's workloads: inputs from a seed, timed ops, checked outputs.

A workload runs in batches.  Batch b of an audit workload is round b: one
instance of each of the 30 audit labels, in a fixed label order, so any
number of whole rounds runs every label equally often.  Batch b of the
Kripke workload is one `check_ef_axioms` call over `KRIPKE_CHUNK` samples.
Every op yields a record ``(label, index, seed, verdict, detail)``; the
records of a fixed number of leading batches are hashed into the run's
output digest, which does not depend on timing.
"""

from __future__ import annotations

import hashlib
import json
import time
import zlib
from dataclasses import dataclass
from fractions import Fraction

AXIOM_IDS = (
    "A4-i1", "A4-i2", "A5-i", "A6-i", "A14-i", "A15-i", "A17-i",
    "A7-i1", "A7-i2", "LC-strict", "LC-nonstrict", "CC", "Euclid5",
    "LowerDim",
)
THEOREM_NAMES = (
    "vertical-angles", "outer-transitivity", "distinct-congruence",
    "crossbar", "exterior-angle", "leg-lt-hypotenuse",
    "triangle-inequality", "all-right-angles-congruent", "saccheri-helper",
    "parallelogram-sides", "parallelogram-diagonals", "lambert-rectangle",
    "positive-hypotenuse", "positive-implies-apex", "angle-bisection",
    "two-sides-expressibility",
)
LABELS = AXIOM_IDS + THEOREM_NAMES

EF_NAMES = ("EF0", "EF1", "EF2", "EF3", "EF4", "EF5")
KRIPKE_CHUNK = 10  # samples per check_ef_axioms call; sample 9 is unbounded
MP_EXPECTED = {
    "witness": "eps",
    "notnot_P_forced_at_M0": True,
    "P_forced_at_M0": False,
    "P_forced_at_M1": True,
    "MP_forced_at_M0": False,
    "sanity_P_of_1_at_M0": True,
}


# Op times are CPU time of the benchmark's one thread.  The kernel is
# single-threaded and CPU-bound, so on an idle core this equals wall time;
# on a shared virtual machine it leaves out time the host gives to others.
clock = time.thread_time

# The host lends the benchmark's cores to other tenants, and the same code
# runs up to twice as slowly while they are busy, for seconds at a time.
# So every op is timed next to a fixed reference loop, and its time is
# reported in reference milliseconds: its CPU time over the reference
# loop's, times REF_MS, the reference loop's least time on an idle core of
# the machine the benchmark was tuned on (see README.md).
REF_MS = 0.28


def reference() -> Fraction:
    """A fixed stretch of exact rational arithmetic, like the kernel's."""
    s = Fraction(0)
    for i in range(1, 60):
        s += Fraction(i, i + 7) * Fraction(3, 2 * i + 1)
    return s


def gauge() -> float:
    """CPU seconds of one reference loop: the machine's speed right now."""
    t0 = clock()
    reference()
    return clock() - t0


def derived_seed(seed: int, label: str, index: int) -> int:
    """Per-instance seed; the same derivation as the audit harness uses."""
    return zlib.crc32(f"{seed}:{label}:{index}".encode())


@dataclass
class Op:
    """One timed unit of work and the verdict on its output."""
    record: tuple  # (label, index, seed, verdict, detail)
    seconds: float
    failed: bool  # counted in failed_ops_ratio
    wrong: bool  # a wrong answer, as opposed to an op that raised
    ref_s: float = 0.0  # reference loop seconds around the op

    @property
    def label(self) -> str:
        return self.record[0]

    @property
    def ref_ms(self) -> float:
        """The op's time in reference milliseconds."""
        return self.seconds / self.ref_s * REF_MS


class Digest:
    """sha256 of a workload name and its op records, one JSON line each."""

    def __init__(self, workload: str):
        self._h = hashlib.sha256(workload.encode() + b"\n")
        self.count = 0

    def add(self, record: tuple) -> None:
        self._h.update(json.dumps(list(record), separators=(",", ":")).encode())
        self._h.update(b"\n")
        self.count += 1

    def hexdigest(self) -> str:
        return self._h.hexdigest()


class AuditWorkload:
    """All 30 audit labels in one semantics; one op is one generate+check."""

    def __init__(self, kernel: dict, mode: str):
        self.audit = kernel["audit"]
        self.mode = mode

    def batch(self, seed: int, b: int) -> list[Op]:
        ops = []
        before = gauge()
        for label in LABELS:
            op = self.op(seed, label, b)
            after = gauge()
            op.ref_s = (before + after) / 2
            ops.append(op)
            before = after
        return ops

    def finish(self) -> list[Op]:
        return []

    def op(self, seed: int, label: str, index: int) -> Op:
        audit, mode = self.audit, self.mode
        iseed = derived_seed(seed, label, index)
        is_axiom = label in AXIOM_IDS
        t0 = clock()
        try:
            if is_axiom:
                inst = audit.gen_instance(label, iseed, mode)
                res = audit.check_axiom(label, inst, mode)
            else:
                inst = audit.gen_theorem_instance(label, iseed, mode)
                res = audit.check_theorem(label, inst, mode)
        except Exception as err:  # an op that raises is counted, not fatal
            dt = clock() - t0
            rec = (label, index, iseed, "error", f"{type(err).__name__}: {err}")
            return Op(rec, dt, failed=True, wrong=False)
        dt = clock() - t0
        verdict = res["verdict"]
        wrong = verdict not in ("pass", "guard-refused")
        if is_axiom and not wrong:
            # the Markov separation: refuse exactly where refusal is expected
            wrong = (verdict == "guard-refused") != bool(inst["expect_refusal"])
        rec = (label, index, iseed, verdict, res.get("detail", ""))
        return Op(rec, dt, failed=wrong, wrong=wrong)


class _MarkedAxioms(dict):
    """EF_AXIOMS stand-in that notes the time each sample starts forcing.

    `check_ef_axioms` iterates the axiom table once per sample, right after
    drawing the sample's environment, which makes that iteration a sample
    boundary.  The mark costs one clock read per sample."""

    def __init__(self, axioms: dict, marks: list):
        super().__init__(axioms)
        self.marks = marks

    def items(self):
        self.marks.append(clock())
        return super().items()


class KripkeWorkload:
    """EF-axiom forcing at the root; one op is one sample over six axioms."""

    def __init__(self, kernel: dict):
        self.kripke = kernel["kripke"]

    def batch(self, seed: int, b: int) -> list[Op]:
        kripke = self.kripke
        cseed = derived_seed(seed, "kripke", b)
        marks: list[float] = []
        axioms = kripke.EF_AXIOMS
        kripke.EF_AXIOMS = _MarkedAxioms(axioms, marks)
        before = gauge()
        t0 = clock()
        try:
            res = kripke.check_ef_axioms(KRIPKE_CHUNK, cseed)
        except Exception as err:  # an op that raises is counted, not fatal
            dt = (clock() - t0) / KRIPKE_CHUNK
            ref_s = (before + gauge()) / 2
            detail = f"{type(err).__name__}: {err}"
            return [Op(("ef-sample", b * KRIPKE_CHUNK + i, cseed, "error",
                        detail), dt, failed=True, wrong=False, ref_s=ref_s)
                    for i in range(KRIPKE_CHUNK)]
        finally:
            kripke.EF_AXIOMS = axioms
        t1 = clock()
        ref_s = (before + gauge()) / 2
        # sample i runs from its first forcing call to the next sample's;
        # the chunk's start and end close the first and last intervals
        bounds = [t0] + marks[1:] + [t1]
        if len(marks) != KRIPKE_CHUNK:
            bounds = [t0 + (t1 - t0) * i / KRIPKE_CHUNK
                      for i in range(KRIPKE_CHUNK + 1)]
        by_sample: dict[int, list] = {}
        for e in res["entries"]:
            by_sample.setdefault(e["instance"], []).append(e)
        ops = []
        for i in range(KRIPKE_CHUNK):
            entries = by_sample.get(i, [])
            names = tuple(e["axiom"] for e in entries)
            verdicts = [e["verdict"] for e in entries]
            wrong = names != EF_NAMES or any(
                v not in ("forced", "domain-rejected") for v in verdicts)
            env = entries[0]["env"] if entries else {}
            rec = ("ef-sample", b * KRIPKE_CHUNK + i, cseed,
                   ",".join(f"{n}={v}" for n, v in zip(names, verdicts)),
                   f"x={env.get('x')};y={env.get('y')}")
            ops.append(Op(rec, bounds[i + 1] - bounds[i], wrong, wrong, ref_s))
        return ops

    def finish(self) -> list[Op]:
        """The Markov-principle countermodel, checked against its witness."""
        t0 = clock()
        try:
            res = self.kripke.mp_counterexample()
        except Exception as err:  # an op that raises is counted, not fatal
            rec = ("mp-counterexample", 0, 0, "error",
                   f"{type(err).__name__}: {err}")
            return [Op(rec, clock() - t0, failed=True, wrong=False)]
        dt = clock() - t0
        wrong = res != MP_EXPECTED
        rec = ("mp-counterexample", 0, 0, "fail" if wrong else "pass",
               json.dumps(res, sort_keys=True))
        return [Op(rec, dt, failed=wrong, wrong=wrong)]


@dataclass(frozen=True)
class Spec:
    """How one workload is run: its kernel semantics and its batch counts."""
    name: str
    mode: str | None  # audit semantics; None for the Kripke workload
    warm_batches: int  # warm-up batches in each set-up
    min_batches: int  # fewest batches in a timed pass (>= 200 timed ops)
    digest_batches: int  # leading batches hashed into the digest, and traced


SPECS = {
    "audit-constructible": Spec("audit-constructible", "constructible",
                                15, 20, 20),
    "audit-nonarch": Spec("audit-nonarch", "nonarchimedean", 1, 7, 3),
    "kripke-forcing": Spec("kripke-forcing", None, 25, 50, 50),
}
TINY = {name: Spec(name, s.mode, 1, 1, 1) for name, s in SPECS.items()}


def make(spec: Spec, kernel: dict):
    if spec.mode is None:
        return KripkeWorkload(kernel)
    return AuditWorkload(kernel, spec.mode)
