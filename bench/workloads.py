"""The benchmark's workloads: set-up, the measuring loop and the metrics.

Every workload is a closed loop with one client in one process: an op starts
when the previous one has returned.  A run repeats whole passes over the
seed's op list, at least MIN_PASSES of them, and starts another only while
it is expected to end within the run time, so every pass does the same work
and per-pass counts repeat exactly.

Times are taken per op as the best of the run's passes.  Other tenants of a
shared machine slow a process by up to 2x in bursts of a second or more, so
the best of several passes estimates the uncontended cost of the op: over
seven swarm runs on a 2-core virtual machine its quartile spread was 5% of
the median, against 14% for the median pass.  Contention that lasts a whole
run still shows.

* verdict-ladder: ``hopf.fundamental_verdict`` on fixed rungs Z7, M7, G2K2
  and DZ6 (n = 6..7), where the dense n^4 x n^4 lifts of tau dominate.
* swarm: the in-process CLI ``check``, ``galois`` and ``antipode`` with
  ``--out`` on thirteen small instances (n = 2..4), where per-call overhead,
  report serialisation and the repeated axiom gate dominate.
* hopfmod-dense: the in-process CLI ``hopfmod`` on K_omega(d) modules moved
  along a dense integer change of basis, where the Hopf-module round trip
  dominates: rational ``mul`` on module-sized operands, then ``rref``.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import math
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import inputs
import oracle
from spans import Tracer

WORKLOADS = ("verdict-ladder", "swarm", "hopfmod-dense")
MIN_PASSES = 2
SETUP_REPEATS = 25

END_TO_END_UNITS = {
    "setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB",
    "ok_frac": "ratio", "ops_per_s": "1/s", "op_p50_ms": "ms", "op_p90_ms": "ms",
}

# (traced function, stats); each becomes a per-layer metric <function>.<stat>
LAYER_STATS = (
    ("bimonad.check_instance", ("calls", "total_s")),
    ("exactmat.kron", ("calls", "self_s", "entries", "nnz")),
    ("exactmat.mul", ("calls", "self_s", "entries", "nnz")),
    ("exactmat.rref", ("calls", "self_s", "entries", "max_bits")),
    ("tensorexpr.lift", ("calls", "entries")),
    ("tensorexpr.tensor", ("calls", "self_s")),
    ("tensorexpr.compose", ("calls", "self_s")),
    ("bimonad.compare", ("calls", "self_s")),
    ("cli.main", ("calls", "self_s")),
    ("instances.load", ("calls", "self_s")),
    ("instances.load_module", ("calls", "self_s")),
    ("hopf.fundamental_verdict", ("calls", "total_s")),
    ("entwining.build_entwining", ("total_s",)),
    ("entwining.check_weak_entwining", ("total_s",)),
    ("entwining.check_derived_identities", ("total_s",)),
    ("baseobject.build_base", ("total_s",)),
    ("baseobject.build_actions", ("total_s",)),
    ("galois.build_galois", ("total_s",)),
    ("hopf.solve_antipode_linear", ("total_s",)),
    ("hopf.construct_antipode_from_galois", ("total_s",)),
    ("hopf.check_antipode", ("total_s",)),
    ("hopfmodules.fundamental_roundtrip", ("total_s",)),
    ("hopfmodules.coinvariants", ("total_s",)),
    ("hopfmodules.check_mixed_bimodule", ("total_s",)),
    ("hopfmodules.induce_from_base", ("total_s",)),
)


# ---------------------------------------------------------------------------
# ops
# ---------------------------------------------------------------------------

@dataclass
class Op:
    label: str
    inst: inputs.Instance
    command: str                  # "verdict" or a CLI subcommand
    path: Path
    module_path: Optional[Path] = None
    out: Optional[Path] = None
    d: Optional[int] = None

    def run(self, lib):
        """The timed part of the op."""
        if self.command == "verdict":
            return lib.hopf.fundamental_verdict(lib.instances.load(self.path))
        argv = [self.command, str(self.path)]
        if self.module_path is not None:
            argv.append(str(self.module_path))
        argv += ["--out", str(self.out)]
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            return lib.cli.main(argv)

    def check(self, result):
        """(problems, digest of the output) for the result of run()."""
        if self.command == "verdict":
            return (oracle.check_verdict(self.inst, result),
                    _verdict_digest(result))
        data = self.out.read_bytes()
        problems = oracle.check_report(self.inst, self.command, result,
                                       json.loads(data), self.d)
        return problems, hashlib.sha256(data).hexdigest()


def _verdict_digest(verdict):
    def rows(report):
        return None if report is None else \
            [[e.axiom_id, e.holds] for e in report.entries]

    antipode = None
    if verdict.antipode is not None:
        antipode = [[str(v) for v in row] for row in verdict.antipode.map.mat.data]
    doc = [verdict.hopf, verdict.gamma_rank, verdict.gamma_prime_rank,
           verdict.linear_status, antipode, rows(verdict.antipode_report),
           rows(verdict.roundtrip_report)]
    return hashlib.sha256(json.dumps(doc).encode()).hexdigest()


def plan(workload, seed, workdir: Path):
    """The seed's op list and input files {path: text}, nothing written yet."""
    ops, files = [], {}
    if workload == "verdict-ladder":
        for name, inst in zip(inputs.LADDER, inputs.ladder()):
            path = workdir / f"{name}.instance"
            files[path] = inst.text()
            ops.append(Op(name, inst, "verdict", path))
    elif workload == "swarm":
        for k, inst in enumerate(inputs.swarm(seed)):
            path = workdir / f"{k:02d}.instance"
            files[path] = inst.text()
            for command in inputs.SWARM_COMMANDS:
                ops.append(Op(f"{k:02d}-{inst.name}-{command}", inst, command,
                              path, out=workdir / f"{k:02d}.{command}.json"))
    elif workload == "hopfmod-dense":
        for k, (inst, d, module) in enumerate(inputs.hopfmod(seed)):
            path = workdir / f"{k:02d}.instance"
            module_path = workdir / f"{k:02d}.module"
            files[path] = inst.text()
            files[module_path] = json.dumps(module, sort_keys=True, indent=2) + "\n"
            ops.append(Op(f"{k:02d}-{module['name']}", inst, "hopfmod", path,
                          module_path=module_path,
                          out=workdir / f"{k:02d}.hopfmod.json", d=d))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return ops, files


def write_inputs(files):
    for path, text in files.items():
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")


def load_inputs(lib, ops):
    """Load every input file with the program's own loaders."""
    loaded = {}
    for op in ops:
        if op.path not in loaded:
            loaded[op.path] = lib.instances.load(op.path)
        if op.module_path is not None:
            lib.instances.load_module(op.module_path, loaded[op.path])


def setup_times(lib, ops):
    """Times of SETUP_REPEATS loads of every input, before any op runs."""
    # start from a collected heap: import garbage left to the cyclic
    # collector made the loads of one process up to 1.6x slower
    gc.collect()
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        load_inputs(lib, ops)
        times.append(time.perf_counter() - t0)
    return times


# ---------------------------------------------------------------------------
# measuring
# ---------------------------------------------------------------------------

@dataclass
class Measurement:
    by_label: dict = field(default_factory=dict)   # op label -> latencies
    pass_wall: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0


def run_pass(lib, ops, digests, meas: Measurement):
    """One pass over the ops; the oracle runs outside the timed region."""
    wall_sum = 0.0
    for op in ops:
        if op.out is not None:
            op.out.unlink(missing_ok=True)
        meas.attempted += 1
        t0 = time.perf_counter()
        try:
            result = op.run(lib)
        except Exception:  # a failing op is counted and the run goes on
            result = None
            problems = ["raised:\n" + traceback.format_exc()]
        else:
            problems = []
        wall = time.perf_counter() - t0
        wall_sum += wall
        meas.by_label.setdefault(op.label, []).append(wall)
        if not problems:
            try:
                problems, digest = op.check(result)
            except (OSError, ValueError, KeyError, TypeError) as exc:
                problems, digest = [f"unreadable output: {exc!r}"], None
            if digest is not None and digests.setdefault(op.label, digest) != digest:
                problems.append("output differs from an earlier run of this op")
        if problems:
            meas.failed += 1
            sys.stderr.write(f"op {op.label} failed: {'; '.join(problems)}\n")
    meas.pass_wall.append(wall_sum)


def measure(lib, ops, seconds, digests) -> Measurement:
    """At least MIN_PASSES passes; another only if it should end in time."""
    meas = Measurement()
    start = time.perf_counter()
    while True:
        run_pass(lib, ops, digests, meas)
        done = len(meas.pass_wall)
        elapsed = time.perf_counter() - start
        if done >= MIN_PASSES and elapsed * (done + 1) / done > seconds:
            return meas


def best_of_passes(meas: Measurement):
    """{op label: its fastest latency over the passes}."""
    return {label: min(times) for label, times in meas.by_label.items()}


def _betainc(a, b, x):
    """The regularised incomplete beta function I_x(a, b), for a, b > 0."""
    if x <= 0.0 or x >= 1.0:
        return 0.0 if x <= 0.0 else 1.0
    if x > (a + 1) / (a + b + 2):  # the fraction converges fast only below
        return 1.0 - _betainc(b, a, 1.0 - x)
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                     + a * math.log(x) + b * math.log1p(-x)) / a
    # modified Lentz evaluation of the continued fraction
    tiny, f, c, d = 1e-300, 1.0, 1.0, 0.0
    for i in range(1000):
        m = i // 2
        if i == 0:
            num = 1.0
        elif i % 2:
            num = -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))
        else:
            num = m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m))
        d = 1.0 / (1.0 + num * d if abs(1.0 + num * d) > tiny else tiny)
        c = 1.0 + num / c if abs(1.0 + num / c) > tiny else tiny
        f *= c * d
        if abs(1.0 - c * d) < 1e-14:
            break
    return front * (f - 1.0)


def quantile(values, p):
    """The Harrell-Davis estimate of the p-quantile of values.

    It weights every order statistic by a Beta((n+1)p, (n+1)(1-p)) mass, so
    it does not jump from one op to the next when two ops near the quantile
    trade places or one of them is timed a little slow, as the order
    statistic does where the op times have a gap.
    """
    xs = sorted(values)
    n = len(xs)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    cdf = [_betainc(a, b, i / n) for i in range(n + 1)]
    return sum(x * (hi - lo) for x, lo, hi in zip(xs, cdf, cdf[1:]))


def end_to_end(meas: Measurement, setups):
    best = list(best_of_passes(meas).values())
    wall = sum(best)
    return {
        "setup_s": statistics.median(setups),
        "wall_s": wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_frac": (meas.attempted - meas.failed) / meas.attempted,
        "ops_per_s": len(best) / wall,
        "op_p50_ms": 1000 * quantile(best, 0.5),
        "op_p90_ms": 1000 * quantile(best, 0.9),
    }


def rung_times(meas: Measurement):
    """Best-of-passes verdict time per ladder rung; 0 off the ladder."""
    best = best_of_passes(meas)
    return {f"verdict_s.{rung}": best.get(rung, 0.0) for rung in inputs.LADDER}


def per_layer(summary, ops, untraced: Measurement, traced: Measurement):
    empty = {"calls": 0, "self_s": 0.0, "total_s": 0.0, "entries": 0,
             "nnz": 0, "max_bits": 0}
    out = {}
    for fn, stats in LAYER_STATS:
        rec = summary.get(fn, empty)
        for stat in stats:
            out[f"{fn}.{stat}"] = rec[stat]
    out["bimonad.check_instance.per_op"] = \
        out["bimonad.check_instance.calls"] / len(ops)
    for fn in ("exactmat.kron", "exactmat.mul"):
        entries = out[f"{fn}.entries"]
        out[f"{fn}.density"] = out[f"{fn}.nnz"] / entries if entries else 0.0
    out.update(rung_times(untraced))
    untraced_wall = sum(best_of_passes(untraced).values())
    out["trace.untraced_wall_s"] = untraced_wall
    out["trace.traced_wall_s"] = traced.pass_wall[0]
    out["trace.overhead_s"] = traced.pass_wall[0] - untraced_wall
    return out


# ---------------------------------------------------------------------------
# one run
# ---------------------------------------------------------------------------

def _source_key(lib):
    """Hash of the program's sources: output digests are kept per version."""
    h = hashlib.sha256()
    for path in sorted(Path(lib.__file__).parent.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def unit_of(name):
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.endswith("_s") or name.startswith("verdict_s."):
        return "s"
    if name.endswith(".density"):
        return "ratio"
    if name.endswith(".max_bits"):
        return "bits"
    return "count"


def run(lib, workload, seed, seconds, trace, work_root: Path):
    """Set up, measure and check one workload; returns (result, notes).

    Inputs and reports live in a directory of work_root that is removed at
    the end.  Output digests are kept in work_root per program version,
    workload and seed, so every run of one seed must write the same bytes as
    the first.
    """
    workdir = work_root / f"run-{workload}-{seed}"
    try:
        return _run(lib, workload, seed, seconds, trace, work_root, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(lib, workload, seed, seconds, trace, work_root, workdir):
    ops, files = plan(workload, seed, workdir)
    write_inputs(files)
    setups = setup_times(lib, ops)
    digest_file = (work_root / "digests"
                   / f"{_source_key(lib)}-{workload}-{seed}.json")
    digests = json.loads(digest_file.read_text()) if digest_file.exists() else {}
    untraced = measure(lib, ops, seconds, digests)
    attempted, failed = untraced.attempted, untraced.failed
    notes = [f"{workload} seed {seed}: {len(untraced.pass_wall)} passes of "
             f"{len(ops)} ops"]
    if trace:
        traced = Measurement()
        tracer = Tracer()
        with tracer:
            run_pass(lib, ops, digests, traced)
        attempted += traced.attempted
        failed += traced.failed
        metrics = per_layer(tracer.summary(), ops, untraced, traced)
        trace_file = work_root / f"trace-{workload}-{seed}.json"
        tracer.dump(trace_file)
        notes.append(f"{len(tracer.name)} spans written to {trace_file}")
    else:
        metrics = end_to_end(untraced, setups)
        if workload == "verdict-ladder":
            notes += [f"{name:40s} {value:.6g} s"
                      for name, value in rung_times(untraced).items()]
    digest_file.parent.mkdir(parents=True, exist_ok=True)
    digest_file.write_text(json.dumps(digests, sort_keys=True, indent=1) + "\n")
    notes.append(f"{failed} of {attempted} ops failed")
    notes += [f"{name:40s} {value:.6g} {unit_of(name)}"
              for name, value in metrics.items()]
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": unit_of(name)}
                          for name, value in metrics.items()}}
    return result, notes
