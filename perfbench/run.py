#!/usr/bin/env python3
"""perfbench: the repository benchmark.

Builds cmd/figures (and the calibration and in-process probe next to this
file) from the checkout this file lives in, runs one workload through the
figures binary, checks every output, and prints the metrics as the last
line of stdout:

    python3 perfbench/run.py --workload repro-serial --seed 42 --seconds 25 --trace 0

--trace 0 measures the end-to-end metrics (host wall/CPU time and peak RSS
from each process's rusage, times scaled by the fixed computation in
calib/ to cancel the shared host's speed). --trace 1 is the separate
traced run: it attributes the time to the simulator's layers from outside
the program (see NOTES.md). Two further modes print for people to read:

    python3 perfbench/run.py --all [--seed 42] [--seconds 25]
        every workload, one summary row each, fail_ratio included
    python3 perfbench/run.py --ab OLD_TREE NEW_TREE [--workload W ...] [--pairs 10]
        same-machine A/B of two source trees in interleaved pairs

Standard library only. Everything it builds or writes stays under
.bench_build/ in the checkout.
"""

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
DEFAULT_SEED = 42
REPS = 100

# Minimum measured executions per run: the reported figure is their median.
MIN_UNITS = 3
# Set-up invocations before every timed execution (setup_s is the median
# of them all).
SETUP_EACH = 3
# The calibration's fixed output and the seconds it takes at the reference
# speed (see host_scaled and NOTES.md).
CALIB_CHECKSUM = 827469
CALIB_REF_S = 0.1
# Calibration time between two executions, as a share of the last
# execution's wall time (at least one calibration).
CALIB_SHARE = 0.3
# repro-observed's sink flags and the files they write.
SINKS = {"-metrics": "metrics.json", "-prom": "metrics.prom", "-influx": "metrics.lp"}
# Fig 12 runs 21 campaigns: 9 concurrent (apps 2-4 x count 2/4/8), 3 solo
# baselines and the 9 equivalent single applications.
FIG12_CAMPAIGNS = 21
# fabric-churn's consecutive seeds. A fat-tree campaign's cost varies by
# about 20% from seed to seed; eight of them bring that below 5% of an
# execution.
FABRIC_SEEDS = 8


class BenchError(Exception):
    pass


# ---------------------------------------------------------------- building


def go_env():
    """The go command's environment, with every cache inside the checkout."""
    env = dict(os.environ)
    env.update(
        GOCACHE=str(BUILD / "gocache"),
        GOPATH=str(BUILD / "gopath"),
        GOMODCACHE=str(BUILD / "gopath" / "mod"),
        XDG_CONFIG_HOME=str(BUILD / "config"),
        GOENV="off",
        GOFLAGS="",
        GOWORK="off",
        GOTOOLCHAIN="local",
    )
    return env


def go(args, cwd):
    p = subprocess.run(["go", *args], cwd=cwd, env=go_env(), stdout=subprocess.PIPE,
                       stderr=subprocess.STDOUT, text=True)
    if p.returncode != 0:
        raise BenchError(f"go {' '.join(args)} (in {cwd}) failed:\n{p.stdout}")
    return p.stdout


def build_figures(src, dest):
    if not (Path(src) / "go.mod").is_file() or not (Path(src) / "cmd" / "figures").is_dir():
        raise BenchError(f"{src} holds no cmd/figures to build")
    dest.parent.mkdir(parents=True, exist_ok=True)
    go(["build", "-o", str(dest), "./cmd/figures"], cwd=src)
    return dest


def build_calib():
    dest = BUILD / "bin" / "calib"
    go(["build", "-o", str(dest), "."], cwd=HERE / "calib")
    return dest


def build_probe():
    dest = BUILD / "bin" / "probe"
    go(["build", "-o", str(dest), "."], cwd=HERE / "probe")
    return dest


# ------------------------------------------------------------- invocations


class Inv:
    """One process: its host cost from rusage and how it ended."""

    def __init__(self, wall, cpu, rss_mib, code, err):
        self.wall, self.cpu, self.rss_mib, self.code, self.err = wall, cpu, rss_mib, code, err


def invoke(argv, log):
    with open(log, "wb") as errf:
        t0 = time.perf_counter()
        p = subprocess.Popen([str(a) for a in argv], cwd=ROOT, stdout=subprocess.DEVNULL, stderr=errf)
        _, status, ru = os.wait4(p.pid, 0)
        wall = time.perf_counter() - t0
    p.returncode = os.waitstatus_to_exitcode(status)
    err = ""
    if p.returncode != 0:
        lines = Path(log).read_text(errors="replace").strip().splitlines()
        err = lines[-1] if lines else f"exit {p.returncode}"
    # Linux reports ru_maxrss in KiB.
    return Inv(wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024, p.returncode, err)


class Unit:
    """One execution of a workload: one or more figures invocations."""

    def __init__(self, outdir, invs, files=False):
        self.outdir = outdir
        self.files = files  # the sinks wrote real files
        self.wall = sum(i.wall for i in invs)
        self.cpu = sum(i.cpu for i in invs)
        self.rss_mib = max(i.rss_mib for i in invs)
        self.exited_ok = all(i.code == 0 for i in invs)
        self.errors = [i.err for i in invs if i.code != 0]
        self.problems = []  # failed output checks

    @property
    def ok(self):
        return self.exited_ok and not self.problems

    def csvs(self):
        return read_csvs(self.outdir)

    def metrics_json(self):
        return [json.loads(p.read_text()) for p in sorted(self.outdir.rglob("metrics*.json"))]


def read_csvs(d):
    return {p.relative_to(d).as_posix(): p.read_bytes() for p in sorted(Path(d).rglob("*.csv"))}


def csv_problems(got, want, complete):
    """Differences between two CSV sets. An incomplete (failed) execution
    must match on every file it did write."""
    probs = [f"{n} differs from the reference" for n in sorted(got) if n in want and got[n] != want[n]]
    probs += [f"{n} has no reference" for n in sorted(got) if n not in want]
    if complete:
        probs += [f"{n} missing" for n in sorted(want) if n not in got]
    return probs


def deterministic(doc):
    """A metrics JSON without the host-process (runtime/) namespace."""
    return {sec: {k: v for k, v in vals.items() if not k.startswith("runtime/")}
            for sec, vals in doc.items()}


# --------------------------------------------------------------- workloads


class Workload:
    name = ""
    workers = 1
    observed = False  # runs with the SINKS flags

    def invocations(self, seed, workers):
        """[(output subdirectory, figures arguments)] of one execution at
        -workers `workers`."""
        raise NotImplementedError

    def setup_args(self, seed, d):
        """The smallest invocation with the workload's flags: process start,
        package init, platform construction, sink creation and one
        repetition per campaign cell."""
        sinks = sink_flags(d, discard=True) if self.observed else []
        return ["-fig", "6b", "-reps", "1", "-workers", str(self.workers),
                "-seed", str(seed), "-out", str(d), *sinks]

    def reference(self, seed, ctx):
        """CSVs every execution must reproduce; None: the first execution's."""
        return None

    def check(self, unit):
        """Output checks beyond the CSV comparison; returns problems."""
        return []


def sink_flags(d, discard):
    """The SINKS flags, writing into d. Timed executions discard the output
    through links to the null device: rendering and write calls stay in the
    timing, the shared disk's writeback stalls stay out."""
    flags = []
    for flag, name in SINKS.items():
        if discard and not (d / name).is_symlink():
            (d / name).symlink_to(os.devnull)
        flags += [flag, d / name]
    return flags


def campaign_args(fig, workers, seed):
    return ["-fig", fig, "-reps", str(REPS), "-workers", str(workers), "-seed", str(seed)]


def committed_out():
    out = read_csvs(ROOT / "out")
    if not out:
        raise BenchError("the checkout has no committed out/ CSVs")
    return out


class ReproSerial(Workload):
    name = "repro-serial"

    def invocations(self, seed, workers):
        return [(".", campaign_args("all", workers, seed))]

    def reference(self, seed, ctx):
        return committed_out() if seed == DEFAULT_SEED else None


class ReproParallel(ReproSerial):
    name = "repro-parallel"
    workers = 2

    def reference(self, seed, ctx):
        if seed == DEFAULT_SEED:
            return committed_out()
        # The serial run at the same seed is the contract; it is not timed.
        unit = ctx.run_unit(self, seed, "serial-reference", workers=1)
        if not unit.exited_ok:
            raise BenchError(f"serial reference run failed: {unit.errors}")
        return unit.csvs()


class FabricChurn(Workload):
    name = "fabric-churn"

    def invocations(self, seed, workers):
        return [(f"seed{s}", campaign_args(fig, workers, s))
                for s in range(seed, seed + FABRIC_SEEDS) for fig in ("scale", "hierscale")]

    def setup_args(self, seed, d):
        return ["-fig", "scale", "-reps", "1", "-workers", "1", "-seed", str(seed), "-out", str(d)]


class ReproObserved(Workload):
    name = "repro-observed"
    observed = True

    def invocations(self, seed, workers):
        return [(".", campaign_args("12", workers, seed))]

    def reference(self, seed, ctx):
        # The same campaign with observability off must write the same CSVs.
        unit = ctx.run_unit(self, seed, "plain-reference", sinks=None)
        if not unit.exited_ok:
            raise BenchError(f"observability-off reference run failed: {unit.errors}")
        return unit.csvs()

    def check(self, unit):
        if not unit.exited_ok or not unit.files:
            return []
        docs = unit.metrics_json()
        if len(docs) != 1:
            return ["no metrics JSON"]
        doc = docs[0]
        probs = []
        reps = doc["counters"].get("experiments/repetitions")
        if reps != FIG12_CAMPAIGNS * REPS:
            probs.append(f"experiments/repetitions = {reps}, want {FIG12_CAMPAIGNS * REPS}")
        aggs = {k: v for k, v in doc["histograms"].items() if k.endswith("/aggregate_bw_mibs")}
        if len(aggs) != FIG12_CAMPAIGNS or any(h["count"] != REPS for h in aggs.values()):
            probs.append(f"per-campaign repetition histograms do not hold {REPS} repetitions each")
        return probs


WORKLOADS = {w.name: w for w in (ReproSerial(), ReproParallel(), FabricChurn(), ReproObserved())}


# --------------------------------------------------------------- measuring


class Context:
    """One run's binaries and scratch directory."""

    def __init__(self, figures, scratch):
        self.figures = figures
        self.scratch = Path(scratch)
        self.n = 0

    def fresh(self, tag):
        self.n += 1
        d = self.scratch / f"{self.n:03d}-{tag}"
        d.mkdir(parents=True)
        return d

    def run_unit(self, wl, seed, tag, sinks="discard", extra=None, workers=None):
        """Runs one execution of wl (at its own -workers unless given).
        sinks: "discard", "files" or None (observability off) on an
        observed workload. extra(i, d) adds flags to invocation i."""
        out = self.fresh(tag)
        invs = []
        for i, (sub, args) in enumerate(wl.invocations(seed, workers or wl.workers)):
            d = out / sub
            d.mkdir(parents=True, exist_ok=True)
            argv = [self.figures, *args, "-out", d]
            if wl.observed and sinks:
                argv += sink_flags(d, discard=sinks == "discard")
            if extra:
                argv += extra(i, d)
            invs.append(invoke(argv, out / f"stderr{i}.log"))
        return Unit(out, invs, files=sinks == "files")


def verify(wl, units, ref):
    """Checks every execution's outputs against ref (None: the first
    execution that exited 0); records problems on the units."""
    for u in units:
        if ref is not None:
            u.problems += csv_problems(u.csvs(), ref, u.exited_ok)
        elif u.exited_ok:
            ref = u.csvs()
        u.problems += wl.check(u)


class Between:
    """What a run measures between its timed executions: before each one,
    SETUP_EACH set-up invocations and then calibrations (calib/, a fixed
    computation whose time moves only with the host's speed) for
    CALIB_SHARE of the last execution's time. Calibrations also follow the
    last execution. cal_wall and cal_cpu hold each gap's mean calibration
    wall and CPU time."""

    def __init__(self, ctx, wl, seed, calib):
        d = ctx.fresh("setup")
        self.argv, self.log, self.calib = [ctx.figures, *wl.setup_args(seed, d)], d / "stderr.log", calib
        self.setup = []  # (wall, index of the calibration gap that follows it)
        self.cal_wall, self.cal_cpu = [], []
        self.setup_sample()  # warms the page cache; not kept
        self.setup.clear()

    def setup_sample(self):
        inv = invoke(self.argv, self.log)
        if inv.code != 0:
            raise BenchError(f"set-up invocation failed: {inv.err}")
        self.setup.append((inv.wall, len(self.cal_wall)))

    def calibrate(self):
        p = subprocess.run([str(self.calib)], stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        if p.returncode != 0:
            raise BenchError(f"calibration failed: {p.stderr.strip()}")
        doc = json.loads(p.stdout)
        if doc["checksum"] != CALIB_CHECKSUM:
            raise BenchError(f"calibration checksum {doc['checksum']}, want {CALIB_CHECKSUM}")
        return doc["s"], doc["cpu_s"]

    def gap(self, last_wall):
        xs = [self.calibrate()]
        while sum(w for w, _ in xs) < CALIB_SHARE * last_wall:
            xs.append(self.calibrate())
        self.cal_wall.append(statistics.mean(w for w, _ in xs))
        self.cal_cpu.append(statistics.mean(c for _, c in xs))

    def before_unit(self, last_wall):
        for _ in range(SETUP_EACH):
            self.setup_sample()
        self.gap(last_wall)


def measure(ctx, wl, seed, seconds, min_units=MIN_UNITS, ref=None, between=None):
    """Runs wl for at least `seconds` and min_units executions. Returns the
    timed executions and the untimed ones run only to check outputs."""
    if ref is None:
        ref = wl.reference(seed, ctx)
    # The sink files an observed workload's timed executions discard are
    # checked on one untimed execution.
    checked = [ctx.run_unit(wl, seed, "checked", sinks="files")] if wl.observed else []
    units = []
    deadline = time.monotonic() + seconds
    # Another execution starts only if one like the last still ends by the
    # deadline, so a run lasts `seconds` however slow the host is.
    while len(units) < min_units or time.monotonic() + units[-1].wall * (1 + CALIB_SHARE) < deadline:
        if between:
            between.before_unit(units[-1].wall if units else 0)
        units.append(ctx.run_unit(wl, seed, "unit"))
    if between:
        between.gap(units[-1].wall)
    verify(wl, checked + units, ref)
    return units, checked


def summarize(units):
    """Host time of one execution, as measured: medians over the run."""
    return {
        "wall_s": statistics.median(u.wall for u in units),
        "cpu_s": statistics.median(u.cpu for u in units),
        "peak_rss_mib": statistics.median(u.rss_mib for u in units),
    }


def host_scaled(units, between):
    """The end-to-end metrics in reference seconds. Other tenants of the
    shared host slow everything on it, for minutes at a time and by up to
    2x, and they slow the calibration with it. Each time is divided by the
    calibration time around it, the mean of the two gaps on either
    side of execution i (set-up invocations: of the execution they
    precede), and multiplied by CALIB_REF_S; the metric is the median of
    those over the run. One gap alone is a noisier gauge than an execution
    of several seconds, which averages the host's speed over its length.
    CPU time is scaled by the calibration's CPU time: when the host takes
    the VM's CPUs away, wall time grows and CPU time does not."""

    def around(cal, i):
        return statistics.mean(cal[max(0, i - 1):i + 3])

    ref, cw, cc = CALIB_REF_S, between.cal_wall, between.cal_cpu
    return {
        "wall_s": statistics.median(u.wall / around(cw, i) * ref for i, u in enumerate(units)),
        "cpu_s": statistics.median(u.cpu / around(cc, i) * ref for i, u in enumerate(units)),
        "peak_rss_mib": statistics.median(u.rss_mib for u in units),
        "setup_s": statistics.median(w / around(cw, i) * ref for w, i in between.setup),
    }


def spread_line(name, xs):
    xs = sorted(xs)
    q = statistics.quantiles(xs, n=4) if len(xs) > 1 else [xs[0]] * 3
    return (f"{name}: n={len(xs)} min {xs[0]:.4f} q1 {q[0]:.4f} median {q[1]:.4f} "
            f"q3 {q[2]:.4f} max {xs[-1]:.4f}")


def outcome(units):
    """(correct, attempted, failed, problems). An execution fails when a
    process exits non-zero or an output check fails; the outputs are
    incorrect only when a check fails."""
    problems = [p for u in units for p in u.errors + u.problems]
    correct = all(not u.problems for u in units)
    return correct, len(units), sum(1 for u in units if not u.ok), problems


# ------------------------------------------------------------------ tracing

# Leaf-frame package -> layer. Modules not named here count as "other".
LAYERS = {
    "simkernel": "simkernel", "simnet": "simnet", "beegfs": "beegfs",
    "storagesim": "storagesim", "ior": "ior", "cluster": "cluster",
    "experiments": "experiments", "obs": "obs",
    "stats": "analysis", "core": "analysis", "report": "analysis",
}
LAYER_ORDER = ["simkernel", "simnet", "beegfs", "storagesim", "ior", "cluster",
               "experiments", "obs", "analysis", "goruntime", "other"]
# Functions whose cumulative profile time is reported.
CUMULATIVE = {
    "beegfs.startio_s": "repro/internal/beegfs.(*FileSystem).startIO",
    "obs.flush_s": "repro/internal/obs.(*Pipeline).FlushSinks",
    "cluster.deploy_cum_s": "repro/internal/cluster.Platform.Deploy",
}
# experiments.* calls the probe wraps in spans.
SPAN_CALLS = ["Fig2", "Fig4", "Fig5", "Fig6", "Fig8", "Fig10", "Fig11", "Fig12", "Fig13",
              "ExtNN", "ExtRead", "ComparePolicies", "ExtResilience", "ExtChaos",
              "ExtScale", "ExtHierScale"]
# Probe call -> metric prefix.
REP_CALLS = {
    "Deploy": "cluster.deploy", "Nodes": "cluster.nodes", "ReJitter": "storagesim.rejitter",
    "ior.Start": "ior.start", "Step": "beegfs.rep_write", "Remove": "beegfs.remove",
}

_VALUE = re.compile(r"^\s*([0-9.]+)(ns|us|µs|ms|s)\s+(\S.*)$")
_SCALE = {"ns": 1e-9, "us": 1e-6, "µs": 1e-6, "ms": 1e-3, "s": 1.0}


def package_of(func):
    func = func.split("[", 1)[0]
    slash = func.rfind("/")
    dot = func.find(".", slash + 1)
    return func if dot < 0 else func[:dot]


def layer_of(func):
    pkg = package_of(func)
    if pkg == "runtime" or pkg.startswith(("runtime/", "internal/runtime/")):
        return "goruntime"
    if pkg.startswith("repro/internal/"):
        return LAYERS.get(pkg.split("/")[2], "other")
    return "other"


def profile_samples(path):
    """[(seconds, [frames leaf first])] from `go tool pprof -traces`."""
    text = go(["tool", "pprof", "-traces", str(path)], cwd=ROOT)
    samples, cur = [], None
    for line in text.splitlines():
        if line.startswith("-----------+"):
            cur = None
            continue
        m = _VALUE.match(line)
        if m and cur is None:
            cur = [float(m.group(1)) * _SCALE[m.group(2)], [m.group(3).replace(" (inline)", "")]]
            samples.append(cur)
        elif cur is not None and line.strip():
            cur[1].append(line.strip().replace(" (inline)", ""))
    return samples


def attribute(profile):
    """Layer self times and cumulative function times of a CPU profile."""
    self_s = {l: 0.0 for l in LAYER_ORDER}
    cum = {k: 0.0 for k in CUMULATIVE}
    total = 0.0
    for secs, frames in profile_samples(profile):
        total += secs
        self_s[layer_of(frames[0])] += secs
        for k, fn in CUMULATIVE.items():
            if fn in frames:
                cum[k] += secs
    return self_s, cum, total


def counts(units):
    """Layer counts from the counted executions' metrics JSON, plus the
    fat-tree campaigns' CSV columns (those campaigns do not stream through
    the metrics pipeline)."""
    c = {"simkernel.events": 0, "simnet.solves": 0, "simnet.passes": 0, "simnet.solve_s": 0.0,
         "simnet.hier_solves": 0, "beegfs.write_ops": 0, "beegfs.read_ops": 0,
         "beegfs.failed_ops": 0, "beegfs.retries": 0, "experiments.repetitions": 0}
    hits = misses = 0
    for doc in units.metrics_json():
        ct, hs = doc["counters"], doc["histograms"]
        c["simkernel.events"] += ct.get("simkernel/events_dispatched", 0)
        c["simnet.solves"] += sum(v for k, v in ct.items() if k.startswith("simnet/solves/"))
        c["simnet.passes"] += ct.get("simnet/waterfill_passes", 0)
        c["simnet.solve_s"] += hs.get("runtime/simnet/solve_latency_ns", {}).get("sum", 0) / 1e9
        c["simnet.hier_solves"] += ct.get("simnet/hier_solves", 0)
        c["beegfs.write_ops"] += ct.get("beegfs/write_ops", 0)
        c["beegfs.read_ops"] += ct.get("beegfs/read_ops", 0)
        c["beegfs.failed_ops"] += ct.get("beegfs/failed_ops", 0)
        c["beegfs.retries"] += ct.get("beegfs/retries_scheduled", 0)
        c["experiments.repetitions"] += ct.get("experiments/repetitions", 0)
        hits += ct.get("simnet/warmstart_hits", 0)
        misses += ct.get("simnet/warmstart_misses", 0)
    for name, data in units.csvs().items():
        if name.endswith(("ext_scale.csv", "ext_hierscale.csv")):
            rows = data.decode().splitlines()
            head = rows[0].split(",")
            for row in rows[1:]:
                rec = dict(zip(head, row.split(",")))
                c["simkernel.events"] += int(rec["events"])
                c["simnet.solves"] += int(rec["solves"])
                c["simnet.hier_solves"] += int(rec.get("hier_solves", 0))
    c["simnet.warm_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    return c


def traced(ctx, probe, wl, seed):
    """The traced run: returns (per-layer metrics, executions)."""
    m = {}
    ref = wl.reference(seed, ctx)
    plain = ctx.run_unit(wl, seed, "untraced")
    # Counted executions: twice, across -workers 1 and 2 where the workload
    # itself runs at two workers.
    worker_counts = [1, 2] if wl.workers == 2 else [wl.workers, wl.workers]
    counted = [ctx.run_unit(wl, seed, f"counted-w{w}", workers=w, sinks="files",
                            extra=None if wl.observed else lambda i, d: ["-metrics", d / f"metrics{i}.json"])
               for w in worker_counts]
    units = [plain, *counted]
    verify(wl, units, ref)
    if all(u.exited_ok for u in counted):
        det = [[deterministic(doc) for doc in u.metrics_json()] for u in counted]
        if det[0] != det[1]:
            counted[1].problems.append(
                f"deterministic counters differ between -workers {worker_counts[0]} and {worker_counts[1]}")
    m["experiments.worker_util"] = plain.cpu / (plain.wall * wl.workers)
    m["obs.file_sinks_s"] = counted[-1].wall - plain.wall
    m.update(counts(counted[0]))

    # The in-process run: spans and pprof labels around the experiments
    # calls; its profile is kept for `go tool pprof -tagfocus fig=<call>`.
    keep = BUILD / "trace" / wl.name
    shutil.rmtree(keep, ignore_errors=True)
    keep.mkdir(parents=True)
    profile = keep / "labelled.pprof"
    spans = probe_json(probe, ["spans", "-workload", wl.name, "-seed", str(seed),
                               "-workers", str(wl.workers), "-seeds", str(FABRIC_SEEDS),
                               "-cpuprofile", str(profile)])
    probe_run = ProbeRun(spans.get("error"))
    self_s, cum, total = attribute(profile)
    for layer in LAYER_ORDER:
        m[f"{layer}.self_s"] = self_s[layer]
    m.update(cum)
    m["trace.profiled_cpu_s"] = total
    m["trace.overhead_s"] = spans["wall_s"] - plain.wall
    for call in SPAN_CALLS:
        m[f"experiments.{call}_s"] = spans["spans"].get(call, {}).get("s", 0.0)
    m["goruntime.alloc_mib"] = spans["alloc_mib"]
    m["goruntime.gc_cycles"] = spans["gc_cycles"]
    m["obs.flushes"] = spans["obs_flushes"]

    reps = probe_json(probe, ["reps", "-seed", str(seed)])
    for call, prefix in REP_CALLS.items():
        st = reps["calls"][call]
        m[f"{prefix}_us"] = st["median_us"]
        m[f"{prefix}_us_p99"] = st["p99_us"]
        m[f"{prefix}_allocs"] = st["allocs"]
    m["probe.samples"] = reps["calls"]["Deploy"]["n"]
    return m, [*units, probe_run]


class ProbeRun:
    """The in-process span run, counted as one execution."""

    def __init__(self, error):
        self.errors = [f"probe spans: {error}"] if error else []
        self.problems = []
        self.exited_ok = not error
        self.ok = not error


def probe_json(probe, args, stdin=None):
    p = subprocess.run([str(probe), *args], cwd=ROOT, input=None if stdin is None else json.dumps(stdin),
                       stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    if p.returncode != 0:
        raise BenchError(f"probe {args[0]} failed: {p.stderr.strip()}")
    return json.loads(p.stdout)


# ------------------------------------------------------------------- modes


def run_workload(wl, seed, seconds, trace):
    """One benchmark run; returns the result object."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    BUILD.mkdir(parents=True, exist_ok=True)
    figures = build_figures(ROOT, BUILD / "bin" / "figures")
    with tempfile.TemporaryDirectory(prefix="run-", dir=BUILD) as tmp:
        ctx = Context(figures, tmp)
        if trace:
            values, units = traced(ctx, build_probe(), wl, seed)
            specs = spec["per_layer"]
        else:
            between = Between(ctx, wl, seed, build_calib())
            timed, checked = measure(ctx, wl, seed, seconds, between=between)
            values = host_scaled(timed, between)
            for name, xs in (("measured wall_s", [u.wall for u in timed]),
                             ("measured cpu_s", [u.cpu for u in timed]),
                             ("measured setup_s", [w for w, _ in between.setup]),
                             ("calibration wall_s (gap means)", between.cal_wall),
                             ("calibration cpu_s (gap means)", between.cal_cpu)):
                print(f"{wl.name}: {spread_line(name, xs)}", file=sys.stderr)
            units = timed + checked
            specs = spec["end_to_end"]
        correct, attempted, failed, problems = outcome(units)
    unit_of = {m["name"]: m["unit"] for m in specs}
    missing = [n for n in unit_of if n not in values]
    if missing:
        raise BenchError(f"metrics not measured: {missing}")
    for p in problems:
        print(f"{wl.name}: {p}", file=sys.stderr)
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": values[n], "unit": unit_of[n]} for n in unit_of},
    }


def print_row(name, res):
    m = res["metrics"]
    cells = " ".join(f"{k}={v['value']:.4g} {v['unit']}" for k, v in m.items())
    ratio = res["failed"] / res["attempted"]
    print(f"{name}: {cells} fail_ratio={ratio:.3f} ({res['failed']}/{res['attempted']}) "
          f"correct={str(res['correct']).lower()}")


def run_all(seed, seconds):
    for wl in WORKLOADS.values():
        print_row(wl.name, run_workload(wl, seed, seconds, trace=False))
        sys.stdout.flush()


def quartiles(xs):
    q = statistics.quantiles(xs, n=4)
    return q[0], statistics.median(xs), q[2]


def run_ab(old, new, names, pairs, seed, seconds):
    """Interleaved pairs of two source trees, alternating which goes first."""
    BUILD.mkdir(parents=True, exist_ok=True)
    bins = {"old": build_figures(Path(old).resolve(), BUILD / "ab" / "old" / "figures"),
            "new": build_figures(Path(new).resolve(), BUILD / "ab" / "new" / "figures")}
    probe = build_probe()
    for name in names:
        wl = WORKLOADS[name]
        vals = {side: {"wall_s": [], "cpu_s": []} for side in bins}
        failed = {side: 0 for side in bins}
        refs, outputs = {}, {}
        with tempfile.TemporaryDirectory(prefix="ab-", dir=BUILD) as tmp:
            for side in bins:
                refs[side] = wl.reference(seed, Context(bins[side], Path(tmp) / side))
        for i in range(pairs):
            order = ["old", "new"] if i % 2 == 0 else ["new", "old"]
            for side in order:
                with tempfile.TemporaryDirectory(prefix="ab-", dir=BUILD) as tmp:
                    units, checked = measure(Context(bins[side], tmp), wl, seed, seconds,
                                             min_units=1, ref=refs[side])
                    s = summarize(units)
                    failed[side] += outcome(units + checked)[2]
                    outputs.setdefault(side, units[0].csvs())
                for k in vals[side]:
                    vals[side][k].append(s[k])
        same = "identical" if outputs["old"] == outputs["new"] else "DIFFERENT"
        print(f"{name}: {pairs} pairs, seed {seed}; failed executions old={failed['old']} "
              f"new={failed['new']}; output CSVs {same}")
        for k in ("wall_s", "cpu_s"):
            a, b = vals["old"][k], vals["new"][k]
            qa, qb = quartiles(a), quartiles(b)
            wins = sum(1 for x, y in zip(a, b) if y < x)
            losses = sum(1 for x, y in zip(a, b) if y > x)
            st = probe_json(probe, ["stats"], stdin={"a": a, "b": b})
            iqr = qa[2] - qa[0]
            diff = qa[1] - qb[1]
            if wins >= 0.9 * pairs and diff > iqr:
                verdict = "new faster"
            elif losses >= 0.9 * pairs and -diff > iqr:
                verdict = "new slower"
            else:
                verdict = "unresolved"
            print(f"  {k}: old median {qa[1]:.4f} [q1 {qa[0]:.4f}, q3 {qa[2]:.4f}]"
                  f"  new median {qb[1]:.4f} [q1 {qb[0]:.4f}, q3 {qb[2]:.4f}]"
                  f"  new wins {wins}/{pairs}  Welch p={st['welch']['p']:.3g}"
                  f"  Mann-Whitney p={st['mann_whitney']['p']:.3g}  -> {verdict}")


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--all", action="store_true", help="run every workload and print a summary row each")
    ap.add_argument("--ab", nargs=2, metavar=("OLD_TREE", "NEW_TREE"), help="A/B two source trees")
    ap.add_argument("--pairs", type=int, default=10)
    args = ap.parse_args()
    try:
        if args.ab:
            run_ab(*args.ab, args.workload or list(WORKLOADS), args.pairs, args.seed, args.seconds)
        elif args.all:
            run_all(args.seed, args.seconds)
        else:
            if not args.workload or len(args.workload) != 1:
                ap.error("give exactly one --workload (or --all / --ab)")
            wl = WORKLOADS[args.workload[0]]
            res = run_workload(wl, args.seed, args.seconds, bool(args.trace))
            print_row(wl.name, res)
            print(json.dumps(res))
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        sys.exit(2)


if __name__ == "__main__":
    main()
