#!/usr/bin/env python3
"""The compmem repository benchmark.

    python3 benchmark/run.py --workload paper_mpeg2|zoo_mix3|serve_mixed \\
        [--seed 7] [--seconds 20] [--trace 0|1]
    python3 benchmark/run.py --self-test

Run it from the repository root. It builds the release `compmem` binary
and this directory's `layerbench` helper (benchmark/layers) from source,
prepares the workload's inputs from --seed, measures for --seconds,
checks every output, prints a report and ends with one JSON line holding
`correct`, `attempted`, `failed` and `metrics`. With --trace 0 the
metrics are the end-to-end ones, measured against the `compmem` binary
and a spawned `compmem serve` with tracing off; with --trace 1 they are
the per-layer ones of the traced in-process run. It exits 1 when an
output check failed and 2 when it could not run. It writes only under
.bench_work/ and the cargo target directory ($CARGO_TARGET_DIR, default
.bench_build). benchmark/README.md documents workloads, metrics and
checks.
"""

import argparse
import hashlib
import json
import math
import os
import re
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK_ROOT = os.path.join(ROOT, ".bench_work")

# Baselines are measured at the default seed; a claimed gain is confirmed
# at the held-out seed 11, which no change may be tuned on.
DEFAULT_SEED = 7

WORKLOADS = ("paper_mpeg2", "zoo_mix3", "serve_mixed")
PAPER_FLAGS = ["--l2-kb", "512", "--sets-per-unit", "16"]
ZOO_FLAGS = ["--l2-kb", "64", "--sets-per-unit", "4"]
SETUP_REPS = 3

# The one-shot workloads: L2 flags, controller flags, the fewest switches
# the controller must fire, and the paper's headline factor for the
# application (None for generated traffic).
ONESHOT = {
    "paper_mpeg2": dict(
        flags=PAPER_FLAGS,
        control=["--controller", "hysteresis", "--window-cycles", "1000000", "--phases", "0.1"],
        min_switches=0,
        paper_x=6.5,
    ),
    "zoo_mix3": dict(
        flags=ZOO_FLAGS,
        control=["--controller", "hysteresis", "--window-cycles", "500000", "--phases", "0.05"],
        min_switches=1,
        paper_x=None,
    ),
}

# serve_mixed runs a fixed amount of work sized from --seconds, so the
# daemon's store ends every run holding the same traces: this many
# hit/put/first-touch cycles per client and second.
SERVE_CYCLES_PER_SECOND = 2.5

QOS_ROW = re.compile(rb"^  (\S.*?)\s+\d+\s+(\d+\.\d+)%\s+(\d+\.\d+)%\s+\d+\.\d+%\s+(\S+)$", re.M)
QOS_MISSES = re.compile(rb"^qos-partitioned\s+\d+\s+(\d+)", re.M)
SHARED_MISSES = re.compile(rb"^shared\s+\d+\s+(\d+)", re.M)
SWITCHES = re.compile(rb" (\d+) switches fired")
CONTROL_COST = re.compile(rb"^control cost (\d+) = ", re.M)
ACCESSES = re.compile(rb" (\d+) accesses")


class BenchError(Exception):
    """A problem that ends the run without a result."""


class Tally:
    """Attempted and failed operations. An operation fails once, however
    many of its checks fail."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def record(self, what, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.append("%s: %s" % (what, "; ".join(problems)))
        return not problems

    def absorb(self, report):
        """Adds the operations a layerbench run counted."""
        self.attempted += report["ops"]
        self.failed += report["failed"]
        self.problems += report["problems"]


class Proc:
    """A finished child: exit code, stdout, stderr tail, wall seconds and
    peak resident set in MB."""

    def __init__(self, code, out, err, seconds, rss_mb):
        self.code, self.out, self.err = code, out, err
        self.seconds, self.rss_mb = seconds, rss_mb


def run_proc(argv, cwd, kill=False):
    """Runs argv to completion. The peak resident set comes from wait4, so
    only this child counts. kill=True kills it at once (the self-test)."""
    err_path = os.path.join(cwd, "stderr.log")
    with open(err_path, "wb") as err:
        start = time.perf_counter()
        child = subprocess.Popen(
            argv, cwd=cwd, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=err
        )
        try:
            if kill:
                child.kill()
            out = child.stdout.read()
            child.stdout.close()
            _, status, usage = os.wait4(child.pid, 0)
        except BaseException:
            child.kill()
            child.wait()
            raise
        seconds = time.perf_counter() - start
    child.returncode = os.waitstatus_to_exitcode(status)
    with open(err_path, "rb") as err:
        tail = err.read()[-600:].decode("utf-8", "replace").strip()
    return Proc(child.returncode, out, tail, seconds, usage.ru_maxrss / 1024.0)


def run_layerbench(argv, cwd, timeout):
    """Runs a layerbench subcommand; returns the JSON object it prints last."""
    result = subprocess.run(
        argv, cwd=cwd, stdin=subprocess.DEVNULL, capture_output=True, timeout=timeout
    )
    if result.returncode != 0:
        stderr = result.stderr.decode("utf-8", "replace").strip()[-600:]
        raise BenchError("layerbench %s failed: %s" % (argv[1], stderr))
    return json.loads(result.stdout.decode().strip().splitlines()[-1])


def build():
    """Builds compmem and layerbench in release mode; returns their paths."""
    if not (
        os.path.isfile(os.path.join(ROOT, "Cargo.toml"))
        and os.path.isdir(os.path.join(ROOT, "crates"))
    ):
        raise BenchError("the compmem sources (Cargo.toml, crates/) are not beside %s" % HERE)
    target = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    for manifest, extra in (
        ("Cargo.toml", ["-p", "compmem-bench", "--bin", "compmem"]),
        (os.path.join("benchmark", "layers", "Cargo.toml"), []),
    ):
        argv = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest]
        if subprocess.run(
            argv + extra, cwd=ROOT, env=env, stdin=subprocess.DEVNULL, stdout=sys.stderr
        ).returncode:
            raise BenchError("`%s` failed" % " ".join(argv + extra))
    release = os.path.join(target, "release")
    return os.path.join(release, "compmem"), os.path.join(release, "layerbench")


def tail(samples):
    """The highest of p99, p95, p90, p75 and p50 that has at least ten
    samples beyond it, as (p, value); None when even p50 has fewer."""
    ordered = sorted(samples)
    for p in (99, 95, 90, 75, 50):
        rank = math.ceil(p * len(ordered) / 100)
        if len(ordered) - rank >= 10:
            return p, ordered[rank - 1]
    return None


def describe(samples, unit, scale):
    """A timing: its sample count, median and the highest percentile that
    has at least ten samples beyond it."""
    if not samples:
        return "n=0"
    text = "n=%d, median %.5g %s" % (len(samples), statistics.median(samples) * scale, unit)
    high = tail(samples)
    if high:
        return text + ", p%d %.5g %s" % (high[0], high[1] * scale, unit)
    return text + ", no percentile has 10 samples beyond it"


def sha256_file(path):
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def provenance(seed, corpus):
    """What a result depends on: compare runs only when corpora match."""

    def first_line(argv):
        try:
            out = subprocess.run(
                argv, cwd=ROOT, stdin=subprocess.DEVNULL, capture_output=True, text=True,
                timeout=30,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            return None
        return out or None

    top = first_line(["git", "rev-parse", "--show-toplevel"])
    revision = None
    if top and os.path.realpath(top) == os.path.realpath(ROOT):
        revision = first_line(["git", "rev-parse", "HEAD"])
    sources = hashlib.sha256()
    paths = [os.path.join(ROOT, "Cargo.toml"), os.path.join(ROOT, "Cargo.lock")]
    for directory, _, files in os.walk(os.path.join(ROOT, "crates")):
        paths += [os.path.join(directory, name) for name in files]
    for path in sorted(p for p in paths if os.path.isfile(p)):
        sources.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            sources.update(f.read())
    return {
        "seed": seed,
        "corpus_sha256": corpus,
        "available_parallelism": len(os.sched_getaffinity(0)),
        "rustc": first_line(["rustc", "--version"]),
        "git_revision": revision or "none (not a git checkout)",
        "source_sha256": sources.hexdigest(),
    }


# --- one-shot workloads --------------------------------------------------


def make_trace(name, compmem, work, seed):
    """Set-up: `compmem record` of the paper-scale MPEG-2 (the same for
    every seed) or `compmem gen` of the 3-task mix. Returns the trace path
    and its access count."""
    if name == "zoo_mix3":
        trace = os.path.join(work, "mix.cmt")
        argv = [compmem, "gen", "--kind", "mix", "--tasks", "phased:24+128+250000,zipf:48,scan:128",
                "--accesses", "1000000", "--seed", str(seed), "--out", trace]
    else:
        trace = os.path.join(work, "paper.cmt")
        argv = [compmem, "record", "--app", "mpeg2", "--scale", "paper", "--out", trace]
    proc = run_proc(argv, work)
    found = ACCESSES.search(proc.out)
    if proc.code != 0 or not found:
        raise BenchError("set-up `compmem %s` failed: %s" % (argv[1], proc.err))
    return trace, int(found.group(1))


def oneshot_steps(name, compmem, trace):
    """The closed-loop steps of a one-shot workload, as (step, argv)."""
    spec = ONESHOT[name]
    return [
        ("profile", [compmem, "profile", "--trace", trace] + spec["flags"]),
        ("replay_qos", [compmem, "replay", "--trace", trace, "--qos", "1.0"] + spec["flags"]),
        ("control", [compmem, "replay", "--trace", trace] + spec["control"] + spec["flags"]),
    ]


def step_problems(step, proc, first, spec, facts):
    """Checks one `compmem` session; fills `facts` with the numbers its
    output reports."""
    if proc.code != 0:
        return ["exit status %d: %s" % (proc.code, proc.err)]
    problems = []
    if first.setdefault(step, proc.out) != proc.out:
        problems.append("stdout differs from this run's first %s session" % step)
    if step == "replay_qos":
        rows = QOS_ROW.findall(proc.out)
        if not rows:
            problems.append("no per-floor verdict rows")
        for key, predicted, measured, verdict in rows:
            key = key.decode()
            if verdict != b"ok":
                problems.append("%s verdict %s" % (key, verdict.decode()))
            if predicted != measured:
                problems.append("%s predicted %s%% but measured %s%%"
                                % (key, predicted.decode(), measured.decode()))
        found = QOS_MISSES.search(proc.out)
        if found:
            facts["partitioned_misses"] = int(found.group(1))
        else:
            problems.append("no qos-partitioned row")
    elif step == "control":
        switches, cost = SWITCHES.search(proc.out), CONTROL_COST.search(proc.out)
        if not (switches and cost):
            problems.append("no switch count or control cost")
        else:
            facts["switches"] = int(switches.group(1))
            facts["control_cost"] = int(cost.group(1))
            if facts["switches"] < spec["min_switches"]:
                problems.append("the controller fired %d switches, fewer than %d"
                                % (facts["switches"], spec["min_switches"]))
    elif step == "replay_shared":
        found = SHARED_MISSES.search(proc.out)
        if found:
            facts["shared_misses"] = int(found.group(1))
        else:
            problems.append("no shared row")
    return problems


def remove_sidecar(trace):
    """Deletes the trace's whole-run curve sidecar, so a profile is cold."""
    sidecar = os.path.splitext(trace)[0] + ".curves"
    if os.path.exists(sidecar):
        os.remove(sidecar)


def oneshot(name, compmem, work, seed, seconds, tally, report):
    """Measures paper_mpeg2 or zoo_mix3: one client, each step a fresh
    `compmem` process started after the previous one exits."""
    spec = ONESHOT[name]
    setup_times = []
    for _ in range(SETUP_REPS):
        start = time.perf_counter()
        trace, accesses = make_trace(name, compmem, work, seed)
        setup_times.append(time.perf_counter() - start)
    steps = oneshot_steps(name, compmem, trace)
    latencies = {step: [] for step, _ in steps}
    first, facts, rss, ops = {}, {}, 0.0, 0
    start = end = time.perf_counter()
    while ops < len(steps) or time.perf_counter() < start + seconds:
        step, argv = steps[ops % len(steps)]
        if step == "profile":
            remove_sidecar(trace)
        proc = run_proc(argv, work)
        ops += 1
        end = time.perf_counter()
        rss = max(rss, proc.rss_mb)
        if tally.record(step, step_problems(step, proc, first, spec, facts)):
            latencies[step].append(proc.seconds)
    wall = end - start
    # The shared-L2 denominator of miss_reduction_x, once per run.
    proc = run_proc([compmem, "replay", "--trace", trace, "--org", "shared"] + spec["flags"], work)
    rss = max(rss, proc.rss_mb)
    tally.record("replay_shared", step_problems("replay_shared", proc, first, spec, facts))
    needed = ("shared_misses", "partitioned_misses", "control_cost")
    if not all(latencies.values()) or not all(key in facts for key in needed):
        raise BenchError("a step never succeeded: %s" % "; ".join(tally.problems[-3:]))

    med = {step: statistics.median(values) for step, values in latencies.items()}
    # The throughput metrics use each step's fastest sample: on a shared
    # host the same process's CPU time varies by a fifth in stretches
    # lasting minutes, which moves the median of a run's few samples far
    # more than their best.
    quick = {step: min(values) for step, values in latencies.items()}
    reduction = facts["shared_misses"] / facts["partitioned_misses"]
    verb = "gen" if name == "zoo_mix3" else "record"
    report.append("set-up (compmem %s): %s" % (verb, describe(setup_times, "s", 1.0)))
    report.append("steps (closed loop, 1 client, %d processes in %.1f s, %.4g per s):"
                  % (ops, wall, ops / wall))
    for step, _ in steps:
        report.append("  %-11s %s" % (step, describe(latencies[step], "ms", 1e3)))
    report.append("replay_maps   %.6g Macc/s" % (accesses / med["replay_qos"] / 1e6))
    report.append("control_maps  %.6g Macc/s" % (accesses / med["control"] / 1e6))
    report.append("control_cost  %d lines, simulated (%d switches fired)"
                  % (facts["control_cost"], facts["switches"]))
    report.append("miss_reduction_x %.6g, simulated: %d shared-L2 / %d solved-partition misses; %s"
                  % (reduction, facts["shared_misses"], facts["partitioned_misses"],
                     paper_note(spec["paper_x"])))
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "profile_maps": (accesses / quick["profile"] / 1e6, "Macc/s"),
        "eval_maps": (len(steps) * accesses / sum(quick.values()) / 1e6, "Macc/s"),
        "miss_reduction_x": (reduction, "ratio"),
        "peak_rss_mb": (rss, "MB"),
    }
    return metrics, sha256_file(trace)


def paper_note(paper_x):
    if paper_x is None:
        return "the paper has no figure for generated traffic"
    return ("the paper reports %.1fx for MPEG-2 and 5x for JPEG+Canny; the model is not "
            "validated against hardware and no error figure is given" % paper_x)


# --- serve_mixed --------------------------------------------------------


class Daemon:
    """A `compmem serve` child on a free local port."""

    def __init__(self, compmem, work):
        self.store = os.path.join(work, "store")
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            self.port = probe.getsockname()[1]
        self.log = open(os.path.join(work, "serve.log"), "wb")
        self.child = subprocess.Popen(
            [compmem, "serve", "--store", self.store, "--port", str(self.port)],
            cwd=work, stdin=subprocess.DEVNULL, stdout=self.log, stderr=self.log,
        )
        deadline = time.monotonic() + 30
        while True:
            try:
                socket.create_connection(("127.0.0.1", self.port), timeout=1).close()
                return
            except OSError:
                if self.child.poll() is not None:
                    raise BenchError("compmem serve exited during start-up")
                if time.monotonic() > deadline:
                    raise BenchError("compmem serve did not listen within 30 s")
                time.sleep(0.02)

    def stop(self, compmem, work):
        """Shuts the daemon down over the wire and reaps it; returns its
        peak resident set in MB."""
        run_proc([compmem, "client", "shutdown", "--port", str(self.port)], work)
        deadline = time.monotonic() + 30
        while True:
            pid, status, usage = os.wait4(self.child.pid, os.WNOHANG)
            if pid:
                self.child.returncode = os.waitstatus_to_exitcode(status)
                self.log.close()
                return usage.ru_maxrss / 1024.0
            if time.monotonic() > deadline:
                self.child.kill()
            time.sleep(0.02)

    def kill(self):
        if self.child.returncode is None:
            self.child.kill()
            self.child.wait()
        self.log.close()


def serve_setup(compmem, work, daemons):
    """Records the paper trace, starts `compmem serve`, stores the trace
    and warms its whole-run sidecar."""
    trace, accesses = make_trace("serve_mixed", compmem, work, 0)
    daemon = Daemon(compmem, work)
    daemons.append(daemon)
    port = ["--port", str(daemon.port)]
    put = run_proc([compmem, "client", "put", "--trace", trace] + port, work)
    found = re.search(rb"stored trace ([0-9a-f]{16}) ", put.out)
    if put.code != 0 or not found:
        raise BenchError("set-up put failed: %s" % put.err)
    content_hash = found.group(1).decode()
    warm = run_proc([compmem, "client", "profile", "--hash", content_hash] + port + PAPER_FLAGS,
                    work)
    if warm.code != 0 or not warm.out.startswith(b"wrote curve sidecar"):
        raise BenchError("warming the sidecar failed: %s" % warm.err)
    return daemon, trace, accesses, content_hash


def serve_load(layerbench, daemon, content_hash, work, seed, cycles, tally):
    load = run_layerbench(
        [layerbench, "serve-load", "--addr", "127.0.0.1:%d" % daemon.port, "--store",
         daemon.store, "--hash", content_hash, "--seed", str(seed), "--cycles", str(cycles)],
        work, timeout=170,
    )
    tally.absorb(load)
    return load


def served_headline(outputs):
    """Shared-L2 misses (sweep-shapes at 2048 sets x 4 ways, the 512 KB
    L2) over the exact solver's predicted misses (profile), both read off
    the daemon's answers."""
    predicted = re.search(r"\(\d+ used, (\d+) predicted misses\)", outputs["profile"])
    lines = outputs["sweep-shapes"].splitlines()
    header = next(line for line in lines if line.startswith("L2 sets"))
    ways = [token for token in header.split() if token.endswith("-way")]
    row = next(line.split() for line in lines if line.split()[:1] == ["2048"])
    shared = int(row[3 + ways.index("4-way")])
    return shared, int(predicted.group(1))


def serve(compmem, layerbench, work, seed, seconds, tally, report, daemons):
    """Measures serve_mixed: two closed-loop clients on a spawned daemon."""
    setup_times = []
    for rep in range(SETUP_REPS):
        if rep:
            daemon.stop(compmem, work)
            shutil.rmtree(daemon.store)
        start = time.perf_counter()
        daemon, trace, accesses, content_hash = serve_setup(compmem, work, daemons)
        setup_times.append(time.perf_counter() - start)
    cycles = max(1, math.ceil(seconds * SERVE_CYCLES_PER_SECOND))
    load = serve_load(layerbench, daemon, content_hash, work, seed, cycles, tally)
    rss = daemon.stop(compmem, work)
    hits, puts, misses = ([ms / 1e3 for ms in load[key]] for key in ("hit_ms", "put_ms", "miss_ms"))
    if not (hits and misses):
        raise BenchError("no hit or first touch succeeded: %s" % "; ".join(tally.problems[-3:]))
    completed = len(hits) + len(puts) + len(misses)
    uploads = load["upload_accesses"]
    shared, predicted = served_headline(load["outputs"])
    report.append("set-up (record, start the daemon, put, warm the sidecar): %s"
                  % describe(setup_times, "s", 1.0))
    report.append("closed loop: 2 clients x %d cycles (hit, put, first-touch profile) in %.1f s"
                  % (cycles, load["wall_s"]))
    report.append("  serve_rps   %.6g requests/s" % (completed / load["wall_s"]))
    report.append("  hit         %s" % describe(hits, "ms", 1e3))
    report.append("  put         %s" % describe(puts, "ms", 1e3))
    report.append("  first touch %s" % describe(misses, "ms", 1e3))
    report.append("miss_reduction_x %.6g, simulated, from the served answers: %d shared-L2 / %d "
                  "predicted partitioned misses; %s"
                  % (shared / predicted, shared, predicted, paper_note(6.5)))
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "profile_maps": (uploads / min(misses) / 1e6, "Macc/s"),
        "eval_maps": ((accesses + uploads) / (min(hits) + min(misses)) / 1e6, "Macc/s"),
        "miss_reduction_x": (shared / predicted, "ratio"),
        "peak_rss_mb": (rss, "MB"),
    }
    return metrics, sha256_file(trace)


# --- the traced run -----------------------------------------------------


def traced(name, compmem, layerbench, work, seed, seconds, tally, report, daemons):
    """The per-layer run. The same set-up, one untraced pass to set the
    tracing overhead against, then `layerbench trace`."""
    untraced = {}
    if name == "serve_mixed":
        daemon, trace, _, content_hash = serve_setup(compmem, work, daemons)
        load = serve_load(layerbench, daemon, content_hash, work, seed, 3, tally)
        daemon.stop(compmem, work)
        if load["hit_ms"]:
            untraced["hit"] = statistics.median(load["hit_ms"])
    else:
        trace, _ = make_trace(name, compmem, work, seed)
        first, facts = {}, {}
        for step, argv in oneshot_steps(name, compmem, trace):
            if step == "profile":
                remove_sidecar(trace)
            proc = run_proc(argv, work)
            if tally.record(step, step_problems(step, proc, first, ONESHOT[name], facts)):
                untraced[step] = proc.seconds * 1e3
    spans = os.path.join(WORK_ROOT, "spans", "%s-seed%d.jsonl" % (name, seed))
    result = run_layerbench(
        [layerbench, "trace", "--workload", name, "--work", work, "--seed", str(seed),
         "--seconds", repr(float(seconds)), "--spans", spans],
        work, timeout=170,
    )
    tally.absorb(result)
    report.append("tracing overhead (traced total against the same step untraced, this run):")
    for key, value in untraced.items():
        traced_ms = result["totals_ms"][key]
        report.append("  %-11s traced %.1f ms, untraced %.1f ms, ratio %.3f"
                      % (key, traced_ms, value, traced_ms / value))
    report.append("%d spans written to %s" % (result["spans"], os.path.relpath(spans, ROOT)))
    metrics = {}
    for metric, entry in result["metrics"].items():
        if entry["value"] is None:
            raise BenchError("per-layer metric %s was not measured" % metric)
        metrics[metric] = (entry["value"], entry["unit"])
    return metrics, sha256_file(trace)


# --- driver -------------------------------------------------------------


def run(args, compmem, layerbench, work, daemons):
    tally, report = Tally(), []
    mode = "traced per-layer run" if args.trace else "tracing off"
    report.append("benchmark %s: seed %d, %g s, %s" % (args.workload, args.seed, args.seconds, mode))
    if args.trace:
        metrics, corpus = traced(args.workload, compmem, layerbench, work, args.seed,
                                 args.seconds, tally, report, daemons)
    elif args.workload == "serve_mixed":
        metrics, corpus = serve(compmem, layerbench, work, args.seed, args.seconds, tally, report,
                                daemons)
    else:
        metrics, corpus = oneshot(args.workload, compmem, work, args.seed, args.seconds, tally,
                                  report)
    report.append("provenance " + json.dumps(provenance(args.seed, corpus), sort_keys=True))
    for line in report:
        print(line)
    print("metrics:")
    for metric, (value, unit) in metrics.items():
        print("  %-24s %.6g %s" % (metric, value, unit))
    for problem in tally.problems[:20]:
        print("problem: " + problem)
    print("error_rate %.4g (%d failed of %d attempted)"
          % (tally.failed / max(tally.attempted, 1), tally.failed, tally.attempted))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {metric: {"value": value, "unit": unit}
                    for metric, (value, unit) in metrics.items()},
    }))
    return 0 if tally.failed == 0 else 1


def self_test(compmem, work):
    """Checks the harness itself: an injected wrong output and a killed
    `compmem` child each count exactly once, and timings report the
    highest percentile with ten samples beyond it."""
    trace = os.path.join(work, "t.cmt")
    proc = run_proc([compmem, "gen", "--kind", "mix", "--tasks", "chase:24,scan:256x4",
                     "--accesses", "5000", "--seed", "1", "--out", trace], work)
    if proc.code != 0:
        raise BenchError("self-test set-up failed: %s" % proc.err)
    argv = [compmem, "replay", "--trace", trace, "--qos", "1.0"] + ZOO_FLAGS
    spec, first, facts, tally, failures = {"min_switches": 0}, {}, {}, Tally(), []

    def expect(label, condition):
        print("%s %s" % ("ok  " if condition else "FAIL", label))
        if not condition:
            failures.append(label)

    tally.record("clean", step_problems("replay_qos", run_proc(argv, work), first, spec, facts))
    expect("a clean session passes", (tally.attempted, tally.failed) == (1, 0))
    wrong = run_proc(argv, work)
    # Breaks both the verdict and the byte identity of one output.
    wrong.out = wrong.out.replace(b"  ok", b"  VIOLATED")
    tally.record("wrong", step_problems("replay_qos", wrong, first, spec, facts))
    expect("an injected wrong output counts once", (tally.attempted, tally.failed) == (2, 1))
    killed = run_proc(argv, work, kill=True)
    tally.record("killed", step_problems("replay_qos", killed, first, spec, facts))
    expect("a killed compmem child counts once",
           killed.code != 0 and (tally.attempted, tally.failed) == (3, 2))
    expect("100 samples report p90 with 10 beyond it", tail(range(1, 101)) == (90, 90))
    expect("50 samples report p75", tail(range(1, 51)) == (75, 38))
    expect("10 samples report only the median", tail(range(10)) is None)
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description="The compmem repository benchmark.")
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="check the harness's error accounting and percentiles")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")
    # A terminated run still stops the daemon it started.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    daemons, work = [], None
    try:
        compmem, layerbench = build()
        work = os.path.join(WORK_ROOT, "%s-seed%d-%d"
                            % (args.workload or "self-test", args.seed, os.getpid()))
        shutil.rmtree(work, ignore_errors=True)
        os.makedirs(work)
        if args.self_test:
            return self_test(compmem, work)
        return run(args, compmem, layerbench, work, daemons)
    except (BenchError, OSError, subprocess.SubprocessError, ValueError, KeyError,
            StopIteration) as e:
        print("benchmark: %s" % e, file=sys.stderr)
        return 2
    finally:
        for daemon in daemons:
            daemon.kill()
        if work:
            shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
