#!/usr/bin/env python3
"""Sweep benchmark: the study's 21-experiment sweep, end to end and layer by layer.

Run from the root of a checkout:

    python3 sweepbench/run.py --workload sweep-live --seed 1 --seconds 25 --trace 0

Workloads (see sweepbench/README.md for why each was chosen):

    sweep-live    experiments --jobs 2 --checkpoint <fresh> --manifest <fresh> <ids>
    sweep-trace   experiments --jobs 2 --trace-cache <cache filled in set-up> <ids>
    sweep-resume  experiments --jobs 2 --checkpoint <journal of a sweep-live run> <ids>

The script builds the `experiments` binary and the layer-pass package
from source (into $CARGO_TARGET_DIR, default .bench_build), prepares the
workload in a temporary directory under .bench_work, runs the command
repeatedly for --seconds, and checks every run: exit status, the stdout
digest against the pinned reference, and the workload's path self-check.
With --trace 1 it instead runs the traced per-layer pass
(sweepbench/layers) under the workload's context.

The last line of stdout is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
The line before it holds host facts, provenance and per-sample detail.
"""

import argparse
import hashlib
import json
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Pinned rather than `all`, so a new experiment cannot silently grow the load.
IDS = ["t1", "t2"] + [f"f{i}" for i in range(1, 20)]
JOBS = 2
# sha256 of the sweep's stdout; every workload must reproduce it byte for byte.
REFERENCE_SHA256 = "21030d9793eb511e70f46cf692d97bdfc98f379b49b0237cc21e5c92ee832db6"
# Cells the sweep resolves (journal lines of a fresh run; restores on resume).
CELLS = 1947
# The cell the tamper self-test edits in a copy of the journal.
TAMPER_LABEL = "f3/gzip/+SFPF"
WORKLOADS = ("sweep-live", "sweep-trace", "sweep-resume")
SETUP_REPS = 3  # set-up repetitions per run; setup_s is their median
MIN_SAMPLES = 3  # measured sweeps per run, even if --seconds is short
TRACED_UNTRACED_SAMPLES = 3  # untraced sweeps a traced run compares against
# Branches the host reference mispredicts on JOBS threads of 10 M branches
# each, and its median CPU time on the 2-core Xeon host where this was set.
HOSTREF_MISSES = 4415412
HOSTREF_CPU_S = 0.25
EVAL_SEED = 0x6576_616C  # predbranch_workloads::EVAL_SEED
MIX = 0x9E37_79B9_7F4A_7C15


class Failure(Exception):
    """A broken benchmark precondition (build, missing files): no result."""


def log(message):
    print(f"sweepbench: {message}", file=sys.stderr, flush=True)


def target_dir():
    return (ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve()


def build():
    if not (ROOT / "Cargo.toml").is_file() or not (ROOT / "crates" / "bench").is_dir():
        raise Failure(f"{ROOT} holds no predbranch workspace to build")
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir()))
    for cmd in (
        ["cargo", "build", "--release", "--offline", "-p", "predbranch-bench", "--bin", "experiments"],
        ["cargo", "build", "--release", "--offline", "--manifest-path", str(HERE / "layers" / "Cargo.toml")],
    ):
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            raise Failure(f"build failed: {' '.join(cmd)}")
    release = target_dir() / "release"
    return release / "experiments", release / "sweepbench-layers", release / "sweepbench-hostref"


def run_timed(argv, cwd, tag):
    """Runs argv with stdout/stderr captured to files in cwd.

    Returns (exit code, wall s, cpu s, peak rss MB, stdout bytes, stderr text).
    """
    out_path, err_path = Path(cwd) / f"{tag}.out", Path(cwd) / f"{tag}.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        started = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, stdout=out, stderr=err)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    stdout = out_path.read_bytes()
    stderr = err_path.read_text(errors="replace")
    out_path.unlink()
    err_path.unlink()
    cpu = usage.ru_utime + usage.ru_stime
    return proc.returncode, wall, cpu, usage.ru_maxrss * 1024 / 1e6, stdout, stderr


def tree_bytes(path):
    path = Path(path)
    if path.is_file():
        return path.stat().st_size
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def keyed_lines(journal):
    with open(journal, encoding="utf-8") as f:
        return sum(1 for line in f if line.startswith('{"k":'))


def violations(code, stdout, problems):
    """Everything wrong with one run: exit status, stdout digest, path self-check."""
    found = [f"exit code {code}"] if code != 0 else []
    digest = hashlib.sha256(stdout).hexdigest()
    if digest != REFERENCE_SHA256:
        found.append(f"stdout digest {digest[:16]} != reference")
    return found + problems


class Gate:
    """Counts every checked operation and every violation."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def check(self, what, code, stdout, problems):
        """Counts one run, and logs and counts it as failed if anything is wrong."""
        self.attempted += 1
        problems = violations(code, stdout, problems)
        if problems:
            self.failed += 1
            log(f"FAILED {what}: {'; '.join(problems)}")


def expect(stderr, pattern, message):
    """A path self-check on stderr: [] if the pattern is there, [message] otherwise."""
    return [] if re.search(pattern, stderr) else [message]


def live_checks(stderr, journal):
    problems = expect(stderr, r"checkpoint \S+: 0 completed cells loaded", "journal was not fresh")
    problems += expect(stderr, rf"manifest: {CELLS} cells", f"manifest does not hold {CELLS} cells")
    lines = keyed_lines(journal) if Path(journal).exists() else 0
    if lines != CELLS:
        problems.append(f"journal holds {lines} cells, expected {CELLS}")
    return problems


def trace_checks(stderr, cold):
    found = re.search(r"trace cache: (\d+) replays, (\d+) recordings", stderr)
    if not found:
        return ["no trace cache summary"]
    replays, recordings = int(found.group(1)), int(found.group(2))
    if cold:
        return [] if recordings > 0 else ["cold fill recorded nothing"]
    return [] if recordings == 0 and replays > 0 else [f"{recordings} recordings on a warm cache"]


def resume_checks(stderr):
    return expect(stderr, rf"checkpoint: {CELLS} cells restored without re-running", f"not all {CELLS} cells restored")


class Workload:
    """Set-up, command and checks of one workload, in a private directory."""

    def __init__(self, name, exe, hostref, work, gate):
        self.name, self.exe, self.hostref, self.work, self.gate = name, exe, hostref, Path(work), gate
        self.cache = self.work / "cache"
        self.journal = self.work / "setup.ckpt"
        self.manifest = self.work / "setup.json"
        self.runs = 0

    def sweep(self, extra, tag):
        return run_timed([str(self.exe), "--jobs", str(JOBS)] + extra + IDS, self.work, tag)

    def live_run(self, journal, manifest, tag):
        for path in (journal, manifest):
            Path(path).unlink(missing_ok=True)
        result = self.sweep(["--checkpoint", str(journal), "--manifest", str(manifest)], tag)
        self.gate.check(tag, result[0], result[4], live_checks(result[5], journal))
        return result

    def host_reference(self):
        """CPU seconds of the fixed host reference, run right before and after each timing."""
        code, _, cpu, _, stdout, _ = run_timed([str(self.hostref), "--threads", str(JOBS)], self.work, "hostref")
        if code != 0 or stdout.strip() != str(HOSTREF_MISSES).encode():
            raise Failure(f"host reference exited {code} with {stdout[:40]!r}, expected {HOSTREF_MISSES}")
        return cpu

    def setup_once(self, rep):
        """One set-up repetition; returns its wall time."""
        if self.name == "sweep-trace":
            # the cold fill of the trace cache
            shutil.rmtree(self.cache, ignore_errors=True)
            result = self.sweep(["--trace-cache", str(self.cache)], f"setup{rep}")
            self.gate.check(f"setup{rep}", result[0], result[4], trace_checks(result[5], cold=True))
            return result[1]
        # sweep-resume: the journal (and manifest) of a sweep-live run.
        # sweep-live: nothing persists between its sweeps, so set-up is a
        # warm-up sweep, whose journal the traced checkpoint layer replays
        return self.live_run(self.journal, self.manifest, f"setup{rep}")[1]

    def setup(self, reps):
        """Set-up `reps` times; returns their wall times and the reference times around them."""
        walls, refs = [], [self.host_reference()]
        for rep in range(reps):
            walls.append(self.setup_once(rep))
            refs.append(self.host_reference())
        return walls, refs

    def measured(self):
        """One measured run: (wall, cpu, rss MB, disk MB)."""
        self.runs += 1
        tag = f"run{self.runs}"
        if self.name == "sweep-live":
            journal, manifest = self.work / f"{tag}.ckpt", self.work / f"{tag}.json"
            result = self.live_run(journal, manifest, tag)
            disk = tree_bytes(journal) + tree_bytes(manifest)
            journal.unlink(missing_ok=True)
            manifest.unlink(missing_ok=True)
        elif self.name == "sweep-trace":
            result = self.sweep(["--trace-cache", str(self.cache)], tag)
            self.gate.check(tag, result[0], result[4], trace_checks(result[5], cold=False))
            disk = tree_bytes(self.cache)
        else:
            result = self.sweep(["--checkpoint", str(self.journal)], tag)
            self.gate.check(tag, result[0], result[4], resume_checks(result[5]))
            disk = tree_bytes(self.journal)
        return result[1], result[2], result[3], disk / 1e6

    def tamper_self_test(self):
        """Edits one "all" pair in a copy of the journal; the gate must fail the run."""
        cells = json.loads(self.manifest.read_text())["cells"]
        key = next((c["key"] for c in cells if c["label"] == TAMPER_LABEL), None)
        lines = self.journal.read_text().splitlines(keepends=True)
        # the last line of a key is the one the journal loader keeps
        at = max((i for i, line in enumerate(lines) if key and f'"k":"{key}"' in line), default=None)
        edited = None
        if at is not None:
            edited = re.sub(
                r'"all":\[(\d+),(\d+)\]',
                lambda m: f'"all":[{m.group(1)},{int(m.group(2)) // 4}]',
                lines[at],
                count=1,
            )
        caught = []
        if edited is not None and edited != lines[at]:
            lines[at] = edited
            copy = self.work / "tampered.ckpt"
            copy.write_text("".join(lines))
            result = self.sweep(["--checkpoint", str(copy)], "tamper")
            caught = violations(result[0], result[4], resume_checks(result[5]))
            copy.unlink()
        self.gate.attempted += 1
        if caught:
            log(f"tamper self-test: edited {TAMPER_LABEL} in a journal copy; run failed as intended ({'; '.join(caught)})")
        else:
            self.gate.failed += 1
            log(f"FAILED tamper self-test: an edited {TAMPER_LABEL} journal entry went undetected")


def summary(values):
    """Median, sample count and the highest percentile with >= 10 samples beyond it."""
    ordered = sorted(values)
    out = {"median": statistics.median(ordered), "n": len(ordered)}
    for pct in (99, 90, 50):
        beyond = len(ordered) - int(len(ordered) * pct / 100)
        if len(ordered) >= 2 and beyond >= 10:
            out[f"p{pct}"] = statistics.quantiles(ordered, n=100)[pct - 1]
            break
    out["samples"] = [round(v, 6) for v in values]
    return out


def host_facts():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), cpu)
    except OSError:
        pass

    def first_line(cmd):
        try:
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=30)
            return done.stdout.strip() if done.returncode == 0 else "unknown"
        except (OSError, subprocess.SubprocessError):
            return "unknown"

    # the checkout may not be a git repository: a digest of the sources
    # identifies the code either way
    digest = hashlib.sha256()
    sources = [ROOT / "Cargo.toml", ROOT / "Cargo.lock"]
    for top in ("crates", "shims"):
        sources += sorted(p for p in (ROOT / top).rglob("*") if p.is_file() and "target" not in p.parts)
    for path in sources:
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "machine": platform.machine(),
        "rustc": first_line(["rustc", "--version"]),
        "git_commit": first_line(["git", "rev-parse", "HEAD"]) if (ROOT / ".git").exists() else "unknown",
        "source_sha256": digest.hexdigest(),
    }


def declared_metrics(kind):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def untraced(workload, seconds):
    """Measured sweeps for `seconds` (at least MIN_SAMPLES), each followed by the host reference.

    Returns the samples and the reference times, the first of which is
    taken before the first sweep.
    """
    samples, refs = [], [workload.host_reference()]
    started = time.perf_counter()
    last = 0.0
    # start another sweep only if it should end within the window
    while len(samples) < MIN_SAMPLES or time.perf_counter() - started + last <= seconds:
        begun = time.perf_counter()
        samples.append(workload.measured())
        refs.append(workload.host_reference())
        last = time.perf_counter() - begun
    return samples, refs


def host_scaled(times, refs):
    """Median of times scaled to a host on which the reference takes HOSTREF_CPU_S.

    refs[i] and refs[i + 1] are the reference times right before and
    right after times[i]; their mean scales it.

    The host is shared: for minutes at a time it runs every process slower,
    by a fifth or more, CPU time included (steal time is accounted apart,
    so this is contention for the cores and their caches). Runs of the same
    code then spread past any useful bound. The reference, timed around
    each sweep, slows alike, and the ratio does not.
    """
    return statistics.median(2 * t / (a + b) for t, a, b in zip(times, refs, refs[1:])) * HOSTREF_CPU_S


def end_to_end(workload, seconds, detail):
    setups, setup_refs = workload.setup(SETUP_REPS)
    if workload.name == "sweep-resume":
        workload.tamper_self_test()
    # write back what set-up wrote (a 270 MB trace cache per cold fill)
    # before timing, not during it
    os.sync()
    samples, refs = untraced(workload, seconds)
    columns = {
        "sweep_s": [s[0] for s in samples],
        "cpu_s": [s[1] for s in samples],
        "peak_rss_mb": [s[2] for s in samples],
        "disk_mb": [s[3] for s in samples],
        "setup_s": setups,
        "hostref_cpu_s": refs + setup_refs,
    }
    # the detail line keeps the unscaled host times
    detail["end_to_end"] = {name: summary(values) for name, values in columns.items()}
    values = {name: statistics.median(values) for name, values in columns.items()}
    values["sweep_s"] = host_scaled(columns["sweep_s"], refs)
    values["cpu_s"] = host_scaled(columns["cpu_s"], refs)
    values["setup_s"] = host_scaled(columns["setup_s"], setup_refs)
    return values


def input_seed(seed):
    """The held-out input the traced layer pass runs on: EVAL_SEED for seed 0."""
    return EVAL_SEED if seed == 0 else (EVAL_SEED + seed * MIX) % (1 << 64)


def traced(workload, layers_exe, seed, gate, detail):
    workload.setup(1)
    os.sync()
    samples = [workload.measured() for _ in range(TRACED_UNTRACED_SAMPLES)]
    sweep_s = statistics.median(s[0] for s in samples)
    busy = statistics.median(s[1] / (JOBS * s[0]) for s in samples)

    journal = workload.journal
    if workload.name == "sweep-trace":
        # the trace workload journals nothing; the checkpoint layer needs
        # a completed sweep journal to replay
        workload.live_run(journal, workload.manifest, "journal")
    if workload.name == "sweep-live":
        flags = ["--checkpoint", str(workload.work / "traced.ckpt"), "--manifest", str(workload.work / "traced.json")]
    elif workload.name == "sweep-trace":
        flags = ["--trace-cache", str(workload.cache)]
    else:
        resume = workload.work / "traced.ckpt"
        shutil.copyfile(journal, resume)
        flags = ["--checkpoint", str(resume)]
    rendered = workload.work / "traced.out"
    argv = [str(layers_exe), "--jobs", str(JOBS), "--work", str(workload.work / "layers"),
            "--journal", str(journal), "--stdout", str(rendered),
            "--input-seed", str(input_seed(seed))] + flags + IDS
    code, wall, _, _, stdout, stderr = run_timed(argv, workload.work, "layers")
    sys.stderr.write(stderr)
    values, notes = {}, {}
    for line in stdout.decode().splitlines():
        parts = line.split()
        if len(parts) == 4 and parts[0] == "METRIC":
            values[parts[1]] = float(parts[2])
        elif len(parts) == 3 and parts[0] == "NOTE":
            notes[parts[1]] = float(parts[2])
    output = rendered.read_bytes() if rendered.exists() else b""
    problems = []
    if workload.name == "sweep-trace" and not (values.get("sweep.recordings") == 0 and values.get("sweep.replays", 0) > 0):
        problems.append("traced sweep was not served from the warm cache")
    if workload.name == "sweep-resume" and values.get("sweep.checkpoint_hits") != CELLS:
        problems.append(f"traced sweep did not restore all {CELLS} cells")
    if workload.name == "sweep-live" and values.get("sweep.checkpoint_hits") != 0:
        problems.append("traced live sweep restored cells")
    gate.check("traced layer pass", code, output, problems)

    exp_total = sum(v for k, v in values.items() if k.startswith("exp.") and k.endswith(".s"))
    traced_wall = values.get("traced.wall_s", float("nan"))
    values["traced.coverage"] = exp_total / traced_wall
    values["traced.overhead_s"] = traced_wall - sweep_s
    values["traced.untraced_sweep_s"] = sweep_s
    values["pool.busy_ratio"] = busy
    detail["notes"] = notes
    detail["counters"] = {k: v for k, v in values.items() if k.startswith("sweep.")}
    detail["layer_pass_wall_s"] = wall
    return values


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # on SIGTERM, unwind: the running child is killed and reaped, the
    # temporary directory removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    try:
        experiments, layers, hostref = build()
        work_root = ROOT / ".bench_work"
        work_root.mkdir(exist_ok=True)
        work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root)
        gate = Gate()
        detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "jobs": JOBS,
                  "ids": IDS, "reference_sha256": REFERENCE_SHA256, "host": host_facts()}
        try:
            workload = Workload(args.workload, experiments, hostref, work, gate)
            if args.trace:
                detail["input_seed"] = input_seed(args.seed)
                values = traced(workload, layers, args.seed, gate, detail)
                kind = "per_layer"
            else:
                values = end_to_end(workload, args.seconds, detail)
                kind = "end_to_end"
        finally:
            shutil.rmtree(work, ignore_errors=True)
        declared = declared_metrics(kind)
        missing = sorted(set(declared) - set(values))
        if missing:
            raise Failure(f"no measurement for declared metrics: {', '.join(missing)}")
    except Failure as e:
        log(str(e))
        return 1

    detail["fail_rate"] = gate.failed / gate.attempted
    print(json.dumps(detail, sort_keys=True))
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in declared.items()}
    print(json.dumps({"correct": gate.failed == 0, "attempted": gate.attempted,
                      "failed": gate.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
