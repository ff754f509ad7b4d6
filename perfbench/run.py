"""Benchmark of the revsym command line.

Usage::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--record PATH]

Run from anywhere inside a checkout; the program is imported from ``src``.
Each workload is a list of ``revsym`` commands (a pass).  Every command runs
in a fresh interpreter (``perfbench/child.py``), one at a time, because
separate ``revsym`` invocations never share a per-process cache.  The child
times only the call to ``revsym.cli.main``; importing ``revsym.cli`` is timed
apart as set-up.  Passes repeat until ``--seconds`` would be exceeded.

Every reported time is scaled to a fixed reference speed of the host.  On a
shared host the speed of this process drifts by tens of percent within
seconds, as other tenants come and go.  So the child times a short fixed
loop, a speed probe, before, during and after each command (``child.py``),
and the command's times are multiplied by ``REFERENCE_PROBE_S`` over the
median probe time.  A change to revsym moves the scaled times as it moves
the wall times; a change in host speed moves the probe as well and cancels.
The unscaled median pass time is printed as ``wall_pass_s``.

Every command's output is checked against values the benchmark computes or
stores itself (``reference.py`` and ``golden/``), never against revsym; a
nonzero exit or a wrong output counts as a failed command.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes; traced passes record a span around each call
into revsym's public functions (``spans.py``) and report per-layer self
times and work counts.  The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

``--record PATH`` appends the run, with the Python version, git commit,
``nproc``, load average and seed, to a JSON results file such as
``perfbench/results/BENCH_baseline.json``.

Tests: ``python3 -m unittest discover -s perfbench``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TMP = ROOT / ".perfbench_tmp"
sys.path.insert(0, str(HERE))

import reference  # noqa: E402
import spans  # noqa: E402

CHILD_TIMEOUT_S = 150
MEASURE_LIMIT_S = 150  # a hung command is cut off here, so the run still ends within 180 s
TILES_COMMANDS = 40
TILES_COUNT = 100
# The speed probe's typical time on an uncontended Intel Xeon KVM guest with
# 2 vCPUs and Python 3.11; scaled times are seconds at that speed.
REFERENCE_PROBE_S = 0.00027

# name -> (unit, better); BENCHMARK.json lists the same names and units
END_TO_END = {
    "pass_s": ("s", "lower"),
    "cmd_p50_ms": ("ms", "lower"),
    "cmd_p90_ms": ("ms", "lower"),
    "peak_rss_mb": ("MiB", "lower"),
    "setup_s": ("s", "lower"),
}
PER_LAYER = {
    "dissection_oracle.enumerate_count.self_s": ("s", "lower"),
    "dissection_oracle.enumerate_count.calls": ("count", "lower"),
    "dissection_oracle.dissections_visited": ("count", "lower"),
    "dissection_oracle.dissections_per_s": ("1/s", "higher"),
    "dissection_oracle.count_chord_diagrams.self_s": ("s", "lower"),
    "dissection_oracle.count_chord_diagrams.calls": ("count", "lower"),
    "dissection_oracle.chord_sets_visited": ("count", "lower"),
    "dissection_oracle.count_by_series.self_s": ("s", "lower"),
    "dissection_oracle.count_by_series.calls": ("count", "lower"),
    "power_series.lagrange_coefficients.self_s": ("s", "lower"),
    "power_series.lagrange_coefficients.calls": ("count", "lower"),
    "power_series.lagrange_coefficients.terms": ("count", "lower"),
    "power_series.max_term_bits": ("bits", "lower"),
    "power_series.revert_direct.self_s": ("s", "lower"),
    "power_series.revert_direct.calls": ("count", "lower"),
    "closed_forms.self_s": ("s", "lower"),
    "closed_forms.calls": ("count", "lower"),
    "exact_arith.calls": ("count", "lower"),
    "symbols.self_s": ("s", "lower"),
    "symbols.calls": ("count", "lower"),
    "cli.self_s": ("s", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
}
# per-layer counts derived from span arguments and results, not counted by revsym
COMPUTED = {
    "dissection_oracle.dissections_visited": "sum of little-Schroeder(n) over enumerate_count(n), n >= 1",
    "dissection_oracle.dissections_per_s": "dissections_visited / enumerate_count.self_s",
    "dissection_oracle.chord_sets_visited": "sum of Motzkin(p) over count_chord_diagrams(p)",
    "power_series.lagrange_coefficients.terms": "sum of len(result) over lagrange_coefficients",
    "power_series.max_term_bits": "bit length of the largest term lagrange_coefficients returned",
}


@dataclass
class Outcome:
    rc: Optional[int]
    stdout: str = ""
    stderr: str = ""
    import_s: Optional[float] = None
    main_s: Optional[float] = None
    probe_s: list = field(default_factory=list)
    maxrss_kb: int = 0
    spans: list = field(default_factory=list)
    counts: dict = field(default_factory=dict)

    @property
    def speed(self) -> float:
        """The host's speed around this command, relative to the reference speed."""
        return REFERENCE_PROBE_S / statistics.median(self.probe_s)

    @property
    def scaled_s(self) -> float:
        """Seconds in ``revsym.cli.main``, scaled to the reference speed."""
        return self.main_s * self.speed


@dataclass
class Command:
    argv: list[str]
    check: Callable[[Outcome], Optional[str]]  # returns what is wrong, or None


# --- output checks -----------------------------------------------------------

def _numbered_values(lines: list[str]) -> list[int]:
    """The second column of ``i value ...`` lines, insisting i runs 0, 1, 2, ..."""
    values = []
    for i, line in enumerate(lines):
        fields = line.split()
        if len(fields) < 2 or fields[0] != str(i):
            raise ValueError(f"line {i} is {line!r}")
        values.append(int(fields[1]))
    return values


def check_verify(expected: list[int]) -> Callable[[Outcome], Optional[str]]:
    def check(out: Outcome) -> Optional[str]:
        rows = [line for line in out.stdout.splitlines() if line[:1].isdigit()]
        try:
            got = _numbered_values(rows)
        except ValueError as exc:
            return f"verify table: {exc}"
        return None if got == expected else "verify a(n) column differs from golden"
    return check


def check_bfile(path: Path, expected: bytes) -> Callable[[Outcome], Optional[str]]:
    def check(out: Outcome) -> Optional[str]:
        try:
            got = path.read_bytes()
        except OSError as exc:
            return f"b-file not written: {exc}"
        path.unlink()
        return None if got == expected else f"{path.name} differs from golden bytes"
    return check


def check_tiles(spec: str) -> Callable[[Outcome], Optional[str]]:
    expected: list[int] = []

    def check(out: Outcome) -> Optional[str]:
        if not expected:
            expected.extend(reference.tile_terms(reference.parse_spec(spec), TILES_COUNT))
        try:
            got = _numbered_values(out.stdout.splitlines()[1:])
        except ValueError as exc:
            return f"from-tiles {spec}: {exc}"
        return None if got == expected else f"from-tiles {spec} differs from the reference counter"
    return check


def judge(command: Command, out: Outcome) -> Optional[str]:
    """Why the command failed, or None when it exited 0 with the right output."""
    if out.rc != 0:
        return f"exit code {out.rc}: {out.stderr.strip()[-300:]}"
    return command.check(out)


# --- workloads ---------------------------------------------------------------

def _shuffled(items, seed: int) -> list:
    items = list(items)
    random.Random(seed).shuffle(items)
    return items


def verify_catalog(seed: int) -> list[Command]:
    """Oracle-bound: brute-force enumeration and chord counting dominate.

    Cap 10 keeps the code paths and the per-rule repeated enumeration of the
    default cap 12 at a small fraction of its time.  The seed only orders
    the commands.
    """
    golden = json.loads((reference.GOLDEN / "verify.json").read_text(encoding="ascii"))
    return [
        Command(["verify", name, "--count", str(reference.VERIFY_COUNT), "--exhaustive-cap-n", "10"],
                check_verify(golden[name]))
        for name in _shuffled(reference.CATALOG, seed)
    ]


def bfile_deep(seed: int) -> list[Command]:
    """Long Lagrange reversions on big integers; the oracle never runs.

    The seed only orders the commands.
    """
    commands = []
    for name in _shuffled(reference.CATALOG, seed):
        out = TMP / f"{name}.b"
        golden = (reference.GOLDEN / "bfile" / f"{name}.txt").read_bytes()
        commands.append(Command(["bfile", name, "--count", str(reference.BFILE_COUNT), "--out", str(out)],
                                check_bfile(out, golden)))
    return commands


def tiles_specs(seed: int) -> list[str]:
    """Forty tile specs: the five keywords and 35 lists of 1 to 3 entries in 3..12.

    A spec's run time depends mostly on its largest entry, on whether that
    entry is a tail ``k+``, and on its smallest entry.  Those are fixed per
    slot, and the seed only moves the smallest sizes between slots that
    share a largest entry, draws the middle sizes and orders the commands.
    So every seed gives a different command list of about the same total
    work, and pass times from different seeds stay comparable.
    """
    rng = random.Random(seed)
    slots = []  # (largest entry, whether it is a tail, how many entries lie below it)
    for j in range(TILES_COMMANDS - len(reference.KEYWORDS)):
        top = 3 + j % 10
        slots.append((top, j % 2 == 1, min(j % 3, top - 3)))
    lows = defaultdict(list)  # smallest entries, dealt at random among slots with the same largest entry
    for j, (top, _tail, below) in enumerate(slots):
        if below:
            lows[top].append(3 + (j // 3) % (top - 3))
    for group in lows.values():
        rng.shuffle(group)
    specs = list(reference.KEYWORDS)
    for top, tail, below in slots:
        sizes = [lows[top].pop()] if below else []
        if below == 2 and top - sizes[0] >= 2:
            sizes.append(rng.randint(sizes[0] + 1, top - 1))
        specs.append(",".join([*map(str, sizes), f"{top}+" if tail else str(top)]))
    rng.shuffle(specs)
    return specs


def tiles_mix(seed: int) -> list[Command]:
    """Many short reversions and tile-equation counts on small integers."""
    return [Command(["from-tiles", spec, "--count", str(TILES_COUNT)], check_tiles(spec))
            for spec in tiles_specs(seed)]


WORKLOADS = {"verify-catalog": verify_catalog, "bfile-deep": bfile_deep, "tiles-mix": tiles_mix}


# --- running -----------------------------------------------------------------

def execute(argv: list[str], trace: bool, timeout: float = CHILD_TIMEOUT_S) -> Outcome:
    """Run one command in a fresh interpreter and collect its report."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), "1" if trace else "0", *argv],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return Outcome(rc=None, stderr=f"timed out after {timeout:.0f} s")
    try:
        report = json.loads(proc.stdout)
    except json.JSONDecodeError:
        return Outcome(rc=proc.returncode or None, stderr=proc.stderr)
    return Outcome(**report)


@dataclass
class Pass:
    traced: bool
    outcomes: list[Outcome]
    errors: list[Optional[str]]

    @property
    def main_s(self) -> float:
        return sum(o.main_s for o in self.outcomes if o.main_s is not None)

    @property
    def scaled_s(self) -> float:
        return sum(o.scaled_s for o in self.outcomes if o.main_s is not None)


def run_pass(commands: list[Command], traced: bool, deadline: float) -> Pass:
    outcomes, errors = [], []
    for command in commands:
        remaining = deadline - time.perf_counter()
        if remaining > 0:
            out = execute(command.argv, traced, remaining)
        else:
            out = Outcome(rc=None, stderr="not run: the run's time limit had passed")
        outcomes.append(out)
        errors.append(judge(command, out))
    return Pass(traced, outcomes, errors)


def measure(commands: list[Command], seconds: float, trace: bool) -> list[Pass]:
    """Untraced passes, or untraced and traced pairs, for about ``seconds``."""
    kinds = (False, True) if trace else (False,)
    start = time.perf_counter()
    deadline = start + MEASURE_LIMIT_S
    passes: list[Pass] = []
    rounds: list[float] = []
    while not rounds or time.perf_counter() - start + statistics.median(rounds) <= seconds:
        begun = time.perf_counter()
        passes.extend(run_pass(commands, traced, deadline) for traced in kinds)
        rounds.append(time.perf_counter() - begun)
    return passes


# --- metrics -----------------------------------------------------------------

def end_to_end(passes: list[Pass]) -> dict[str, float]:
    """The end-to-end metrics, every time scaled to the reference speed."""
    timed = [p for p in passes if not p.traced]
    latencies = [o.scaled_s * 1e3 for p in timed for o in p.outcomes if o.main_s is not None]
    imports = [o.import_s * o.speed for p in passes for o in p.outcomes if o.import_s is not None]
    return {
        "pass_s": statistics.median(p.scaled_s for p in timed),
        "cmd_p50_ms": statistics.median(latencies),
        "cmd_p90_ms": statistics.quantiles(latencies, n=10)[8],
        "peak_rss_mb": max(o.maxrss_kb for p in timed for o in p.outcomes) / 1024,
        "setup_s": statistics.median(imports),
    }


def layer_metrics(p: Pass) -> dict[str, float]:
    """Per-layer self times, call counts and computed work counts of one traced pass."""
    self_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    work: dict[str, list[dict]] = defaultdict(list)
    counted: dict[str, int] = defaultdict(int)
    for out in p.outcomes:
        for layer, seconds in spans.self_times(out.spans).items():
            self_s[layer] += seconds * out.speed
        for layer, _parent, _start, _end, info in out.spans:
            calls[layer] += 1
            if info is not None:
                work[layer].append(info)
        for layer, n in out.counts.items():
            counted[layer] += n

    enum = work["dissection_oracle.enumerate_count"]
    ns = [w["n"] for w in enum if w["n"] >= 1]  # n = 0 returns before enumerating
    schroeder = reference.tile_terms(reference.KEYWORDS["any"], max(ns) + 1) if ns else []
    visited = sum(schroeder[n] for n in ns)
    chords = [w["p"] for w in work["dissection_oracle.count_chord_diagrams"]]
    motzkin = reference.motzkin_terms(max(chords) + 1) if chords else []
    lagrange = work["power_series.lagrange_coefficients"]
    enum_s = self_s["dissection_oracle.enumerate_count"]

    out = {}
    for layer in ("dissection_oracle.enumerate_count", "dissection_oracle.count_chord_diagrams",
                  "dissection_oracle.count_by_series", "power_series.lagrange_coefficients",
                  "power_series.revert_direct", "closed_forms", "symbols"):
        out[f"{layer}.self_s"] = self_s[layer]
        out[f"{layer}.calls"] = calls[layer]
    out.update({
        "dissection_oracle.dissections_visited": visited,
        "dissection_oracle.dissections_per_s": visited / enum_s if enum_s > 0 else 0.0,
        "dissection_oracle.chord_sets_visited": sum(motzkin[q] for q in chords),
        "power_series.lagrange_coefficients.terms": sum(w["terms"] for w in lagrange),
        "power_series.max_term_bits": max((w["bits"] for w in lagrange), default=0),
        "exact_arith.calls": counted["exact_arith"],
        "cli.self_s": self_s["cli"],
    })
    return out


def per_layer(passes: list[Pass]) -> dict[str, float]:
    """Each metric's lower median over the traced passes, so counts stay whole."""
    traced = [layer_metrics(p) for p in passes if p.traced]
    out = {name: statistics.median_low(m[name] for m in traced) for name in traced[0]}
    untraced_s = statistics.median(p.scaled_s for p in passes if not p.traced)
    traced_s = statistics.median(p.scaled_s for p in passes if p.traced)
    out["trace.overhead_ratio"] = traced_s / untraced_s
    return out


# --- entry point -------------------------------------------------------------

def _environment(args: argparse.Namespace) -> dict:
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=30).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        commit = "unknown"
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "python": platform.python_version(), "commit": commit, "nproc": os.cpu_count(),
        "loadavg": list(os.getloadavg()),
    }


def _record(path: Path, entry: dict) -> None:
    runs = json.loads(path.read_text(encoding="utf-8")) if path.exists() else []
    runs.append(entry)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(runs, indent=1) + "\n", encoding="utf-8")


def report(name: str, passes: list[Pass], trace: bool) -> dict:
    commands = [e for p in passes for e in p.errors]
    failed = sum(e is not None for e in commands)
    timed = [p for p in passes if not p.traced]
    samples = sum(len(p.outcomes) for p in timed)
    metrics = per_layer(passes) if trace else end_to_end(passes)
    table = PER_LAYER if trace else END_TO_END
    print(f"workload {name}: {len(timed)} timed and {len(passes) - len(timed)} traced passes, "
          f"{len(commands)} commands, {failed} failed")
    for metric, value in metrics.items():
        note = f"  (computed: {COMPUTED[metric]})" if metric in COMPUTED else ""
        if metric.startswith("cmd_"):
            note = f"  ({samples} command samples)"
        elif metric == "pass_s":
            note = f"  (median of {len(timed)} passes)"
        print(f"{metric} {value:.6g} {table[metric][0]}{note}")
    print(f"error_rate {failed / len(commands):.6g} ratio  ({failed} of {len(commands)} commands)")
    if timed:
        wall_s = statistics.median(p.main_s for p in timed)
        print(f"wall_pass_s {wall_s:.6g} s  (pass_s unscaled: wall time, median of {len(timed)} passes)")
    for error in sorted({e for e in commands if e is not None}):
        print(f"failed: {error}", file=sys.stderr)
    return {
        "correct": failed == 0,
        "attempted": len(commands),
        "failed": failed,
        "metrics": {m: {"value": v, "unit": table[m][0]} for m, v in metrics.items()},
    }


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark of the revsym command line.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--record", type=Path, metavar="PATH", help="append this run to a results file")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "revsym" / "cli.py").is_file():
        print(f"error: no revsym sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    environment = _environment(args) if args.record else None
    shutil.rmtree(TMP, ignore_errors=True)
    TMP.mkdir()
    try:
        commands = WORKLOADS[args.workload](args.seed)
        passes = measure(commands, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(TMP, ignore_errors=True)
    if not any(o.main_s is not None for p in passes for o in p.outcomes):
        print(f"error: no command completed: {passes[0].errors[0]}", file=sys.stderr)
        return 1
    result = report(args.workload, passes, bool(args.trace))
    if args.record:
        _record(args.record, {**environment, "result": result})
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
