"""Run one revsym command in this fresh interpreter and report how it went.

Usage: ``python3 perfbench/child.py TRACE ARG...`` with ``src`` on
PYTHONPATH; TRACE is 0 or 1 and the ARGs go to ``revsym.cli.main``.

Prints one JSON object: the exit code, the command's captured stdout and
stderr, the seconds spent importing ``revsym.cli`` and inside
``revsym.cli.main``, the seconds of each speed probe, the peak resident set
size in KiB, and with TRACE=1 the spans and call counts recorded by
:mod:`spans`.

A speed probe is a short fixed power-series product in benchmark code that
never touches revsym.  Other tenants of a shared host change how fast this
process runs from one moment to the next; the probe's time measures that speed, so the
benchmark can scale the command's time to a fixed reference speed.  Probes
run back to back just before and just after the command, and during it from
a profiling timer that fires every ``PROBE_INTERVAL_S`` of CPU time.  The
time spent in probes is taken out of every time the child reports, so the
probes measure the host's speed without adding to the command's time.
"""

import contextlib
import io
import json
import resource
import signal
import sys
import time

PROBE_TERMS = 56  # a probe takes about 0.3 ms on a 2-vCPU Xeon KVM guest
PROBE_INTERVAL_S = 0.02
EDGE_PROBES = 8  # probes run back to back before the command and again after it
# A fixed power series with terms of up to 600 bits, like those revsym reverts.
SERIES = [3 ** (7 * k) + k for k in range(PROBE_TERMS)]


class Probes:
    """Speed probes, and a clock that leaves out the time spent in them."""

    def __init__(self) -> None:
        self.times: list[float] = []
        self.spent = 0.0

    def probe(self, *_signal) -> None:
        """Time the truncated square of ``SERIES``."""
        start = time.perf_counter()
        square = [0] * PROBE_TERMS
        for i, a in enumerate(SERIES):
            for j in range(PROBE_TERMS - i):
                square[i + j] += a * SERIES[j]
        elapsed = time.perf_counter() - start
        self.times.append(elapsed)
        self.spent += elapsed

    def edge(self) -> None:
        for _ in range(EDGE_PROBES):
            self.probe()

    def clock(self) -> float:
        return time.perf_counter() - self.spent


def main(trace: bool, argv: list[str]) -> dict:
    start = time.perf_counter()
    import revsym.cli as cli
    import_s = time.perf_counter() - start

    probes = Probes()
    recorder = None
    if trace:
        import spans

        recorder = spans.Recorder(probes.clock)
        spans.install(recorder)

    probes.edge()
    out, err = io.StringIO(), io.StringIO()
    signal.signal(signal.SIGPROF, probes.probe)
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = probes.clock()
        signal.setitimer(signal.ITIMER_PROF, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        try:
            if recorder is None:
                rc = cli.main(argv)
            else:
                rc = recorder.call("cli", cli.main, (argv,), {})
        except SystemExit as exc:  # argparse rejects a command line this way
            rc = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0)
        main_s = probes.clock() - start
    probes.edge()
    return {
        "rc": rc,
        "stdout": out.getvalue(),
        "stderr": err.getvalue(),
        "import_s": import_s,
        "main_s": main_s,
        "probe_s": probes.times,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "spans": recorder.spans if recorder else [],
        "counts": recorder.counts if recorder else {},
    }


if __name__ == "__main__":
    json.dump(main(sys.argv[1] == "1", sys.argv[2:]), sys.stdout)
