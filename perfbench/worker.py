"""One benchmark run, in the fresh process that perfbench/run.py starts.

Set-up (timed several times, median reported), one warm-up operation,
then timed operations through devgraph.cli.main until --seconds have
passed. Every operation's outputs are checked; a failed check, a non-zero
exit or an exception counts the operation as failed.

With --trace 1 the warm-up runs as the allocation pass (spans under
tracemalloc), each timed operation is followed by a traced one, and the
run reports per-layer metrics instead of the end-to-end ones.

The last line of stdout is the result object; a detailed record (input
fingerprint, output digests, versions) is appended to .perfbench/runs.jsonl
and the spans of a traced run go to .perfbench/spans/.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import tracemalloc
from contextlib import redirect_stdout, nullcontext
from pathlib import Path

SETUP_REPEATS = 3

ROOT = Path.cwd()
OUT = ROOT / ".perfbench"


def _import_devgraph() -> float:
    start = time.perf_counter()
    import devgraph.cli  # noqa: F401
    elapsed = time.perf_counter() - start
    import devgraph
    src = (ROOT / "src" / "devgraph").resolve()
    if Path(devgraph.__file__).resolve().parent != src:
        raise SystemExit(f"devgraph imported from {devgraph.__file__}, not {src}")
    return elapsed


class Run:
    def __init__(self, workload, work: Path, fingerprint: dict):
        self.wl = workload
        self.work = work
        self.fingerprint = fingerprint
        self.attempted = 0
        self.failures: list[str] = []
        self.outputs: list[str] = []
        self._reference: bytes | None = None

    def op(self, inputs: Path, tracer=None, probe=None) -> float:
        """Run, time and check one operation; returns its duration."""
        import devgraph.cli
        self.attempted += 1
        out = self.work / f"op{self.attempted}"
        out.mkdir()
        buf = io.StringIO()
        commands = self.wl.commands(inputs, out)
        elapsed = 0.0
        try:
            # The probe goes on after the tracer so that it wraps the tracer's wrappers.
            with (redirect_stdout(buf), tracer.installed() if tracer else nullcontext(),
                  probe or nullcontext()):
                if tracer is None:
                    start = time.perf_counter()
                    rcs = self._call(devgraph.cli, commands)
                    elapsed = time.perf_counter() - start
                else:
                    with tracer.operation(self.attempted) as span:
                        rcs = self._call(devgraph.cli, commands)
                    elapsed = span.duration
            if rcs[-1] != 0:
                raise RuntimeError(f"devgraph {commands[len(rcs) - 1][0]} exited {rcs[-1]}")
            if probe is not None:
                self.wl.check_warmup()
            got = self.wl.check(out, buf.getvalue(), self.fingerprint)
            self.outputs.append(hashlib.sha256(got).hexdigest())
            if self._reference is None:
                self._reference = got
            elif got != self._reference:
                raise RuntimeError("outputs differ from the run's first operation")
        except Exception as exc:  # the run goes on and reports the failure
            self.failures.append(f"op {self.attempted}: "
                                 + "".join(traceback.format_exception_only(exc)).strip())
        finally:
            shutil.rmtree(out, ignore_errors=True)
        return elapsed

    @staticmethod
    def _call(cli, commands) -> list[int]:
        rcs = []
        for argv in commands:
            rcs.append(cli.main(argv))
            if rcs[-1] != 0:
                break
        return rcs


def _setup(workload, work: Path, tracer=None) -> tuple[Path, list[float]]:
    times = []
    inputs = None
    for i in range(1 if tracer else SETUP_REPEATS):
        if inputs is not None:
            shutil.rmtree(inputs)
        inputs = work / f"inputs{i}"
        inputs.mkdir(parents=True)
        if tracer is None:
            start = time.perf_counter()
            workload.setup(inputs)
            times.append(time.perf_counter() - start)
        else:
            with tracer.installed(), tracer.operation("setup"):
                workload.setup(inputs)
    return inputs, times


def run(args, import_s: float) -> tuple[dict, dict]:
    # Imported here, after devgraph, so that import_s includes numpy and scipy.
    from tracer import LAYERS, Tracer, summarize
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed)
    work = OUT / f"work-{os.getpid()}"
    specs = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    detail: dict = {}
    try:
        setup_tracer = Tracer() if args.trace else None
        inputs, setup_times = _setup(workload, work, setup_tracer)
        r = Run(workload, work, workload.fingerprint(inputs))
        alloc = Tracer(alloc=True) if args.trace else None
        if alloc:
            tracemalloc.start()
        try:
            r.op(inputs, alloc, probe=workload.warmup_probe())
        finally:
            if alloc:
                tracemalloc.stop()

        timed: list[float] = []
        traced: list[float] = []
        tracer = Tracer()
        start = time.perf_counter()
        while not timed or time.perf_counter() - start < args.seconds:
            timed.append(r.op(inputs))
            if args.trace:
                traced.append(r.op(inputs, tracer))

        if args.trace:
            values = summarize(tracer.spans, len(traced))
            values["expansion.iterations"] = values.get("expansion.expand_keywords.calls", 0.0)
            values.update({k: v for k, v in summarize(alloc.spans, 1).items()
                           if k.endswith(".peak_alloc_mb")})
            values.update({f"setup.{k}": v for k, v in
                           summarize(setup_tracer.spans, 1).items() if k.startswith("synth.")})
            values["trace.op_s"] = statistics.fmean(traced)
            values["trace_overhead"] = statistics.median(traced) / statistics.median(timed)
            layer_sum = sum(values[f"{layer}.self_s"] for layer in LAYERS)
            if abs(layer_sum - values["trace.op_s"]) > 1e-6 * values["trace.op_s"]:
                raise SystemExit(f"layer self times sum to {layer_sum}, "
                                 f"not the traced operation time {values['trace.op_s']}")
            metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
                       for m in specs["per_layer"]}
            _write_spans(args, {"setup": setup_tracer, "alloc": alloc, "timed": tracer})
        else:
            values = {
                "wall_s": statistics.median(timed),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "setup_s": import_s + statistics.median(setup_times),
            }
            metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                       for m in specs["end_to_end"]}
        detail = {"fingerprint": r.fingerprint, "output_sha256": r.outputs,
                  "failures": r.failures, "timed_s_samples": timed,
                  "traced_s_samples": traced, "setup_s_samples": setup_times,
                  "import_s": import_s}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result = {"correct": not r.failures, "attempted": r.attempted,
              "failed": len(r.failures), "metrics": metrics}
    return result, detail


def _write_spans(args, tracers: dict) -> None:
    path = OUT / "spans" / f"{args.workload}-seed{args.seed}-{os.getpid()}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({name: [s.as_dict() for s in t.spans]
                                for name, t in tracers.items()}), encoding="utf-8")


def _environment() -> dict:
    import numpy
    import scipy
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                    capture_output=True, timeout=30).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "devgraph").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": len(os.sched_getaffinity(0)),
            "git_commit": commit, "src_sha256": src.hexdigest()}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    import_s = _import_devgraph()
    result, detail = run(args, import_s)

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "result": result, **detail, **_environment()}
    OUT.mkdir(exist_ok=True)
    with open(OUT / "runs.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    for name, m in result["metrics"].items():
        print(f"  {name:<44} {m['value']:.6g} {m['unit']}")
    fp = detail["fingerprint"]
    print("  inputs: " + " ".join(
        f"{k}={','.join(f'{l}:{n}' for l, n in fp[k].items()) if k == 'edges' else fp[k]}"
        for k in ("nodes", "edges", "events", "log_rows") if k in fp))
    print(f"  timed operations: {len(detail['timed_s_samples'])}")
    print(f"  error_rate {result['failed'] / result['attempted']:.6g} ratio "
          f"({result['failed']} of {result['attempted']} operations failed)")
    for failure in detail["failures"]:
        print(f"  FAILED {failure}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
