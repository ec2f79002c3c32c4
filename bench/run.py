"""quadratica benchmark: one command, end-to-end or per-layer metrics.

    python3 bench/run.py --workload algebra --seed 1 --seconds 15 --trace 0

Run from the repository root. The command runs the workload in a series of
fresh interpreters (bench/workloads.py) and, before each of them, times fresh
interpreters importing quadratica and quadratica.cli (set-up), so that both
are sampled across the whole run. It samples the resident memory of each
workload process and its children, and prints every metric by name and
unit. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.

Timings are scaled to a reference host speed by a kernel timed next to
them (bench/hostspeed.py), which cancels the shared host's slow spells.

--trace 0 reports the end-to-end metrics of BENCHMARK.json. --trace 1
alternates traced and untraced blocks of items in the same processes,
reports the per-layer metrics from the traced blocks, and the difference in
time per item between the two as the tracing overhead. The full run record
(machine, seed, input properties, every metric) is written under
.bench_out/.
"""

from __future__ import annotations

import argparse
import base64
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from array import array

import hostspeed

ROOT = os.getcwd()
BENCH = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(ROOT, ".bench_out")

SEGMENTS = 4  # workload processes per run, for workloads not run round by round
SETUP_PER_PROCESS = 4  # timed fresh-interpreter imports before each workload process
TIMEOUT_MARGIN = 120  # seconds a workload process may run past the run's end
RSS_INTERVAL = 0.1  # seconds between memory samples

IMPORT_PROBE = (
    "import time; t0 = time.perf_counter(); import quadratica; t1 = time.perf_counter(); "
    "import quadratica.cli; t2 = time.perf_counter(); print(t1 - t0, t2 - t1)"
)

# per-layer metric -> (span name, scale, unit): the median span duration
SPAN_MEDIANS = {
    "qfield.construct_us": ("qfield.construct", 1e6, "us"),
    "qfield.add_us": ("qfield.add", 1e6, "us"),
    "qfield.mul_us": ("qfield.mul", 1e6, "us"),
    "qfield.inverse_us": ("qfield.inverse", 1e6, "us"),
    "qfield.parse_us": ("qfield.parse", 1e6, "us"),
    "qfield.pow_big_us": ("qfield.pow_big", 1e6, "us"),
    "solver.solve_us": ("solver.solve", 1e6, "us"),
    "fibgroup.fib_us": ("fibgroup.fib", 1e6, "us"),
    "fibgroup.power_reduce_us": ("fibgroup.power_reduce", 1e6, "us"),
    "metallic.phi_ledger_ms": ("metallic.phi_ledger", 1e3, "ms"),
    "congruence.sqrt_mod_small_us": ("congruence.sqrt_mod_small", 1e6, "us"),
    "congruence.sqrt_mod_big_us": ("congruence.sqrt_mod_big", 1e6, "us"),
    "congruence.solve_quad_mod_us": ("congruence.solve_quad_mod_big", 1e6, "us"),
    "congruence.solve_quad_mod_small_us": ("congruence.solve_quad_mod_small", 1e6, "us"),
    "congruence.two_squares_us": ("congruence.two_squares", 1e6, "us"),
    "intmath.is_prime_small_us": ("intmath.is_prime_small", 1e6, "us"),
    "intmath.is_prime_big_us": ("intmath.is_prime_big", 1e6, "us"),
    "goldbach.verify_range_s": ("goldbach.verify_range", 1.0, "s"),
    "goldbach.find_witness_us": ("goldbach.find_witness", 1e6, "us"),
    "goldbach.witness_areas_us": ("goldbach.witness_areas", 1e6, "us"),
}
# work done in other processes, which the host-speed scaling does not cover
UNSCALED_SPANS = {"goldbach.verify_range"}
LAYERS = ("qfield", "solver", "fibgroup", "metallic", "congruence", "intmath", "goldbach")


def child_env() -> dict:
    """Environment for every interpreter the benchmark starts.

    Byte code is cached under .bench_out/ so that imports cost what an
    installed package costs, whatever the caller's PYTHONDONTWRITEBYTECODE.
    """
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.pop("QUADRATICA_THREADS", None)
    env["PYTHONPATH"] = os.pathsep.join([os.path.join(ROOT, "src"), BENCH])
    env["PYTHONPYCACHEPREFIX"] = os.path.join(OUT, "pycache")
    env["PYTHONHASHSEED"] = "0"
    return env


def machine_facts() -> dict:
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "git_sha": sha,
        "loadavg_start": os.getloadavg(),
    }


def _interpreter(code: str, env: dict) -> tuple[float, str]:
    """Wall time and output of a fresh interpreter running `code`."""
    t0 = time.perf_counter()
    done = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=60, check=True)
    return time.perf_counter() - t0, done.stdout


def measure_setup(env: dict, runs: int, samples: dict) -> None:
    """Time `runs` fresh interpreters that import quadratica and its CLI.

    Each is paired with a fresh interpreter that imports the reference set
    of standard-library modules (hostspeed.STARTUP_REFERENCE), run just
    before or just after it in turn, and scaled by the reference's nominal
    over its measured time. The samples are appended to `samples`.
    """
    for _ in range(runs):
        if len(samples["setup_s"]) % 2:
            wall, out = _interpreter(IMPORT_PROBE, env)
            reference, _ = _interpreter(hostspeed.STARTUP_REFERENCE, env)
        else:
            reference, _ = _interpreter(hostspeed.STARTUP_REFERENCE, env)
            wall, out = _interpreter(IMPORT_PROBE, env)
        speed = hostspeed.STARTUP_NOMINAL / reference
        t_package, t_cli = map(float, out.split())
        samples["setup_s"].append(wall * speed)
        samples["raw_setup_s"].append(wall)
        samples["quadratica.import_s"].append(t_package * speed)
        samples["cli.import_s"].append(t_cli * speed)


def _tree_rss_bytes(root_pid: int) -> int:
    """Resident memory of root_pid and all its descendants, from /proc."""
    children: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                ppid = int(handle.read().rsplit(")", 1)[1].split()[1])
        except (OSError, IndexError, ValueError):
            continue
        children.setdefault(ppid, []).append(int(entry))
    total, stack = 0, [root_pid]
    page = os.sysconf("SC_PAGE_SIZE")
    while stack:
        pid = stack.pop()
        stack.extend(children.get(pid, ()))
        try:
            with open(f"/proc/{pid}/statm") as handle:
                total += int(handle.read().split()[1]) * page
        except (OSError, IndexError, ValueError):
            pass
    return total


def run_process(args: list[str], env: dict, timeout: float) -> tuple[dict, float]:
    """Run one workload process; return its record and its tree's peak RSS in MB."""
    proc = subprocess.Popen([sys.executable, os.path.join(BENCH, "workloads.py"), *args],
                            env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    peak = [0]
    stop = threading.Event()

    def sample() -> None:
        while not stop.wait(RSS_INTERVAL):
            peak[0] = max(peak[0], _tree_rss_bytes(proc.pid))

    sampler = threading.Thread(target=sample, daemon=True)
    if os.path.isdir("/proc"):
        sampler.start()
    try:
        stdout, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise
    finally:
        stop.set()
        if sampler.is_alive():
            sampler.join()
    if proc.returncode != 0:
        raise RuntimeError(f"workload process exited with {proc.returncode}")
    record = json.loads(stdout.strip().splitlines()[-1])
    # the process's own peak is a floor when sampling misses it or /proc is absent
    peak_mb = max(peak[0] / 2**20, record["maxrss_kb"] / 1024)
    return record, peak_mb


def _decode(field: str) -> array:
    return array("d", base64.b64decode(field))


def run_phase(workload: str, seed: int, seconds: float, env: dict, traced: bool, setup: dict) -> dict:
    """Workload processes, one after another, for `seconds` in all.

    A workload that runs a single round per process (goldbach) gets fresh
    processes, each with its own seed, until their time adds up to
    `seconds`; the others get SEGMENTS processes of equal length. Set-up is
    timed before each process, outside that time.
    """
    records, peaks = [], []
    one_round = workload == "goldbach"  # workloads.Goldbach.ONE_ROUND
    spent = 0.0  # seconds inside workload processes; set-up timing does not count
    while True:
        measure_setup(env, SETUP_PER_PROCESS, setup)
        index = len(records)
        length = max(0.0, seconds - spent) if one_round else seconds / SEGMENTS
        args = ["--workload", workload, "--seed", str(seed * 1000 + index), "--seconds", f"{length:.3f}"]
        if traced:
            os.makedirs(OUT, exist_ok=True)
            args += ["--spans", os.path.join(OUT, f"spans-{workload}-{seed}-{index}.json")]
        t0 = time.perf_counter()
        record, peak = run_process(args, env, length + TIMEOUT_MARGIN)
        spent += time.perf_counter() - t0
        records.append(record)
        peaks.append(peak)
        if spent >= seconds if one_round else len(records) == SEGMENTS:
            break
    spans: dict[str, list[float]] = {}
    kinds: dict[str, list[int]] = {}
    for record in records:
        for name, durations in record["spans"].items():
            spans.setdefault(name, []).extend(durations)
        for kind, counts in record["kinds"].items():
            total = kinds.setdefault(kind, [0, 0])
            total[0] += counts[0]
            total[1] += counts[1]
    return {
        "processes": len(records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "errors": [e for r in records for e in r["errors"]][:5],
        "busy": sum(r["busy"] for r in records),
        "raw_busy": sum(r["raw_busy"] for r in records),
        "mode_busy": [sum(r["mode_busy"][i] for r in records) for i in (0, 1)],
        "mode_items": [sum(r["mode_items"][i] for r in records) for i in (0, 1)],
        "speeds": sorted(x for r in records for x in _decode(r["speeds"])),
        "latencies": sorted(x for r in records for x in _decode(r["latencies"])),
        "rss_peak_mb": peaks,
        "props": [r["props"] for r in records],
        "kinds": kinds,
        "spans": spans,
    }


def end_to_end(phase: dict, setup: dict) -> dict:
    lat = phase["latencies"]
    return {
        "items_per_s": ((phase["attempted"] - phase["failed"]) / phase["busy"], "1/s"),
        "item_p50_us": (statistics.median(lat) * 1e6, "us"),
        "item_p90_us": (statistics.quantiles(lat, n=10)[-1] * 1e6, "us"),
        "setup_s": (statistics.median(setup["setup_s"]), "s"),
        "rss_peak_mb": (statistics.median(phase["rss_peak_mb"]), "MB"),
    }


def per_layer(phase: dict, setup: dict) -> dict:
    """Per-layer metrics from the traced blocks; 0 for a layer the workload never calls.

    Span durations are scaled to the reference speed by the run's median
    host speed, except those of work done in other processes.
    """
    speed = statistics.median(phase["speeds"])
    spans = {name: [d * (1.0 if name in UNSCALED_SPANS else speed) for d in durations]
             for name, durations in phase["spans"].items()}
    metrics = {}
    for layer in LAYERS:
        durations = [d for name, ds in spans.items() if name.split(".")[0] == layer for d in ds]
        metrics[layer + ".calls"] = (len(durations), "count")
        metrics[layer + ".busy_s"] = (sum(durations), "s")
    for metric, (name, scale, unit) in SPAN_MEDIANS.items():
        durations = spans.get(name)
        metrics[metric] = (statistics.median(durations) * scale if durations else 0, unit)
    tried, failed = phase["kinds"].get("composite", (0, 0))
    metrics["congruence.composite_tried"] = (tried, "count")
    metrics["congruence.rejected"] = (tried - failed, "count")
    metrics["quadratica.import_s"] = (statistics.median(setup["quadratica.import_s"]), "s")
    metrics["cli.import_s"] = (statistics.median(setup["cli.import_s"]), "s")
    (plain, traced), (n_plain, n_traced) = phase["mode_busy"], phase["mode_items"]
    metrics["trace.overhead_pct"] = ((traced / n_traced) / (plain / n_plain) * 100 - 100, "%")
    metrics["host.speed"] = (speed, "ratio")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="quadratica benchmark")
    parser.add_argument("--workload", required=True, choices=("algebra", "powers", "modular", "goldbach"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "quadratica", "__init__.py")):
        print("error: run from the repository root; src/quadratica not found", file=sys.stderr)
        return 2

    facts = machine_facts()
    env = child_env()
    setup = {"setup_s": [], "raw_setup_s": [], "quadratica.import_s": [], "cli.import_s": []}
    for code in (IMPORT_PROBE, hostspeed.STARTUP_REFERENCE):
        _interpreter(code, env)  # writes the byte-code cache; not timed
    phase = run_phase(args.workload, args.seed, args.seconds, env, bool(args.trace), setup)
    metrics = per_layer(phase, setup) if args.trace else end_to_end(phase, setup)
    attempted, failed = phase["attempted"], phase["failed"]
    samples = len(phase["latencies"])

    record = {
        "machine": facts,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": failed / attempted,
        "item_samples": samples,
        "setup_samples": setup,
        "phase": {k: v for k, v in phase.items() if k not in ("latencies", "spans", "speeds")},
        "host_speed_quartiles": statistics.quantiles(phase["speeds"], n=4),
        "raw_items_per_s": (attempted - failed) / phase["raw_busy"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"record-{args.workload}-{args.seed}-trace{args.trace}.json")
    with open(path, "w") as handle:
        json.dump(record, handle, indent=1)

    print(f"# {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace} "
          f"nproc={facts['nproc']} python={facts['python']} load={facts['loadavg_start'][0]:.2f}")
    print(f"#   attempted={attempted} failed={failed} fail_ratio={failed / attempted:.3g} "
          f"item_samples={samples}")
    for error in phase["errors"]:
        print("#   failure: " + error.replace("\n", " | "))
    for name, (value, unit) in metrics.items():
        print(f"#   {name:36s} {value:14.6g} {unit}")
    print(f"#   record: {os.path.relpath(path, ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
