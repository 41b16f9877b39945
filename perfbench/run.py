#!/usr/bin/env python3
"""fillflow benchmark: seeded synthetic ledgers through the real CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Each run builds its workload's ledger from ``--seed`` (set-up, done three
times and timed), then runs the workload's fillflow subcommands as child
processes, one at a time and round-robin, for ``--seconds``. Every command
run is checked: exit code 0, the expected artifacts present, the content
checks against the generator's ground truth on its first run, and bytes
identical to that first run afterwards.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` spends half the
time on untraced commands and half on the same commands run through
``traced_cli.py``, and prints the per-layer metrics. ``--smoke`` uses a tiny
ledger and one round of commands.

Human-readable lines come first; the last stdout line is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

# A child that starts extra BLAS/OpenMP threads would make cpu_s exceed
# wall_s on a small machine; every process of a run, children included,
# uses one thread. Set before fillflow (and numpy) is imported below.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = "1"
# Benchmark the checkout's sources, never an installed fillflow.
if not (SRC / "fillflow" / "cli.py").is_file():
    sys.exit(f"error: no fillflow sources under {SRC}")
sys.path.insert(0, str(SRC))
import ledger  # noqa: E402  (the generator and writers, over the checkout's fillflow)
import traced_cli  # noqa: E402

# About 45k fills and 17 MB of JSONL: small enough that each command runs
# four to six times within one run, spread across it by the round-robin.
SIZES = {
    "raw-ledger": ledger.Size(transactions=15_000, traders=3_000),
    "decomposed-table": ledger.Size(transactions=15_000, traders=3_000),
    "ingest-quarantine": ledger.Size(transactions=15_000, traders=3_000),
}
SMOKE_SIZE = ledger.Size(transactions=600, traders=200)
SETUPS = 3
CHILD_TIMEOUT_S = 150

COMMANDS = ("ingest", "decompose", "deviation", "lambda", "traders", "metrics", "disagreement")
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("cpu_s", "s"), ("fills_per_s", "1/s"),
              ("peak_rss_mb", "MB"), ("rss_bytes_per_fill", "B"))
# Layer spans: those traced_cli.py records around fillflow.cli's calls, plus start-up.
LAYER_TIMES = (*(name for name, _ in traced_cli.LAYERS.values()), "cli.startup")
# Per-layer metric -> unit. Times are per chain of commands; see README.md.
PER_LAYER = (
    *((f"{name}_s", "s") for name in LAYER_TIMES),
    ("cli.self_s", "s"), ("trace.overhead_s", "s"),
    ("events.fills_in", "count"), ("events.transactions_out", "count"),
    ("decompose.us_per_tx", "us"), ("decompose.rows_out", "count"),
    ("decompose.quarantined", "count"), ("decompose.lambda_rows_used_ratio", "ratio"),
    ("prices.corr_none", "count"), ("prices.fills_used_ratio", "ratio"),
    ("microstructure.bars_carried", "count"), ("microstructure.lambda_none", "count"),
    ("traders.addresses", "count"),
    *((f"{name}_s", "s") for name in COMMANDS),
)


@dataclass
class Command:
    """One fillflow invocation of a workload's chain, run from the work dir."""

    args: list[str]             # fillflow arguments without --out; args[0] names the
                                # command's metric: "decompose" -> decompose_s
    out: str                    # --out directory, relative to the work dir
    artifacts: tuple[str, ...]  # files the command must write
    check: object = None        # callable(out_dir) -> failure reason or None
    reference: dict | None = None  # artifact digests of the first run


@dataclass
class Sample:
    wall: float
    cpu: float
    rss_kb: int
    ok: bool
    spans: list


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def spawn(argv: list[str], cwd: Path, stderr_path: Path) -> tuple[float, float, int, int]:
    """Run one child; wall time, its own CPU time and peak RSS from wait4, exit code."""
    with open(stderr_path, "wb") as err:
        started = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=child_env(),
                                stdout=subprocess.DEVNULL, stderr=err)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped above, not by Popen
    return wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss, proc.returncode


def digest(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def artifact_digests(out: Path) -> dict[str, str]:
    return {p.name: digest(p) for p in sorted(out.iterdir())} if out.is_dir() else {}


def execute(cmd: Command, work: Path, traced: bool, run_id: str) -> Sample:
    out = work / cmd.out
    shutil.rmtree(out, ignore_errors=True)
    args = cmd.args + ["--out", cmd.out]
    spans_path = work / "spans.json"
    if traced:
        argv = [sys.executable, traced_cli.__file__, str(spans_path), repr(time.monotonic()),
                run_id, "--", *args]
    else:
        argv = [sys.executable, "-m", "fillflow.cli", *args]
    wall, cpu, rss_kb, code = spawn(argv, work, work / "stderr.txt")

    spans = []
    if traced and spans_path.exists():
        spans = json.loads(spans_path.read_text(encoding="utf-8"))
        spans_path.unlink()
    reason = None
    digests = artifact_digests(out)
    if code != 0:
        reason = f"exit code {code}"
    elif cmd.reference is None:
        missing = [a for a in cmd.artifacts if a not in digests]
        reason = f"missing artifacts {missing}" if missing else (cmd.check(out) if cmd.check else None)
        cmd.reference = digests if reason is None else {}
    elif digests != cmd.reference:
        reason = "artifacts differ from the first run" if cmd.reference else "first run failed"
    if reason:
        tail = (work / "stderr.txt").read_text(encoding="utf-8", errors="replace")[-2000:]
        print(f"FAILED {' '.join(args)}: {reason}\n{tail}", file=sys.stderr)
    return Sample(wall, cpu, rss_kb, reason is None, spans)


def run_round_robin(commands: list[Command], work: Path, seconds: float, traced: bool,
                    label: str) -> list[list[Sample]]:
    """Cycle through the chain, at least once, while the next run fits in ``seconds``."""
    samples: list[list[Sample]] = [[] for _ in commands]
    started = time.perf_counter()
    i = 0
    while True:
        k = i % len(commands)
        if i >= len(commands) and time.perf_counter() - started + samples[k][-1].wall > seconds:
            break
        samples[k].append(execute(commands[k], work, traced, f"{label}-{i // len(commands)}"))
        i += 1
    return samples


# ---------------------------------------------------------------- workloads


def setup_raw_ledger(work: Path, led) -> list[Path]:
    ledger.write_jsonl(work / "fills.jsonl", led.fills)
    ledger.write_markets(work / "markets.json", led.markets)
    return [work / "fills.jsonl", work / "markets.json"]


def commands_raw_ledger(led) -> list[Command]:
    inputs = ["--input", "fills.jsonl", "--markets", "markets.json"]
    truth = [ledger.decomposed_row(r) for r in led.truth]
    return [
        Command(["decompose", *inputs], "out/decompose",
                ("decomposed.csv", "manifest.json"), ledger.check_decomposed(truth, [])),
        Command(["deviation", *inputs, "--market", "Trump"], "out/deviation",
                ("deviation.csv", "manifest.json")),
        Command(["lambda", *inputs, "--market", "Trump"], "out/lambda",
                ("lambda.csv", "lambda_regression.json", "manifest.json")),
        Command(["traders", *inputs], "out/traders",
                ("hourly.csv", "top_decile.txt", "participation.csv", "marginals.csv",
                 "candidate_overlap.csv", "manifest.json")),
    ]


def setup_decomposed_table(work: Path, led) -> list[Path]:
    ledger.write_decomposed_csv(work / "decomposed.csv", led.truth)
    return [work / "decomposed.csv"]


def commands_decomposed_table(led) -> list[Command]:
    table = ["--input", "decomposed.csv"]
    return [
        Command(["metrics", *table, "--market", "Trump", "--partition", "hour", "--dense"],
                "out/metrics-hour", ("metrics.csv", "manifest.json")),
        Command(["metrics", *table, "--market", "Trump", "--partition", "month"],
                "out/metrics-month", ("metrics.csv", "manifest.json"),
                ledger.check_monthly(led.truth, "Trump")),
        Command(["disagreement", *table], "out/disagreement",
                ("inflows.csv", "correlation.csv", "manifest.json")),
    ]


def setup_ingest_quarantine(work: Path, led) -> list[Path]:
    # Alternate fills between the shards, so multi-fill transactions span
    # both and ingest has to merge them.
    ledger.write_jsonl(work / "shard-a.jsonl", led.fills[0::2])
    ledger.write_csv(work / "shard-b.csv", led.fills[1::2])
    ledger.write_markets(work / "markets.json",
                         [m for m in led.markets if m.candidate != ledger.OMITTED_MARKET])
    return [work / "shard-a.jsonl", work / "shard-b.csv", work / "markets.json"]


def commands_ingest_quarantine(led) -> list[Command]:
    kept = [ledger.decomposed_row(r) for r in led.truth if r.market != ledger.OMITTED_MARKET]
    omitted = list(dict.fromkeys((r.block, r.tx_index) for r in led.truth
                                 if r.market == ledger.OMITTED_MARKET))
    return [
        Command(["ingest", "--input", "shard-a.jsonl", "--input", "shard-b.csv"],
                "out/ingest", ("fills.jsonl", "manifest.json"),
                ledger.check_ingested([ledger.fill_row(f) for f in led.fills])),
        Command(["decompose", "--input", "out/ingest/fills.jsonl",
                              "--markets", "markets.json"], "out/decompose",
                ("decomposed.csv", "quarantine.jsonl", "manifest.json"),
                ledger.check_decomposed(kept, omitted)),
    ]


SETUP = {"raw-ledger": setup_raw_ledger, "decomposed-table": setup_decomposed_table,
         "ingest-quarantine": setup_ingest_quarantine}
CHAIN = {"raw-ledger": commands_raw_ledger, "decomposed-table": commands_decomposed_table,
         "ingest-quarantine": commands_ingest_quarantine}


# ---------------------------------------------------------------- metrics


def per_command(commands, samples, value) -> dict[str, float]:
    """Metric stem -> sum over the chain's invocations of their mean ``value``.

    The mean, not the median: the shared host alternates between a fast
    state and one about 1.4 times slower, in spells of seconds, so a
    command's times are bimodal and their median jumps from one mode to the
    other with the share of slow time in a run. The mean follows that share
    smoothly, and so spreads less from run to run.
    """
    out: dict[str, float] = {}
    for cmd, runs in zip(commands, samples):
        out[cmd.args[0]] = out.get(cmd.args[0], 0.0) + statistics.fmean(value(s) for s in runs)
    return out


def end_to_end(commands, samples, setup_s: float, fills: int) -> dict[str, float]:
    wall = sum(per_command(commands, samples, lambda s: s.wall).values())
    peak_kb = max(statistics.median(s.rss_kb for s in runs) for runs in samples)
    return {
        "setup_s": setup_s,
        "wall_s": wall,
        "cpu_s": sum(per_command(commands, samples, lambda s: s.cpu).values()),
        "fills_per_s": fills / wall,
        "peak_rss_mb": peak_kb / 1024,
        "rss_bytes_per_fill": peak_kb * 1024 / fills,
    }


def _span_totals(spans: list[dict]) -> dict[str, float]:
    """Layer seconds, counts and self time of one traced command run."""
    root = next(s for s in spans if s["parent"] is None)
    totals: dict[str, float] = {}
    covered = 0.0
    for span in spans:
        if span["parent"] != root["id"]:
            continue
        duration = span["end"] - span["start"]
        covered += duration
        totals[f"{span['name']}_s"] = totals.get(f"{span['name']}_s", 0.0) + duration
        for key, value in span["counts"].items():
            name = f"{span['name']}.{key}"
            totals[name] = totals.get(name, 0) + value
    totals["cli.self_s"] = root["end"] - root["start"] - covered
    return totals


def per_layer(commands, untraced, traced) -> dict[str, float]:
    totals = [[_span_totals(s.spans) for s in runs if s.spans] for runs in traced]

    def chain(name, positions=None):
        """Sum over the chain's invocations of the mean of ``name`` (see per_command)."""
        return sum(statistics.fmean(t.get(name, 0) for t in runs) if runs else 0
                   for i, runs in enumerate(totals) if positions is None or i in positions)

    def ratio(num, den):
        return num / den if den else 0.0

    pricing = {i for i, runs in enumerate(totals)
               if any("prices.build_price_series_s" in t for t in runs)}
    lambdas = {i for i, c in enumerate(commands) if c.args[0] == "lambda"}
    commands_s = per_command(commands, untraced, lambda s: s.wall)
    metrics = {f"{name}_s": chain(f"{name}_s") for name in LAYER_TIMES}
    metrics.update({
        "cli.self_s": chain("cli.self_s"),
        "trace.overhead_s": (sum(per_command(commands, traced, lambda s: s.wall).values())
                             - sum(commands_s.values())),
        "events.fills_in": chain("events.group_transactions.fills_in"),
        "events.transactions_out": chain("events.group_transactions.transactions_out"),
        "decompose.us_per_tx": 1e6 * ratio(chain("decompose.decompose_ledger_s"),
                                           chain("decompose.decompose_ledger.transactions_in")),
        "decompose.rows_out": chain("decompose.decompose_ledger.rows_out"),
        "decompose.quarantined": chain("decompose.decompose_ledger.quarantined"),
        "decompose.lambda_rows_used_ratio": ratio(
            chain("decompose.decompose_ledger.market_rows", lambdas),
            chain("decompose.decompose_ledger.rows_out", lambdas)),
        "prices.corr_none": chain("prices.rolling_inflow_correlation.none"),
        "prices.fills_used_ratio": ratio(chain("prices.build_price_series.token_fills"),
                                         chain("events.read_fills.fills", pricing)),
        "microstructure.bars_carried": chain("microstructure.hourly_bars.carried"),
        "microstructure.lambda_none": chain("microstructure.rolling_kyle_lambda.none"),
        "traders.addresses": chain("traders.participation_sets.addresses"),
    })
    metrics.update({f"{name}_s": commands_s.get(name, 0.0) for name in COMMANDS})
    return metrics


# ---------------------------------------------------------------- run


def machine_info() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    src_lines = 0
    for path in sorted(SRC.rglob("*.py")):
        with open(path, "rb") as fh:
            src_lines += sum(1 for _ in fh)
    return {"python": platform.python_version(), "numpy": numpy_version,
            "nproc": len(os.sched_getaffinity(0)), "cpu": cpu, "src_lines": src_lines}


def set_up(workload: str, work: Path, seed: int, size, repeats: int):
    """Generate and write the inputs ``repeats`` times.

    Returns the median time, the last ledger, the input size in bytes, and
    whether every repeat wrote the same bytes.
    """
    times, digests = [], set()
    for _ in range(repeats):
        led = None  # let the previous ledger go before building the next
        started = time.perf_counter()
        led = ledger.generate(seed, size)
        paths = SETUP[workload](work, led)
        times.append(time.perf_counter() - started)
        digests.add(tuple(digest(p) for p in paths))
    input_bytes = sum(p.stat().st_size for p in paths)
    return statistics.median(times), led, input_bytes, len(digests) == 1


def run(workload: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    size = SMOKE_SIZE if smoke else SIZES[workload]
    if smoke:
        seconds = 0  # one round of commands
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-{seed}-", dir=WORK))
    try:
        setup_s, led, input_bytes, deterministic = set_up(
            workload, work, seed, size, 1 if trace or smoke else SETUPS)
        if not deterministic:
            print("FAILED set-up: inputs differ between set-ups of one seed", file=sys.stderr)
        commands = CHAIN[workload](led)
        fills, transactions = len(led.fills), led.transaction_count()
        del led
        # Compile and cache the package's bytecode outside the timed runs.
        spawn([sys.executable, "-c", "import fillflow.cli"], work, work / "stderr.txt")

        if trace:
            untraced = run_round_robin(commands, work, seconds / 2, False, "untraced")
            traced = run_round_robin(commands, work, seconds / 2, True, f"{workload}-{seed}")
            metrics = per_layer(commands, untraced, traced)
            units = dict(PER_LAYER)
            samples = [a + b for a, b in zip(untraced, traced)]
            spans = [span for runs in traced for s in runs for span in s.spans]
            spans_path = WORK / f"spans-{workload}-{seed}.jsonl"
            spans_path.write_text("".join(json.dumps(s) + "\n" for s in spans), encoding="utf-8")
        else:
            samples = run_round_robin(commands, work, seconds, False, "untraced")
            metrics = end_to_end(commands, samples, setup_s, fills)
            units = dict(END_TO_END)
            spans_path = None
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(len(runs) for runs in samples)
    failed = sum(not s.ok for runs in samples for s in runs)
    meta = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
            "smoke": smoke, "ledger": {"transactions": transactions, "fills": fills,
                                       "input_bytes": input_bytes},
            "command_walls_s": {c.out: [round(s.wall, 4) for s in r]
                                for c, r in zip(commands, samples)},
            **machine_info()}
    print("meta " + json.dumps(meta, sort_keys=True))
    if spans_path:
        print(f"spans written to {spans_path.relative_to(ROOT)}")
    if not trace:
        for name, value in per_command(commands, samples, lambda s: s.wall).items():
            print(f"{name + '_s':<36} {value:12.4f} s")
    for name, value in metrics.items():
        print(f"{name:<36} {value:12.4f} {units[name]}")
    print(f"{'ops_failed_frac':<36} {failed / attempted:12.4f} ratio")
    return {
        "correct": failed == 0 and deterministic,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(SETUP))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny ledger, one set-up and one round of commands")
    args = parser.parse_args(argv)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
