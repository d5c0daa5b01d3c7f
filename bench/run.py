"""The end-to-end TOB benchmark: one command, every metric by name and unit.

    python3 bench/run.py [--workload W] [--seed S] [--samples K] [--traced] [--out F]
    python3 bench/run.py --workload W --seed S --seconds T --trace 0|1   (the driver's form)

Every sample runs in a fresh interpreter (``--one-sample``), untraced;
``--traced`` / ``--trace 1`` adds one traced sample per workload for
the per-layer budget.  With ``--seconds`` a run repeats its fixed-size
sample until the time box is used (at least three times; the real-time
workload, whose rounds are wall clock, runs once, cut to the box).  The
last line printed for a single workload is the driver's JSON object.
See README.md for what each number means.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import measures  # noqa: E402
import spans  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
REPO_DIR = BENCH_DIR.parent
SRC_DIR = REPO_DIR / "src"
SAMPLE_TIMEOUT_S = 170
MIN_SAMPLES = 3
DEFAULT_SAMPLES = {"sim": 5, "virtual": 5, "realtime": 3}
#: A tainted real-time sample is re-run at most this often per invocation.
MAX_TAINT_RERUNS = 2


def load_contract() -> dict:
    return json.loads((REPO_DIR / "BENCHMARK.json").read_text())


def _one_sample(args) -> None:
    """Child mode: run one sample in this interpreter, print it as one JSON line."""
    sys.path.insert(0, str(SRC_DIR))
    from loads import WORKLOADS  # noqa: PLC0415 — after the path is set
    from sample import run_sample  # noqa: PLC0415

    workload = WORKLOADS[args.one_sample]
    if args.rounds:
        workload = dataclasses.replace(workload, rounds=args.rounds)
    sample = run_sample(
        workload, args.seed, _STARTED, traced=args.traced, untraced_cpu_ms=args.untraced_cpu_ms
    )
    print(json.dumps(sample))


def spawn_sample(name: str, seed: int, rounds: int, untraced_cpu_ms: float | None = None) -> dict:
    """Run one sample in a fresh interpreter and parse the line it prints."""
    command = [sys.executable, str(BENCH_DIR / "run.py"), "--one-sample", name, "--seed", str(seed)]
    command += ["--rounds", str(rounds)]
    if untraced_cpu_ms is not None:
        command += ["--traced", "--untraced-cpu-ms", repr(untraced_cpu_ms)]
    # A fixed hash seed: set iteration order is one less thing that
    # differs between two samples of the same work.
    env = {**os.environ, "PYTHONHASHSEED": "0"}
    done = subprocess.run(
        command, stdout=subprocess.PIPE, text=True, env=env, timeout=SAMPLE_TIMEOUT_S, check=False
    )
    if done.returncode != 0:
        raise RuntimeError(f"sample of {name} exited with code {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


class WorkloadRun:
    """The samples of one workload within one invocation."""

    def __init__(self, workload, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.samples: list[dict] = []
        self.traced: dict | None = None
        self.tainted_samples = 0

    def add_sample(self) -> None:
        """One untraced sample; a tainted one is discarded and run again."""
        while True:
            sample = spawn_sample(self.workload.name, self.seed, self.workload.rounds)
            if not sample["tainted"] or self.tainted_samples >= MAX_TAINT_RERUNS:
                self.samples.append(sample)
                return
            self.tainted_samples += 1

    def add_traced(self) -> None:
        untraced = statistics.median(s["metrics"]["cpu_ms_per_round"] for s in self.samples)
        self.traced = spawn_sample(self.workload.name, self.seed, self.workload.rounds, untraced)

    def all_samples(self) -> list[dict]:
        return [*self.samples, *([self.traced] if self.traced else [])]

    # -- verdicts --------------------------------------------------------
    def problems(self) -> list[str]:
        out = []
        for index, sample in enumerate(self.all_samples()):
            out += [f"sample {index}: check {k} failed" for k, ok in sample["checks"].items() if not ok]
            if sample["failed"]:
                out.append(f"sample {index}: {sample['failed']} of {sample['attempted']} tx failed")
        if self.workload.deterministic and len(self.digests()) > 1:
            out.append(f"{len(self.digests())} decision digests for one seed")
        if any(s["tainted"] for s in self.samples):
            out.append("a tainted sample was left unreplaced")
        return out

    def digests(self) -> list[str]:
        """Distinct decision digests; tracing must not move them either."""
        return sorted({s["digest"] for s in self.all_samples()})

    def summary(self) -> dict:
        names = self.samples[0]["metrics"]
        return {
            name: {
                **measures.summarise([s["metrics"][name] for s in self.samples]),
                "values": [s["metrics"][name] for s in self.samples],
            }
            for name in names
        }

    def report(self) -> dict:
        """Everything ``--out`` keeps about this workload (compare.py reads it)."""
        return {
            "seed": self.seed,
            "deterministic": self.workload.deterministic,
            "metrics": self.summary(),
            "attempted": sum(s["attempted"] for s in self.samples),
            "failed": sum(s["failed"] for s in self.samples),
            "problems": self.problems(),
            "digests": self.digests(),
            "tainted_samples": self.tainted_samples,
            "layers": self.traced["layers"] if self.traced else None,
            "samples": self.samples,
        }


def print_workload(run: WorkloadRun, contract: dict) -> None:
    units = {m["name"]: m["unit"] for m in contract["end_to_end"] + contract["per_layer"]}
    units["decision_gap_max_rounds"] = "rounds"
    workload = run.workload
    print(f"\n== {workload.name}  seed {run.seed}  n={workload.n}  {run.samples[0]['rounds']} rounds")
    print(f"   why: {workload.why}")
    header = f"   {'metric':28s} {'unit':8s} {'n':>3s} {'median':>12s} {'min':>12s} {'q1':>12s} {'q3':>12s}"
    print(header)
    for name, row in run.summary().items():
        print(
            f"   {name:28s} {units.get(name, ''):8s} {row['n']:3d} {row['median']:12.4f} "
            f"{row['min']:12.4f} {row['q1']:12.4f} {row['q3']:12.4f}"
        )
    attempted = sum(s["attempted"] for s in run.samples)
    failed = sum(s["failed"] for s in run.samples)
    print(f"   tx_failed_share              fraction {failed}/{attempted} = {failed / attempted:.4f}")
    print(f"   tainted_samples {run.tainted_samples}")
    speeds = [s["raw"]["speed_factor"] for s in run.samples]
    print(
        f"   host speed factor (reference-speed time / measured time) "
        f"{min(speeds):.3f} .. {max(speeds):.3f}"
    )
    for digest in run.digests():
        print(f"   decision digest {digest}")
    for problem in run.problems():
        print(f"   PROBLEM: {problem}")
    if run.traced:
        print_layers(run.traced["layers"], run.traced["budget_ms"], units)


def print_layers(layers: dict, budget_ms: dict, units: dict) -> None:
    total_ms = sum(layers[f"{name}.self_ms"] for name in spans.SPAN_NAMES) or 1.0
    print("   -- per-layer budget (traced sample, self time at reference speed) --")
    print(f"   {'span':28s} {'calls':>10s} {'self_ms':>12s} {'share':>7s}")
    for name in spans.SPAN_NAMES:
        self_ms = layers[f"{name}.self_ms"]
        print(
            f"   {name:28s} {layers[f'{name}.calls']:10d} {self_ms:12.3f} {self_ms / total_ms:7.1%}"
        )
    for title, key in (("by layer", "self"), ("with hashing charged to its caller", "caused")):
        shares = budget_ms[key]
        whole = sum(shares.values()) or 1.0
        print(f"   {title}: " + "  ".join(f"{k} {v / whole:.1%}" for k, v in shares.items()))
    for name in spans.COUNTER_NAMES:
        print(f"   {name:40s} {units.get(name, ''):10s} {layers[name]:14.4f}")


def driver_line(run: WorkloadRun, contract: dict, traced: bool) -> str:
    """The one JSON object the driver reads from the last line."""
    if traced:
        source = run.traced["layers"]
        wanted = contract["per_layer"]
    else:
        source = {name: row["median"] for name, row in run.summary().items()}
        wanted = contract["end_to_end"]
    samples = run.all_samples()
    return json.dumps(
        {
            "correct": not run.problems(),
            "attempted": sum(s["attempted"] for s in samples),
            "failed": sum(s["failed"] for s in samples),
            "metrics": {m["name"]: {"value": source[m["name"]], "unit": m["unit"]} for m in wanted},
        }
    )


def run_time_boxed(run: WorkloadRun, seconds: float, traced: bool) -> None:
    """Fill ``seconds``: repeat the fixed-size sample, or size the real-time one."""
    began = time.perf_counter()
    # A traced run splits the box between untraced samples and the traced one.
    box = seconds / 2 if traced else seconds
    if run.workload.kind == "realtime":
        run.workload = run.workload.sized_to(box)
        run.add_sample()
        if traced:
            run.add_traced()
        return
    while True:
        run.add_sample()
        spent = time.perf_counter() - began
        enough = len(run.samples) >= (2 if traced else MIN_SAMPLES)
        if enough and spent + spent / len(run.samples) > box:
            break
    if traced:
        run.add_traced()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one workload by name (default: all four)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--samples", type=int, help="untraced samples per workload")
    parser.add_argument("--seconds", type=float, help="time box per workload (the driver's form)")
    parser.add_argument("--traced", action="store_true", help="add one traced sample per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="same, as 0 or 1")
    parser.add_argument("--out", help="write every sample and summary to this JSON file")
    parser.add_argument("--one-sample", help=argparse.SUPPRESS)
    parser.add_argument("--rounds", type=int, help=argparse.SUPPRESS)
    parser.add_argument("--untraced-cpu-ms", type=float, default=0.0, help=argparse.SUPPRESS)
    args = parser.parse_args()

    if not (SRC_DIR / "repro").is_dir():
        print(f"no program to measure: {SRC_DIR / 'repro'} is missing", file=sys.stderr)
        return 2
    if args.one_sample:
        _one_sample(args)
        return 0

    sys.path.insert(0, str(SRC_DIR))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC_DIR), *filter(None, [os.environ.get("PYTHONPATH")])]
    )
    from loads import WORKLOADS  # noqa: PLC0415

    contract = load_contract()
    traced = args.traced or bool(args.trace)
    if args.workload and args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    chosen = [WORKLOADS[args.workload]] if args.workload else list(WORKLOADS.values())
    runs = [WorkloadRun(workload, args.seed) for workload in chosen]

    if args.seconds:
        for run in runs:
            run_time_boxed(run, args.seconds, traced)
    else:
        # Round-robin across workloads, so a slow phase of the host is
        # shared between them instead of landing on one.
        counts = {r.workload.name: args.samples or DEFAULT_SAMPLES[r.workload.kind] for r in runs}
        for index in range(max(counts.values())):
            for run in runs:
                if index < counts[run.workload.name]:
                    run.add_sample()
        if traced:
            for run in runs:
                run.add_traced()

    for run in runs:
        print_workload(run, contract)
    if args.out:
        report = {"workloads": {run.workload.name: run.report() for run in runs}}
        Path(args.out).write_text(json.dumps(report, indent=1))
    if len(runs) == 1:
        # The driver reads ``correct`` from the line, not from the exit code.
        print(driver_line(runs[0], contract, traced))
        return 0
    return 1 if any(run.problems() for run in runs) else 0


if __name__ == "__main__":
    sys.exit(main())
