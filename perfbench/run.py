"""cspdec benchmark: speculative vs target-only decoding, end to end and per layer.

    python3 perfbench/run.py --workload spec-standard --seed 1 --seconds 20 --trace 0

Run from the repository root; cspdec is imported from ``src/``.  Prints a
table of metrics with units and sample counts, then, as the last line, one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--trace 0`` measures the end-to-end metrics untraced;
``--trace 1`` makes an untraced and a traced pass over the same work (for
``check-dist``, one check at jobs=2, then one untraced and one traced at
jobs=1) and reports the per-layer metrics, writing every span to
``perfbench/traces/``.
The metric names and the reason for each workload are in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MODULES = ("gaussian", "rng", "diffusion", "autoregressive", "engine", "oracle", "bench",
           "parallel", "configio", "scenarios")
# Set-up is measured in this process and in this many fresh interpreters.
SETUP_PROBES = 2
PROBE_TIMEOUT_S = 120


@dataclass(frozen=True)
class Workload:
    name: str
    scenario: str
    rho: float
    jobs: int
    tag: int  # replicate_seed tag of every seed the workload draws
    corpus_runs: int  # runs per side of one distribution_check, or of the jobs probe

    @property
    def is_corpus(self) -> bool:
        return self.name == "check-dist"


WORKLOADS = {
    w.name: w
    for w in (
        Workload("spec-standard", "standard_pair", 0.0, 1, 9101, 600),
        Workload("spec-prefix-long", "prefix_divergent_pair", 0.05, 1, 9102, 150),
        Workload("check-dist", "standard_pair", 0.0, 2, 9103, 1500),
    )
}


def import_cspdec() -> SimpleNamespace:
    if not (SRC / "cspdec" / "__init__.py").is_file():
        raise SystemExit(f"cspdec sources not found under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    cs = SimpleNamespace(**{m: importlib.import_module(f"cspdec.{m}") for m in MODULES})
    if Path(cs.engine.__file__).resolve().parent != SRC / "cspdec":
        raise SystemExit(f"imported cspdec from {cs.engine.__file__}, not from {SRC}")
    return cs


def set_up(workload: Workload, seed: int):
    """Import, load the shipped model config, and warm up; returns (bench, seconds)."""
    t0 = perf_counter()
    cs = import_cspdec()
    import workloads

    t1 = perf_counter()
    model = cs.configio.load_model_config(cs.scenarios.scenario_path(workload.scenario))
    load_ms = (perf_counter() - t1) * 1e3
    bench = workloads.Bench(
        workload, seed, cs, model.target, model.draft,
        model.spec_config(rho=workload.rho), load_ms,
    )
    workloads.warm_up(bench)
    return bench, perf_counter() - t0


def setup_probe(workload: Workload, seed: int) -> float:
    """Set-up time measured in a fresh interpreter."""
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload.name,
         "--seed", str(seed), "--setup-probe"],
        cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True,
    )
    return float(json.loads(out.stdout.strip().splitlines()[-1])["setup_s"])


def peak_rss_mb(jobs: int) -> float:
    """Peak RSS of this process plus ``jobs`` times that of its largest worker."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    worker = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss if jobs > 1 else 0
    return (own + jobs * worker) / 1024.0


def expected_names(trace: bool) -> list[str] | None:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        return None
    doc = json.loads(path.read_text())
    return [m["name"] for m in doc["per_layer" if trace else "end_to_end"]]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    workload = WORKLOADS[args.workload]

    bench, setup_s = set_up(workload, args.seed)
    if args.setup_probe:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    import workloads

    tally = workloads.Tally()
    if args.trace:
        trace_path = ROOT / "perfbench" / "traces" / f"{workload.name}-seed{args.seed}.npz"
        metrics, counts = workloads.traced(bench, args.seconds, tally, trace_path)
    else:
        metrics, counts = workloads.end_to_end(bench, args.seconds, tally)
        metrics["peak_rss_mb"] = (peak_rss_mb(workload.jobs), "MB")
        samples = [setup_s] + [setup_probe(workload, args.seed) for _ in range(SETUP_PROBES)]
        metrics["setup_s"] = (statistics.median(samples), "s")
        counts["setup_samples"] = len(samples)

    names = expected_names(bool(args.trace))
    if names is not None and sorted(names) != sorted(metrics):
        raise SystemExit(f"metrics {sorted(metrics)} do not match BENCHMARK.json {sorted(names)}")

    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:34s} {value:14.6g} {unit}")
    print("  samples: " + ", ".join(f"{k}={v}" for k, v in counts.items()))
    for problem in tally.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
