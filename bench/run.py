"""Benchmark of the photoncorr command-line pipeline, end to end and per layer.

Usage:
    python3 bench/run.py --workload acquire|fit-bootstrap|sweep|all \
        [--seed N] [--seconds S] [--trace 0|1]

Every input is generated from ``--seed`` before any timing. One workload
runs in this process as a closed loop with one client: ``photoncorr.cli.main``
is called with one command at a time, and the next iteration starts when
the previous one is done. Iterations repeat until starting another would
overrun ``--seconds`` (at least two are run, so reruns can be compared).
Every iteration's outputs are checked; a failed command or check is
counted and the run goes on.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` untraced and traced iterations
alternate, and it carries the per-layer metrics. ``--workload all`` runs
each workload in its own process and prints every metric as a table.
Full results, recorded outputs and the machine description go to
``bench/out/``. See ``bench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH_DIR, "out")
RESULT_PREFIX = "result file: "

# BLAS pools are pinned to one thread: the matrices are at most 61 x 61,
# and idle pool threads only add noise on a small machine.
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _name in BLAS_ENV:
    os.environ[_name] = "1"

SETUP_SAMPLES = 3
MIN_ITERATIONS = 2
IMPORT_SNIPPET = (
    "import time\n"
    "t = time.perf_counter()\n"
    "import photoncorr.cli\n"
    "print(time.perf_counter() - t)\n"
    "import photoncorr.detector, photoncorr.inference\n"
)

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
# Reported with failed_ratio in the table and result file, not gated: they
# apply to some workloads only and vary with the seed far beyond any bound.
OUTPUT_METRICS = ("tv_oracle", "g_abs_err", "fit_residual")
PER_LAYER = {
    "cli.import_s": "s", "detector.import_s": "s", "inference.import_s": "s",
    "cli.self_s": "s",
    "io.calls": "count", "io.self_s": "s", "io.bytes_written": "B",
    "montecarlo.calls": "count", "montecarlo.simulate_s": "s", "montecarlo.shots_per_s": "1/s",
    "detector.calls": "count", "detector.self_s": "s", "detector.us_per_call": "us",
    "distributions.calls": "count", "distributions.self_s": "s",
    "measures.calls": "count", "measures.self_s": "s",
    "inference.stage1_calls": "count", "inference.stage1_s": "s",
    "inference.stage1_detector_calls": "count",
    "inference.stage2_calls": "count", "inference.stage2_s": "s",
    "inference.stage2_detector_calls": "count",
    "inference.resample_s": "s", "inference.resample_p90_s": "s",
    "inference.self_s": "s", "inference.stage2_fallbacks": "count",
    "trace.overhead_s": "s",
}
EXACT_COUNTS = tuple(k for k in PER_LAYER if k.endswith("calls") or k.endswith("fallbacks"))

PAPER_DETECTORS = {
    "detector_h": {"efficiency": 0.012, "dark_mean": 0.11, "crosstalk": 0.12},
    "detector_v": {"efficiency": 0.010, "dark_mean": 0.14, "crosstalk": 0.11},
}
FIT_DETECTORS = {
    "detector_h": {"efficiency": 0.70, "dark_mean": 0.02, "crosstalk": 0.05},
    "detector_v": {"efficiency": 0.65, "dark_mean": 0.03, "crosstalk": 0.04},
}
MEAN = 4.1
G_TRUE = 0.5
SWEEP_G = (0.0, 0.25, 0.5, 0.75, 1.0)
# Bounds of the acceptance criteria in tests/test_acceptance.py.
TV_BOUND_1E7 = 0.004
G_BOUND = 0.05


def derive_seed(seed: int, purpose: str) -> int:
    digest = hashlib.sha256(f"{seed}/{purpose}".encode()).hexdigest()
    return int(digest[:12], 16)


def pipeline_config(detectors: dict, shots: int, seed: int, n_max: int, fit_n_max: int) -> dict:
    return {
        "source": {"mean_photons": MEAN, "correlation": G_TRUE},
        **detectors,
        "shots": shots,
        "seed": seed,
        "n_max": n_max,
        "fit": {"weighting": "poisson", "n_max": fit_n_max},
    }


def write_config(path: str, config: dict) -> str:
    with open(path, "w") as handle:
        json.dump(config, handle, indent=2, sort_keys=True)
    return path


def read_json(path: str) -> dict:
    with open(path) as handle:
        return json.load(handle)


def all_finite(value) -> bool:
    if isinstance(value, dict):
        return all(all_finite(v) for v in value.values())
    if isinstance(value, list):
        return all(all_finite(v) for v in value)
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return math.isfinite(value)
    return True


class Acquire:
    """simulate 10^7 shots at the reference detectors, then measure."""

    name = "acquire"

    def __init__(self, seed: int, inputs: str, run: str):
        from photoncorr import DetectorParams, SourceParams, apply_two_mode, mixture_joint

        self.seeds = {"simulate": derive_seed(seed, "acquire.simulate")}
        cfg = write_config(os.path.join(inputs, "config.json"), pipeline_config(
            PAPER_DETECTORS, 10 ** 7, self.seeds["simulate"], n_max=12, fit_n_max=40))
        counts = os.path.join(run, "counts.csv")
        self.commands = [
            ("simulate", ["simulate", "--config", cfg, "--out", run]),
            ("measure", ["measure", counts, "--out", run]),
        ]
        self.data_files = {"counts.csv": "simulate", "report.json": "measure",
                           "sum_difference.csv": "measure"}
        self.oracle = apply_two_mode(
            mixture_joint(SourceParams(MEAN, G_TRUE), 40),
            DetectorParams(**PAPER_DETECTORS["detector_h"]),
            DetectorParams(**PAPER_DETECTORS["detector_v"]),
            n_out=12,
        ).probs

    def check(self, run: str) -> tuple[set, dict]:
        from photoncorr.io import read_counts
        from photoncorr.montecarlo import normalize, total_variation

        failed, outputs = set(), {}
        try:
            counts = read_counts(os.path.join(run, "counts.csv"))
            tv = total_variation(normalize(counts).probs, self.oracle)
            outputs.update(tv_oracle=tv, shots=counts.shots, overflow=counts.overflow)
            if not tv <= TV_BOUND_1E7:
                failed.add("simulate")
        except (OSError, ValueError):
            failed.add("simulate")
        try:
            report = read_json(os.path.join(run, "report.json"))
            outputs.update(mean_interior_ratio=report["mean_interior_ratio"],
                           product_distance=report["product_distance"])
        except (OSError, ValueError, KeyError):
            failed.add("measure")
        return failed, outputs


class FitBootstrap:
    """fit --bootstrap 100 --reconstruct 40 on a 10^6-shot reference histogram."""

    name = "fit-bootstrap"

    def __init__(self, seed: int, inputs: str, run: str):
        from photoncorr import cli

        self.seeds = {"simulate": derive_seed(seed, "fit-bootstrap.simulate"),
                      "bootstrap": derive_seed(seed, "fit-bootstrap.bootstrap")}
        config = pipeline_config(
            PAPER_DETECTORS, 10 ** 6, self.seeds["simulate"], n_max=12, fit_n_max=40)
        sim_cfg = write_config(os.path.join(inputs, "simulate.json"), config)
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["simulate", "--config", sim_cfg, "--out", inputs])
        if code != 0:
            raise RuntimeError(f"set-up simulate exited with {code}")
        fit_cfg = write_config(os.path.join(inputs, "fit.json"),
                               {"fit": config["fit"], "seed": self.seeds["bootstrap"]})
        self.commands = [
            ("fit", ["fit", os.path.join(inputs, "counts.csv"), "--config", fit_cfg,
                     "--bootstrap", "100", "--reconstruct", "40", "--out", run]),
        ]
        self.data_files = {"fit.json": "fit", "reconstruction.csv": "fit"}

    def check(self, run: str) -> tuple[set, dict]:
        try:
            fit = read_json(os.path.join(run, "fit.json"))
            outputs = {
                "g": fit["correlation"], "mean": fit["mean_photons"],
                "residual": fit["residual"], "g_error": fit["g_error"],
                "distance_error": fit["distance_error"],
            }
            ok = (all_finite(fit) and all(isinstance(v, float) for v in outputs.values())
                  and 0.0 <= outputs["g"] <= 1.0 and outputs["g_error"] > 0.0)
        except (OSError, ValueError, KeyError):
            return {"fit"}, {}
        outputs["g_abs_err"] = abs(outputs["g"] - G_TRUE)
        outputs["fit_residual"] = outputs["residual"]
        return (set() if ok else {"fit"}), outputs


class Sweep:
    """sweep g over 0..1 at 10^6 shots per point with the criterion-4 detectors."""

    name = "sweep"

    def __init__(self, seed: int, inputs: str, run: str):
        self.seeds = {"simulate": derive_seed(seed, "sweep.simulate")}
        cfg = write_config(os.path.join(inputs, "config.json"), pipeline_config(
            FIT_DETECTORS, 10 ** 6, self.seeds["simulate"], n_max=34, fit_n_max=60))
        g_list = ",".join(str(g) for g in SWEEP_G)
        self.commands = [("sweep", ["sweep", "--config", cfg, "--g-list", g_list, "--out", run])]
        self.data_files = {"sweep.csv": "sweep"}

    def check(self, run: str) -> tuple[set, dict]:
        try:
            with open(os.path.join(run, "sweep.csv")) as handle:
                header, *lines = handle.read().split()
            columns = header.split(",")
            rows = [dict(zip(columns, line.split(","))) for line in lines]
            points = [{
                "g_true": float(r["g_true"]), "g": float(r["g_fitted"]),
                "mean_interior_ratio": float(r["mean_interior_ratio"]),
                "product_distance": float(r["product_distance"]),
            } for r in rows]
        except (OSError, ValueError, KeyError):
            return {"sweep"}, {}
        errors = [abs(p["g"] - p["g_true"]) for p in points]
        ok = ([p["g_true"] for p in points] == list(SWEEP_G)
              and all(e <= G_BOUND for e in errors))
        outputs = {"points": points, "g_abs_err": max(errors) if errors else math.inf}
        return (set() if ok else {"sweep"}), outputs


WORKLOADS = {w.name: w for w in (Acquire, FitBootstrap, Sweep)}


def machine() -> dict:
    import numpy
    import scipy

    model = platform.processor()
    try:
        with open("/proc/cpuinfo") as handle:
            model = next((line.split(":", 1)[1].strip() for line in handle
                          if line.startswith("model name")), model)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_env": {name: os.environ.get(name) for name in BLAS_ENV},
    }


def parse_importtime(stderr: str) -> dict[str, float]:
    """Cumulative import seconds per module from ``python -X importtime``."""
    cumulative = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) == 3 and fields[1].strip().isdigit():
            cumulative.setdefault(fields[2].strip(), int(fields[1]) * 1e-6)
    return cumulative


def measure_setup(trace: bool) -> tuple[list[float], dict[str, list[float]]]:
    """Fresh-interpreter ``import photoncorr.cli`` times, and per-module imports."""
    env = dict(os.environ, PYTHONPATH=SRC)
    flags = ["-X", "importtime"] if trace else []
    setup, modules = [], {"cli.import_s": [], "detector.import_s": [], "inference.import_s": []}
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run([sys.executable, *flags, "-c", IMPORT_SNIPPET], env=env,
                              cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"import photoncorr.cli failed:\n{proc.stderr}")
        setup.append(float(proc.stdout.split()[0]))
        if trace:
            cum = parse_importtime(proc.stderr)
            # Includes the package __init__, which imports every module.
            modules["cli.import_s"].append(cum.get("photoncorr.cli", 0.0))
            modules["detector.import_s"].append(cum.get("photoncorr.detector", 0.0))
            modules["inference.import_s"].append(cum.get("photoncorr.inference", 0.0))
    return setup, modules


def run_iteration(cli, workload, run: str, tracer=None) -> tuple[float, set, dict, dict]:
    """Run the workload's commands once; return wall time, failures, outputs, hashes."""
    shutil.rmtree(run, ignore_errors=True)
    os.makedirs(run)
    failed = set()
    sink = io.StringIO()
    started = time.perf_counter()
    with contextlib.redirect_stdout(sink):
        for name, argv in workload.commands:
            try:
                if tracer is None:
                    code = cli.main(argv)
                else:
                    code = tracer.call("cli", "main", cli.main, argv)
            except Exception:
                traceback.print_exc()
                code = None
            if code != 0:
                failed.add(name)
    wall = time.perf_counter() - started
    check_failed, outputs = workload.check(run)
    hashes = {}
    for filename in workload.data_files:
        try:
            with open(os.path.join(run, filename), "rb") as handle:
                hashes[filename] = hashlib.sha256(handle.read()).hexdigest()
        except OSError:
            hashes[filename] = None
    return wall, failed | check_failed, outputs, hashes


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    sys.path.insert(0, SRC)
    from photoncorr import cli

    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise RuntimeError(f"photoncorr imported from {cli.__file__}, not from {SRC}")
    import tracing

    setup, import_samples = measure_setup(trace)
    os.makedirs(OUT, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{name}-", dir=OUT)
    try:
        inputs, run = os.path.join(work, "inputs"), os.path.join(work, "run")
        os.makedirs(inputs)
        workload = WORKLOADS[name](seed, inputs, run)
        tracer = tracing.Tracer() if trace else None
        walls = {"plain": [], "traced": []}
        layer_samples, traced_spans = [], {}
        attempted = failed = 0
        reference_hashes, iterations, outputs = None, [], {}
        started = time.perf_counter()
        while True:
            traced = trace and len(iterations) % 2 == 1
            if traced:
                tracer.install()
            try:
                wall, bad, outputs, hashes = run_iteration(
                    cli, workload, run, tracer if traced else None)
            finally:
                if traced:
                    tracer.uninstall()
            if reference_hashes is None:
                reference_hashes = hashes
            bad |= {workload.data_files[f] for f, h in hashes.items()
                    if h is None or h != reference_hashes[f]}
            attempted += len(workload.commands)
            failed += len(bad)
            mode = "traced" if traced else "plain"
            walls[mode].append(wall)
            iterations.append({"mode": mode, "wall_s": wall, "failed": sorted(bad),
                               "outputs": outputs})
            if traced:
                spans = tracer.take()
                traced_spans[len(iterations) - 1] = spans
                layer_samples.append(tracing.layer_metrics(spans))
            elapsed = time.perf_counter() - started
            next_mode = "traced" if trace and len(iterations) % 2 == 1 else "plain"
            expected = statistics.median(walls[next_mode] or walls["plain"])
            if len(iterations) >= MIN_ITERATIONS and elapsed + expected > seconds:
                break
        if trace:
            tracing.write_spans(os.path.join(OUT, f"{name}-seed{seed}-spans.csv.gz"),
                                traced_spans)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    samples = {"wall_s": walls["plain"], "setup_s": setup}
    counts_repeat = True
    if trace:
        samples.update(import_samples)
        for key in PER_LAYER:
            if key in layer_samples[0]:
                samples[key] = [m[key] for m in layer_samples]
        counts_repeat = all(m[k] == layer_samples[0][k]
                            for m in layer_samples for k in EXACT_COUNTS)
        overhead = statistics.median(walls["traced"]) - statistics.median(walls["plain"])
        samples["trace.overhead_s"] = [overhead]
        units = PER_LAYER
    else:
        samples["peak_rss_mb"] = [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024]
        units = END_TO_END
    metrics = {k: {"value": statistics.median(samples[k]), "unit": u, "n": len(samples[k])}
               for k, u in units.items()}
    extra = {"failed_ratio": {"value": failed / attempted, "unit": "1", "n": attempted}}
    for key in OUTPUT_METRICS:
        values = [it["outputs"][key] for it in iterations if key in it["outputs"]]
        if values:
            extra[key] = {"value": statistics.median(values), "unit": "1", "n": len(values)}
    return {
        "workload": name, "seed": seed, "derived_seeds": workload.seeds,
        "seconds": seconds, "trace": int(trace),
        "correct": failed == 0 and counts_repeat, "attempted": attempted, "failed": failed,
        "exact_counts_repeat": counts_repeat,
        "metrics": metrics, "output_metrics": extra,
        "outputs": outputs, "data_sha256": reference_hashes,
        "iterations": iterations, "samples": samples, "machine": machine(),
    }


def format_metric(name: str, m: dict) -> str:
    return f"  {name:34s} {m['value']:>16.6g} {m['unit']:6s} (median of {m['n']})"


def print_result(result: dict) -> None:
    print(f"{result['workload']}: seed {result['seed']}, trace {result['trace']}, "
          f"{len(result['iterations'])} iterations, correct={result['correct']}")
    for name, m in {**result["metrics"], **result["output_metrics"]}.items():
        print(format_metric(name, m))


def run_all(args) -> int:
    """Each workload in its own process; print every metric per workload."""
    results = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"{name}: exited with {proc.returncode}", file=sys.stderr)
            return 1
        path = next(line[len(RESULT_PREFIX):] for line in proc.stdout.splitlines()
                    if line.startswith(RESULT_PREFIX))
        results[name] = read_json(path)
        print_result(results[name])
        print(f"{RESULT_PREFIX}{path}")
    print(json.dumps({name: {k: r[k] for k in ("correct", "attempted", "failed", "metrics")}
                      for name, r in results.items()}))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "photoncorr", "cli.py")):
        print(f"photoncorr sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    stamp = time.strftime("%Y%m%d-%H%M%S")
    path = os.path.join(
        OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}.json")
    with open(path, "w") as handle:
        json.dump(result, handle, indent=2)
    print_result(result)
    print(f"{RESULT_PREFIX}{path}")
    print(json.dumps({
        "correct": result["correct"], "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": m["value"], "unit": m["unit"]}
                    for k, m in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
