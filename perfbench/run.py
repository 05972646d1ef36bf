#!/usr/bin/env python3
"""Benchmark of nyqscale's ``analyze`` and ``simulate`` commands.

Runs one workload through the public Click CLI in-process, in whole rounds
of a fixed operation mix, for at least ``--seconds`` seconds, and checks
every output against the state-space oracle or an exact solution (see
``checks.py``). The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

    python3 perfbench/run.py --workload n5-analyze --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced rounds and reports the per-layer metrics (see
``spans.py``) and the tracing overhead. Inputs are generated from
``--seed`` under ``.perfbench-work/`` at the root of the checkout.
"""

import time

T_START = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402

# one BLAS thread: the benchmark's load comes from its own process only
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("NYQSCALE_THREADS", None)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
WORKLOADS = ("n5-analyze", "grid-scale", "n5-simulate")
MIN_ROUNDS = 2
SETUP_REPEATS = 2  # extra set-ups in fresh processes; setup_s is the median of 3

sys.path.insert(0, str(HERE))
import gen  # noqa: E402


@dataclass(frozen=True)
class Op:
    """One CLI call of a workload's mix, with what its checks need."""

    label: str
    argv: tuple
    scenario: str
    n: int
    markers: bool = False  # loci.csv carries a marker column (delayed agents)
    check: str | None = None
    rate_limiter: bool = False
    known_failure: str | None = None  # a program fault this op always hits

    @property
    def command(self) -> str:
        return self.argv[0]


def _has_delay(doc: dict) -> bool:
    return any(a.get("wind", {}).get("tau_s", 0) > 0 for a in doc["agents"]["buses"])


def _analyze(path, doc, check, *extra, label=None, known_failure=None):
    return Op(
        label=label or f"{doc['name']} {check}",
        argv=("analyze", str(path), "--check", check, *extra),
        scenario=str(path),
        n=len(doc["network"]["buses"]),
        markers=_has_delay(doc),
        check=check,
        known_failure=known_failure,
    )


TOLERANCE_FAULT = ("point-on-curve tolerance scales with max|loci| "
                   "(nyquist._accumulate_matched_winding)")
RADIUS_FAULT = ("RHP loop poles counted over the whole RHP whatever the contour "
                "radius (nyquist._count_unstable_loop_poles)")


def setup_n5_analyze(data: Path, inputs: Path, seed: int) -> list[Op]:
    docs = {name: gen.bundled(data, name) for name in gen.N5_NAMES}
    paths = {name: gen.write(inputs / f"{name}.json", doc) for name, doc in docs.items()}
    ops = []
    for name in ("n5_hydro_loads", "n5_hydro_wind", "n5_hydro_d0"):
        for check in ("theorem1", "fov", "lossy", "decentralized"):
            fault = TOLERANCE_FAULT if (name, check) in (
                ("n5_hydro_d0", "theorem1"), ("n5_hydro_d0", "lossy")) else None
            ops.append(_analyze(paths[name], docs[name], check, known_failure=fault))
    for name, check, extra, fault in (
        ("n5_hydro_wind", "theorem1", ("--contour-kind", "full-D"), TOLERANCE_FAULT),
        ("n5_hydro_loads", "fov", ("--contour-r", "0.5*2pi"), None),  # an FOV that passes
        ("n5_hydro_d0", "theorem1", ("--contour-r", "10"), RADIUS_FAULT),
    ):
        ops.append(_analyze(paths[name], docs[name], check, *extra,
                            label=f"{name} {check} {' '.join(extra)}", known_failure=fault))
    name = "n5_hydro_wind"
    ops.append(Op(label=f"{name} export-loci", argv=("export-loci", str(paths[name])),
                  scenario=str(paths[name]), n=len(docs[name]["network"]["buses"]),
                  markers=_has_delay(docs[name])))
    return ops


# synthetic networks: (name, rows, cols or None for a ring)
GRID_CASES = (("ring16", 16, None), ("grid3x4", 3, 4))


def setup_grid_scale(data: Path, inputs: Path, seed: int) -> list[Op]:
    rng = random.Random(seed)
    ops = []
    for name, a, b in GRID_CASES:
        n, edges = (a, gen.ring_lines(a)) if b is None else (a * b, gen.grid_lines(a, b))
        doc = gen.synthetic_scenario(data, name, n, edges, rng)
        path = gen.write(inputs / f"{name}.json", doc)
        ops += [_analyze(path, doc, check) for check in ("theorem1", "fov")]
    return ops


def setup_n5_simulate(data: Path, inputs: Path, seed: int) -> list[Op]:
    ops = []
    docs = [gen.bundled(data, "n5_hydro_loads"), gen.bundled(data, "n5_hydro_wind"),
            gen.clamped_copy(data)]
    for doc in docs:
        path = gen.write(inputs / f"{doc['name']}.json", doc)
        clamp = doc["name"].endswith("_clamped")
        ops.append(Op(label=f"{doc['name']} simulate" + (" --rate-limiter" if clamp else ""),
                      argv=("simulate", str(path)) + (("--rate-limiter",) if clamp else ()),
                      scenario=str(path), n=len(doc["network"]["buses"]),
                      rate_limiter=clamp))
    return ops


SETUPS = {"n5-analyze": setup_n5_analyze, "grid-scale": setup_grid_scale,
          "n5-simulate": setup_n5_simulate}


def import_program():
    """Import nyqscale from this checkout's ``src`` (and nowhere else)."""
    pkg = SRC / "nyqscale"
    if not (pkg / "__init__.py").is_file():
        sys.exit(f"perfbench: no nyqscale sources at {pkg}")
    sys.path.insert(0, str(SRC))
    import nyqscale
    from nyqscale import cli

    if Path(nyqscale.__file__).resolve().parent != pkg.resolve():
        sys.exit(f"perfbench: nyqscale imported from {nyqscale.__file__}, not {pkg}")
    return nyqscale, cli


def setup(workload: str, seed: int, work: Path):
    """Everything before the first timed op: import, generate, write."""
    nyq, cli = import_program()
    if work.exists():
        shutil.rmtree(work)
    ops = SETUPS[workload](SRC / "nyqscale" / "data", work / "inputs", seed)
    return nyq, cli, ops


def invoke(cli, argv) -> tuple[int | None, str]:
    """One CLI call in-process: (exit code or None on a crash, output)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        try:
            cli.main.main(args=list(argv), prog_name="nyqscale", standalone_mode=False)
            code = 0
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # a crash is a failed op, not a benchmark error
            buf.write(f"\n{type(exc).__name__}: {exc}")
            code = None
    return code, buf.getvalue()


class Runner:
    def __init__(self, nyq, cli, ops, work: Path):
        import checks  # after set-up: its imports are not part of setup_s

        self.checks = checks
        self.cli = cli
        self.ops = ops
        self.work = work
        self.oracle = checks.Oracle(nyq)
        self.attempted = 0
        self.failed = 0
        self.unexpected = 0
        self.reported = set()
        self.bytes_out = 0

    def run_op(self, i: int, op: Op, tracer=None) -> float:
        out = self.work / "out" / f"op{i:02d}"
        if out.exists():
            shutil.rmtree(out)
        argv = op.argv + ("--out-dir", str(out))
        gc.collect()
        t0 = time.perf_counter()
        if tracer is None:
            code, text = invoke(self.cli, argv)
        else:
            code, text = tracer.span("cli", invoke, self.cli, argv)
        elapsed = time.perf_counter() - t0
        if tracer is not None:
            self.bytes_out += sum(f.stat().st_size for f in out.rglob("*") if f.is_file())
        self.attempted += 1
        problems = self.check(op, code, out, text)
        if problems:
            self.failed += 1
            if op.known_failure is None:
                self.unexpected += 1
            if op.label not in self.reported:
                self.reported.add(op.label)
                tag = "known fault: " + op.known_failure if op.known_failure else "UNEXPECTED"
                print(f"failed op [{tag}] {op.label}: {'; '.join(problems)}", file=sys.stderr)
        return elapsed

    def check(self, op: Op, code, out: Path, text: str) -> list[str]:
        c = self.checks
        if code is None:
            return [f"crashed: {text.strip().splitlines()[-1]}"]
        if op.command == "analyze":
            return c.check_analyze(self.oracle, op, code, out)
        if op.command == "export-loci":
            return c.check_export(op, code, out)
        return c.check_simulate(self.oracle, op, code, out)

    def round(self, tracer=None) -> list[float]:
        return [self.run_op(i, op, tracer) for i, op in enumerate(self.ops)]


def setup_in_subprocess(workload: str, seed: int, work: Path) -> float:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--setup-only", str(work)]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    work = WORK / workload
    nyq, cli, ops = setup(workload, seed, work)
    setup_samples = [time.perf_counter() - T_START]
    runner = Runner(nyq, cli, ops, work)
    rounds, traced = [], []
    tracer = None
    if trace:
        from spans import Tracer

        tracer = Tracer()
    start = time.perf_counter()
    while len(rounds) + len(traced) < MIN_ROUNDS or time.perf_counter() - start < seconds:
        if tracer is not None and len(traced) < len(rounds):
            tracer.install(nyq.__name__)
            try:
                traced.append(runner.round(tracer))
            finally:
                tracer.uninstall()
        else:
            rounds.append(runner.round())
    for k in range(SETUP_REPEATS):
        setup_samples.append(setup_in_subprocess(workload, seed, work / f"setup{k}"))

    # per-op medians over rounds: a burst of outside load that slows one op
    # in one round does not move them
    per_op = [statistics.median(r[i] for r in rounds) for i in range(len(ops))]
    if tracer is not None:
        traced_op = [statistics.median(r[i] for r in traced) for i in range(len(ops))]
        metrics = tracer.layer_metrics(len(traced))
        metrics["cli.bytes_out"] = (runner.bytes_out / len(traced), "B")
        metrics["trace.wall_ratio"] = (sum(traced_op) / sum(per_op), "ratio")
        tracer.write(work / "trace.jsonl")
    else:
        metrics = {
            "setup_s": (statistics.median(setup_samples), "s"),
            "ops_per_s": (len(ops) / sum(per_op), "1/s"),
            "op_p50_s": (statistics.median(per_op), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    print(f"{workload}: {len(rounds)} untraced + {len(traced)} traced rounds of "
          f"{len(ops)} ops, seed {seed}", file=sys.stderr)
    return {
        "correct": runner.unexpected == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def run_all(args) -> dict:
    """Each workload in its own process, so peak RSS and set-up are its own."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", w, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
        if done.returncode != 0:
            sys.exit(f"perfbench: workload {w} exited {done.returncode}")
        res = json.loads(done.stdout.strip().splitlines()[-1])
        total["correct"] &= res["correct"]
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
        for k, v in res["metrics"].items():
            total["metrics"][f"{w}.{k}"] = v
    return total


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", type=Path, default=None, help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.setup_only is not None:
        setup(args.workload, args.seed, args.setup_only)
        print(time.perf_counter() - T_START)
        return
    if args.workload == "all":
        result = run_all(args)
    else:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    for name, m in result["metrics"].items():
        print(f"{name:42s} {m['value']:.6g} {m['unit']}")
    print(f"attempted {result['attempted']}, failed {result['failed']}, "
          f"correct {result['correct']}")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
