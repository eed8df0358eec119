"""Benchmark harness for cramerwold: the dist, oracle and train workloads.

    python3 perfbench/run.py --workload dist --seed 1 --seconds 30 --trace 0

runs one workload for ``--seconds`` from one in-process client in a closed
loop (an op starts when the previous one and its check are done) and prints a
report; its last line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. ``--trace 0`` reports the end-to-end metrics of
BENCHMARK.json, ``--trace 1`` the per-layer ones from a traced run. See
perfbench/README.md for the workloads and what each metric means.
"""

import os

# One BLAS thread (at most nproc): a single client on one core. Set before
# numpy is imported here or in the set-up probes, which inherit it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_run"
SETUP_PROBES = 7
TAIL_BEYOND = 10  # the tail is the highest percentile with this many samples beyond it
WORKLOAD_NAMES = ("dist", "oracle", "train")
PHI_BRANCHES = ("series", "expansion", "quadrature", "bessel2", "asymptotic")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",),
                        help="one workload, or all of them in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", default=None, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def import_program():
    """Import cramerwold from this checkout's src/, and nothing else."""
    package = SRC / "cramerwold"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no cramerwold sources at {package}")
    sys.path.insert(0, str(SRC))
    import cramerwold

    if Path(cramerwold.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"perfbench: imported cramerwold from {cramerwold.__file__}, not {package}")
    return cramerwold


def setup_probe(args):
    """Set-up as the timed run does it, in this fresh interpreter; prints the
    monotonic clock at the point the first warm-up op would start."""
    import_program()
    import workloads

    workloads.prepare(args.workload, args.setup_probe, args.seed)
    print(time.monotonic())


def measure_setup(args, workdir):
    times = []
    for i in range(SETUP_PROBES):
        probe_dir = workdir / f"probe{i}"
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", "0", "--setup-probe", str(probe_dir)]
        start = time.monotonic()
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=False)
        if done.returncode != 0:
            raise SystemExit(f"perfbench: set-up probe failed:\n{done.stderr}")
        times.append(float(done.stdout.split()[-1]) - start)
        shutil.rmtree(probe_dir)
    return times


def _no_span(name):
    return contextlib.nullcontext()


class Loop:
    """Closed loop over whole cycles of a workload's ops until the deadline."""

    def __init__(self, workload):
        self.workload = workload
        self.times = {False: [], True: []}
        self.attempted = 0
        self.failures = []

    def cycle(self, tracer=None):
        for index, label in enumerate(self.workload.labels):
            self.attempted += 1
            output = problem = None
            start = time.perf_counter()
            try:
                if tracer is None:
                    output = self.workload.op(index, _no_span)
                else:
                    with tracer.span("op"):
                        output = self.workload.op(index, tracer.span)
            except Exception:  # an op that raises is a failed op; the loop goes on
                problem = traceback.format_exc(limit=3)
            elapsed = time.perf_counter() - start
            self.times[tracer is not None].append(elapsed)
            if problem is None:
                problem = self.workload.check(index, output)
            if problem:
                self.failures.append(f"{label}: {problem}")

    def run(self, seconds, tracer=None):
        """Untraced cycles, or untraced and traced cycles in turn."""
        start = time.perf_counter()
        while True:
            self.cycle()
            if tracer is not None:
                tracer.install()
                try:
                    self.cycle(tracer)
                finally:
                    tracer.remove()
            if time.perf_counter() - start >= seconds:
                return time.perf_counter() - start


def end_to_end(loop, wall, setup):
    times = sorted(loop.times[False])
    n = len(times)
    # With too few ops for 10 beyond, the tail falls back to the slowest op.
    at = n - TAIL_BEYOND - 1 if n > TAIL_BEYOND else n - 1
    metrics = {
        "setup_s": statistics.median(setup),
        "ops_per_s": (loop.attempted - len(loop.failures)) / wall,
        "op_p50_s": statistics.median(times),
        "op_tail_s": times[at],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    samples = {"setup_s": len(setup), "ops_per_s": n, "op_p50_s": n, "op_tail_s": n,
               "peak_rss_mb": 1}
    notes = {"op_tail_percentile": 100.0 * (at + 1) / n, "timed_wall_s": wall}
    return metrics, samples, notes


def per_layer(tracer, loop):
    """Per-layer metrics of the traced ops, each per traced op."""
    from tracing import LAYERS

    ops = len(loop.times[True])
    totals = tracer.totals()
    counts = tracer.counts

    def secs(name):
        return totals.get(name, (0, 0.0, 0.0))[1] / ops

    def own(name):
        return totals.get(name, (0, 0.0, 0.0))[2] / ops

    def per_op(key):
        return counts[key] / ops

    def ns_per(seconds, count):
        return seconds / count * 1e9 if count else 0.0

    m = {}
    for branch in PHI_BRANCHES:
        name = f"phi.{branch}"
        m[f"{name}.elems"] = per_op(f"{name}.elems")
        m[f"{name}.s"] = secs(name)
        m[f"{name}.ns_per_elem"] = ns_per(secs(name), per_op(f"{name}.elems"))
    m["kernels.pair_d2.s"] = secs("kernels.pair_d2")
    m["kernels.pair_d2.pairs"] = per_op("kernels.pair_d2.pairs")
    m["kernels.pair_d2.flops_computed"] = per_op("kernels.pair_d2.flops_computed")
    m["kernels.sum_phi_cross.s"] = secs("kernels.sum_phi_cross")
    m["kernels.sum_phi_cross.self_s"] = own("kernels.sum_phi_cross")
    m["kernels.sum_phi_cross.pairs"] = per_op("kernels.sum_phi_cross.pairs")
    m["kernels.sum_phi_norms.s"] = secs("kernels.sum_phi_norms")
    for name in ("kernels.cw_normal_asym_grad", "kernels.mardia_sums"):
        m[f"{name}.s"] = secs(name)
        m[f"{name}.pairs"] = per_op(f"{name}.pairs")
    for name in ("forward", "backward", "adam_step", "replace_params"):
        m[f"mlp.{name}.s"] = secs(f"mlp.{name}")
    m["training.steps"] = per_op("training.steps")
    m["training.cost_and_grad.s"] = secs("training.cost_and_grad")
    m["training.cost_and_grad.self_s"] = own("training.cost_and_grad")
    m["training.loop.self_s"] = own("training.train")
    m["training.record.s"] = secs("training.record")
    m["training.record.self_s"] = own("training.record")
    m["normality.mardia.s"] = secs("normality.mardia")
    m["oracle.sample_directions.s"] = secs("oracle.sample_directions")
    m["oracle.mc_pair_values.s"] = secs("oracle.mc_pair_values")
    m["oracle.mc_normal_values.s"] = secs("oracle.mc_normal_values")
    m["oracle.mc.terms"] = per_op("oracle.mc.terms")
    m["oracle.mc.ns_per_term"] = ns_per(m["oracle.mc_pair_values.s"] + m["oracle.mc_normal_values.s"],
                                        m["oracle.mc.terms"])
    m["oracle.self_s"] = own("oracle.cw2_monte_carlo") + own("oracle.cw2_normal_monte_carlo")
    m["data.load_csv.s"] = secs("data.load_csv")
    m["data.load_csv.cells"] = per_op("data.load_csv.cells")
    m["distance.cw2_sample_sample.self_s"] = own("distance.cw2_sample_sample")
    m["distance.cw2_sample_normal.self_s"] = own("distance.cw2_sample_normal")
    m["cli.self_s"] = own("cli.main")
    for key in ("distance.pre_clamp_negative", "training.eps_log_floor_hits",
                "training.clip_events", "training.nonfinite_loss"):
        m[key] = per_op(key)
    for layer in LAYERS:
        m[f"layer.{layer}.self_s"] = sum(v[2] for k, v in totals.items()
                                         if k.split(".", 1)[0] == layer) / ops
    m["trace.op_s"] = sum(loop.times[True]) / ops
    m["trace.unattributed_s"] = own("op")
    m["trace.overhead_ratio"] = (sum(loop.times[True]) / len(loop.times[True])) / (
        sum(loop.times[False]) / len(loop.times[False]))
    return m


def host_block(cramerwold, args, workload):
    import numpy

    cpu = None
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                   None)
    caches = []
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        with contextlib.suppress(OSError):
            caches.append("L{} {} {}".format(*((index / f).read_text().strip()
                                               for f in ("level", "type", "size"))))
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "caches": caches,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(numpy),
        "cramerwold_backend": cramerwold.BACKEND,
        "git_commit": _git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "inputs": workload.describe(),
    }


def _blas_threads(numpy):
    """Thread count OpenBLAS reports, or the pinned setting if it cannot be asked."""
    import ctypes

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return fn()
    return f"OPENBLAS_NUM_THREADS={os.environ['OPENBLAS_NUM_THREADS']}"


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None  # not a git checkout
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def declared_metrics():
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return spec["end_to_end"], spec["per_layer"]


def main(argv=None):
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if args.setup_probe:
        setup_probe(args)
        return 0
    e2e_spec, layer_spec = declared_metrics()
    cramerwold = import_program()
    import tracing
    import workloads

    workdir = OUT / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    try:
        setup = measure_setup(args, workdir)
        workload = workloads.prepare(args.workload, workdir / "inputs", args.seed)
        warmup_failures = workload.warmup(_no_span)
        loop = Loop(workload)
        tracer = tracing.Tracer() if args.trace else None
        wall = loop.run(args.seconds, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics, samples, notes = end_to_end(loop, wall, setup)
    spec = e2e_spec
    absent = []
    if tracer is not None:
        metrics = per_layer(tracer, loop)
        missing = tracer.absent | tracer.broken
        absent = sorted(m["name"] for m in layer_spec
                        if any(m["name"].startswith(span + ".") for span in missing))
        samples = {m["name"]: len(loop.times[True]) for m in layer_spec}
        spec = layer_spec
    undefined = [m["name"] for m in spec if m["name"] not in metrics]
    if undefined:
        raise SystemExit(f"perfbench: BENCHMARK.json names metrics this harness lacks: {undefined}")

    report = {
        "host": host_block(cramerwold, args, workload),
        "attempted": loop.attempted,
        "failed": len(loop.failures),
        "failures": loop.failures[:20],
        "warmup_failures": warmup_failures,
        "notes": notes,
        "absent": absent,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"],
                                "samples": samples[m["name"]]} for m in spec},
    }
    if tracer is not None:
        report["counts"] = dict(tracer.counts)
        elems = {b: tracer.counts[f"phi.{b}.elems"] for b in PHI_BRANCHES}
        total = sum(elems.values())
        report["phi_branch_shares"] = {b: e / total if total else 0.0 for b, e in elems.items()}
    write_out(args, report, tracer)

    for name, entry in report["metrics"].items():
        print(f"{name} = {entry['value']!r} {entry['unit']} (samples {entry['samples']})")
    # A healthy run reads exactly 0, so BENCHMARK.json gates failed/attempted
    # through the last line instead of listing error_rate.
    print(f"error_rate = {len(loop.failures) / loop.attempted!r} ratio (samples {loop.attempted})")
    for key in ("notes", "host", "absent", "failures", "warmup_failures", "phi_branch_shares"):
        if key in report:
            print(f"{key}: {json.dumps(report[key])}")
    print(json.dumps({
        "correct": not loop.failures and not warmup_failures,
        "attempted": loop.attempted,
        "failed": len(loop.failures),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in spec},
    }))
    return 0


def run_all(args):
    """Each workload in turn, in its own process; its lines are prefixed."""
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(cmd, capture_output=True, text=True, check=False)
        lines = done.stdout.splitlines()
        for line in lines:
            print(f"[{name}] {line}")
        sys.stderr.write(done.stderr)
        if done.returncode != 0 or not lines or not json.loads(lines[-1])["correct"]:
            status = 1
    return status


def write_out(args, report, tracer):
    """The report, and the traced run's spans, under .perfbench_run/."""
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(report, indent=1) + "\n")
    if tracer is not None:
        with open(OUT / f"{stem}-spans.jsonl", "w") as fh:
            for sid, (parent, name, start, end) in enumerate(tracer.spans):
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                     "start": start, "end": end}) + "\n")


if __name__ == "__main__":
    sys.exit(main())
