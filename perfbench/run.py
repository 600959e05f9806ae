#!/usr/bin/env python3
"""archforge benchmark: seeded synthetic projects driven through the real CLI.

    python3 perfbench/run.py --workload deep-closure --seed 1 --seconds 50 --trace 0

Run from the repository root.  The workload's project is generated from
--seed and built once with `archforge extract`, timed together as setup_s.
Each archforge command then runs in a fresh process
(`python -c "archforge.cli.main()"` with PYTHONPATH=src), one at a time, in
a fixed cycle that repeats until --seconds have passed; every command runs
at least once, and each cycle ends with one more set-up, of a copy in a side
directory.  Each command's wall time (scaled to a reference host speed,
see `host_speed`), peak RSS and output are recorded, and every output is
checked against the generator's own ground truth.  The last line of standard
output is one JSON object with the end-to-end metrics of BENCHMARK.json,
each the median over its samples; the samples go to standard error.

With --trace 1 one cycle runs in this process instead, once plain and once
with the wrappers of tracing.py installed, and the per-layer metrics are
printed.  Scratch files go to .perfbench/<workload>/ in the repository root.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
sys.path.insert(0, str(HERE))

import gen  # noqa: E402

LAUNCH = "import sys; from archforge.cli import main; sys.exit(main())"
CALIBRATION_LOOPS = 400_000
REFERENCE_CALIBRATION_S = 0.032  # the calibration loop's time at the reference host speed
COMMAND_TIMEOUT_S = 120
OUT_DIR = "build/blueprint"


@dataclass(frozen=True)
class Workload:
    name: str
    shape: gen.Shape
    why: str


# Seeds change names, texts, kinds and which references are drawn, not the
# size or shape of the project, so that timings stay comparable across seeds.
# One command takes 1 to 2 s on two cores, so a 50 s run repeats every
# command about four times or more.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "deep-closure",
            gen.Shape(
                modules=40, decls=900, tagged=0.15, refs=6, locality=0.5, chain=0.2, sorry=0.1,
                docstrings=0.1, spine=True,
            ),
            "few tags and untagged reference chains across modules: closure "
            "inference carries the load while rendering sees few labels",
        ),
        Workload(
            "wide-ci",
            gen.Shape(modules=40, decls=1000, tagged=0.8, refs=1.5, locality=0.7, chain=0.0, sorry=0.1, uses=0.3),
            "the CI pass: most declarations tagged with shallow references, so "
            "parsing, rendering, graph, JSON and writes dominate; largest legacy TeX",
        ),
    )
}

# One cycle of commands; every workload runs all of them, so every run
# reports every end-to-end metric.  Workloads differ in project shape, that
# is, in which layer carries the load.
CYCLE = (
    "extract_noop",
    "extract_edit_leaf",
    "status",
    "extract_edit_core",
    "check",
    "graph",
    "convert",
    "extract_cold",
    "setup",
)


class BenchFailure(Exception):
    """A command exited wrongly or printed output that fails its check."""


# ---------------------------------------------------------------------------
# Command runners


def host_speed() -> float:
    """Host speed now relative to the reference, from one calibration loop.

    Shared hosts change speed by a third or more within seconds, for every
    process alike.  Timings are scaled by the speed measured just before and
    just after each timed step, so they read as seconds at the reference
    speed.  The loop runs for tens of milliseconds, long enough to feel the
    host's time slicing rather than to slip between slices.
    """

    start = time.perf_counter()
    acc = 0
    for i in range(CALIBRATION_LOOPS):
        acc += i * i % 7
    return REFERENCE_CALIBRATION_S / (time.perf_counter() - start)


def timed(step) -> tuple[object, float]:
    """(result of step(), its wall time in reference seconds)."""

    before = host_speed()
    start = time.perf_counter()
    value = step()
    elapsed = time.perf_counter() - start
    return value, elapsed * (before + host_speed()) / 2


class SubprocessRunner:
    """Runs each command in a fresh interpreter and reaps it with wait4."""

    def __init__(self) -> None:
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = str(SRC)
        self.env.pop("ARCHFORGE_CONFIG", None)

    def run(self, argv: list[str], cwd: Path, out: Path) -> tuple[int, float, float]:
        """(exit code, wall time in reference seconds, peak RSS in MB) of one command."""

        (code, rss), elapsed = timed(lambda: self._spawn(argv, cwd, out))
        return code, elapsed, rss

    def _spawn(self, argv: list[str], cwd: Path, out: Path) -> tuple[int, float]:
        with open(out, "wb") as stdout, open(out.with_suffix(".err"), "wb") as stderr:
            proc = subprocess.Popen(
                [sys.executable, "-c", LAUNCH, *argv],
                cwd=cwd,
                env=self.env,
                stdout=stdout,
                stderr=stderr,
                stdin=subprocess.DEVNULL,
            )
            timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
            timer.start()
            reaped = False
            try:
                _, status, usage = os.wait4(proc.pid, 0)
                reaped = True
            finally:
                timer.cancel()
                timer.join()
                if not reaped:
                    proc.kill()
                    proc.wait()
            proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, usage.ru_maxrss / 1024.0


class InProcessRunner:
    """Calls archforge.cli.main in this process (used by the traced run)."""

    def __init__(self) -> None:
        if str(SRC) not in sys.path:
            sys.path.insert(0, str(SRC))
        import archforge.cli

        self.cli = archforge.cli

    def run(self, argv: list[str], cwd: Path, out: Path) -> tuple[int, float, float]:
        old = os.getcwd()
        os.chdir(cwd)
        try:
            with open(out, "w", encoding="utf-8") as stdout, open(
                out.with_suffix(".err"), "w", encoding="utf-8"
            ) as stderr, contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                start = time.perf_counter()
                try:
                    code = self.cli.main(argv)
                except SystemExit as exc:
                    code = exc.code if isinstance(exc.code, int) else 1
                elapsed = time.perf_counter() - start
        finally:
            os.chdir(old)
        return code, elapsed, 0.0


# ---------------------------------------------------------------------------
# File helpers


def write_tree(root: Path, files: dict[str, str]) -> None:
    shutil.rmtree(root, ignore_errors=True)
    for rel, text in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")


def files_written(out: str) -> int:
    """N of the `wrote N files` summary that ends the output of `archforge extract`."""

    last = out.strip().splitlines()[-1]
    if not last.startswith("wrote "):
        raise BenchFailure(f"unexpected summary {last!r}")
    return int(last.split()[1])


def read_tree(root: Path) -> dict[str, bytes]:
    return {
        p.relative_to(root).as_posix(): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }



# ---------------------------------------------------------------------------
# One workload session


class Session:
    """A generated project plus the commands run on it and their checks."""

    def __init__(self, workload: Workload, seed: int, work: Path, runner) -> None:
        self.workload = workload
        self.seed = seed
        self.work = work
        self.runner = runner
        self.project = work / "project"
        self.bootstrap = work / "bootstrap"
        self.logs = work / "logs"
        self.samples: dict[str, list[float]] = {op: [] for op in CYCLE}
        self.peak_rss_mb = 0.0
        self.attempted = 0
        self.failed = 0
        self.rng = random.Random(seed * 1_000_003 + 17)
        self.first_convert: dict[str, bytes] | None = None
        self.gp: gen.Project | None = None
        self.artifact_bytes: int | None = None

    # -- setup

    def setup(self) -> None:
        """Set the project up, then the oracle of it and of the bootstrap inputs."""

        shutil.rmtree(self.work, ignore_errors=True)
        self.logs.mkdir(parents=True)
        self.op("setup")
        self.boot_oracle = gen.Oracle(self.gp)
        self.boot_oracle.evaluate()
        self.oracle = self.boot_oracle

    def current_oracle(self) -> gen.Oracle:
        if self.oracle is None:
            self.oracle = gen.Oracle(self.gp)
            self.oracle.evaluate()
        return self.oracle

    # -- commands

    def command(self, argv: list[str], cwd: Path, tag: str) -> tuple[int, float, str]:
        self.attempted += 1
        out = self.logs / f"{tag}.out"
        code, elapsed, rss = self.runner.run(argv, cwd, out)
        self.peak_rss_mb = max(self.peak_rss_mb, rss)
        return code, elapsed, out.read_text(encoding="utf-8")

    def fail(self, op: str, message: str) -> None:
        self.failed += 1
        print(f"[{self.workload.name} seed {self.seed}] {op}: {message}", file=sys.stderr)

    def op(self, op: str) -> None:
        try:
            getattr(self, "op_" + op)()
        except (BenchFailure, ValueError, LookupError) as exc:
            # ValueError and LookupError: output that does not parse as expected
            self.fail(op, f"{type(exc).__name__}: {exc}")

    def expect_exit(self, code: int, want: int = 0) -> None:
        if code != want:
            raise BenchFailure(f"exit code {code}, expected {want}")

    def extract(self, op: str) -> int:
        code, elapsed, out = self.command(["extract"], self.project, op)
        self.expect_exit(code)
        self.samples[op].append(elapsed)
        return files_written(out)

    def op_setup(self) -> None:
        """Generate the project and build it once, timed together as setup_s.

        The first time this sets up the project the other commands work on.
        Afterwards it sets a copy up in a side directory, once per cycle, so
        that setup_s is a median over the whole run like the other times.
        """

        root = self.project if self.gp is None else self.work / "setup"
        shutil.rmtree(root, ignore_errors=True)

        def generate():
            gp = gen.generate(self.workload.shape, self.seed)
            write_tree(root, gen.project_files(gp))
            return gp, gen.project_files(gp, tagged=False)

        (gp, bootstrap_files), generated = timed(generate)
        if self.gp is None:
            self.gp, self.bootstrap_files = gp, bootstrap_files
        code, built, out = self.command(["extract"], root, "setup")
        self.expect_exit(code)
        self.samples["setup"].append(generated + built)
        if files_written(out) == 0:
            raise BenchFailure("set-up build wrote no files")
        if self.artifact_bytes is None:
            self.artifact_bytes = sum(len(data) for data in read_tree(root / OUT_DIR).values())

    def op_extract_cold(self) -> None:
        shutil.rmtree(self.project / OUT_DIR, ignore_errors=True)
        if self.extract("extract_cold") == 0:
            raise BenchFailure("cold extract wrote no files")

    def op_extract_noop(self) -> None:
        written = self.extract("extract_noop")
        if written != 0:
            raise BenchFailure(f"no-op extract wrote {written} files")

    def edit(self, m: int) -> None:
        """Open or close one proof in module m, in the record and on disk."""

        decls = [d for d in self.gp.by_module[m] if d.has_proof and d.sorry != "using"]
        d = self.rng.choice(decls or self.gp.by_module[m])
        if d.has_proof and d.sorry != "using":
            d.sorry = "plain" if d.sorry == "none" else "none"
        else:
            d.docstring = f"edited {self.rng.randrange(10**6)}"
        (self.project / gen.module_path(m)).write_text(gen.module_source(self.gp, m), encoding="utf-8")
        self.oracle = None

    def op_extract_edit_leaf(self) -> None:
        self.edit(self.rng.choice(self.gp.leaf_modules()))
        if self.extract("extract_edit_leaf") == 0:
            raise BenchFailure("leaf edit rewrote no files")

    def op_extract_edit_core(self) -> None:
        self.edit(0)  # every module imports M000 transitively
        if self.extract("extract_edit_core") == 0:
            raise BenchFailure("core edit rewrote no files")

    def op_status(self) -> None:
        code, elapsed, out = self.command(["status", "--json"], self.project, "status")
        self.expect_exit(code)
        self.samples["status"].append(elapsed)
        want = self.current_oracle().status
        got = json.loads(out)
        if got != want:
            raise BenchFailure(f"status {got} != oracle {want}")

    def op_check(self) -> None:
        code, elapsed, out = self.command(["check"], self.project, "check")
        # unknown-label and unknown-module findings are errors, so they fail the exit code
        self.expect_exit(code)
        self.samples["check"].append(elapsed)

    def op_graph(self) -> None:
        code, elapsed, out = self.command(["graph", "--format", "json"], self.project, "graph")
        self.expect_exit(code)
        self.samples["graph"].append(elapsed)
        data = json.loads(out)
        oracle = self.current_oracle()
        vertices = {v["label"] for v in data["vertices"]}
        edges = {(e["from"], e["to"], e["kind"]) for e in data["edges"]}
        if vertices != oracle.vertices:
            raise BenchFailure(f"graph vertices differ from oracle: {len(vertices ^ oracle.vertices)}")
        if edges != oracle.edges:
            raise BenchFailure(
                f"graph edges differ from oracle: {len(edges - oracle.edges)} extra, "
                f"{len(oracle.edges - edges)} missing"
            )

    def op_convert(self) -> None:
        write_tree(self.bootstrap, self.bootstrap_files)
        code, elapsed, out = self.command(
            ["convert", "--blueprint", "legacy.tex"], self.bootstrap, "convert"
        )
        self.expect_exit(code)
        self.samples["convert"].append(elapsed)
        nodes = len(self.boot_oracle.by_label)
        summary = out.strip().splitlines()[-1]
        if not summary.endswith(f"latex replacements: {nodes}, skipped nodes: 0"):
            raise BenchFailure(f"convert summary {summary!r}, expected {nodes} replacements")
        converted = read_tree(self.bootstrap)
        if self.first_convert is None:
            self.first_convert = converted
        elif converted != self.first_convert:
            raise BenchFailure("convert of identical inputs produced a different tree")

    # -- checks after the timed region

    def finish(self) -> None:
        """Checks after the timed region."""

        tree = read_tree(self.project / OUT_DIR)
        try:
            fresh = self.work / "fresh"
            shutil.rmtree(fresh, ignore_errors=True)
            code, _, _ = self.command(["extract", "--force", "--out", str(fresh)], self.project, "force")
            self.expect_exit(code)
            if read_tree(fresh) != tree:
                raise BenchFailure("incremental tree differs from a forced extract into a fresh directory")
        except BenchFailure as exc:
            self.fail("final", str(exc))
        try:
            self.check_converted()
        except (BenchFailure, ValueError, LookupError, OSError) as exc:
            self.fail("convert", f"{type(exc).__name__}: {exc}")

    def check_converted(self) -> None:
        """The converted project extracts to the tagged original's labels and statuses."""

        code, _, _ = self.command(["extract"], self.bootstrap, "bootstrap-extract")
        self.expect_exit(code)
        data = json.loads((self.bootstrap / OUT_DIR / "blueprint.json").read_text(encoding="utf-8"))
        got = {
            n["label"]: (n["statement"]["leanOk"], n["proof"]["leanOk"] if n["proof"] else None)
            for n in data["nodes"]
        }
        want = self.boot_oracle.label_ok
        if set(got) != set(want):
            raise BenchFailure(f"converted label set differs: {len(set(got) ^ set(want))} labels")
        wrong = [lbl for lbl in want if got[lbl] != want[lbl]]
        if wrong:
            raise BenchFailure(f"{len(wrong)} converted labels have other statuses, first {wrong[0]}")


# ---------------------------------------------------------------------------
# Runs


def run_cycle(session: Session, seconds: float | None) -> None:
    """Every command once, then whole or partial cycles until `seconds` pass."""

    deadline = time.perf_counter() + (seconds or 0.0)
    i = 0
    while i < len(CYCLE) or (seconds is not None and time.perf_counter() < deadline):
        session.op(CYCLE[i % len(CYCLE)])
        i += 1


def run_untraced(workload: Workload, seed: int, seconds: float, work: Path) -> dict:
    session = Session(workload, seed, work, SubprocessRunner())
    session.setup()
    run_cycle(session, seconds)
    session.finish()
    for op, samples in session.samples.items():
        print(f"{op}_s samples: " + " ".join(f"{x:.3f}" for x in samples), file=sys.stderr)
    metrics = {f"{op}_s": (statistics.median(s), "s") for op, s in session.samples.items() if s}
    metrics["peak_rss_mb"] = (session.peak_rss_mb, "MB")
    metrics["artifact_bytes"] = (session.artifact_bytes or 0, "B")
    return result(session.attempted, session.failed, metrics)


def run_traced(workload: Workload, seed: int, work: Path) -> dict:
    import tracing

    runner = InProcessRunner()
    plain = Session(workload, seed, work, runner)
    plain.setup()
    start = time.perf_counter()
    run_cycle(plain, None)
    untraced_s = time.perf_counter() - start
    plain.finish()

    tracer = tracing.Tracer()
    traced = Session(workload, seed, work, runner)
    traced.setup()
    residual, inner, visit = tracer.calibrate()
    print(f"tracer: {residual * 1e6:.3f} us per call outside the wrapper's clocks, "
          f"{inner * 1e6:.3f} us inside, {visit * 1e6:.3f} us per closure visit", file=sys.stderr)
    tracer.install()
    try:
        start = time.perf_counter()
        run_cycle(traced, None)
        traced_s = time.perf_counter() - start
    finally:
        tracer.uninstall()
    traced.finish()
    tracer.write_spans(work / "spans.tsv")

    metrics = {name: (value, metric_unit(name)) for name, value in tracer.metrics().items()}
    metrics["trace.untraced_s"] = (untraced_s, "s")
    metrics["trace.traced_s"] = (traced_s, "s")
    metrics["trace.overhead_s"] = (traced_s - untraced_s, "s")
    return result(
        plain.attempted + traced.attempted, plain.failed + traced.failed, metrics
    )


def metric_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_per_module") or name.endswith("_per_label"):
        return "ratio"
    if name.endswith("bytes_written"):
        return "B"
    return "count"


def result(attempted: int, failed: int, metrics: dict[str, tuple[float, str]]) -> dict:
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "archforge" / "cli.py").is_file():
        print(f"error: archforge sources not found under {SRC}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    work = WORK / workload.name
    if args.trace:
        out = run_traced(workload, args.seed, work)
    else:
        out = run_untraced(workload, args.seed, args.seconds, work)
    for sub in ("project", "bootstrap", "fresh", "setup"):
        shutil.rmtree(work / sub, ignore_errors=True)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
