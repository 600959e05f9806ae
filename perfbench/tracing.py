"""In-process layer tracing for archforge, installed from outside the library.

`Tracer.install` wraps public functions of the `archforge` modules.  A
module that imported a function by name holds its own binding (for example
`build.render_node`), so every binding that refers to the original function
is replaced.  Each call pushes a frame; when it returns, its duration minus
the time of the calls it made is added to its self time.  Spans (name,
parent id, start, end) stay in memory until `write_spans`.

`resolve_references` runs once per declaration visited by every closure
walk, hundreds of thousands of times per command on deep projects.  A call
made directly inside `reference_closure` is only counted, as a closure
visit, and not timed: its time is part of the closure's self time, which is
what a faster closure would save.

The wrapper's own bookkeeping must count as nobody's self time.  So a timed
call charges its caller for its whole time inside the wrapper, bookkeeping
included, plus a per-call remainder that no clock inside the wrapper can see
(entering and leaving the wrapper, reading the clocks).  Its own self time
is the time between its inner clock reads, less what that is for a no-op.
A closure visit charges the closure for what the counting wrapper costs.
`calibrate` measures these per-call costs on a no-op function before the
wrappers are installed.
"""

from __future__ import annotations

import importlib
from time import perf_counter

# the traced archforge modules; `config`, `names` and `errors` cost too little
LAYERS = ("source", "store", "infer", "latex", "graph", "build", "cli", "convert")

CALIBRATION_CALLS = 20_000  # per timed loop in Tracer.calibrate
CALIBRATION_REPEATS = 7

# (module, function, span name); the span name's prefix is the layer
TARGETS = (
    ("source", "tokenize", "source.tokenize"),
    ("source", "parse_module", "source.parse"),
    ("store", "build_store", "store.build"),
    ("infer", "warm_statuses", "infer.warm"),
    ("infer", "resolve_references", "infer.resolve"),
    ("infer", "reference_closure", "infer.closure"),
    ("infer", "part_status", "infer.part_status"),
    ("infer", "effective_uses", "infer.effective_uses"),
    ("latex", "render_node", "latex.render_node"),
    ("latex", "render_module_fragment", "latex.module_fragment"),
    ("latex", "blueprint_json_data", "latex.blueprint_json"),
    ("latex", "fragment_paths", "latex.fragment_paths"),
    ("latex", "render_macros", "latex.macros"),
    ("graph", "build_graph", "graph.build"),
    ("graph", "run_lints", "graph.lints"),
    ("graph", "emit_dot", "graph.emit_dot"),
    ("graph", "graph_json_data", "graph.json_data"),
    ("build", "load_project", "build.load"),
    ("build", "discover_modules", "build.discover"),
    ("build", "render_project", "build.render"),
    ("build", "_env_fingerprint", "build.staleness"),
    ("build", "transitive_hashes", "build.staleness"),
    ("build", "load_manifest", "build.staleness"),
    ("build", "compute_staleness", "build.staleness"),
    ("build", "_dump_json", "build.serialize"),
    ("build", "extract", "build.write"),
    ("cli", "blueprint_cross_findings", "cli.cross_findings"),
    ("cli", "status_counts", "cli.status_counts"),
    ("cli", "cmd_extract", "cli.command"),
    ("cli", "cmd_graph", "cli.command"),
    ("cli", "cmd_check", "cli.command"),
    ("cli", "cmd_status", "cli.command"),
    ("cli", "cmd_convert", "cli.command"),
    ("convert", "parse_legacy_blueprint", "convert.parse_legacy"),
    ("convert", "plan_conversion", "convert.plan"),
    ("convert", "apply_plan", "convert.apply"),
)


class Tracer:
    """Spans, self times, call counts and counters of one traced pass."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, int, float, float]] = []
        self.self_time: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.counters: dict[str, float] = {}
        self._stack: list[list] = []  # frames: [name, span id, start, child time]
        self._installed: list[tuple[object, str, object]] = []
        self._command = 0  # id of the current CLI command, for per-command counters
        self._rendered: set[tuple[int, str]] = set()
        self._statuses: dict[tuple[int, object, str], int] = {}
        self._last_edges = 0
        self._plan_files: dict[str, str] = {}
        self.closure_visits = 0
        # per-call wrapper costs, see calibrate: outside a timed call's clocks,
        # between its inner clock reads, and of a closure visit
        self.residual = 0.0
        self.inner = 0.0
        self.visit = 0.0

    # -- counters filled from call arguments and results

    def _bump(self, key: str, n: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + n

    def _observe(self, name: str, args: tuple, result) -> None:
        if name == "source.tokenize":
            self._bump("source.tokens", len(result))
        elif name == "infer.part_status":
            node, part = args[1], args[2]
            self._statuses[(self._command, node.name, part)] = len(result.inferred_uses)
        elif name == "latex.render_node":
            self._rendered.add((self._command, args[1]))
        elif name == "graph.build":
            self._last_edges = len(result.edges)
        elif name == "build.render":
            self._plan_files = result.files
        elif name == "build.write":
            written = result.written
            files = self._plan_files
            self._bump("build.files_written", len(written))
            self._bump("build.files_unchanged", len(files) - len(written))
            self._bump("build.bytes_written", sum(len(files[r].encode("utf-8")) for r in written))
        elif name == "convert.plan":
            self._bump("convert.edits", len(result.source_edits) + len(result.latex_edits))

    # -- wrapping

    def _wrap(self, name: str, fn):
        tracer = self
        spans = self.spans
        stack = self._stack
        counts_visits = name == "infer.resolve"
        is_command = name == "cli.command"

        def traced(*args, **kwargs):
            entered = perf_counter()
            parent = stack[-1] if stack else None
            if is_command:
                tracer._command += 1
            sid = len(spans)
            spans.append((name, parent[1] if parent else -1, 0.0, 0.0))
            frame = [name, sid, 0.0, 0.0]
            stack.append(frame)
            ok = False
            frame[2] = perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = perf_counter()
                stack.pop()
                own = end - frame[2] - frame[3] - tracer.inner
                tracer.self_time[name] = tracer.self_time.get(name, 0.0) + own
                tracer.calls[name] = tracer.calls.get(name, 0) + 1
                spans[sid] = (name, spans[sid][1], frame[2], end)
                if ok:
                    tracer._observe(name, args, result)
                if parent is not None:
                    parent[3] += perf_counter() - entered + tracer.residual

        def visit_or_traced(*args, **kwargs):
            if stack and stack[-1][0] == "infer.closure":
                tracer.closure_visits += 1
                stack[-1][3] += tracer.visit
                return fn(*args, **kwargs)
            return traced(*args, **kwargs)

        wrapper = visit_or_traced if counts_visits else traced
        wrapper.__wrapped__ = fn
        return wrapper

    def calibrate(self) -> tuple[float, float, float]:
        """Measure the wrapper's per-call costs `residual`, `inner` and `visit`, in seconds.

        A loop of calls to a two-argument no-op runs bare and under the
        wrappers (loop and no-op both wrapped), once as an ordinary caller
        and callee and once as a closure and its visits.  The extra self time
        of the wrapped loop, per call, is `residual` or `visit`; the no-op's
        self time per call is `inner`.  Minima over repeats keep host noise
        out.
        """

        def noop(a, b):
            pass

        def loop(fn):
            for _ in range(CALIBRATION_CALLS):
                fn(None, None)

        self.residual = self.inner = self.visit = 0.0
        bare = []
        plain = []
        inner = []
        visit = []
        plain_loop = self._wrap("calibrate.loop", loop)
        plain_noop = self._wrap("calibrate.noop", noop)
        closure_loop = self._wrap("infer.closure", loop)
        visited_noop = self._wrap("infer.resolve", noop)
        for _ in range(CALIBRATION_REPEATS):
            start = perf_counter()
            loop(noop)
            bare.append(perf_counter() - start)
            self.self_time.clear()
            self.spans.clear()
            plain_loop(plain_noop)
            closure_loop(visited_noop)
            plain.append(self.self_time["calibrate.loop"])
            inner.append(self.self_time["calibrate.noop"])
            visit.append(self.self_time["infer.closure"])
        self.residual = max(0.0, (min(plain) - min(bare)) / CALIBRATION_CALLS)
        self.visit = max(0.0, (min(visit) - min(bare)) / CALIBRATION_CALLS)
        self.inner = min(inner) / CALIBRATION_CALLS
        self.spans.clear()
        self.self_time.clear()
        self.calls.clear()
        self.closure_visits = 0
        return self.residual, self.inner, self.visit

    def install(self) -> None:
        modules = [importlib.import_module(f"archforge.{m}") for m in LAYERS]
        for mod_name, fn_name, span in TARGETS:
            orig = getattr(importlib.import_module(f"archforge.{mod_name}"), fn_name)
            wrapped = self._wrap(span, orig)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        self._installed.append((mod, attr, orig))
                        setattr(mod, attr, wrapped)

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._installed):
            setattr(mod, attr, orig)
        self._installed.clear()

    # -- results

    def metrics(self) -> dict[str, float]:
        st = self.self_time.get
        calls = self.calls.get
        parses = calls("source.parse", 0)
        labels_rendered = len(self._rendered)
        out = {
            "source.parse_s": st("source.parse", 0.0),
            "source.tokenize_s": st("source.tokenize", 0.0),
            "source.tokenize_calls": calls("source.tokenize", 0),
            "source.tokens": self.counters.get("source.tokens", 0),
            "source.tokenize_calls_per_module": calls("source.tokenize", 0) / parses if parses else 0.0,
            "store.build_s": st("store.build", 0.0),
            "infer.warm_s": st("infer.warm", 0.0),
            "infer.resolve_s": st("infer.resolve", 0.0),
            "infer.resolve_calls": calls("infer.resolve", 0) + self.closure_visits,
            "infer.closure_s": st("infer.closure", 0.0),
            "infer.closure_calls": calls("infer.closure", 0),
            "infer.closure_visits": self.closure_visits,
            "infer.inferred_edges": sum(self._statuses.values()),
            "latex.render_node_s": st("latex.render_node", 0.0),
            "latex.render_node_calls": calls("latex.render_node", 0),
            "latex.renders_per_label": (
                calls("latex.render_node", 0) / labels_rendered if labels_rendered else 0.0
            ),
            "latex.module_fragment_s": st("latex.module_fragment", 0.0),
            "latex.blueprint_json_s": st("latex.blueprint_json", 0.0),
            "graph.build_s": st("graph.build", 0.0),
            "graph.lints_s": st("graph.lints", 0.0),
            "graph.emit_dot_s": st("graph.emit_dot", 0.0),
            "graph.edges": self._last_edges,
            "build.discover_s": st("build.discover", 0.0),
            "build.render_s": st("build.render", 0.0),
            "build.staleness_s": st("build.staleness", 0.0),
            "build.serialize_s": st("build.serialize", 0.0),
            "build.write_s": st("build.write", 0.0),
            "build.files_written": self.counters.get("build.files_written", 0),
            "build.files_unchanged": self.counters.get("build.files_unchanged", 0),
            "build.bytes_written": self.counters.get("build.bytes_written", 0),
            "cli.cross_findings_s": st("cli.cross_findings", 0.0),
            "cli.status_counts_s": st("cli.status_counts", 0.0),
            "convert.parse_legacy_s": st("convert.parse_legacy", 0.0),
            "convert.plan_s": st("convert.plan", 0.0),
            "convert.apply_s": st("convert.apply", 0.0),
            "convert.edits": self.counters.get("convert.edits", 0),
        }
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(
                t for name, t in self.self_time.items() if name.split(".")[0] == layer
            )
        return out

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            f.write("id\tparent\tname\tstart_s\tend_s\n")
            for i, (name, parent, start, end) in enumerate(self.spans):
                f.write(f"{i}\t{parent}\t{name}\t{start:.6f}\t{end:.6f}\n")
