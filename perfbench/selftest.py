#!/usr/bin/env python3
"""Toy-scale self-test of the benchmark harness.

    python3 perfbench/selftest.py

Checks that generation is deterministic for a seed, that the generator's
oracle agrees with archforge's own inference on small projects, and that a
plain and a traced run each print exactly the metrics BENCHMARK.json names,
with every output check passing.  Takes well under a minute.
"""

from __future__ import annotations

import json
import sys

import run

gen = run.gen

TOY_SHAPES = {
    "local-refs": gen.Shape(modules=4, decls=40, tagged=0.3, refs=1.3, locality=0.9, chain=0.0, sorry=0.2),
    "deep-closure": gen.Shape(
        modules=4, decls=40, tagged=0.12, refs=4, locality=0.5, chain=0.2, sorry=0.2, spine=True
    ),
    "wide-ci": gen.Shape(
        modules=4, decls=40, tagged=0.8, refs=1.5, locality=0.7, chain=0.0, sorry=0.2, uses=0.3
    ),
}


def expect(ok: bool, message: str) -> None:
    if not ok:
        raise SystemExit(f"selftest failed: {message}")


def check_deterministic() -> None:
    for shape in TOY_SHAPES.values():
        a = gen.project_files(gen.generate(shape, 7))
        b = gen.project_files(gen.generate(shape, 7))
        c = gen.project_files(gen.generate(shape, 8))
        expect(a == b, "same seed gave different projects")
        expect(a != c, "different seeds gave the same project")
        expect(
            gen.legacy_tex(gen.generate(shape, 7)) == gen.legacy_tex(gen.generate(shape, 7)),
            "same seed gave different legacy blueprints",
        )


def check_oracle_agrees() -> None:
    sys.path.insert(0, str(run.SRC))
    from archforge.cli import status_counts
    from archforge.graph import build_graph
    from archforge.infer import warm_statuses
    from archforge.names import Name
    from archforge.source import parse_module_text
    from archforge.store import build_store

    for name, shape in TOY_SHAPES.items():
        for seed in range(1, 6):
            gp = gen.generate(shape, seed)
            units = [
                parse_module_text(gen.module_source(gp, m), Name.parse(gen.module_name(m)))
                for m in range(gp.module_count)
            ]
            upstream = frozenset(Name.parse(u.fq) for u in gp.upstream)
            store = build_store(units, upstream)
            warm_statuses(store)
            oracle = gen.Oracle(gp)
            oracle.evaluate()
            where = f"{name} seed {seed}"
            expect(status_counts(store) == oracle.status, f"{where}: status counts differ")
            graph = build_graph(store)
            expect(set(graph.vertices) == oracle.vertices, f"{where}: vertices differ")
            edges = {(e.src, e.dst, e.kind) for e in graph.edges}
            expect(edges == oracle.edges, f"{where}: edges differ")


def check_metrics_printed() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    expect({w["name"] for w in spec["workloads"]} == set(run.WORKLOADS), "workloads differ")
    for name, shape in TOY_SHAPES.items():
        workload = run.Workload(name, shape, "")
        work = run.WORK / "selftest" / name
        for out, want in (
            (run.run_untraced(workload, 3, 0.0, work), end_to_end),
            (run.run_traced(workload, 3, work), per_layer),
        ):
            expect(out["correct"] and out["failed"] == 0, f"{name}: {out['failed']} failed checks")
            got = {k: v["unit"] for k, v in out["metrics"].items()}
            expect(got == want, f"{name}: metrics differ from BENCHMARK.json: {set(got) ^ set(want)}")


def main() -> int:
    check_deterministic()
    check_oracle_agrees()
    check_metrics_printed()
    print("selftest ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
