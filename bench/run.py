"""debhsim benchmark: one workload per process.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; debhsim is imported from `src/`.
A pass imports debhsim afresh and runs the whole workload once.  Passes
repeat until `--seconds` is spent.  With `--trace 0` every pass is
untraced and the end-to-end metrics are printed; with `--trace 1`
untraced and traced passes alternate and the per-layer metrics are
printed.  Host times are scaled to a quiet host's speed by a reference
load timed around each pass (reference.py).  Every pass must write
byte-identical outputs.  The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.  Work files
go to `.bench_out/` in the checkout.
"""

import argparse
import gc
import hashlib
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_out")

sys.path.insert(0, HERE)
from layers import Tracer  # noqa: E402
from reference import REFERENCE_S, reference_s  # noqa: E402
from workloads import WORKLOADS, Timer  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    METRICS = json.load(_fh)
OUTPUT_FILES = ("metrics.csv", "audit.log", "events.trace")


class PassResult:
    """One run of a whole workload against a fresh import of debhsim."""

    def __init__(self, traced, records, wall_s, import_s, timer, scale,
                 outputs, tracer):
        self.traced = traced
        self.records = records
        self.wall_s = wall_s
        self.import_s = import_s
        self.run_s = timer.run_s
        self.build_s = timer.build_s
        self.scale = scale
        self.digest, self.out_bytes, self.out_lines = outputs
        self.tracer = tracer

    @property
    def events(self):
        return sum(r.events for r in self.records)


def _debhsim_modules():
    return [n for n in sys.modules if n.split(".")[0] == "debhsim"]


def _fresh_import():
    """Import debhsim from src/ with none of its modules cached."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    for name in _debhsim_modules():
        del sys.modules[name]
    dh = importlib.import_module("debhsim")
    where = os.path.realpath(os.path.join(dh.__file__, "..", ".."))
    if where != os.path.realpath(SRC):
        raise RuntimeError("imported debhsim from %s, not %s" % (where, SRC))
    return dh


def _digest(out_dir):
    """SHA-256 over the outputs, bytes written, and line counts by kind."""
    h = hashlib.sha256()
    total = 0
    lines = {}
    for dirpath, dirnames, filenames in os.walk(out_dir):
        dirnames.sort()
        for fn in sorted(filenames):
            path = os.path.join(dirpath, fn)
            total += os.path.getsize(path)
            kind = next((k for k in OUTPUT_FILES if fn.endswith(k)), None)
            if kind is None:
                continue
            with open(path, "rb") as fh:
                data = fh.read()
            h.update(os.path.relpath(path, out_dir).encode() + b"\0")
            h.update(data)
            lines[kind] = lines.get(kind, 0) + data.count(b"\n")
    return h.hexdigest(), total, lines


def _out_dir():
    # One per process, so that runs side by side do not share outputs.
    return os.path.join(WORK, "out-%d" % os.getpid())


def run_pass(workload, seed, traced, size=None):
    """Run the workload once; outputs go to a cleared work directory."""
    out_dir = _out_dir()
    shutil.rmtree(out_dir, ignore_errors=True)
    saved = {n: sys.modules[n] for n in _debhsim_modules()}
    gc.collect()
    ref_before = reference_s()
    try:
        t0 = time.perf_counter()
        dh = _fresh_import()
        import_s = time.perf_counter() - t0
        timer = Timer(dh.scenario)
        tracer = None
        if traced:
            tracer = Tracer()
            tracer.install(dh)
            root = tracer.enter(tracer.name_id("bench.pass"))
        kwargs = {} if size is None else {"size": size}
        records = WORKLOADS[workload](dh, timer, seed, out_dir, **kwargs)
        if traced:
            tracer.leave(root)
        wall_s = time.perf_counter() - t0
    finally:
        for name in _debhsim_modules():
            del sys.modules[name]
        sys.modules.update(saved)
    scale = REFERENCE_S * 2 / (ref_before + reference_s())
    return PassResult(traced, records, wall_s, import_s, timer, scale,
                      _digest(out_dir), tracer)


def _nearest_rank(values, q):
    ordered = sorted(values)
    return ordered[max(0, -(-len(ordered) * q // 100) - 1)]


def scaled_wall(passes):
    return statistics.median(p.wall_s * p.scale for p in passes)


def end_to_end(passes):
    """The user-visible metrics, from untraced passes only.

    Other tenants of a shared host slow it down by up to 2x, in stretches
    that outlast a run.  So each pass's times are multiplied by its
    `scale`: REFERENCE_S over the time of a fixed reference load measured
    just before and after the pass.  A metric is the median over passes,
    and a run's time is the median of its repeats.
    """
    untraced = [p for p in passes if not p.traced]
    run_ms = [statistics.median(times) * 1000.0 for times in
              zip(*([t * p.scale for t in p.run_s] for p in untraced))]
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "wall_s": scaled_wall(untraced),
        "events_per_s": statistics.median(p.events / (p.wall_s * p.scale)
                                          for p in untraced),
        "run_ms_p50": _nearest_rank(run_ms, 50),
        "run_ms_p90": _nearest_rank(run_ms, 90),
        "setup_s": statistics.median((p.import_s + sum(p.build_s)) * p.scale
                                     for p in untraced),
        "peak_rss_mb": rss_kb / 1024.0,
    }


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer(passes):
    """Layer metrics from the last traced pass, plus the trace overhead."""
    traced = [p for p in passes if p.traced][-1]
    calls, self_s, bfs_in_forger = traced.tracer.summary()
    tr = traced.tracer
    recs = traced.records

    def count(prefix):
        return sum(v for k, v in calls.items() if k.startswith(prefix))

    def busy(prefix):
        return traced.scale * sum(v for k, v in self_s.items()
                                  if k.startswith(prefix))

    events = traced.events
    scheduled = count("engine.schedule")
    engine_s = busy("engine.")
    neighbors = count("topology.neighbors")
    unicasts = count("simulation.unicast")
    sessions = sum(r.sessions for r in recs)
    safe, condemned = tr.verdicts["safe"], tr.verdicts["condemned"]
    delays = [d for r in recs for d in r.secure_delays]
    debh_events = sum(r.events for r in recs if r.defense == "debh")
    none_events = sum(r.events for r in recs if r.defense == "none")
    forger_queries = count("adversary.designated_forger")
    untraced_wall = scaled_wall([p for p in passes if not p.traced])
    traced_wall = scaled_wall([p for p in passes if p.traced])
    return {
        "engine.events": events,
        "engine.scheduled": scheduled,
        "engine.wasted_ratio": _ratio(scheduled - events, scheduled),
        "engine.peak_queue": tr.peak_queue,
        "engine.self_s": engine_s,
        "engine.us_per_event": _ratio(engine_s * 1e6, events),
        "topology.neighbors_calls": neighbors,
        "topology.neighbors_s": busy("topology.neighbors"),
        "topology.us_per_neighbors": _ratio(busy("topology.neighbors") * 1e6,
                                            neighbors),
        "topology.mean_fanout": _ratio(tr.fanout, neighbors),
        "topology.has_link_calls": count("topology.has_link"),
        "topology.has_link_s": busy("topology.has_link"),
        "topology.bfs_calls": count("topology.bfs_hops"),
        "topology.bfs_s": busy("topology.bfs_hops"),
        "simulation.unicasts": unicasts,
        "simulation.unicast_refused_ratio": _ratio(tr.refused, unicasts),
        "simulation.broadcasts": count("simulation.broadcast"),
        "simulation.receptions": (count("aodv.recv.") + count("debh.recv.")
                                  + count("adversary.recv.")),
        "simulation.self_s": busy("simulation."),
        "aodv.recv_routing": count("aodv.recv."),
        "aodv.routing_s": busy("aodv."),
        "aodv.discoveries": count("aodv.discover"),
        "aodv.rreq_floods": sum(r.rreq_floods for r in recs),
        "aodv.flows_failed_ratio": _ratio(sum(r.flows_failed for r in recs),
                                          sum(r.flows for r in recs)),
        "debh.sessions": sessions,
        "debh.sessions_safe": safe,
        "debh.sessions_condemned": condemned,
        "debh.sessions_aborted": (sum(r.sessions_done for r in recs)
                                  - safe - condemned),
        "debh.paths_per_session": _ratio(sum(r.path_numbers for r in recs),
                                         sessions),
        "debh.probes": tr.probes,
        "debh.recv_defense": count("debh.recv."),
        "debh.defense_s": busy("debh."),
        "debh.event_ratio": _ratio(debh_events, none_events),
        "debh.secure_path_sim_s": _ratio(sum(delays), len(delays)),
        "adversary.recv": count("adversary.recv."),
        "adversary.self_s": busy("adversary."),
        "adversary.forged_rreps": sum(r.forged_rreps for r in recs),
        "adversary.data_drops": sum(r.data_drops for r in recs),
        "adversary.forger_queries": forger_queries,
        "adversary.bfs_per_forger_query": _ratio(bfs_in_forger, forger_queries),
        "outputs.write_s": busy("outputs."),
        "outputs.bytes": traced.out_bytes,
        "outputs.trace_lines": traced.out_lines.get("events.trace", 0),
        "outputs.audit_lines": traced.out_lines.get("audit.log", 0),
        "scenario.build_s": busy("scenario."),
        "scenario.configs_per_run": _ratio(tr.configs, len(recs)),
        "trace.overhead_ratio": _ratio(traced_wall, untraced_wall),
    }


def measure(workload, seed, seconds, trace, size=None):
    """Run passes for `seconds` and return the result object to print.

    `size` shrinks the workload (seeds, or nodes for mobile-300); only
    the benchmark's own tests set it.
    """
    passes = []
    start = time.perf_counter()
    while True:
        traced = bool(trace) and len(passes) % 2 == 1
        if traced:
            # Only the last traced pass's spans are reported; free the rest.
            for p in passes:
                p.tracer = None
        passes.append(run_pass(workload, seed, traced, size))
        spent = time.perf_counter() - start
        next_kind = [p for p in passes
                     if p.traced == (bool(trace) and not traced)]
        if len(passes) >= 2 and spent + next_kind[-1].wall_s > seconds:
            break
    shutil.rmtree(_out_dir())
    records = [r for p in passes for r in p.records]
    digests = sorted({p.digest for p in passes})
    events = sorted({tuple(r.events for r in p.records) for p in passes})
    correct = len(digests) == 1 and len(events) == 1 and passes[0].events > 0
    values = per_layer(passes) if trace else end_to_end(passes)
    kind = "per_layer" if trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in METRICS[kind]}
    report = {
        "workload": workload, "seed": seed, "trace": int(trace),
        "passes": len(passes), "traced_passes": sum(p.traced for p in passes),
        "runs_per_pass": len(passes[0].records),
        "pass_wall_s": ["%s%.3f" % ("t" if p.traced else "", p.wall_s)
                        for p in passes],
        "pass_scale": ["%.3f" % p.scale for p in passes],
        "digests": digests,
        "failures": sorted({"%s: %s" % (r.label, "; ".join(r.failures))
                            for r in records if r.failures}),
    }
    result = {
        "correct": correct,
        "attempted": len(records),
        "failed": sum(1 for r in records if r.failures),
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }
    if trace:
        tracer = [p for p in passes if p.traced][-1].tracer
        tracer.write(os.path.join(WORK, "%s-spans.bin" % workload))
    return report, result


def emit(report, result):
    """Print the report, one metric per line, then the result as JSON."""
    for key, value in report.items():
        print("%s: %s" % (key, value))
    for name, metric in result["metrics"].items():
        print("%-34s %14.6g %s" % (name, metric["value"], metric["unit"]))
    print(json.dumps(result))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "debhsim", "__init__.py")):
        print("no debhsim sources under %s" % SRC, file=sys.stderr)
        return 2
    report, result = measure(args.workload, args.seed, args.seconds, args.trace)
    os.makedirs(WORK, exist_ok=True)
    with open(os.path.join(WORK, "%s-seed%d-trace%d.json"
                           % (args.workload, args.seed, args.trace)), "w") as fh:
        json.dump(dict(report, **result), fh, indent=1)
    emit(report, result)
    return 0

if __name__ == "__main__":
    sys.exit(main())
