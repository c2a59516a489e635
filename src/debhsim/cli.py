"""Command line entry points: run, suite, replay."""

import argparse
import sys
import time
from dataclasses import replace

from .metrics import format_ids
from .replay import FIXTURES, replay
from .scenario import ConfigError, load_config, run_scenario, run_suite


class _Parser(argparse.ArgumentParser):
    # Usage problems are validation errors, so they exit 1, leaving 2
    # for replay mismatches.
    def error(self, message):
        self.exit(1, "%s: error: %s\n" % (self.prog, message))


def _parse_seeds(text):
    try:
        if ".." in text:
            lo, hi = text.split("..", 1)
            return list(range(int(lo), int(hi) + 1))
        return [int(part) for part in text.split(",") if part]
    except ValueError:
        raise argparse.ArgumentTypeError("expected n..m or a comma list, got %r" % text)


def _print_run(sim):
    m = sim.metrics
    cfg = sim.cfg
    print("scenario=%s seed=%d defense=%s" % (cfg.name, cfg.seed, cfg.defense))
    print("  detected=%s planted=%s" % (format_ids(sorted(m.detected_malicious)),
                                        format_ids(cfg.planted())))
    print("  sent=%d delivered=%d rreq=%d probes=%d"
          % (m.total_sent(), m.total_delivered(),
             sum(m.rreq_count_by_source.values()),
             sum(s.dcp_count for s in sim.sessions_all)))
    for (src, dst), delay in sorted(m.secure_path_delay_s.items()):
        print("  secure_path %d->%d delay=%.4fs" % (src, dst, delay))


def _print_timing(started, events):
    # Host timing goes to stderr so stdout stays the same run to run.
    wall = time.perf_counter() - started
    print("wall=%.3fs events=%d events/s=%.0f" % (wall, events, events / wall),
          file=sys.stderr)


def _cmd_run(args):
    cfg = load_config(args.config)
    cfg = replace(cfg, seed=args.seed, defense=args.defense or cfg.defense,
                  trace=args.trace)
    started = time.perf_counter()
    sim = run_scenario(cfg, args.out)
    _print_timing(started, sim.engine.processed)
    _print_run(sim)
    if args.out and cfg.trace:
        print("wrote %s/metrics.csv, %s/audit.log and %s/events.trace"
              % (args.out, args.out, args.out))
    elif args.out:
        print("wrote %s/metrics.csv and %s/audit.log" % (args.out, args.out))
    return 0


def _cmd_suite(args):
    seeds = args.seeds
    started = time.perf_counter()
    rows, summary, sims = run_suite(seeds, args.out,
                                    defense=args.defense,
                                    trace=args.trace)
    _print_timing(started,
                  sum(sim.engine.processed for sim in sims.values()))
    print("suite: %d scenarios x %d seeds, defense=%s"
          % (len(summary), len(seeds), args.defense))
    for entry in summary:
        counts = entry["detected_counts"]
        print("  %-12s planted=%d detected(min=%d max=%d) exact=%s"
              % (entry["scenario"], len(entry["planted"]),
                 min(counts), max(counts), entry["exact"]))
    delivered = [sim.metrics.total_delivered() for sim in sims.values()]
    print("  delivered mean=%.1f min=%d max=%d"
          % (sum(delivered) / len(delivered), min(delivered), max(delivered)))
    if args.out:
        print("wrote %s/suite.csv" % args.out)
    return 0


def _cmd_replay(args):
    result = replay(args.fixture, out_dir=args.out)
    if result.ok:
        print("replay %s: %d rows match" % (result.name, len(result.expected)))
        return 0
    print("replay %s: MISMATCH" % result.name)
    for diff in result.diffs:
        print("  " + diff)
    return 2


def main(argv=None):
    parser = _Parser(prog="debhsim",
                     description="Simulate black hole attacks on an "
                                 "AODV network and the debh defense.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one scenario from a config file")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--seed", type=int, required=True)
    p_run.add_argument("--out", default=None)
    p_run.add_argument("--defense", choices=("debh", "none"), default=None)
    p_run.add_argument("--trace", action="store_true")
    p_run.set_defaults(func=_cmd_run)

    p_suite = sub.add_parser("suite", help="run the standard scenario set")
    p_suite.add_argument("--seeds", required=True, type=_parse_seeds,
                         help="seed range n..m or comma list")
    p_suite.add_argument("--out", required=True)
    p_suite.add_argument("--defense", choices=("debh", "none"), default="debh")
    p_suite.add_argument("--trace", action="store_true")
    p_suite.set_defaults(func=_cmd_suite)

    p_replay = sub.add_parser("replay", help="check a shipped fixture trace")
    p_replay.add_argument("--fixture", required=True,
                          choices=sorted(FIXTURES))
    p_replay.add_argument("--out", default=None)
    p_replay.set_defaults(func=_cmd_replay)

    args = parser.parse_args(argv)
    if args.command == "run" and args.trace and args.out is None:
        # Nothing would write the trace the run formats.
        p_run.error("--trace needs --out")
    try:
        return args.func(args)
    except ConfigError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
