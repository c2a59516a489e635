"""Per-run counters, the claims a finished run is judged by, the id-list
format, and the one output-file writer."""

from collections import Counter
from itertools import islice

CSV_HEADER = "scenario,seed,source,rreq_count,delay_s,detected,planted,sent,delivered"


class MetricsError(RuntimeError):
    pass


def format_ids(ids):
    """Node ids as `a;b` in the order given, or `-` when there are none."""
    return ";".join(str(i) for i in ids) or "-"


# Lines joined per write: one write per line costs more than the join,
# and a whole file as one string would add its size to peak memory.
WRITE_BLOCK_LINES = 4096


def write_lines(path, lines, header=None):
    """Write one output file: the header line if any, then every line."""
    with open(path, "w") as fh:
        if header is not None:
            fh.write(header + "\n")
        lines = iter(lines)
        while block := list(islice(lines, WRITE_BLOCK_LINES)):
            block.append("")
            fh.write("\n".join(block))


def claims(sim):
    """How a finished run stands against the defense's claims: the one
    definition of soundness, termination and completeness.

    Returns sorted id lists: `honest`, condemned nodes that were not
    planted; `stale`, sessions opened more than `session_timeout` before
    the end that are not done; `checked`, planted nodes some session
    queued as a reply generator, one queued only as a sub-path's
    destination included; `missed`, checked nodes left uncondemned.
    Reads only `cfg`, `metrics` and `sessions_all`, so it also judges a
    `run_suite` cell."""
    cfg, detected = sim.cfg, sim.metrics.detected_malicious
    planted = set(cfg.planted())
    checked = planted & {g for s in sim.sessions_all
                         for g in s.rrep_generator_queue}
    return {
        "honest": sorted(detected - planted),
        "stale": [s.session_id for s in sim.sessions_all if s.state != "done"
                  and cfg.duration_s - s.opened_at > cfg.session_timeout],
        "checked": sorted(checked),
        "missed": sorted(checked - detected),
    }


class RunMetrics:
    """Everything one simulation run is judged on.  The simulation writes
    each counter where its event happens."""

    def __init__(self):
        self.rreq_count_by_source = Counter()
        self.secure_path_delay_s = {}
        self.detected_malicious = set()
        self.sent_by_source = Counter()
        self.delivered_by_source = Counter()
        self.forged_rreps = 0
        self.malicious_drops = 0
        self._marked_sessions = set()

    def mark_secure_path(self, source, destination, t_request, t_secure, session_id):
        # One verdict per check; a second mark means the bookkeeping broke.
        if session_id in self._marked_sessions:
            raise MetricsError("secure path marked twice for session %r" % (session_id,))
        self._marked_sessions.add(session_id)
        key = (source, destination)
        if key not in self.secure_path_delay_s:
            self.secure_path_delay_s[key] = t_secure - t_request

    def total_sent(self):
        return sum(self.sent_by_source.values())

    def total_delivered(self):
        return sum(self.delivered_by_source.values())

    def delay_for_source(self, source):
        delays = [d for (s, _), d in self.secure_path_delay_s.items() if s == source]
        if not delays:
            return None
        return min(delays)

    def csv_rows(self, scenario, seed, planted):
        sources = sorted(set(self.rreq_count_by_source)
                         | set(self.sent_by_source)
                         | {s for s, _ in self.secure_path_delay_s})
        detected = format_ids(sorted(self.detected_malicious))
        planted = format_ids(planted)
        rows = []
        for src in sources:
            delay = self.delay_for_source(src)
            rows.append([
                scenario,
                str(seed),
                str(src),
                str(self.rreq_count_by_source[src]),
                "-" if delay is None else "%.4f" % delay,
                detected,
                planted,
                str(self.sent_by_source[src]),
                str(self.delivered_by_source[src]),
            ])
        return rows
