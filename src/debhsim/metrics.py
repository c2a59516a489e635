"""Per-run counters and their CSV rows."""

CSV_HEADER = "scenario,seed,source,rreq_count,delay_s,detected,planted,sent,delivered"


class MetricsError(RuntimeError):
    pass


def _fmt_ids(ids):
    ids = sorted(set(ids))
    if not ids:
        return "-"
    return ";".join(str(i) for i in ids)


class RunMetrics:
    """Everything one simulation run is judged on."""

    def __init__(self):
        self.rreq_count_by_source = {}
        self.secure_path_delay_s = {}
        self.detected_malicious = set()
        self.sent_by_source = {}
        self.delivered_by_source = {}
        self.forged_rreps = 0
        self.malicious_drops = 0
        self._marked_sessions = set()

    def record_rreq(self, source):
        self.rreq_count_by_source[source] = self.rreq_count_by_source.get(source, 0) + 1

    def record_sent(self, source):
        self.sent_by_source[source] = self.sent_by_source.get(source, 0) + 1

    def record_delivery(self, source):
        self.delivered_by_source[source] = self.delivered_by_source.get(source, 0) + 1

    def record_detection(self, node_ids):
        self.detected_malicious.update(node_ids)

    def record_forged_rrep(self):
        self.forged_rreps += 1

    def record_malicious_drop(self):
        self.malicious_drops += 1

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

    def delivery_ratio(self):
        sent = self.total_sent()
        if sent == 0:
            return None
        return self.total_delivered() / sent

    def delay_for_source(self, source):
        delays = [d for (s, _), d in self.secure_path_delay_s.items() if s == source]
        if not delays:
            return None
        return min(delays)

    def csv_rows(self, scenario, seed, planted):
        rows = []
        sources = sorted(set(self.rreq_count_by_source)
                         | set(self.sent_by_source)
                         | {s for s, _ in self.secure_path_delay_s})
        detected = _fmt_ids(self.detected_malicious)
        planted_s = _fmt_ids(planted)
        for src in sources:
            delay = self.delay_for_source(src)
            rows.append([
                scenario,
                str(seed),
                str(src),
                str(self.rreq_count_by_source.get(src, 0)),
                "-" if delay is None else "%.4f" % delay,
                detected,
                planted_s,
                str(self.sent_by_source.get(src, 0)),
                str(self.delivered_by_source.get(src, 0)),
            ])
        return rows

    def write_csv(self, path, scenario, seed, planted):
        with open(path, "w") as fh:
            fh.write(CSV_HEADER + "\n")
            for row in self.csv_rows(scenario, seed, planted):
                fh.write(",".join(row) + "\n")
