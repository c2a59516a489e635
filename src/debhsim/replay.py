"""Golden-trace replay: run a shipped fixture and diff its probe rows."""

from .scenario import ConfigError, cooperative_fixture, distributed_fixture, \
    run_scenario

# Expected probe rows as (node, next_hop, path_number,
# rrep_generator_queue, blackhole_queue), in emission order.

COOPERATIVE_ROWS = (
    (1, 2, 1, (15,), ()),
    (2, 10, 1, (15,), ()),
    (1, 3, 2, (15, 14), (10,)),
    (3, 6, 2, (15, 14), (10,)),
    (6, 11, 2, (15, 14), (10,)),
    (11, 13, 2, (15, 14), (10,)),
    (13, 14, 2, (15, 14), (10,)),
    (1, 3, 3, (15, 14, 3), (10, 14)),
)

COOPERATIVE_FINAL = {
    "path_number": 3,
    "blackhole_queue": (10, 14),
    "rrep_generator_queue": (15, 14, 3),
}

DISTRIBUTED_ROWS = (
    (1, 2, 1, (14,), ()),
    (2, 10, 1, (14,), ()),
    (1, 3, 2, (14, 16), (10,)),
    (3, 11, 2, (14, 16), (10,)),
    (11, 12, 2, (14, 16), (10,)),
    (1, 8, 3, (14, 16, 8), (10, 12)),
)

DISTRIBUTED_FINAL = {
    "path_number": 3,
    "blackhole_queue": (10, 12),
    "rrep_generator_queue": (14, 16, 8),
}

FIXTURES = {
    "cooperative": (cooperative_fixture, COOPERATIVE_ROWS, COOPERATIVE_FINAL),
    "distributed": (distributed_fixture, DISTRIBUTED_ROWS, DISTRIBUTED_FINAL),
}


def _parse_queue(text):
    if text == "-":
        return ()
    return tuple(int(n) for n in text.split(";"))


def probe_rows(audit_lines):
    """Extract (node, next_hop, path, generator_queue, blackhole_queue)
    from the audit lines of one run."""
    rows = []
    for line in audit_lines:
        _, _, path, event, subject, bq, genq = line.split(",")
        if event != "probe":
            continue
        node, nhn = subject.split(">")
        rows.append((int(node), int(nhn), int(path),
                     _parse_queue(genq), _parse_queue(bq)))
    return rows


def _fmt_row(row):
    node, nhn, path, genq, bq = row
    return "node=%s nhn=%s path=%s genq=%s bq=%s" % (
        node, nhn, path, list(genq), list(bq))


class ReplayResult:
    """Outcome of one fixture replay."""

    def __init__(self, name, expected, actual, final_expected, final_actual):
        self.name = name
        self.expected = expected
        self.actual = actual
        self.final_expected = final_expected
        self.final_actual = final_actual
        self.diffs = self._diff()
        self.ok = not self.diffs

    def _diff(self):
        diffs = []
        for i, (exp, act) in enumerate(zip(self.expected, self.actual)):
            if exp != act:
                diffs.append("row %d: expected %s, got %s"
                             % (i + 1, _fmt_row(exp), _fmt_row(act)))
        if len(self.expected) != len(self.actual):
            diffs.append("row count: expected %d, got %d"
                         % (len(self.expected), len(self.actual)))
            for i in range(len(self.expected), len(self.actual)):
                diffs.append("row %d: unexpected %s"
                             % (i + 1, _fmt_row(self.actual[i])))
            for i in range(len(self.actual), len(self.expected)):
                diffs.append("row %d: missing %s"
                             % (i + 1, _fmt_row(self.expected[i])))
        for key, exp in self.final_expected.items():
            act = self.final_actual.get(key)
            if act != exp:
                diffs.append("final %s: expected %s, got %s" % (key, exp, act))
        return diffs


def replay(name, out_dir=None):
    """Run the named fixture at seed 0 and compare its probe rows and
    final queue state against the frozen expectations."""
    try:
        builder, expected, final_expected = FIXTURES[name]
    except KeyError:
        raise ConfigError("fixture: unknown name %r (have: %s)"
                          % (name, ", ".join(sorted(FIXTURES))))
    sim = run_scenario(builder(), out_dir)
    actual = probe_rows(sim.audit_lines)
    if sim.sessions_all:
        session = sim.sessions_all[0]
        final_actual = {
            "path_number": session.path_number,
            "blackhole_queue": tuple(session.blackhole_queue),
            "rrep_generator_queue": tuple(session.rrep_generator_queue),
        }
    else:
        final_actual = {}
    return ReplayResult(name, expected, actual, final_expected, final_actual)
