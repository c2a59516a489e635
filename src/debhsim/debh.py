"""The pair verdict, path-check session state, and queue adjudication."""

from .metrics import format_ids

AUDIT_HEADER = ("time,source,path_number,event,subject,"
                "blackhole_queue,rrep_generator_queue")


def format_audit_row(now, source, path_number, event, subject,
                     blackhole_queue, generator_queue):
    return "%.4f,%s,%s,%s,%s,%s,%s" % (
        now, source, path_number, event, subject,
        format_ids(blackhole_queue), format_ids(generator_queue))


def is_malicious(a_trusts_b, b_trusts_a):
    """A pair condemns node A when A claims trust that B does not return."""
    return a_trusts_b and not b_trusts_a


class CheckSession:
    """Source-side state of one path security check, timers included."""

    def __init__(self, source, final_destination, session_id, started_at=0.0,
                 current_target=None, on_done=None):
        self.source = source
        self.final_destination = final_destination
        self.session_id = session_id
        self.started_at = started_at  # when the checked route was requested
        self.opened_at = None         # when start_check opened the check
        self.path_number = 1
        self.nonce = None             # the current path's; None between paths
        self.current_target = current_target
        self.route = None             # the aodv.RoutingEntry being checked
        self.blackhole_queue = []
        self.rrep_generator_queue = []
        # claimant -> (claimed next hop, claimed trust for it)
        self.claims = {}
        self.verified = set()
        self.acked = set()
        self.dcp_count = 0
        self.state = "checking"
        self.on_done = on_done        # called with True when a path is safe
        self.watchdog = None          # queue entry of the session timeout
        self.verify_timer = None      # queue entry of the BCh query timeout

    def add_suspect(self, node):
        if node not in self.blackhole_queue:
            self.blackhole_queue.append(node)

    def add_generator(self, node):
        self.rrep_generator_queue.append(node)

    def take_route(self, route):
        """Check the current sub-path along this route."""
        self.route = route
        self.add_generator(route.generator)
        self.claims[route.generator] = (route.generator_nhn,
                                        route.generator_trust)


def resolve_next_target(session, suspect, claimed_nhn):
    """Pick the node the next sub-path must reach after a suspect.

    The suspect's own claim names the target, except that a claim naming
    the reply generator is replaced by the generator's advertised next
    hop.  Claims that lead nowhere new (unknown, the suspect itself, the
    source, or an already-suspected node) fall back to re-checking the
    original destination.
    """
    route = session.route
    if route is not None and suspect == route.generator:
        target = route.generator_nhn
    else:
        target = claimed_nhn
    if route is not None and target == route.generator:
        target = route.generator_nhn
    if (target is None or target == suspect or target == session.source
            or target in session.blackhole_queue):
        target = session.final_destination
    return target


def adjudicate(session, trusts):
    """Walk the session's reply-generator queue in FIFO order and pass
    verdicts; trusts(holder, subject) says whether holder trusts subject.

    Every queued suspect is condemned outright.  A generator whose
    claimed next hop is already condemned falls with it.  A generator
    whose claimed next hop is a verified node is judged by whether that
    node trusts it back: trust both ways clears the generator and ends
    the walk, anything else condemns it.  A claim that cannot be checked
    at all condemns the claimant.  Generators claiming themselves
    (replies sent as the destination) are cleared only by their own ack.

    Returns (condemned ids in verdict order, safe generator or None).
    """
    condemned = list(session.blackhole_queue)
    safe = None
    for g in session.rrep_generator_queue:
        if g in condemned:
            continue
        n = session.claims[g][0]
        if n == g:
            if g in session.acked:
                safe = g
                break
            continue
        if n in condemned:
            condemned.append(g)
            continue
        if n in session.verified:
            if trusts(n, g):
                safe = g
                break
            condemned.append(g)
            continue
        condemned.append(g)
    return condemned, safe
