"""Pinned output digests and event counts for a few fixed runs.

Any change to simulation behaviour or to the output format moves one of
these SHA-256 digests.  A change that moves one on purpose says why and
re-pins it here; every other change must leave them as they are.  The
event count is the run's engine.processed, summed over the cells of a
suite: one per reception, timer or movement step, however they are queued.
"""

import hashlib
import math
import random

import pytest

from debhsim.scenario import ScenarioConfig, build_suite, run_scenario, run_suite

OUTPUTS = ("metrics.csv", "audit.log", "events.trace")


def _paper30(seed, defense, **kw):
    """The 30-node mobile setting under distributed attack; seed 65 holds
    the known false positive."""
    pool = random.Random(seed).sample(range(1, 31), 4)
    return ScenarioConfig(
        name="paper30", seed=seed, attack_mode="distributed",
        attack_groups=((pool[0], pool[1]), (pool[2], pool[3])),
        defense=defense, trace=True, **kw)


def _benign(n, connections, **kw):
    """A benign arena run at the mobile ladder's density."""
    side = 1000.0 * math.sqrt(n / 30)
    return ScenarioConfig(name="benign%d" % n, node_count=n,
                          arena=(side, side), connections=connections,
                          seed=1, trace=True, **kw)


RUNS = {
    "suite-s0": lambda out: run_suite([0], out, trace=True),
    # Re-routes around suspects and link-break healing in one run.
    "paper30-s0-debh": lambda out: run_scenario(_paper30(0, "debh"), out),
    "paper30-s65-debh": lambda out: run_scenario(_paper30(65, "debh"), out),
    "paper30-s65-none": lambda out: run_scenario(_paper30(65, "none"), out),
    "benign60-s1": lambda out: run_scenario(_benign(60, 20), out),
    # Relays answer from their own routes.  These pin unsound verdicts:
    # honest nodes 2 and 8 (paper30, attackers 13, 25, 28 and 29) and
    # 2, 6, 13, 21, 49 and 52 (benign60, no attacker) are condemned.  The
    # fix that stops a cached reply from condemning honest nodes re-pins
    # both.
    "paper30-s0-debh-cache": lambda out: run_scenario(
        _paper30(0, "debh", cache_reply=True), out),
    "benign60-s1-cache": lambda out: run_scenario(
        _benign(60, 20, cache_reply=True), out),
    # Spans many movement windows and grid cells.
    "benign150-s1": lambda out: run_scenario(_benign(150, 50), out),
}

GOLDEN = {
    "benign150-s1": {
        "metrics.csv":
            "22b44f0cccf65422a29a928decd6b8a245529801f568b749f88a2e22745abc7d",
        "audit.log":
            "de8ea9b44b556fa8c73105e69724ec6ac6a334a5094cea40d42e434cef9ff0fb",
        "events.trace":
            "56de35fbf95e45bc3e002b7611c6abbcd088f5a2b1dcc5252932a5d27c01b787",
    },
    "benign60-s1": {
        "metrics.csv":
            "51fdb2c7c30083b8964e4762d4ffeec61148f3221f6f96f96436988352dafd3b",
        "audit.log":
            "aa42a440a57d0a37a25015279c109d9d8970a7b465b403292c09f3181d1f4d77",
        "events.trace":
            "4c581690a578547a88b97fffde38a1f081c39a39a022ca60bbee86c0ef4f558c",
    },
    "benign60-s1-cache": {
        "metrics.csv":
            "7d59734ad6c6eded679a8c68e087a60de795ad78e4f0e891a36f718f59b54211",
        "audit.log":
            "195876d67fe206c3001efbeff56492f0e2f0a52356564d15afbd5064f6b1e141",
        "events.trace":
            "1e084e58d034738195887bb813d4a3972ff10941d267c79ab3489df05306fdb0",
    },
    "paper30-s0-debh": {
        "metrics.csv":
            "cfc1b656c0ce3532de88e346186dcdb4b47d0d1f591b8463c08547fb36195d77",
        "audit.log":
            "553097b15b59fee34d37268f95a1e6fbf6d80b48a7c6e34864dc28ae6149b007",
        "events.trace":
            "57c87ae0f71395f127789505cb5da54d19ed7aa5b64f326d04a1a158ba23960e",
    },
    "paper30-s0-debh-cache": {
        "metrics.csv":
            "4d189c57b03f76dd3386c53fb571a3d9e031e25fd1dca6cde04154ed5959a653",
        "audit.log":
            "71a7b661aee68f310902a9187d1f2c05608baf2bf9a6303cbf339c20a46504d9",
        "events.trace":
            "11c4572e376ef92e7c9b92e4c277bd540a06c15bfce7d9719dbdc08ed8274048",
    },
    "paper30-s65-debh": {
        "metrics.csv":
            "aba957bc4dba9983349b31998b69d798db8c179f1afd46e7255362dbfd96e304",
        "audit.log":
            "e4407f6b06256fee67a7b1dcf281f07de4425a9884e4c89b606e2457ea00af2b",
        "events.trace":
            "82462be5e68863681c1c687409f9cd62ef8d1c56f5eaf9c1b6ab8352282f9caa",
    },
    "paper30-s65-none": {
        "metrics.csv":
            "845a4e34227d5eee4791dfce4292362c6fc1d730d975194c69a38237c6bef0d5",
        "audit.log":
            "3dcc99f81688aebf899459d16e56056957d4d48e5446478b9e23e5e2d6fd9e85",
        "events.trace":
            "6e9cfc251e7fc219e5b77b33830dbc39eede5544d8804b21b295470fe16cd35d",
    },
    "suite-s0": {
        "metrics.csv":
            "72ec502ba89ded5c56cd650606fbb0efbd7bbc1018f0f073d2e29768500f3310",
        "audit.log":
            "22a08b1bf62e2369a83dd9ecaa9d24f0c35b13fb93fa996663dbda0b9f93499b",
        "events.trace":
            "f37310b2b2bfd908eaaea705877cae6ce3dc749679e6c5a558c9c0bc167638fb",
    },
}


PROCESSED = {
    "benign150-s1": 22225,
    "benign60-s1": 7859,
    "benign60-s1-cache": 13360,
    "paper30-s0-debh": 4878,
    "paper30-s0-debh-cache": 4974,
    "paper30-s65-debh": 4334,
    "paper30-s65-none": 2355,
    "suite-s0": 19657,
}


# suite.csv of run_suite([0], out); _digests leaves it out.
SUITE_CSV = "8d3c98b86d77865e6f821392df6e7fd4d3c3ee41b9ba46d0a02b618cb92b97ab"


def _digests(out_dir):
    """One digest per output kind over every file of that kind, in name
    order, with each file's name hashed before its bytes."""
    hashes = {kind: hashlib.sha256() for kind in OUTPUTS}
    for path in sorted(out_dir.iterdir()):
        for kind in OUTPUTS:
            if path.name.endswith(kind):
                hashes[kind].update(path.name.encode() + b"\0")
                hashes[kind].update(path.read_bytes())
    return {kind: h.hexdigest() for kind, h in hashes.items()}


def _processed(result):
    """engine.processed of a run_scenario result or, for a run_suite
    result, summed over its cells."""
    if isinstance(result, tuple):
        return sum(sim.engine.processed for sim in result[2].values())
    return result.engine.processed


@pytest.mark.parametrize("name", sorted(RUNS))
def test_outputs_match_the_pinned_digests(name, tmp_path):
    result = RUNS[name](str(tmp_path))
    assert _digests(tmp_path) == GOLDEN[name]
    assert _processed(result) == PROCESSED[name]


def test_suite_csv_matches_its_pinned_digest(tmp_path):
    run_suite([0], str(tmp_path))
    digest = hashlib.sha256((tmp_path / "suite.csv").read_bytes()).hexdigest()
    assert digest == SUITE_CSV


def test_suite_csv_is_the_per_run_metrics_in_scenario_then_seed_order(tmp_path):
    seeds = [1, 0]
    run_suite(seeds, str(tmp_path))
    header, *body = (tmp_path / "suite.csv").read_text().splitlines(True)
    expected = []
    for cfg in build_suite():
        for seed in seeds:
            lines = (tmp_path / ("%s-s%d-metrics.csv" % (cfg.name, seed))
                     ).read_text().splitlines(True)
            assert lines[0] == header
            expected += lines[1:]
    assert body == expected
