"""Golden output digests: the byte contract of the bundled table2 scenario
and of small inline scenarios that reach paths table2 does not.

Refactors and speed-ups must leave these bytes unchanged. A change that
alters them on purpose states the new output and why, and re-pins here.
"""

import hashlib

import pytest

from txsched.cli import main

GOLDEN = {
    "run-csv": (
        ["run", "table2", "--format", "csv"],
        "b96bf32d6adae0f48f29afa44b0a56e2cdb15db80ede9acefd0a5b2ff96260e6",
    ),
    "run-json": (
        ["run", "table2", "--format", "json"],
        "ee25630f8b8e4060e736b8e6e2e842da2a3e1b5a57489fef25602ef085c43741",
    ),
    # 502 lines, 32 collided packets from same-instant commits; table2
    # never defers, so no backoff transition appears (see INLINE_TRACE)
    "trace-random": (
        ["trace", "table2", "--scheduler", "random", "--seed", "101",
         "--window", "3280us"],
        "60860b658c16dffa074bed739ab819672e373e50a091e9aa82c9929479d70d28",
    ),
}

# sha256 of `run table2 --summary --out FILE`'s stdout: the summary alone
SUMMARY = "857e786cbbdac015052e9fd0122e16800101c70b6cbb6eedfe32532bcd1aeebd"


_CHANNEL = "channel slot_time 13us aifs 58us cw 15 ambient_loss 0.01\n"

# the CI smoke block's saturated exhaustive search (twin 10 x 23 us trains
# beside 12 x 31 us and 9 x 47 us) with all three schedulers, lossy air and
# a backoff window of cw slots
_SATURATED = (
    "format txsched/1\n"
    "connection 0 deadline 2000us packets 10 airtime 23us overhead 58us\n"
    "connection 1 deadline 2000us packets 10 airtime 23us overhead 58us\n"
    "connection 2 deadline 2200us packets 12 airtime 31us overhead 58us\n"
    "connection 3 deadline 1900us packets 9 airtime 47us overhead 58us\n"
    "scheduler step 100us\n"
    "schedulers exhaustive tsgs random\n"
    "channel slot_time 13us aifs 58us cw {cw} ambient_loss 0.05\n"
    "sweep start 300us stop 1200us step 300us\n"
    "seeds 1 2\n"
)

# name -> (scenario text, sha256 of its `run --format csv` output)
INLINE = {
    # native windows of five sizes, two equal deadlines (stable order),
    # greedy in deadline-ascending order with a nonzero final cost
    "mixed-deadline-ascending": (
        "format txsched/1\n"
        "connection 0 deadline 4000us packets 20 airtime 23us overhead 58us\n"
        "connection 1 deadline 2500us packets 12 airtime 31us overhead 58us\n"
        "connection 2 deadline 5000us packets 30 airtime 47us overhead 58us\n"
        "connection 3 deadline 2500us packets 8 airtime 23us overhead 58us\n"
        "connection 4 deadline 6000us packets 25 airtime 31us overhead 58us\n"
        "scheduler step 150us ordering deadline-ascending\n"
        "schedulers tsgs random\n" + _CHANNEL + "seeds 3 5 8\n",
        "49c2bae8dce52834be06a5bb9d0cacb648257bf68c5bacd6b46c5217b80d96de",
    ),
    # a margin shrinks every grid; the sweep rescales deadlines around it
    "margin": (
        "format txsched/1\n"
        "connection 0 deadline 6000us packets 20 airtime 23us overhead 58us\n"
        "connection 1 deadline 6000us packets 20 airtime 31us overhead 58us\n"
        "connection 2 deadline 7000us packets 15 airtime 47us overhead 58us\n"
        "scheduler step 250us margin 400us\n"
        "schedulers tsgs random\n" + _CHANNEL
        + "sweep start 500us stop 3500us step 1000us\nseeds 11 12\n",
        "328a9da86f8690f47bb8bd878b4afc2013bdaa3c64298f2ed531a8cf006df00c",
    ),
    # all three schedulers; the oracle finds cost 0 where greedy cannot
    "three-schedulers": (
        "format txsched/1\n"
        "connection 0 deadline 3000us packets 10 airtime 23us overhead 58us\n"
        "connection 1 deadline 3600us packets 12 airtime 31us overhead 58us\n"
        "connection 2 deadline 2600us packets 6 airtime 47us overhead 58us\n"
        "scheduler step 200us margin 100us\n"
        "schedulers exhaustive tsgs random\n" + _CHANNEL + "seeds 21 22\n",
        "7f766bf4fcce639261e84420094e1bf28bb8f00a5a1fcbc60b0e803b22b3616d",
    ),
    # every backoff is 0, drawn from one-bit candidates of which half are
    # rejected, among the loss draws
    "saturated-cw-1": (
        _SATURATED.format(cw=1),
        "50bc04e6f86d1994cd4061ca46cda8d99e086530dc0de990ca9fb2d74e53114b",
    ),
    # each backoff candidate is 33 bits, two 32-bit words
    "saturated-cw-two-words": (
        _SATURATED.format(cw=2**32 + 1),
        "8f649205b6498c35305416fda58481110787ba0d7cef621f66fb31fdea3ede31",
    ),
}


# name -> (scenario text, `trace` options, sha256 of the trace)
INLINE_TRACE = {
    # 222 lines: five trains on 200us windows with cw 3 reach every
    # backoff transition (defer at the sense and in the AIFS, countdown
    # frozen mid-way, commit at zero slots), collisions and an ambient loss
    "backoff": (
        "format txsched/1\n"
        "connection 0 deadline 3000us packets 6 airtime 23us overhead 58us\n"
        "connection 1 deadline 3000us packets 5 airtime 31us overhead 58us\n"
        "connection 2 deadline 3000us packets 4 airtime 47us overhead 58us\n"
        "connection 3 deadline 3000us packets 6 airtime 23us overhead 58us\n"
        "connection 4 deadline 3000us packets 5 airtime 31us overhead 58us\n"
        "scheduler step 100us\n"
        "schedulers tsgs random\n"
        "channel slot_time 13us aifs 58us cw 3 ambient_loss 0.05\n"
        "seeds 8\n",
        ["--scheduler", "random", "--seed", "8", "--window", "200us"],
        "9f55a4af85765e5824a859063526367da0cbf3ca09079cee8c671e83f01ac83c",
    ),
    # 48 lines: tsgs places three 243us trains back to back, so each
    # train's last packet ends at the instant the next train first senses;
    # the ending resolves first, then the next sender finds the channel idle
    "handoff": (
        "format txsched/1\n"
        "connection 0 deadline 3000us packets 3 airtime 23us overhead 58us\n"
        "connection 1 deadline 3000us packets 3 airtime 23us overhead 58us\n"
        "connection 2 deadline 3000us packets 3 airtime 23us overhead 58us\n"
        "scheduler step 243us\n"
        "schedulers tsgs random\n"
        "channel slot_time 13us aifs 58us cw 15 ambient_loss 0.2\n"
        "seeds 8\n",
        ["--scheduler", "tsgs", "--seed", "8", "--window", "486us"],
        "d13c3cc47308176c09ccab1f36ca5712bc7cab7d6dfe986de0305cd0d27b7f93",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_output_digest(name, tmp_path):
    argv, digest = GOLDEN[name]
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_summary_digest(tmp_path, capsys):
    assert main(["run", "table2", "--summary", "--out", str(tmp_path / "t.csv")]) == 0
    stdout = capsys.readouterr().out
    assert hashlib.sha256(stdout.encode()).hexdigest() == SUMMARY


@pytest.mark.parametrize("name", sorted(INLINE))
def test_inline_scenario_digest(name, tmp_path):
    text, digest = INLINE[name]
    scenario = tmp_path / f"{name}.scn"
    scenario.write_text(text, encoding="utf-8")
    out = tmp_path / "out.csv"
    assert main(["run", str(scenario), "--format", "csv", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("name", sorted(INLINE_TRACE))
def test_inline_trace_digest(name, tmp_path):
    text, options, digest = INLINE_TRACE[name]
    scenario = tmp_path / f"{name}.scn"
    scenario.write_text(text, encoding="utf-8")
    out = tmp_path / "trace.txt"
    assert main(["trace", str(scenario)] + options + ["--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
