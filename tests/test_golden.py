"""Golden output digests: the byte contract of the bundled table2 scenario.

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
    # 502 lines, 32 collided packets: exercises backoff and collisions
    "trace-random": (
        ["trace", "table2", "--scheduler", "random", "--seed", "101",
         "--window", "3280us"],
        "60860b658c16dffa074bed739ab819672e373e50a091e9aa82c9929479d70d28",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_output_digest(name, tmp_path):
    argv, digest = GOLDEN[name]
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
